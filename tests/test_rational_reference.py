"""The integer Gram-Schmidt routines against their frozen rational copies.

`linalg.inertia`, `linalg.lll_reduce` and `enumeration._integer_cholesky`
must give exactly what the `Fraction` routines in `rational_reference`
gave: the same signs, the same (G2, T) or the same ValueError, and the
same Fincke-Pohst tuple, so every enumeration downstream is unchanged.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rational_reference as ref
from k3lat import catalog, enumeration as en, gram_data, linalg


@st.composite
def unimodular(draw, n):
    P = linalg.identity(n)
    for _ in range(draw(st.integers(0, 4 * n)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        s = draw(st.integers(-3, 3))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    return P


@st.composite
def definite_grams(draw):
    """sign * P G P^t with G diagonally dominant and P unimodular."""
    n = draw(st.integers(1, 6))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            G[i][j] = G[j][i] = draw(st.integers(-3, 3))
    for i in range(n):
        G[i][i] = sum(abs(a) for a in G[i]) + draw(st.integers(1, 4))
    P = draw(unimodular(n))
    sign = draw(st.sampled_from([-1, 1]))
    return [[sign * a for a in row]
            for row in linalg.mat_mul(linalg.mat_mul(P, G), linalg.transpose(P))]


@st.composite
def symmetric_grams(draw):
    """Random symmetric matrices, and C^t D C of rank below n (degenerate)."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                M[i][j] = M[j][i] = draw(st.integers(-4, 4))
        return M
    k = draw(st.integers(0, n - 1))
    C = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=k, max_size=k))
    D = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    return [[sum(C[t][i] * D[t] * C[t][j] for t in range(k)) for j in range(n)]
            for i in range(n)]


any_grams = st.one_of(definite_grams(), symmetric_grams())


def reference_inertia(G):
    diag = ref.congruent_diagonal(G)
    return (sum(1 for d in diag if d > 0), sum(1 for d in diag if d < 0),
            sum(1 for d in diag if d == 0))


def outcome(f, G):
    try:
        return f(G)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None)
@given(any_grams)
def test_inertia_matches_reference(G):
    assert linalg.inertia(G) == reference_inertia(G)


@settings(max_examples=300, deadline=None)
@given(any_grams)
def test_lll_matches_reference(G):
    assert outcome(linalg.lll_reduce, G) == outcome(ref.lll_reduce, G)


@settings(max_examples=300, deadline=None)
@given(any_grams)
def test_integral_gram_schmidt_matches_reference(G):
    expect = outcome(ref.gram_schmidt_from_gram, G)
    got = outcome(linalg.integral_gram_schmidt, G)
    if expect is ValueError:
        assert got is ValueError
        return
    (mu, B), (d, lam) = expect, got
    n = len(G)
    assert d[0] == 1
    assert all(B[i] == Fraction(d[i + 1], d[i]) for i in range(n))
    assert all(lam[i][j] == d[j + 1] * mu[i][j]
               for i in range(n) for j in range(i))


@settings(max_examples=200, deadline=None)
@given(definite_grams())
def test_integer_cholesky_matches_reference(G):
    W = [[-a for a in row] for row in G] if G[0][0] < 0 else G
    assert en._integer_cholesky(W) == ref.integer_cholesky(W)
    G2, _ = linalg.lll_reduce(W)
    assert en._integer_cholesky(G2) == ref.integer_cholesky(G2)


@pytest.mark.parametrize("name", ["A2", "E8", "S_LATTICE_2_9_3_6", "leech"])
def test_catalog_grams_match_reference(name):
    G = catalog.leech().gram if name == "leech" else getattr(gram_data, name)
    assert linalg.inertia(G) == reference_inertia(G)
    assert linalg.lll_reduce(G) == ref.lll_reduce(G)
    W = [[-a for a in row] for row in G] if G[0][0] < 0 else G
    G2, _ = linalg.lll_reduce(W)
    assert en._integer_cholesky(G2) == ref.integer_cholesky(G2)
