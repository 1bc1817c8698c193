"""The integer Gram-Schmidt routines against their frozen copies.

`linalg.inertia` and `linalg.lll_reduce` must give exactly what the
`Fraction` routines in `rational_reference` gave: the same signs and the
same (G2, T) or the same ValueError (LLL with the Lovasz constant 99/100).
The determinant `linalg.inertia` returns must be `linalg.det`'s.
The integer budgets of the Fincke-Pohst tree must equal
d_j (bound - ||pi_j(x)||^2) computed in `Fraction`, with every division
exact. `enumeration._enumerate_reduced` must return the leaves of the
eager loop in `eager_reference` in the same order, so every enumeration
downstream is unchanged, and its norm-only leaves must be those leaves'
norms, with the same cuts and in the same order, also where the walk
replays memoized subtrees. LLL's output is also checked against the
definition of a reduced basis.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import eager_reference
import rational_reference as ref
from k3lat import catalog, enumeration as en, gram_data, linalg

DELTA = Fraction(99, 100)


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
def definite_grams(draw, max_rank=6, min_rank=1):
    """sign * P G P^t with G diagonally dominant and P unimodular."""
    n = draw(st.integers(min_rank, max_rank))
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
    """The signs of the Fraction diagonalisation, and linalg.det's
    determinant, which inertia reads off its last pivot."""
    diag = ref.congruent_diagonal(G)
    return (sum(1 for d in diag if d > 0), sum(1 for d in diag if d < 0),
            sum(1 for d in diag if d == 0), linalg.det(G))


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
    assert outcome(linalg.lll_reduce, G) == \
        outcome(lambda M: ref.lll_reduce(M, DELTA), G)


@settings(max_examples=300, deadline=None)
@given(definite_grams(max_rank=8))
def test_lll_output_is_reduced(G):
    n = len(G)
    G2, T = linalg.lll_reduce(G)
    assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), G), T) == G2
    assert abs(linalg.det(T)) == 1
    sign = -1 if G[0][0] < 0 else 1
    d, lam = linalg.integral_gram_schmidt([[sign * a for a in row]
                                           for row in G2])
    assert all(2 * abs(lam[k][j]) <= d[j + 1]
               for k in range(n) for j in range(k))
    # B_k >= (delta - mu_{k,k-1}^2) B_{k-1}, with B_k = d[k+1] / d[k]
    assert all(DELTA.denominator * d[k + 1] * d[k - 1]
               >= DELTA.numerator * d[k] ** 2
               - DELTA.denominator * lam[k][k - 1] ** 2
               for k in range(1, n))


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


def budgets(G, x, bound):
    """E_j of the tree's recursion for the coordinates x, checked exact.

    E_n = d[n] bound and E_j = (d[j] E_{j+1} - u_j^2) / d[j+1] with
    u_j = d[j+1] x_j + sum_{i>j} lam[i][j] x_i.
    """
    n = len(G)
    d, lam = linalg.integral_gram_schmidt(G)
    E = [0] * n + [d[n] * bound]
    for j in range(n - 1, -1, -1):
        u = d[j + 1] * x[j] + sum(lam[i][j] * x[i] for i in range(j + 1, n))
        E[j], r = divmod(d[j] * E[j + 1] - u * u, d[j + 1])
        assert r == 0
    return E


def projected_norms(mu, B, x):
    """||pi_j(x)||^2 for j = 0..n, from the Fraction Gram-Schmidt data."""
    n = len(x)
    P = [Fraction(0)] * (n + 1)
    for j in range(n - 1, -1, -1):
        c = x[j] + sum(mu[i][j] * x[i] for i in range(j + 1, n))
        P[j] = P[j + 1] + B[j] * c * c
    return P


def check_budgets(G, mu, B, x, bound):
    d, _ = linalg.integral_gram_schmidt(G)
    P = projected_norms(mu, B, x)
    assert budgets(G, x, bound) == [d[j] * (bound - P[j])
                                    for j in range(len(G) + 1)]


@settings(max_examples=200, deadline=None)
@given(definite_grams(max_rank=8), st.data())
def test_tree_budgets_match_projected_norms(G, data):
    W = [[-a for a in row] for row in G] if G[0][0] < 0 else G
    bound = data.draw(st.integers(0, 60))
    for M in (W, linalg.lll_reduce(W)[0]):
        x = data.draw(st.lists(st.integers(-4, 4), min_size=len(M),
                               max_size=len(M)))
        check_budgets(M, *ref.gram_schmidt_from_gram(M), x, bound)


@functools.cache
def reduced_leech():
    G = catalog.leech().gram  # negative definite
    G2, _ = linalg.lll_reduce([[-a for a in row] for row in G])
    return G2, ref.gram_schmidt_from_gram(G2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=24, max_size=24),
       st.integers(0, 8))
def test_leech_tree_budgets_match_projected_norms(x, bound):
    G2, (mu, B) = reduced_leech()
    check_budgets(G2, mu, B, x, bound)


@pytest.mark.parametrize("name", ["A2", "E8", "S_LATTICE_2_9_3_6", "leech"])
def test_catalog_grams_match_reference(name):
    G = catalog.leech().gram if name == "leech" else getattr(gram_data, name)
    assert linalg.inertia(G) == reference_inertia(G)
    assert linalg.lll_reduce(G) == ref.lll_reduce(G, DELTA)


def leaves(enumerate_reduced, G, bound, cap):
    try:
        return [(q, list(x)) for q, x in enumerate_reduced(G, bound, cap)]
    except en.EnumerationCap:
        return en.EnumerationCap


@settings(max_examples=200, deadline=None)
@given(definite_grams(max_rank=8), st.integers(-1, 8),
       st.sampled_from([0, 1, 5, 6, en.DEFAULT_CAP]))
def test_tree_order_matches_eager_loop(G, bound, cap):
    W = [[-a for a in row] for row in G] if G[0][0] < 0 else G
    for M in (W, linalg.lll_reduce(W)[0]):
        assert leaves(en._enumerate_reduced, M, bound, cap) == \
            leaves(eager_reference.enumerate_reduced, M, bound, cap)


def norm_leaves(G, bound, cap):
    try:
        return en._enumerate_reduced(G, bound, cap, coords=False)
    except en.EnumerationCap:
        return en.EnumerationCap


@pytest.mark.parametrize("min_rank, max_rank", [
    pytest.param(1, 1, id="1"), pytest.param(1, 8, id="8"),
    pytest.param(6, 10, id="6-10")])
def test_norm_leaves_are_pair_norms(memo_hits, monkeypatch, min_rank,
                                    max_rank):
    # with the memo built from the first node on, every norm-only walk of
    # rank 7 and up keys its nodes at level 6 (and 9), and must still give
    # the eager loop's norms in its order; Z^n is drawn first, so that some
    # subtree is replayed
    monkeypatch.setattr(en, "MEMO_NODES", 1)

    @settings(max_examples=200 if max_rank <= 8 else 60, deadline=None)
    @given(G=definite_grams(max_rank=max_rank, min_rank=min_rank),
           bound=st.integers(-1, 16 if max_rank <= 8 else 10),
           cap=st.sampled_from([0, 1, 5, 6, 50, en.DEFAULT_CAP]))
    @example(G=linalg.identity(max_rank), bound=4, cap=en.DEFAULT_CAP)
    def check(G, bound, cap):
        W = [[-a for a in row] for row in G] if G[0][0] < 0 else G
        for M in (W, linalg.lll_reduce(W)[0]):
            pairs = leaves(eager_reference.enumerate_reduced, M, bound, cap)
            if pairs is not en.EnumerationCap:
                pairs = [q for q, _ in pairs]
            assert norm_leaves(M, bound, cap) == pairs

    check()
    assert bool(memo_hits) == (max_rank > 6)
