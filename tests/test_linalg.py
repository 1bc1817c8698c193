import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import snf_reference
from k3lat import linalg
from k3lat.gram_data import E8, A2, U


def is_unimodular(M):
    return abs(linalg.det(M)) == 1


def test_hnf_identity():
    assert linalg.hnf(linalg.identity(3)) == linalg.identity(3)


def test_hnf_small():
    # our convention: positive pivots, entries above reduced into [0, pivot)
    assert linalg.hnf([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]


def test_hnf_zero():
    # only the nonzero rows are returned
    assert linalg.hnf([[0, 0], [0, 0]]) == []


def test_hnf_canonical_under_row_mixing():
    M = [[2, 4], [1, 3]]
    mixed = [[3, 7], [1, 3]]  # row0 + row1, row1: same row span
    assert linalg.hnf(M) == linalg.hnf(mixed)


def test_hnf_and_kernel_edge_cases():
    assert linalg.hnf([]) == []
    assert linalg.kernel_basis([]) == []
    # two rows of width 0: every x kills M
    assert linalg.kernel_basis([[], []]) == linalg.identity(2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=8)
       .filter(any))
def test_hnf_of_column_gives_gcd_and_solution(c):
    # the wall search takes gcd(c), a particular solution u of u . c =
    # gcd(c) and the kernel of c from the HNF of the rows (c_i | e_i)
    n = len(c)
    H = linalg.hnf([[a] + e for a, e in zip(c, linalg.identity(n))])
    g, u = H[0][0], H[0][1:]
    assert g == math.gcd(*c)
    assert linalg.dot(u, c) == g
    assert [row[0] for row in H[1:]] == [0] * (n - 1)
    assert [row[1:] for row in H[1:]] == \
        linalg.kernel_basis(linalg.transpose([c]))


def test_hnf_memory_stays_flat_on_long_spanning_lists():
    # hnf takes the rows a width at a time, so its working set is at most
    # twice the width in rows, however many rows it is handed
    rng = random.Random(0)
    tracemalloc.start()
    try:
        rows = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(4000)]
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        H = linalg.hnf(rows)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(H) == 24
    assert peak < size / 10


def test_snf_diagonal_stays():
    D, _, _ = linalg.snf([[2, 0], [0, 2]])
    assert D == [[2, 0], [0, 2]]


def test_snf_small():
    M = [[2, 1], [1, 2]]
    D, Um, Vm = linalg.snf(M)
    assert D == [[1, 0], [0, 3]]
    assert linalg.mat_mul(linalg.mat_mul(Um, M), Vm) == D
    assert is_unimodular(Um) and is_unimodular(Vm)


def test_snf_e8_doubled():
    M = [[2 * a for a in row] for row in E8]
    D, _, _ = linalg.snf(M)
    assert [D[i][i] for i in range(8)] == [2] * 8


def test_snf_det_and_divisibility():
    M = [[6, 4, 2], [4, 8, 6], [2, 6, 10]]
    D, _, _ = linalg.snf(M)
    diag = [D[i][i] for i in range(3)]
    prod = diag[0] * diag[1] * diag[2]
    assert prod == abs(linalg.det(M))
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@st.composite
def snf_inputs(draw):
    """0-7 rows and columns, entries in [-9, 9] or one 2^64-sized; half
    of those with two or more rows get a row that is a combination of two
    others, so singular and rank-deficient matrices are common."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.integers(-9, 9), st.integers(-9, 9),
                      st.integers(-2 ** 64, 2 ** 64))
    M = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(rows)))[:2]
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        M[draw(st.integers(0, rows - 1))] = [a * x + b * y
                                             for x, y in zip(M[i], M[j])]
    return M


def _product(A, B, cols):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            if B else [0] * cols for row in A]


@settings(max_examples=300, deadline=None)
@given(snf_inputs())
@example([[0, 2, 1], [1, 0, 1]])
@example([[2, 4], [4, 2], [6, 6]])
@example([[3]])
def test_snf_property(M):
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D, U, V = linalg.snf(M)
    assert _product(_product(U, M, cols), V, cols) == D
    assert all(D[i][j] == 0 for i in range(rows) for j in range(cols)
               if i != j)
    diag = [D[i][i] for i in range(min(rows, cols))]
    assert all(d >= 0 for d in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    assert abs(linalg.det(U)) == 1 and abs(linalg.det(V)) == 1
    # the memo's call builds no V and finds the same D and U
    assert linalg.snf_left(M) == (D, U)
    # and the same transforms as the full-block elimination
    assert (D, U, V) == snf_reference.snf(M)


def test_kernel_identity_empty():
    assert linalg.kernel_basis(linalg.identity(2)) == []


def test_kernel_rank_one():
    assert linalg.kernel_basis([[1, 1], [1, 1]]) == [[1, -1]]


def test_kernel_two_cycle():
    g = [[0, 1], [1, 0]]
    gmi = [[g[i][j] - (i == j) for j in range(2)] for i in range(2)]
    assert linalg.kernel_basis(gmi) == [[1, 1]]


def test_kernel_is_saturated():
    M = [[2, 4], [1, 2]]
    K = linalg.kernel_basis(M)
    assert K == [[1, -2]]


def test_lll_identity_unchanged():
    G2, T = linalg.lll_reduce([[1, 0], [0, 1]])
    assert G2 == [[1, 0], [0, 1]]
    assert is_unimodular(T)


def test_lll_preserves_det_and_even():
    G = [[4, 2], [2, 4]]
    G2, T = linalg.lll_reduce(G)
    assert linalg.det(G2) == 12
    assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), G), T) == G2
    assert all(G2[i][i] % 2 == 0 for i in range(2))


def test_lll_negative_definite():
    G = [[-4, -2], [-2, -4]]
    G2, T = linalg.lll_reduce(G)
    assert linalg.det(G2) == 12
    assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), G), T) == G2


def test_lll_rejects_indefinite():
    with pytest.raises(ValueError):
        linalg.lll_reduce(U)


def test_lll_reduces_skewed_basis():
    # heavily sheared copy of Z^2
    G = [[1, 0], [0, 1]]
    R = [[1, 0], [137, 1]]
    sheared = linalg.mat_mul(linalg.mat_mul(R, G), linalg.transpose(R))
    G2, _ = linalg.lll_reduce(sheared)
    assert G2 == [[1, 0], [0, 1]]


def test_lll_rounds_half_to_even():
    # mu = 5/2 rounds to 2, as round(Fraction) does; half-up would give 3
    assert linalg.lll_reduce([[2, 5], [5, 20]]) == \
        ([[2, 1], [1, 8]], [[1, -2], [0, 1]])


def test_inertia_signs():
    assert linalg.inertia(U) == (1, 1, 0, -1)
    assert linalg.inertia(E8) == (8, 0, 0, 1)


def test_inertia_degenerate():
    assert linalg.inertia([[0, 0], [0, 2]]) == (1, 0, 1, 0)


def test_rowspace_solver_known_solution():
    assert linalg.rowspace_solver([[1, 2], [0, 3]])([[2, 7]]) == ([[2, 1]], 1)
    # A2^-1 = [[2, 1], [1, 2]] / 3
    assert linalg.rowspace_solver(A2)(linalg.identity(2)) == \
        ([[2, 1], [1, 2]], 3)
    # wide basis: (1, 1, 2) = 1/2 (2, 0, 2) + 1/3 (0, 3, 3)
    solve = linalg.rowspace_solver([[2, 0, 2], [0, 3, 3]])
    assert solve([[1, 1, 2]]) == ([[3, 2]], 6)
    assert solve([]) == ([], 1)


def test_rowspace_solver_non_member_is_none():
    assert linalg.rowspace_solver([[1, 0]])([[0, 1]]) is None
    solve = linalg.rowspace_solver([[2, 0, 2], [0, 3, 3]])
    assert solve([[1, 1, 2], [1, 1, 1]]) is None


def test_rowspace_solver_dependent_rows_raise():
    with pytest.raises(ValueError):
        linalg.rowspace_solver([[1, 2, 3], [2, 4, 6]])
    with pytest.raises(ValueError):
        linalg.rowspace_solver([[1, 0], [0, 1], [1, 1]])


entries = st.integers(-6, 6)


@st.composite
def full_rank_bases(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 6))
    B = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                      min_size=k, max_size=k))
    assume(linalg.row_rank(B) == k)
    return B


@settings(max_examples=150, deadline=None)
@given(full_rank_bases(), st.data())
def test_rowspace_solver_property(B, data):
    k, n = len(B), len(B[0])
    C = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                           min_size=1, max_size=3))
    V = linalg.mat_mul(C, B)
    # coordinates in a basis are unique, so integer combinations come back
    assert linalg.rowspace_solver(B)(V) == (C, 1)
    if k == n:  # every row is in the span; d is its least denominator
        V = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=1, max_size=3))
        X, d = linalg.rowspace_solver(B)(V)
        assert d >= 1 and linalg.det(B) % d == 0
        assert linalg.mat_mul(X, B) == [[d * a for a in v] for v in V]
        assert math.gcd(d, *(a for row in X for a in row)) == 1


def _is_hnf(H):
    """Pivot columns increase, pivots are positive and the entries above
    each pivot lie in [0, pivot)."""
    cols = [next((c for c, a in enumerate(row) if a), None) for row in H]
    if None in cols or cols != sorted(set(cols)):
        return False
    return all(H[i][c] > 0 and all(0 <= H[j][c] < H[i][c] for j in range(i))
               for i, c in enumerate(cols))


@st.composite
def spanning_lists(draw):
    """(B, M): independent rows B and a list M of integer combinations of
    them that spans the same lattice, with dependent rows mixed in."""
    B = draw(full_rank_bases())
    k = len(B)
    extra = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                          max_size=4))
    M = B + linalg.mat_mul(extra, B)
    order = draw(st.permutations(range(len(M))))
    return B, [M[i] for i in order]


def _unimodular_mix(M, rng):
    """Rows of U M for a random unimodular U, by elementary row moves."""
    M = linalg.copy_mat(M)
    for _ in range(3 * len(M)):
        i, j = rng.randrange(len(M)), rng.randrange(len(M))
        if i != j:
            q = rng.randint(-3, 3)
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        else:
            M[i] = [-a for a in M[i]]
    rng.shuffle(M)
    return M


@settings(max_examples=150, deadline=None)
@given(spanning_lists(), st.randoms(use_true_random=False))
def test_hnf_property(BM, rng):
    B, M = BM
    H = linalg.hnf(M)
    assert _is_hnf(H)
    # the same lattice: each side has integral coordinates in the other
    assert linalg.rowspace_solver(H)(B)[1] == 1
    assert linalg.rowspace_solver(B)(H)[1] == 1
    assert linalg.hnf(_unimodular_mix(M, rng)) == H


matrices = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                       min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_kernel_basis_property(M):
    K = linalg.kernel_basis(M)
    assert all(not any(linalg.vec_mat(x, M)) for x in K)
    assert len(K) == len(M) - linalg.row_rank(M)
    if K:  # saturated: every invariant factor is 1
        D, _, _ = linalg.snf(K)
        assert [D[i][i] for i in range(len(K))] == [1] * len(K)
    assert linalg.hnf(K) == K


def test_det_bareiss_matches_snf():
    mats = [E8, A2, U, [[3, 1, 4], [1, 5, 9], [2, 6, 5]]]
    for M in mats:
        D, _, _ = linalg.snf(M)
        prod = 1
        for i in range(len(M)):
            prod *= D[i][i]
        assert prod == abs(linalg.det(M))


BIG = 2 ** 64
nonzero_entries = st.one_of(st.sampled_from([1, -1]),
                            st.integers(-5, 5).filter(bool),
                            st.integers(BIG, 4 * BIG),
                            st.integers(-4 * BIG, -BIG))


@st.composite
def sparse_rows(draw, width):
    """Rows whose count of nonzero entries is often right at either side
    of mat_mul's one-third rule, or 0 or all."""
    third = width // 3
    count = draw(st.sampled_from(sorted({0, third, third + 1, width}))
                 | st.integers(0, width))
    row = [0] * width
    for c in draw(st.permutations(range(width)))[:count]:
        row[c] = draw(nonzero_entries)
    return row


@st.composite
def product_inputs(draw):
    r, n, m = (draw(st.integers(0, 5)), draw(st.integers(0, 7)),
               draw(st.integers(0, 5)))
    if draw(st.booleans()):
        r = n = m = 1
    A = [draw(sparse_rows(n)) for _ in range(r)]
    B = [draw(sparse_rows(m)) for _ in range(n)]
    G = [draw(sparse_rows(n)) for _ in range(n)]
    return A, B, G, draw(sparse_rows(n)), draw(sparse_rows(n))


@settings(max_examples=300, deadline=None)
@given(product_inputs())
def test_products_match_naive_loops(inputs):
    A, B, G, u, v = inputs
    before = repr(inputs)
    m = len(B[0]) if B else 0  # an empty B fixes no width: rows come back []
    naive = [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(m)]
             for i in range(len(A))]
    AB = linalg.mat_mul(A, B)
    assert AB == naive
    assert linalg.vec_mat(u, B) == [sum(u[k] * B[k][j] for k in range(len(B)))
                                    for j in range(m)]
    assert linalg.mat_vec(A, v) == [sum(a * b for a, b in zip(row, v))
                                    for row in A]
    assert linalg.dot(u, v) == sum(u[i] * v[i] for i in range(len(u)))
    assert linalg.dot(u, v, G) == sum(u[i] * G[i][j] * v[j]
                                      for i in range(len(u))
                                      for j in range(len(v)))
    # no input is mutated and no output row is an input row
    assert repr(inputs) == before
    assert not any(row is b for row in AB for b in B)
