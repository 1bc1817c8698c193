"""Exact integer matrix algebra.

Matrices are lists of row lists with Python int entries; vectors are plain
lists. Everything is arbitrary precision and nothing here touches floating
point or fractions. Functions never mutate their inputs, and no output
shares a row with an input.

Products have one rule, read from the input. In mat_mul and vec_mat a
row of A with at most a third of its entries nonzero is built as the sum
of a_k B[k] over its nonzero a_k, with no multiply where a_k = 1; a
denser row takes its dot products with the columns of B. Every dot
product, here and in mat_vec and dot, is sum(map(mul, row, col)), and
dot(u, v, G) is u . (G v).

Coordinates in a basis have one solver, rowspace_solver(B). It factors a
full-row-rank integer B once, fraction-free (Bareiss), and for integer
rows V returns integer X and the least d >= 1 with X B = d V, or None
when a row of V is outside the rational row span; dependent rows of B
raise ValueError. Integral coordinates are exactly the case d = 1.

Hermite normal forms have one elimination, _echelon: Euclidean row
echelon, pivoting on the smallest nonzero entry of each column. hnf adds
positive pivots with the entries above them reduced into [0, pivot) and
returns the nonzero rows, the canonical basis of the row span; row_rank
counts the pivots; kernel_basis runs it on [M | I] over the columns of M
alone, and the I-parts of the rows left zero there span the saturated
left kernel (Cohen, GTM 138, Sec. 2.4). An extended gcd of c is the
first row (gcd c, u) of the hnf of the rows (c_i | e_i). hnf takes its
rows a width at a time, so a long spanning list, such as a Niemeier
model's frame vectors, is never copied whole. snf stays apart: it carries
both transforms, and snf_left the left one alone.

Gram-Schmidt data are integers too: the leading minors d_i and
lam_ij = d_{j+1} mu_ij of integral_gram_schmidt, which lll_reduce updates
and the Fincke-Pohst tree of enumeration is built from. lll_reduce has one
Lovasz constant, 99/100, tested in integers; it takes no parameter.
"""

import math
from itertools import repeat
from operator import add, mul


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_mat(M):
    return [row[:] for row in M]


def transpose(M):
    if not M:
        return []
    return [list(col) for col in zip(*M)]


def mat_mul(A, B):
    """Matrix product, by the row rule of the module docstring."""
    if not A:
        return []
    if not B:
        return [[] for _ in A]
    Bt = []
    return [_row_times(row, B, Bt) for row in A]


def vec_mat(v, M):
    if not M:
        return []
    return _row_times(v, M, [])


def _row_times(row, B, Bt):
    """row B for a nonempty B. Bt caches the columns of B across the rows
    of one product; a dense row fills it on first use."""
    terms = [(a, b) for a, b in zip(row, B) if a]
    if 3 * len(terms) <= len(row):
        acc = None
        for a, b in terms:
            t = b if a == 1 else map(mul, b, repeat(a))
            acc = list(t) if acc is None else list(map(add, acc, t))
        return [0] * len(B[0]) if acc is None else acc
    if not Bt:
        Bt.extend(zip(*B))
    return [sum(map(mul, row, col)) for col in Bt]


def mat_vec(M, v):
    return [sum(map(mul, row, v)) for row in M]


def dot(u, v, G=None):
    """u.v, or u G v^T when a Gram matrix is supplied."""
    if G is None:
        return sum(map(mul, u, v))
    return sum(map(mul, u, mat_vec(G, v)))


def is_symmetric(M):
    return all(M[i][j] == M[j][i] for i in range(len(M)) for j in range(i))


def det(M):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = copy_mat(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def _echelon(H, cols):
    """Euclidean row echelon of H, in place, on its first cols columns,
    with no normalisation. Returns the pivot columns: row i has its pivot
    in the i-th, and the rows after the last pivot row are zero there."""
    rows = len(H)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        while True:
            piv = None
            for i in range(r, rows):
                a = abs(H[i][c])
                if a and (piv is None or a < best):
                    piv, best = i, a
            if piv is None:
                break
            H[r], H[piv] = H[piv], H[r]
            p = H[r]
            done = True
            for i in range(r + 1, rows):
                if H[i][c]:
                    q = H[i][c] // p[c]
                    H[i] = [a - q * b for a, b in zip(H[i], p)]
                    if H[i][c]:
                        done = False
            if done:
                pivots.append(c)
                break
    return pivots


def hnf(rows):
    """The nonzero rows of the row Hermite normal form of rows."""
    width = len(rows[0]) if rows else 0
    step = max(width, 1)
    H, pivots = [], []
    for start in range(0, len(rows), step):
        H += copy_mat(rows[start:start + step])
        pivots = _echelon(H, width)
        del H[len(pivots):]
    for i, c in enumerate(pivots):
        if H[i][c] < 0:
            H[i] = [-a for a in H[i]]
        p = H[i]
        for j in range(i):
            q = H[j][c] // p[c]
            if q:
                H[j] = [a - q * b for a, b in zip(H[j], p)]
    return H


def row_rank(M):
    return len(_echelon(copy_mat(M), len(M[0]) if M else 0))


def kernel_basis(M):
    """Basis of the saturated left kernel {x : x M = 0}, HNF-canonical."""
    cols = len(M[0]) if M else 0
    A = [list(row) + [int(i == j) for j in range(len(M))]
         for i, row in enumerate(M)]
    r = len(_echelon(A, cols))
    return hnf([row[cols:] for row in A[r:]])


def snf(M):
    """Smith normal form.

    Returns (D, U, V) with D = U * M * V diagonal, nonnegative, and
    d1 | d2 | ... ; U and V are unimodular. V is built only here:
    snf_left runs the same elimination for callers that read D and U
    alone.
    """
    return _snf(M, True)


def snf_left(M):
    """(D, U) of snf(M), without building V."""
    D, U, _ = _snf(M, False)
    return D, U


def _snf(M, with_v):
    """snf(M), carrying V only if with_v.

    Step t works on the trailing block W (rows and columns t on): every
    entry outside it is 0 but the pivots. Its pivot is the first entry of
    least |a| in row-major order, so the scan stops at the first unit.
    Clearing column 0 of W by row operations leaves a remainder only if
    the pivot is not a unit; without one, clearing row 0 by column
    operations changes row 0 of W and V alone. A unit divides everything,
    so the divisibility sweep runs for larger pivots only.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    U = identity(rows)
    V = identity(cols) if with_v else None
    W = copy_mat(M)
    diag = []
    t = 0
    while t < min(rows, cols):
        piv, best = None, 0
        for i, row in enumerate(W):
            for j, a in enumerate(row):
                if a and (not best or abs(a) < best):
                    piv, best = (i, j), abs(a)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi:
            W[0], W[pi] = W[pi], W[0]
            U[t], U[t + pi] = U[t + pi], U[t]
        if pj:
            for row in W:
                row[0], row[pj] = row[pj], row[0]
            if with_v:
                for row in V:
                    row[t], row[t + pj] = row[t + pj], row[t]
        # Clear the pivot column, then the pivot row; restart if a
        # remainder survives.
        p = W[0]
        dirty = False
        for i in range(1, len(W)):
            a = W[i][0]
            if a:
                q = a // p[0]
                W[i] = [x - q * y for x, y in zip(W[i], p)]
                U[t + i] = [x - q * y for x, y in zip(U[t + i], U[t])]
                if W[i][0]:
                    dirty = True
        for j in range(1, len(p)):
            a = p[j]
            if a:
                q = a // p[0]
                if dirty:
                    for row in W[1:]:
                        row[j] -= q * row[0]
                p[j] = a - q * p[0]
                if with_v:
                    for row in V:
                        row[t + j] -= q * row[t]
                if p[j]:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility of the remaining block by the pivot.
        if best > 1:
            i = next((i for i in range(1, len(W))
                      if any(a % p[0] for a in W[i][1:])), None)
            if i is not None:
                W[0] = [x + y for x, y in zip(p, W[i])]
                U[t] = [x + y for x, y in zip(U[t], U[t + i])]
                continue
        if p[0] < 0:
            U[t] = [-a for a in U[t]]
        diag.append(abs(p[0]))
        W = [row[1:] for row in W[1:]]
        t += 1
    D = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(diag):
        D[i][i] = d
    return D, U, V


def rowspace_solver(B):
    """Factor a full-row-rank integer basis B once; return solve(V).

    solve(V) takes integer rows V and returns (X, d): integer X and the
    least common denominator d >= 1 with X B = d V, so gcd(X, d) = 1 and
    V has integral coordinates exactly when d = 1. It returns None when
    some row of V is outside the rational row span of B. Raises
    ValueError when the rows of B are dependent.
    """
    k = len(B)
    n = len(B[0]) if k else 0
    # Fraction-free Gauss-Jordan on [B | I]: the left factor E of the
    # row operations ends as E = d B_P^-1 on the pivot columns P, with
    # d = +-det(B_P) the last pivot; every entry stays an integer minor.
    A = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(B)]
    pivots = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == k:
            break
        piv = next((i for i in range(r, k) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        p, row_r = A[r][c], A[r]
        live = range(c + 1, n + k)
        for i in range(k):
            if i != r:
                row_i, f = A[i], A[i][c]
                for j in live:
                    row_i[j] = (p * row_i[j] - f * row_r[j]) // prev
        pivots.append(c)
        prev = p
    if len(pivots) < k:
        raise ValueError("basis rows are linearly dependent")
    E = [row[n:] for row in A]
    pivot_set = set(pivots)

    def solve(V):
        X = [vec_mat([v[c] for c in pivots], E) for v in V]
        g = math.gcd(prev, *(a for row in X for a in row))
        if prev < 0:
            g = -g
        X = [[a // g for a in row] for row in X]
        d = prev // g
        # X B = d V holds on the pivot columns by construction; multiply
        # back on the others, where a row outside the span shows
        for x, v in zip(X, V):
            xB = vec_mat(x, B) if B else [0] * len(v)
            if any(xB[c] != d * v[c]
                   for c in range(len(v)) if c not in pivot_set):
                return None
        return X, d

    return solve


def inertia(G):
    """(plus, minus, zero, det) of a symmetric integer G, by Sylvester's law.

    Symmetric fraction-free (Bareiss) elimination: each pivot p is a minor
    of a matrix congruent to G and the rational pivot is p / prev, the
    previous one, so its sign is that of p * prev. Where no diagonal pivot
    is left, x_i += x_j makes the (i, i) entry 2 A[i][j] != 0. Both moves
    are congruences by matrices of determinant +-1, so det G is the last
    pivot, or 0 when a zero block is left.
    """
    A = copy_mat(G)
    plus, prev = 0, 1
    while A:
        m = len(A)
        piv = next((i for i in range(m) if A[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(m) for j in range(i + 1, m)
                         if A[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for c in range(m):
                A[i][c] += A[j][c]
            for r in range(m):
                A[r][i] += A[r][j]
            piv = i
        p, row = A[piv][piv], A[piv]
        plus += (p > 0) == (prev > 0)
        rest = [r for r in range(m) if r != piv]
        A = [[(p * A[r][c] - A[r][piv] * row[c]) // prev for c in rest]
             for r in rest]
        prev = p
    # what is left of A is zero: its size is the nullity
    return plus, len(G) - len(A) - plus, len(A), 0 if A else prev


def integral_gram_schmidt(W):
    """Integral Gram-Schmidt data (d, lam) of a positive definite Gram W.

    d[i] is the leading i x i minor (d[0] = 1) and lam[i][j] = d[j+1] mu_ij
    for j < i, all integers (Cohen, GTM 138, Alg. 2.6.7); the squared norms
    of the orthogonalized vectors are d[i+1] / d[i]. Raises ValueError
    unless W is positive definite.
    """
    n = len(W)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = W[i][j]
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            elif u <= 0:
                raise ValueError("Gram matrix is not positive definite")
            else:
                d[i + 1] = u
    return d, lam


def lll_reduce(G):
    """LLL-reduce a definite Gram matrix, Lovasz constant 99/100.

    Returns (G2, T) with G2 = T^t G T, T unimodular and G2 LLL-reduced as
    a form of the sign of G. Integral LLL (Cohen, GTM 138, Alg. 2.6.7) on
    integral_gram_schmidt's data, except that row k is size-reduced
    against every j < k before the Lovasz test and lam / d rounds half to
    even. The Lovasz test is the integer form of B_k >= (99/100 - mu^2)
    B_{k-1}, 100 d[k+1] d[k-1] >= 99 d[k]^2 - 100 lam[k][k-1]^2: the
    constant near 1 costs a few more swaps here and leaves a smaller
    Fincke-Pohst tree for enumeration, its only caller. Raises ValueError
    unless G is definite.
    """
    n = len(G)
    if n == 0:
        return [], []
    if not is_symmetric(G):
        raise ValueError("Gram matrix must be symmetric")
    sign = -1 if G[0][0] < 0 else 1
    d, lam = integral_gram_schmidt([[sign * a for a in row] for row in G])
    R = identity(n)  # rows of R = current basis in the original basis
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam[k][j]) > d[j + 1]:
                r, rem = divmod(lam[k][j], d[j + 1])
                if 2 * rem > d[j + 1] or (2 * rem == d[j + 1] and r % 2):
                    r += 1
                R[k] = [a - r * b for a, b in zip(R[k], R[j])]
                lam[k][j] -= r * d[j + 1]
                for l in range(j):
                    lam[k][l] -= r * lam[j][l]
        lk = lam[k][k - 1]
        if 100 * d[k + 1] * d[k - 1] >= 99 * d[k] ** 2 - 100 * lk * lk:
            k += 1
            continue
        R[k], R[k - 1] = R[k - 1], R[k]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (dk * t + lk * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return mat_mul(mat_mul(R, G), transpose(R)), transpose(R)
