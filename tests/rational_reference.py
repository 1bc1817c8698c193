"""Frozen rational-arithmetic copies of the former Gram-Schmidt routines.

`congruent_diagonal`, `gram_schmidt_from_gram` and `lll_reduce` are the
`Fraction` versions that `k3lat.linalg` carried before it went integer-only,
and `integer_cholesky` is the matching Fincke-Pohst data that `enumeration`
scaled to one common denominator before it kept an integer budget per
level; `eager_reference` runs on it. The property tests compare the integer
routines against them; nothing in `src/` imports this module.
"""

import math
from fractions import Fraction

from k3lat.linalg import copy_mat, identity, is_symmetric, mat_mul, transpose


def congruent_diagonal(G):
    """Diagonal of a rational congruent diagonalization of symmetric G."""
    n = len(G)
    A = [[Fraction(a) for a in row] for row in G]
    diag = []
    for step in range(n):
        m = len(A)
        piv = next((i for i in range(m) if A[i][i] != 0), None)
        if piv is None:
            piv_pair = next(((i, j) for i in range(m) for j in range(i + 1, m)
                             if A[i][j] != 0), None)
            if piv_pair is None:
                diag.extend([Fraction(0)] * m)
                break
            i, j = piv_pair
            for c in range(m):
                A[i][c] += A[j][c]
            for r in range(m):
                A[r][i] += A[r][j]
            piv = i
        d = A[piv][piv]
        diag.append(d)
        rest = [r for r in range(m) if r != piv]
        A = [[A[r][c] - A[r][piv] * A[piv][c] / d for c in rest] for r in rest]
        if not A:
            break
    return diag


def gram_schmidt_from_gram(G):
    """(mu, B) in Fractions; requires positive definite G."""
    n = len(G)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = Fraction(G[i][j])
            for k in range(j):
                s -= mu[i][k] * mu[j][k] * B[k]
            if B[j] == 0:
                raise ValueError("degenerate Gram in orthogonalization")
            mu[i][j] = s / B[j]
        s = Fraction(G[i][i])
        for k in range(i):
            s -= mu[i][k] * mu[i][k] * B[k]
        B[i] = s
        if B[i] <= 0:
            raise ValueError("Gram is not positive definite")
    return mu, B


def lll_reduce(G, delta=Fraction(3, 4)):
    """(G2, T) with G2 = T^t G T LLL-reduced; ValueError unless definite."""
    n = len(G)
    if n == 0:
        return [], []
    if not is_symmetric(G):
        raise ValueError("Gram matrix must be symmetric")
    signs = {0}
    for d in congruent_diagonal(G):
        signs.add(1 if d > 0 else -1 if d < 0 else 0)
    if 1 in signs and -1 in signs:
        raise ValueError("LLL requires definite form")
    neg = -1 in signs
    W = [[-a for a in row] for row in G] if neg else copy_mat(G)

    R = identity(n)
    mu, B = gram_schmidt_from_gram(W)

    def size_reduce(k, j):
        if abs(mu[k][j]) * 2 > 1:
            r = round(mu[k][j])
            R[k] = [a - r * b for a, b in zip(R[k], R[j])]
            for l in range(j):
                mu[k][l] -= r * mu[j][l]
            mu[k][j] -= r

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            size_reduce(k, j)
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            R[k], R[k - 1] = R[k - 1], R[k]
            m = mu[k][k - 1]
            Bnew = B[k] + m * m * B[k - 1]
            mu_new = m * B[k - 1] / Bnew
            B[k] = B[k - 1] * B[k] / Bnew
            B[k - 1] = Bnew
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu_new * mu[i][k]
            mu[k][k - 1] = mu_new
            k = max(k - 1, 1)
    G2 = mat_mul(mat_mul(R, G), transpose(R))
    return G2, transpose(R)


def integer_cholesky(G):
    """(w, D, mnum, scale) with the denominators of (mu, B) cleared."""
    n = len(G)
    mu, B = gram_schmidt_from_gram(G)
    D = []
    mnum = []
    for j in range(n):
        den = 1
        for i in range(j + 1, n):
            den = den * mu[i][j].denominator // math.gcd(den, mu[i][j].denominator)
        D.append(den)
        mnum.append([0] * n)
        for i in range(j + 1, n):
            mnum[j][i] = int(mu[i][j] * den)
    scale = 1
    for j in range(n):
        term = B[j].denominator * D[j] * D[j]
        scale = scale * term // math.gcd(scale, term)
    w = [scale * B[j].numerator // (B[j].denominator * D[j] * D[j]) for j in range(n)]
    return w, D, mnum, scale
