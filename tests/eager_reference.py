"""Frozen copy of the eager Fincke-Pohst loop of `enumeration`.

`enumerate_reduced` is `enumeration._enumerate_reduced` as it was before
the partial sums were refreshed lazily and before the tree kept integer
budgets per level: it scales every level to one common denominator
(`rational_reference.integer_cholesky`), each descent from level j
rewrites column j of every row l < j of `sigma`, every node is one pass
of the loop, and leaves are lists. The property tests check that the
current loop visits the same leaves in the same order, and that its
norm-only walk counts their norms; nothing in `src/` imports this module.
"""

import math

from k3lat.enumeration import EnumerationCap
from rational_reference import integer_cholesky


def enumerate_reduced(G, bound, cap):
    """All (norm, x) with 0 < x G x^T <= bound, one per +-pair.

    G must be positive definite. The representative of each pair has its
    highest-index nonzero coordinate positive.
    """
    n = len(G)
    out = []
    if bound <= 0:
        return out
    w, D, mnum, scale = integer_cholesky(G)
    total = scale * bound
    sigma = [[0] * (n + 1) for _ in range(n)]
    R = [0] * n
    x = [0] * n
    xmax = [0] * n
    zero_above = [False] * n

    def set_range(j):
        Cj = sigma[j][j + 1]
        M = math.isqrt(R[j] // w[j])
        lo = -((M + Cj) // D[j])
        if zero_above[j] and lo < 0:
            lo = 0
        x[j] = lo
        xmax[j] = (M - Cj) // D[j]

    j = n - 1
    R[j] = total
    zero_above[j] = True
    set_range(j)
    while True:
        if x[j] > xmax[j]:
            j += 1
            if j == n:
                break
            x[j] += 1
            continue
        Cj = sigma[j][j + 1]
        spent = w[j] * (x[j] * D[j] + Cj) ** 2
        if j == 0:
            rem = R[0] - spent
            if rem >= 0 and (x[0] or not zero_above[0]):
                out.append(((total - rem) // scale, x[:]))
                if len(out) > cap:
                    raise EnumerationCap(cap)
            x[0] += 1
        else:
            R[j - 1] = R[j] - spent
            za = zero_above[j] and x[j] == 0
            zero_above[j - 1] = za
            xj = x[j]
            for l in range(j):
                sig = sigma[l]
                sig[j] = sig[j + 1] + mnum[l][j] * xj
            j -= 1
            set_range(j)
    return out
