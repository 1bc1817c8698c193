"""Frozen copy of the plain Fincke-Pohst walk of `enumeration`.

`enumerate_reduced` is `enumeration._enumerate_reduced` as it was before
norm-only walks replayed the leaves of repeated subtrees, on its serial
path: every node of the tree is one pass of the loop, a level-1 node
appends its leaves as one batch, and the cap and stop_after are checked
after each batch. The property tests check that the memoized walk returns
the same list, raises EnumerationCap at the same cap and makes the same
stop_after cut; nothing in `src/` imports this module.
"""

import math

from k3lat import linalg
from k3lat.enumeration import EnumerationCap


def _cut(out, before, stop_after, cap):
    if stop_after is not None:
        m = max(stop_after, before + 1)
        if m <= min(cap + 1, len(out)):
            del out[m:]
            return out
    raise EnumerationCap(cap)


def enumerate_reduced(G, bound, cap, stop_after=None, coords=True):
    """All (norm, x) with 0 < x G x^T <= bound, one per +-pair, or their
    norms alone with coords=False; G must be positive definite."""
    n = len(G)
    if bound <= 0:
        return []
    d, lam = linalg.integral_gram_schmidt(G)
    limit = cap + 1 if stop_after is None else min(stop_after, cap + 1)
    if n == 1:
        a = d[1]
        xs = range(1, math.isqrt(bound // a) + 1)
        out = ([(a * x0 * x0, (x0,)) for x0 in xs] if coords
               else [a * x0 * x0 for x0 in xs])
        if out and len(out) >= limit:
            return _cut(out, 0, stop_after, cap)
        return out
    lamc = [[lam[i][l] for i in range(n)] for l in range(n)]
    out = []
    isqrt = math.isqrt
    sigma = [[0] * (n + 1) for _ in range(n)]
    top = list(range(n))
    F = [0] * n
    x = [0] * n
    xmax = [0] * n
    zero_above = [False] * n
    j, xj = n - 1, 0
    F[j] = d[j] * d[n] * bound
    xmax[j] = isqrt(F[j]) // d[n]
    zero_above[j] = True
    while True:
        dn = d[j + 1]
        u = dn * xj + sigma[j][j + 1]
        e = (F[j] - u * u) // dn
        i = j - 1
        row = sigma[i]
        col = lamc[i]
        t = top[j]
        if t == j:
            c = row[j] = row[j + 1] + col[j] * xj
        else:
            c = row[t + 1]
            for k in range(t, i, -1):
                c += col[k] * x[k]
                row[k] = c
            top[j] = j
        if t > top[i]:
            top[i] = t
        dj = d[j]
        f = d[i] * e
        M = isqrt(f)
        lo = -((M + c) // dj)
        hi = (M - c) // dj
        za = zero_above[j] and xj == 0
        if j == 1:
            if za and lo < 1:
                lo = 1
            if lo <= hi:
                before = len(out)
                if coords:
                    prefix = tuple(x[1:])
                    for x0 in range(lo, hi + 1):
                        v = dj * x0 + c
                        out.append((bound - (f - v * v) // dj,
                                    (x0,) + prefix))
                else:
                    out += [bound - (f - v * v) // dj
                            for v in range(dj * lo + c, dj * hi + c + 1, dj)]
                if len(out) >= limit:
                    return _cut(out, before, stop_after, cap)
        else:
            if za and lo < 0:
                lo = 0
            if lo <= hi:
                j -= 1
                F[j] = f
                x[j] = xj = lo
                xmax[j] = hi
                zero_above[j] = za
                continue
        xj += 1
        while xj > xmax[j]:
            j += 1
            if j == n:
                return out
            xj = x[j] + 1
        x[j] = xj
