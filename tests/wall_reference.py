"""Frozen copy of the numerical wall search of `walls`.

`numerical_wall_in`, `_slice_vectors` and `_divisor_from_r` are the
functions of `walls` as they were before each slice (v, r) = s took one
enumeration: this search visits every s from 0 to v^2/2, lists the target
norms rho of each s, and rebuilds and enumerates the slice once per rho.
The tests check that the current search returns the same WallReport, or
None, on the same inputs; nothing in `src/` imports this module.
"""

import math

from k3lat import enumeration as en
from k3lat import linalg
from k3lat.lattice import Lattice
from k3lat.walls import is_wall_divisor


def _divisor_from_r(ctx, r, s, rho):
    """The primitive element t of v-perp in the span of v and r, with its
    norm t^2 = v^2 (v^2 rho - s^2)/g^2; None when r lies in Zv."""
    vv = ctx.v_sq
    t = [vv * x - s * y for x, y in zip(r, ctx.v)]
    if not any(t):
        return None
    g = math.gcd(*t)
    return [a // g for a in t], vv * (vv * rho - s * s) // (g * g)


def numerical_wall_in(S, ctx, cap=en.DEFAULT_CAP):
    """The wall of S inside v-perp smallest in (|t^2|, t), or None."""
    if S.ambient is not ctx.mukai:
        raise ValueError("S must be a sublattice of the context's Mukai model")
    plus, _ = S.signature()
    if plus:
        raise ValueError("wall search requires a negative definite lattice")
    G = ctx.mukai.gram
    v = ctx.v
    for row in S.coords:
        if linalg.dot(v, row, G) != 0:
            raise ValueError("S is not orthogonal to v")
    vv = ctx.v_sq
    Mbar = ctx.mukai.sublattice([v] + S.coords).saturation()
    B = Mbar.coords
    ell = [linalg.dot(row, v, G) for row in B]
    H = linalg.hnf([[a] + e for a, e in zip(ell, linalg.identity(len(ell)))])
    gell, u = H[0][0], H[0][1:]
    K = [row[1:] for row in H[1:]]
    KG = linalg.mat_mul(K, Mbar.gram)
    A = linalg.mat_mul(KG, linalg.transpose(K))
    solve = linalg.rowspace_solver(A)
    norms = {}

    for s_val in range(0, vv // 2 + 1):
        targets = [-2]
        if 2 * s_val < vv:
            targets += [rho for rho in range(0, s_val * s_val // vv + 1)]
        if s_val % gell:
            continue
        x0 = [a * (s_val // gell) for a in u]
        for rho in targets:
            for r_m in _slice_vectors(Mbar, K, KG, A, solve, x0, s_val, rho,
                                      vv, cap):
                r_amb = linalg.vec_mat(r_m, B)
                found = _divisor_from_r(ctx, r_amb, s_val, rho)
                if found is not None:
                    norms[tuple(found[0])] = found[1]
    for t in sorted(norms, key=lambda t: (abs(norms[t]), t)):
        report = is_wall_divisor(ctx, t)
        if report.divisor_norm != norms[t]:
            raise AssertionError("closed-form divisor norm disagrees with "
                                 "the wall predicate")
        if report.is_wall:
            return report
    return None


def _slice_vectors(Mbar, K, KG, A, solve, x0, s_val, rho, vv, cap):
    """All r in Mbar with (v, r) = s_val and r^2 = rho."""
    if not K:
        r2 = linalg.dot(x0, x0, Mbar.gram)
        if r2 == rho:
            yield x0
        return
    bvec = linalg.mat_vec(KG, x0)
    excess = rho * vv - s_val * s_val
    if excess > 0:
        return
    (tau_int,), den = solve([bvec])
    rows = [[den * int(i == j) for j in range(len(K))] for i in range(len(K))]
    if any(tau_int):
        rows.append(tau_int)
    J = linalg.hnf(rows)
    LJ = Lattice(linalg.mat_mul(linalg.mat_mul(J, A), linalg.transpose(J)))
    if excess * den * den % vv:
        return
    want = excess * den * den // vv
    candidates = []
    if want == 0:
        candidates.append([0] * len(K))
    else:
        for q, w in en.short_vectors(LJ, abs(want), cap=cap):
            if q == want:
                candidates.append(linalg.vec_mat(w, J))
    for cand in candidates:
        diff = [a - b for a, b in zip(cand, tau_int)]
        if any(c % den for c in diff):
            continue
        z = [c // den for c in diff]
        yield [a + b for a, b in zip(x0, linalg.vec_mat(z, K))]
