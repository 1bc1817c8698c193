"""Short-vector enumeration on definite lattices.

Fincke-Pohst over an LLL-reduced Gram matrix. The search tree uses pure
integer arithmetic: the rational Cholesky data are cleared of denominators
once, so level bounds come from integer square roots and enumeration is
exhaustive by construction, not up to rounding.

The tree runs on the LLL-reduced Gram G2 = T^t G T, T unimodular.
`norm_census`, `has_roots` and `min_norm` only count or test norms and stay
in reduced coordinates; `primitive_represents` tests the gcd there and
converts only the vector it returns. This is exact: norms do not depend on
the basis, the unimodular T preserves gcds, and T maps +-pairs to +-pairs.
`short_vectors` converts every vector and picks its sign in the input basis.
"""

import math
from dataclasses import dataclass, field

from . import linalg
from .lattice import LatticeVector


class EnumerationCap(RuntimeError):
    """Raised when an enumeration exceeds its vector-count safety cap."""

    def __init__(self, cap):
        super().__init__(f"enumeration exceeded the safety cap of {cap} vectors; "
                         f"rerun with a larger cap to resume")
        self.cap = cap


DEFAULT_CAP = 10_000_000


def _reduced_gram(L):
    """(G2, T, sign): G2 = T^t (sign * L.gram) T positive definite and
    LLL-reduced, T unimodular; y in reduced coordinates is T y in L's basis.
    """
    if L.rank == 0:
        raise ValueError("enumeration on a rank-0 lattice")
    plus, minus = L.signature()
    if plus and minus:
        raise ValueError("enumeration requires a definite lattice")
    sign = -1 if minus else 1
    G2, T = linalg.lll_reduce([[sign * a for a in row] for row in L.gram])
    return G2, T, sign


def _integer_cholesky(G):
    """Denominator-free Cholesky data for the integer FP recursion.

    Returns (w, D, mnum, scale) such that for integer x,
        scale * x G x^T = sum_j w[j] * (x[j]*D[j] + C_j)^2,
    with C_j = sum_{i>j} mnum[j][i] * x[i].
    """
    n = len(G)
    mu, B = linalg.gram_schmidt_from_gram(G)
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


def _enumerate_reduced(G, bound, cap, stop_after=None):
    """All (norm, x) with 0 < x G x^T <= bound, one per +-pair.

    G must be positive definite. The representative of each pair has its
    highest-index nonzero coordinate positive.
    """
    n = len(G)
    out = []
    if bound <= 0:
        return out
    w, D, mnum, scale = _integer_cholesky(G)
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
                if stop_after is not None and len(out) >= stop_after:
                    return out
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


def _canonical_sign(coords):
    for a in coords:
        if a > 0:
            return coords
        if a < 0:
            return [-b for b in coords]
    return coords


def short_vectors(L, bound, up_to_sign=False, cap=DEFAULT_CAP):
    """All nonzero v with |q(v)| <= bound, canonically ordered.

    With up_to_sign one representative per {v, -v} is returned (its first
    nonzero coordinate positive); otherwise both signs appear.
    """
    G2, T, sign = _reduced_gram(L)
    found = [(sign * q, _canonical_sign(linalg.mat_vec(T, y)))
             for q, y in _enumerate_reduced(G2, bound, cap)]
    if not up_to_sign:
        found = found + [(q, [-a for a in v]) for q, v in found]
        if len(found) > cap:
            raise EnumerationCap(cap)
    found.sort(key=lambda t: (abs(t[0]), t[1]))
    return [LatticeVector(L, v) for _, v in found]


def min_norm(L, cap=DEFAULT_CAP):
    """Minimal |q| over nonzero vectors, with the lattice's sign restored."""
    G2, _, sign = _reduced_gram(L)
    limit = min(G2[i][i] for i in range(len(G2)))
    step = 2 if L.is_even() else 1
    start = step
    for b in range(start, limit + 1, step):
        hit = _enumerate_reduced(G2, b, cap, stop_after=1)
        if hit:
            return sign * hit[0][0]
    raise AssertionError("diagonal entry should have been reachable")


def has_roots(L, cap=DEFAULT_CAP):
    """True iff the lattice contains a vector of norm +-2."""
    G2, _, _ = _reduced_gram(L)
    return any(q == 2 for q, _ in _enumerate_reduced(G2, 2, cap))


def primitive_represents(L, m, cap=DEFAULT_CAP):
    """A primitive vector of norm m, or None.

    Only definite lattices are searched, so absence is conclusive.
    """
    if m == 0:
        return None
    plus, minus = L.signature()
    if (m > 0 and plus == 0) or (m < 0 and minus == 0):
        return None
    G2, T, _ = _reduced_gram(L)
    for q, y in _enumerate_reduced(G2, abs(m), cap):
        if q == abs(m) and math.gcd(*y) == 1:
            return LatticeVector(L, _canonical_sign(linalg.mat_vec(T, y)))
    return None


@dataclass
class NormCensus:
    """Counts of lattice vectors by norm, complete up to the stated bound."""

    bound: int
    up_to_sign: bool
    counts: dict = field(default_factory=dict)

    def count(self, norm):
        return self.counts.get(norm, 0)

    def to_json(self):
        return {str(k): v for k, v in sorted(self.counts.items(),
                                             key=lambda t: abs(t[0]))}


def norm_census(L, bound, up_to_sign=True, cap=DEFAULT_CAP):
    """Censuses of vector counts by norm up to the bound."""
    G2, _, sign = _reduced_gram(L)
    counts = {}
    for q, _ in _enumerate_reduced(G2, bound, cap):
        counts[sign * q] = counts.get(sign * q, 0) + 1
    if not up_to_sign:
        counts = {q: 2 * c for q, c in counts.items()}
    return NormCensus(bound=bound, up_to_sign=up_to_sign, counts=counts)
