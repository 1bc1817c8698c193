"""Short-vector enumeration on definite lattices.

Fincke-Pohst over an LLL-reduced Gram matrix, in integers only. The tree
reads the integral Gram-Schmidt data of linalg (the leading minors d and
lam = d mu) as they are: each level keeps an integer budget d_j times
what is left of the bound, level ranges come from integer square roots,
and enumeration is exhaustive by construction, not up to rounding. On a
reduced Gram every value fits in one machine word. LLL's Lovasz constant
99/100 gives a smaller tree than 3/4 (a third fewer nodes for the norm-4
Leech census). A node refreshes one row of partial sums, lazily, never
descends into an empty range, and a level-1 node emits its leaves as one
batch of (norm, tuple) pairs, or of norms alone where only norms are read.

The tree runs on the LLL-reduced Gram G2 = T^t G T, T unimodular.
`norm_census`, `has_roots` and `min_norm` read norms only: their leaves
are norms alone, one small int per +-pair (the norm-4 Leech census holds
98 280 ints, not as many 24-tuples), and no vector is converted.
`primitive_represents` tests the gcd in reduced coordinates and
converts only the vector it returns. This is exact: norms do not depend on
the basis, the unimodular T preserves gcds, and T maps +-pairs to +-pairs.
`short_vectors` converts every vector, picks its sign in the input basis
and returns it with the norm the tree computed.

A big norm-only walk without stop_after uses every usable CPU
(Dagdelen-Schneider, Euro-Par 2010). It runs serially until it has
visited SPLIT_NODES nodes; the subtrees of level s = n - SPLIT_DEPTH that
it reaches from then on are numbered in walk order and dealt round-robin,
subtree first + i to share i mod w of w workers. The trigger counts work
done because the top levels cannot tell a big tree from a small one; of
the benchmark's trees only the Leech census reaches it. The shares are
jobs of `parallel.run`: share 0 is walked by the calling process, which
keeps the prefix found before the split, and each other share by one
forked child, which walks the top levels again, descends only into its
own subtrees and sends their leaves back marshalled; where the fork
fails or the child fails, the caller walks that share itself. The shares
are appended to the prefix in any order: a split returns the serial
leaves as a multiset, which is all `norm_census` and `has_roots` read,
and raises EnumerationCap exactly when the serial walk would (a share
stops at the leaves the prefix left under the cap, and the joined length
is checked). Walks that return coordinates or stop early never split.
"""

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

from . import linalg, parallel


class EnumerationCap(RuntimeError):
    """Raised when an enumeration exceeds its safety cap.

    Every entry point counts the cap in +-pairs: one per {v, -v}, whether
    or not it returns both signs.
    """

    def __init__(self, cap):
        super().__init__(f"enumeration exceeded the safety cap of {cap} vectors "
                         f"up to sign; rerun with a larger cap to resume")
        self.cap = cap


DEFAULT_CAP = 10_000_000

# A big walk is dealt out at level n - SPLIT_DEPTH: 1 043 nodes for E8 at
# norm <= 8, 1 212 for the Leech census, against 5 + 22 + 91 + 361 above
# it, enough to balance a few workers.
SPLIT_DEPTH = 5

# Work done before a walk is dealt out, in nodes (about 0.2 s; a serial
# Leech census takes 3.1 s, CPython 3.11 on a 2-core host). The top of
# the tree cannot tell a big tree from a small one: at depths 3/4/5/6, E8
# at norm <= 8 has 91/313/1 043/2 782 nodes and the Leech census at
# norm <= 4 91/361/1 212/3 300. Below this count a fork would cost more
# than it saves; the largest tree of the benchmark other than the Leech
# census, a rank-24 root check, stays below it.
SPLIT_NODES = 1 << 17


def _reduced_gram(L):
    """(G2, T, sign): G2 = T^t (sign * L.gram) T positive definite and
    LLL-reduced, T unimodular; y in reduced coordinates is T y in L's basis.
    lll_reduce's own pivots are the definiteness test.
    """
    if L.rank == 0:
        raise ValueError("enumeration on a rank-0 lattice")
    sign = -1 if L.gram[0][0] < 0 else 1
    try:
        G2, T = linalg.lll_reduce([[sign * a for a in row] for row in L.gram])
    except ValueError:
        raise ValueError("enumeration requires a definite lattice") from None
    return G2, T, sign


def _cut(out, before, stop_after, cap):
    """Replay the per-leaf checks on the leaves past out[:before].

    Leaf m (1-based) returns out[:m] if m >= stop_after, and otherwise
    raises EnumerationCap if m > cap; the return is tested first.
    """
    if stop_after is not None:
        m = max(stop_after, before + 1)
        if m <= min(cap + 1, len(out)):
            del out[m:]
            return out
    raise EnumerationCap(cap)


def _enumerate_reduced(G, bound, cap, stop_after=None, coords=True):
    """All (norm, x) with 0 < x G x^T <= bound, one per +-pair.

    G must be positive definite. x is a tuple; the representative of each
    pair has its highest-index nonzero coordinate positive. Leaves come
    with x_0 fastest and each coordinate increasing; the first stop_after
    leaves are returned, and more than cap leaves raise EnumerationCap.
    With coords=False each leaf is its norm alone, with the same cuts and,
    unless the walk is split (below), in the same order.

    Budgets. With (d, lam) = linalg.integral_gram_schmidt(G), x's
    coordinate along the j-th Gram-Schmidt vector is u_j / d[j+1], where
    u_j = d[j+1] x_j + C_j and C_j = sum_{i>j} lam[i][j] x_i; so the
    projection pi_j(x) orthogonal to the first j basis vectors has
    P_j = ||pi_j(x)||^2 = sum_{i>=j} u_i^2 / (d[i] d[i+1]). Level j keeps
    the budget E_j = d[j] (bound - P_j), with E_n = d[n] bound and
        E_j = (d[j] E_{j+1} - u_j^2) / d[j+1].
    The division is exact because E_j is an integer: with a_k = <x, b_k>
    and G_j the leading j x j block, P_j = x G x^T - a G_j^-1 a^T, and
    d[j] G_j^-1 is the adjugate of G_j, an integer matrix. Level j's range
    is E_j >= 0, i.e. |u_j| <= isqrt(F[j]) with F[j] = d[j] E_{j+1}, and a
    leaf's norm is bound - E_0 (d[0] = 1). For an LLL-reduced Gram these
    are small: below 2^25 in the norm-4 census of the P^1(Z/23) and N23
    Leech models, so one machine word each.

    sigma[l][k] = sum_{i >= k} lam[i][l] x[i] is refreshed lazily
    (Schnorr-Euchner): top[j] is the highest column whose x changed since
    row j - 1 was last refreshed, so a node at level j rewrites only row
    j - 1, at columns top[j] down to j. A node computes its child's range
    and steps to its next sibling when that range is empty; a level-1 node
    appends every x_0 of its range as a leaf at once. A norm-only leaf
    needs neither x_0 nor the prefix tuple: its norm is
    bound - E_0 = bound - (F[0] - u_0^2) / d[1], with u_0 stepping by d[1].

    A norm-only walk with stop_after None is split once it has visited
    SPLIT_NODES nodes (see the module docstring) and returns the serial
    leaves as a multiset; every other walk is serial.
    """
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
    tree = (d, [[lam[i][l] for i in range(n)] for l in range(n)], bound,
            cap, stop_after, coords)
    if coords or stop_after is not None:
        return _walk(tree, limit)
    split = n - SPLIT_DEPTH
    out, first = _prefix(tree, limit, split)
    if first is None:
        return out
    # a share that passes the cap raises EnumerationCap, in the caller or
    # in a child whose job parallel.run then reruns in the caller; each
    # share is freed as it is joined
    workers = parallel.workers()
    shares = parallel.run([functools.partial(_share, tree, limit - len(out),
                                             split, first, k, workers)
                           for k in range(workers)])
    while shares:
        out += shares.pop()
    if len(out) > cap:
        raise EnumerationCap(cap)
    return out


def _walk(tree, limit, split=0, deal=None):
    """The leaves of the tree (d, lamc, bound, cap, stop_after, coords),
    cut as `_enumerate_reduced` states at `limit` leaves.

    A level-`split` node with a nonempty child range descends only if
    deal(nodes) is true, given the nodes visited so far; split <= 1 never
    asks, and a node that does not descend is walked as one with an empty
    range.
    """
    d, lamc, bound, cap, stop_after, coords = tree
    n = len(lamc)
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
    nodes = 0
    while True:
        nodes += 1
        # node x[j] = xj: its budget, then row i = j - 1 and the child's range
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
            if lo <= hi and (j != split or deal(nodes)):
                j -= 1
                F[j] = f
                x[j] = xj = lo
                xmax[j] = hi
                zero_above[j] = za
                continue
        # next sibling, climbing past exhausted levels
        xj += 1
        while xj > xmax[j]:
            j += 1
            if j == n:
                return out
            xj = x[j] + 1
        x[j] = xj


def _prefix(tree, limit, split):
    """(leaves, first): the walk's leaves up to the first level-`split`
    subtree it reaches after SPLIT_NODES nodes, and that subtree's number
    in walk order; first is None when the walk ended before."""
    seen, first = 0, None

    def deal(nodes):
        nonlocal seen, first
        if first is None and nodes >= SPLIT_NODES:
            first = seen
        seen += 1
        return first is None

    return _walk(tree, limit, split, deal), first


def _share(tree, limit, split, first, k, workers):
    """The leaves of share k: level-`split` subtrees first + k,
    first + k + workers, ..., in walk order."""
    seen = -first

    def deal(nodes):
        nonlocal seen
        take = seen >= 0 and seen % workers == k
        seen += 1
        return take

    return _walk(tree, limit, split, deal)


def _canonical_sign(coords):
    for a in coords:
        if a > 0:
            return coords
        if a < 0:
            return [-b for b in coords]
    return coords


def short_vectors(L, bound, up_to_sign=False, cap=DEFAULT_CAP):
    """(q(v), v) for all nonzero v with |q(v)| <= bound, ordered by |q(v)|
    and then by the coordinate list v; q carries the lattice's sign.

    With up_to_sign one representative per {v, -v} is returned (its first
    nonzero coordinate positive); otherwise both signs appear.
    """
    G2, T, sign = _reduced_gram(L)
    found = [(sign * q, _canonical_sign(linalg.mat_vec(T, y)))
             for q, y in _enumerate_reduced(G2, bound, cap)]
    if not up_to_sign:
        found = found + [(q, [-a for a in v]) for q, v in found]
    found.sort(key=lambda t: (abs(t[0]), t[1]))
    return found


def min_norm(L, cap=DEFAULT_CAP):
    """Minimal |q| over nonzero vectors, with the lattice's sign restored."""
    G2, _, sign = _reduced_gram(L)
    limit = min(G2[i][i] for i in range(len(G2)))
    step = 2 if L.is_even() else 1
    start = step
    for b in range(start, limit + 1, step):
        hit = _enumerate_reduced(G2, b, cap, stop_after=1, coords=False)
        if hit:
            return sign * hit[0]
    raise AssertionError("diagonal entry should have been reachable")


def has_roots(L, cap=DEFAULT_CAP):
    """True iff the lattice contains a vector of norm +-2."""
    G2, _, _ = _reduced_gram(L)
    return 2 in _enumerate_reduced(G2, 2, cap, coords=False)


def primitive_represents(L, m, cap=DEFAULT_CAP):
    """The coordinates of a primitive vector of norm m, first nonzero
    entry positive, or None.

    Only definite lattices are searched, so absence is conclusive.
    """
    if m == 0 or L.rank == 0:
        return None
    G2, T, sign = _reduced_gram(L)
    if m * sign < 0:
        return None
    for q, y in _enumerate_reduced(G2, abs(m), cap):
        if q == abs(m) and math.gcd(*y) == 1:
            return _canonical_sign(linalg.mat_vec(T, y))
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
    pairs = Counter(_enumerate_reduced(G2, bound, cap, coords=False))
    k = 1 if up_to_sign else 2
    counts = {sign * q: k * c for q, c in pairs.items()}
    return NormCensus(bound=bound, up_to_sign=up_to_sign, counts=counts)
