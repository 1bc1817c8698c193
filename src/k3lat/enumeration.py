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
98 280 ints, not as many 24-tuples), and no vector is converted. This is
exact: norms do not depend on the basis, and T maps +-pairs to +-pairs.
`min_norm` is one such walk, below the least diagonal entry of G2.
Every walk ends the same way: it returns all its leaves, or raises
EnumerationCap once it has more than cap of them.
`short_pairs` returns T, the sign and the leaves as the tree emits them,
one (norm, y) per +-pair in reduced coordinates, unsorted: a caller that
carries the vectors on into its own basis folds T into that one product.
`short_vectors` is built on it: it converts every vector, picks its sign
in the input basis, adds the other signs if asked and sorts.

A norm-only walk replays repeated subtrees (Fincke-Pohst, Math. Comp. 44
(1985); Conway-Sloane, SPLAG ch. 2 and 4). A level-j node with a nonzero
top y = sum_{i>=j} x_i b_i walks w + y over w in L_j = span(b_0..b_{j-1});
y projects onto L_j (x) R at c in the dual L_j^*, and the node's budget is
E_j = d[j] (bound - ||y - c||^2). Nodes with equal E_j whose c agree mod
L_j walk translated subtrees, with the same leaf norms in the same order,
so `_walk` records the leaves of each key once, at every second level
from 4.

The memo keys up to sign. A node's subtree reads its top only through
E_j and c: it walks the w in L_j with ||w + c||^2 <= E_j / d[j], each
level's range being the integers t at which the projection of w + c
orthogonal to the levels below still fits. Let nodes A and B have equal
E_j and c_A = -c_B + lam with lam in L_j. Then w -> -w - lam maps L_j
onto itself with -w - lam + c_B = -(w + c_A): it maps A's subtree onto
B's, norm for norm, and every projection to its negative, so at each
level k < j it maps A's range onto {-t - lam_k : t in that range} with
lam_k the k-th coordinate of lam, and B walks that in the opposite
order. A subtree's leaves are its children's, child by child, so B's
leaves are A's reversed at every level, and so in all. `_walk` keys a
node by the smaller of the keys of c and -c (each Smith coordinate a of
-c is -a mod m, and E_j is the same) and stores with each span whether
it was recorded under -c; a hit of the other sign appends the leaves
reversed. A self-inverse class, c = -c mod L_j, has one key, and its
leaves are a palindrome, so its forward replay is exact. This cuts the
norm-4 census of the P1(Z/23) Leech model from 2.2 M nodes to 62 529
(98 083 keyed by the class alone), and that of the N23 model from 1.8 M
to 50 817 (77 086).
"""

import math
from collections import Counter
from dataclasses import dataclass

from . import linalg


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

# Nodes a norm-only walk visits before it builds its memo: 13-15 ms of
# walking, against about 4 ms for the ten Smith forms at rank 24. A
# rank-24 root check of 15 762 nodes saves 6 584 of them with the memo
# built at 4 096, and took a third longer (17 ms against 13 ms).
MEMO_NODES = 1 << 14


def _reduced_gram(gram):
    """(G2, T, sign): G2 = T^t (sign * gram) T positive definite and
    LLL-reduced, T unimodular; y in reduced coordinates is T y in the
    basis of gram. lll_reduce's own pivots are the definiteness test.
    """
    if not gram:
        raise ValueError("enumeration on a rank-0 lattice")
    sign = -1 if gram[0][0] < 0 else 1
    try:
        G2, T = linalg.lll_reduce([[sign * a for a in row] for row in gram])
    except ValueError:
        raise ValueError("enumeration requires a definite lattice") from None
    return G2, T, sign


def _enumerate_reduced(G, bound, cap, coords=True):
    """All (norm, x) with 0 < x G x^T <= bound, one per +-pair.

    G must be positive definite. x is a tuple; the representative of each
    pair has its highest-index nonzero coordinate positive. Leaves come
    with x_0 fastest and each coordinate increasing, and more than cap
    leaves raise EnumerationCap. With coords=False each leaf is its norm
    alone, in the same order.

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
    """
    if bound <= 0:
        return []
    if len(G) == 1:
        a = G[0][0]
        xs = range(1, math.isqrt(bound // a) + 1)
        if len(xs) > cap:
            raise EnumerationCap(cap)
        return ([(a * x0 * x0, (x0,)) for x0 in xs] if coords
                else [a * x0 * x0 for x0 in xs])
    return _walk(G, bound, cap, coords)


def _memo_levels(G):
    """Per level j, None or (rows, table): table maps keys to subtrees.
    With (D, U) = snf_left(G_j), G_j the leading j x j block, a top's class
    has one coordinate sum_{i>=j} r[i] x_i mod m per factor m = D_kk > 1,
    r[i] entry (k, i) of U G[:j] mod m; its row is (r, m, s), s for the
    partial sums.
    Memo levels 4, 6, 8, ...: any level is exact, as a key fixes the budget
    and the class up to sign (the mirror fact of the module docstring). The
    norm-4 census of the P1 Leech model then visits 62 529 nodes (N23:
    50 817), against 86 262 (69 281) at levels 6, 9, 12, ...; every level
    from 4 visits 46 733, in 7 % less time, but holds a third more memory
    and takes twice the Smith forms. Keyed by the class alone, levels 4, 6,
    8, ... visit 98 083 (77 086). The Smith forms skip V, which the memo
    never reads.
    """
    n = len(G)
    levels = [None] * n
    for j in range(4, n, 2):
        D, U = linalg.snf_left([r[:j] for r in G[:j]])
        UG = linalg.mat_mul(U, [r[j:] for r in G[:j]])
        levels[j] = ([([0] * j + [a % D[k][k] for a in UG[k]], D[k][k],
                       [0] * (n + 1)) for k in range(j) if D[k][k] > 1], {})
    return levels


def _walk(G, bound, cap, coords):
    """The leaves of the tree on G, of rank 2 or more, up to bound, as
    `_enumerate_reduced` states.

    sigma[l][k] = sum_{i >= k} lam[i][l] x[i] is refreshed lazily
    (Schnorr-Euchner): top[j] is the highest column whose x changed since
    row j - 1 was last refreshed, so a node at level j rewrites only row
    j - 1, at columns top[j] down to j. A node computes its child's range
    and steps to its next sibling when that range is empty; a level-1 node
    appends every x_0 of its range as a leaf at once. A norm-only leaf
    needs neither x_0 nor the prefix tuple: its norm is
    bound - E_0 = bound - (F[0] - u_0^2) / d[1], with u_0 stepping by d[1].

    The memo. After MEMO_NODES nodes a norm-only walk keys each node at a
    memo level j with a nonzero top and a nonempty child range by E_j and
    its class up to sign, in one int: key and mirror read the class
    coordinates a and -a mod m, and flip says that mirror, the smaller,
    is the key. The class sums are as lazy as sigma, ctop[j] being raised
    to top[j] on each descent to level j. A miss descends, and when the
    walk climbs back past level j the key maps to the offsets of the
    subtree's leaves out[start:stop] and the miss's flip, in one int
    ((start << shift | stop) << 1 | flip): out only grows, so no leaf is
    copied. A hit appends out[start:stop], or
    its reverse when its flip differs from the recorded one (the module
    docstring proves that B's leaves are A's reversed), and walks on as a
    node with an empty range.
    """
    n = len(G)
    d, lam = linalg.integral_gram_schmidt(G)
    lamc = [[lam[i][l] for i in range(n)] for l in range(n)]
    out = []
    isqrt = math.isqrt
    sigma = [[0] * (n + 1) for _ in range(n)]
    top = list(range(n))
    F = [0] * n
    x = [0] * n
    xmax = [0] * n
    zero_above = [False] * n
    levels = None
    pending = [None] * n  # (key, start) of the subtree being recorded
    ctop = [n - 1] * n  # like top, for the partial sums of the class rows
    shift = cap.bit_length()  # no offset exceeds cap
    mask = (1 << shift) - 1
    countdown = 0 if coords else MEMO_NODES
    j, xj = n - 1, 0
    F[j] = d[j] * d[n] * bound
    xmax[j] = isqrt(F[j]) // d[n]
    zero_above[j] = True
    while True:
        if countdown:
            countdown -= 1
            if not countdown:
                levels = _memo_levels(G)
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
                if coords:
                    prefix = tuple(x[1:])
                    for x0 in range(lo, hi + 1):
                        v = dj * x0 + c
                        out.append((bound - (f - v * v) // dj,
                                    (x0,) + prefix))
                else:
                    out += [bound - (f - v * v) // dj
                            for v in range(dj * lo + c, dj * hi + c + 1, dj)]
                if len(out) > cap:
                    raise EnumerationCap(cap)
        else:
            if za:
                if lo < 0:
                    lo = 0
            elif levels and lo <= hi and levels[j] is not None:
                rows, table = levels[j]
                key = mirror = e
                for r, m, s in rows:
                    for k in range(ctop[j], i, -1):
                        s[k] = s[k + 1] + r[k] * x[k]
                    a = s[j] % m
                    key = key * m + a
                    mirror = mirror * m + -a % m
                ctop[j] = j
                flip = mirror < key
                if flip:
                    key = mirror
                span = table.get(key)
                if span is None:
                    pending[j] = key, len(out), flip
                else:
                    start, end = span >> shift + 1, span >> 1 & mask
                    out += (out[start:end] if span & 1 == flip
                            else out[start:end][::-1])
                    if len(out) > cap:
                        raise EnumerationCap(cap)
                    hi = lo - 1
            if lo <= hi:
                j -= 1
                if levels and top[j] > ctop[j]:
                    ctop[j] = top[j]
                F[j] = f
                x[j] = xj = lo
                xmax[j] = hi
                zero_above[j] = za
                continue
        # next sibling, climbing past exhausted levels, which ends the
        # subtrees being recorded there (an empty one is 0, no new object)
        xj += 1
        while xj > xmax[j]:
            j += 1
            if j == n:
                return out
            if levels and pending[j]:
                key, start, flip = pending[j]
                end = len(out)
                levels[j][1][key] = ((start << shift | end) << 1 | flip
                                     if end > start else 0)
                pending[j] = None
            xj = x[j] + 1
        x[j] = xj


def _canonical_sign(coords):
    for a in coords:
        if a > 0:
            return coords
        if a < 0:
            return [-b for b in coords]
    return coords


def short_pairs(gram, bound, cap=DEFAULT_CAP):
    """(T, sign, leaves) for a definite integer Gram: leaves holds one
    (|q|, y) per +-pair {v, -v} with 0 < |q(v)| <= bound, unsorted, with
    y a tuple in the reduced basis, v = T y in the basis of gram and
    q(v) = sign |q|.

    A caller that converts the leaves as one product can fold T into its
    own basis change and read both signs off each leaf.
    """
    G2, T, sign = _reduced_gram(gram)
    return T, sign, _enumerate_reduced(G2, bound, cap)


def short_vectors(L, bound, up_to_sign=False, cap=DEFAULT_CAP):
    """(q(v), v) for all nonzero v with |q(v)| <= bound, ordered by |q(v)|
    and then by the coordinate list v; q carries the lattice's sign.

    With up_to_sign one representative per {v, -v} is returned (its first
    nonzero coordinate positive); otherwise both signs appear.
    """
    T, sign, leaves = short_pairs(L.gram, bound, cap)
    found = [(sign * q, _canonical_sign(linalg.mat_vec(T, y)))
             for q, y in leaves]
    if not up_to_sign:
        found = found + [(q, [-a for a in v]) for q, v in found]
    found.sort(key=lambda t: (abs(t[0]), t[1]))
    return found


def min_norm(L, cap=DEFAULT_CAP):
    """Minimal |q| over nonzero vectors, with the lattice's sign restored,
    in one norm-only walk.

    The least diagonal entry b of the reduced Gram is the norm of a basis
    vector, so the minimum is b unless the walk up to b - step (step 2 on
    even lattices, 1 otherwise) finds a shorter vector; then it is the
    least norm that walk found. The walk is cut by cap like every other:
    if more than cap +-pairs lie below b, this raises EnumerationCap
    rather than answer, and it never returns a wrong minimum.
    """
    G2, _, sign = _reduced_gram(L.gram)
    b = min(G2[i][i] for i in range(len(G2)))
    step = 2 if L.is_even() else 1
    return sign * min(_enumerate_reduced(G2, b - step, cap, coords=False),
                      default=b)


def has_roots(L, cap=DEFAULT_CAP):
    """True iff the lattice contains a vector of norm +-2."""
    G2, _, _ = _reduced_gram(L.gram)
    return 2 in _enumerate_reduced(G2, 2, cap, coords=False)


@dataclass
class NormCensus:
    """Counts of lattice vectors by norm, complete up to the census's
    bound."""

    counts: dict

    def count(self, norm):
        return self.counts.get(norm, 0)

    def to_json(self):
        return {str(k): v for k, v in sorted(self.counts.items(),
                                             key=lambda t: abs(t[0]))}


def norm_census(L, bound, up_to_sign=True, cap=DEFAULT_CAP):
    """Censuses of vector counts by norm up to the bound."""
    G2, _, sign = _reduced_gram(L.gram)
    pairs = Counter(_enumerate_reduced(G2, bound, cap, coords=False))
    k = 1 if up_to_sign else 2
    counts = {sign * q: k * c for q, c in pairs.items()}
    return NormCensus(counts)
