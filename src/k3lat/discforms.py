"""Discriminant groups with their Q/2Z-valued quadratic forms, in integers.

Covers the finite quadratic form of an even lattice with integer class
coordinates of its dual vectors, the exact Milgram signature, the
anti-isometry search of forms, the simplified existence/embedding/
uniqueness criteria for even lattices (rank below length is no: A_L is a
quotient of Z^rank), 2-elementary invariants, subgroups spanned by
generators, and overlattice gluing. Forms are built, stored and searched
as integer numerators over the group's exponent; only their JSON records
reduce each value to a [numerator, denominator] pair.

Gluing never lists a group. An overlattice of S + T is an isotropic
subgroup H of A_S + A_T, the graph of the glue map (Nikulin 1979,
Sec. 1.4-1.5). q vanishes on H iff it vanishes on H's generators and b on
every pair of them, since q(x + y) = q(x) + q(y) + 2 b(x, y) mod 2. The
map is well defined iff |H| = |pi_S H| and injective iff |H| = |pi_T H|,
and subgroup_order reads each order off one small Hermite normal form.
The anti-isometry search likewise tests a candidate image against each
chosen one by a single dot product with that image's row of b. A glue
map's coordinates are on the generators of the DiscriminantData of S
and T that glue_overlattice is given; glue_full builds those once and
runs both the search and the gluing on them.

Gauss sums multiply over orthogonal summands, so the Milgram signature
is summed one block at a time: the p-parts, split into the components of
their generators under b != 0. A block sums in Z[zeta_N] for a power N
of p, where Phi_N(x) = sum_{j<p} x^(j N/p) makes the zero test one line;
for odd p, N is the block's exponent e_b, as e_b q is even there.

Both searches of k3lat, this one and isometries.find_isometry, run on
one node-capped engine, backtrack, and answer with a Verdict: "yes" with
the images found, "no" only once every branch is closed, and
"inconclusive" when a cap stops the search, never "no".
"""

import collections
import itertools
import math
from dataclasses import dataclass
from operator import add, itemgetter, mul

from . import linalg
from .lattice import Lattice

MILGRAM_ORDER_CAP = 10 ** 6
ISOMORPHISM_ORDER_CAP = 10 ** 4
_SEARCH_NODE_CAP = 500_000
# Least number of elements FiniteQuadraticForm._walk yields per batch.
_WALK_BLOCK = 64


class FiniteQuadraticForm:
    """A finite abelian group with a quadratic form q: A -> Q/2Z.

    The group is presented by invariant factors d_1 | d_2 | ... | d_k
    (each > 1). With e = d_k the exponent (1 for the trivial group), the
    constructor takes the integer numerators num of e*q on the generators,
    a symmetric k x k matrix, and stores them with the diagonal reduced mod
    2e and the rest mod e, so two forms on the same factors compare as
    plain ints. q must be well defined on the factors: d_i b(g_i, g_j) = 0
    mod 1 and q(d_i g_i) = 0 mod 2, as on every discriminant_data form.
    """

    def __init__(self, factors, num):
        e = factors[-1] if factors else 1
        self.factors = factors
        self.exponent = e
        self._qnum = [[a % (2 * e if i == j else e) for j, a in enumerate(row)]
                      for i, row in enumerate(num)]

    @property
    def length(self):
        return len(self.factors)

    def order(self):
        prod = 1
        for d in self.factors:
            prod *= d
        return prod

    def is_trivial(self):
        return not self.factors

    def elements(self):
        return itertools.product(*(range(d) for d in self.factors))

    def _q_num(self, x):
        """e * q(x) as an integer in [0, 2e)."""
        qn = self._qnum
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = qn[i]
                total += xi * xi * row[i]
                for j in range(i + 1, len(x)):
                    total += 2 * xi * x[j] * row[j]
        return total % (2 * self.exponent)

    def _b_num(self, x, y):
        """e * b(x, y) as an integer in [0, e)."""
        qn = self._qnum
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = qn[i]
                total += xi * sum(row[j] * yj for j, yj in enumerate(y) if yj)
        return total % self.exponent

    def _walk(self):
        """Yield (e q(x), order of x) for x in elements() order.

        Splits x into a prefix and a trailing block of the last factors,
        of at least _WALK_BLOCK elements or all of them. The prefixes are
        counted like an odometer, adding one invariant factor at a time:
        for a prefix x whose coordinates from i on are 0,
        q(x + t g_i) = q(x) + t^2 q(g_i) + 2t b(x, g_i) and
        ord(x + t g_i) = lcm(ord(x), f_i / gcd(t, f_i)), with b(x, g_j)
        for j > i carried along. Each prefix x then yields its block in one
        batch: q(x + t) = q(x) + q(t) + 2 sum_j t_j b(x, g_j), with q(t)
        and ord(t) listed once and the orders cached per ord(x).
        """
        f, qn, e = self.factors, self._qnum, self.exponent
        k, m = len(f), 2 * e
        p, size = k, 1
        while p and size < _WALK_BLOCK:
            p -= 1
            size *= f[p]
        orders = [[fi // math.gcd(t, fi) for t in range(fi)] for fi in f]
        # e q(t), ord(t) and e b(t, g_j) for the block's later j, over the
        # block's elements t, extended a factor at a time like the prefixes
        block = [range(d) for d in f[p:]]
        block_q, block_o = [0], [1]
        block_b = [[0] for _ in block]
        for i, r in enumerate(block, p):
            qii, oi = qn[i][i], orders[i]
            block_q = [a + t * (t * qii + 2 * c)
                       for a, c in zip(block_q, block_b[i - p]) for t in r]
            block_o = [math.lcm(o, oi[t]) for o in block_o for t in r]
            for j in range(i + 1, k):
                block_b[j - p] = [c + t * qn[i][j]
                                  for c in block_b[j - p] for t in r]
        by_order = {1: block_o}
        tails = [row[i + 1:] for i, row in enumerate(qn)]
        # level i holds (e q, order, [e b(x, g_j) for j >= i]) of the
        # prefix x[:i]; x counts through the prefixes like an odometer
        x = [0] * p
        levels = [(0, 1, [0] * (k - i)) for i in range(p + 1)]
        while True:
            q, o, b = levels[p]
            qs = block_q
            if any(b):
                lin = [0]  # 2 sum_j t_j b(x, g_j) over the block
                for bj, r in zip(b, block):
                    steps = [2 * t * bj for t in r]
                    lin = [a + s for a in lin for s in steps]
                qs = map(add, qs, lin)
            ords = by_order.get(o)
            if ords is None:
                ords = by_order[o] = [math.lcm(o, a) for a in block_o]
            yield from zip([(q + a) % m for a in qs], ords)
            i = p - 1
            while i >= 0 and x[i] == f[i] - 1:
                x[i] = 0
                i -= 1
            if i < 0:
                return
            x[i] += 1
            t = x[i]
            q, o, b = levels[i]
            state = ((q + t * t * qn[i][i] + 2 * t * b[0]) % m,
                     math.lcm(o, orders[i][t]),
                     [(a + t * c) % e for a, c in zip(b[1:], tails[i])])
            levels[i + 1] = state
            for j in range(i + 2, p + 1):  # the coordinates past i are 0
                levels[j] = (state[0], state[1], state[2][j - i - 1:])

    def neg(self):
        return FiniteQuadraticForm(
            self.factors, [[-a for a in row] for row in self._qnum])

    def to_json(self):
        e = self.exponent
        return {"factors": self.factors[:],
                "q": [[[a // math.gcd(a, e), e // math.gcd(a, e)] for a in row]
                      for row in self._qnum]}

    def __repr__(self):
        return f"<finite quadratic form on {self.factors}>"


@dataclass
class DiscriminantData:
    """The finite form of a lattice plus integer coordinates on its group.

    gens[i] is an integer row y in the lattice basis; the dual vector
    y / form.factors[i] generates the i-th cyclic factor of A_L = L*/L.
    class_coords(y, d) maps the dual vector y/d back to coordinates.
    """

    lattice: Lattice
    form: "FiniteQuadraticForm"
    gens: list
    _V: list
    _keep: list

    def class_coords(self, y, d):
        """Coordinates in A_L of the dual vector y/d, for an integer row y
        in L's basis and an integer d >= 1.

        Raises ValueError unless y G = 0 mod d, i.e. unless y/d is in L*.
        """
        pairings = linalg.vec_mat(y, self.lattice.gram)
        if any(p % d for p in pairings):
            raise ValueError("vector is not in the dual lattice")
        z = linalg.vec_mat([p // d for p in pairings], self._V)
        return tuple(z[i] % f for i, f in zip(self._keep, self.form.factors))


def discriminant_data(L):
    """DiscriminantData of an even nondegenerate lattice."""
    if L.degenerate:
        raise ValueError("discriminant form of a degenerate lattice")
    if not L.is_even():
        raise ValueError("discriminant form requires an even lattice")
    n = L.rank
    D, U, V = linalg.snf(L.gram)
    # A_L = Z^n / Z^n G via pairing vectors; y -> yV diagonalizes to sum Z/d_i.
    # D = U G V gives (G V)^-1 = D^-1 U: the dual generator of the i-th
    # cyclic factor is U[i] / d_i.
    keep = [i for i in range(n) if D[i][i] > 1]
    factors = [D[i][i] for i in keep]
    gens = [U[i] for i in keep]
    # q(g_i, g_j) = U_i G U_j^T / (d_i d_j); d_j g_j lies in L, so
    # d_j b(g_i, g_j) and d_i q(g_i) are integers and e q is integral
    e = factors[-1] if factors else 1
    RG = linalg.mat_mul(gens, L.gram)
    num = [[linalg.dot(rg, rj) * e // (fi * fj)
            for rj, fj in zip(gens, factors)] for rg, fi in zip(RG, factors)]
    form = FiniteQuadraticForm(factors, num)
    return DiscriminantData(L, form, gens, V, keep)


def discriminant_form(L):
    return discriminant_data(L).form


# -- Milgram signature, one orthogonal block at a time ---------------------

def _primary_parts(form):
    """Yield (p, q_p) for each prime p | e, p^k || e: the p-part on the
    h_i = (f_i / p_i) g_i, p_i = gcd(f_i, p^k) > 1, over the exponent p^k.
    q and b of an element of order m lie in (1/m)Z, so e q(h_i) and
    e b(h_i, h_j) rescale to p^k by an exact //, for a well-defined q.
    Trial division stops at MILGRAM_ORDER_CAP: a cofactor above its square
    with no prime factor up to it is refused before any part is yielded.
    """
    f, qn, e = form.factors, form._qnum, form.exponent
    powers, rest, p = [], e, 2
    while rest > 1:
        top = math.isqrt(rest)
        p = next((q for q in range(p, min(top, MILGRAM_ORDER_CAP) + 1)
                  if rest % q == 0), None)
        if p is None:
            if top > MILGRAM_ORDER_CAP:  # so is the order of each block
                raise ValueError("orthogonal block of order above the "
                                 f"Milgram cap {MILGRAM_ORDER_CAP}")
            p = rest  # what is left is prime
        pk = 1
        while rest % p == 0:
            rest, pk = rest // p, pk * p
        powers.append((p, pk))
    for p, pk in powers:
        part = [(i, d // math.gcd(d, pk)) for i, d in enumerate(f)
                if d % p == 0]
        yield p, FiniteQuadraticForm(
            [f[i] // c for i, c in part],
            [[qn[i][j] * c * cj // (e // pk) for j, cj in part]
             for i, c in part])


def _block_signature(p, part, block):
    """Residue s of the summand of the p-part on the generators in block.

    Its Gauss sum is sqrt(p^a) zeta_8^s, |block| = p^a. For p = 2 that is
    2^(a//2) (zeta_8 + zeta_8^-1 if a is odd) zeta_8^s, s = 0..7. For odd
    p it is +-p^(a//2), times sum_t (t/p) zeta_p^t = sqrt(p), or i sqrt(p)
    for p = 3 mod 4, if a is odd; so s is 0 or 4, or 2 or 6 in that case.
    """
    factors = [part.factors[i] for i in block]
    size = math.prod(factors)
    if size > MILGRAM_ORDER_CAP:
        raise ValueError(f"orthogonal block of order {size} exceeds the "
                         f"Milgram cap {MILGRAM_ORDER_CAP}")
    eb = factors[-1]
    sub = FiniteQuadraticForm(factors, [
        [part._qnum[i][j] // (part.exponent // eb) for j in block]
        for i in block])
    counts = collections.Counter(map(itemgetter(0), sub._walk()))
    if p > 2 and any(v % 2 for v in counts):
        raise AssertionError("e q is odd on an element of odd order")
    N = max(2 * eb, 8) if p == 2 else eb
    S = [0] * N
    for v, c in counts.items():
        S[v * N // (2 * eb)] += c
    a = next(a for a in itertools.count() if p ** a == size)
    root, g = [0] * N, p ** (a // 2)
    if p == 2:
        for k in (1, -1) if a % 2 else (0,):
            root[k * N // 8] = g
        tries = [(s, root[-(s * N // 8):] + root[:-(s * N // 8)])
                 for s in range(8)]
    else:  # the Legendre symbol (t/p) is t^((p-1)/2) mod p
        for t in range(1, p) if a % 2 else (0,):
            root[t * N // p] = -g if pow(t, (p - 1) // 2, p) == p - 1 else g
        s = 2 if a % 2 and p % 4 == 3 else 0
        tries = [(s, root), (s + 4, [-c for c in root])]
    step = N // p
    for s, target in tries:
        diff = [x - y for x, y in zip(S, target)]
        if all(len(set(diff[r::step])) == 1 for r in range(step)):
            return s
    raise AssertionError("Gauss sum did not match any eighth root of unity")


def milgram_signature(form):
    """Signature mod 8 of a finite quadratic form, by exact Gauss sums.

    sum_x exp(pi i q(x)) = sqrt(|A|) zeta_8^s, and Gauss sums multiply
    over orthogonal summands, so s is the sum mod 8 of the residues of
    the blocks: the p-parts, each split into the connected components of
    its generators under b(h_i, h_j) != 0. A block of exponent e_b, a
    power of p, sums in Z[zeta_N] for a power N of p, where a vector c mod
    x^N - 1 is 0 iff c[r + j N/p] does not depend on j, since Phi_N(x) =
    sum_{j<p} x^(j N/p). For odd p, N = e_b will do: an element x of odd
    order m has q(x) in (1/m)Z and m^2 q(x) = q(m x) = 0 mod 2, so q(x) is
    in (2/m)Z and e_b q(x) is even. No floating point; MILGRAM_ORDER_CAP
    bounds the order of each block.
    """
    sigma = 0
    for p, part in _primary_parts(form):
        unseen = set(range(part.length))
        while unseen:
            block, stack = [], [unseen.pop()]
            while stack:
                i = stack.pop()
                block.append(i)
                linked = {j for j in unseen if part._qnum[i][j]}
                unseen -= linked
                stack.extend(linked)
            sigma += _block_signature(p, part, sorted(block))
    return sigma % 8


# -- isomorphism search ------------------------------------------------------

def subgroup(gens, factors):
    """The subgroup of Z/f_1 + ... + Z/f_k spanned by gens, as a set of
    tuples reduced mod the factors f_i."""
    H = {tuple(0 for _ in factors)}
    for g in gens:
        g = tuple(a % f for a, f in zip(g, factors))
        if g in H:
            continue
        # H + <g> is the union of the cosets H + j g before the first
        # multiple of g that falls back into H
        new = []
        coset = list(H)
        while True:
            coset = [tuple((a + b) % f for a, b, f in zip(x, g, factors))
                     for x in coset]
            if coset[0] in H:
                break
            new.extend(coset)
        H.update(new)
    return H


def subgroup_order(gens, factors):
    """The order of the subgroup of Z/f_1 + ... + Z/f_k spanned by gens.

    The lifts of the subgroup to Z^k form the lattice spanned by gens and
    the f_i e_i, whose index in Z^k is the product of the diagonal of its
    Hermite normal form; the order is prod f_i over that index.
    """
    k = len(factors)
    H = linalg.hnf([list(g) for g in gens]
                   + [[f * (i == j) for j in range(k)]
                      for i, f in enumerate(factors)])
    return math.prod(factors) // math.prod(H[i][i] for i in range(k))


@dataclass
class Verdict:
    status: str  # "yes" | "no" | "inconclusive" (or "unique" for uniqueness)
    reason: str = ""
    witness: dict = None

    def __bool__(self):
        return self.status in ("yes", "unique")


def backtrack(levels, extend, complete, cap):
    """Depth-first search for one candidate per level, within cap nodes.

    levels[i] lists the candidates of level i in the order they are
    tried. extend(records, c) sees the records pushed for the levels
    before c's and returns the record to push for c, or None to reject
    it; complete(images) decides a full choice. Every candidate tried is
    one node. The Verdict is "yes" with witness {"images": the chosen
    candidates as lists, "nodes": n}, "no" once every branch is closed,
    and "inconclusive" at node cap + 1: a spent budget is no proof.
    """
    levels = [*levels, ()]  # an empty level below the last one
    images, records, nodes = [], [], 0
    untried = [iter(levels[0])]
    found = len(levels) == 1 and complete(images)
    while untried and not found:
        for c in untried[-1]:
            nodes += 1
            if nodes > cap:
                reason = f"search stopped at its cap of {cap} nodes"
                return Verdict("inconclusive", reason, {"nodes": nodes})
            record = extend(records, c)
            if record is not None:
                images.append(c)
                records.append(record)
                untried.append(iter(levels[len(records)]))
                found = len(untried) == len(levels) and complete(images)
                break
        else:
            untried.pop()
            if records:
                images.pop()
                records.pop()
    if found:
        return Verdict("yes", witness={"images": [list(c) for c in images],
                                       "nodes": nodes})
    return Verdict("no", witness={"nodes": nodes}, reason=(
        f"every branch closed after {nodes} nodes, within the cap of {cap}"))


def forms_isomorphic(q1, q2):
    """True/False, or None when the search is inconclusive: an isometry
    q1 -> q2 is an anti-isometry q1 -> -q2."""
    return {"yes": True, "no": False}.get(
        find_anti_isometry(q1, q2.neg()).status)


def find_anti_isometry(q1, q2):
    """An anti-isometry gamma: q1 -> q2, q2(gamma x) = -q1(x), as a Verdict.

    Backtracks over the images of q1's generators among the elements of q2
    of the same order and opposite q-value, each paired with the images
    before it as by -b1 (and, over F_p, independent of them). "yes" holds
    the images in witness["images"], "no" proves that none exists, and
    "inconclusive" means ISOMORPHISM_ORDER_CAP or the node cap stopped it.
    It says "no" before any node when q1 and -q2 differ in their counts
    of elements by order and q-value, as an anti-isometry keeps those.
    """
    if q1.factors != q2.factors:
        return Verdict("no", witness={"nodes": 0}, reason=(
            f"invariant factors {q1.factors} and {q2.factors} differ"))
    if q1.order() > ISOMORPHISM_ORDER_CAP:
        return Verdict("inconclusive", witness={"nodes": 0}, reason=(
            f"group order {q1.order()} exceeds ISOMORPHISM_ORDER_CAP = "
            f"{ISOMORPHISM_ORDER_CAP}"))
    e = q1.exponent  # the shared exponent: the factors agree
    qn = q1._qnum
    by_profile = collections.defaultdict(list)  # (e q, order) -> elements
    for x, key in zip(q2.elements(), q2._walk()):
        by_profile[key].append(x)
    if collections.Counter(q1._walk()) != {
            (-v % (2 * e), o): len(xs) for (v, o), xs in by_profile.items()}:
        return Verdict("no", witness={"nodes": 0}, reason=(
            "q1 and -q2 have different counts of elements by order and "
            "q-value"))
    levels = [by_profile.get((-qn[i][i] % (2 * e), d), [])
              for i, d in enumerate(q1.factors)]
    targets_b = [[-a % e for a in row[:i]] for i, row in enumerate(qn)]
    elementary = (all(d == e for d in q1.factors)  # (Z/e)^k, e prime
                  and all(e % d for d in range(2, math.isqrt(e) + 1)))

    def extend(records, y):
        # a record is (the row e b(-, y) mod e, y's F_p echelon entry)
        if not all(sum(map(mul, y, w)) % e == t
                   for (w, _), t in zip(records, targets_b[len(records)])):
            return None
        entry = None
        if elementary:  # reduce y over F_e against the chosen images
            row = list(y)
            for _, (piv, base) in records:
                if row[piv]:
                    c = row[piv] * pow(base[piv], -1, e) % e
                    row = [(a - c * b) % e for a, b in zip(row, base)]
            if not any(row):
                return None
            entry = next(i for i, a in enumerate(row) if a), row
        return [sum(map(mul, r, y)) % e for r in q2._qnum], entry

    def generates(images):  # independent images of a basis always do
        return elementary or subgroup_order(images, q2.factors) == q2.order()

    return backtrack(levels, extend, generates, _SEARCH_NODE_CAP)


# -- Nikulin criteria ---------------------------------------------------------

def nikulin_lattice_exists(sig, form):
    """Existence of an even lattice with the given signature and form.

    Applies the simplified hypotheses: nonnegativity, rank >= length
    (else no: A_L is a quotient of Z^rank) and the signature congruence
    mod 8; rank >= length stands in for the existence of a form of that
    rank.
    """
    tp, tm = sig
    if tp < 0 or tm < 0:
        return Verdict("no", reason=f"negative signature component ({tp},{tm})")
    if tp + tm < form.length:
        return Verdict("no", reason=f"rank {tp + tm} below length {form.length}")
    sigma = milgram_signature(form)
    if (tp - tm) % 8 != sigma:
        return Verdict("no", reason=f"signature {tp - tm} is not {sigma} mod 8")
    return Verdict("yes")


def nikulin_embedding_exists(S, target_sig):
    """Can S embed primitively into an even unimodular lattice of this
    signature? Decided through the complement's invariants; a "yes"
    witness holds the complement's signature and its form -q_S."""
    if not S.is_even():
        raise ValueError("embedding criterion requires an even lattice")
    sp, sm = S.signature() if S.rank else (0, 0)
    lp, lm = target_sig
    mp, mm = lp - sp, lm - sm
    if mp < 0 or mm < 0:
        return Verdict("no", reason=f"signature ({sp},{sm}) exceeds ({lp},{lm})")
    q = discriminant_form(S).neg()
    sub = nikulin_lattice_exists((mp, mm), q)
    if sub.status == "yes":
        return Verdict("yes", witness={
            "complement_signature": (mp, mm),
            "complement_form": q,
        })
    return Verdict(sub.status, reason=sub.reason)


def nikulin_unique(sig, form):
    """Uniqueness in the genus: indefinite and rank >= 2 + length."""
    tp, tm = sig
    if tp <= 0 or tm <= 0:
        return Verdict("inconclusive", reason="form is not indefinite")
    if tp + tm >= 2 + form.length:
        return Verdict("unique")
    return Verdict("inconclusive", reason="rank below 2 + length")


def two_modular_invariants(L):
    """(rank, signature, length, Delta) of a 2-elementary lattice."""
    form = discriminant_form(L)
    if any(d != 2 for d in form.factors):
        raise ValueError("discriminant group is not 2-elementary")
    # Delta = 1 iff some q(x) is not integral. 2b is integral and x_i^2 =
    # x_i mod 2, so q(x) = sum_i x_i q(g_i) mod 1: the generators decide
    delta = int(any(row[i] % form.exponent
                    for i, row in enumerate(form._qnum)))
    return L.rank, L.signature(), form.length, delta


# -- overlattice gluing -------------------------------------------------------

@dataclass
class GlueMap:
    """An anti-isometry between subgroups of two discriminant groups,
    given by generators of the domain and their images, in coordinates on
    the generators of two DiscriminantData."""

    domain: list
    images: list


@dataclass
class Gluing:
    """An overlattice of S + T with both factors embedded primitively."""

    lattice: Lattice
    s_sub: Lattice
    t_sub: Lattice
    index: int


def glue_overlattice(dS, dT, glue, name=None):
    """Overlattice of S + T generated by lifts of the glue graph, for the
    discriminant data dS of S and dT of T.

    The glue map must be an anti-isometry between subgroups of A_S and
    A_T, its rows coordinates on the generators of dS and dT; lifts use
    those generators. Returns a Gluing with S and T as primitive
    sublattices of the result.

    Everything is decided on the generators g_k = (d_k, i_k) of the graph
    H in A_S + A_T, never on its elements. The map is well defined iff
    |H| = |pi_S H| (no (0, y) with y != 0 in H) and injective iff
    |H| = |pi_T H|, each order read off one small Hermite normal form
    (subgroup_order). It is an anti-isometry iff q_S + q_T vanishes on H,
    which holds iff it vanishes mod 2 on every g_k and b_S + b_T vanishes
    mod 1 on every pair g_k, g_l: q(x + y) = q(x) + q(y) + 2 b(x, y) and
    q(n x) = n^2 q(x) mod 2. The index of S + T in the result is |H|.
    """
    S, T = dS.lattice, dT.lattice
    qS, qT = dS.form, dT.form
    pairs = [(list(d), list(i)) for d, i in zip(glue.domain, glue.images)]
    if len(glue.domain) != len(glue.images) or any(
            len(d) != qS.length or len(i) != qT.length for d, i in pairs):
        raise ValueError("glue rows do not match the discriminant groups")
    index = subgroup_order([d + i for d, i in pairs], qS.factors + qT.factors)
    span = subgroup_order([d for d, _ in pairs], qS.factors)
    if index != span:
        raise ValueError(f"glue map is not well defined: its graph has order "
                         f"{index} over a domain of order {span}")
    eS, eT = qS.exponent, qT.exponent
    for k, (d, i) in enumerate(pairs):
        if (qS._q_num(d) * eT + qT._q_num(i) * eS) % (2 * eS * eT):
            raise ValueError(f"glue is not an anti-isometry at generator {k}: "
                             f"q_S = {qS._q_num(d)}/{eS}, "
                             f"q_T = {qT._q_num(i)}/{eT}")
    for (k, (d, i)), (l, (d2, i2)) in itertools.combinations(
            enumerate(pairs), 2):
        if (qS._b_num(d, d2) * eT + qT._b_num(i, i2) * eS) % (eS * eT):
            raise ValueError(f"glue is not an anti-isometry at generators "
                             f"{k}, {l}: b_S = {qS._b_num(d, d2)}/{eS}, "
                             f"b_T = {qT._b_num(i, i2)}/{eT}")
    if index != subgroup_order([i for _, i in pairs], qT.factors):
        raise ValueError("glue map is not injective")

    ns, nt = S.rank, T.rank
    amb = S + T
    # every lift lies in (1/den)(S + T), den the exponent of A_S + A_T
    den = math.lcm(eS, eT)

    def scaled_lift(coeffs, data, n):  # den * sum_i c_i gens_i / f_i
        w = [c * (den // f) for c, f in zip(coeffs, data.form.factors)]
        return linalg.vec_mat(w, data.gens) if w else [0] * n

    rows = [[den * a for a in row] for row in linalg.identity(ns + nt)]
    for d, i in pairs:
        rows.append(scaled_lift(d, dS, ns) + scaled_lift(i, dT, nt))
    basis = linalg.hnf(rows)  # den * basis of L
    gram = linalg.mat_mul(linalg.mat_mul(basis, amb.gram),
                          linalg.transpose(basis))
    if any(a % (den * den) for row in gram for a in row):
        raise ValueError("glue lifts do not pair integrally")
    L = Lattice([[a // (den * den) for a in row] for row in gram], name=name)
    if not L.is_even():
        raise ValueError("glued overlattice is not even")
    # embed S and T as sublattices of the result: X basis = den I
    X, d = linalg.rowspace_solver(basis)(rows[:ns + nt])
    if d != 1:
        raise AssertionError("factor does not embed integrally")
    s_sub = L.sublattice(X[:ns], name=S.name)
    t_sub = L.sublattice(X[ns:], name=T.name)
    return Gluing(lattice=L, s_sub=s_sub, t_sub=t_sub, index=index)


def glue_full(S, T, name=None):
    """Glue S to T along a full anti-isometry A_S -> A_T, as a Verdict.

    Builds the discriminant data of S and T once, and both the search and
    the gluing use their generators: find_anti_isometry's Verdict, whose
    witness on "yes" also holds the Gluing along the identity domain onto
    the images found, under "gluing". "no" proves that no full
    anti-isometry exists; "inconclusive" means a cap stopped the search.
    """
    dS, dT = discriminant_data(S), discriminant_data(T)
    found = find_anti_isometry(dS.form, dT.form)
    if found:
        glue = GlueMap(linalg.identity(dS.form.length),
                       found.witness["images"])
        found.witness["gluing"] = glue_overlattice(dS, dT, glue, name=name)
    return found
