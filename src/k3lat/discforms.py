"""Discriminant groups with their Q/2Z-valued quadratic forms, in integers.

Covers the finite quadratic form of an even lattice with integer class
coordinates of its dual vectors, the exact Milgram signature via Gauss
sums in cyclotomic integer rings, brute-force (anti-)isometry of forms,
the simplified existence/embedding/uniqueness criteria for even
lattices (rank below length is no: A_L is a quotient of Z^rank),
2-elementary invariants, subgroups spanned by generators, and
overlattice gluing. Forms are stored and searched as integer numerators
over the group's exponent; Fraction appears only in a form's rational
constructor input, in the q_value/b_value results and in the JSON records.

Gluing never lists a group. An overlattice of S + T is an isotropic
subgroup H of A_S + A_T, the graph of the glue map (Nikulin 1979,
Sec. 1.4-1.5). q vanishes on H iff it vanishes on H's generators and b on
every pair of them, since q(x + y) = q(x) + q(y) + 2 b(x, y) mod 2. The
map is well defined iff |H| = |pi_S H| and injective iff |H| = |pi_T H|,
and subgroup_order reads each order off one small Hermite normal form.
The anti-isometry search likewise tests a candidate image against each
chosen one by a single dot product with that image's row of b.
"""

import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .lattice import Lattice

MILGRAM_ORDER_CAP = 10 ** 6
ISOMORPHISM_ORDER_CAP = 10 ** 4
_SEARCH_NODE_CAP = 500_000


class FiniteQuadraticForm:
    """A finite abelian group with a quadratic form q: A -> Q/2Z.

    The group is presented by invariant factors d_1 | d_2 | ... | d_k
    (each > 1). With e = d_k the exponent (1 for the trivial group), q is
    stored on the generators as the symmetric integer matrix e*q, its
    diagonal read mod 2e and its off-diagonal mod e, so two forms on the
    same factors compare as plain ints. The constructor takes int factors
    and rational entries and raises ValueError unless e*q is integral, as
    it is for every well-defined form.
    """

    def __init__(self, factors, q_matrix):
        factors = list(factors)  # refused, not coerced: 2.7, "3", True
        if any(type(d) is not int or d <= 1 for d in factors):
            raise ValueError("invariant factors must be integers > 1")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        e = factors[-1] if factors else 1
        k = len(factors)
        scaled = [[Fraction(q_matrix[i][j]) * e for j in range(k)]
                  for i in range(k)]
        if any(scaled[i][j] != scaled[j][i] for i in range(k) for j in range(i)):
            raise ValueError("q matrix must be symmetric")
        if any(a.denominator != 1 for row in scaled for a in row):
            raise ValueError(f"e*q must be integral for the exponent e = {e}")
        self._store(factors, [[int(a) for a in row] for row in scaled])

    def _store(self, factors, num):
        """Set q = num / e, reducing the diagonal mod 2e and the rest mod e."""
        e = factors[-1] if factors else 1
        self.factors = factors
        self.exponent = e
        self._qnum = [[a % (2 * e if i == j else e) for j, a in enumerate(row)]
                      for i, row in enumerate(num)]

    @classmethod
    def _from_numerators(cls, factors, num):
        form = cls.__new__(cls)
        form._store(factors, num)
        return form

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

    def element_order(self, x):
        o = 1
        for xi, d in zip(x, self.factors):
            if xi:
                o = math.lcm(o, d // math.gcd(xi, d))
        return o

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

        Adds one invariant factor at a time: for a prefix x whose
        coordinates from i on are 0, q(x + t g_i) = q(x) + t^2 q(g_i) +
        2t b(x, g_i) and ord(x + t g_i) = lcm(ord(x), f_i / gcd(t, f_i)),
        with b(x, g_j) for j > i carried along, so each element costs O(1)
        amortized instead of _q_num's O(k^2).
        """
        f, qn, e = self.factors, self._qnum, self.exponent
        k, m = len(f), 2 * e
        if not k:
            yield 0, 1
            return
        orders = [[fi // math.gcd(t, fi) for t in range(fi)] for fi in f]
        tails = [row[i + 1:] for i, row in enumerate(qn)]
        # level i holds (e q, order, [e b(x, g_j) for j >= i]) of the
        # prefix x[:i]; x counts through the prefixes like an odometer
        x = [0] * (k - 1)
        levels = [(0, 1, [0] * (k - i)) for i in range(k)]
        last, qkk = orders[-1], qn[-1][-1]
        squares = [t * t * qkk for t in range(f[-1])]
        while True:
            q, o, (b,) = levels[-1]
            yield from zip([(q + sq + 2 * t * b) % m
                            for t, sq in enumerate(squares)],
                           [math.lcm(o, ot) for ot in last])
            i = k - 2
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
            for j in range(i + 2, k):  # the coordinates past i are 0 again
                levels[j] = (state[0], state[1], state[2][j - i - 1:])

    def q_value(self, x):
        """q(x) as a Fraction in [0, 2)."""
        return Fraction(self._q_num(x), self.exponent)

    def b_value(self, x, y):
        """Bilinear pairing b(x, y) as a Fraction in [0, 1)."""
        return Fraction(self._b_num(x, y), self.exponent)

    def neg(self):
        return FiniteQuadraticForm._from_numerators(
            self.factors, [[-a for a in row] for row in self._qnum])

    def value_multiset(self):
        """Counts of the numerators e * q(x) over the group."""
        counts = {}
        for v, _ in self._walk():
            counts[v] = counts.get(v, 0) + 1
        return counts

    def to_json(self):
        e = self.exponent
        return {"factors": self.factors[:],
                "q": [[[f.numerator, f.denominator]
                       for f in (Fraction(a, e) for a in row)]
                      for row in self._qnum]}

    @classmethod
    def from_json(cls, obj):
        q = [[Fraction(num, den) for num, den in row] for row in obj["q"]]
        return cls(obj["factors"], q)

    @classmethod
    def trivial(cls):
        return cls([], [])

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


# The two DiscriminantData built last. A gluing's caller has usually just
# computed both forms for the anti-isometry search (walls.mukai_gluing
# does), and glue_overlattice reads them from here rather than run two
# more Smith normal forms.
_recent_data = collections.deque(maxlen=2)


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
    form = FiniteQuadraticForm._from_numerators(factors, num)
    data = DiscriminantData(L, form, gens, V, keep)
    _recent_data.append(data)
    return data


def _data_of(L):
    """discriminant_data(L), reusing one of the last two built if it was
    built for this very object."""
    for data in _recent_data:
        if data.lattice is L:
            return data
    return discriminant_data(L)


def discriminant_form(L):
    return discriminant_data(L).form


# -- exact Gauss sums in Z[zeta_N] ------------------------------------------

def _cyclotomic_poly(n, _cache={}):
    """Coefficient list of the n-th cyclotomic polynomial (exact)."""
    if n in _cache:
        return _cache[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            phi_d = _cyclotomic_poly(d)
            poly = _poly_divide_exact(poly, phi_d)
    _cache[n] = poly
    return poly


def _poly_divide_exact(num, den):
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("inexact polynomial division")
        c //= den[-1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _poly_mod_cyclotomic(coeffs, n):
    """Reduce an exponent-vector of Z[x]/(x^n - 1) modulo Phi_n; [] iff zero."""
    phi = _cyclotomic_poly(n)
    deg = len(phi) - 1
    rem = coeffs[:]
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg + 1):
                rem[i - deg + j] -= c * phi[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _poly_mul_mod_xn(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % n] += ai * bj
    return out


def milgram_signature(form):
    """Signature mod 8 of a finite quadratic form, by exact Gauss sum.

    Computes sum_x exp(pi i q(x)) in a cyclotomic integer ring and matches
    it against sqrt(|A|) zeta_8^s for s = 0..7. No floating point.
    """
    if form.is_trivial():
        return 0
    size = form.order()
    if size > MILGRAM_ORDER_CAP:
        raise ValueError(
            f"group order {size} exceeds the Milgram cap {MILGRAM_ORDER_CAP}; "
            f"the Gauss sum visits every element")
    den = form.exponent
    # squarefree part s of |A| decides which sqrt factors we need
    m, s = 1, size
    d = 2
    while d * d <= s:
        while s % (d * d) == 0:
            s //= d * d
            m *= d
        d += 1
    odd_primes = []
    rest = s if s % 2 else s // 2
    p = 3
    while p * p <= rest:
        if rest % p == 0:
            odd_primes.append(p)
            rest //= p
        else:
            p += 2
    if rest > 1:
        odd_primes.append(rest)
    N = math.lcm(2 * den, 8, *odd_primes)
    # Gauss sum as an exponent vector over zeta_N
    S = [0] * N
    scale = N // (2 * den)
    for v, _ in form._walk():
        S[v * scale] += 1
    # sqrt(|A|) = m * prod sqrt(p) over primes p | s, via quadratic Gauss sums
    root = [0] * N
    root[0] = m
    if s % 2 == 0:
        step = N // 8
        factor = [0] * N
        factor[step] = 1
        factor[-step] = 1  # zeta_8 + zeta_8^-1 = sqrt(2)
        root = _poly_mul_mod_xn(root, factor, N)
    for p in odd_primes:
        g = [0] * N
        for a in range(1, p):
            ls = pow(a, (p - 1) // 2, p)
            g[a * (N // p)] += 1 if ls == 1 else -1
        if p % 4 == 3:  # g = i sqrt(p); divide by i = zeta_8^2
            shift = [0] * N
            shift[-(N // 4)] = 1
            g = _poly_mul_mod_xn(g, shift, N)
        root = _poly_mul_mod_xn(root, g, N)
    for sigma in range(8):
        target = _poly_mul_mod_xn(root, _unit_vector(N, sigma * N // 8), N)
        diff = [a - b for a, b in zip(S, target)]
        if not _poly_mod_cyclotomic(diff, N):
            return sigma
    raise AssertionError("Gauss sum did not match any eighth root of unity")


def _unit_vector(n, k):
    v = [0] * n
    v[k % n] = 1
    return v


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


def _find_generator_images(q1, q2, sign):
    """Images in q2 of q1's generators under a (sign=+1) isometry or
    (sign=-1) anti-isometry; None if none exists, or raises on cap."""
    if q1.factors != q2.factors:
        return None
    if q1.is_trivial():
        return []
    k = q1.length
    e = q1.exponent  # the shared exponent: the factors agree
    qn = q1._qnum
    targets_q = [sign * qn[i][i] % (2 * e) for i in range(k)]
    targets_b = [[sign * qn[i][j] % e for j in range(i)] for i in range(k)]
    by_profile = {}
    for x, (v, o) in zip(q2.elements(), q2._walk()):
        by_profile.setdefault((o, v), []).append(x)
    p = q1.factors[0]
    elementary = all(d == p for d in q1.factors) and _is_prime(p)
    nodes = 0
    chosen = []
    pairings = []  # per chosen y, the row e b(-, y) mod e
    echelon = []  # F_p row echelon of the chosen images, when elementary

    def reduces_to_zero(y):
        row = list(y)
        for piv, base in echelon:
            if row[piv]:
                c = row[piv] * pow(base[piv], -1, p) % p
                row = [(a - c * b) % p for a, b in zip(row, base)]
        return not any(row), row

    def dfs(i):
        nonlocal nodes
        if i == k:
            if elementary:
                return True  # independent images of a basis generate
            return subgroup_order(chosen, q2.factors) == q2.order()
        cands = by_profile.get((q1.factors[i], targets_q[i]), [])
        for y in cands:
            nodes += 1
            if nodes > _SEARCH_NODE_CAP:
                raise RuntimeError("search budget exceeded")
            if not all(sum(map(mul, y, w)) % e == t
                       for w, t in zip(pairings, targets_b[i])):
                continue
            if elementary:
                dependent, reduced = reduces_to_zero(y)
                if dependent:
                    continue
                piv = next(idx for idx, a in enumerate(reduced) if a)
                echelon.append((piv, reduced))
            chosen.append(y)
            pairings.append([sum(map(mul, row, y)) % e for row in q2._qnum])
            if dfs(i + 1):
                return True
            chosen.pop()
            pairings.pop()
            if elementary:
                echelon.pop()
        return False

    try:
        found = dfs(0)
    finally:
        del dfs  # a self-referencing closure: free by_profile now, not at gc
    return [list(y) for y in chosen] if found else None


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def forms_isomorphic(q1, q2):
    """True/False, or None when the search is inconclusive.

    Prefiltered by invariant factors and the multiset of q-values; then a
    generator-image backtracking search. The Milgram signature is no
    filter: the Gauss sum is a function of that multiset.
    """
    if q1.factors != q2.factors:
        return False
    if q1.order() > ISOMORPHISM_ORDER_CAP:
        return None
    if q1.value_multiset() != q2.value_multiset():
        return False
    try:
        images = _find_generator_images(q1, q2, +1)
    except RuntimeError:
        return None
    return images is not None


def find_anti_isometry(q1, q2):
    """A full anti-isometry gamma: q1 -> q2 as generator images, or None."""
    if q1.factors != q2.factors or q1.order() > ISOMORPHISM_ORDER_CAP:
        return None
    try:
        return _find_generator_images(q1, q2, -1)
    except RuntimeError:
        return None


# -- Nikulin criteria ---------------------------------------------------------

@dataclass
class Verdict:
    status: str  # "yes" | "no" | "inconclusive" (or "unique" for uniqueness)
    reason: str = ""
    witness: dict = None

    def __bool__(self):
        return self.status in ("yes", "unique")


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
    signature? Decided through the complement's invariants."""
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
            "complement_factors": q.factors,
            "complement_form": q.to_json(),
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
    # Delta = 1 iff some q value is not integral, i.e. e q(x) = 0 mod e fails
    delta = int(any(v % form.exponent for v, _ in form._walk()))
    return L.rank, L.signature(), form.length, delta


# -- overlattice gluing -------------------------------------------------------

@dataclass
class GlueMap:
    """An anti-isometry between subgroups of two discriminant groups,
    given by generators of the domain and their images."""

    domain: list
    images: list

    @classmethod
    def full(cls, qS, qT):
        """The glue map of a full anti-isometry A_S -> A_T, if one exists."""
        images = find_anti_isometry(qS, qT)
        if images is None:
            return None
        k = qS.length
        return cls([[int(i == j) for j in range(k)] for i in range(k)], images)


@dataclass
class Gluing:
    """An overlattice of S + T with both factors embedded primitively."""

    lattice: Lattice
    s_sub: Lattice
    t_sub: Lattice
    index: int


def glue_overlattice(S, T, glue, name=None):
    """Overlattice of S + T generated by lifts of the glue graph.

    The glue map must be an anti-isometry between subgroups of A_S and
    A_T; lifts use the canonical dual-basis representatives. Returns a
    Gluing with S and T as primitive sublattices of the result.

    Everything is decided on the generators g_k = (d_k, i_k) of the graph
    H in A_S + A_T, never on its elements. The map is well defined iff
    |H| = |pi_S H| (no (0, y) with y != 0 in H) and injective iff
    |H| = |pi_T H|, each order read off one small Hermite normal form
    (subgroup_order). It is an anti-isometry iff q_S + q_T vanishes on H,
    which holds iff it vanishes mod 2 on every g_k and b_S + b_T vanishes
    mod 1 on every pair g_k, g_l: q(x + y) = q(x) + q(y) + 2 b(x, y) and
    q(n x) = n^2 q(x) mod 2. The index of S + T in the result is |H|.
    The discriminant data of S and T are the ones just built for these
    very objects, where there are such (see _data_of).
    """
    dS = _data_of(S)
    dT = _data_of(T)
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
                             f"q_S = {qS.q_value(d)}, q_T = {qT.q_value(i)}")
    for (k, (d, i)), (l, (d2, i2)) in itertools.combinations(
            enumerate(pairs), 2):
        if (qS._b_num(d, d2) * eT + qT._b_num(i, i2) * eS) % (eS * eT):
            raise ValueError(f"glue is not an anti-isometry at generators "
                             f"{k}, {l}: b_S = {qS.b_value(d, d2)}, "
                             f"b_T = {qT.b_value(i, i2)}")
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
