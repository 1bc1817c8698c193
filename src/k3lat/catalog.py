"""The named-lattice catalog.

Root lattices, the hyperbolic plane, the K3^[n] and Mukai lattices, the
24-coordinate Leech model over P^1(Z/23), Niemeier lattices from glue
codes, the holy construction, and the exceptional sublattices of the
Leech lattice. Everything is built from explicit integer coordinates and
validated against its documented invariants; results are cached.

The Leech model, the Niemeier models and the holy frames are each a
`CoordinateModel`: basis rows in an ambient coordinate space and the
lattice they span. Every explicit isometry of the paper's groups (Golay
sign changes, the order-11 and order-23 permutations of P^1(Z/23), the
glue translations of the frames, the copy permutations of N22 and
E8(-1)^3) is one `CoordinateModel.isometry` call, a signed coordinate
permutation mapped onto the basis rows.
"""

import functools
import re

from . import discforms, isometries, linalg
from .gram_data import (DET121_GENUS, NIEMEIER_ROWS, POS_2_5_3_10,
                        RM_1_4_GENERATORS, S_LATTICE_2_5_3_10,
                        S_LATTICE_2_9_3_6, gram_A, gram_D, gram_E)
from .lattice import Lattice

_cache = {}


def _cached(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


def lattice_from_span(rows, scale_sq, name=None):
    """Lattice spanned by integer coordinate rows under -(x.y)/scale_sq.

    Returns (basis, lattice): the HNF-canonical basis rows and the Gram
    they induce, negative definite like every catalog model built here.
    Raises if the form is not integral or not even on the span.
    """
    basis = linalg.hnf(rows)
    gram = []
    for x in basis:
        line = []
        for y in basis:
            d = -linalg.dot(x, y)
            if d % scale_sq:
                raise ValueError("form is not integral on the span")
            line.append(d // scale_sq)
        gram.append(line)
    lat = Lattice(gram, name=name, allow_degenerate=True)
    if not lat.is_even():
        raise ValueError("span is not an even lattice")
    return basis, lat


class CoordinateModel:
    """A lattice on integer basis rows of an ambient coordinate space.

    basis[i] holds the coordinates of the lattice's i-th basis vector.
    The explicit isometries of the catalog are signed permutations of the
    coordinates, mapped onto the basis rows by `isometry`.
    """

    def __init__(self, basis, lattice):
        self.basis = basis
        self.lattice = lattice

    @functools.cached_property
    def solver(self):
        """linalg.rowspace_solver(basis), built on first use."""
        return linalg.rowspace_solver(self.basis)

    def vector(self, coords):
        """Lattice coordinates of the vector with these ambient coordinates."""
        sol = self.solver([list(coords)])
        if sol is None or sol[1] != 1:
            raise ValueError(f"coordinates are not in the "
                             f"{self.lattice.name} lattice")
        return sol[0][0]

    def isometry(self, perm, signs=None):
        """The isometry sending coordinate i to perm[i], times signs[i] if
        given; ValueError if the map does not preserve the lattice."""
        images = []
        for row in self.basis:
            image = [0] * len(row)
            for i, a in enumerate(row):
                image[perm[i]] = a if signs is None else signs[i] * a
            images.append(image)
        sol = self.solver(images)
        if sol is None or sol[1] != 1:
            raise ValueError("ambient map does not preserve the lattice")
        return isometries.Isometry(self.lattice, sol[0])


# -- elementary named lattices ------------------------------------------------

def hyperbolic():
    return Lattice([[0, 1], [1, 0]], name="U")


def root_lattice(kind, n, sign=1):
    if kind == "A":
        G = gram_A(n)
    elif kind == "D":
        G = gram_D(n)
    elif kind == "E":
        G = gram_E(n)
    else:
        raise ValueError(f"unknown root lattice type {kind}")
    name = f"{kind}{n}"
    L = Lattice(G, name=name)
    return L.rescale(sign) if sign != 1 else L


def l_n(n):
    """The rank-23 lattice U^3 + E8(-1)^2 + (2-2n); rank 22 when n = 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    U = hyperbolic()
    E = root_lattice("E", 8, -1)
    L = U + U + U + E + E
    if n == 1:
        L.name = "L_1"
        return L
    L = L + Lattice([[2 - 2 * n]], name=f"({2 - 2 * n})")
    L.name = f"L_{n}"
    return L


def mukai():
    U = hyperbolic()
    E = root_lattice("E", 8, -1)
    L = U + U + U + U + E + E
    L.name = "L_M"
    return L


# -- the 24-coordinate Leech model --------------------------------------------

class LeechModel(CoordinateModel):
    """The Leech lattice on coordinates indexed by P^1(Z/23).

    Coordinates 0..22 are the residues, coordinate 23 is infinity. Basis
    rows are stored at sqrt(8) times their real size, so the form is
    q(x) = -(x.x)/8 and everything stays integral.
    """

    SCALE_SQ = 8

    def __init__(self):
        Q = {0} | {(i * i) % 23 for i in range(1, 23)}
        self.Q = sorted(Q)
        spanning = []
        for t in range(23):
            row = [0] * 24
            for q in Q:
                row[(q + t) % 23] = 2
            spanning.append(row)
        for w in range(24):
            row = [1] * 24
            row[w] = -3
            spanning.append(row)
        for i in range(24):
            for j in range(i + 1, 24):
                for sj in (4, -4):
                    row = [0] * 24
                    row[i] = 4
                    row[j] = sj
                    spanning.append(row)
        super().__init__(*lattice_from_span(spanning, self.SCALE_SQ,
                                            name="Leech"))
        if self.lattice.rank != 24 or self.lattice.det() != 1:
            raise AssertionError("Leech model failed its invariants")
        self._golay = None

    def golay_code(self):
        """All 4096 Golay codewords as 24-bit masks (bit i = coordinate i)."""
        if self._golay is None:
            gens = []
            for t in range(23):
                mask = 0
                for q in self.Q:
                    mask |= 1 << ((q + t) % 23)
                gens.append(mask)
            gens.append((1 << 24) - 1)
            basis = []
            for g in gens:
                for b in basis:
                    g = min(g, g ^ b)
                if g:
                    basis.append(g)
            if len(basis) != 12:
                raise AssertionError("Golay code has wrong dimension")
            words = [0]
            for b in basis:
                words += [w ^ b for w in words]
            self._golay = sorted(words)
            dist = {}
            for w in self._golay:
                dist[w.bit_count()] = dist.get(w.bit_count(), 0) + 1
            if dist != {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}:
                raise AssertionError("Golay weight distribution is wrong")
        return self._golay

    @functools.cached_property
    def code_set(self):
        return set(self.golay_code())

    def codewords_of_weight(self, w):
        return [c for c in self.golay_code() if c.bit_count() == w]

    def permutation_isometry(self, perm):
        """Isometry from a coordinate permutation i -> perm[i]."""
        return self.isometry(perm)

    def sign_change_isometry(self, mask):
        """Isometry negating the coordinates in a Golay codeword mask."""
        if mask not in self.code_set:
            raise ValueError("sign changes must be supported on a codeword")
        return self.isometry(range(24),
                             [-1 if mask >> i & 1 else 1 for i in range(24)])

    def translation_isometry(self):
        """x -> x + 1 on the residue coordinates, fixing infinity; order 23."""
        perm = [(i + 1) % 23 for i in range(23)] + [23]
        return self.permutation_isometry(perm)

    def multiplication_isometry(self, k):
        """x -> k x for a quadratic residue k, fixing 0 and infinity."""
        if k % 23 not in {(i * i) % 23 for i in range(1, 23)}:
            raise ValueError("multiplier must be a nonzero quadratic residue")
        perm = [(k * i) % 23 for i in range(23)] + [23]
        return self.permutation_isometry(perm)


def leech_model():
    return _cached("leech_model", LeechModel)


def leech():
    return leech_model().lattice


# -- Niemeier lattices from glue codes ----------------------------------------

def _generator_words(seed, mode):
    if mode == "single":
        return [list(seed)]
    if mode == "all":
        k = len(seed)
        return [[seed[(i + r) % k] for i in range(k)] for r in range(k)]
    if mode == "tail":
        head, tail = seed[0], seed[1:]
        k = len(tail)
        return [[head] + [tail[(i + r) % k] for i in range(k)]
                for r in range(k)]
    raise ValueError(f"unknown glue mode {mode}")


def glue_code(name):
    """All words of the glue code of a supported Niemeier row."""
    def build():
        n, m, _, seed, mode = NIEMEIER_ROWS[name]
        if seed is None:
            return [tuple([0] * m)]
        return sorted(discforms.subgroup(_generator_words(seed, mode),
                                         [n + 1] * m))
    return _cached(("glue_code", name), build)


def _simple_root_rows(n, m, scale):
    rows = []
    size = n + 1
    for j in range(m):
        for i in range(n):
            row = [0] * (size * m)
            row[j * size + i] = -scale
            row[j * size + i + 1] = scale
            rows.append(row)
    return rows


def niemeier_model(name):
    """The CoordinateModel of a supported Niemeier row.

    For the pure A-type rows it is the hole of the row's holy frame, on
    the frame's coordinates; for N3 = E8^3 the basis is the identity, so
    the coordinates are those of E8(-1)^3 itself.
    """
    def build():
        if name not in NIEMEIER_ROWS:
            raise ValueError(f"unsupported Niemeier name {name}; supported: "
                             + ", ".join(sorted(NIEMEIER_ROWS)))
        if NIEMEIER_ROWS[name][0] == "E8":
            E = root_lattice("E", 8, -1)
            L = E + E + E
            L.name = name
            return CoordinateModel(linalg.identity(24), L)
        frame = holy_construction(name)
        model = CoordinateModel(frame.hole_basis, frame.hole)
        if model.lattice.rank != 24 or model.lattice.det() != 1:
            raise AssertionError(f"{name} failed its invariants")
        return model
    return _cached(("niemeier", name), build)


def niemeier(name):
    """A supported Niemeier lattice (negative definite, rank 24)."""
    return niemeier_model(name).lattice


# -- the holy construction -----------------------------------------------------

class HolyFrame(CoordinateModel):
    """Frame data of the holy construction over a pure A_n^m diagram.

    f-vectors are the extended roots of every copy, h-vectors the glue
    words evaluated on the deep-hole generators g_i; the hole (glue
    coefficients summing to zero) is the Niemeier lattice and the totally
    sum-zero span is the Leech lattice (Conway-Sloane, SPLAG ch. 24).

    The hole is spanned by the f-vectors and the h_w - h_0, the Leech
    lattice by the f - h_0 and the h_w - h_0, with w running over the
    generator words of the glue code only. That is enough: for codewords
    w, w' the cocycle h_{w+w'} - h_w - h_{w'} + h_0 is an integer
    combination of the simple roots f_1, ..., f_n of the copies whose
    coefficients sum to 0 mod n + 1, and (n + 1) h_0 = -sum_i (f_i - h_0)
    over the extended roots f_0, ..., f_n of one copy. So the cocycle
    lies in both spans, and every h_w - h_0 is a sum of the generators'.

    The model's lattice is the Leech lattice, also read as `leech`.
    """

    def __init__(self, name):
        if name not in NIEMEIER_ROWS or NIEMEIER_ROWS[name][0] == "E8":
            raise ValueError(f"holy construction needs a pure A-type row, "
                             f"not {name}")
        n, m, _, seed, mode = NIEMEIER_ROWS[name]
        self.name = name
        self.n, self.m = n, m
        size = n + 1
        scale = 2 * size  # clears the half-integer entries of g_0

        roots = _simple_root_rows(n, m, scale)
        for j in range(m):
            row = [0] * (size * m)
            row[j * size] = scale
            row[j * size + size - 1] = -scale
            roots.append(row)
        g0 = [2 * k - n for k in range(size)]  # g_0 scaled by 2(n+1)/h terms
        h0 = g0 * m
        glue = []
        for w in _generator_words(seed, mode):
            h = []
            for letter in w:
                letter %= size
                h += g0[-letter:] + g0[:-letter]
            glue.append([a - b for a, b in zip(h, h0)])
        diff = [[a - b for a, b in zip(row, h0)] for row in roots]
        super().__init__(*lattice_from_span(diff + glue, scale * scale,
                                            name=f"Leech[{name}]"))
        self.leech = self.lattice
        if self.leech.rank != 24 or self.leech.det() != 1:
            raise AssertionError("holy construction gave a wrong lattice")
        self.hole_basis, self.hole = lattice_from_span(
            roots + glue, scale * scale, name=name)

    @property
    def code(self):
        """Every glue codeword, listed on first read (4 096 for N23)."""
        return glue_code(self.name)

    @functools.cached_property
    def code_set(self):
        return set(self.code)

    def glue_translation(self, word):
        """The isometry induced by a glue-code word: on each A_n copy the
        cyclic rotation of the coordinates by the word's letter there. It
        sends the frame vector h_w to h_{w+t}."""
        size = self.n + 1
        word = tuple(int(a) % size for a in word)
        if word not in self.code_set:
            raise ValueError(f"word {word} is not in the glue code")
        return self.isometry([j * size + (k + t) % size
                              for j, t in enumerate(word)
                              for k in range(size)])

    def words_of_weight(self, w):
        return [c for c in self.code if sum(1 for a in c if a) == w]


def holy_construction(name):
    """The holy frame for a pure A-type Niemeier row."""
    return _cached(("holy", name), lambda: HolyFrame(name))


# -- exceptional lattices -------------------------------------------------------

def _barnes_wall():
    """BW16(-1) by code construction over RM(1,4), at doubled coordinates.

    {x in Z^16 : x mod 2 in RM(1,4), sum(x) = 0 mod 4} with form -(x.x)/2;
    at doubled coordinates X = 2x the form is -(X.X)/8.
    """
    gens = [[2 * c for c in word] for word in RM_1_4_GENERATORS]
    for j in range(1, 16):
        for sj in (4, -4):
            row = [0] * 16
            row[0], row[j] = 4, sj
            gens.append(row)
    row = [0] * 16
    row[0] = 8
    gens.append(row)
    _, L = lattice_from_span(gens, 8, name="BW16(-1)")
    if L.rank != 16 or L.det() != 2 ** 8:
        raise AssertionError("Barnes-Wall model failed its invariants")
    return L


def _d12_plus():
    """D12+(-2): the odd unimodular overlattice of D12, rescaled by -2.

    At doubled coordinates X = 2x the form -2(x.y) becomes -(X.Y)/2.
    """
    rows = []
    for i in range(11):
        row = [0] * 12
        row[i], row[i + 1] = 2, -2
        rows.append(row)
    row = [0] * 12
    row[10] = row[11] = 2  # e_11 + e_12 completes the D12 fork
    rows.append(row)
    rows.append([1] * 12)  # the half-vector (1/2, ..., 1/2), doubled
    _, L = lattice_from_span(rows, 2, name="D12+(-2)")
    if L.rank != 12 or abs(L.det()) != 2 ** 12:
        raise AssertionError("D12+(-2) model failed its invariants")
    return L


def _s3_exo():
    E = root_lattice("E", 8, -1)
    N3 = E + E + E
    N3.name = "N3"
    rows = []
    for i in range(8):
        a = [0] * 24
        a[i] = 1
        a[8 + i] = -1
        rows.append(a)
        b = [0] * 24
        b[8 + i] = 1
        b[16 + i] = -1
        rows.append(b)
    S = N3.sublattice(rows).saturation(name="S_3exo")
    if S.rank != 16:
        raise AssertionError("S_3exo has wrong rank")
    return S


def _coinvariant_of(frame_name, weight, name):
    frame = holy_construction(frame_name)
    words = frame.words_of_weight(weight)
    if not words:
        raise AssertionError(f"no weight-{weight} word in {frame_name}")
    iso = frame.glue_translation(words[0])
    S = isometries.coinvariant_lattice([iso], name=name)
    return S


def _s11_k32():
    model = leech_model()
    iso = model.multiplication_isometry(2)  # order 11 on the residues
    S = isometries.coinvariant_lattice([iso], name="S_11.K3[2]")
    if S.rank != 20 or abs(S.det()) != 121:
        raise AssertionError("order-11 coinvariant failed its invariants")
    return S


_EXCEPTIONAL = {
    "BW16(-1)": _barnes_wall,
    "D12+(-2)": _d12_plus,
    "S_3exo": _s3_exo,
    "2^5 3^10": lambda: Lattice(S_LATTICE_2_5_3_10, name="2^5 3^10"),
    "2^9 3^6": lambda: Lattice(S_LATTICE_2_9_3_6, name="2^9 3^6"),
    "W(-1)": lambda: _coinvariant_of("N22", 9, "W(-1)"),
    "S_11.K3[2]": _s11_k32,
    "S_2.K3": lambda: root_lattice("E", 8, -2),
    "S_3.K3": lambda: _coinvariant_of("N22", 6, "S_3.K3"),
    "S_5.K3": lambda: _coinvariant_of("N20", 4, "S_5.K3"),
    "S_5exo": lambda: _coinvariant_of("N20", 5, "S_5exo"),
    "S_7.K3": lambda: _coinvariant_of("N17", 3, "S_7.K3"),
}


def exceptional(name):
    """A lattice from the exceptional catalog, built by its recipe."""
    if name not in _EXCEPTIONAL:
        raise ValueError(f"unknown exceptional lattice {name}; known: "
                         + ", ".join(sorted(_EXCEPTIONAL)))
    return _cached(("exceptional", name), _EXCEPTIONAL[name])


def s_lattice_2936_in_leech():
    """The 2^9 3^6 S-lattice as a saturated rank-4 sublattice of the model.

    Built on a sextet: three tetrads whose pairwise unions are octads carry
    the printed nine spanning vectors.
    """
    def build():
        model = leech_model()
        octads = model.codewords_of_weight(8)
        T1 = [0, 1, 2, 3]
        t1mask = 0b1111
        containing = [c for c in octads if c & t1mask == t1mask]
        if len(containing) != 5:
            raise AssertionError("tetrad is not in five octads")
        tetrads = [[i for i in range(24) if (c ^ t1mask) >> i & 1]
                   for c in containing]
        T2, T3 = tetrads[0], tetrads[1]

        def vec(parts):
            row = [0] * 24
            for positions, values in parts:
                for p, v in zip(positions, values):
                    row[p] = v
            return row

        four = [4, 0, 0, 0]
        mfour = [-4, 0, 0, 0]
        plus2 = [2, 2, 2, 2]
        minus2 = [-2, -2, -2, -2]
        headp = [2, -2, -2, -2]
        headm = [-2, 2, 2, 2]
        vectors = [
            vec([(T2, mfour), (T3, four)]),
            vec([(T1, four), (T3, mfour)]),
            vec([(T1, mfour), (T2, four)]),
            vec([(T2, plus2), (T3, minus2)]),
            vec([(T1, minus2), (T3, plus2)]),
            vec([(T1, plus2), (T2, minus2)]),
            vec([(T2, headp), (T3, headm)]),
            vec([(T1, headm), (T3, headp)]),
            vec([(T1, headp), (T2, headm)]),
        ]
        basis = linalg.hnf([model.vector(v) for v in vectors])
        S = model.lattice.sublattice(basis).saturation(name="2^9 3^6")
        if S.rank != 4:
            raise AssertionError("printed vectors do not span rank 4")
        return S
    return _cached("s2936_in_leech", build)


def det121_forms():
    """The positive rank-4 determinant-121 genus representatives."""
    return [Lattice(G, name=f"det121#{i}") for i, G in enumerate(DET121_GENUS)]


def pos_2_5_3_10():
    return Lattice(POS_2_5_3_10, name="2^5 3^10(-1)")


# -- the explicit isometry zoo ---------------------------------------------------

def n22_order11_isometry():
    """Order-11 isometry of N22: fix the first A2 copy, rotate the rest."""
    return niemeier_model("N22").isometry(
        [i if i < 3 else 3 * (i // 3 % 11 + 1) + i % 3 for i in range(36)])


def e8_cube_swap_isometry():
    """Swap the first two copies of E8(-1)^3; coinvariant is E8(-2)."""
    return niemeier_model("N3").isometry(
        [(i + 8) % 16 if i < 16 else i for i in range(24)])


def e8_cube_cycle_isometry():
    """Cyclically permute the copies of E8(-1)^3; coinvariant is S_3exo."""
    return niemeier_model("N3").isometry([(i + 8) % 24 for i in range(24)])


# -- name dispatch ---------------------------------------------------------------

_NAME_RE = re.compile(r"^([A-Za-z_0-9^ .\[\]+]+?)(?:\((-?\d+)\))?$")


def named(name):
    """Catalog lookup by name, with an optional (k) rescale suffix.

    Supports U, A<n>, D<n> with n >= 3, E6/E7/E8, L_<n>, K3, L_M/mukai,
    leech, the Niemeier rows N3..N23 and the exceptional catalog.
    """
    raw = name.strip()
    if raw in _EXCEPTIONAL:
        return exceptional(raw)
    m = _NAME_RE.match(raw)
    if not m:
        raise ValueError(f"cannot parse lattice name {name!r}")
    base, scale = m.group(1), int(m.group(2) or 1)

    def scaled(L):
        return L.rescale(scale) if scale != 1 else L

    if base == "U":
        return scaled(hyperbolic())
    if base in ("leech", "Leech"):
        return scaled(leech())
    if base in ("L_M", "LM", "mukai"):
        return scaled(mukai())
    if base == "K3":
        return scaled(l_n(1))
    mm = re.match(r"^L_?(\d+)$", base)
    if mm:
        return scaled(l_n(int(mm.group(1))))
    mm = re.match(r"^([ADE])(\d+)$", base)
    if mm:
        return scaled(root_lattice(mm.group(1), int(mm.group(2))))
    if base in NIEMEIER_ROWS:
        return scaled(niemeier(base))
    if base in _EXCEPTIONAL:
        return scaled(exceptional(base))
    known = (["U", "leech", "L_M", "K3", "A<n>", "D<n>", "E6", "E7", "E8",
              "L_<n>"] + sorted(NIEMEIER_ROWS) + sorted(_EXCEPTIONAL))
    raise ValueError(f"unknown lattice {name!r}; catalog: " + ", ".join(known))
