"""Wall divisors and the prime-order classification driver.

A wall context fixes a Mukai-lattice model with a primitive vector v of
square 2n-2; divisors live in v-perp. The wall predicate evaluates the
two numerical clauses on the saturated rank-2 lattice spanned by v and
the divisor; the search for numerical walls inside a coinvariant lattice
is complete, so an "absent" answer is a proof of absence.
"""

import math
from dataclasses import dataclass, field

from . import catalog, discforms as df, enumeration as en
from . import isometries as iso
from . import linalg, parallel
from .lattice import Lattice, LatticeVector


@dataclass
class WallContext:
    """A Mukai model with a primitive vector of square 2n-2."""

    n: int
    mukai: Lattice
    v: list
    perp: Lattice  # v-perp as a sublattice of mukai (the L_n copy)

    @property
    def v_sq(self):
        return 2 * self.n - 2


def wall_context(n, mukai=None, v=None):
    """Standard context: v = e + (n-1)f in the first hyperbolic plane.

    n = 1 is excluded here: at n = 1 the vector degenerates and walls
    reduce to classes of square -2 (handled by the classification driver).
    """
    if n < 2:
        raise ValueError("wall contexts need n >= 2")
    if mukai is None:
        mukai = catalog.mukai()
    if v is None:
        v = [1, n - 1] + [0] * (mukai.rank - 2)
    vv = linalg.dot(v, v, mukai.gram)
    if vv != 2 * n - 2:
        raise ValueError(f"v has square {vv}, expected {2 * n - 2}")
    if math.gcd(*v) != 1:
        raise ValueError("v must be primitive")
    pairing = linalg.mat_mul(mukai.gram, linalg.transpose([v]))
    perp_rows = linalg.kernel_basis(pairing)
    perp = mukai.sublattice(perp_rows, name=f"L_{n}")
    return WallContext(n=n, mukai=mukai, v=list(v), perp=perp)


@dataclass
class WallReport:
    """Outcome of the wall predicate on one divisor."""

    divisor: list           # coordinates in the ambient Mukai model
    divisor_norm: int
    divisor_divisibility: int
    t_gram: list            # Gram of <v, r> in the normalized basis
    r: list                 # normalized second generator, ambient coords
    v_pairing: int
    r_norm: int
    clause: str             # "root", "norm" or ""
    is_wall: bool

    def to_json(self):
        return {
            "divisor": self.divisor,
            "divisor_norm": self.divisor_norm,
            "divisibility": self.divisor_divisibility,
            "t_gram": self.t_gram,
            "r": self.r,
            "v_pairing": self.v_pairing,
            "r_norm": self.r_norm,
            "clause": self.clause,
            "is_wall": self.is_wall,
        }


def _ambient_coords(ctx, D):
    if isinstance(D, LatticeVector):
        if D.lattice is ctx.perp:
            return linalg.vec_mat(D.coords, ctx.perp.coords)
        if D.lattice is ctx.mukai:
            return list(D.coords)
        if D.lattice.ambient is ctx.mukai:
            return linalg.vec_mat(D.coords, D.lattice.coords)
        raise ValueError("divisor lives in an unrelated lattice")
    return list(D)


def is_wall_divisor(ctx, D):
    """Evaluate the wall clauses on the saturated span of v and D."""
    d = _ambient_coords(ctx, D)
    if not any(d):
        raise ValueError("divisor must be nonzero")
    G = ctx.mukai.gram
    v = ctx.v
    if linalg.row_rank([v, d]) < 2:
        raise ValueError("divisor is proportional to v")
    T = ctx.mukai.sublattice([v, d]).saturation()
    sol = linalg.rowspace_solver(T.coords)([v])
    if sol is None or sol[1] != 1:
        raise AssertionError("v does not lie in its saturated span")
    # v = a T0 + b T1; the HNF of the rows (a, 1, 0), (b, 0, 1) starts
    # with a Bezout row (gcd(a, b), u, w)
    a, b = sol[0][0]
    g, u, w = linalg.hnf([[a, 1, 0], [b, 0, 1]])[0]
    if g != 1:
        raise AssertionError("v is not primitive in its saturated span")
    # complete v to a basis {v, r} of T (another Bezout pair moves r by a
    # multiple of v, which the reduction of s below removes)
    r = [-w * x + u * y for x, y in zip(T.coords[0], T.coords[1])]
    vv = ctx.v_sq
    s = linalg.dot(v, r, G)
    k = s // vv
    r = [x - k * y for x, y in zip(r, v)]
    s -= k * vv
    if 2 * s > vv:
        r = [y - x for x, y in zip(r, v)]
        s = vv - s
    rr = linalg.dot(r, r, G)
    clause = ""
    if rr == -2 and 0 <= 2 * s <= vv:
        clause = "root"
    elif 0 <= rr * vv <= s * s and 4 * s * s < vv * vv:
        clause = "norm"
    Gd = linalg.mat_vec(G, d)
    dn = linalg.dot(d, Gd)
    # divisibility taken inside L_n = v-perp, where the divisor lives
    ddiv = math.gcd(*linalg.mat_vec(ctx.perp.coords, Gd))
    return WallReport(
        divisor=d, divisor_norm=dn, divisor_divisibility=ddiv,
        t_gram=[[vv, s], [s, rr]], r=r, v_pairing=s, r_norm=rr,
        clause=clause, is_wall=bool(clause))


def _divisor_from_r(ctx, r, s, rho):
    """The primitive element t of v-perp in the span of v and r, with its
    norm, given s = (v, r) and rho = r^2; None when r lies in Zv.

    t = (v^2 r - s v)/g with g the gcd of the entries, so in closed form
    t^2 = v^2 (v^2 rho - s^2)/g^2.
    """
    vv = ctx.v_sq
    t = [vv * x - s * y for x, y in zip(r, ctx.v)]
    if not any(t):
        return None
    g = math.gcd(*t)
    return [a // g for a in t], vv * (vv * rho - s * s) // (g * g)


def numerical_wall_in(S, ctx, cap=en.DEFAULT_CAP):
    """Search a negative definite S inside v-perp for a wall divisor.

    Complete: every wall divisor of S corresponds to a vector r in the
    saturation of Zv + S with either r^2 = -2, 0 <= (v,r) <= v^2/2 or the
    norm clause; all such r are enumerated. Their divisors t are ranked
    by (|t^2|, t), with t^2 in closed form, and the full wall predicate
    runs in that order until the first wall, whose WallReport is returned:
    the witness smallest in (|divisor norm|, divisor). None when no
    candidate is a wall.
    """
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
    # the v-pairing as a linear form ell on Mbar: the HNF of the rows
    # (ell_i | e_i) is (gcd(ell), u) with u . ell = gcd(ell), then the rows
    # (0 | K) with K the kernel of ell (= S), its rows an S basis in Mbar
    ell = [linalg.dot(row, v, G) for row in B]
    H = linalg.hnf([[a] + e for a, e in zip(ell, linalg.identity(len(ell)))])
    gell, u = H[0][0], H[0][1:]
    K = [row[1:] for row in H[1:]]
    # the K-Gram and its solver depend on K alone, not on the slice
    KG = linalg.mat_mul(K, Mbar.gram)
    A = linalg.mat_mul(KG, linalg.transpose(K))
    solve = linalg.rowspace_solver(A)
    norms = {}  # divisor t -> t^2; a report depends on t alone

    for s_val in range(0, vv // 2 + 1):
        targets = [-2]
        if 2 * s_val < vv:
            targets += [rho for rho in range(0, s_val * s_val // vv + 1)]
        if s_val % gell:
            continue
        # particular solution x0 in Mbar coordinates with (v, x0) = s_val
        x0 = [a * (s_val // gell) for a in u]
        for rho in targets:
            for r_m in _slice_vectors(Mbar, K, KG, A, solve, x0, s_val, rho,
                                      vv, cap):
                r_amb = linalg.vec_mat(r_m, B)
                found = _divisor_from_r(ctx, r_amb, s_val, rho)
                if found is not None:
                    norms[tuple(found[0])] = found[1]
    for t in sorted(norms, key=lambda t: (abs(norms[t]), t)):
        report = is_wall_divisor(ctx, list(t))
        if report.divisor_norm != norms[t]:
            raise AssertionError("closed-form divisor norm disagrees with "
                                 "the wall predicate")
        if report.is_wall:
            return report
    return None


def _slice_vectors(Mbar, K, KG, A, solve, x0, s_val, rho, vv, cap):
    """All r in Mbar with (v, r) = s_val and r^2 = rho.

    Decomposes r = x0 + z over the kernel lattice K and enumerates the
    shifted sphere exactly, via the index-d refinement J = K + Z tau.
    KG = K Gram(Mbar), A = KG K^T is the K-Gram and solve its solver.
    """
    if not K:
        # zero-dimensional slice: r = x0 alone
        r2 = linalg.dot(x0, x0, Mbar.gram)
        if r2 == rho:
            yield x0
        return
    # x0 = (s/vv) v + tau with tau in the K-span; K is orthogonal to v, so
    # the tau coordinates solve the K-Gram system directly
    bvec = linalg.mat_vec(KG, x0)
    # the K part of r has norm rho - s^2/vv; excess is vv (> 0) times it
    excess = rho * vv - s_val * s_val
    if excess > 0:
        return
    (tau_int,), den = solve([bvec])  # den * tau in K coords
    rows = [[den * int(i == j) for j in range(len(K))] for i in range(len(K))]
    if any(tau_int):
        rows.append(tau_int)
    J = linalg.hnf(rows)  # sublattice of (1/den)K containing K and tau
    LJ = Lattice(linalg.mat_mul(linalg.mat_mul(J, A), linalg.transpose(J)))
    # LJ is scaled by den^2 relative to (1/den)K
    if excess * den * den % vv:
        return
    want = excess * den * den // vv
    candidates = []
    if want == 0:
        candidates.append([0] * len(K))
    else:
        for w in en.short_vectors(LJ, abs(want), cap=cap):
            if w.norm() == want:
                candidates.append(linalg.vec_mat(w.coords, J))
    for cand in candidates:
        # cand = den * w in K coordinates; need w - tau in K, i.e.
        # cand = tau_int mod den
        diff = [a - b for a, b in zip(cand, tau_int)]
        if any(c % den for c in diff):
            continue
        z = [c // den for c in diff]  # integer K coordinates of w - tau
        yield [a + b for a, b in zip(x0, linalg.vec_mat(z, K))]


# -- realizability -------------------------------------------------------------

@dataclass
class RealizabilityVerdict:
    status: str  # "realizable" | "obstructed" | "inconclusive"
    reason: str = ""
    wall: WallReport = None
    leech_pair: dict = None

    def __bool__(self):
        return self.status == "realizable"


def realizability(S, group_or_gens, n, complement=None):
    """Is (S, G) induced by symplectic automorphisms on some K3^[n] model?

    S must be the full coinvariant lattice of G on itself. A Mukai model
    is built by gluing S to an explicit complement; the verdict follows
    the two conditions: negative definiteness and absence of numerical
    wall divisors.
    """
    plus, minus = S.signature() if S.rank else (0, 0)
    if plus or minus != S.rank:
        return RealizabilityVerdict(
            "obstructed", reason="coinvariant lattice is not negative definite")
    pair = iso.leech_pair_check(S, group_or_gens)
    if complement is None:
        return RealizabilityVerdict(
            "inconclusive", reason="no Mukai complement supplied",
            leech_pair=pair)
    glued = mukai_gluing(S, complement)
    verdict = wall_verdict_in_model(glued, n)
    verdict.leech_pair = pair
    return verdict


def mukai_gluing(S, T):
    """Glue S to T along a full anti-isometry into a Mukai-lattice model."""
    if S.rank + T.rank != 24:
        raise ValueError("complement rank must bring the total to 24")
    qS = df.discriminant_form(S)
    qT = df.discriminant_form(T)
    gm = df.GlueMap.full(qS, qT)
    if gm is None:
        raise ValueError("no anti-isometry between the discriminant forms")
    glued = df.glue_overlattice(S, T, gm, name="L_M")
    L = glued.lattice
    if abs(L.det()) != 1 or L.signature() != (4, 20) or not L.is_even():
        raise AssertionError("gluing did not produce a Mukai-lattice model")
    return glued


def _isotropic_pair_vector(T, target):
    """A primitive vector of the given square from a hyperbolic-type block."""
    G = T.gram
    for i in range(T.rank):
        if G[i][i]:
            continue
        for j in range(T.rank):
            if j == i or G[j][j]:
                continue
            c = G[i][j]
            if c and target % (2 * c) == 0:
                v = [0] * T.rank
                v[i] = 1
                v[j] = target // (2 * c)
                return v
    return None


def wall_verdict_in_model(glued, n, all_vectors=False, v_in_T=None,
                          cap=en.DEFAULT_CAP):
    """Wall check for the S factor of a glued Mukai model at level n.

    cap bounds every enumeration of the check (EnumerationCap beyond it).
    """
    T_emb = glued.t_sub
    T_abs = Lattice(T_emb.gram)
    if n == 1:
        if en.has_roots(Lattice(glued.s_sub.gram), cap=cap):
            return RealizabilityVerdict(
                "obstructed", reason="coinvariant contains -2 classes")
        return RealizabilityVerdict("realizable", reason="root-free at n = 1")
    if v_in_T is not None:
        vs = [list(v_in_T)]
    elif T_abs.is_definite():
        first = en.primitive_represents(T_abs, 2 * n - 2, cap=cap)
        if first is None:
            return RealizabilityVerdict(
                "inconclusive",
                reason=f"complement does not represent {2 * n - 2}")
        if all_vectors:
            vecs = en.short_vectors(T_abs, 2 * n - 2, up_to_sign=True,
                                    cap=cap)
            vs = [v.coords for v in vecs
                  if v.norm() == 2 * n - 2 and v.is_primitive()]
        else:
            vs = [first.coords]
    else:
        v = _isotropic_pair_vector(T_abs, 2 * n - 2)
        if v is None:
            return RealizabilityVerdict(
                "inconclusive",
                reason="no explicit Mukai vector found in the complement")
        vs = [v]
    last_wall = None
    for v_t in vs:
        v_amb = linalg.vec_mat(v_t, T_emb.coords)
        ctx = wall_context(n, mukai=glued.lattice, v=v_amb)
        wall = numerical_wall_in(glued.s_sub, ctx, cap=cap)
        if wall is None:
            return RealizabilityVerdict(
                "realizable", reason=f"no numerical wall divisor at n = {n}")
        last_wall = wall
    return RealizabilityVerdict(
        "obstructed", reason="every embedding produces a numerical wall",
        wall=last_wall)


# -- group-level criteria --------------------------------------------------------

def conway_condition(group_or_gens):
    """rk(S_G) <= 20 and rk(T_G) > l(A_T), for a group on the Leech lattice."""
    T = iso.invariant_lattice(group_or_gens)
    S = T.orthogonal_complement()
    # T and S lie in the even Leech lattice, so their forms are defined
    lT = df.discriminant_form(Lattice(T.gram)).length if T.rank else 0
    lS = df.discriminant_form(Lattice(S.gram)).length if S.rank else 0
    ok = S.rank <= 20 and T.rank > lT
    equivalent = S.rank + lS <= 23
    return ok, {"rank_S": S.rank, "rank_T": T.rank, "length_T": lT,
                "length_S": lS, "equivalent_form": equivalent}


def huybrechts_equivalents(M):
    """The four equivalent embedding conditions for a negative definite M.

    Conditions 1 (into the Leech lattice) and 2 (into the Mukai lattice)
    are evaluated through the existence criterion; 3 and 4 are reported
    as equal per the equivalence. Asserts 1 == 2.
    """
    if M.rank > 20:
        raise ValueError("condition set applies to rank at most 20")
    plus, _ = M.signature()
    if plus:
        raise ValueError("M must be negative definite")
    # conditions 1 and 2 both need rk(M) + l(A_M) <= 23
    strict = 24 - M.rank > df.discriminant_form(M).length
    c1 = strict and df.nikulin_embedding_exists(M, (0, 24)).status == "yes"
    c2 = strict and df.nikulin_embedding_exists(M, (4, 20)).status == "yes"
    if c1 != c2:
        raise AssertionError("conditions 1 and 2 must agree")
    return (c1, c2, c1, c1)


def wall_in_s_obstruction(M, n, generators):
    """The coset-generator obstruction: do the stated norm bounds hold?

    Applies only when l(A_M) + rk(M) = 24; returns "inapplicable" then
    True/False for the bound |t_i^2| <= div(t_i)^2 (n+3)/2 on a generator
    family whose classes span the discriminant group.
    """
    form_data = df.discriminant_data(M)
    form = form_data.form
    if form.length + M.rank != 24:
        return "inapplicable"
    classes = [form_data.class_coords(t.coords, t.divisibility())
               for t in generators]
    if df.subgroup_order(classes, form.factors) != form.order():
        raise ValueError("generator classes do not span the discriminant group")
    return all(2 * abs(t.norm()) <= t.divisibility() ** 2 * (n + 3)
               for t in generators)


_gluing_cache = {}


def _cached_gluing(S, T):
    """mukai_gluing(S, T), computed once per (S.name, T.name)."""
    key = (S.name, T.name)
    if key not in _gluing_cache:
        _gluing_cache[key] = mukai_gluing(S, T)
    return _gluing_cache[key]


def _exclusion_model(name):
    """Glued Mukai models for the three excluded lattices."""
    U = catalog.hyperbolic()
    if name == "BW16(-1)":
        S = catalog.exceptional("BW16(-1)")
        T = U.rescale(2) + U.rescale(2) + U.rescale(2) + U.rescale(2)
        T.name = "U(2)^4"
    elif name == "D12+(-2)":
        S = catalog.exceptional("D12+(-2)")
        T = U.rescale(2) + U.rescale(2) + U.rescale(2) + U.rescale(2)
        for _ in range(4):
            T = T + Lattice([[-2]])
        T.name = "U(2)^4+(-2)^4"
    elif name == "S_3exo":
        S = catalog.exceptional("S_3exo")
        T = U.rescale(3) + U.rescale(3) + U.rescale(3) + U.rescale(3)
        T.name = "U(3)^4"
    else:
        raise ValueError(f"no exclusion model for {name}")
    return _cached_gluing(S, T)


def _exclusion_vector(name, n):
    """A primitive v of square 2n-2 in the exclusion complement, in the
    complement's own coordinates, or None when the norm is not taken."""
    target = 2 * n - 2
    if name == "BW16(-1)":
        if target % 4:
            return None  # U(2)^4 only takes norms divisible by 4
        return [1, target // 4] + [0] * 6
    if name == "S_3exo":
        if target % 6:
            return None  # U(3)^4 only takes norms divisible by 6
        return [1, target // 6] + [0] * 6
    if name == "D12+(-2)":
        if target % 4 == 0:
            return [1, target // 4] + [0] * 10
        return [1, (target + 2) // 4] + [0] * 6 + [1, 0, 0, 0]
    raise ValueError(name)


def exclusion_witness(name, n, cap=en.DEFAULT_CAP):
    """A concrete wall witness for an excluded lattice at level n.

    Returns an obstructed verdict with the witness WallReport, or an
    inconclusive one when no primitive embedding into L_n exists at all.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    v_t = _exclusion_vector(name, n)
    if v_t is None:
        return RealizabilityVerdict(
            "inconclusive",
            reason=f"complement of {name} does not represent {2 * n - 2}")
    verdict = wall_verdict_in_model(_exclusion_model(name), n, v_in_T=v_t,
                                    cap=cap)
    if verdict.status != "obstructed":
        raise AssertionError(f"{name} unexpectedly wall-free at n = {n}")
    return verdict


# -- classification ---------------------------------------------------------------

@dataclass
class ClassificationRow:
    prime: int
    lattice: str
    minimal_n: int
    deformation_classes: int = None
    deformation_source: str = ""
    witness: dict = field(default_factory=dict)

    def to_json(self):
        out = {"p": self.prime, "lattice": self.lattice,
               "minimal_n": self.minimal_n, "witness": self.witness}
        if self.deformation_classes is not None:
            out["deformation_classes"] = self.deformation_classes
            out["deformation_source"] = self.deformation_source
        return out


def _k3_route(S, cap=en.DEFAULT_CAP):
    """Definitive test for a root-free primitive embedding into the K3
    lattice (rank 22, signature (3,19))."""
    embeds = df.nikulin_embedding_exists(S, (3, 19))
    if embeds.status != "yes":
        return False, embeds.reason
    if en.has_roots(S, cap=cap):
        return False, "lattice contains -2 vectors"
    return True, "complement exists and the image is root-free"


ROW_SPECS = [  # (p, catalog name of the coinvariant lattice)
    (2, "S_2.K3"),
    (3, "S_3.K3"),
    (3, "W(-1)"),
    (5, "S_5.K3"),
    (5, "S_5exo"),
    (7, "S_7.K3"),
    (11, "S_11.K3[2]"),
]


def _mukai_complements(row_name):
    """Candidate Mukai complements (and the lattice to wall-check)."""
    if row_name == "W(-1)":
        A2 = catalog.root_lattice("A", 2)
        T = A2 + A2.rescale(3)
        T.name = "A2+A2(3)"
        F = catalog.s_lattice_2936_in_leech().orthogonal_complement(name="F")
        return [(Lattice(F.gram, name="F"), T)]
    if row_name == "S_5exo":
        return [(catalog.exceptional("S_5exo"), catalog.pos_2_5_3_10())]
    if row_name == "S_11.K3[2]":
        S = catalog.exceptional("S_11.K3[2]")
        return [(S, T) for T in catalog.det121_forms()]
    raise ValueError(f"no Mukai complement data for {row_name}")


N_MAX = 12  # the highest level the classification searches


def minimal_n(row_name, cap=en.DEFAULT_CAP):
    """The classification row for a catalog coinvariant lattice; cap
    bounds every enumeration on the way."""
    spec = next((row for row in ROW_SPECS if row[1] == row_name), None)
    if spec is None:
        raise ValueError(f"{row_name} is not in the classification catalog; "
                         f"rows: " + ", ".join(r[1] for r in ROW_SPECS))
    p, name = spec
    S = catalog.exceptional(name)
    ok, reason = _k3_route(S, cap=cap)
    if ok:
        row = ClassificationRow(prime=p, lattice=name, minimal_n=1,
                                witness={"route": "K3", "reason": reason})
        _deformation_count(row, S)
        return row
    pairs = _mukai_complements(name)
    for n in range(2, N_MAX + 1):
        embeddings = 0
        witness = None
        for S_row, T in pairs:
            glued = _cached_gluing(S_row, T)
            check_all = (n - 1) % p == 0
            verdict = wall_verdict_in_model(glued, n, all_vectors=check_all,
                                            cap=cap)
            if verdict.status == "realizable":
                embeddings += 1
                if witness is None:
                    witness = {"route": "mukai", "complement": T.name,
                               "n": n, "reason": verdict.reason}
        if embeddings:
            row = ClassificationRow(prime=p, lattice=name, minimal_n=n,
                                    witness=witness)
            _deformation_count(row, S, embeddings=embeddings)
            return row
    raise RuntimeError(f"no embedding found for {row_name} with n <= {N_MAX}")


def _deformation_count(row, S, embeddings=None):
    """Deformation classes from lattice data, where the paper derives them."""
    form = df.discriminant_form(S)
    unique = df.nikulin_unique((3, 20 - S.rank), form.neg())
    if unique.status == "unique":
        row.deformation_classes = 1
        row.deformation_source = "uniqueness criterion"
    elif embeddings is not None and embeddings > 1:
        row.deformation_classes = embeddings
        row.deformation_source = "genus representation count"
    elif row.lattice == "W(-1)":
        row.deformation_classes = 1
        row.deformation_source = "asserted (order-3 deformation argument)"


def large_prime_rejection():
    """Orders 13 and 23 have coinvariant rank above 20, so no rows."""
    frame = catalog.holy_construction("N10")
    word = next(w for w in frame.code if any(w))
    g13 = frame.glue_translation(word)
    rank13 = iso.coinvariant_lattice([g13]).rank
    model = catalog.leech_model()
    rank23 = iso.coinvariant_lattice([model.translation_isometry()]).rank
    return {"13": rank13, "23": rank23,
            "rejected": rank13 > 20 and rank23 > 20}


EXCLUSION_LEVELS = {"BW16(-1)": 3, "S_3exo": 4, "D12+(-2)": 2}


def classification_table(cap=en.DEFAULT_CAP):
    """All seven rows plus the three exclusions and the large-prime check;
    cap bounds every enumeration of the rows and the wall searches.

    The two halves read nothing of each other, so they are the two jobs
    of `parallel.run`: the seven rows run in the calling process while
    one forked child computes the exclusion witnesses and the large-prime
    check and sends back their JSON dicts. With one usable CPU, no
    os.fork, or a child that fails, the caller computes that half itself
    after the rows, as a serial run would, so an error (EnumerationCap
    from a small cap, say) is raised here, from the rows first. The
    caller does not keep the child's `_gluing_cache` entries, so a second
    table glues the exclusion models again, in a child again; and the
    caller's peak RSS (RUSAGE_SELF, perfbench's `peak_rss_mb`) does not
    count the child.
    """
    def seven_rows():
        return [minimal_n(name, cap=cap).to_json() for _, name in ROW_SPECS]

    def exclusions_and_large_primes():
        exclusions = {}
        for name, n in EXCLUSION_LEVELS.items():
            verdict = exclusion_witness(name, n, cap=cap)
            exclusions[name] = {"n": n, "status": verdict.status,
                                "wall": verdict.wall.to_json()}
        return exclusions, large_prime_rejection()

    rows, (exclusions, large) = parallel.run(
        [seven_rows, exclusions_and_large_primes])
    return {"rows": rows, "exclusions": exclusions, "large_primes": large}
