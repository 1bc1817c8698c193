"""Wall divisors and the prime-order classification driver.

A wall context fixes a Mukai-lattice model with a primitive vector v of
square 2n-2; divisors live in v-perp. The wall predicate evaluates the
two numerical clauses on the saturated rank-2 lattice spanned by v and
the divisor; the search for numerical walls inside a coinvariant lattice
is complete, so an "absent" answer is a proof of absence.

The classification glues each lattice of `ROWS` and `EXCLUSIONS` to a
complement T into a Mukai-lattice model, then tests Mukai vectors of
square 2n-2 in T, chosen by `wall_verdict_in_model` alone.
"""

import math
from dataclasses import dataclass, field

from . import catalog, discforms as df, enumeration as en
from . import isometries as iso
from . import linalg, parallel
from .lattice import Lattice


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


def is_wall_divisor(ctx, d):
    """Evaluate the wall clauses on the saturated span of v and the
    divisor d, given by its coordinates in the Mukai model."""
    d = list(d)
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
        report = is_wall_divisor(ctx, t)
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
    found = mukai_gluing(S, complement)
    if not found:
        return RealizabilityVerdict("inconclusive", reason=found.reason,
                                    leech_pair=pair)
    verdict = wall_verdict_in_model(found.witness["gluing"], n)
    verdict.leech_pair = pair
    return verdict


def mukai_gluing(S, T):
    """Glue S to T along a full anti-isometry into a Mukai-lattice model.

    Returns the anti-isometry search's Verdict (GlueMap.full), whose
    witness on "yes" also holds the Gluing under "gluing". Raises
    ValueError when the search proves that no anti-isometry exists.
    """
    if S.rank + T.rank != 24:
        raise ValueError("complement rank must bring the total to 24")
    found = df.GlueMap.full(df.discriminant_form(S), df.discriminant_form(T))
    if found.status == "no":
        raise ValueError(f"no anti-isometry between the discriminant forms: "
                         f"{found.reason}")
    if not found:
        return found
    glued = df.glue_overlattice(S, T, found.witness["glue"], name="L_M")
    L = glued.lattice
    if abs(L.det()) != 1 or L.signature() != (4, 20) or not L.is_even():
        raise AssertionError("gluing did not produce a Mukai-lattice model")
    found.witness["gluing"] = glued
    return found


def _isotropic_pair_vector(T, target):
    """The Mukai vector chosen in an indefinite complement T: a primitive
    vector of square target from a hyperbolic-type pair, or None.

    For isotropic basis vectors e_i, e_j with (e_i, e_j) = c != 0 it is
    e_i + x e_j, of square 2cx. When no x reaches the target, it adds one
    basis vector e_k orthogonal to both, with e_k^2 = d != 0: the vector
    e_i + x e_j + e_k has square 2cx + d.
    """
    G = T.gram
    isotropic = [i for i in range(T.rank) if not G[i][i]]
    for i in isotropic:
        for j in isotropic:
            c = G[i][j]  # 0 for j = i
            if not c:
                continue
            for k in [None] + [k for k in range(T.rank) if G[k][k]
                               and not G[i][k] and not G[j][k]]:
                d = 0 if k is None else G[k][k]
                if (target - d) % (2 * c) == 0:
                    v = [int(m in (i, k)) for m in range(T.rank)]
                    v[j] = (target - d) // (2 * c)
                    return v
    return None


def wall_verdict_in_model(glued, n, all_vectors=False, cap=en.DEFAULT_CAP):
    """Wall check for the S factor of a glued Mukai model at level n.

    The Mukai vector v of square 2n - 2 lies in the complement T: in a
    definite T it is the first primitive vector of that square, or with
    all_vectors every one of them up to sign; in an indefinite T it is
    the one vector `_isotropic_pair_vector` chooses. "realizable" means
    some tested v gives no numerical wall. "obstructed" says that every
    embedding produces a wall only when every primitive v of a definite T
    was tested; otherwise its reason says the one vector tested gives one.
    cap bounds every enumeration of the check (EnumerationCap beyond it).
    """
    T = glued.t_sub
    if n == 1:
        if en.has_roots(glued.s_sub, cap=cap):
            return RealizabilityVerdict(
                "obstructed", reason="coinvariant contains -2 classes")
        return RealizabilityVerdict("realizable", reason="root-free at n = 1")
    reason = "the one Mukai vector tested gives a numerical wall"
    if T.is_definite():
        first = en.primitive_represents(T, 2 * n - 2, cap=cap)
        if first is None:
            return RealizabilityVerdict(
                "inconclusive",
                reason=f"complement does not represent {2 * n - 2}")
        if all_vectors:
            vecs = en.short_vectors(T, 2 * n - 2, up_to_sign=True,
                                    cap=cap)
            vs = [v.coords for v in vecs
                  if v.norm() == 2 * n - 2 and v.is_primitive()]
            reason = "every embedding produces a numerical wall"
        else:
            vs = [first.coords]
    else:
        v = _isotropic_pair_vector(T, 2 * n - 2)
        if v is None:
            return RealizabilityVerdict(
                "inconclusive",
                reason="no explicit Mukai vector found in the complement")
        vs = [v]
    last_wall = None
    for v_t in vs:
        v_amb = linalg.vec_mat(v_t, T.coords)
        ctx = wall_context(n, mukai=glued.lattice, v=v_amb)
        wall = numerical_wall_in(glued.s_sub, ctx, cap=cap)
        if wall is None:
            return RealizabilityVerdict(
                "realizable", reason=f"no numerical wall divisor at n = {n}")
        last_wall = wall
    return RealizabilityVerdict("obstructed", reason=reason, wall=last_wall)


# -- group-level criteria --------------------------------------------------------

def conway_condition(group_or_gens):
    """rk(S_G) <= 20 and rk(T_G) > l(A_T), for a group on the Leech lattice."""
    T = iso.invariant_lattice(group_or_gens)
    S = T.orthogonal_complement()
    # T and S lie in the even Leech lattice, so their forms are defined
    lT = df.discriminant_form(T).length if T.rank else 0
    lS = df.discriminant_form(S).length if S.rank else 0
    ok = S.rank <= 20 and T.rank > lT
    equivalent = S.rank + lS <= 23
    return ok, {"rank_S": S.rank, "rank_T": T.rank, "length_T": lT,
                "length_S": lS, "equivalent_form": equivalent}


def huybrechts_equivalents(M):
    """Conditions 1 and 2 of the four equivalent embedding conditions for
    a negative definite M of rank at most 20, as (c1, c2): M embeds
    primitively into the Leech lattice (c1), and into the Mukai lattice
    (c2).

    Both are decided by the existence criterion, on top of
    rk(M) + l(A_M) <= 23. The equivalence says they agree, so
    AssertionError is raised if they do not. Conditions 3 and 4 are not
    computed.
    """
    if M.rank > 20:
        raise ValueError("condition set applies to rank at most 20")
    plus, _ = M.signature()
    if plus:
        raise ValueError("M must be negative definite")
    # conditions 1 and 2 both need rk(M) + l(A_M) <= 23; M embeds iff a
    # complement of the remaining signature with the form -q_M exists
    q = df.discriminant_form(M).neg()
    strict = 24 - M.rank > q.length
    c1 = strict and df.nikulin_lattice_exists(
        (0, 24 - M.rank), q).status == "yes"
    c2 = strict and df.nikulin_lattice_exists(
        (4, 20 - M.rank), q).status == "yes"
    if c1 != c2:
        raise AssertionError("conditions 1 and 2 must agree")
    return c1, c2


# -- classification ---------------------------------------------------------------

_gluing_cache = {}


def _cached_gluing(S, T):
    """mukai_gluing(S, T), computed once per (S.name, T.name)."""
    key = (S.name, T.name)
    if key not in _gluing_cache:
        found = mukai_gluing(S, T)
        if not found:
            raise AssertionError(f"no Mukai model for {key}: {found.reason}")
        _gluing_cache[key] = found.witness["gluing"]
    return _gluing_cache[key]


# coinvariant lattice -> (p, a function giving its Mukai (S, T) pairs, or
# None where the K3 route decides, the asserted deformation source or "")
ROWS = {
    "S_2.K3": (2, None, ""),
    "S_3.K3": (3, None, ""),
    "W(-1)": (3, lambda: [(
        catalog.s_lattice_2936_in_leech().orthogonal_complement(name="F"),
        catalog.root_lattice("A", 2) + catalog.root_lattice("A", 2, 3))],
        "asserted (order-3 deformation argument)"),
    "S_5.K3": (5, None, ""),
    "S_5exo": (5, lambda: [(catalog.exceptional("S_5exo"),
                            catalog.pos_2_5_3_10())], ""),
    "S_7.K3": (7, None, ""),
    "S_11.K3[2]": (11, lambda: [(catalog.exceptional("S_11.K3[2]"), T)
                                for T in catalog.det121_forms()], ""),
}

# excluded lattice -> (the level n of its wall witness, k and m of its
# complement U(k)^4 + <-2>^m)
EXCLUSIONS = {"BW16(-1)": (3, 2, 0), "S_3exo": (4, 3, 0),
              "D12+(-2)": (2, 2, 4)}


def _exclusion_model(name):
    """The glued Mukai model of an excluded lattice, whose complement is
    U(k)^4 + <-2>^m."""
    if name not in EXCLUSIONS:
        raise ValueError(f"no exclusion model for {name}")
    _, k, m = EXCLUSIONS[name]
    U = catalog.hyperbolic().rescale(k)
    T = sum([Lattice([[-2]])] * m, U + U + U + U)
    T.name = f"U({k})^4" + (f"+(-2)^{m}" if m else "")
    return _cached_gluing(catalog.exceptional(name), T)


def exclusion_witness(name, n, cap=en.DEFAULT_CAP):
    """The wall verdict of an excluded lattice at level n, in its model.

    The Mukai vector is the one `_isotropic_pair_vector` chooses in the
    complement U(k)^4 + <-2>^m, so an obstructed verdict carries the
    witness WallReport and says that one vector was tested. Inconclusive
    when the complement holds no such vector of square 2n - 2.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    verdict = wall_verdict_in_model(_exclusion_model(name), n, cap=cap)
    if verdict.status == "realizable":
        raise AssertionError(f"{name} unexpectedly wall-free at n = {n}")
    return verdict


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


N_MAX = 12  # the highest level the classification searches


def minimal_n(row_name, cap=en.DEFAULT_CAP):
    """The classification row for a catalog coinvariant lattice; cap
    bounds every enumeration on the way."""
    if row_name not in ROWS:
        raise ValueError(f"{row_name} is not in the classification catalog; "
                         f"rows: " + ", ".join(ROWS))
    p, mukai_pairs, asserted = ROWS[row_name]
    S = catalog.exceptional(row_name)
    ok, reason = _k3_route(S, cap=cap)
    if ok:
        row = ClassificationRow(prime=p, lattice=row_name, minimal_n=1,
                                witness={"route": "K3", "reason": reason})
        _deformation_count(row, S, asserted)
        return row
    if mukai_pairs is None:
        raise AssertionError(f"K3 route fails on {row_name}: {reason}")
    pairs = mukai_pairs()
    for n in range(2, N_MAX + 1):
        embeddings = 0
        witness = None
        for S_row, T in pairs:
            glued = _cached_gluing(S_row, T)
            verdict = wall_verdict_in_model(
                glued, n, all_vectors=(n - 1) % p == 0, cap=cap)
            if verdict.status == "realizable":
                embeddings += 1
                if witness is None:
                    witness = {"route": "mukai", "complement": T.name,
                               "n": n, "reason": verdict.reason}
        if embeddings:
            row = ClassificationRow(prime=p, lattice=row_name, minimal_n=n,
                                    witness=witness)
            _deformation_count(row, S, asserted, embeddings=embeddings)
            return row
    raise RuntimeError(f"no embedding found for {row_name} with n <= {N_MAX}")


def _deformation_count(row, S, asserted, embeddings=None):
    """Deformation classes from lattice data where the paper derives
    them, else one class under the row's asserted source, if any."""
    form = df.discriminant_form(S)
    unique = df.nikulin_unique((3, 20 - S.rank), form.neg())
    if unique.status == "unique":
        row.deformation_classes = 1
        row.deformation_source = "uniqueness criterion"
    elif embeddings is not None and embeddings > 1:
        row.deformation_classes = embeddings
        row.deformation_source = "genus representation count"
    elif asserted:
        row.deformation_classes = 1
        row.deformation_source = asserted


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


def classification_table(cap=en.DEFAULT_CAP):
    """The seven `ROWS` plus the three `EXCLUSIONS` at their levels and
    the large-prime check; cap bounds every enumeration of the rows and
    the wall searches.

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
        return [minimal_n(name, cap=cap).to_json() for name in ROWS]

    def exclusions_and_large_primes():
        exclusions = {}
        for name, (n, _, _) in EXCLUSIONS.items():
            verdict = exclusion_witness(name, n, cap=cap)
            exclusions[name] = {"n": n, "status": verdict.status,
                                "wall": verdict.wall.to_json()}
        return exclusions, large_prime_rejection()

    rows, (exclusions, large) = parallel.run(
        [seven_rows, exclusions_and_large_primes])
    return {"rows": rows, "exclusions": exclusions, "large_primes": large}
