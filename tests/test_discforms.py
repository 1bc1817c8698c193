import json
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3lat import catalog, discforms as df
from k3lat import isometries as iso
from k3lat import linalg, walls
from k3lat.gram_data import A2, E8, S_LATTICE_2_9_3_6, U, gram_D
from k3lat.lattice import Lattice

import glue_reference
import milgram_reference
import search_reference


def L(gram, k=1, name=None):
    base = Lattice(gram, name=name)
    return base.rescale(k) if k != 1 else base


def _form(obj):
    """The form that FiniteQuadraticForm.to_json wrote as obj: each
    [num, den] pair becomes the numerator of e q over the exponent e."""
    e = obj["factors"][-1] if obj["factors"] else 1
    return df.FiniteQuadraticForm(
        obj["factors"], [[num * e // den for num, den in row]
                         for row in obj["q"]])


def _q(form, x):
    """q(x) as a Fraction in [0, 2)."""
    return Fraction(form._q_num(x), form.exponent)


def _b(form, x, y):
    """b(x, y) as a Fraction in [0, 1)."""
    return Fraction(form._b_num(x, y), form.exponent)


def _assert_well_defined(form):
    """q is well defined on the invariant factors: d_i b(g_i, g_j) = 0
    mod 1 and q(d_i g_i) = d_i^2 q(g_i) = 0 mod 2."""
    e = form.exponent
    for i, (d, row) in enumerate(zip(form.factors, form._qnum)):
        assert all(d * a % e == 0 for a in row)
        assert d * d * row[i] % (2 * e) == 0


def test_unimodular_trivial_group():
    for lat in (L(U), Lattice([])):
        q = df.discriminant_form(lat)
        assert q.is_trivial() and q.order() == 1 and q.exponent == 1


def test_minus_two_form():
    q = df.discriminant_form(Lattice([[-2]]))
    assert q.factors == [2]
    assert _q(q, (1,)) == Fraction(3, 2)
    # a negative numerator is stored reduced mod 2e, and neg negates it
    q = df.FiniteQuadraticForm([4], [[-1]])
    assert q.exponent == 4 and _q(q, (1,)) == Fraction(7, 4)
    assert _q(q.neg(), (1,)) == Fraction(1, 4)


def test_e8_minus_two_form():
    q = df.discriminant_form(L(E8, -2))
    assert q.factors == [2] * 8


def test_odd_lattice_rejected():
    with pytest.raises(ValueError):
        df.discriminant_form(Lattice([[1]]))


def test_q_values_well_defined_on_factors():
    q = df.discriminant_form(L(A2, -1))
    assert q.factors == [3]
    g = (1,)
    assert _q(q, (0,)) == 0
    # q(d * g) = 0 in Q/2Z
    tripled = tuple(3 * a % 3 for a in g)
    assert _q(q, tripled) == 0


def test_milgram_trivial():
    assert df.milgram_signature(df.FiniteQuadraticForm([], [])) == 0


def test_milgram_minus_two():
    q = df.discriminant_form(Lattice([[-2]]))
    assert df.milgram_signature(q) == 7


def test_milgram_plus_two():
    q = df.discriminant_form(Lattice([[2]]))
    assert df.milgram_signature(q) == 1


def test_milgram_e8_minus_2():
    q = df.discriminant_form(L(E8, -2))
    assert df.milgram_signature(q) == 0


def test_milgram_matches_lattice_signature():
    cases = [
        Lattice([[-2]]),
        Lattice([[4]]),
        Lattice([[-6]]),
        L(A2),
        L(A2, -1),
        L(A2, 3),
        L(U, 2),
        L(U, 3),
        L(E8, -2),
        L(E8, 3),
        L(A2) + Lattice([[-4]]),
    ]
    for lat in cases:
        if not lat.is_even():
            continue
        plus, minus = lat.signature()
        q = df.discriminant_form(lat)
        assert df.milgram_signature(q) == (plus - minus) % 8, lat


def test_milgram_cap():
    # <2>^21 is 21 orthogonal blocks of order 2, each far below the cap
    q = df.FiniteQuadraticForm([2] * 21, [[int(i == j) for j in range(21)]
                                          for i in range(21)])
    assert df.milgram_signature(q) == 21 % 8
    # one connected block of order 2^21: q(g_i) = b(g_i, g_i+1) = 1/2 is
    # nondegenerate, as the tridiagonal F_2 determinant is 1 for 21 = 0 mod 3
    q = df.FiniteQuadraticForm([2] * 21, [[int(abs(i - j) <= 1)
                                           for j in range(21)]
                                          for i in range(21)])
    with pytest.raises(ValueError, match="Milgram cap 1000000"):
        df.milgram_signature(q)


def _pinned_forms():
    golden = json.loads(pathlib.Path(__file__)
                        .with_name("discriminant_forms.json").read_text())
    return [pytest.param(obj, id=name) for name, obj in golden.items()]


@pytest.mark.parametrize("obj", _pinned_forms())
def test_milgram_matches_the_frozen_gauss_sum_on_pinned_forms(obj):
    q = _form(obj)
    for form in (q, q.neg()):
        assert df.milgram_signature(form) == \
            milgram_reference.milgram_signature(form)


def test_forms_isomorphic_reflexive():
    q = df.discriminant_form(L(A2, -1))
    assert df.forms_isomorphic(q, q) is True


def test_forms_not_isomorphic_by_milgram():
    q1 = df.discriminant_form(Lattice([[2]]))   # q = 1/2 on Z/2
    q2 = df.discriminant_form(Lattice([[-2]]))  # q = 3/2 on Z/2
    assert df.forms_isomorphic(q1, q2) is False


def test_forms_isomorphic_sign_symmetry():
    qA = df.discriminant_form(L(A2))
    qAm = df.discriminant_form(L(A2, -1))
    assert df.forms_isomorphic(qA, qAm.neg()) is True


def test_anti_isometry_found():
    qA = df.discriminant_form(L(A2))
    qAm = df.discriminant_form(L(A2, -1))
    found = df.find_anti_isometry(qA, qAm)
    assert found.status == "yes"
    images = found.witness["images"]
    # verify: q flips sign on every subgroup element
    for c in range(3):
        x = (c,)
        y = tuple(c * i % 3 for i in images[0])
        assert (_q(qA, x) + _q(qAm, y)) % 2 == 0


def test_nikulin_lattice_exists_cases():
    # signature (0,1), Milgram 1 form: congruence fails
    q_plus = df.discriminant_form(Lattice([[2]]))
    assert df.nikulin_lattice_exists((0, 1), q_plus).status == "no"
    # rank below length: no, A_L is a quotient of Z^rank
    q_222 = df.FiniteQuadraticForm([2, 2, 2], [[0] * 3] * 3)
    assert df.nikulin_lattice_exists((1, 0), q_222).status == "no"
    # honest case
    q = df.discriminant_form(Lattice([[-2]]))
    assert df.nikulin_lattice_exists((1, 2), q).status == "yes"


def test_nikulin_embedding_exists():
    # E8(-2) into signature (4,20): complement (4,12), rank 16 >= length 8
    v = df.nikulin_embedding_exists(L(E8, -2), (4, 20))
    assert v.status == "yes"
    assert v.witness["complement_signature"] == (4, 12)
    # rank obstruction
    neg24 = L(E8, -1) + L(E8, -1) + L(E8, -1)
    assert df.nikulin_embedding_exists(neg24, (3, 20)).status == "no"


def test_nikulin_unique():
    q_len1 = df.discriminant_form(Lattice([[-2]]))
    assert df.nikulin_unique((3, 20), q_len1).status == "unique"
    q_e82 = df.discriminant_form(L(E8, -2))
    assert df.nikulin_unique((0, 8), q_e82).status == "inconclusive"
    assert df.nikulin_unique((1, 1), q_len1).status == "inconclusive"


def test_two_modular_invariants():
    # the values on U(2) and E8(-2) are checked by the acceptance battery
    with pytest.raises(ValueError):
        df.two_modular_invariants(L(A2, -1))


def _u4_minus_2_8():
    lat = catalog.hyperbolic()
    for _ in range(3):
        lat = lat + catalog.hyperbolic()
    for _ in range(8):
        lat = lat + Lattice([[-2]])
    return lat


@pytest.mark.parametrize("lat, delta", [
    (lambda: catalog.named("U(2)"), 0), (lambda: catalog.named("E8(-2)"), 0),
    (lambda: catalog.named("BW16(-1)"), 0), (lambda: Lattice([[-2]]), 1),
    (lambda: catalog.named("D12+(-2)"), 1), (_u4_minus_2_8, 1)],
    ids=["U(2)", "E8(-2)", "BW16(-1)", "<-2>", "D12+(-2)", "U^4+<-2>^8"])
def test_two_modular_delta_matches_the_group_walk(lat, delta):
    lat = lat()
    form = df.discriminant_form(lat)
    walked = int(any(v % form.exponent for v, _ in form._walk()))
    assert walked == delta
    assert df.two_modular_invariants(lat)[3] == delta


def _glue(S, T, glue):
    """df.glue_overlattice on the discriminant data of S and T, the ones
    whose generators the rows of glue are written in."""
    return df.glue_overlattice(df.discriminant_data(S),
                               df.discriminant_data(T), glue)


def test_glue_rank_two_unimodular():
    S = Lattice([[-2]], name="(-2)")
    T = Lattice([[2]], name="(2)")
    glue = df.GlueMap([[1]], [[1]])
    g = _glue(S, T, glue)
    Lg = g.lattice
    assert Lg.rank == 2 and Lg.det() == -1 and Lg.is_even()
    assert Lg.signature() == (1, 1)
    assert g.index == 2


def test_glue_e8_pair():
    S = L(E8, -2)
    T = L(E8, 2)
    found = df.glue_full(S, T)
    assert found.status == "yes"
    g = found.witness["gluing"]
    assert g.lattice.rank == 16
    assert abs(g.lattice.det()) == 1
    assert g.lattice.signature() == (8, 8)
    assert g.lattice.is_even()


def test_glue_determinant_index_relation():
    S = Lattice([[-4]])
    T = Lattice([[4]])
    glue = df.GlueMap([[2]], [[2]])  # subgroup of order 2 inside Z/4
    g = _glue(S, T, glue)
    assert abs(g.lattice.det()) == abs(S.det() * T.det()) // g.index ** 2
    # factors stay primitive: their saturations are themselves
    assert g.s_sub.saturation().coords == g.s_sub.coords
    assert g.t_sub.saturation().coords == g.t_sub.coords


def _element_order(form, x):
    """The order of x in the form's group, lcm of d / gcd(x_i, d) over its
    nonzero coordinates: a reference independent of the group walk."""
    o = 1
    for xi, d in zip(x, form.factors):
        if xi:
            o = math.lcm(o, d // math.gcd(xi, d))
    return o


def test_glue_across_exponents():
    # A_S = Z/2 (q = 3/2) glued into A_T = Z/2 + Z/4 (exponent 4) along an
    # element of order 2 with q = 1/2
    S = Lattice([[-2]])
    T = Lattice([[2]]) + Lattice([[4]])
    qT = df.discriminant_form(T)
    y = next(y for y in qT.elements()
             if _element_order(qT, y) == 2 and _q(qT, y) == Fraction(1, 2))
    g = _glue(S, T, df.GlueMap([[1]], [list(y)]))
    assert g.index == 2 and g.lattice.rank == 3 and g.lattice.is_even()
    assert abs(g.lattice.det()) == abs(S.det() * T.det()) // 4


def test_glue_rejects_non_anti_isometry():
    S = Lattice([[-2]])
    T = Lattice([[4]])  # q = 1/4 on Z/4: subgroup gen 2 has q(2) = 1
    with pytest.raises(ValueError, match="anti-isometry|well defined"):
        _glue(S, T, df.GlueMap([[1]], [[2]]))


def test_glue_rejects_a_map_that_is_not_well_defined():
    # 1 in A_S = Z/2 to 1 in A_T = Z/4: the graph holds 2 (1, 1) = (0, 2)
    S, T, glue = Lattice([[-2]]), Lattice([[4]]), df.GlueMap([[1]], [[1]])
    with pytest.raises(ValueError, match="not well defined"):
        glue_reference.glue_overlattice(S, T, glue)
    with pytest.raises(ValueError, match="not well defined"):
        _glue(S, T, glue)


def test_glue_rejects_a_map_that_is_not_injective():
    # the isotropic first generator of A_U(2) = (Z/2)^2 goes to 0 in A_T
    S, T = catalog.named("U(2)"), Lattice([[2]])
    glue = df.GlueMap([[1, 0]], [[0]])
    with pytest.raises(ValueError, match="not injective"):
        glue_reference.glue_overlattice(S, T, glue)
    with pytest.raises(ValueError, match="not injective"):
        _glue(S, T, glue)


_GLUE_PIECES = ["A2", "A4", "D4", "E6", "U(2)", "U(3)", "A2(-1)", "A4(-1)",
                "D4(-1)", "E6(-1)", 2, -2, 4, -4]  # an int k is <k>
_GLUE_LEADS = ("glue map is not well defined", "glue is not an anti-isometry",
               "glue map is not injective")


def _glue_piece(name):
    return Lattice([[name]]) if isinstance(name, int) else catalog.named(name)


@st.composite
def glue_cases(draw):
    """(S, T, glue) from direct sums of small catalog lattices with
    |A_S|, |A_T| <= 256. The domain is all of A_S or one or two drawn
    elements, isotropic ones among them, with entries in [-f, 2f). Each
    image is a drawn element of A_T, one with the opposite q, or 0, or the
    map is a full anti-isometry, so that maps pass and fail every check."""
    lats = []
    for _ in range(2):
        names = draw(st.lists(st.sampled_from(_GLUE_PIECES), min_size=1,
                              max_size=3))
        lat = _glue_piece(names[0])
        for name in names[1:]:
            lat = lat + _glue_piece(name)
        lats.append(lat)
    S, T = lats
    if draw(st.booleans()):  # a T with a full anti-isometry from A_S
        T = S.rescale(-1)
    qS, qT = df.discriminant_form(S), df.discriminant_form(T)
    assume(qS.order() <= 256 and qT.order() <= 256)
    assume(not qS.is_trivial() and not qT.is_trivial())
    k = qS.length
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    if draw(st.booleans()):
        full = df.find_anti_isometry(qS, qT)
        if full:
            return S, T, df.GlueMap(identity, full.witness["images"])
    if draw(st.booleans()):
        domain = identity
    else:
        sources = list(qS.elements())
        isotropic = [x for x in sources
                     if any(x) and _q(qS, x) == 0] or sources
        domain = []
        for _ in range(draw(st.integers(1, 2))):
            pool = draw(st.sampled_from([sources, isotropic]))
            x = draw(st.sampled_from(pool))
            domain.append([a + f * draw(st.integers(-1, 1))
                           for a, f in zip(x, qS.factors)])
    targets = list(qT.elements())
    images = []
    for d in domain:
        matching = [y for y in targets
                    if (_q(qT, y) + _q(qS, d)) % 2 == 0]
        pool = draw(st.sampled_from([targets, matching or targets,
                                     targets[:1]]))
        images.append(list(draw(st.sampled_from(pool))))
    return S, T, df.GlueMap(domain, images)


def _glue_outcome(glue_overlattice, S, T, glue):
    try:
        return glue_overlattice(S, T, glue)
    except ValueError as exc:
        return next(lead for lead in _GLUE_LEADS if str(exc).startswith(lead))


@settings(max_examples=150, deadline=None)
@given(glue_cases())
def test_generator_checks_match_element_checks(case):
    ref = _glue_outcome(glue_reference.glue_overlattice, *case)
    new = _glue_outcome(_glue, *case)
    if isinstance(ref, str):
        assert new == ref
    else:
        assert not isinstance(new, str)
        assert new.index == ref.index
        assert new.lattice.gram == ref.lattice.gram


_DEFINITE_PIECES = ["A2", "A4", "D4", "E6", "E8", "A2(2)", "A2(3)", "D4(2)",
                    2, 4, 6]


@st.composite
def definite_even_lattices(draw):
    """Even definite direct sums of up to three small catalog lattices,
    of either sign, under a drawn base change, with |A_S| <= 256."""
    names = draw(st.lists(st.sampled_from(_DEFINITE_PIECES), min_size=1,
                          max_size=3))
    lat = _glue_piece(names[0])
    for name in names[1:]:
        lat = lat + _glue_piece(name)
    assume(abs(lat.det()) <= 256)
    gram = draw(base_changes(lat.gram))
    return Lattice(gram).rescale(draw(st.sampled_from([1, -1])))


@settings(max_examples=80, deadline=None)
@given(definite_even_lattices())
def test_glue_full_with_the_rescaled_lattice(S):
    # -q_S is the form of S(-1), so a full anti-isometry exists
    T = S.rescale(-1)
    found = df.glue_full(S, T)
    assert found.status != "no"
    if found.status == "yes":
        g = found.witness["gluing"]
        assert g.lattice.is_even() and abs(g.lattice.det()) == 1
        sp, sm = S.signature()
        tp, tm = T.signature()
        assert g.lattice.signature() == (sp + tp, sm + tm)
        assert g.index == abs(S.det())
        assert g.s_sub.gram == S.gram and g.t_sub.gram == T.gram


@st.composite
def generated_subgroups(draw):
    """Random generators, negative entries included, on divisibility
    chains whose product is at most 500."""
    factors = [draw(st.integers(2, 12))]
    for _ in range(draw(st.integers(0, 3))):
        factors.append(factors[-1] * draw(st.integers(1, 4)))
    assume(math.prod(factors) <= 500)
    gens = draw(st.lists(st.lists(st.integers(-30, 30), min_size=len(factors),
                                  max_size=len(factors)), max_size=4))
    return gens, factors


@settings(max_examples=200, deadline=None)
@given(generated_subgroups())
def test_subgroup_order_counts_the_subgroup(case):
    gens, factors = case
    assert df.subgroup_order(gens, factors) == len(df.subgroup(gens, factors))


def test_subgroup_order_of_the_trivial_group():
    assert df.subgroup_order([], []) == 1
    assert df.subgroup_order([[]], []) == 1
    assert df.subgroup_order([], [3, 3]) == 1


@pytest.mark.parametrize("domain, images", [([[1, 0]], [[1]]),
                                            ([[1]], [[1, 5]]), ([[1]], [])])
def test_glue_rejects_rows_of_the_wrong_length(domain, images):
    S, T = Lattice([[-2]]), Lattice([[2]])
    with pytest.raises(ValueError, match="do not match"):
        _glue(S, T, df.GlueMap(domain, images))


def test_embedding_milgram_consistency():
    # yes-verdicts come with a Milgram-consistent complement
    for lat in [L(E8, -2), L(A2, -1), Lattice([[-4]])]:
        v = df.nikulin_embedding_exists(lat, (4, 20))
        if v.status != "yes":
            continue
        mp, mm = v.witness["complement_signature"]
        q = v.witness["complement_form"]
        assert df.milgram_signature(q) == (mp - mm) % 8


def _unimodular(n, seed):
    """Product of 3n random elementary row operations row_i += +-row_j."""
    rng = random.Random(seed)
    P = linalg.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice([-1, 1])
        P[i] = [a + sign * b for a, b in zip(P[i], P[j])]
    return P


def _base_changed_forms(name, seed):
    """The forms of a catalog lattice and of its base change by seed."""
    L0 = catalog.named(name)
    P = _unimodular(L0.rank, seed)
    M = Lattice(linalg.mat_mul(linalg.mat_mul(P, L0.gram), linalg.transpose(P)))
    return df.discriminant_form(L0), df.discriminant_form(M)


# Seeds whose isomorphism search ends within the node budget. On others
# (D12+(-2) under seeds 4 and 6) it runs out, and the answer is
# inconclusive: see test_spent_search_budget_is_inconclusive.
BASE_CHANGES = [("D12+(-2)", 1), ("D12+(-2)", 2),
                ("BW16(-1)", 1), ("BW16(-1)", 2), ("BW16(-1)", 3)]


@pytest.mark.parametrize("name, seed", BASE_CHANGES)
def test_discriminant_form_invariant_under_base_change(name, seed):
    q0, q = _base_changed_forms(name, seed)
    assert q.factors == q0.factors
    assert df.forms_isomorphic(q, q0) is True


def test_spent_search_budget_is_inconclusive():
    q0, q = _base_changed_forms("D12+(-2)", 6)
    found = df.find_anti_isometry(q, q0.neg())
    assert found.status == "inconclusive" and "500000" in found.reason
    assert found.witness == {"nodes": df._SEARCH_NODE_CAP + 1}
    assert df.forms_isomorphic(q, q0) is None


def test_order_cap_is_inconclusive():
    # <2>^14: a group of order 16 384, past ISOMORPHISM_ORDER_CAP
    q = df.discriminant_form(Lattice([[2 * (i == j) for j in range(14)]
                                      for i in range(14)]))
    assert q.order() == 16384
    found = df.find_anti_isometry(q, q.neg())
    assert found.status == "inconclusive"
    assert "ISOMORPHISM_ORDER_CAP" in found.reason


def test_anti_isometry_refused_by_counts():
    # delta 0 against delta 1: -q of S_2.K3 takes only integral values on
    # elements of order 2, q of U^4 + <-2>^8 does not
    S, T = catalog.exceptional("S_2.K3"), _u4_minus_2_8()
    qS, qT = df.discriminant_form(S), df.discriminant_form(T)
    start = time.perf_counter()
    found = df.find_anti_isometry(qS, qT)
    assert time.perf_counter() - start < 0.1
    assert found.status == "no" and found.witness == {"nodes": 0}
    assert "counts" in found.reason
    with pytest.raises(ValueError, match="no anti-isometry"):
        walls.mukai_gluing(S, T)


def _table_pair(name, i, monkeypatch):
    """(S, T) of a Mukai gluing of the classification table: complement i
    of a row, or the exclusion model of name when i is None."""
    if i is not None:
        return walls.ROWS[name][1]()[i]
    pairs = []
    monkeypatch.setattr(walls, "_glue",
                        lambda S, T: pairs.append((S, T)))
    walls._exclusion_model(name)
    return pairs[0]


def _searches(kind, case, monkeypatch):
    """(the frozen search's answer, the engine's Verdict) of one case."""
    if kind == "table":
        qS, qT = (df.discriminant_form(X)
                  for X in _table_pair(*case, monkeypatch))
        return (search_reference.find_generator_images(qS, qT, -1),
                df.find_anti_isometry(qS, qT))
    if kind == "base-change":
        name, seed, sign = case
        q0, q = _base_changed_forms(name, seed)
        return (search_reference.find_generator_images(q, q0, sign),
                df.find_anti_isometry(q, q0.neg() if sign > 0 else q0))
    L1, L2 = case()
    return search_reference.find_isometry(L1, L2), iso.find_isometry(L1, L2)


SEARCH_CASES = (
    [pytest.param("table", (name, None), id=name)
     for name in ("BW16(-1)", "D12+(-2)", "S_3exo")]
    + [pytest.param("table", ("W(-1)", 0), id="W(-1)"),
       pytest.param("table", ("S_5exo", 0), id="S_5exo")]
    + [pytest.param("table", ("S_11.K3[2]", i), id=f"S_11.K3[2]-{i}")
       for i in range(3)]
    + [pytest.param("base-change", (name, seed, sign),
                    id=f"{name}-seed{seed}-{'anti' if sign < 0 else 'iso'}")
       for name, seed in BASE_CHANGES for sign in (1, -1)]
    + [pytest.param("lattices", lambda: (
            Lattice(iso.coinvariant_lattice(
                [catalog.e8_cube_swap_isometry()]).gram),
            Lattice(E8).rescale(-2)), id="S8-E8(-2)"),
       pytest.param("lattices", lambda: (
            Lattice(catalog.s_lattice_2936_in_leech().gram),
            Lattice(S_LATTICE_2_9_3_6)), id="2936"),
       pytest.param("lattices", lambda: (Lattice([[2]]), Lattice([[4]])),
                    id="det-2-4"),
       pytest.param("lattices", lambda: (Lattice([[8, 0], [0, 8]]),
                                         Lattice([[8, 4], [4, 10]])),
                    id="det-64")])


@pytest.mark.parametrize("kind, case", SEARCH_CASES)
def test_searches_match_their_frozen_copies(kind, case, monkeypatch):
    # same answer, same images and same node count: the engine tries the
    # candidates in the same order
    (status, images, nodes), found = _searches(kind, case, monkeypatch)
    assert found.status == status
    assert found.witness["nodes"] == nodes
    assert found.witness.get("images") == images


def test_subgroup():
    assert df.subgroup([], [3, 3]) == {(0, 0)}
    assert df.subgroup([(2,)], [4]) == {(0,), (2,)}
    assert df.subgroup([(5, -1)], [2, 4]) == \
        {(0, 0), (1, 3), (0, 2), (1, 1)}
    assert len(df.subgroup([(1, 0), (0, 2), (1, 2)], [2, 4])) == 4
    assert len(df.subgroup([(1, 1, 0), (0, 1, 1), (1, 0, 1)], [2] * 3)) == 4


@pytest.mark.parametrize("name", ["N4", "N10", "N15", "N17", "N20", "N21",
                                  "N22", "N23"])
def test_glue_code_has_unimodular_size(name):
    # the glue code of A_n^m is an index-(n+1)^(m/2) overlattice
    from k3lat.gram_data import NIEMEIER_ROWS
    n, m = NIEMEIER_ROWS[name][:2]
    code = catalog.glue_code(name)
    assert len(code) ** 2 == (n + 1) ** m
    assert len(set(code)) == len(code) and code == sorted(code)


def test_class_coords_rejects_non_dual_vectors():
    data = df.discriminant_data(L(A2, 3))  # A_L = Z/3 + Z/9
    assert data.form.factors == [3, 9]
    with pytest.raises(ValueError, match="dual lattice"):
        data.class_coords([1, 0], 2)
    assert data.class_coords([0, 0], 5) == (0, 0)
    assert data.class_coords([3, 0], 1) == (0, 0)  # a vector of L itself


def _check_integer_form(M):
    """q, b and class_coords against the Gram itself; q well defined."""
    data = df.discriminant_data(M)
    form, factors = data.form, data.form.factors
    k = form.length
    _assert_well_defined(form)

    def dual(c):  # sum_i c_i gens_i / f_i, in Fractions
        return [sum(Fraction(ci * g[b], f)
                    for ci, g, f in zip(c, data.gens, factors))
                for b in range(M.rank)]

    elements = list(form.elements())
    if len(elements) > 150:
        elements = random.Random(0).sample(elements, 150)
    for c in elements:
        x = dual(c)
        assert all(p.denominator == 1 for p in linalg.vec_mat(x, M.gram))
        assert _q(form, c) == linalg.dot(x, x, M.gram) % 2
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    for i, unit in enumerate(units):
        assert data.class_coords(data.gens[i], factors[i]) == unit
        for j in range(i):
            assert _b(form, unit, units[j]) == \
                linalg.dot(dual(unit), dual(units[j]), M.gram) % 1


@st.composite
def base_changes(draw, gram):
    n = len(gram)
    P = linalg.identity(n)
    for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        s = draw(st.integers(-2, 2))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    return linalg.mat_mul(linalg.mat_mul(P, gram), linalg.transpose(P))


@st.composite
def even_grams(draw):
    """Nondegenerate even Grams of either signature with |det| <= 400."""
    n = draw(st.integers(1, 4))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i):
            G[i][j] = G[j][i] = draw(st.integers(-3, 3))
    assume(0 < abs(linalg.det(G)) <= 400)
    return draw(base_changes(G))


@settings(max_examples=150, deadline=None)
@given(even_grams())
def test_integer_form_matches_gram(gram):
    _check_integer_form(Lattice(gram))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["A2(3)", "U(3)", "E8(-2)", "S_11.K3[2]", "S_5exo"])
       .flatmap(lambda name: base_changes(catalog.named(name).gram)))
def test_integer_form_matches_gram_on_catalog_lattices(gram):
    _check_integer_form(Lattice(gram))


# (factors, Milgram signature) of lattices in their catalog basis; the
# signature is the lattice's own mod 8
FORM_INVARIANTS = {
    "E8": (lambda: E8, [], 0),
    "D4+A2": (lambda: L(gram_D(4)).direct_sum(L(A2)).gram, [2, 6], 6),
    "A2+A2(3)": (lambda: L(A2).direct_sum(L(A2, 3)).gram, [3, 3, 9], 4),
    "BW16(-1)": (lambda: catalog.exceptional("BW16(-1)").gram, [2] * 8, 0),
    "S_3exo": (lambda: catalog.exceptional("S_3exo").gram, [3] * 8, 0),
    "D12+(-2)": (lambda: catalog.exceptional("D12+(-2)").gram, [2] * 12, 4),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(FORM_INVARIANTS)).flatmap(
    lambda name: st.tuples(st.just(name),
                           base_changes(FORM_INVARIANTS[name][0]()))))
def test_form_invariants_do_not_depend_on_the_basis(case):
    name, gram = case
    _, factors, sigma = FORM_INVARIANTS[name]
    q = df.discriminant_form(Lattice(gram))
    assert (q.factors, df.milgram_signature(q)) == (factors, sigma)


def test_discriminant_forms_pinned():
    """to_json of every nontrivial form in the Milgram battery, as written
    by the rational-entry implementation; each form is well defined."""
    golden = json.loads(pathlib.Path(__file__)
                        .with_name("discriminant_forms.json").read_text())
    forms = {name: df.discriminant_form(catalog.named(name))
             for name in golden}
    for form in forms.values():
        _assert_well_defined(form)
    assert {name: form.to_json() for name, form in forms.items()} == golden


def _check_walk(form):
    """The group walk against _q_num and _element_order, element by
    element."""
    assert list(form._walk()) == [(form._q_num(x), _element_order(form, x))
                                  for x in form.elements()]


def test_walk_matches_pinned_and_trivial_forms():
    golden = json.loads(pathlib.Path(__file__)
                        .with_name("discriminant_forms.json").read_text())
    assert len(golden) == 26
    for obj in golden.values():
        _check_walk(_form(obj))
    _check_walk(df.FiniteQuadraticForm([], []))


@st.composite
def raw_forms(draw):
    """Symmetric numerator matrices on drawn divisibility chains, order
    at most 2000; the walk's recursion holds for any of them."""
    factors = [draw(st.integers(2, 6))]
    for _ in range(draw(st.integers(0, 4))):
        factors.append(factors[-1] * draw(st.integers(1, 3)))
    assume(math.prod(factors) <= 2000)
    e, k = factors[-1], len(factors)
    num = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            num[i][j] = num[j][i] = draw(st.integers(0, 2 * e - 1))
    return df.FiniteQuadraticForm(factors, num)


@settings(max_examples=100, deadline=None)
@given(raw_forms())
@example(df.FiniteQuadraticForm([2] * 10, [[1 + i * j % 3 for j in range(10)]
                                           for i in range(10)]))
@example(df.FiniteQuadraticForm([3] * 6, [[(i + j + i * j) % 6
                                           for j in range(6)]
                                          for i in range(6)]))
def test_walk_matches_elementwise_values(form):
    _check_walk(form)


@settings(max_examples=60, deadline=None)
@given(even_grams())
def test_walk_matches_elementwise_values_of_lattices(gram):
    _check_walk(df.discriminant_form(Lattice(gram)))


@settings(max_examples=100, deadline=None)
@given(even_grams())
def test_milgram_matches_the_frozen_gauss_sum(gram):
    # the frozen sum works in Z[zeta_N], N = lcm(2e, 8, ...): slow past e = 60
    q = df.discriminant_form(Lattice(gram))
    assume(q.exponent <= 60)
    for form in (q, q.neg()):
        assert df.milgram_signature(form) == \
            milgram_reference.milgram_signature(form)


@st.composite
def milgram_grams(draw):
    """Even nondegenerate Grams of rank <= 6 with entries in [-12, 12] and
    |det| <= 10^5, so that no block comes near the Milgram cap."""
    n = draw(st.integers(1, 6))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = 2 * draw(st.integers(-6, 6))
        for j in range(i):
            G[i][j] = G[j][i] = draw(st.integers(-12, 12))
    assume(0 < abs(linalg.det(G)) <= 10 ** 5)
    return G


@settings(max_examples=300, deadline=None)
@given(milgram_grams())
@example([[2, 1], [1, 1000]])  # A = Z/1999, 12-14 s for the frozen sum
def test_milgram_formula(gram):
    # Milgram: the signature of an even lattice is sigma(q_L) mod 8
    L = Lattice(gram)
    plus, minus = L.signature()
    assert df.milgram_signature(df.discriminant_form(L)) == (plus - minus) % 8
