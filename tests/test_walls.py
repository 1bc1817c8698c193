import json
import math
import os
import pathlib
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

import exclusion_reference
import wall_reference
from k3lat import catalog, discforms as df, enumeration as en
from k3lat import isometries as iso
from k3lat import linalg, walls
from k3lat.lattice import Lattice


def e8_root_divisor(ctx, idx=8):
    D = [0] * 24
    D[idx] = 1
    return D


def test_wall_context_invariants():
    ctx = walls.wall_context(2)
    assert ctx.v_sq == 2
    assert ctx.perp.rank == 23
    assert ctx.perp.signature() == (3, 20)
    with pytest.raises(ValueError):
        walls.wall_context(1)


def test_root_divisor_is_wall():
    ctx = walls.wall_context(2)
    rep = walls.is_wall_divisor(ctx, e8_root_divisor(ctx))
    assert rep.is_wall and rep.clause == "root"
    assert rep.divisor_norm == -2 and rep.divisor_divisibility == 1
    assert rep.v_pairing == 0


def test_minus_ten_div_two_wall():
    ctx = walls.wall_context(2)
    # D = 2w - e + f for w a root: q(D) = -10, div 2, r = (v+D)/2
    D = [-1, 1] + [0] * 22
    D[8] += 2
    rep = walls.is_wall_divisor(ctx, D)
    assert rep.is_wall and rep.clause == "root"
    assert rep.divisor_norm == -10 and rep.divisor_divisibility == 2
    assert rep.t_gram == [[2, 1], [1, -2]]


def test_minus_four_not_wall():
    ctx = walls.wall_context(2)
    D = [0] * 24
    D[8] = 1
    D[10] = 1
    assert linalg.dot(D, D, ctx.mukai.gram) == -4
    rep = walls.is_wall_divisor(ctx, D)
    assert not rep.is_wall


def test_wall_invariant_under_negation():
    ctx = walls.wall_context(2)
    for D in (e8_root_divisor(ctx), [-1, 1] + [0] * 6 + [2] + [0] * 15):
        rep1 = walls.is_wall_divisor(ctx, D)
        rep2 = walls.is_wall_divisor(ctx, [-a for a in D])
        assert rep1.is_wall == rep2.is_wall
        assert rep1.t_gram == rep2.t_gram


def test_wall_rejects_zero_and_proportional():
    ctx = walls.wall_context(2)
    with pytest.raises(ValueError):
        walls.is_wall_divisor(ctx, [0] * 24)
    with pytest.raises(ValueError, match="proportional"):
        walls.is_wall_divisor(ctx, ctx.v)


def test_numerical_wall_found_for_roots():
    ctx = walls.wall_context(2)
    S = ctx.mukai.sublattice([e8_root_divisor(ctx, 8),
                              e8_root_divisor(ctx, 10)])
    rep = walls.numerical_wall_in(S, ctx)
    assert rep is not None and rep.is_wall and rep.clause == "root"


def _mukai_vector(entries):
    D = [0] * 24
    for i, c in entries:
        D[i] += c
    return D


def _brute_force_walls(ctx, S):
    """Every primitive wall divisor t of S, one per sign, with |t^2| at
    most the clause bound 2(v^2)^2 + (v^2)^3/4: the closed-form norm
    v^2 (v^2 r^2 - s^2)/g^2 of a wall's divisor never exceeds it."""
    vv = ctx.v_sq
    bound = 2 * vv * vv + vv ** 3 // 4
    found = []
    for _, x in en.short_vectors(Lattice(S.gram), bound, up_to_sign=True):
        if math.gcd(*x) != 1:
            continue
        t = linalg.vec_mat(x, S.coords)
        if walls.is_wall_divisor(ctx, t).is_wall:
            found.append((abs(linalg.dot(x, x, S.gram)), t))
    return found


def _small_cases(n):
    """Sublattices of v-perp at level n, as rows of (index, entry)."""
    w = [(0, 1), (1, 1 - n)]  # e - (n-1)f spans v-perp in the first U
    return {
        "A1+A1": [[(8, 1)], [(10, 1)]],
        "A2": [[(8, 1)], [(9, 1)]],
        "w": [w],
        "w+r": [w + [(8, 1)]],
        "w+2r": [w + [(8, 2)]],
        "w,r": [w, [(8, 1)]],
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_numerical_wall_matches_brute_force(n):
    ctx = walls.wall_context(n)
    for name, rows in _small_cases(n).items():
        S = ctx.mukai.sublattice([_mukai_vector(row) for row in rows])
        ref = _brute_force_walls(ctx, S)
        rep = walls.numerical_wall_in(S, ctx)
        if not ref:
            assert rep is None, (n, name)
            continue
        assert rep is not None and rep.is_wall, (n, name)
        assert abs(rep.divisor_norm) == min(q for q, _ in ref), (n, name)
        # one sign of t is fixed by the search when (v, r) > 0
        walls_found = [t for _, t in ref]
        assert (rep.divisor in walls_found
                or [-a for a in rep.divisor] in walls_found), (n, name)


def _exclusion_search(name):
    """(S, ctx) of an excluded lattice's wall search at its level, with
    the Mukai vector that `_isotropic_pair_vector` chooses."""
    n = walls.EXCLUSIONS[name][0]
    glued = walls._exclusion_model(name)
    T = glued.t_sub
    v = walls._isotropic_pair_vector(T, 2 * n - 2)
    return glued.s_sub, walls.wall_context(
        n, mukai=glued.lattice, v=linalg.vec_mat(v, T.coords))


def _frozen_search_inputs():
    """(S, ctx) pairs on which the wall search is checked against the
    frozen copy in `wall_reference`."""
    for n in (2, 3, 4, 5):
        ctx = walls.wall_context(n)
        for rows in _small_cases(n).values():
            yield ctx.mukai.sublattice([_mukai_vector(r) for r in rows]), ctx
    for name in walls.EXCLUSIONS:
        yield _exclusion_search(name)
    models = [(_w_model(), 4)]
    models += [(walls._glue(S, T), n)
               for name, n in (("S_5exo", 3), ("S_11.K3[2]", 2))
               for S, T in walls.ROWS[name][1]()]
    for glued, n in models:
        for ctx in _definite_contexts(glued, n):
            yield glued.s_sub, ctx
    ctx = walls.wall_context(100)
    yield ctx.mukai.sublattice([_mukai_vector([(0, -1), (1, 99)])]), ctx
    yield ctx.mukai.sublattice([]), ctx  # Mbar = Zv: no divisor at all


def _as_json(report):
    return None if report is None else report.to_json()


def test_numerical_wall_matches_the_frozen_search():
    found = []
    for S, ctx in _frozen_search_inputs():
        report = _as_json(walls.numerical_wall_in(S, ctx))
        assert report == _as_json(wall_reference.numerical_wall_in(S, ctx))
        found.append(report is not None)
    assert any(found) and not all(found)


# a row of v-perp at level n: entry (0, a) adds a (e - (n-1)f), which
# spans v-perp in the first U, and entry (i, a) for i >= 2 adds a times
# the i-th Mukai basis vector. Index 0 is drawn about half the time, as
# rows that mix it with the rest are the ones whose saturation Mbar is
# larger than Zv + S (den > 1 in `_slice_vectors`).
_perp_rows = st.lists(
    st.lists(st.tuples(st.one_of(st.just(0), st.integers(2, 23)),
                       st.integers(-3, 3)), min_size=1, max_size=4),
    min_size=1, max_size=2)


def _perp_vector(n, row):
    return _mukai_vector([e for i, a in row for e in (
        [(0, a), (1, (1 - n) * a)] if i == 0 else [(i, a)])])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), _perp_rows)
def test_random_sublattices_match_the_frozen_search(n, rows):
    ctx = walls.wall_context(n)
    coords = [_perp_vector(n, row) for row in rows]
    assume(linalg.row_rank(coords) == len(coords))
    S = ctx.mukai.sublattice(coords)
    assume(not S.degenerate and S.signature() == (0, S.rank))
    assert (_as_json(walls.numerical_wall_in(S, ctx))
            == _as_json(wall_reference.numerical_wall_in(S, ctx)))


@pytest.mark.parametrize("n, rows, gell", [
    (100, [[(0, -1), (1, 99)]], 1),  # (v, e) = 99, (v, f) = 1
    (1000, [[(8, 1)], [(10, 1)]], 1998),  # Mbar = Zv + S pairs only to v^2
])
def test_each_slice_is_enumerated_once(monkeypatch, n, rows, gell):
    slices, enumerations = [], []
    slice_vectors, short_pairs = walls._slice_vectors, en.short_pairs

    def counted_slice(KB, A, solve, Kx0, x0B, s_val, *rest):
        slices.append(s_val)
        return slice_vectors(KB, A, solve, Kx0, x0B, s_val, *rest)

    def counted_enumeration(*args, **kwargs):
        enumerations.append(1)
        return short_pairs(*args, **kwargs)

    monkeypatch.setattr(walls, "_slice_vectors", counted_slice)
    monkeypatch.setattr(en, "short_pairs", counted_enumeration)
    ctx = walls.wall_context(n)
    S = ctx.mukai.sublattice([_mukai_vector(row) for row in rows])
    assert walls.numerical_wall_in(S, ctx) is not None
    assert slices == list(range(0, n, gell))
    assert len(enumerations) == len(slices)


def test_slice_candidates_are_converted_in_one_product_each(monkeypatch):
    """BW16(-1) at n = 3 in its exclusion model: one vec_mat per +-pair
    that passes the rho filter, plus a few per search, not three per
    candidate and sign (1 542 calls when each went through J, K and B)."""
    S, ctx = _exclusion_search("BW16(-1)")
    expected = wall_reference.numerical_wall_in(S, ctx)
    calls = []
    vec_mat = linalg.vec_mat

    def counted(*args):
        calls.append(1)
        return vec_mat(*args)

    monkeypatch.setattr(linalg, "vec_mat", counted)
    report = walls.numerical_wall_in(S, ctx)
    assert len(calls) <= 300
    assert report.to_json() == expected.to_json()


def test_numerical_wall_absent_for_e8_minus_2_model():
    S = catalog.exceptional("S_2.K3")
    E = catalog.root_lattice("E", 8, -2)
    U = catalog.hyperbolic()
    T = U + U + U + U + E
    T.name = "U^4+E8(-2)"
    glued = walls.mukai_gluing(S, T).witness["gluing"]
    verdict = walls.wall_verdict_in_model(glued, 2)
    assert verdict.status == "realizable"
    # n = 1 is the K3 route's, not a Mukai model's
    with pytest.raises(ValueError, match="at least 2"):
        walls.wall_verdict_in_model(glued, 1)


def _glue_d12_exclusion_pair():
    """Run mukai_gluing once on D12+(-2) against U(2)^4 + <-2>^4, whose
    discriminant groups have order 2^12 = 4 096."""
    catalog.exceptional("D12+(-2)")  # built outside what the caller measures
    return walls._exclusion_model("D12+(-2)")


def test_gluing_never_lists_the_discriminant_group(monkeypatch):
    # the anti-isometry search walks A_T once for its candidate table and
    # A_S once for the counts it compares with that table; gluing itself
    # lists no subgroup and walks neither group
    lists, walks = [], []
    subgroup, walk = df.subgroup, df.FiniteQuadraticForm._walk

    def counting_subgroup(gens, factors):
        lists.append(len(factors))
        return subgroup(gens, factors)

    def counting_walk(form):
        if form.order() == 4096:
            walks.append(form)
        return walk(form)

    monkeypatch.setattr(df, "subgroup", counting_subgroup)
    monkeypatch.setattr(df.FiniteQuadraticForm, "_walk", counting_walk)
    glued = _glue_d12_exclusion_pair()
    assert glued.index == 4096
    assert lists == [] and len(walks) == 2 and walks[0] is not walks[1]


def test_gluing_memory_peak():
    # tracemalloc peak of this gluing: 2.37 MB when the graph was listed
    # and checked element by element, 0.61 MB with the generator checks
    tracemalloc.start()
    try:
        _glue_d12_exclusion_pair()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.37e6 / 2


def test_numerical_wall_requires_definite():
    ctx = walls.wall_context(2)
    S = ctx.mukai.sublattice([[0, 0, 1, 0] + [0] * 20,
                              [0, 0, 0, 1] + [0] * 20])
    with pytest.raises(ValueError):
        walls.numerical_wall_in(S, ctx)


def test_realizability_e8_minus_2():
    S = catalog.exceptional("S_2.K3")
    E = catalog.root_lattice("E", 8, -2)
    U = catalog.hyperbolic()
    T = U + U + U + U + E
    g = iso.minus_identity(S)
    verdict = walls.realizability(S, [g], 2, complement=T)
    assert verdict.status == "realizable"
    assert all(verdict.leech_pair.values())


def test_realizability_indefinite_fails():
    # the signature answers before any gluing, so any complement will do
    S = catalog.hyperbolic()
    verdict = walls.realizability(S, [iso.minus_identity(S)], 2,
                                  complement=S)
    assert verdict.status == "obstructed"
    assert "negative definite" in verdict.reason


def test_gluing_raises_only_on_a_proven_no(monkeypatch):
    S = catalog.exceptional("S_2.K3")
    U = catalog.hyperbolic()
    with pytest.raises(ValueError, match="invariant factors"):
        walls.mukai_gluing(S, U + U + U + U + U + U + U + U)
    # a spent search budget reads inconclusive, in realizability too
    monkeypatch.setattr(df, "_SEARCH_NODE_CAP", 2)
    verdict = walls.realizability(S, [iso.minus_identity(S)], 2,
                                  complement=U + U + U + U
                                  + catalog.named("E8(-2)"))
    assert verdict.status == "inconclusive"
    assert verdict.reason == "search stopped at its cap of 2 nodes"
    with pytest.raises(AssertionError, match="cap of 2 nodes"):
        walls._exclusion_model("BW16(-1)")


def test_conway_condition_order_11():
    model = catalog.leech_model()
    g = model.multiplication_isometry(2)
    ok, data = walls.conway_condition([g])
    assert ok
    assert data["rank_S"] == 20 and data["rank_T"] == 4
    assert data["equivalent_form"] == ok


def test_conway_condition_bw16_involution():
    model = catalog.leech_model()
    sixteen = model.codewords_of_weight(16)[0]
    g = model.sign_change_isometry(sixteen)
    ok, data = walls.conway_condition([g])
    assert not ok
    assert data["rank_T"] == 8 and data["length_T"] == 8
    assert data["equivalent_form"] == ok


def test_conway_condition_trivial_group():
    L = catalog.leech()
    ok, data = walls.conway_condition([iso.identity_isometry(L)])
    assert ok and data["rank_S"] == 0


def test_huybrechts_equivalents():
    # the values on S_2.K3, BW16(-1) and S_11.K3[2] are checked by the
    # acceptance battery
    with pytest.raises(ValueError, match="rank at most 20"):
        walls.huybrechts_equivalents(catalog.leech())
    with pytest.raises(ValueError, match="negative definite"):
        walls.huybrechts_equivalents(catalog.hyperbolic())


def test_huybrechts_builds_the_form_of_m_once(monkeypatch):
    # both conditions read the one form -q_M: one SNF per call
    M = catalog.exceptional("S_11.K3[2]")
    snfs, snf = [], linalg.snf

    def counting_snf(G):
        snfs.append(len(G))
        return snf(G)

    monkeypatch.setattr(linalg, "snf", counting_snf)
    assert walls.huybrechts_equivalents(M) == (True, True)
    assert snfs == [20]


def test_huybrechts_matches_conway_on_pairs():
    model = catalog.leech_model()
    cases = [
        model.multiplication_isometry(2),
        model.sign_change_isometry(model.codewords_of_weight(8)[0]),
        model.sign_change_isometry(model.codewords_of_weight(16)[0]),
        model.sign_change_isometry(model.codewords_of_weight(12)[0]),
    ]
    for g in cases:
        ok, _ = walls.conway_condition([g])
        S = iso.coinvariant_lattice([g])
        assert walls.huybrechts_equivalents(Lattice(S.gram)) == (ok, ok)


def test_d12_exclusion_grams():
    # t_gram [[2n-2, n-1], [n-1, -2]] and a divisor of square -2n-6
    for n, t_gram, divisor_norm in [(2, [[2, 1], [1, -2]], -10),
                                    (3, [[4, 2], [2, -2]], -12)]:
        verdict = walls.exclusion_witness("D12+(-2)", n)
        assert verdict.status == "obstructed"
        assert verdict.wall.t_gram == t_gram
        assert verdict.wall.divisor_norm == divisor_norm


def test_exclusion_witnesses_pass_wall_predicate():
    for name, (n, _, _) in walls.EXCLUSIONS.items():
        verdict = walls.exclusion_witness(name, n)
        assert verdict.status == "obstructed"
        assert verdict.wall.is_wall


def test_bw16_needs_odd_n():
    verdict = walls.exclusion_witness("BW16(-1)", 2)
    assert verdict.status == "inconclusive"
    verdict = walls.exclusion_witness("S_3exo", 3)  # n != 1 mod 3
    assert verdict.status == "inconclusive"


@pytest.mark.parametrize("name", sorted(walls.EXCLUSIONS))
def test_chooser_gives_the_frozen_exclusion_vectors(name):
    T = walls._exclusion_model(name).t_sub
    for n in range(2, 13):
        v = walls._isotropic_pair_vector(T, 2 * n - 2)
        assert v == exclusion_reference.exclusion_vector(name, n), n
        if v is not None:
            assert linalg.dot(v, v, T.gram) == 2 * n - 2
            assert math.gcd(*v) == 1


def test_chooser_skips_diagonal_entries_that_meet_the_pair():
    # e_0, e_1 span U(2), which takes no square 2 mod 4; e_2 meets e_1
    # and e_3 meets e_0, so only e_4 may complete e_0 + x e_1
    T = Lattice([[0, 2, 0, 1, 0],
                 [2, 0, 1, 0, 0],
                 [0, 1, -2, 0, 0],
                 [1, 0, 0, -2, 0],
                 [0, 0, 0, 0, -2]])
    for target, v in [(2, [1, 1, 0, 0, 1]), (4, [1, 1, 0, 0, 0]),
                      (6, [1, 2, 0, 0, 1])]:
        assert walls._isotropic_pair_vector(T, target) == v
        assert linalg.dot(v, v, T.gram) == target
    # with no isotropic pair there is nothing to choose
    assert walls._isotropic_pair_vector(Lattice([[2, 1], [1, 2]]), 2) is None


def _w_model():
    """The Mukai model of W(-1) glued to A2 + A2(3), a definite T."""
    S, T = walls.ROWS["W(-1)"][1]()[0]
    return walls._glue(S, T)


def _definite_contexts(glued, n):
    """A wall context for each primitive v of square 2n - 2, up to sign,
    in the definite complement of a glued model, in the verdict's order."""
    T = glued.t_sub
    return [walls.wall_context(n, mukai=glued.lattice,
                               v=linalg.vec_mat(v, T.coords))
            for q, v in en.short_vectors(T, 2 * n - 2, up_to_sign=True)
            if q == 2 * n - 2 and math.gcd(*v) == 1]


def test_obstructed_reason_says_which_vectors_were_tested():
    # W(-1) with A2 + A2(3) is obstructed at n = 4: every primitive v of
    # square 6 in the definite complement gives a wall
    verdict = walls.wall_verdict_in_model(_w_model(), 4)
    assert verdict.status == "obstructed"
    assert verdict.reason == "every embedding produces a numerical wall"
    # an indefinite complement gives one chosen vector
    glued = walls._exclusion_model("D12+(-2)")
    verdict = walls.wall_verdict_in_model(glued, 2)
    assert verdict.status == "obstructed"
    assert verdict.reason == \
        "the one Mukai vector tested gives a numerical wall"
    assert walls.exclusion_witness("D12+(-2)", 2).reason == verdict.reason


def _walls_except(monkeypatch, free):
    """Make every numerical wall search find a wall, except at the Mukai
    vectors in free; returns the list of vectors searched."""
    searched = []

    def search(S, ctx, cap):
        searched.append(ctx.v)
        return None if ctx.v in free else "wall"

    monkeypatch.setattr(walls, "numerical_wall_in", search)
    return searched


def test_a_wall_on_every_vector_but_the_last_is_realizable(monkeypatch):
    # A2 + A2(3) has three primitive vectors of square 2 up to sign; the
    # verdict must reach the last one
    glued = _w_model()
    vs = [ctx.v for ctx in _definite_contexts(glued, 2)]
    assert len(vs) == 3
    searched = _walls_except(monkeypatch, [vs[-1]])
    verdict = walls.wall_verdict_in_model(glued, 2)
    assert verdict.status == "realizable"
    assert searched == vs


def test_a_wall_on_every_vector_is_obstructed(monkeypatch):
    glued = _w_model()
    vs = [ctx.v for ctx in _definite_contexts(glued, 2)]
    searched = _walls_except(monkeypatch, [])
    verdict = walls.wall_verdict_in_model(glued, 2)
    assert verdict.status == "obstructed" and verdict.wall == "wall"
    assert verdict.reason == "every embedding produces a numerical wall"
    assert searched == vs


def test_minimal_n_rows():
    expected = {
        "S_2.K3": (2, 1),
        "S_3.K3": (3, 1),
        "W(-1)": (3, 2),
        "S_5.K3": (5, 1),
        "S_5exo": (5, 3),
        "S_7.K3": (7, 1),
        "S_11.K3[2]": (11, 2),
    }
    for name, (p, n) in expected.items():
        row = walls.minimal_n(name)
        assert (row.prime, row.minimal_n) == (p, n), name


def test_s11_deformation_count():
    row = walls.minimal_n("S_11.K3[2]")
    assert row.deformation_classes == 2


def test_deformation_counts_for_k3_rows():
    for name in ("S_2.K3", "S_3.K3", "S_5.K3", "S_7.K3"):
        row = walls.minimal_n(name)
        assert row.deformation_classes == 1, name


def test_large_prime_rejection():
    data = walls.large_prime_rejection()
    assert data["13"] == 24 and data["23"] == 22
    assert data["rejected"]


def test_classification_table():
    table = walls.classification_table()
    # every witness's divisor, r, t_gram, clause and divisibility, pinned
    golden = pathlib.Path(__file__).with_name("classification_table.json")
    assert table == json.loads(golden.read_text())
    rows = {(r["p"], r["lattice"]): r["minimal_n"] for r in table["rows"]}
    assert rows == {
        (2, "S_2.K3"): 1,
        (3, "S_3.K3"): 1,
        (3, "W(-1)"): 2,
        (5, "S_5.K3"): 1,
        (5, "S_5exo"): 3,
        (7, "S_7.K3"): 1,
        (11, "S_11.K3[2]"): 2,
    }
    assert set(table["exclusions"]) == {"BW16(-1)", "S_3exo", "D12+(-2)"}
    for entry in table["exclusions"].values():
        assert entry["status"] == "obstructed"
        assert entry["wall"]["is_wall"]
    assert table["large_primes"]["rejected"]


def test_gluing_builds_each_discriminant_form_once(monkeypatch):
    # glue_full builds both discriminant data once, and the anti-isometry
    # search and glue_overlattice share them: two Smith normal forms
    snfs, data = [], []
    snf, discriminant_data = linalg.snf, df.discriminant_data

    def counting_snf(G):
        snfs.append(len(G))
        return snf(G)

    def counting_data(L):
        data.append(L.name)
        return discriminant_data(L)

    monkeypatch.setattr(linalg, "snf", counting_snf)
    monkeypatch.setattr(df, "discriminant_data", counting_data)
    _glue_d12_exclusion_pair()
    assert data == ["D12+(-2)", "U(2)^4+(-2)^4"] and snfs == [12, 12]


# -- verdicts under a change of basis ----------------------------------------

def _base_change(L, rng):
    """L, under its name, in the basis P L of 3 rank random elementary row
    operations row_i += c row_j (i != j, c in {-2, -1, 1, 2})."""
    n = L.rank
    P = linalg.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
    return Lattice(linalg.mat_mul(linalg.mat_mul(P, L.gram),
                                  linalg.transpose(P)), name=L.name)


def _status_and_norm(glued, n):
    """Status and witness divisor norm of the wall verdict at level n."""
    verdict = walls.wall_verdict_in_model(glued, n)
    return verdict.status, verdict.wall and verdict.wall.divisor_norm


@pytest.mark.parametrize("seed", [0, 1])
def test_verdicts_do_not_depend_on_the_basis(seed):
    """A random base change of S and T keeps every Mukai row's verdict,
    per complement, at each level from 2 to one past its minimal n, and
    the witness's divisor norm, which no basis changes (the witness
    itself may move). The exclusions base-change S only, since the
    chooser reads T's isotropic basis vectors. D12+(-2) is left out: its
    base-changed gluing can stop at the anti-isometry search's node cap
    (ROADMAP item 2 removes that inconclusive answer)."""
    rng = random.Random(seed)
    top = {row["lattice"]: row["minimal_n"]
           for row in walls.classification_table()["rows"]}
    for name, (_, pairs, _) in walls.ROWS.items():
        if pairs is None:
            continue
        for S, T in pairs():
            glued = walls._glue(S, T)
            changed = walls._glue(_base_change(S, rng), _base_change(T, rng))
            for n in range(2, top[name] + 2):
                assert (_status_and_norm(changed, n)
                        == _status_and_norm(glued, n)), (name, T.name, n)
    for name in ("BW16(-1)", "S_3exo"):
        n, k, _ = walls.EXCLUSIONS[name]
        U = catalog.hyperbolic().rescale(k)
        verdict = walls.exclusion_witness(name, n)
        changed = walls._glue(_base_change(catalog.exceptional(name), rng),
                              U + U + U + U)
        assert (_status_and_norm(changed, n)
                == (verdict.status, verdict.wall.divisor_norm)), name


# -- the split table ---------------------------------------------------------
# The seven rows run in this process while one forked child computes the
# exclusions and the large-prime check; every fallback must give the
# serial table, key order included. An argument bypasses the session's
# cached table.

def fresh_table():
    return walls.classification_table(cap=en.DEFAULT_CAP)


@pytest.fixture
def serial_table(split):
    forks, set_workers = split
    set_workers(1)
    table = json.dumps(fresh_table())
    set_workers(2)
    assert forks == []
    return table


def test_serial_table_glues_each_pair_once(split, monkeypatch):
    # the five Mukai pairs of the rows and the three exclusion models
    split[1](1)
    glued = []
    glue = walls.mukai_gluing
    monkeypatch.setattr(walls, "mukai_gluing", lambda S, T:
                        glued.append((S.name, T.name)) or glue(S, T))
    fresh_table()
    assert len(glued) == 8


def test_split_table_is_serial(split, serial_table):
    assert json.dumps(fresh_table()) == serial_table
    assert len(split[0]) == 1


def test_split_table_recomputes_a_half_the_fork_refused(split, serial_table,
                                                        monkeypatch):
    refused = []

    def refuse():
        refused.append(1)
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", refuse)
    assert json.dumps(fresh_table()) == serial_table
    assert refused == [1]


def test_split_table_recomputes_the_half_of_a_failed_child(
        split, serial_table, monkeypatch):
    forks, _ = split
    fork = os.fork

    def failing_fork():
        pid = fork()
        if pid == 0:
            os._exit(3)
        return pid

    monkeypatch.setattr(os, "fork", failing_fork)
    assert json.dumps(fresh_table()) == serial_table
    assert len(forks) == 1


def test_split_table_with_no_fork_never_forks(split, serial_table,
                                              monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert json.dumps(fresh_table()) == serial_table
    assert split[0] == []
