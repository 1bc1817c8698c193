import json
import os
import pathlib
import tracemalloc

import pytest

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
    for x in en.short_vectors(Lattice(S.gram), bound, up_to_sign=True):
        if not x.is_primitive():
            continue
        t = linalg.vec_mat(x.coords, S.coords)
        if walls.is_wall_divisor(ctx, t).is_wall:
            found.append((abs(x.norm()), t))
    return found


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_numerical_wall_matches_brute_force(n):
    ctx = walls.wall_context(n)
    w = [(0, 1), (1, 1 - n)]  # e - (n-1)f spans v-perp in the first U
    cases = {
        "A1+A1": [[(8, 1)], [(10, 1)]],
        "A2": [[(8, 1)], [(9, 1)]],
        "w": [w],
        "w+r": [w + [(8, 1)]],
        "w+2r": [w + [(8, 2)]],
        "w,r": [w, [(8, 1)]],
    }
    for name, rows in cases.items():
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


def test_numerical_wall_absent_for_e8_minus_2_model():
    S = catalog.exceptional("S_2.K3")
    E = catalog.root_lattice("E", 8, -2)
    U = catalog.hyperbolic()
    T = U + U + U + U + E
    T.name = "U^4+E8(-2)"
    glued = walls.mukai_gluing(S, T)
    verdict = walls.wall_verdict_in_model(glued, 2)
    assert verdict.status == "realizable"


def _glue_d12_exclusion_pair(monkeypatch):
    """Run mukai_gluing once on D12+(-2) against U(2)^4 + <-2>^4, whose
    discriminant groups have order 2^12 = 4 096."""
    catalog.exceptional("D12+(-2)")  # built outside what the caller measures
    monkeypatch.setattr(walls, "_gluing_cache", {})
    return walls._exclusion_model("D12+(-2)")


def test_gluing_never_lists_the_discriminant_group(monkeypatch):
    # the anti-isometry search walks A_T once for its candidate table;
    # gluing itself lists no subgroup and walks neither group
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
    glued = _glue_d12_exclusion_pair(monkeypatch)
    assert glued.index == 4096
    assert lists == [] and len(walks) == 1


def test_gluing_memory_peak(monkeypatch):
    # tracemalloc peak of this gluing: 2.37 MB when the graph was listed
    # and checked element by element, 0.61 MB with the generator checks
    tracemalloc.start()
    try:
        _glue_d12_exclusion_pair(monkeypatch)
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
    S = catalog.hyperbolic()
    verdict = walls.realizability(S, [iso.minus_identity(S)], 2)
    assert verdict.status == "obstructed"
    assert "negative definite" in verdict.reason


def test_realizability_without_complement_inconclusive():
    S = catalog.exceptional("S_2.K3")
    verdict = walls.realizability(S, [iso.minus_identity(S)], 2)
    assert verdict.status == "inconclusive"


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
    assert walls.huybrechts_equivalents(catalog.exceptional("S_2.K3")) \
        == (True,) * 4
    assert walls.huybrechts_equivalents(catalog.exceptional("BW16(-1)")) \
        == (False,) * 4
    assert walls.huybrechts_equivalents(catalog.exceptional("S_11.K3[2]")) \
        == (True,) * 4


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
        cond = walls.huybrechts_equivalents(Lattice(S.gram))
        assert cond[1] == ok


def test_wall_obstruction_bw16():
    M = catalog.exceptional("BW16(-1)")
    gens = _div2_spanning_generators(M, 12)
    for n in (3, 5, 7, 9):
        assert walls.wall_in_s_obstruction(M, n, gens) is True


def test_wall_obstruction_s3exo():
    M = catalog.exceptional("S_3exo")
    gens = _s3exo_generators(M)
    assert all(t.norm() in (-12, -24, -36) for t in gens)
    for n in (5, 7, 10):
        assert walls.wall_in_s_obstruction(M, n, gens) is True


def test_wall_obstruction_inapplicable():
    M = catalog.exceptional("S_2.K3")
    assert walls.wall_in_s_obstruction(M, 2, []) == "inapplicable"


def _div2_spanning_generators(M, bound):
    """Vectors 2y (y dual) of norm >= -bound whose half-classes span A_M.

    Harvested through the rescaled dual lattice, whose ball is small; for
    a 2-elementary M every doubled dual vector lies in M.
    """
    data = df.discriminant_data(M)
    X, d = linalg.rowspace_solver(M.gram)(linalg.identity(M.rank))  # G^-1 = X/d
    assert all(2 * a % d == 0 for row in X for a in row)
    dual_scaled = Lattice([[2 * a // d for a in row] for row in X])
    gens, classes = [], []
    order = data.form.order()
    for y in en.short_vectors(dual_scaled, bound // 2, up_to_sign=True):
        w = linalg.vec_mat(y.coords, X)  # the dual vector is w/d
        assert all(2 * a % d == 0 for a in w)
        t = M.vector([2 * a // d for a in w])
        if t.divisibility() != 2:
            continue
        cls = data.class_coords(w, d)
        if not any(cls):
            continue
        if len(df.subgroup(classes + [cls], data.form.factors)) > \
                len(df.subgroup(classes, data.form.factors)):
            gens.append(t)
            classes.append(cls)
        if len(df.subgroup(classes, data.form.factors)) == order:
            break
    assert len(df.subgroup(classes, data.form.factors)) == order
    return gens


def _s3exo_generators(M):
    # elements (2e, -e, -e) over the roots e of one E8(-1) copy
    N3 = M.ambient
    solve = linalg.rowspace_solver(M.coords)
    gens = []
    for i in range(8):
        amb = [0] * 24
        amb[i] = 2
        amb[8 + i] = -1
        amb[16 + i] = -1
        sol = solve([amb])
        assert sol is not None and sol[1] == 1
        gens.append(M.vector(sol[0][0]))
    return gens


def test_d12_exclusion_grams():
    # t_gram [[2n-2, n-1], [n-1, -2]] and a divisor of square -2n-6
    for n, t_gram, divisor_norm in [(2, [[2, 1], [1, -2]], -10),
                                    (3, [[4, 2], [2, -2]], -12)]:
        verdict = walls.exclusion_witness("D12+(-2)", n)
        assert verdict.status == "obstructed"
        assert verdict.wall.t_gram == t_gram
        assert verdict.wall.divisor_norm == divisor_norm


def test_exclusion_witnesses_pass_wall_predicate():
    for name, n in walls.EXCLUSION_LEVELS.items():
        verdict = walls.exclusion_witness(name, n)
        assert verdict.status == "obstructed"
        assert verdict.wall.is_wall


def test_bw16_needs_odd_n():
    verdict = walls.exclusion_witness("BW16(-1)", 2)
    assert verdict.status == "inconclusive"
    verdict = walls.exclusion_witness("S_3exo", 3)  # n != 1 mod 3
    assert verdict.status == "inconclusive"


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
    # mukai_gluing computes both forms for the anti-isometry search and
    # glue_overlattice reuses them: two Smith normal forms, not four
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
    _glue_d12_exclusion_pair(monkeypatch)
    assert data == ["D12+(-2)", "U(2)^4+(-2)^4"] and snfs == [12, 12]


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
