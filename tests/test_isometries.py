import pytest

from k3lat import catalog, discforms as df
from k3lat import isometries as iso
from k3lat import linalg
from k3lat.gram_data import E8, U
from k3lat.lattice import Lattice


def test_is_isometry_basics():
    L = Lattice(U, name="U")
    assert iso.is_isometry(L, linalg.identity(2))
    assert iso.is_isometry(L, [[-1, 0], [0, -1]])
    assert not iso.is_isometry(L, [[1, 1], [0, 1]])
    assert iso.is_isometry(L, [[0, 1], [1, 0]])


def test_is_isometry_degenerate_needs_unit_determinant():
    L = Lattice([[2, 0], [0, 0]], allow_degenerate=True)
    P = [[1, 0], [0, 2]]  # P G P^t = G, det P = 2
    assert linalg.mat_mul(linalg.mat_mul(P, L.gram),
                          linalg.transpose(P)) == L.gram
    assert not iso.is_isometry(L, P)
    assert iso.is_isometry(L, [[1, 0], [0, -1]])


def test_leech_translation_is_isometry():
    model = catalog.leech_model()
    g = model.translation_isometry()  # verified integral on construction
    assert iso.is_isometry(model.lattice, g.matrix)
    assert g.order() == 23


def test_group_closure_minus_identity():
    L = Lattice(E8).rescale(-1)
    G = iso.group_closure([iso.minus_identity(L)])
    assert G.order == 2


def test_group_closure_cyclic_three():
    g = catalog.e8_cube_cycle_isometry()
    G = iso.group_closure([g])
    assert G.order == 3


def test_group_closure_glue_translation_group():
    frame = catalog.holy_construction("N20")
    seed = [1, 0, 1, 4, 4, 1]
    words = [[seed[0]] + [seed[1:][(i + r) % 5] for i in range(5)]
             for r in range(5)]
    G = iso.group_closure([frame.glue_translation(w) for w in words])
    assert G.order == 125


def test_group_closure_cap():
    g = catalog.e8_cube_cycle_isometry()
    with pytest.raises(RuntimeError, match="cap"):
        iso.group_closure([g], cap=2)


def test_invariant_trivial_group():
    L = Lattice(E8).rescale(-1)
    T = iso.invariant_lattice([iso.identity_isometry(L)])
    assert T.rank == L.rank
    S = T.orthogonal_complement()
    assert S.rank == 0


@pytest.mark.parametrize("call", [
    iso.group_closure, iso.invariant_lattice, iso.coinvariant_lattice,
    lambda gens: iso.leech_pair_check(Lattice(E8).rescale(-1), gens)],
    ids=["group_closure", "invariant", "coinvariant", "leech_pair_check"])
def test_empty_generator_list_is_refused(call):
    with pytest.raises(ValueError, match="need at least one generator"):
        call([])


def test_order11_invariant_coinvariant():
    g = catalog.n22_order11_isometry()
    T = iso.invariant_lattice([g])
    S = T.orthogonal_complement()
    assert T.rank == 4 and S.rank == 20
    assert abs(S.det()) == 121


def test_order23_coinvariant_rank22():
    model = catalog.leech_model()
    S = iso.coinvariant_lattice([model.translation_isometry()])
    assert S.rank == 22


def test_rank_additivity_and_orthogonality():
    for g in [catalog.e8_cube_swap_isometry(), catalog.n22_order11_isometry()]:
        L = g.lattice
        T = iso.invariant_lattice([g])
        S = T.orthogonal_complement()
        assert T.rank + S.rank == L.rank
        for t in T.coords:
            for s in S.coords:
                assert linalg.dot(t, s, L.gram) == 0


def test_coinvariant_is_group_stable():
    g = catalog.n22_order11_isometry()
    S = iso.coinvariant_lattice([g])
    restricted = iso.restrict_isometry(g, S)
    assert iso.is_isometry(S, restricted.matrix)


def test_torsion_check():
    for gens in ([catalog.e8_cube_cycle_isometry()],
                 [catalog.e8_cube_swap_isometry()],
                 [catalog.n22_order11_isometry()]):
        G = iso.group_closure(gens)
        assert iso.torsion_check(G)


def test_torsion_index_power_of_group_order():
    g = catalog.e8_cube_cycle_isometry()
    L = g.lattice
    T = iso.invariant_lattice([g])
    S = T.orthogonal_complement()
    M = T.coords + S.coords
    D, _, _ = linalg.snf(M)
    index = 1
    for i in range(L.rank):
        index *= D[i][i]
    # index of T + S in L divides a power of |G| = 3
    while index % 3 == 0:
        index //= 3
    assert index == 1


def test_discriminant_action_minus_identity_on_minus2():
    L = Lattice([[-2]])
    assert iso.discriminant_action(L, iso.minus_identity(L)) == "trivial"


def test_discriminant_action_order11():
    g = catalog.n22_order11_isometry()
    S = iso.coinvariant_lattice([g])
    restricted = iso.restrict_isometry(g, S)
    sub = Lattice(S.gram, name="S11")
    assert iso.discriminant_action(sub, iso.Isometry(sub, restricted.matrix)) \
        == "trivial"


def test_discriminant_action_nontrivial():
    L = Lattice([[-2]]) + Lattice([[2]])
    P = [[-1, 0], [0, 1]]
    act = iso.discriminant_action(L, iso.Isometry(L, P))
    assert act == "trivial"  # -g = g on 2-torsion
    L2 = Lattice([[-6]])
    act = iso.discriminant_action(L2, iso.minus_identity(L2))
    assert act != "trivial"  # -1 is not 1 mod 6 on Z/6


def test_leech_pair_check_e8_minus_2():
    swap = catalog.e8_cube_swap_isometry()
    S = iso.coinvariant_lattice([swap])
    sub = Lattice(S.gram, name="E8(-2)")
    restricted = iso.restrict_isometry(swap, S)
    report = iso.leech_pair_check(sub, [iso.Isometry(sub, restricted.matrix)])
    assert all(report.values()), report


def test_leech_pair_check_fails_on_roots():
    L = Lattice(E8).rescale(-1)
    report = iso.leech_pair_check(L, [iso.minus_identity(L)])
    assert not report["no_minus_two_vectors"]


def test_leech_pair_minus_identity_on_leech():
    L = catalog.leech()
    report = iso.leech_pair_check(L, [iso.minus_identity(L)])
    assert all(report.values()), report


def test_glue_translation_identity():
    frame = catalog.holy_construction("N20")
    g = frame.glue_translation([0] * 6)
    assert g.matrix == linalg.identity(24)


def test_glue_translation_rejects_nonword():
    frame = catalog.holy_construction("N20")
    with pytest.raises(ValueError, match="not in the glue code"):
        frame.glue_translation([1, 0, 0, 0, 0, 0])


def test_order5_class_census():
    frame = catalog.holy_construction("N20")
    ranks = {}
    for w in frame.code:
        if not any(w):
            continue
        g = frame.glue_translation(w)
        r = iso.invariant_lattice([g]).rank
        ranks[r] = ranks.get(r, 0) + 1
    assert ranks == {0: 40, 8: 60, 4: 24}


def test_order7_words():
    frame = catalog.holy_construction("N17")
    g1 = frame.glue_translation([1, 2, 1, 6])
    assert iso.coinvariant_lattice([g1]).rank == 24
    g2 = frame.glue_translation([2, 1, 3, 0])
    assert iso.coinvariant_lattice([g2]).rank == 18


def test_order13_no_fixed_points():
    frame = catalog.holy_construction("N10")
    word = next(w for w in frame.code if any(w))
    g = frame.glue_translation(word)
    assert g.order() == 13
    assert iso.invariant_lattice([g]).rank == 0


def test_extend_by_identity_trivial():
    S = Lattice([[-2]], name="S")
    T = Lattice([[2]], name="T")
    g = df.glue_overlattice(df.discriminant_data(S), df.discriminant_data(T),
                            df.GlueMap([[1]], [[1]]))
    ext = iso.extend_by_identity(iso.identity_isometry(S), g)
    assert ext.matrix == linalg.identity(2)


def test_extend_by_identity_rejects_nontrivial_action():
    S = Lattice([[-6]], name="S")
    T = Lattice([[6]], name="T")
    glued = df.glue_full(S, T).witness["gluing"]
    with pytest.raises(ValueError, match="discriminant"):
        iso.extend_by_identity(iso.minus_identity(S), glued)


def test_extend_by_identity_minus_on_e8_minus_2():
    S = Lattice(E8).rescale(-2)
    S.name = "E8(-2)"
    T = Lattice(E8).rescale(2)
    T.name = "E8(2)"
    glued = df.glue_full(S, T).witness["gluing"]
    ext = iso.extend_by_identity(iso.minus_identity(S), glued)
    L = glued.lattice
    assert iso.is_isometry(L, ext.matrix)
    assert ext.order() == 2
    # fixes the T part pointwise
    for row in glued.t_sub.coords:
        assert linalg.vec_mat(row, ext.matrix) == row


def test_sign_change_involution_ranks():
    model = catalog.leech_model()
    octad = model.codewords_of_weight(8)[0]
    dodecad = model.codewords_of_weight(12)[0]
    sixteen = model.codewords_of_weight(16)[0]
    # coinvariant ranks 8, 12, 16, 24: the involution zoo
    for mask, rank in ((octad, 8), (dodecad, 12), (sixteen, 16)):
        g = model.sign_change_isometry(mask)
        assert g.order() == 2
        assert iso.coinvariant_lattice([g]).rank == rank
    assert iso.coinvariant_lattice(
        [iso.minus_identity(model.lattice)]).rank == 24


def test_find_isometry_identifies_e8_minus_2():
    swap = catalog.e8_cube_swap_isometry()
    S = iso.coinvariant_lattice([swap])
    sub = Lattice(S.gram)
    target = Lattice(E8).rescale(-2)
    found = iso.find_isometry(sub, target)
    assert found.status == "yes"
    T = found.witness["images"]
    assert linalg.mat_mul(linalg.mat_mul(T, target.gram),
                          linalg.transpose(T)) == sub.gram


def test_find_isometry_rejects_unequal():
    A = Lattice([[2]])
    B = Lattice([[4]])
    assert iso.find_isometry(A, B).status == "no"


def test_isometry_order_cap(monkeypatch):
    monkeypatch.setattr(iso, "GROUP_ORDER_CAP", 1)
    with pytest.raises(iso.GroupOrderCap, match="cap of 1"):
        iso.minus_identity(Lattice(E8)).order()
