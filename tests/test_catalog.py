import functools
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

import ambient_reference
import holy_reference
import niemeier_reference
from k3lat import catalog, discforms as df, enumeration as en
from k3lat import isometries as iso
from k3lat import linalg
from k3lat.gram_data import NIEMEIER_ROWS, S_LATTICE_2_9_3_6
from k3lat.lattice import Lattice

COXETER = {name: row[2] for name, row in NIEMEIER_ROWS.items()}
HOLY_ROWS = [n for n in sorted(NIEMEIER_ROWS) if NIEMEIER_ROWS[n][0] != "E8"]


def test_named_elementary():
    assert catalog.named("U").gram == [[0, 1], [1, 0]]
    E8m = catalog.named("E8(-1)")
    assert E8m.rank == 8 and E8m.det() == 1 and E8m.is_even()
    assert len(en.short_vectors(E8m, 2)) == 240
    A23 = catalog.named("A2(3)")
    assert A23.gram == [[6, -3], [-3, 6]]


def test_named_l_n():
    L2 = catalog.named("L_2")
    assert L2.rank == 23 and L2.signature() == (3, 20) and abs(L2.det()) == 2
    L1 = catalog.named("K3")
    assert L1.rank == 22 and L1.signature() == (3, 19) and abs(L1.det()) == 1
    L4 = catalog.l_n(4)
    e = [0] * 22 + [1]
    assert linalg.dot(e, e, L4.gram) == -6


def test_named_mukai():
    M = catalog.named("L_M")
    assert M.rank == 24 and M.signature() == (4, 20) and M.det() == 1
    assert M.is_even()


def test_named_unknown():
    with pytest.raises(ValueError, match="catalog"):
        catalog.named("F4")


def test_leech_characterization():
    L = catalog.leech()
    assert L.rank == 24
    assert L.det() == 1
    assert L.signature() == (0, 24)
    assert L.is_even()
    assert en.min_norm(L) == -4
    assert not en.has_roots(L)


def test_golay_code_weights():
    model = catalog.leech_model()
    code = model.golay_code()
    assert len(code) == 4096
    assert len(model.codewords_of_weight(8)) == 759
    assert len(model.codewords_of_weight(12)) == 2576


@pytest.mark.parametrize("name", sorted(NIEMEIER_ROWS))
def test_niemeier_root_counts(name):
    N = catalog.niemeier(name)
    assert N.rank == 24 and N.det() == 1 and N.is_even()
    assert N.signature() == (0, 24)
    roots = len(en.short_vectors(N, 2))
    assert roots == 24 * COXETER[name]


@pytest.mark.parametrize("name", HOLY_ROWS)
def test_holy_construction(name):
    frame = catalog.holy_construction(name)
    L = frame.leech
    assert (L.rank, L.det(), L.is_even()) == (24, 1, True)
    assert L.signature() == (0, 24)
    assert not en.has_roots(L)
    hole = frame.hole
    assert hole.det() == 1 and hole.rank == 24
    assert len(en.short_vectors(hole, 2)) == 24 * COXETER[name]


@functools.cache
def _holy_reference(name):
    return holy_reference.HolyFrame(name)


@pytest.mark.parametrize("name", HOLY_ROWS)
def test_holy_frame_matches_all_codeword_build(name):
    # the generators span what every codeword spans, HNF for HNF
    frame, ref = catalog.holy_construction(name), _holy_reference(name)
    assert frame.basis == ref.basis
    assert frame.leech.gram == ref.leech.gram
    assert frame.hole_basis == ref.hole_basis
    assert frame.hole.gram == ref.hole.gram


@pytest.mark.parametrize("name", HOLY_ROWS)
def test_niemeier_model_is_the_hole_of_the_holy_frame(name):
    # the former A-type build: same Gram and name, its basis rows doubled
    basis, ref = niemeier_reference.niemeier_model(name)
    model = catalog.niemeier_model(name)
    assert model.lattice.gram == ref.gram
    assert model.lattice.name == ref.name == name
    assert model.basis == [[2 * a for a in row] for row in basis]


@functools.cache
def _root_solver(name):
    return linalg.rowspace_solver(_holy_reference(name).f_rows)


@settings(max_examples=240, deadline=None)
@given(st.sampled_from(HOLY_ROWS), st.integers(0, 4095), st.integers(0, 4095))
def test_glue_cocycle_lies_in_the_root_span(name, i, j):
    """h_{w+w'} - h_w - h_{w'} + h_0 is an integer combination of the
    simple roots with coefficient sum 0 mod n + 1: why the glue code's
    generators span what all its words span (see catalog.HolyFrame)."""
    ref = _holy_reference(name)
    size = ref.n + 1
    w, v = ref.code[i % len(ref.code)], ref.code[j % len(ref.code)]
    s = tuple((a + b) % size for a, b in zip(w, v))
    h = ref.h_rows
    cocycle = [a - b - c + d for a, b, c, d in
               zip(h[s], h[w], h[v], h[(0,) * ref.m])]
    solved = _root_solver(name)([cocycle])
    assert solved is not None and solved[1] == 1
    assert sum(solved[0][0]) % size == 0


def test_holy_frame_feeds_hnf_only_the_generators(monkeypatch):
    # N23: 2m = 48 extended roots and 23 generator words, not 4 096
    # codewords; the codewords are listed only when code is first read
    rows_in, codes = [], []
    hnf, glue_code = catalog.linalg.hnf, catalog.glue_code

    def counting_hnf(rows):
        rows_in.append(len(rows))
        return hnf(rows)

    def counting_glue_code(name):
        codes.append(name)
        return glue_code(name)

    monkeypatch.setattr(catalog.linalg, "hnf", counting_hnf)
    monkeypatch.setattr(catalog, "glue_code", counting_glue_code)
    frame = catalog.HolyFrame("N23")
    assert rows_in and max(rows_in) <= 2 * 24 + 23
    assert codes == []
    assert len(frame.code_set) == 4096 and codes == ["N23"]


def test_holy_rejects_e8_row():
    with pytest.raises(ValueError, match="pure A-type"):
        catalog.holy_construction("N3")


# -- coordinate-model isometries against the dense ambient route ---------------

QUADRATIC_RESIDUES = sorted({i * i % 23 for i in range(1, 23)})
GLUE_FRAMES = ("N22", "N20", "N17", "N10")


@functools.cache
def _reference_solver(model):
    return linalg.rowspace_solver(model.basis)


def _dense(model, perm, signs=None):
    """The matrix the dense route builds for i -> perm[i] (times signs)."""
    return ambient_reference.isometry_from_ambient_map(
        model.lattice, model.basis,
        ambient_reference.ambient_matrix(perm, signs),
        solver=_reference_solver(model)).matrix


def _residue_perm(k, shift=0):
    return [(k * i + shift) % 23 for i in range(23)] + [23]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4095), st.sampled_from(QUADRATIC_RESIDUES),
       st.integers(0, 22))
def test_leech_isometries_match_the_dense_route(i, k, shift):
    model = catalog.leech_model()
    mask = model.golay_code()[i]
    signs = [-1 if mask >> j & 1 else 1 for j in range(24)]
    assert (model.sign_change_isometry(mask).matrix
            == _dense(model, range(24), signs))
    assert (model.multiplication_isometry(k).matrix
            == _dense(model, _residue_perm(k)))
    assert (model.permutation_isometry(_residue_perm(1, shift)).matrix
            == _dense(model, _residue_perm(1, shift)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GLUE_FRAMES), st.integers(0, 4095))
def test_glue_translations_match_the_dense_route(name, i):
    frame = catalog.holy_construction(name)
    word = frame.code[i % len(frame.code)]
    size = frame.n + 1
    perm = [j * size + (k + t) % size
            for j, t in enumerate(word) for k in range(size)]
    assert frame.glue_translation(word).matrix == _dense(frame, perm)


def test_copy_permutations_match_the_dense_route():
    n22, n3 = catalog.niemeier_model("N22"), catalog.niemeier_model("N3")
    rotate = list(range(3)) + [3 * (j % 11 + 1) + k
                               for j in range(1, 12) for k in range(3)]
    assert catalog.n22_order11_isometry().matrix == _dense(n22, rotate)
    swap = list(range(8, 16)) + list(range(8)) + list(range(16, 24))
    assert catalog.e8_cube_swap_isometry().matrix == _dense(n3, swap)
    cycle = list(range(8, 24)) + list(range(8))
    assert catalog.e8_cube_cycle_isometry().matrix == _dense(n3, cycle)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2 ** 24 - 2))
def test_sign_change_off_the_code_is_refused(mask):
    model = catalog.leech_model()
    assume(mask not in set(model.golay_code()))
    with pytest.raises(ValueError,
                       match="^sign changes must be supported on a codeword$"):
        model.sign_change_isometry(mask)
    # the map itself leaves the lattice, on both routes
    signs = [-1 if mask >> j & 1 else 1 for j in range(24)]
    message = "^ambient map does not preserve the lattice$"
    with pytest.raises(ValueError, match=message):
        model.isometry(range(24), signs)
    with pytest.raises(ValueError, match=message):
        _dense(model, range(24), signs)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GLUE_FRAMES), st.data())
def test_glue_translation_off_the_code_is_refused(name, data):
    frame = catalog.holy_construction(name)
    size = frame.n + 1
    word = tuple(data.draw(st.lists(st.integers(0, size - 1),
                                    min_size=frame.m, max_size=frame.m)))
    assume(word not in frame.code_set)
    with pytest.raises(ValueError,
                       match=re.escape(f"word {word} is not in the glue code")):
        frame.glue_translation(word)


def test_coordinate_model_vector():
    model = catalog.leech_model()
    v = model.vector([4, 4] + [0] * 22)
    assert linalg.dot(v, v, model.lattice.gram) == -4
    with pytest.raises(ValueError, match="not in the Leech lattice"):
        model.vector([4] + [0] * 23)


def test_exceptional_bw16():
    L = catalog.exceptional("BW16(-1)")
    assert L.rank == 16 and L.det() == 2 ** 8 and L.is_even()
    assert en.min_norm(L) == -4
    q = df.discriminant_form(L)
    assert q.factors == [2] * 8


def test_exceptional_d12():
    L = catalog.exceptional("D12+(-2)")
    assert L.rank == 12 and L.is_even()
    q = df.discriminant_form(L)
    assert q.factors == [2] * 12
    assert not en.has_roots(L)


def test_exceptional_s3exo():
    S = catalog.exceptional("S_3exo")
    assert S.rank == 16
    q = df.discriminant_form(S)
    assert q.factors == [3] * 8
    # complement in E8(-1)^3 is E8(-3) on the nose
    C = S.orthogonal_complement()
    assert C.gram == [[-3 * a for a in row] for row in catalog.gram_E(8)]


def test_s_lattice_censuses():
    for name, i, j in (("2^5 3^10", 5, 10), ("2^9 3^6", 9, 6)):
        L = catalog.exceptional(name)
        c = en.norm_census(L, 6)
        assert (c.count(-4), c.count(-6)) == (i, j), name


def test_w_minus_1():
    W = catalog.exceptional("W(-1)")
    assert W.rank == 18
    assert df.discriminant_form(W).factors == [3] * 5
    assert not en.has_roots(W)
    M = W.orthogonal_complement()
    c = en.norm_census(M, 6)
    assert (c.count(-4), c.count(-6)) == (27, 36)


def test_s_pk3_ranks():
    expected = {"S_2.K3": 8, "S_3.K3": 12, "S_5.K3": 16, "S_7.K3": 18}
    for name, rank in expected.items():
        S = catalog.exceptional(name)
        assert S.rank == rank, name
        assert not en.has_roots(S), name
        plus, minus = S.signature()
        assert plus == 0, name


def test_s5exo_rank_and_genus_partner():
    S = catalog.exceptional("S_5exo")
    assert S.rank == 20 and abs(S.det()) == 125
    # its Mukai complement lies in the genus of the positive 2^5 3^10 form
    T = catalog.pos_2_5_3_10()
    assert en.min_norm(T) == 4
    qS = df.discriminant_form(S)
    qT = df.discriminant_form(T)
    assert df.find_anti_isometry(qS, qT).status == "yes"


def test_s11_det_121():
    S = catalog.exceptional("S_11.K3[2]")
    assert S.rank == 20 and abs(S.det()) == 121
    for T in catalog.det121_forms():
        assert T.det() == 121
        assert df.find_anti_isometry(df.discriminant_form(S),
                                     df.discriminant_form(T)).status == "yes"


def test_2936_in_leech_matches_printed_gram():
    S = catalog.s_lattice_2936_in_leech()
    assert S.rank == 4
    found = iso.find_isometry(Lattice(S.gram), Lattice(S_LATTICE_2_9_3_6))
    assert found.status == "yes"


def test_leech_pairs_for_catalog_coinvariants():
    # every S_p.K3 coinvariant comes from a Leech pair
    frames = {"S_3.K3": ("N22", 6), "S_5.K3": ("N20", 4), "S_7.K3": ("N17", 3)}
    for name, (frame_name, weight) in frames.items():
        frame = catalog.holy_construction(frame_name)
        word = frame.words_of_weight(weight)[0]
        g = frame.glue_translation(word)
        S = iso.coinvariant_lattice([g])
        sub = Lattice(S.gram, name=name)
        restricted = iso.Isometry(sub, iso.restrict_isometry(g, S).matrix)
        report = iso.leech_pair_check(sub, [restricted])
        assert all(report.values()), (name, report)


def test_milgram_battery_over_catalog():
    lattices = [
        catalog.named("U"),
        catalog.named("U(2)"),
        catalog.named("U(3)"),
        catalog.named("A2"),
        catalog.named("A2(-1)"),
        catalog.named("A2(3)"),
        catalog.named("A2(-3)"),
        catalog.named("A3"),
        catalog.named("A4(-1)"),
        catalog.named("D4"),
        catalog.named("E6(-1)"),
        catalog.named("E7"),
        catalog.named("E8(-1)"),
        catalog.named("E8(-2)"),
        catalog.named("E8(-3)"),
        catalog.leech(),
        catalog.niemeier("N22"),
        catalog.niemeier("N23"),
        catalog.mukai(),
        catalog.l_n(1),
        catalog.l_n(2),
        catalog.l_n(3),
        catalog.l_n(6),
        catalog.exceptional("BW16(-1)"),
        catalog.exceptional("D12+(-2)"),
        catalog.exceptional("S_3exo"),
        catalog.exceptional("2^5 3^10"),
        catalog.exceptional("2^9 3^6"),
        catalog.exceptional("W(-1)"),
        catalog.exceptional("S_11.K3[2]"),
        catalog.exceptional("S_5exo"),
        catalog.exceptional("S_3.K3"),
        catalog.exceptional("S_5.K3"),
        catalog.exceptional("S_7.K3"),
    ]
    assert len(lattices) >= 25
    for L in lattices:
        if not L.is_even():
            continue
        plus, minus = L.signature()
        sigma = df.milgram_signature(df.discriminant_form(L))
        assert sigma == (plus - minus) % 8, L.name


def test_construction_cache_returns_same_object():
    assert catalog.leech() is catalog.leech()
    assert catalog.niemeier("N22") is catalog.niemeier("N22")
