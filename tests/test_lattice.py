import pytest
from hypothesis import given, settings, strategies as st

from k3lat import linalg
from k3lat.gram_data import U, A2, E8, gram_D
from k3lat.isometries import Isometry
from k3lat.lattice import Lattice


def LU():
    return Lattice(U, name="U")


def LE8(sign=1):
    return Lattice([[sign * a for a in row] for row in E8], name="E8")


def test_determinant_hyperbolic():
    assert LU().det() == -1


def test_determinant_e8_minus():
    assert LE8(-1).det() == 1


def test_determinant_det121_forms():
    from k3lat.gram_data import DET121_GENUS
    for G in DET121_GENUS:
        assert linalg.det(G) == 121


def test_signature():
    assert LU().signature() == (1, 1)
    assert LE8(-1).signature() == (0, 8)
    assert LE8().signature() == (8, 0)


def test_signature_degenerate_rejected():
    L = Lattice([[0]], allow_degenerate=True)
    with pytest.raises(ValueError):
        L.signature()


def test_is_even():
    assert LU().is_even()
    assert not Lattice([[1]]).is_even()
    # odd unimodular forms become even after rescaling by 2
    d12p = Lattice([[1]])
    assert d12p.rescale(-2).is_even()


def test_rescale():
    U2 = LU().rescale(2)
    assert U2.det() == -4
    assert LE8().rescale(-1).gram == LE8(-1).gram
    A23 = Lattice(A2).rescale(3)
    assert A23.gram == [[6, -3], [-3, 6]]
    with pytest.raises(ValueError):
        LU().rescale(0)


def test_direct_sum():
    UU = LU() + LU()
    assert UU.rank == 4 and UU.det() == 1
    twelve = Lattice(A2).rescale(-1)
    total = twelve
    for _ in range(11):
        total = total + twelve
    assert total.rank == 24 and abs(total.det()) == 3 ** 12


def test_direct_sum_det_multiplicative():
    A = Lattice(A2)
    B = LU()
    assert (A + B).det() == A.det() * B.det()


def test_signature_respects_sums():
    A = Lattice(A2)
    s1 = A.signature()
    s2 = LU().signature()
    s = (A + LU()).signature()
    assert s == (s1[0] + s2[0], s1[1] + s2[1])


def test_sublattice_isotropic_flagged_degenerate():
    S = LU().sublattice([[1, 0]])
    assert S.degenerate and S.gram == [[0]]


def test_sublattice_norm_two():
    S = LU().sublattice([[1, 1]])
    assert S.gram == [[2]]


def test_sublattice_rejects_dependent():
    with pytest.raises(ValueError, match="dependent"):
        LU().sublattice([[1, 1], [2, 2]])


def test_saturation_halves_doubled_vector():
    Z2 = Lattice([[1, 0], [0, 1]])
    S = Z2.sublattice([[2, 0]])
    assert S.saturation().coords == [[1, 0]]


def test_saturation_idempotent():
    Z2 = Lattice([[1, 0], [0, 1]])
    S = Z2.sublattice([[2, 4]]).saturation()
    assert S.saturation().coords == S.coords


def test_orthogonal_complement_ranks():
    UU = LU() + LU()
    S = UU.sublattice([[1, 0, 0, 0]])
    assert S.orthogonal_complement().rank == 3

    # block structure: complement of the last factor of U^3+(-2)
    L = LU() + LU() + LU() + Lattice([[-2]])
    S = L.sublattice([[0, 0, 0, 0, 0, 0, 1]])
    C = S.orthogonal_complement()
    assert C.rank == 6 and C.det() == -1


def test_double_complement_is_saturation():
    L = LE8(-1)
    S = L.sublattice([[2, 0, 0, 0, 0, 0, 0, 0], [0, 2, 4, 0, 0, 0, 0, 0]])
    back = S.orthogonal_complement().orthogonal_complement()
    assert back.coords == S.saturation().coords


def test_complement_rank_additivity():
    L = LE8(-1)
    S = L.sublattice([[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0, 0]])
    assert S.rank + S.orthogonal_complement().rank == L.rank


def test_divisibility():
    assert LU().vector([1, 0]).divisibility() == 1
    assert LU().rescale(2).vector([1, 1]).divisibility() == 2
    # generator of the (2-2n) factor inside L_n pairs only with itself
    n = 4
    L = LU() + Lattice([[2 - 2 * n]])
    assert L.vector([0, 0, 1]).divisibility() == 2 * n - 2
    with pytest.raises(ValueError):
        LU().vector([0, 0]).divisibility()


def test_vector_arithmetic():
    L = LU()
    v = L.vector([1, 2])
    w = L.vector([0, 1])
    assert (v + w).coords == [1, 3]
    assert (v - w).coords == [1, 1]
    assert (-v).norm() == v.norm() == 4
    assert v.dot(w) == 1


def test_vector_to_ambient():
    L = LU() + LU()
    S = L.sublattice([[1, 1, 0, 0], [0, 0, 1, 1]])
    v = S.vector([1, 1]).to_ambient()
    assert v.coords == [1, 1, 1, 1]


def test_json_roundtrip():
    L = LE8(-1)
    obj = L.to_json()
    L2 = Lattice.from_json(obj)
    assert L2.gram == L.gram and L2.name == "E8"
    S = L.sublattice([[1, 0, 0, 0, 0, 0, 0, 0]])
    obj = S.to_json()
    S2 = Lattice.from_json(obj, ambient=L)
    assert S2.coords == S.coords


def test_d_lattice_det():
    assert linalg.det(gram_D(12)) == 4


@pytest.mark.parametrize("gram", [[[2.7, 1], [1, 2]], [["2", 1], [1, 2]],
                                  [[True, 0], [0, 2]], [[2, 1], [1]],
                                  "", {}, 5, [[2, 1], "ab"]],
                         ids=["float", "string", "bool", "ragged",
                              "empty-string", "dict", "scalar", "string-row"])
def test_gram_entries_must_be_ints(gram):
    with pytest.raises(ValueError, match="integer"):
        Lattice(gram)


def test_vector_and_isometry_entries_must_be_ints():
    A = Lattice(A2)
    for coords in ([1.0, 0], ["1", 0], [True, 0], [1]):
        with pytest.raises(ValueError, match="integer"):
            A.vector(coords)
    for matrix in ([[1.0, 0], [0, 1]], [[True, 0], [0, 1]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="integer"):
            Isometry(A, matrix)
    assert A.vector((1, -1)).coords == [1, -1]


@st.composite
def small_grams(draw):
    """Symmetric integer Grams of rank 0-4, degenerate ones included."""
    n = draw(st.integers(0, 4))
    cells = draw(st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    G = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i, n)):
        G[i][j] = G[j][i] = cells[k]
    return G


@settings(max_examples=200, deadline=None)
@given(small_grams(), small_grams())
def test_direct_sum_det_is_the_block_det(A, B):
    # the sum takes the product of the summands' determinants; a zero
    # product must still mark it degenerate
    S = Lattice(A, allow_degenerate=True).direct_sum(
        Lattice(B, allow_degenerate=True))
    n, m = len(A), len(B)
    block = [row + [0] * m for row in A] + [[0] * n + row for row in B]
    assert S.gram == block
    assert S.det() == linalg.det(block)
    assert S.degenerate == (linalg.det(block) == 0 and n + m > 0)
