import itertools
import math
import os
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from k3lat import catalog, linalg
from k3lat import enumeration as en
from k3lat.gram_data import (A2, E8, U, S_LATTICE_2_5_3_10, S_LATTICE_2_9_3_6,
                             gram_D)
from k3lat.lattice import Lattice


def e8_coordinate_oracle(norm_times_4):
    """Independent count of E8 vectors by scanning the D8+glue model.

    E8 at twice its coordinates is {x in Z^8 : all x_i same parity,
    sum x_i = 0 mod 4} with norm (x.x)/4. The even class is scanned as
    x = 2y with sum(y) even, the odd class directly over odd entries.
    """
    assert norm_times_4 <= 16
    count = 0
    box = math.isqrt(norm_times_4 // 4)  # 4 sum(y_i^2) = N bounds each |y_i|
    for y in itertools.product(range(-box, box + 1), repeat=8):
        if any(y) and sum(y) % 2 == 0 and 4 * sum(a * a for a in y) == norm_times_4:
            count += 1
    for x in itertools.product((-3, -1, 1, 3), repeat=8):
        if sum(x) % 4 == 0 and sum(a * a for a in x) == norm_times_4:
            count += 1
    return count


def test_a1_minus_two():
    L = Lattice([[-2]])
    vecs = en.short_vectors(L, 2, up_to_sign=True)
    assert len(vecs) == 1 and vecs[0].norm() == -2


def test_e8_roots_against_brute_force():
    L = Lattice(E8, name="E8")
    assert e8_coordinate_oracle(8) == 240
    assert len(en.short_vectors(L, 2)) == 240


def test_e8_norm4_against_brute_force():
    L = Lattice(E8, name="E8")
    oracle = e8_coordinate_oracle(16)
    assert oracle == 2160
    assert en.norm_census(L, 4, up_to_sign=False).count(4) == oracle


def test_s_lattice_censuses():
    L = Lattice(S_LATTICE_2_5_3_10)
    c = en.norm_census(L, 6)
    assert c.count(-4) == 5 and c.count(-6) == 10
    L = Lattice(S_LATTICE_2_9_3_6)
    c = en.norm_census(L, 6)
    assert c.count(-4) == 9 and c.count(-6) == 6


def test_census_rejects_indefinite():
    with pytest.raises(ValueError):
        en.norm_census(Lattice(U), 2)


def test_min_norm():
    assert en.min_norm(Lattice(E8).rescale(-2)) == -4
    assert en.min_norm(Lattice(E8)) == 2
    from k3lat.gram_data import POS_2_5_3_10
    assert en.min_norm(Lattice(POS_2_5_3_10)) == 4


def test_has_roots():
    assert en.has_roots(Lattice(E8).rescale(-1))
    assert not en.has_roots(Lattice(E8).rescale(-2))


def test_primitive_represents():
    A = Lattice(A2)
    T = A + A.rescale(3)
    v = en.primitive_represents(T, 2)
    assert v is not None and v.norm() == 2 and v.is_primitive()
    assert en.primitive_represents(Lattice([[-2]]), 2) is None


def test_primitive_vs_imprimitive():
    L = Lattice([[1]])
    assert en.primitive_represents(L, 4) is None  # only 2*e has norm 4
    assert en.primitive_represents(L, 1) is not None


def test_census_invariant_under_basis_permutation():
    L = Lattice(E8)
    c1 = en.norm_census(L, 4).counts
    perm = [3, 1, 4, 0, 5, 2, 7, 6]
    P = [[1 if j == perm[i] else 0 for j in range(8)] for i in range(8)]
    G2 = linalg.mat_mul(linalg.mat_mul(P, E8), linalg.transpose(P))
    c2 = en.norm_census(Lattice(G2), 4).counts
    assert c1 == c2


def test_census_even_norms_only_for_even_lattice():
    c = en.norm_census(Lattice(E8), 6)
    assert all(q % 2 == 0 for q in c.counts)


def test_census_scaling():
    cA = en.norm_census(Lattice(A2), 6).counts
    cA2 = en.norm_census(Lattice(A2).rescale(2), 12).counts
    assert cA2 == {2 * q: c for q, c in cA.items()}


def test_census_of_direct_sum_is_convolution():
    A = Lattice(A2)
    bound = 8
    cA = en.norm_census(A, bound, up_to_sign=False).counts
    cAA = en.norm_census(A + A, bound, up_to_sign=False).counts
    for q in range(2, bound + 1):
        expect = 2 * cA.get(q, 0)
        for q1, c1 in cA.items():
            if q - q1 in cA:
                expect += c1 * cA[q - q1]
        assert cAA.get(q, 0) == expect


def test_up_to_sign_halves_and_canonicalizes():
    L = Lattice(E8)
    full = en.short_vectors(L, 2)
    half = en.short_vectors(L, 2, up_to_sign=True)
    assert len(full) == 2 * len(half)
    for v in half:
        first = next(a for a in v.coords if a)
        assert first > 0


def test_cap_raises():
    with pytest.raises(en.EnumerationCap):
        en.short_vectors(Lattice(E8), 4, cap=10)
    with pytest.raises(en.EnumerationCap):
        en.norm_census(Lattice(E8), 4, cap=10)
    # 120 pairs of roots: the test must not stop at the first one
    with pytest.raises(en.EnumerationCap):
        en.has_roots(Lattice(E8).rescale(-1), cap=10)
    # E8 is even, so no vector of norm 3: all 120 root pairs are scanned
    with pytest.raises(en.EnumerationCap):
        en.primitive_represents(Lattice(E8), 3, cap=10)


def test_cap_counts_pairs_everywhere():
    # E8 has 240 roots, 120 +-pairs: a cap of 120 admits them all, in both
    # entry points that return both signs, and 119 stops both
    L = Lattice(E8)
    assert len(en.short_vectors(L, 2, cap=120)) == 240
    assert en.norm_census(L, 2, up_to_sign=False, cap=120).counts == {2: 240}
    with pytest.raises(en.EnumerationCap):
        en.short_vectors(L, 2, cap=119)
    with pytest.raises(en.EnumerationCap):
        en.norm_census(L, 2, up_to_sign=False, cap=119)


def test_census_holds_norms_not_vectors():
    # one 8-byte list slot per counted +-pair; a (norm, 8-tuple) leaf
    # would take about 166 bytes
    tracemalloc.start()
    try:
        census = en.norm_census(Lattice(E8), 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = sum(census.counts.values())
    assert pairs == 120 + 1080 + 3360 + 8760
    assert peak < 16 * pairs


def test_ordering_deterministic():
    L = Lattice(A2)
    v1 = [v.coords for v in en.short_vectors(L, 6)]
    v2 = [v.coords for v in en.short_vectors(L, 6)]
    assert v1 == v2 and v1 == sorted(v1, key=lambda c: (abs(linalg.dot(c, c, A2)), c))


# D4 in the basis P D4 P^t; LLL does not return the identity on it, so the
# vectors found in reduced coordinates are converted back to this basis.
D4_BASE_CHANGE = [[2, -1, 2, -1], [-1, 4, -6, 3], [1, -1, 2, -1],
                  [-2, 3, -5, 3]]


def test_output_order_after_base_change():
    P = D4_BASE_CHANGE
    L = Lattice(linalg.mat_mul(linalg.mat_mul(P, gram_D(4)),
                               linalg.transpose(P)))
    assert linalg.lll_reduce(L.gram)[1] != linalg.identity(4)
    assert [v.coords for v in en.short_vectors(L, 2, up_to_sign=True)] == [
        [0, 0, 5, 2], [1, -1, -4, 0], [1, -1, 1, 2], [1, 0, -9, -3],
        [1, 0, -6, -2], [1, 0, -4, -1], [1, 0, -1, 0], [2, -1, -8, -1],
        [2, -1, -5, 0], [2, 0, -10, -3], [3, -1, -14, -3], [3, -1, -9, -1]]
    assert en.primitive_represents(L, 2).coords == [1, 0, -1, 0]
    assert en.primitive_represents(L, 4).coords == [0, 0, 3, 1]
    assert en.primitive_represents(L.rescale(-1), -4).coords == [0, 0, 3, 1]


@st.composite
def definite_in_new_basis(draw):
    """(G, P, sign): G strictly diagonally dominant, P unimodular.

    Each diagonal entry exceeds its row's off-diagonal absolute sum by at
    least 1, so x G x^t >= sum x_i^2 and every vector of norm <= b lies
    in the box |x_i| <= isqrt(b).
    """
    n = draw(st.integers(2, 4))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            G[i][j] = G[j][i] = draw(st.integers(-2, 2))
    for i in range(n):
        G[i][i] = sum(abs(a) for a in G[i]) + draw(st.integers(1, 3))
    P = linalg.identity(n)
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        s = draw(st.sampled_from([-1, 1]))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    return G, P, draw(st.sampled_from([-1, 1]))


@settings(max_examples=100, deadline=None)
@given(definite_in_new_basis())
def test_enumeration_matches_box_scan(data):
    G, P, sign = data
    n = len(G)
    # far enough for a basis vector and for has_roots' norm 2
    bound = max(2, max(G[i][i] for i in range(n)))
    r = math.isqrt(bound)
    box = {}
    for x in itertools.product(range(-r, r + 1), repeat=n):
        q = linalg.dot(x, x, G)
        if any(x) and q <= bound:
            box[x] = sign * q
    L = Lattice([[sign * a for a in row]
                 for row in linalg.mat_mul(linalg.mat_mul(P, G),
                                           linalg.transpose(P))])

    assert en.norm_census(L, bound, up_to_sign=False).counts == \
        dict(Counter(box.values()))
    assert en.has_roots(L) == (2 * sign in box.values())
    assert en.min_norm(L) == sign * min(abs(q) for q in box.values())
    for m in range(1, bound + 1):
        found = en.primitive_represents(L, sign * m)
        expect = any(abs(q) == m and math.gcd(*x) == 1
                     for x, q in box.items())
        assert (found is not None) == expect
        if found is not None:
            assert found.norm() == sign * m and found.is_primitive()

    vecs = en.short_vectors(L, bound)
    assert {tuple(linalg.vec_mat(v.coords, P)): v.norm() for v in vecs} == box
    assert len(vecs) == len(box)
    assert [v.coords for v in vecs] == sorted(
        (v.coords for v in vecs), key=lambda c: (abs(linalg.dot(c, c, L.gram)), c))


# -- the split walk ----------------------------------------------------------
# With SPLIT_NODES = 0 every norm-only walk without stop_after deals its
# level n - SPLIT_DEPTH subtrees out from the first one; with SERIAL it
# never does. A split must return the serial leaves as a multiset, so the
# tests compare them sorted or as Counters, and every other walk must stay
# serial, element for element, with no fork. The `split` fixture
# (conftest) counts forks and sets the usable CPUs.

SERIAL = 1 << 62


def walk(G, bound, cap=en.DEFAULT_CAP, coords=True, nodes=0):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(en, "SPLIT_NODES", nodes)
        try:
            return en._enumerate_reduced(G, bound, cap, coords=coords)
        except en.EnumerationCap:
            return en.EnumerationCap


def norms(G, bound, cap=en.DEFAULT_CAP, nodes=0):
    """The norm-only leaves sorted, or EnumerationCap."""
    found = walk(G, bound, cap, False, nodes)
    return found if found is en.EnumerationCap else sorted(found)


def leech_base_change(gram, rng):
    """P G P^T for P a seeded signed permutation followed by 4 seeded
    elementary row additions."""
    n = len(gram)
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)]
         for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    return linalg.mat_mul(linalg.mat_mul(P, gram), linalg.transpose(P))


@pytest.mark.parametrize("model", ["P1-base-change", "N23"])
def test_split_leech_census_is_serial(split, model):
    if model == "N23":
        gram = catalog.holy_construction("N23").leech.gram
    else:
        gram = leech_base_change(catalog.leech().gram, random.Random(1))
    G, _, _ = en._reduced_gram(Lattice(gram))
    serial = walk(G, 4, coords=False, nodes=SERIAL)
    assert len(serial) == 98280
    assert Counter(walk(G, 4, coords=False)) == Counter(serial)
    assert len(split[0]) == 1


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("nodes", [0, 3000])
def test_split_e8_is_serial(split, workers, nodes):
    # with nodes = 3000 the bigger trees split after a prefix of leaves,
    # which the shares' cap must leave room for
    forks, set_workers = split
    set_workers(workers)
    G = linalg.lll_reduce(E8)[0]
    for bound in range(2, 11):
        assert walk(G, bound, nodes=nodes) == walk(G, bound, nodes=SERIAL)
    assert forks == []
    for bound in range(2, 11):
        assert norms(G, bound, nodes=nodes) == norms(G, bound, nodes=SERIAL)
    for cap in (1000, 10000, 28439):  # 28 440 pairs of norm <= 10
        assert norms(G, 10, cap, nodes) == norms(G, 10, cap, SERIAL)
    assert forks and len(forks) % (workers - 1) == 0


def test_split_never_reaches_a_walk_that_reads_order(split):
    forks, _ = split
    L = Lattice(E8)

    def found():
        return ([v.coords for v in en.short_vectors(L, 6)],
                [en.primitive_represents(L, m).coords for m in (2, 4, 6, 8)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(en, "SPLIT_NODES", SERIAL)
        serial = found()
        mp.setattr(en, "SPLIT_NODES", 0)
        assert found() == serial
    assert forks == []


def share_sizes(G, bound, workers):
    """Leaves of each norm-only share when every subtree is dealt."""
    n = len(G)
    d, lam = linalg.integral_gram_schmidt(G)
    tree = (d, [[lam[i][l] for i in range(n)] for l in range(n)], bound,
            en.DEFAULT_CAP, None, False)
    return [len(en._share(tree, en.DEFAULT_CAP, n - en.SPLIT_DEPTH, 0, k,
                          workers)) for k in range(workers)]


def test_split_raises_cap_exactly_when_serial(split):
    G = linalg.lll_reduce(E8)[0]
    total = len(walk(G, 6, coords=False, nodes=SERIAL))
    mine, child = share_sizes(G, 6, 2)
    assert mine + child == total and mine < child
    # only the child's share passes mine; only the joined list passes
    # max(mine, child); nothing passes total
    for cap in (0, mine - 1, mine, child - 1, child, total - 1, total):
        assert norms(G, 6, cap) == norms(G, 6, cap, SERIAL)


def test_split_recomputes_a_share_the_fork_refused(split, monkeypatch):
    refused = []

    def refuse():
        refused.append(1)
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", refuse)
    G = linalg.lll_reduce(E8)[0]
    assert norms(G, 6) == norms(G, 6, nodes=SERIAL)
    assert refused == [1]


def test_split_recomputes_the_share_of_a_failed_child(split, monkeypatch):
    forks, _ = split
    fork = os.fork

    def failing_fork():
        pid = fork()
        if pid == 0:
            os._exit(3)
        return pid

    monkeypatch.setattr(os, "fork", failing_fork)
    G = linalg.lll_reduce(E8)[0]
    assert norms(G, 6) == norms(G, 6, nodes=SERIAL)
    assert len(forks) == 1


def test_split_with_one_cpu_or_no_fork_never_forks(split, monkeypatch):
    forks, set_workers = split
    G = linalg.lll_reduce(E8)[0]
    serial = norms(G, 6, nodes=SERIAL)
    set_workers(1)
    assert norms(G, 6) == serial
    set_workers(2)
    monkeypatch.delattr(os, "fork")
    assert norms(G, 6) == serial
    assert forks == []
