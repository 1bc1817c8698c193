import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import theta_reference
import walk_reference
from k3lat import catalog, linalg
from k3lat import enumeration as en
from k3lat.gram_data import (A2, E8, NIEMEIER_ROWS, U, S_LATTICE_2_5_3_10,
                             S_LATTICE_2_9_3_6, gram_A, gram_D)
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
    assert len(vecs) == 1 and vecs[0][0] == -2


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


def test_min_norm_takes_few_walks(time_limit):
    # one walk per even norm up to the minimum took 11.9 s on E8(100000)
    # and never ended on <-2 10^30>
    with time_limit(10):
        assert en.min_norm(Lattice(E8).rescale(100000)) == 200000
        assert en.min_norm(Lattice([[-2 * 10 ** 30]])) == -2 * 10 ** 30
        assert en.min_norm(Lattice([[3 * 10 ** 30]])) == 3 * 10 ** 30


def test_min_norm_walks_once(monkeypatch):
    # the reduced Gram's least diagonal entry bounds the one walk
    walks = []
    walk = en._enumerate_reduced
    monkeypatch.setattr(en, "_enumerate_reduced", lambda *args, **kwargs:
                        walks.append(args) or walk(*args, **kwargs))
    for L, expect in ((Lattice(E8).rescale(100000), 200000),
                      (catalog.leech(), -4),
                      (Lattice([[-2 * 10 ** 30]]), -2 * 10 ** 30)):
        walks.clear()
        assert en.min_norm(L) == expect
        assert len(walks) <= 1


def test_min_norm_below_the_least_diagonal_entry(monkeypatch):
    # with no reduction the least diagonal entry, 2 and 6, lies above the
    # minimum, which the walk below it must find; the walk keeps its cap
    monkeypatch.setattr(linalg, "lll_reduce",
                        lambda G: (G, linalg.identity(len(G))))
    assert en.min_norm(Lattice([[5, 3], [3, 2]])) == 1
    assert en.min_norm(Lattice([[6, 4], [4, 6]])) == 4
    with pytest.raises(en.EnumerationCap):
        en.min_norm(Lattice([[6, 4], [4, 6]]), cap=0)


def test_has_roots():
    assert en.has_roots(Lattice(E8).rescale(-1))
    assert not en.has_roots(Lattice(E8).rescale(-2))


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
    for _, v in half:
        first = next(a for a in v if a)
        assert first > 0


def test_cap_raises():
    with pytest.raises(en.EnumerationCap):
        en.short_vectors(Lattice(E8), 4, cap=10)
    with pytest.raises(en.EnumerationCap):
        en.norm_census(Lattice(E8), 4, cap=10)
    # 120 pairs of roots: the test must not stop at the first one
    with pytest.raises(en.EnumerationCap):
        en.has_roots(Lattice(E8).rescale(-1), cap=10)
    # a negative cap is refused, also by a walk that finds nothing
    for walk in (en.has_roots, en.min_norm):
        with pytest.raises(ValueError):
            walk(Lattice(E8).rescale(-2), cap=-1)


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
    # a census counts its +-pairs by norm; a (norm, 8-tuple) leaf would
    # take about 166 bytes
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
    v1 = [v for _, v in en.short_vectors(L, 6)]
    v2 = [v for _, v in en.short_vectors(L, 6)]
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
    assert [v for _, v in en.short_vectors(L, 2, up_to_sign=True)] == [
        [0, 0, 5, 2], [1, -1, -4, 0], [1, -1, 1, 2], [1, 0, -9, -3],
        [1, 0, -6, -2], [1, 0, -4, -1], [1, 0, -1, 0], [2, -1, -8, -1],
        [2, -1, -5, 0], [2, 0, -10, -3], [3, -1, -14, -3], [3, -1, -9, -1]]


def elementary_product(draw, n, most):
    """A unimodular n x n matrix: the product of up to most drawn row
    additions row_i += +-row_j."""
    P = linalg.identity(n)
    for _ in range(draw(st.integers(0, most))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        s = draw(st.sampled_from([-1, 1]))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    return P


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
    P = elementary_product(draw, n, 3 * n)
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
    # the primitive vectors of each norm, one per sign, as the wall
    # verdict lists its Mukai vectors
    pairs = en.short_vectors(L, bound, up_to_sign=True)
    for m in range(1, bound + 1):
        found = [tuple(linalg.vec_mat(v, P)) for q, v in pairs
                 if q == sign * m and math.gcd(*v) == 1]
        expect = {x for x, q in box.items()
                  if q == sign * m and math.gcd(*x) == 1}
        assert len(found) * 2 == len(expect)
        assert set(found) | {tuple(-a for a in x) for x in found} == expect

    vecs = en.short_vectors(L, bound)
    assert all(q == linalg.dot(v, v, L.gram) for q, v in vecs)
    assert {tuple(linalg.vec_mat(v, P)): q for q, v in vecs} == box
    assert len(vecs) == len(box)
    assert [v for _, v in vecs] == sorted(
        (v for _, v in vecs), key=lambda c: (abs(linalg.dot(c, c, L.gram)), c))


# -- the memoized walk -------------------------------------------------------
# A norm-only walk replays the leaf norms of subtrees whose key it has
# seen before. It must count the norms of the frozen plain walk in
# `walk_reference`, norm for norm, and make the same cap cuts.
# The `memo_hits` fixture (conftest) records the replays, direct and
# mirrored, so that no check passes without both.


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


# (gram, bound, replays): whether a subtree is replayed with the memo built
# as by default (at the node after the first leaf), then with it built from
# the first node. The Leech models are the census inputs; rank 4 has no
# memo level.
MEMO_INPUTS = {
    "P1": (lambda: catalog.leech().gram, 4, (True, True)),
    "P1-base-change": (lambda: leech_base_change(catalog.leech().gram,
                                                 random.Random(1)),
                       4, (True, True)),
    "N23": (lambda: catalog.holy_construction("N23").leech.gram, 4,
            (True, True)),
    "BW16(-1)": (lambda: catalog.exceptional("BW16(-1)").gram, 8,
                 (True, True)),
    "E8": (lambda: E8, 16, (True, True)),
    "2^5-3^10": (lambda: S_LATTICE_2_5_3_10, 12, (False, False)),
    "W(-1)-orthogonal": (lambda: catalog.exceptional("W(-1)")
                         .orthogonal_complement().gram, 10, (True, True)),
}


def norm_walk(G, bound, cap=en.DEFAULT_CAP):
    try:
        return en._enumerate_reduced(G, bound, cap, coords=False)
    except en.EnumerationCap:
        return en.EnumerationCap


# the hits a walk must record: direct and mirrored lookups, or none
BOTH_WAYS = {True: {False, True}, False: set()}


def counted(norms):
    """The norm-only walk's answer for the frozen walk's list of norms."""
    return dict(Counter(norms))


def cut(full, cap):
    """What the norm-only walk returns under cap, given the frozen walk's
    uncut list: that walk raises EnumerationCap at leaf cap + 1."""
    return en.EnumerationCap if len(full) > cap else counted(full)


@pytest.mark.parametrize("name", list(MEMO_INPUTS))
def test_memo_walk_matches_plain_walk(memo_hits, monkeypatch, name):
    gram, bound, replays = MEMO_INPUTS[name]
    G, _, _ = en._reduced_gram(gram())
    full = walk_reference.enumerate_reduced(G, bound, en.DEFAULT_CAP,
                                            coords=False)
    expect = counted(full)
    if bound == 4:  # a Leech model: 98 280 pairs of norm 4, no roots
        assert expect == {4: 98280}
    assert norm_walk(G, bound) == expect
    assert set(memo_hits) == BOTH_WAYS[replays[0]]
    # caps before, inside and at the end of the list, with the memo built
    # from the first node on
    memo_hits.clear()
    monkeypatch.setattr(en, "MEMO_NODES", 1)
    k = len(full)
    assert norm_walk(G, bound) == expect
    for cap in (k // 100, k // 3, k - 1, k):
        assert norm_walk(G, bound, cap) == cut(full, cap)
    assert set(memo_hits) == BOTH_WAYS[replays[1]]


def test_memo_cuts_match_plain_walk_on_e8(memo_hits, monkeypatch):
    # every bound and cap against the frozen walk itself
    monkeypatch.setattr(en, "MEMO_NODES", 1)
    G = linalg.lll_reduce(E8)[0]
    for bound in range(2, 13, 2):
        for cap in (0, 100, 1000, en.DEFAULT_CAP):
            try:
                expect = counted(walk_reference.enumerate_reduced(
                    G, bound, cap, coords=False))
            except en.EnumerationCap:
                expect = en.EnumerationCap
            assert norm_walk(G, bound, cap) == expect
    assert set(memo_hits) == BOTH_WAYS[True]


@st.composite
def root_lattice_sums(draw):
    """P B P^t: B a direct sum of rank 8 to 14 of <1>, <2>, <3>, A_2..A_4,
    D_4, D_5 and E8, P unimodular. Such lattices have many short vectors,
    so the memo's keys repeat."""
    blocks = [[[1]], [[2]], [[3]], gram_A(2), gram_A(3), gram_A(4),
              gram_D(4), gram_D(5), E8]
    parts, n = [], 0
    while n < 8:
        parts.append(draw(st.sampled_from([b for b in blocks
                                           if n + len(b) <= 14])))
        n += len(parts[-1])
    B = [[0] * n for _ in range(n)]
    at = 0
    for part in parts:
        for i, row in enumerate(part):
            B[at + i][at:at + len(part)] = row
        at += len(part)
    P = elementary_product(draw, n, 2 * n)
    return linalg.mat_mul(linalg.mat_mul(P, B), linalg.transpose(P))


def test_memo_matches_plain_walk_on_root_lattice_sums(memo_hits,
                                                       monkeypatch):
    monkeypatch.setattr(en, "MEMO_NODES", 1)

    @settings(max_examples=100, deadline=None)
    @given(G=root_lattice_sums(), bound=st.integers(1, 6),
           cap=st.sampled_from([0, 7, 100, 3000, en.DEFAULT_CAP]))
    @example(G=E8, bound=4, cap=en.DEFAULT_CAP)
    def check(G, bound, cap):
        for M in (G, linalg.lll_reduce(G)[0]):
            try:
                expect = counted(walk_reference.enumerate_reduced(
                    M, bound, cap, coords=False))
            except en.EnumerationCap:
                expect = en.EnumerationCap
            assert norm_walk(M, bound, cap) == expect

    check()
    assert set(memo_hits) == BOTH_WAYS[True]


# (gram, bound) of the norm-only walks checked under base change: root
# lattices with many repeated keys, one without roots and one of rank 4,
# which has no memo level
BASE_CHANGE_INPUTS = {
    "E8": (lambda: E8, 6),
    "D4+A2": (lambda: Lattice(gram_D(4)).direct_sum(Lattice(A2)).gram, 6),
    "BW16(-1)": (lambda: catalog.exceptional("BW16(-1)").gram, 6),
    "A2+A2(3)": (lambda: Lattice(A2).direct_sum(Lattice(A2).rescale(3))
                 .gram, 8),
}


def test_norm_only_walks_agree_under_base_change(memo_hits, monkeypatch):
    # the memo keys depend on the reduced basis, the answers must not
    monkeypatch.setattr(en, "MEMO_NODES", 1)
    answers = {}
    for name, (gram, bound) in BASE_CHANGE_INPUTS.items():
        L = Lattice(gram())
        answers[name] = (en.norm_census(L, bound).counts, en.has_roots(L),
                         en.min_norm(L))

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(list(BASE_CHANGE_INPUTS)), data=st.data())
    def check(name, data):
        gram, bound = BASE_CHANGE_INPUTS[name]
        G = gram()
        n = len(G)
        perm = data.draw(st.permutations(range(n)))
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n,
                                   max_size=n))
        P = elementary_product(data.draw, n, 2 * n)
        P = [[signs[i] * row[perm[i]] for i in range(n)] for row in P]
        L = Lattice(linalg.mat_mul(linalg.mat_mul(P, G),
                                   linalg.transpose(P)))
        assert (en.norm_census(L, bound).counts, en.has_roots(L),
                en.min_norm(L)) == answers[name]

    check()
    assert set(memo_hits) == BOTH_WAYS[True]


def test_memo_never_reaches_a_walk_that_reads_coordinates(monkeypatch):
    built = []
    build = en._memo_levels
    monkeypatch.setattr(en, "MEMO_NODES", 1)
    monkeypatch.setattr(en, "_memo_levels",
                        lambda G: built.append(G) or build(G))
    G = linalg.lll_reduce(E8)[0]
    for bound in (2, 6, 10):
        assert en._enumerate_reduced(G, bound, en.DEFAULT_CAP) == \
            walk_reference.enumerate_reduced(G, bound, en.DEFAULT_CAP)
    L = Lattice(E8)
    en.short_vectors(L, 6)
    en.short_vectors(L, 8)
    assert built == []
    en.norm_census(L, 2)
    assert built


def census_gram(name):
    return en._reduced_gram(MEMO_INPUTS[name][0]())[0]


def test_a_walk_with_leaves_builds_its_memo_after_its_first_leaf(walk_log):
    # the walk descends along x = 0 to b_0, whose norm is within the bound:
    # its first leaf is at node n - 1, and the memo is built at node n
    G = linalg.lll_reduce(E8)[0]
    assert norm_walk(G, 2) == counted(walk_reference.enumerate_reduced(
        G, 2, en.DEFAULT_CAP, coords=False))
    assert norm_walk(census_gram("N23"), 4) == {4: 98280}
    assert [memo for _, memo in walk_log] == [8, 24]


def test_a_walk_without_leaves_builds_its_memo_after_memo_nodes(walk_log):
    # the root checks of the census models find no root: only the first
    # walk passes MEMO_NODES = 2^14 nodes, so only it builds the memo
    for name in ("P1", "N23", "P1-base-change"):
        assert norm_walk(census_gram(name), 2) == {}
    assert walk_log == [[16_692, 16_384], [14_148, None], [15_417, None]]


def test_memo_keeps_the_leech_census_tree_small(walk_log):
    # the walk takes one integer square root per node, and one more for
    # the root's range: with memo levels 4, 6, 8, ... keyed up to sign and
    # built after the first leaf, the censuses visit 46 672 (P1), 34 778
    # (N23) and 32 726 nodes (P1-base-change); built after MEMO_NODES
    # nodes, 62 529, 50 817 and 48 805; keyed by the class alone, 98 083,
    # 77 086 and 72 627
    roots = {"P1": 46_673, "N23": 34_779, "P1-base-change": 32_727}
    for name, most in roots.items():
        assert norm_walk(census_gram(name), 4) == {4: 98280}
        assert walk_log[-1][0] <= most, name


@pytest.mark.parametrize("name, bound, counts, most", [
    pytest.param("P1-base-change", 4, {-4: 98280}, 2_000_000,
                 id="P1-base-change"),
    pytest.param("N23", 6, {-4: 98280, -6: 8386560}, 8_000_000,
                 id="N23-norm-6")])
def test_leech_census_memory_peak(name, bound, counts, most):
    # a census holds its counts by norm and the memo, which maps each key
    # to its subtree's (norm, count) pairs: 0.58 MB traced for the base
    # change of the P1 model at norm 4 and 1.46 MB for N23 at norm 6, which
    # took 1.32 MB and 78 MB while the walk kept one int per +-pair
    L = Lattice(MEMO_INPUTS[name][0]())
    tracemalloc.start()
    try:
        census = en.norm_census(L, bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census.counts == counts
    assert peak < most


# -- theta series --------------------------------------------------------------
# The census of an even unimodular lattice of rank 24 is fixed by its
# number of roots, and that of E8 outright: `theta_reference` checks the
# memoized walk against mathematics, up to norm 8, where a list of its
# leaves would hold 199 M norms on the Leech lattice.


def niemeier_gram(name):
    return lambda: catalog.niemeier(name).gram


# (gram, bound, roots): the nine Niemeier lattices (a Niemeier lattice of
# Coxeter number h has 24 h roots), the Leech models of the census and
# seeded base changes, at norm 4; three of them at norm 8
THETA_INPUTS = {
    **{name: (niemeier_gram(name), 4, 24 * row[2])
       for name, row in NIEMEIER_ROWS.items()},
    **{"Leech-" + name: (MEMO_INPUTS[name][0], 4, 0)
       for name in ("P1", "P1-base-change", "N23")},
    "Leech-P1-base-change-2": (lambda: leech_base_change(
        catalog.leech().gram, random.Random(2)), 4, 0),
    "N3-base-change": (lambda: leech_base_change(
        niemeier_gram("N3")(), random.Random(1)), 4, 720),
    "N23-base-change": (lambda: leech_base_change(
        niemeier_gram("N23")(), random.Random(1)), 4, 48),
    "N23-norm-8": (niemeier_gram("N23"), 8, 48),
    "N3-norm-8": (niemeier_gram("N3"), 8, 720),
    "Leech-P1-norm-8": (MEMO_INPUTS["P1"][0], 8, 0),
}


@pytest.mark.parametrize("name", list(THETA_INPUTS))
def test_census_matches_theta_series(name):
    gram, bound, roots = THETA_INPUTS[name]
    census = en.norm_census(Lattice(gram()), bound, up_to_sign=False,
                            cap=10 ** 9)
    expect = {-2 * k: theta_reference.rank_24(k, roots)
              for k in range(1, bound // 2 + 1)}
    assert census.counts == {q: c for q, c in expect.items() if c}


def test_e8_census_matches_theta_series():
    census = en.norm_census(Lattice(E8), 8, up_to_sign=False)
    assert census.counts == {2 * k: theta_reference.e8(k)
                             for k in range(1, 5)}
