"""The acceptance battery: the paper's results as twelve exact checks.

`k3lat verify` and `tests/test_acceptance.py` both run this one list, so
every expected value is written here once. A check is a function of
`fast` that returns (ok, detail); `verify` prints the detail. The paper
suite runs every check in full; the fast suite omits or trims the work
named below. In order:

leech-model-invariants: the Leech lattice, the model every group of the
    paper acts on, is even unimodular of signature (0, 24), with no roots
    and minimal norm -4.
leech-kissing-196560: it has 196560 vectors of norm -4, also under a
    permuted basis. Omitted by the fast suite.
niemeier-root-counts: each Niemeier lattice has 24h roots, h its Coxeter
    number (N23 48, N22 72, N20 120, N17 168, N10 312, N3 720).
holy-construction: every non-E8 Niemeier row gives a deep hole of the
    Leech lattice: the holy construction is even unimodular of signature
    (0, 24) without roots, and the hole's Niemeier lattice is unimodular
    with 24h roots. The fast suite skips N21 and N15.
order5-class-census: the 124 nonzero glue words of N20 give order-5
    isometries of invariant rank 0, 8 and 4, 40, 60 and 24 times.
order11-coinvariant: the order-11 isometry of N22 has invariant rank 4
    and a coinvariant lattice of rank 20 and |det| 121, which embeds
    primitively in the Mukai lattice with a positive rank-4 complement;
    the determinant-121 genus forms have determinant 121.
prime-order-ranks: coinvariant ranks of Leech and Niemeier isometries of
    each prime order: 2 gives 8, 12, 16 and 24 (the swap of two E8
    copies in N3 has coinvariant E8(-2)); 3 gives 12, 16, 18 and 24; 23
    gives 22; an element of order 13 fixes nothing.
s-lattice-censuses: the norm -4 and -6 counts of the S-lattices
    2^5 3^10 and 2^9 3^6, and of the complement of W(-1) (27 and 36).
    The fast suite skips W(-1).
milgram-battery: Milgram's formula, signature = Gauss-sum residue mod 8,
    on the even lattices among 36 of the catalog (at least 25 of them).
classification-table: the minimal n of each of the seven (p, S) rows of
    the classification, two deformation classes at order 11, the
    exclusion of BW16(-1), S_3exo and D12+(-2) by a wall divisor, and no
    row at orders 13 and 23, whose coinvariant ranks exceed 20.
leech-pair-criteria: the criteria behind the Co_1 containment. The
    Conway condition holds for the order-11 isometry of the P^1(Z/23)
    model (coinvariant rank 20, invariant rank 4) and fails for the
    model's weight-16 sign change (invariant rank and length 8); Huybrechts'
    embedding conditions agree with it on that isometry and on the sign
    changes of weight 8, 12 and 16, hold for S_2.K3 and S_11.K3[2] and
    fail for BW16(-1). U(2) and E8(-2) have the 2-elementary invariants
    (2, (1, 1), 2, 0) and (8, (0, 8), 8, 0). S_2.K3 under -1, glued to
    U^4 + E8(-2), is realizable at n = 2 and a Leech pair; -1 on E8(-2)
    extends by the identity over E8(-2) + E8(2) with order 2; and the
    order-11 isometry of N22, restricted to its coinvariant lattice, is
    a Leech pair.
property-suite: saturation is idempotent and equals the double
    orthogonal complement; the torsion check holds on six groups; the
    wall predicate gives the same answer on D and -D.
"""

import functools

from . import catalog, discforms as df, enumeration as en
from . import isometries as iso
from . import linalg, walls
from .gram_data import NIEMEIER_ROWS
from .lattice import Lattice

SUITES = ("paper", "fast")


def leech_model_invariants(fast):
    L = catalog.leech()
    min_norm = en.min_norm(L)
    ok = (L.rank == 24 and L.det() == 1 and L.signature() == (0, 24)
          and L.is_even() and min_norm == -4 and not en.has_roots(L))
    return ok, {"det": L.det(), "min_norm": min_norm}


def leech_kissing(fast):
    L = catalog.leech()
    first = en.norm_census(L, 4, up_to_sign=False).count(-4)
    G = [[L.gram[(i + 1) % 24][(j + 1) % 24] for j in range(24)]
         for i in range(24)]
    second = en.norm_census(Lattice(G), 4, up_to_sign=False).count(-4)
    return first == second == 196560, {"count": first, "permuted": second}


def _root_count(L):
    # nonzero v with |q(v)| <= 2, both signs: the roots of an even lattice
    return sum(en.norm_census(L, 2, up_to_sign=False).counts.values())


def niemeier_root_counts(fast):
    detail = {name: _root_count(catalog.niemeier(name))
              for name in sorted(NIEMEIER_ROWS)}
    expected = {"N23": 48, "N22": 72, "N20": 120, "N17": 168, "N10": 312,
                "N3": 720}
    ok = (all(detail[name] == 24 * row[2]
              for name, row in NIEMEIER_ROWS.items())
          and all(detail.get(name) == n for name, n in expected.items()))
    return ok, detail


def holy_construction(fast):
    detail = {}
    for name, row in NIEMEIER_ROWS.items():
        if row[0] == "E8" or fast and name in ("N21", "N15"):
            continue
        frame = catalog.holy_construction(name)
        L = frame.leech
        good = (L.rank == 24 and L.det() == 1 and L.is_even()
                and L.signature() == (0, 24) and not en.has_roots(L)
                and frame.hole.det() == 1
                and _root_count(frame.hole) == 24 * row[2])
        detail[name] = "ok" if good else "FAIL"
    return all(v == "ok" for v in detail.values()), detail


def order5_class_census(fast):
    frame = catalog.holy_construction("N20")
    ranks = {}
    for w in frame.code:
        if any(w):
            r = iso.invariant_lattice([frame.glue_translation(w)]).rank
            ranks[r] = ranks.get(r, 0) + 1
    return ranks == {0: 40, 8: 60, 4: 24}, ranks


def order11_coinvariant(fast):
    T = iso.invariant_lattice([catalog.n22_order11_isometry()])
    S = T.orthogonal_complement()
    embed = df.nikulin_embedding_exists(S, (4, 20))
    ok = (T.rank == 4 and S.rank == 20 and abs(S.det()) == 121
          and all(F.det() == 121 for F in catalog.det121_forms())
          and embed.status == "yes"
          and embed.witness["complement_signature"] == (4, 0))
    return ok, {"rank_T": T.rank, "rank_S": S.rank, "det_S": S.det()}


def prime_order_ranks(fast):
    def rank(g):
        return iso.coinvariant_lattice([g]).rank

    model = catalog.leech_model()
    n22 = catalog.holy_construction("N22")
    n10 = catalog.holy_construction("N10")
    g13 = n10.glue_translation(next(w for w in n10.code if any(w)))
    S8 = iso.coinvariant_lattice([catalog.e8_cube_swap_isometry()])
    e82 = bool(iso.find_isometry(S8, catalog.root_lattice("E", 8, -2)))
    got = {
        "2": sorted([rank(model.sign_change_isometry(
            model.codewords_of_weight(w)[0])) for w in (8, 12, 16)]
            + [rank(iso.minus_identity(model.lattice))]),
        "3": sorted([rank(n22.glue_translation(n22.words_of_weight(w)[0]))
                     for w in (6, 9, 12)]
                    + [rank(catalog.e8_cube_cycle_isometry())]),
        "23": [rank(model.translation_isometry())],
        "13": [iso.invariant_lattice([g13]).rank],
        "rank8-is-E8(-2)": e82,
    }
    ok = (got["2"] == [8, 12, 16, 24] and got["3"] == [12, 16, 18, 24]
          and got["23"] == [22] and got["13"] == [0] and g13.order() == 13
          and e82)
    return ok, got


def s_lattice_censuses(fast):
    expected = {"2^5 3^10": [5, 10], "2^9 3^6": [9, 6]}
    lattices = {name: catalog.exceptional(name) for name in expected}
    if not fast:
        expected["W(-1) orthogonal"] = [27, 36]
        lattices["W(-1) orthogonal"] = \
            catalog.exceptional("W(-1)").orthogonal_complement()
    detail = {}
    for name, L in lattices.items():
        c = en.norm_census(L, 6)
        detail[name] = [c.count(-4), c.count(-6)]
    return detail == expected, detail


def milgram_battery(fast):
    names = ["U", "U(2)", "U(3)", "A2", "A2(-1)", "A2(3)", "A3", "A4",
             "D4", "E6", "E7", "E8", "E8(-1)", "E8(-2)", "E8(-3)",
             "L_2", "L_3", "L_6", "L_M", "K3", "N22", "N23", "N20", "N17",
             "BW16(-1)", "D12+(-2)", "S_3exo", "2^5 3^10", "2^9 3^6",
             "W(-1)", "S_11.K3[2]", "S_5exo", "S_3.K3", "S_5.K3", "S_7.K3"]
    count = 0
    for L in [catalog.named(name) for name in names] + [catalog.leech()]:
        if not L.is_even():
            continue
        plus, minus = L.signature()
        if df.milgram_signature(df.discriminant_form(L)) != \
                (plus - minus) % 8:
            return False, {"failed": L.name}
        count += 1
    return count >= 25, {"checked": count}


def classification_table(fast):
    table = walls.classification_table()
    rows = {(r["p"], r["lattice"]): r["minimal_n"] for r in table["rows"]}
    expected = {(2, "S_2.K3"): 1, (3, "S_3.K3"): 1, (3, "W(-1)"): 2,
                (5, "S_5.K3"): 1, (5, "S_5exo"): 3, (7, "S_7.K3"): 1,
                (11, "S_11.K3[2]"): 2}
    deform = {r["lattice"]: r.get("deformation_classes")
              for r in table["rows"]}
    ok = (rows == expected and deform["S_11.K3[2]"] == 2
          and set(table["exclusions"]) == {"BW16(-1)", "S_3exo", "D12+(-2)"}
          and all(e["status"] == "obstructed" and e["wall"]["is_wall"]
                  for e in table["exclusions"].values())
          and table["large_primes"]["rejected"])
    return ok, {"rows": {f"p={p} {name}": n for (p, name), n in rows.items()}}


def leech_pair_criteria(fast):
    model = catalog.leech_model()
    gens = {"order-11": model.multiplication_isometry(2)}
    for w in (8, 12, 16):
        gens[f"sign-{w}"] = model.sign_change_isometry(
            model.codewords_of_weight(w)[0])
    conway, agree = {}, True
    for label, g in gens.items():
        ok, data = walls.conway_condition([g])
        conway[label] = dict(data, ok=ok)
        S = iso.coinvariant_lattice([g])
        agree = (agree and data["equivalent_form"] == ok
                 and walls.huybrechts_equivalents(S) == (ok, ok))
    huybrechts = {name: walls.huybrechts_equivalents(catalog.exceptional(name))
                  for name in ("S_2.K3", "BW16(-1)", "S_11.K3[2]")}
    two_modular = {name: df.two_modular_invariants(catalog.named(name))
                   for name in ("U(2)", "E8(-2)")}

    S = catalog.exceptional("S_2.K3")
    U = catalog.hyperbolic()
    realized = walls.realizability(S, [iso.minus_identity(S)], 2,
                                   complement=U + U + U + U
                                   + catalog.named("E8(-2)"))
    E, F = catalog.named("E8(-2)"), catalog.named("E8(2)")
    glued = df.glue_full(E, F).witness["gluing"]
    # extend_by_identity builds a checked Isometry, so ext is one
    ext = iso.extend_by_identity(iso.minus_identity(E), glued)
    extends = ext.order() == 2 and all(
        linalg.vec_mat(row, ext.matrix) == row for row in glued.t_sub.coords)
    g11 = catalog.n22_order11_isometry()
    S11 = iso.coinvariant_lattice([g11])
    pair = iso.leech_pair_check(S11, [iso.restrict_isometry(g11, S11)])

    c11, c16 = conway["order-11"], conway["sign-16"]
    ok = (c11["ok"] and c11["rank_S"] == 20 and c11["rank_T"] == 4
          and not c16["ok"] and c16["rank_T"] == 8 and c16["length_T"] == 8
          and agree
          and huybrechts == {"S_2.K3": (True, True),
                             "BW16(-1)": (False, False),
                             "S_11.K3[2]": (True, True)}
          and two_modular == {"U(2)": (2, (1, 1), 2, 0),
                              "E8(-2)": (8, (0, 8), 8, 0)}
          and realized.status == "realizable"
          and all(realized.leech_pair.values())
          and extends and all(pair.values()))
    return ok, {"conway": conway, "huybrechts_agrees": agree,
                "huybrechts": huybrechts, "two_modular": two_modular,
                "realizability": realized.status, "extends": extends,
                "order11_leech_pair": all(pair.values())}


def property_suite(fast):
    S = catalog.named("E8(-1)").sublattice([[2, 0, 0, 0, 0, 0, 0, 0],
                                            [0, 2, 4, 0, 0, 0, 0, 0]])
    sat = S.saturation()
    model = catalog.leech_model()
    groups = [catalog.e8_cube_cycle_isometry(),
              catalog.e8_cube_swap_isometry(),
              catalog.n22_order11_isometry(),
              model.translation_isometry(),
              model.multiplication_isometry(2),
              model.sign_change_isometry(model.codewords_of_weight(8)[0])]
    ctx = walls.wall_context(2)
    root = [0] * 8 + [1] + [0] * 15
    mixed = [-1, 1] + [0] * 6 + [2] + [0] * 15

    def sign_invariant(D):
        r1 = walls.is_wall_divisor(ctx, D)
        r2 = walls.is_wall_divisor(ctx, [-a for a in D])
        return r1.is_wall == r2.is_wall and r1.t_gram == r2.t_gram

    ok = (sat.saturation().coords == sat.coords
          and S.orthogonal_complement().orthogonal_complement().coords
          == sat.coords
          and all(iso.torsion_check(iso.group_closure([g])) for g in groups)
          and all(sign_invariant(D) for D in (root, mixed)))
    return ok, {}


# (name, check, runs in the fast suite), in the order `verify` prints them
_CHECKS = [
    ("leech-model-invariants", leech_model_invariants, True),
    ("leech-kissing-196560", leech_kissing, False),
    ("niemeier-root-counts", niemeier_root_counts, True),
    ("holy-construction", holy_construction, True),
    ("order5-class-census", order5_class_census, True),
    ("order11-coinvariant", order11_coinvariant, True),
    ("prime-order-ranks", prime_order_ranks, True),
    ("s-lattice-censuses", s_lattice_censuses, True),
    ("milgram-battery", milgram_battery, True),
    ("classification-table", classification_table, True),
    ("leech-pair-criteria", leech_pair_criteria, True),
    ("property-suite", property_suite, True),
]


def suite(name):
    """The checks of suite `name` ("paper" or "fast") as (check name,
    callable) pairs; each callable returns (ok, detail)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose paper or fast")
    fast = name == "fast"
    return [(check, functools.partial(fn, fast))
            for check, fn, in_fast in _CHECKS if in_fast or not fast]
