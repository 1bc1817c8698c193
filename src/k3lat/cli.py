"""Command-line front end.

Subcommands: construct, analyze, autos, walls, classify, verify. All
results go to standard output as JSON; progress notes go to standard
error. Runs are deterministic and single-threaded; --threads is accepted
for compatibility and changes nothing, so every value produces the same
bytes.

Exit codes: 0 verdict computed, 1 a self-check or invariant failed,
2 malformed input or an enumeration that outgrew its --cap (the message
names the cap; rerun with a larger one).
"""

import argparse
import json
import sys

from . import catalog, discforms as df, enumeration as en
from . import isometries as iso
from . import walls
from .lattice import Lattice


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}")


def _load_lattice(path):
    """The lattice of a record's 'gram'; 'coords' rows, if any, are not read."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "gram" not in obj:
        raise InputError(f"{path}: missing field 'gram'")
    try:
        return Lattice.from_json({"gram": obj["gram"], "name": obj.get("name")})
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _load_mukai_sublattice(path, mukai):
    """A sublattice record {"coords": rows in the Mukai basis, "gram"?}."""
    obj = _load_json(path)
    coords = obj.get("coords") if isinstance(obj, dict) else None
    if not isinstance(coords, list) or not all(
            isinstance(row, list) and len(row) == mukai.rank
            and all(isinstance(a, int) for a in row) for row in coords):
        raise InputError(f"{path}: needs 'coords', integer rows in the "
                         f"{mukai.rank}-dimensional Mukai basis")
    S = mukai.sublattice(coords)
    if "gram" in obj and obj["gram"] != S.gram:
        raise InputError(f"{path}: 'gram' is not the Gram matrix of 'coords'")
    return S


def _emit(obj, args):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _note(msg):
    print(msg, file=sys.stderr)


# -- subcommands -----------------------------------------------------------------

def cmd_construct(args):
    name = args.name
    if name in ("leech",) or name.lower() == "leech":
        L = catalog.leech()
    elif name.startswith("holy:"):
        L = catalog.holy_construction(name.split(":", 1)[1]).leech
    else:
        L = catalog.named(name)
    out = L.to_json()
    if args.verify:
        checks = {"det": L.det(), "rank": L.rank, "even": L.is_even()}
        if L.rank and L.is_definite():
            checks["min_norm"] = en.min_norm(L, cap=args.cap)
            checks["roots"] = len(en.short_vectors(L, 2, cap=args.cap))
        if not L.degenerate:
            plus, minus = L.signature()
            checks["signature"] = [plus, minus]
            if L.is_even():
                form = df.discriminant_form(L)
                checks["milgram_consistent"] = \
                    df.milgram_signature(form) == (plus - minus) % 8
        out = {"lattice": out, "checks": checks}
    _emit(out, args)
    return 0


def cmd_analyze(args):
    L = _load_lattice(args.input)
    out = {}
    if args.signature:
        plus, minus = L.signature()
        out["sig"] = [plus, minus]
    if args.determinant:
        out["det"] = L.det()
    if args.even:
        out["even"] = L.is_even()
    if args.discriminant:
        out["discriminant"] = df.discriminant_form(L).to_json()
    if args.milgram:
        out["milgram"] = df.milgram_signature(df.discriminant_form(L))
    if args.census is not None:
        out["census"] = en.norm_census(L, args.census, cap=args.cap).to_json()
    if args.min_norm:
        out["min_norm"] = en.min_norm(L, cap=args.cap)
    if not out:
        raise InputError("no analysis requested; pass --signature, "
                         "--determinant, --even, --discriminant, --milgram, "
                         "--census N or --min-norm")
    _emit(out, args)
    return 0


def cmd_autos(args):
    L = _load_lattice(args.lattice)
    gens_obj = _load_json(args.gens)
    if not isinstance(gens_obj, list):
        gens_obj = [gens_obj]
    gens = []
    for entry in gens_obj:
        matrix = entry["matrix"] if isinstance(entry, dict) else entry
        if not iso.is_isometry(L, matrix):
            raise InputError("matrix is not an isometry of the lattice")
        gens.append(iso.Isometry(L, matrix, check=False))
    if args.action == "coinvariant":
        T = iso.invariant_lattice(gens)
        S = T.orthogonal_complement()
        group = iso.group_closure(gens, cap=args.cap)
        out = {
            "group_order": group.order,
            "invariant": {"rank": T.rank, "gram": T.gram, "coords": T.coords},
            "coinvariant": {"rank": S.rank, "gram": S.gram,
                            "coords": S.coords},
            "torsion_check": iso.torsion_check(group),
            "trivial_discriminant_action":
                iso.group_acts_trivially_on_discriminant(L, gens),
        }
    elif args.action == "closure":
        group = iso.group_closure(gens, cap=args.cap)
        out = {"group_order": group.order}
    else:
        raise InputError(f"unknown autos action {args.action}")
    _emit(out, args)
    return 0


def cmd_walls(args):
    if args.action != "check":
        raise InputError(f"unknown walls action {args.action}")
    ctx = walls.wall_context(args.n)
    if args.lattice:
        S = _load_mukai_sublattice(args.lattice, ctx.mukai)
        report = walls.numerical_wall_in(S, ctx, cap=args.cap)
        out = {"wall_found": report is not None}
        if report is not None:
            out["wall"] = report.to_json()
    elif args.divisor:
        try:
            coords = [int(c) for c in args.divisor.split(",")]
        except ValueError:
            raise InputError("divisor must be a comma-separated integer list")
        if len(coords) == ctx.perp.rank:
            D = ctx.perp.vector(coords)
        elif len(coords) == ctx.mukai.rank:
            D = ctx.mukai.vector(coords)
        else:
            raise InputError(
                f"divisor needs {ctx.perp.rank} (L_n) or {ctx.mukai.rank} "
                f"(Mukai) coordinates")
        report = walls.is_wall_divisor(ctx, D)
        out = report.to_json()
    else:
        raise InputError("pass --divisor coords or --lattice file")
    _emit(out, args)
    return 0


def cmd_classify(args):
    if args.action == "table":
        _note("building the classification table (constructions are cached)")
        out = walls.classification_table(cap=args.cap)
        _emit(out, args)
        return 0
    if args.action == "prime":
        if args.p is None:
            raise InputError("classify prime needs --p")
        rows = [walls.minimal_n(name, cap=args.cap)
                for q, name, _ in walls._ROW_SPECS if q == args.p]
        if not rows:
            raise InputError(f"no classification rows for p = {args.p}")
        _emit([row.to_json() for row in rows], args)
        return 0
    raise InputError(f"unknown classify action {args.action}")


# -- the verification suite --------------------------------------------------------

def _suite_checks(fast):
    """The acceptance battery as (name, callable) pairs.

    Each callable returns (ok, detail). The fast suite skips the Leech
    kissing-number enumeration and the other full rank-24 censuses.
    """
    checks = []

    def leech_model_invariants():
        L = catalog.leech()
        ok = (L.rank == 24 and L.det() == 1 and L.signature() == (0, 24)
              and L.is_even() and en.min_norm(L) == -4
              and not en.has_roots(L))
        return ok, {"det": L.det(), "min_norm": en.min_norm(L)}

    checks.append(("leech-model-invariants", leech_model_invariants))

    if not fast:
        def leech_kissing():
            L = catalog.leech()
            c = en.norm_census(L, 4, up_to_sign=False)
            first = c.count(-4)
            perm = list(range(1, 24)) + [0]
            P = [[1 if j == perm[i] else 0 for j in range(24)]
                 for i in range(24)]
            import k3lat.linalg as linalg
            G2 = linalg.mat_mul(linalg.mat_mul(P, L.gram),
                                linalg.transpose(P))
            second = en.norm_census(Lattice(G2), 4, up_to_sign=False).count(-4)
            return first == 196560 and second == 196560, \
                {"count": first, "permuted": second}

        checks.append(("leech-kissing-196560", leech_kissing))

    def niemeier_roots():
        from .gram_data import NIEMEIER_ROWS
        detail = {}
        ok = True
        for name, row in sorted(NIEMEIER_ROWS.items()):
            N = catalog.niemeier(name)
            roots = len(en.short_vectors(N, 2))
            detail[name] = roots
            ok = ok and roots == 24 * row[2]
        return ok, detail

    checks.append(("niemeier-root-counts", niemeier_roots))

    def holy():
        names = ["N23", "N22", "N20", "N17", "N10", "N4"] if fast else \
            ["N23", "N22", "N21", "N20", "N17", "N15", "N10", "N4"]
        detail = {}
        ok = True
        for name in names:
            frame = catalog.holy_construction(name)
            L = frame.leech
            good = (L.rank == 24 and L.det() == 1 and L.is_even()
                    and not en.has_roots(L)
                    and frame.hole.det() == 1)
            detail[name] = "ok" if good else "FAIL"
            ok = ok and good
        return ok, detail

    checks.append(("holy-construction", holy))

    def order5_census():
        frame = catalog.holy_construction("N20")
        ranks = {}
        for w in frame.code:
            if not any(w):
                continue
            g = frame.glue_translation(w)
            r = iso.invariant_lattice([g]).rank
            ranks[r] = ranks.get(r, 0) + 1
        return ranks == {0: 40, 8: 60, 4: 24}, ranks

    checks.append(("order5-class-census", order5_census))

    def order11():
        g = catalog.n22_order11_isometry()
        T = iso.invariant_lattice([g])
        S = T.orthogonal_complement()
        ok = T.rank == 4 and S.rank == 20 and abs(S.det()) == 121
        return ok, {"rank_T": T.rank, "rank_S": S.rank, "det_S": S.det()}

    checks.append(("order11-coinvariant", order11))

    def prime_order_ranks():
        model = catalog.leech_model()
        got = {}
        got["2"] = sorted(
            iso.coinvariant_lattice([model.sign_change_isometry(mask)]).rank
            for mask in [model.codewords_of_weight(8)[0],
                         model.codewords_of_weight(12)[0],
                         model.codewords_of_weight(16)[0]]) + [24]
        n22 = catalog.holy_construction("N22")
        got["3"] = sorted(
            iso.coinvariant_lattice([n22.glue_translation(w)]).rank
            for w in [n22.words_of_weight(6)[0], n22.words_of_weight(9)[0],
                      n22.words_of_weight(12)[0]]) + [16]
        got["3"] = sorted(got["3"])
        got["23"] = [iso.coinvariant_lattice(
            [model.translation_isometry()]).rank]
        n10 = catalog.holy_construction("N10")
        word = next(w for w in n10.code if any(w))
        got["13"] = [iso.invariant_lattice(
            [n10.glue_translation(word)]).rank]
        swap = catalog.e8_cube_swap_isometry()
        S8 = iso.coinvariant_lattice([swap])
        e82 = iso.find_isometry(Lattice(S8.gram),
                                catalog.root_lattice("E", 8, -2))
        ok = (got["2"] == [8, 12, 16, 24]
              and got["3"] == [12, 16, 18, 24]
              and got["23"] == [22] and got["13"] == [0]
              and e82 is not None)
        got["rank8-is-E8(-2)"] = e82 is not None
        return ok, got

    checks.append(("prime-order-ranks", prime_order_ranks))

    def s_lattice_censuses():
        out = {}
        ok = True
        for name, i, j in (("2^5 3^10", 5, 10), ("2^9 3^6", 9, 6)):
            c = en.norm_census(catalog.exceptional(name), 6)
            out[name] = [c.count(-4), c.count(-6)]
            ok = ok and out[name] == [i, j]
        if not fast:
            W = catalog.exceptional("W(-1)")
            c = en.norm_census(W.orthogonal_complement(), 6)
            out["W(-1) orthogonal"] = [c.count(-4), c.count(-6)]
            ok = ok and out["W(-1) orthogonal"] == [27, 36]
        return ok, out

    checks.append(("s-lattice-censuses", s_lattice_censuses))

    def milgram_battery():
        names = ["U", "U(2)", "U(3)", "A2", "A2(-1)", "A2(3)", "A3", "A4",
                 "D4", "E6", "E7", "E8", "E8(-1)", "E8(-2)", "E8(-3)",
                 "L_2", "L_3", "L_6", "L_M", "K3", "N22", "N23", "N20", "N17",
                 "BW16(-1)", "D12+(-2)", "S_3exo", "2^5 3^10", "2^9 3^6",
                 "W(-1)", "S_11.K3[2]", "S_5exo", "S_3.K3", "S_5.K3",
                 "S_7.K3"]
        lattices = [catalog.named(name) for name in names]
        lattices.append(catalog.leech())
        count = 0
        for L in lattices:
            if not L.is_even():
                continue
            plus, minus = L.signature()
            if df.milgram_signature(df.discriminant_form(L)) != \
                    (plus - minus) % 8:
                return False, {"failed": L.name}
            count += 1
        return count >= 25, {"checked": count}

    checks.append(("milgram-battery", milgram_battery))

    def classification():
        table = walls.classification_table()
        rows = {(r["p"], r["lattice"]): r["minimal_n"]
                for r in table["rows"]}
        expected = {(2, "S_2.K3"): 1, (3, "S_3.K3"): 1, (3, "W(-1)"): 2,
                    (5, "S_5.K3"): 1, (5, "S_5exo"): 3, (7, "S_7.K3"): 1,
                    (11, "S_11.K3[2]"): 2}
        deform = {r["lattice"]: r.get("deformation_classes")
                  for r in table["rows"]}
        ok = (rows == expected and deform["S_11.K3[2]"] == 2
              and set(table["exclusions"]) ==
              {"BW16(-1)", "S_3exo", "D12+(-2)"}
              and all(e["status"] == "obstructed" and e["wall"]["is_wall"]
                      for e in table["exclusions"].values())
              and table["large_primes"]["rejected"])
        return ok, {"rows": {f"p={p} {name}": n
                             for (p, name), n in rows.items()}}

    checks.append(("classification-table", classification))

    def properties():
        import k3lat.linalg as linalg
        # saturation idempotence and double complement
        L = catalog.named("E8(-1)")
        S = L.sublattice([[2, 0, 0, 0, 0, 0, 0, 0],
                          [0, 2, 4, 0, 0, 0, 0, 0]])
        sat = S.saturation()
        ok = sat.saturation().coords == sat.coords
        ok = ok and S.orthogonal_complement().orthogonal_complement().coords \
            == sat.coords
        # torsion check on a group pair
        G = iso.group_closure([catalog.e8_cube_cycle_isometry()])
        ok = ok and iso.torsion_check(G)
        # wall predicate normalization invariance
        ctx = walls.wall_context(2)
        D = [0] * 24
        D[8] = 1
        r1 = walls.is_wall_divisor(ctx, D)
        r2 = walls.is_wall_divisor(ctx, [-a for a in D])
        ok = ok and r1.is_wall == r2.is_wall and r1.t_gram == r2.t_gram
        return ok, {}

    checks.append(("property-suite", properties))
    return checks


def verify_suite(name):
    if name not in ("paper", "fast"):
        raise InputError(f"unknown suite {name!r}; choose paper or fast")
    fast = name == "fast"
    results = []
    ok_all = True
    for check_name, fn in _suite_checks(fast):
        _note(f"running {check_name} ...")
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not bad input
            ok, detail = False, {"error": str(exc)}
        results.append({"check": check_name, "ok": ok, "detail": detail})
        ok_all = ok_all and ok
        _note(f"  {'pass' if ok else 'FAIL'}")
    return ok_all, results


def cmd_verify(args):
    ok, results = verify_suite(args.suite)
    _emit({"suite": args.suite, "ok": ok, "checks": results}, args)
    return 0 if ok else 1


# -- argument parsing ---------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="k3lat",
        description="Exact lattice computations: Leech/Niemeier "
                    "constructions, discriminant forms, isometry groups "
                    "and wall-divisor classification.")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored: every computation is single-"
                             "threaded, so output is the same for any value")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a catalog lattice")
    p.add_argument("name", help="catalog name, e.g. leech, E8(-1), L_2, "
                                "N22, BW16(-1), holy:N22")
    p.add_argument("--verify", action="store_true",
                   help="run the invariant battery on the result")
    p.add_argument("--output")
    p.add_argument("--cap", type=int, default=en.DEFAULT_CAP)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="analyze a lattice from JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--signature", action="store_true")
    p.add_argument("--determinant", action="store_true")
    p.add_argument("--even", action="store_true")
    p.add_argument("--discriminant", action="store_true")
    p.add_argument("--milgram", action="store_true")
    p.add_argument("--census", type=int)
    p.add_argument("--min-norm", dest="min_norm", action="store_true")
    p.add_argument("--output")
    p.add_argument("--cap", type=int, default=en.DEFAULT_CAP)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("autos", help="isometry-group computations")
    p.add_argument("action", choices=["coinvariant", "closure"])
    p.add_argument("--lattice", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--output")
    p.add_argument("--cap", type=int, default=iso.GROUP_ORDER_CAP)
    p.set_defaults(func=cmd_autos)

    p = sub.add_parser("walls", help="wall-divisor checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--divisor", help="comma-separated coordinates")
    p.add_argument("--lattice", help="JSON sublattice to search for walls: "
                                     "{\"coords\": rows in the Mukai basis}")
    p.add_argument("--output")
    p.add_argument("--cap", type=int, default=en.DEFAULT_CAP)
    p.set_defaults(func=cmd_walls)

    p = sub.add_parser("classify", help="prime-order classification")
    p.add_argument("action", choices=["table", "prime"])
    p.add_argument("--p", type=int)
    p.add_argument("--output")
    p.add_argument("--cap", type=int, default=en.DEFAULT_CAP)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="fast", choices=["paper", "fast"])
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, en.EnumerationCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
