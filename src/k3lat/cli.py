"""Command-line front end.

Subcommands: construct, analyze, autos, walls, classify, verify. All
results go to standard output as JSON; progress notes and verify's
per-check times go to standard error. verify runs `k3lat.acceptance`,
the one acceptance battery, which tier-1 runs too. The classification
table's two halves go through `k3lat.parallel.run(first, second)`, which
forks when more than one CPU is usable; they are joined in a fixed
order, so standard output does not depend on the number of CPUs.

Exit codes: 0 verdict computed, 1 a self-check or invariant failed,
2 malformed input, or an enumeration or group closure that outgrew its
--cap (the message names the cap; rerun with a larger one).
"""

import argparse
import json
import sys
import time

from . import acceptance, catalog, discforms as df, enumeration as en
from . import isometries as iso
from . import linalg, walls
from .lattice import Lattice, int_matrix


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
        return Lattice.from_json(obj)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _load_mukai_sublattice(path, mukai):
    """A sublattice record {"coords": rows in the Mukai basis, "gram"?}."""
    obj = _load_json(path)
    try:
        coords = int_matrix(obj.get("coords") if isinstance(obj, dict)
                            else None, mukai.rank)
    except ValueError:
        raise InputError(f"{path}: needs 'coords', integer rows in the "
                         f"{mukai.rank}-dimensional Mukai basis") from None
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
    if name.lower() == "leech":
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
            census = en.norm_census(L, 2, up_to_sign=False, cap=args.cap)
            checks["roots"] = sum(census.counts.values())
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
        matrix = entry.get("matrix") if isinstance(entry, dict) else entry
        try:
            matrix = int_matrix(matrix)
        except ValueError:
            matrix = None
        if matrix is None or len(matrix) != L.rank:
            raise InputError(f"{args.gens}: each generator must be a "
                             f"{L.rank}x{L.rank} integer matrix")
        if not iso.is_isometry(L, matrix):
            raise InputError("matrix is not an isometry of the lattice")
        gens.append(iso.Isometry(L, matrix, check=False))
    group = iso.group_closure(gens, cap=args.cap)
    if args.action == "coinvariant":
        T = iso.invariant_lattice(gens)
        S = T.orthogonal_complement()
        out = {
            "group_order": group.order,
            "invariant": {"rank": T.rank, "gram": T.gram, "coords": T.coords},
            "coinvariant": {"rank": S.rank, "gram": S.gram,
                            "coords": S.coords},
            "torsion_check": iso.torsion_check(group),
            "trivial_discriminant_action":
                iso.group_acts_trivially_on_discriminant(L, gens),
        }
    else:  # closure
        out = {"group_order": group.order}
    _emit(out, args)
    return 0


def cmd_walls(args):
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
            coords = linalg.vec_mat(coords, ctx.perp.coords)
        elif len(coords) != ctx.mukai.rank:
            raise InputError(
                f"divisor needs {ctx.perp.rank} (L_n) or {ctx.mukai.rank} "
                f"(Mukai) coordinates")
        report = walls.is_wall_divisor(ctx, coords)
        out = report.to_json()
    else:
        raise InputError("pass --divisor coords or --lattice file")
    _emit(out, args)
    return 0


def cmd_classify(args):
    if args.action == "table":
        _note("building the classification table (constructions are cached)")
        out = walls.classification_table(cap=args.cap)
    else:  # prime
        if args.p is None:
            raise InputError("classify prime needs --p")
        rows = [walls.minimal_n(name, cap=args.cap)
                for name, (q, _, _) in walls.ROWS.items() if q == args.p]
        if not rows:
            raise InputError(f"no classification rows for p = {args.p}")
        out = [row.to_json() for row in rows]
    _emit(out, args)
    return 0


# -- the verification suite --------------------------------------------------------

def verify_suite(name):
    results = []
    for check_name, run in acceptance.suite(name):
        _note(f"running {check_name} ...")
        started = time.perf_counter()
        try:
            ok, detail = run()
        except Exception as exc:  # a crash is a failure, not bad input
            ok, detail = False, {"error": str(exc)}
        results.append({"check": check_name, "ok": ok, "detail": detail})
        _note(f"  {'pass' if ok else 'FAIL'} "
              f"({time.perf_counter() - started:.1f} s)")
    return all(r["ok"] for r in results), results


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
    p.add_argument("--suite", default="fast", choices=acceptance.SUITES)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for k in range(len(argv) - 1, 0, -1):  # else "-1,2" reads as an option
        if argv[k - 1] == "--divisor" and argv[k][:2].lstrip("-").isdigit():
            argv[k - 1:k + 1] = ["--divisor=" + argv[k]]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, en.EnumerationCap, iso.GroupOrderCap, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
