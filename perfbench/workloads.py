"""The three benchmark workloads: inputs from a seed, operations, checks.

A workload is a set-up (the catalog objects its operations read), a
generator of rounds (each round a list of inputs made from the seed and
the round number only) and an operation that hands one input to k3lat.
Every output is checked against a fact that does not come from k3lat's
own code path: a classical invariant of the Leech lattice, a theorem the
method must satisfy, or the paper's published table.

The check functions take plain data, so the benchmark's self-tests can
feed them corrupted results without running k3lat.
"""

import random
from typing import Callable, NamedTuple

# -- leech-census ---------------------------------------------------------------

LEECH_KISSING = 196560
# The holy-construction model censused as built. Each of the eight frames
# gives a different Fincke-Pohst tree (4.9 M to 8.6 M nodes after LLL),
# and a base change of one of them moves its tree between 4.3 M and
# 10.5 M nodes, so a seeded frame or a seeded base change of it would make
# the figures depend more on the seed than on the code.
CENSUS_FRAME = "N23"
SHEARS = 4


def base_change(gram, rng):
    """P G P^T for a seeded unimodular P: a signed permutation followed by
    elementary row additions."""
    n = len(gram)
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)]
         for i in range(n)]
    for _ in range(SHEARS):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    PG = [[sum(P[i][k] * gram[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(PG[i][k] * P[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def census_setup():
    from k3lat import catalog
    return {"P1": catalog.leech(),
            CENSUS_FRAME: catalog.holy_construction(CENSUS_FRAME).leech}


def census_round(models, seed, r):
    """The P^1(Z/23) model under a seeded base change (its tree stays
    within 4.5 M to 5.5 M nodes), then the holy-construction model."""
    rng = random.Random(f"leech-census:{seed}:{r}")
    return [("P1", base_change(models["P1"].gram, rng)),
            (CENSUS_FRAME, [row[:] for row in models[CENSUS_FRAME].gram])]


def census_op(models, inp):
    from k3lat import enumeration
    from k3lat.lattice import Lattice
    _, gram = inp
    census = enumeration.norm_census(Lattice(gram), 4, up_to_sign=False)
    return dict(census.counts)


def census_check(inp, counts):
    """Norm <= 4 census of any Leech basis: 196560 of norm 4, no roots."""
    problems = []
    if counts.get(-2, 0):
        problems.append(f"{inp[0]}: {counts[-2]} vectors of norm 2")
    if counts.get(-4, 0) != LEECH_KISSING:
        problems.append(f"{inp[0]}: {counts.get(-4, 0)} vectors of norm 4, "
                        f"expected {LEECH_KISSING}")
    extra = sorted(set(counts) - {-2, -4})
    if extra:
        problems.append(f"{inp[0]}: unexpected norms {extra}")
    return problems


# -- coinvariant-stream ---------------------------------------------------------

# Coinvariant ranks of prime-order Leech isometries admitted by the paper;
# 13 and 23 are listed because their ranks (above 20) are what rejects them.
ALLOWED_RANKS = {2: {8, 12, 16}, 3: {12, 16, 18}, 5: {16, 20}, 7: {18},
                 11: {20}, 13: {24}, 23: {22}}

# (kind, prime, parameter). One round runs every kind once.
STREAM_KINDS = (
    ("sign", 2, 8), ("sign", 2, 12), ("sign", 2, 16),
    ("glue", 3, ("N22", 6)), ("glue", 3, ("N22", 9)),
    ("glue", 5, ("N20", 4)), ("glue", 5, ("N20", 5)),
    ("glue", 7, ("N17", 3)), ("glue", 13, ("N10", 2)),
    ("scale", 11, None), ("shift", 23, None),
)

# forms_isomorphic exhausts its search budget on some 2^12 forms (the
# dodecad involutions), so q_S ~ -q_T is not checked on those.
FORMS_SKIP_ORDER = 2 ** 12


def stream_setup():
    from k3lat import catalog
    model = catalog.leech_model()
    model.solver
    model.golay_code()
    frames = {}
    for name in ("N22", "N20", "N17", "N10"):
        frames[name] = catalog.holy_construction(name)
        frames[name].solver
    return {"model": model, "frames": frames}


def stream_round(ctx, seed, r):
    rng = random.Random(f"coinvariant-stream:{seed}:{r}")
    model, frames = ctx["model"], ctx["frames"]
    squares = sorted({(i * i) % 23 for i in range(1, 23)} - {1})
    inputs = []
    for kind, p, param in STREAM_KINDS:
        if kind == "sign":
            arg = rng.choice(model.codewords_of_weight(param))
        elif kind == "glue":
            frame, weight = param
            arg = (frame, rng.choice(frames[frame].words_of_weight(weight)))
        elif kind == "scale":
            arg = rng.choice(squares)
        else:
            arg = rng.randrange(1, 23)
        inputs.append((kind, p, arg))
    rng.shuffle(inputs)
    return inputs


def stream_op(ctx, inp):
    from k3lat import discforms, enumeration, isometries
    kind, p, arg = inp
    model = ctx["model"]
    if kind == "sign":
        g = model.sign_change_isometry(arg)
    elif kind == "glue":
        g = ctx["frames"][arg[0]].glue_translation(arg[1])
    elif kind == "scale":
        g = model.multiplication_isometry(arg)
    else:
        g = model.permutation_isometry([(i + arg) % 23 for i in range(23)]
                                       + [23])
    order = g.order()
    T = isometries.invariant_lattice([g])
    S = T.orthogonal_complement()
    form = discforms.discriminant_data(S).form
    out = {
        "order": order,
        "rank_S": S.rank,
        "rank_T": T.rank,
        "det_S": S.det(),
        "factors": list(form.factors),
        "milgram": discforms.milgram_signature(form),
        "has_roots": enumeration.has_roots(S),
        "forms_match": None,
    }
    if form.order() != FORMS_SKIP_ORDER:
        out["forms_match"] = discforms.forms_isomorphic(
            form, discforms.discriminant_form(T).neg())
    return out


def _is_power_of(n, p):
    while n % p == 0 and n > 1:
        n //= p
    return n == 1


def stream_check(inp, out):
    """Properties every prime-order Leech isometry's S and T must have."""
    kind, p, _ = inp
    problems = []
    rank_s, rank_t = out["rank_S"], out["rank_T"]
    size = 1
    for d in out["factors"]:
        size *= d
    if out["order"] != p:
        problems.append(f"order {out['order']}, expected {p}")
    if rank_s + rank_t != 24:
        problems.append(f"rank S + rank T = {rank_s + rank_t}, expected 24")
    if rank_s not in ALLOWED_RANKS.get(p, ()):
        problems.append(f"rank S = {rank_s} is not allowed for p = {p}")
    if abs(out["det_S"]) != size:
        problems.append(f"|det S| = {abs(out['det_S'])} but |A_S| = {size}")
    if not _is_power_of(size, p):
        problems.append(f"|A_S| = {size} is not a power of {p}")
    if out["milgram"] != (-rank_s) % 8:
        problems.append(f"Milgram signature {out['milgram']} is not "
                        f"-rank S = {(-rank_s) % 8} mod 8")
    if out["has_roots"]:
        problems.append("S contains roots")
    if size != FORMS_SKIP_ORDER and out["forms_match"] is not True:
        problems.append(f"q_S ~ -q_T returned {out['forms_match']}")
    return [f"{kind} p={p}: {msg}" for msg in problems]


# -- classify-table -------------------------------------------------------------

# The paper's classification: prime and minimal n per coinvariant lattice,
# the levels at which the three excluded lattices are obstructed, and the
# coinvariant ranks that reject orders 13 and 23.
PAPER_ROWS = {"S_2.K3": (2, 1), "S_3.K3": (3, 1), "W(-1)": (3, 2),
              "S_5.K3": (5, 1), "S_5exo": (5, 3), "S_7.K3": (7, 1),
              "S_11.K3[2]": (11, 2)}
PAPER_DEFORMATIONS = {"S_11.K3[2]": 2}
PAPER_EXCLUSIONS = {"BW16(-1)": 3, "S_3exo": 4, "D12+(-2)": 2}
PAPER_LARGE_PRIME_RANKS = {"13": 24, "23": 22}


def table_setup():
    from k3lat import catalog
    for name in list(PAPER_ROWS) + list(PAPER_EXCLUSIONS):
        catalog.exceptional(name)
    catalog.s_lattice_2936_in_leech()
    catalog.holy_construction("N10").solver
    catalog.leech_model().solver
    return None


def table_round(ctx, seed, r):
    """The table has no input: every round computes the same table."""
    return [None]


def table_op(ctx, inp):
    from k3lat import walls
    return walls.classification_table()


def _wall_clause(t_gram, n):
    """The clause of the wall criterion that the rank-2 Gram satisfies,
    recomputed here from its three entries."""
    (vv, s), (s2, rr) = t_gram
    if s != s2 or vv != 2 * n - 2:
        return None
    if rr == -2 and 0 <= 2 * s <= vv:
        return "root"
    if 0 <= rr * vv <= s * s and 4 * s * s < vv * vv:
        return "norm"
    return None


def table_check(inp, table):
    problems = []
    rows = {r["lattice"]: r for r in table["rows"]}
    if set(rows) != set(PAPER_ROWS):
        problems.append(f"rows {sorted(rows)}, expected {sorted(PAPER_ROWS)}")
    for name, (p, n) in PAPER_ROWS.items():
        row = rows.get(name)
        if row and (row["p"], row["minimal_n"]) != (p, n):
            problems.append(f"{name}: p={row['p']} minimal n="
                            f"{row['minimal_n']}, expected p={p} n={n}")
    for name, count in PAPER_DEFORMATIONS.items():
        got = rows.get(name, {}).get("deformation_classes")
        if got != count:
            problems.append(f"{name}: {got} deformation classes, "
                            f"expected {count}")
    exclusions = table["exclusions"]
    if set(exclusions) != set(PAPER_EXCLUSIONS):
        problems.append(f"exclusions {sorted(exclusions)}")
    for name, n in PAPER_EXCLUSIONS.items():
        entry = exclusions.get(name)
        if entry is None:
            continue
        wall = entry["wall"]
        if entry["n"] != n or entry["status"] != "obstructed":
            problems.append(f"{name}: {entry['status']} at n={entry['n']}, "
                            f"expected obstructed at n={n}")
        clause = _wall_clause(wall["t_gram"], n)
        if clause is None or clause != wall["clause"] or not wall["is_wall"]:
            problems.append(f"{name}: witness Gram {wall['t_gram']} does not "
                            f"satisfy a wall clause with v^2 = {2 * n - 2}")
    large = table["large_primes"]
    ranks = {k: large.get(k) for k in PAPER_LARGE_PRIME_RANKS}
    if ranks != PAPER_LARGE_PRIME_RANKS or large.get("rejected") is not True:
        problems.append(f"large primes {large}, expected ranks "
                        f"{PAPER_LARGE_PRIME_RANKS} and rejection")
    return problems


class Workload(NamedTuple):
    setup: Callable
    round_inputs: Callable
    op: Callable
    check: Callable
    cold: bool  # each round runs in a fresh process after its own set-up


WORKLOADS = {
    "leech-census": Workload(census_setup, census_round, census_op,
                             census_check, cold=False),
    "classify-table": Workload(table_setup, table_round, table_op,
                               table_check, cold=True),
    "coinvariant-stream": Workload(stream_setup, stream_round, stream_op,
                                   stream_check, cold=False),
}
