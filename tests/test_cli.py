import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr

import pytest
from hypothesis import example, given, settings, strategies as st

from k3lat import acceptance, cli


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_construct_u():
    code, out, _ = run_cli(["construct", "U"])
    assert code == 0
    obj = json.loads(out)
    assert obj["gram"] == [[0, 1], [1, 0]]


def test_construct_verify_fields():
    code, out, _ = run_cli(["construct", "E8(-1)", "--verify"])
    assert code == 0
    obj = json.loads(out)
    assert obj["checks"]["det"] == 1
    assert obj["checks"]["min_norm"] == -2
    assert obj["checks"]["roots"] == 240
    assert obj["checks"]["milgram_consistent"] is True


def test_construct_unknown_exits_2():
    code, _, err = run_cli(["construct", "Zorro"])
    assert code == 2
    assert "catalog" in err


@pytest.mark.parametrize("name", ["D0", "D1", "D2"])
def test_construct_small_d_exits_2(name):
    code, out, err = run_cli(["construct", name, "--verify"])
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        "error: D_n only for n >= 3"]


def test_construct_d3():
    code, out, _ = run_cli(["construct", "D3", "--verify"])
    assert code == 0
    assert json.loads(out)["checks"]["det"] == 4


def test_analyze_signature(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"name": "u", "gram": [[0, 1], [1, 0]]}))
    code, out, _ = run_cli(["analyze", "--input", str(path), "--signature"])
    assert code == 0
    assert json.loads(out) == {"sig": [1, 1]}


def test_analyze_census(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"name": "A2", "gram": [[2, -1], [-1, 2]]}))
    code, out, _ = run_cli(["analyze", "--input", str(path), "--census", "2",
                            "--determinant"])
    assert code == 0
    obj = json.loads(out)
    assert obj["det"] == 3
    assert obj["census"] == {"2": 3}


def test_analyze_milgram_of_many_small_blocks(tmp_path):
    # <2>^21 has order 2^21, past the Milgram cap, in 21 blocks of order 2
    path = tmp_path / "a1-21.json"
    path.write_text(json.dumps({"gram": [[2 * (i == j) for j in range(21)]
                                         for i in range(21)]}))
    code, out, _ = run_cli(["analyze", "--input", str(path), "--milgram"])
    assert code == 0
    assert json.loads(out) == {"milgram": 5}


def test_analyze_milgram_refuses_a_large_prime_factor(tmp_path, time_limit):
    # det -(10^60 + 24): the exponent's cofactor above 10^12 has no prime
    # factor up to the Milgram cap; it used to be trial-divided to its root
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gram": [[2, -10 ** 30], [-10 ** 30, -12]]}))
    with time_limit(10):
        code, out, err = run_cli(["analyze", "--input", str(path),
                                  "--milgram"])
    lines = err.splitlines()
    assert code == 2 and out == "" and len(lines) == 1
    assert lines[0].startswith("error: ") and "Milgram cap" in lines[0]


def test_analyze_min_norm_of_a_huge_rank_one_lattice(tmp_path, time_limit):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({"gram": [[-2 * 10 ** 30]]}))
    with time_limit(10):
        code, out, _ = run_cli(["analyze", "--input", str(path),
                                "--min-norm"])
    assert code == 0 and json.loads(out) == {"min_norm": -2 * 10 ** 30}


def test_analyze_missing_file_exits_2():
    code, _, err = run_cli(["analyze", "--input", "/nonexistent.json",
                            "--signature"])
    assert code == 2
    assert "no such file" in err


def test_analyze_bad_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["analyze", "--input", str(path), "--signature"])
    assert code == 2
    assert "line" in err


def test_analyze_non_object_exits_2(tmp_path):
    path = tmp_path / "five.json"
    path.write_text("5")
    code, _, err = run_cli(["analyze", "--input", str(path), "--signature"])
    assert code == 2
    assert "missing field 'gram'" in err


def test_analyze_reads_gram_of_sublattice_record(tmp_path):
    # the shape of the records `autos coinvariant` writes
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"gram": [[-2]], "coords": [[1, 1]]}))
    code, out, _ = run_cli(["analyze", "--input", str(path), "--determinant"])
    assert code == 0
    assert json.loads(out) == {"det": -2}


def test_autos_coinvariant(tmp_path):
    lat = tmp_path / "min2.json"
    lat.write_text(json.dumps({"name": "A1+A1",
                               "gram": [[-2, 0], [0, -2]]}))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([{"lattice": "A1+A1",
                                 "matrix": [[0, 1], [1, 0]]}]))
    code, out, _ = run_cli(["autos", "coinvariant", "--lattice", str(lat),
                            "--gens", str(gens)])
    assert code == 0
    obj = json.loads(out)
    assert obj["group_order"] == 2
    assert obj["invariant"]["rank"] == 1
    assert obj["coinvariant"]["rank"] == 1
    assert obj["torsion_check"] is True


def test_autos_rejects_non_isometry(tmp_path):
    lat = tmp_path / "u.json"
    lat.write_text(json.dumps({"name": "u", "gram": [[0, 1], [1, 0]]}))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[[1, 1], [0, 1]]]))
    code, _, err = run_cli(["autos", "coinvariant", "--lattice", str(lat),
                            "--gens", str(gens)])
    assert code == 2
    assert "isometry" in err


@pytest.mark.parametrize("action", ["closure", "coinvariant"])
@pytest.mark.parametrize("gens", [[5], [[1, 0], [0, 1]],
                                  {"matrix": [[1.0, 0], [0, 1.0]]}, [],
                                  [[[True, 0], [0, 1]]]],
                         ids=["scalar", "bare-rows", "floats", "empty",
                              "bools"])
def test_autos_rejects_malformed_generators(tmp_path, gens, action):
    lat = tmp_path / "a2.json"
    lat.write_text(json.dumps({"name": "A2", "gram": [[2, -1], [-1, 2]]}))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(gens))
    code, out, err = run_cli(["autos", action, "--lattice", str(lat),
                              "--gens", str(path)])
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", ["analyze", "autos"])
@pytest.mark.parametrize("gram", [[[2.7, 1], [1, 2]], [["2", 1], [1, 2]],
                                  [[True, 0], [0, 2]], [[2, 1], [1]]],
                         ids=["float", "string", "bool", "ragged"])
def test_non_integer_gram_exits_2(tmp_path, gram, command):
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps({"gram": gram}))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[[1, 0], [0, 1]]]))
    argv = (["analyze", "--input", str(lat), "--determinant"]
            if command == "analyze" else
            ["autos", "closure", "--lattice", str(lat), "--gens", str(gens)])
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {lat}:") and "integer" in err


@pytest.mark.parametrize("action", ["closure", "coinvariant"])
def test_autos_group_cap_exits_2(tmp_path, action):
    lat = tmp_path / "min2.json"
    lat.write_text(json.dumps({"gram": [[-2, 0], [0, -2]]}))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([[[0, 1], [1, 0]]]))
    code, out, err = run_cli(["autos", action, "--lattice", str(lat),
                              "--gens", str(gens), "--cap", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap of 1 elements" in err


def test_walls_check_divisor():
    coords = ",".join(["0"] * 8 + ["1"] + ["0"] * 15)
    code, out, _ = run_cli(["walls", "check", "--n", "2",
                            "--divisor", coords])
    assert code == 0
    obj = json.loads(out)
    assert obj["is_wall"] is True and obj["clause"] == "root"


def test_walls_check_divisor_in_l_n_or_mukai_coordinates():
    # L_n's basis row 7 is the Mukai basis vector 8
    ln = ",".join(["0"] * 7 + ["1"] + ["0"] * 15)
    mukai = ",".join(["0"] * 8 + ["1"] + ["0"] * 15)
    outs = [run_cli(["walls", "check", "--n", "2", "--divisor", coords])
            for coords in (ln, mukai)]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_walls_check_divisor_that_begins_with_a_minus_sign():
    # f - e + a root lies in v-perp for v = e + f
    coords = ",".join(["-1", "1"] + ["0"] * 6 + ["1"] + ["0"] * 15)
    joined = run_cli(["walls", "check", "--n", "2", f"--divisor={coords}"])
    apart = run_cli(["walls", "check", "--n", "2", "--divisor", coords])
    assert joined[0] == 0 and apart == joined


def test_walls_check_divisor_not_orthogonal_to_v_exits_2():
    # v = e + 2f at n = 3 pairs with e + f' (first and second U) to 2
    coords = ",".join(["1", "0", "0", "1"] + ["0"] * 20)
    code, out, err = run_cli(["walls", "check", "--n", "3",
                              "--divisor", coords])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: divisor is not orthogonal to v"]


def test_walls_check_bad_divisor():
    code, _, err = run_cli(["walls", "check", "--n", "2",
                            "--divisor", "1,2,three"])
    assert code == 2
    assert "comma-separated" in err


def test_enumeration_cap_exits_2():
    code, out, err = run_cli(["construct", "E8", "--verify", "--cap", "10"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap of 10 vectors" in err


def _e8_block(tmp_path, **extra):
    # the first E8(-1) summand of the Mukai lattice, orthogonal to v
    coords = [[0] * (8 + i) + [1] + [0] * (15 - i) for i in range(8)]
    path = tmp_path / "e8.json"
    path.write_text(json.dumps(dict(coords=coords, **extra)))
    return path


def test_walls_check_lattice_coords(tmp_path):
    path = _e8_block(tmp_path)
    code, out, _ = run_cli(["walls", "check", "--n", "2", "--lattice",
                            str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["wall_found"] is True and obj["wall"]["clause"] == "root"


def test_walls_check_lattice_at_a_huge_level(tmp_path, time_limit):
    # two orthogonal E8 roots: v pairs with the saturation only in
    # multiples of v^2, so the search has the one slice (v, r) = 0
    coords = [[0] * 8 + [1] + [0] * 15, [0] * 10 + [1] + [0] * 13]
    path = tmp_path / "roots.json"
    path.write_text(json.dumps({"coords": coords}))
    with time_limit(10):
        code, out, _ = run_cli(["walls", "check", "--n", "1000000",
                                "--lattice", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["wall_found"] is True and obj["wall"]["clause"] == "root"


def test_walls_check_lattice_cap_exits_2(tmp_path):
    path = _e8_block(tmp_path)
    code, _, err = run_cli(["walls", "check", "--n", "2", "--lattice",
                            str(path), "--cap", "10"])
    assert code == 2
    assert err.startswith("error:") and "cap of 10 vectors" in err


def test_walls_check_lattice_needs_coords(tmp_path):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[-2]]}))
    code, _, err = run_cli(["walls", "check", "--n", "2", "--lattice",
                            str(path)])
    assert code == 2 and "coords" in err


def test_walls_check_lattice_gram_mismatch(tmp_path):
    path = _e8_block(tmp_path, gram=[[-2]])
    code, _, err = run_cli(["walls", "check", "--n", "2", "--lattice",
                            str(path)])
    assert code == 2 and "'gram'" in err


def test_classify_prime_2():
    code, out, _ = run_cli(["classify", "prime", "--p", "2"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["minimal_n"] == 1
    assert rows[0]["lattice"] == "S_2.K3"


@pytest.mark.parametrize("p", [3, 5, 11])
def test_classify_prime_prints_the_golden_rows(p):
    golden = pathlib.Path(__file__).with_name("classification_table.json")
    rows = [r for r in json.loads(golden.read_text())["rows"] if r["p"] == p]
    code, out, _ = run_cli(["classify", "prime", "--p", str(p)])
    assert code == 0
    assert out == json.dumps(rows, indent=2, sort_keys=True) + "\n"


def test_classify_unknown_prime():
    code, _, err = run_cli(["classify", "prime", "--p", "19"])
    assert code == 2


def test_verify_unknown_suite():
    code, _, _ = run_cli(["verify", "--suite", "nope"])
    assert code == 2


def test_verify_reports_a_crashing_check(monkeypatch):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "suite", lambda name: [("crash", crash)])
    code, out, err = run_cli(["verify"])
    assert code == 1 and "FAIL (" in err
    assert json.loads(out) == {"suite": "fast", "ok": False, "checks": [
        {"check": "crash", "ok": False, "detail": {"error": "boom"}}]}


# tests/golden/<name>.out holds the stdout bytes of `k3lat <argv>` run from
# tests/golden; commands.json holds each name's argv and exit code
GOLDEN = pathlib.Path(__file__).with_name("golden")
GOLDEN_COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_golden(name, monkeypatch):
    command = GOLDEN_COMMANDS[name]
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run_cli(command["argv"])
    assert code == command["exit"]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_byte_identical_runs():
    argv = ["construct", "N22", "--verify"]
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# Prints a line into block-buffered stdout, then builds the table, whose
# exclusions and large-prime check run in a forked child; reports the
# forks on stderr.
SPLIT_TABLE = """
import os, sys
from k3lat import cli
os.sched_getaffinity = lambda pid: {0, 1}
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
print("before the table")
code = cli.main(["classify", "table"])
print(f"forks: {len(forks)}", file=sys.stderr)
sys.exit(code)
"""


def test_split_table_writes_stdout_once(split):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SPLIT_TABLE],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, text=True, timeout=300)
    split[1](1)
    code, serial, _ = run_cli(["classify", "table"])
    assert proc.returncode == 0 and code == 0
    assert proc.stderr.splitlines()[-1] == "forks: 1"
    assert proc.stdout == "before the table\n" + serial
    assert split[0] == []


def test_split_table_cap_exits_2_with_one_error(split):
    # the rows pass the cap in this process while the child is still
    # working; the child is killed and reaped (the fixture checks)
    code, out, err = run_cli(["classify", "table", "--cap", "10"])
    assert code == 2 and out == "" and len(split[0]) == 1
    assert [line for line in err.splitlines() if "error" in line] == [
        "error: enumeration exceeded the safety cap of 10 vectors up to "
        "sign; rerun with a larger cap to resume"]


@pytest.mark.parametrize("argv", [["construct", "A2"],
                                  ["construct", "A2", "--verify"]],
                         ids=["construct", "construct-verify"])
def test_threads_flag_changes_nothing(argv):
    # --threads is no longer an option: it is rejected before any work is
    # done, and the command without it still succeeds.
    for n in ("1", "8"):
        code, out, _ = run_cli(["--threads", n] + argv)
        assert code == 2 and out == ""
    code, out, _ = run_cli(argv)
    assert code == 0 and json.loads(out)


def test_output_file(tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(["construct", "U", "--output", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["gram"] == [[0, 1], [1, 0]]


def test_classify_table_cap_exits_2():
    code, out, err = run_cli(["classify", "table", "--cap", "10"])
    assert code == 2 and out == ""
    assert "error: enumeration exceeded the safety cap of 10 vectors" in err


# -- fuzz: the exit-code contract on random commands -------------------------
# Random `analyze`, `construct --verify` and `walls check` commands on
# random records: each must exit 0, 1 or 2, raise nothing, print an
# `error:` line with every 2 and end within the time limit.

BIG = 10 ** 30


@st.composite
def grams(draw):
    """Square lists of size 0-5: symmetric or not, degenerate, odd,
    indefinite or definite, of ints up to BIG or with floats, strings,
    bools and None mixed in."""
    n = draw(st.integers(0, 5))
    ints = st.integers(-BIG, BIG) if draw(st.booleans()) \
        else st.integers(-3, 3)
    kind = draw(st.sampled_from(["definite", "definite", "symmetric",
                                 "degenerate", "asymmetric", "mixed"]))
    if kind == "mixed":
        ints = st.one_of(ints, st.floats(), st.text(max_size=2),
                         st.booleans(), st.none())
    G = [[draw(ints) for _ in range(n)] for _ in range(n)]
    if kind != "asymmetric":
        for i in range(n):
            for j in range(i):
                G[i][j] = G[j][i]
    if kind == "definite":  # diagonally dominant, of either sign
        sign = draw(st.sampled_from([-1, 1]))
        for i in range(n):
            G[i][i] = sign * (sum(abs(a) for a in G[i]) + draw(ints.filter(
                lambda a: a >= 0)) + 1)
    if kind == "degenerate" and n:
        G[-1] = [0] * n
        for row in G:
            row[-1] = 0
    return G


def records(draw):
    if draw(st.integers(0, 4)):
        return {"gram": draw(grams())}
    return draw(st.sampled_from([[], {}, {"gram": 2}, {"gram": [[1, 2]]},
                                 {"gram": [[1], [2]]}, "E8"]))


def flag(draw, name, values):
    return [name, str(draw(values))] if draw(st.booleans()) else []


@st.composite
def commands(draw):
    """(argv, record or None): the record is written to the file that
    argv names as record.json."""
    cap = flag(draw, "--cap", st.integers(0, 10 ** 4))
    action = draw(st.sampled_from(["analyze", "construct", "walls"]))
    if action == "analyze":
        flags = draw(st.lists(st.sampled_from(
            ["--signature", "--determinant", "--even", "--discriminant",
             "--milgram", "--min-norm"]), unique=True))
        flags += flag(draw, "--census", st.integers(-1, 8))
        return (["analyze", "--input", "record.json"] + flags + cap,
                records(draw))
    if action == "construct":
        name = draw(st.sampled_from(
            ["A2", "A3(-1)", "D4", "D2", "E6", "E8", "E8(-2)", "E8(100000)",
             "E8(1000000)", "U", "U(3)", "K3", "leech", "BW16(-1)",
             "S_3exo", "N22", "Zorro", "A0"]))
        return ["construct", name, "--verify"] + cap, None
    argv = ["walls", "check", "--n", str(draw(st.integers(-1, 6)))] + cap
    entries = st.integers(-BIG, BIG) if draw(st.booleans()) \
        else st.integers(-2, 2)
    width = draw(st.sampled_from([23, 24, 3]))
    if draw(st.booleans()):
        argv += ["--divisor", ",".join(
            str(a) for a in draw(st.lists(entries, min_size=width,
                                          max_size=width)))]
    if draw(st.booleans()):
        rows = st.lists(st.lists(entries, min_size=width, max_size=width),
                        max_size=5)
        return argv + ["--lattice", "record.json"], {"coords": draw(rows)}
    return argv, None


def test_random_commands_keep_the_exit_code_contract(tmp_path, monkeypatch,
                                                     time_limit):
    monkeypatch.chdir(tmp_path)

    # two inputs that once never finished
    @settings(max_examples=150, deadline=None)
    @given(commands())
    @example((["analyze", "--input", "record.json", "--min-norm"],
              {"gram": [[-2 * BIG]]}))
    @example((["construct", "E8(1000000)", "--verify"], None))
    def check(command):
        argv, record = command
        if record is not None:
            (tmp_path / "record.json").write_text(json.dumps(record))
        with time_limit(5):
            code, _, err = run_cli(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert any("error:" in line for line in err.splitlines())

    check()
