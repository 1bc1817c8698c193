import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr

import pytest

from k3lat import acceptance, catalog, cli, enumeration


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


def test_byte_identical_runs():
    argv = ["construct", "N22", "--verify"]
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# Prints a line into block-buffered stdout, then runs a census whose walk
# is dealt out between this process and a forked child.
SPLIT_CENSUS = """
import os, sys
from k3lat import cli, enumeration
enumeration.SPLIT_NODES = 0
os.sched_getaffinity = lambda pid: {0, 1}
print("before the census")
sys.exit(cli.main(["analyze", "--input", sys.argv[1], "--census", "4"]))
"""


def test_split_census_writes_stdout_once(tmp_path, monkeypatch):
    path = tmp_path / "leech.json"
    path.write_text(json.dumps({"name": "leech", "gram": catalog.leech().gram}))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SPLIT_CENSUS, str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, text=True, timeout=300)
    monkeypatch.setattr(enumeration, "SPLIT_NODES", 1 << 62)
    code, serial, _ = run_cli(["analyze", "--input", str(path),
                               "--census", "4"])
    assert proc.returncode == 0 and code == 0
    assert proc.stdout == "before the census\n" + serial
    assert json.loads(serial) == {"census": {"-4": 98280}}


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
