import io
import json
from contextlib import redirect_stdout, redirect_stderr

import pytest

from k3lat import cli


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


def test_walls_check_divisor():
    coords = ",".join(["0"] * 8 + ["1"] + ["0"] * 15)
    code, out, _ = run_cli(["walls", "check", "--n", "2",
                            "--divisor", coords])
    assert code == 0
    obj = json.loads(out)
    assert obj["is_wall"] is True and obj["clause"] == "root"


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


def test_classify_unknown_prime():
    code, _, err = run_cli(["classify", "prime", "--p", "19"])
    assert code == 2


def test_verify_unknown_suite():
    code, _, _ = run_cli(["verify", "--suite", "nope"])
    assert code == 2


def test_byte_identical_runs():
    argv = ["construct", "N22", "--verify"]
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_threads_flag_changes_nothing():
    _, out1, _ = run_cli(["--threads", "1", "construct", "A2"])
    _, out8, _ = run_cli(["--threads", "8", "construct", "A2"])
    assert out1 == out8


def test_output_file(tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(["construct", "U", "--output", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["gram"] == [[0, 1], [1, 0]]
