"""Self-tests of the benchmark: every check rejects a corrupted result.

    python3 perfbench/selftest.py

Each check is fed a result that satisfies it and then copies with one
field corrupted; real stream outputs come from k3lat under ./src. The
tests also check that inputs repeat for a seed and that tracing reaches
calls made through imported aliases.
"""

import copy
import random
import statistics
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def _good_table():
    rows = [{"p": p, "lattice": name, "minimal_n": n, "witness": {}}
            for name, (p, n) in wl.PAPER_ROWS.items()]
    rows[-1]["deformation_classes"] = 2
    grams = {"BW16(-1)": [[4, 1], [1, -2]], "S_3exo": [[6, 2], [2, 0]],
             "D12+(-2)": [[2, 1], [1, -2]]}
    clauses = {"BW16(-1)": "root", "S_3exo": "norm", "D12+(-2)": "root"}
    exclusions = {
        name: {"n": n, "status": "obstructed",
               "wall": {"t_gram": grams[name], "clause": clauses[name],
                        "is_wall": True}}
        for name, n in wl.PAPER_EXCLUSIONS.items()}
    return {"rows": rows, "exclusions": exclusions,
            "large_primes": {"13": 24, "23": 22, "rejected": True}}


class CensusCheck(unittest.TestCase):
    inp = ("P1", None)

    def test_accepts_kissing_number(self):
        self.assertEqual(wl.census_check(self.inp, {-4: 196560}), [])

    def test_rejects_corruptions(self):
        for counts in ({-4: 196558}, {-4: 196560, -2: 48},
                       {-4: 196560, -3: 2}, {}):
            self.assertTrue(wl.census_check(self.inp, counts), counts)


class StreamCheck(unittest.TestCase):
    good = {"order": 3, "rank_S": 12, "rank_T": 12, "det_S": 729,
            "factors": [3] * 6, "milgram": 4, "has_roots": False,
            "forms_match": True}
    inp = ("glue", 3, ("N22", None))

    def test_accepts_good_record(self):
        self.assertEqual(wl.stream_check(self.inp, self.good), [])
        dodecad = {"order": 2, "rank_S": 12, "rank_T": 12, "det_S": 4096,
                   "factors": [2] * 12, "milgram": 4, "has_roots": False,
                   "forms_match": None}
        self.assertEqual(wl.stream_check(("sign", 2, 0), dodecad), [])

    def test_rejects_corruptions(self):
        corruptions = [
            {"order": 9}, {"rank_T": 11}, {"rank_S": 14, "rank_T": 10},
            {"det_S": 728}, {"factors": [3] * 5 + [9]},
            {"factors": [2] * 6, "det_S": 64}, {"milgram": 0},
            {"has_roots": True}, {"forms_match": False},
            {"forms_match": None}]
        for change in corruptions:
            bad = dict(self.good, **change)
            self.assertTrue(wl.stream_check(self.inp, bad), change)

    def test_real_outputs_pass_and_corruptions_fail(self):
        ctx = wl.stream_setup()
        for inp in wl.stream_round(ctx, 7, 0):
            if inp[1] in (13, 23):
                continue  # the two rank > 20 kinds take longest
            out = wl.stream_op(ctx, inp)
            self.assertEqual(wl.stream_check(inp, out), [], inp)
            for key, value in (("order", out["order"] * 2),
                               ("rank_S", out["rank_S"] - 1),
                               ("det_S", out["det_S"] * inp[1]),
                               ("milgram", (out["milgram"] + 1) % 8),
                               ("has_roots", True)):
                bad = dict(out, **{key: value})
                self.assertTrue(wl.stream_check(inp, bad), (inp, key))


class TableCheck(unittest.TestCase):
    def test_accepts_paper_table(self):
        self.assertEqual(wl.table_check(None, _good_table()), [])

    def test_rejects_corruptions(self):
        def rows(t):
            return {r["lattice"]: r for r in t["rows"]}

        def wall(t, name):
            return t["exclusions"][name]["wall"]

        edits = [
            lambda t: rows(t)["W(-1)"].update(minimal_n=3),
            lambda t: rows(t)["S_5exo"].update(p=3),
            lambda t: rows(t)["S_11.K3[2]"].update(deformation_classes=1),
            lambda t: t["rows"].pop(0),
            lambda t: t["exclusions"]["S_3exo"].update(status="realizable"),
            lambda t: t["exclusions"]["BW16(-1)"].update(n=2),
            lambda t: t["exclusions"].pop("D12+(-2)"),
            lambda t: wall(t, "BW16(-1)").update(t_gram=[[2, 1], [1, -2]]),
            lambda t: wall(t, "D12+(-2)").update(t_gram=[[2, 1], [1, -4]]),
            lambda t: wall(t, "S_3exo").update(t_gram=[[6, 2], [2, 1]]),
            lambda t: wall(t, "S_3exo").update(t_gram=[[6, 2], [3, 0]]),
            lambda t: wall(t, "S_3exo").update(clause="root"),
            lambda t: wall(t, "D12+(-2)").update(is_wall=False),
            lambda t: t["large_primes"].update({"13": 20}),
            lambda t: t["large_primes"].update(rejected=False),
        ]
        for i, edit in enumerate(edits):
            table = copy.deepcopy(_good_table())
            edit(table)
            self.assertTrue(wl.table_check(None, table), i)


class Definitions(unittest.TestCase):
    def test_inputs_repeat_for_a_seed(self):
        model = type("L", (), {"gram": [[2, 1], [1, 2]]})()
        models = {"P1": model, wl.CENSUS_FRAME: model}
        first = wl.census_round(models, 3, 1)
        self.assertEqual(first, wl.census_round(models, 3, 1))
        self.assertNotEqual(first, wl.census_round(models, 4, 1))

    def test_base_change_is_unimodular(self):
        gram = [[int(i == j) for j in range(6)] for i in range(6)]
        G = wl.base_change(gram, random.Random(0))
        from k3lat import linalg
        self.assertEqual(linalg.det(G), 1)


class Speed(unittest.TestCase):
    def test_samples_are_taken_out_of_the_work_time(self):
        import worker
        meter = worker.Speedometer()
        try:
            mark = meter.mark()
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.5:
                worker.reference()
        finally:
            meter.stop()
        wall = time.perf_counter() - t0
        work, scale = meter.since(mark)
        self.assertGreaterEqual(len(meter.samples), 2)
        self.assertAlmostEqual(work, wall - meter.spent, delta=0.01)
        self.assertAlmostEqual(
            scale, worker.REFERENCE_S / statistics.fmean(meter.samples))


class Tracing(unittest.TestCase):
    def test_spans_cover_imported_aliases(self):
        import spans
        from k3lat import catalog, discforms, isometries
        tracer = spans.install()
        self.assertIs(isometries.discriminant_data,
                      discforms.discriminant_data)
        with tracer.span("bench.op"):
            isometries.discriminant_action(
                catalog.root_lattice("A", 2),
                isometries.identity_isometry(catalog.root_lattice("A", 2)))
        tracer.ops = 1
        names = [tracer.names[i] for i in tracer.name]
        self.assertIn("discforms.discriminant_data", names)
        i = names.index("discforms.discriminant_data")
        self.assertEqual(names[tracer.parent[i]],
                         "isometries.discriminant_action")
        self.assertEqual(tracer.metrics()["discforms.discriminant_data.calls"],
                         1)


if __name__ == "__main__":
    unittest.main()
