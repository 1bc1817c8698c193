"""k3lat benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload leech-census --seed 1 --seconds 30 --trace 0

Run from the repository root. Each worker is a fresh interpreter with
PYTHONHASHSEED=0 that imports k3lat from ./src, sets up, then runs whole
rounds of operations until the time budget is spent, checking every
output. Workloads marked cold run each round in a fresh worker. Extra
workers that only set up bring the set-up samples to SETUP_SAMPLES, and
setup_s is their median.

The time metrics are at reference speed (see worker.py): each stretch
of work is scaled by how fast a fixed reference computation ran in
samples taken during it, so that the host's drift between a fast and a
slow state cancels out. The wall-clock figures go to stderr and the
result file beside them.

With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 every worker traces the layers and the last line holds the
per-layer metrics, while the traced end-to-end figures (whose excess
over an untraced run is the tracing overhead) go to stderr and, with
the spans, to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def start_worker(args, budget, first_round, max_rounds, trace_out, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--first-round", str(first_round), "--budget", repr(budget)]
    if max_rounds is not None:
        cmd += ["--max-rounds", str(max_rounds)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--started", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(args):
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    n_workers = 0

    def worker(budget, first_round, max_rounds):
        nonlocal n_workers
        n_workers += 1
        trace_out = (OUT / f"trace-{args.workload}-s{args.seed}-"
                     f"w{n_workers}.json") if args.trace else None
        return start_worker(args, budget, first_round, max_rounds, trace_out,
                            deadline)

    workers = [worker(args.seconds, 0, 1 if wl.cold else None)]
    elapsed = workers[0]["elapsed_s"]
    while wl.cold and elapsed + elapsed / len(workers) <= args.seconds:
        workers.append(worker(args.seconds - elapsed, len(workers), 1))
        elapsed += workers[-1]["elapsed_s"]
    probes = [worker(0.0, 0, 0)
              for _ in range(SETUP_SAMPLES - len(workers))]

    op_s = [t for w in workers for t in w["op_s"]]
    problems = [p for w in workers for p in w["problems"]]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if not op_s:
        raise WorkerError(f"no operation completed ({failed} failed)")
    raw_op_s = [t for w in workers for t in w["raw_op_s"]]
    everyone = workers + probes
    end_to_end = {
        "setup_s": statistics.median(w["setup_s"] for w in everyone),
        "op_median_s": statistics.median(op_s),
        "ops_per_s": len(op_s) / sum(w["timed_s"] for w in workers),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in everyone),
    }
    wall_clock = {
        "setup_s": statistics.median(w["raw_setup_s"] for w in everyone),
        "op_median_s": statistics.median(raw_op_s),
        "ops_per_s": len(raw_op_s) / elapsed,
    }
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "end_to_end": end_to_end, "wall_clock": wall_clock,
               "reference_s": [r for w in everyone for r in w["reference_s"]],
               "setup_samples": [w["setup_s"] for w in everyone],
               "attempted": attempted, "failed": failed}
    if len(op_s) >= 100:  # at least ten samples beyond the 90th percentile
        summary["op_p90_s"] = statistics.quantiles(op_s, n=10)[-1]
    print(json.dumps({k: v for k, v in summary.items()
                      if k != "reference_s"}), file=sys.stderr)
    summary["op_s"], summary["raw_op_s"] = op_s, raw_op_s
    kind = "per_layer" if args.trace else "end_to_end"
    units = [(m["name"], m["unit"]) for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]
    if args.trace:
        layers = [w["per_layer"] for w in workers if w.get("per_layer")]
        values = {k: statistics.fmean(m.get(k, 0) for m in layers)
                  for k, _ in units}
        summary["per_layer"] = values
    else:
        values = end_to_end
    metrics = {k: {"value": values[k], "unit": u} for k, u in units}
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json",
              "w") as fh:
        json.dump(summary, fh, indent=1)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "k3lat" / "__init__.py").is_file():
        print(f"no k3lat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
