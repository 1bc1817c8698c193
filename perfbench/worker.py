"""One benchmark worker process: set up a workload, then time its rounds.

Started by run.py in a fresh interpreter. It prints "ready" once set-up
is done and, as its last line, one JSON object with the operation times
and checks of the rounds it ran. Rounds are whole: another round starts
only while the mean round time so far still fits in the time budget.

Every time it reports is also given at reference speed, because the
host's speed drifts between a fast and a slow state within seconds. A
`Speedometer` times a small fixed pure-Python computation (`reference`)
every SAMPLE_EVERY_S, from a timer signal, so the samples fall inside
the operations too. The time the samples take is taken out of the
figures, and each stretch of work (set-up, or operations until at least
STRETCH_S have passed) is scaled by REFERENCE_S over the mean sample
time within it.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import spans
from workloads import WORKLOADS

# About the reference computation's time in this machine's fast state
# (2-vCPU Xeon at 2.0 GHz, CPython 3.11.7): reference-speed times are wall
# times scaled to that state.
REFERENCE_S = 0.0045
SAMPLE_EVERY_S = 0.2
STRETCH_S = 1.0


def reference():
    """A fixed pure-Python computation with k3lat's mix of work: exact
    Fraction elimination, integer row-by-matrix products over fresh lists,
    and a plain integer loop."""
    k = 6
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(k)]
         for i in range(k)]
    for c in range(k):
        for r in range(c + 1, k):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    cols = list(zip(*[[(i * j) % 7 - 3 for j in range(24)]
                      for i in range(24)]))
    for v in range(60):
        vec = [(v * i) % 5 - 2 for i in range(24)]
        [sum(x * b for x, b in zip(vec, col)) for col in cols]
    s = 0
    for i in range(15_000):
        s += i * i % 7
    return s


class Speedometer:
    """Times `reference()` every SAMPLE_EVERY_S from SIGALRM."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in samples
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self):
        return len(self.samples), self.spent, time.perf_counter()

    def since(self, mark):
        """Wall time since `mark` less the samples taken in it, and the
        factor that scales it to reference speed. The sample just before
        the mark also counts, so a short stretch has one."""
        n, spent, t0 = mark
        work = time.perf_counter() - t0 - (self.spent - spent)
        window = self.samples[max(n - 1, 0):]
        if not window:
            t1 = time.perf_counter()
            reference()
            window = [time.perf_counter() - t1]
        return work, REFERENCE_S / statistics.fmean(window)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first-round", type=int, default=0)
    ap.add_argument("--max-rounds", type=int, default=None)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() when run.py started this process")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    meter = Speedometer()
    mark = meter.mark()
    before = time.monotonic() - args.started  # interpreter start, unsampled
    import k3lat  # noqa: F401  (set-up time includes the import)
    tracer = spans.install() if args.trace_out else None
    if tracer:
        with tracer.span("bench.setup"):
            ctx = wl.setup()
        tracer.phase = spans.OPS
    else:
        ctx = wl.setup()
    work, scale = meter.since(mark)
    raw_setup_s = before + work
    setup_s = raw_setup_s * scale
    print("ready", flush=True)

    raw_op_s, op_s, stretch, problems = [], [], [], []
    timed_s = 0.0  # operations and checks, reference speed
    attempted = failed = rounds = 0
    started = time.perf_counter()
    elapsed = 0.0
    mark = meter.mark()

    def close_stretch():
        nonlocal timed_s
        work, scale = meter.since(mark)
        op_s.extend(t * scale for t in stretch)
        timed_s += work * scale
        stretch.clear()
        return meter.mark()

    while args.max_rounds is None or rounds < args.max_rounds:
        if rounds and elapsed + elapsed / rounds > args.budget:
            break
        for inp in wl.round_inputs(ctx, args.seed, args.first_round + rounds):
            attempted += 1
            spent, t0 = meter.spent, time.perf_counter()
            try:
                if tracer:
                    with tracer.span("bench.op"):
                        out = wl.op(ctx, inp)
                    tracer.ops += 1
                else:
                    out = wl.op(ctx, inp)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"operation failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            stretch.append(time.perf_counter() - t0 - (meter.spent - spent))
            raw_op_s.append(stretch[-1])
            problems += wl.check(inp, out)
            if time.perf_counter() - mark[2] >= STRETCH_S:
                mark = close_stretch()
        rounds += 1
        elapsed = time.perf_counter() - started
    if stretch:
        close_stretch()
    meter.stop()

    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "elapsed_s": elapsed,
        "timed_s": timed_s,
        "op_s": op_s,
        "raw_op_s": raw_op_s,
        "reference_s": meter.samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer:
        result["per_layer"] = tracer.metrics() if tracer.ops else None
        tracer.dump(args.trace_out, {"workload": args.workload,
                                     "seed": args.seed, "pid": os.getpid(),
                                     "setup_s": raw_setup_s,
                                     "op_s": raw_op_s})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
