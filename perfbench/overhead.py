"""Tracing overhead: traced minus untraced end-to-end figures.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 1
    python3 perfbench/overhead.py

Pairs the result files run.py left in perfbench/out/ by workload and
seed, and prints each end-to-end metric untraced, traced, and the
difference as a share of the untraced value.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for untraced in sorted(OUT.glob("result-*-t0.json")):
        traced = untraced.with_name(untraced.name[:-len("t0.json")]
                                    + "t1.json")
        if not traced.exists():
            continue
        a = json.loads(untraced.read_text())
        b = json.loads(traced.read_text())
        print(f"{a['workload']} seed {a['seed']}")
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            print(f"  {name:12s} {x:12.4f} {y:12.4f} {unit:6s} "
                  f"{(y - x) / x:+.1%}")


if __name__ == "__main__":
    main()
