"""Run a workload over several seeds and print each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload color-mem --seeds 1-10 \\
        [--seconds 20] [--trace 0]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), beside a third of the metric's
bound in ``BENCHMARK.json`` -- the spread a steady benchmark stays
under.  Runs go one after another, never side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        runs.append(json.loads(last)["metrics"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1].items()), flush=True)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    worst = 0.0
    for m in declared:
        values = [r[m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        limit = m.get("bound")
        flag = ""
        if limit is not None and m["name"] != "setup_s":
            worst = max(worst, share / limit)
            flag = "  OVER 1/3 bound" if share > limit / 3 else ""
        print(f"{m['name']:<28} median {med:>12.5g} {m['unit']:<6} "
              f"iqr/median {share:.4f}"
              + (f"  (bound {limit})" if limit is not None else "") + flag)
    if not args.trace:
        print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
