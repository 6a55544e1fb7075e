"""Compare two result files of the benchmark, metric by metric.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Both files are results ``run.py`` wrote under
``.bench_build/perfbench/results/``.  The comparison is refused (exit
code 2) unless both ran the same workload, size and trace mode on
inputs with identical content digests -- numbers from different graphs
are not comparable.  Otherwise each metric prints with its change as a
share of the base value.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    base, new = load(args[0]), load(args[1])
    for key in ("workload", "size", "trace", "inputs"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} differs\n  {base[key]}\n  "
                  f"{new[key]}")
            return 2
    for name, b in base["metrics"].items():
        n = new["metrics"][name]
        change = (n["value"] - b["value"]) / b["value"] if b["value"] \
            else 0.0
        print(f"{name:<28} {b['value']:>14.6g} -> {n['value']:>14.6g} "
              f"{b['unit']:<6} {change:+.2%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
