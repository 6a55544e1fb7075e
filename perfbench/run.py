"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest-color --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with the benchmark's spans around
each layer's public calls and prints the per-layer metrics, plus a
table of each layer's wall beside its ``W/P + D`` prediction.  The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(inputs' digests, configuration, metrics) also goes to
``.bench_build/perfbench/results/``.  The exit code is non-zero when a
job failed or a coloring missed its certificate.  ``--size toy`` runs
the same workload on tiny inputs (the benchmark's own tests use it).
"""

from __future__ import annotations

import argparse
import json
import platform
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Set-up passes per run; ``setup_s`` is their median.
SETUP_REPS = 3


def spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def workload_classes() -> dict:
    from batch import ColorMem, IngestColor
    from svc import SvcDynamic

    return {cls.name: cls for cls in (IngestColor, ColorMem, SvcDynamic)}


def set_up(cls, seed: int, size: str):
    """Set the workload up :data:`SETUP_REPS` times; keep the last."""
    walls = []
    wl = None
    for _ in range(SETUP_REPS):
        if wl is not None:
            wl.close()
        with common.Stopwatch() as sw:
            wl = cls(seed, size)
        walls.append(sw.busy)
    return wl, common.median(walls)


def configuration(wl) -> dict:
    import numpy

    from repro.primitives.tiers import resolve_kernel_tier

    cfg = {"nproc": common.nproc(), "kernel_tier": resolve_kernel_tier(None),
           "numpy": numpy.__version__,
           "python": platform.python_version(),
           "git_sha": common.git_sha(),
           # svc-dynamic's client threads, one connection each.
           "load_threads": getattr(wl, "clients", 1),
           "connections": getattr(wl, "clients", 0)}
    cfg.update(wl.config)
    return cfg


def with_units(values: dict, declared: list[dict], bypassed) -> dict:
    """Attach each declared metric's unit; bypassed layers read 0."""
    names = {m["name"] for m in declared}
    extra = set(values) - names
    if extra:
        raise SystemExit(f"perfbench: undeclared metrics {sorted(extra)}")
    out = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            if not m["name"].startswith(bypassed):
                raise SystemExit(f"perfbench: metric {m['name']} missing")
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    args = ap.parse_args(argv)
    # A terminated run still stops the server it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = spec()
    common.confine()
    classes = workload_classes()
    if args.workload not in classes:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"options: {sorted(classes)}")
    wl, setup_s = set_up(classes[args.workload], args.seed, args.size)
    spans = common.Spans()
    try:
        wl.config.update(configuration(wl))
        if args.trace:
            values, report = wl.measure_traced(args.seconds, spans)
            declared = bench["per_layer"]
        else:
            values, report = wl.measure(args.seconds), []
            values["setup_s"] = setup_s
            declared = bench["end_to_end"]
    finally:
        wl.close()
    metrics = with_units(values, declared, getattr(wl, "bypassed", ()))
    correct = wl.failed == 0
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    common.RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        spans.write(common.RESULTS / f"spans-{tag}.json")
    result = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": args.trace,
              "inputs": wl.inputs, "config": wl.config,
              "correct": correct, "attempted": wl.attempted,
              "failed": wl.failed, "metrics": metrics}
    with open(common.RESULTS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print("inputs: " + json.dumps(wl.inputs, sort_keys=True))
    print("config: " + json.dumps(wl.config, sort_keys=True))
    for line in report:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
