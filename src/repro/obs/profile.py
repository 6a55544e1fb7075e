"""Per-phase / per-round breakdown tables for one traced run.

Backs the ``python -m repro profile`` subcommand: given a
:class:`~repro.coloring.result.ColoringResult` and the tracer that
watched the run, produce flat rows for
:func:`repro.analysis.tables.format_table` — where a run spends its
wall time (by phase, exclusive), what each phase costs in the
work-depth model, and how every round's frontier/batch/conflict
metrics evolved.
"""

from __future__ import annotations


def phase_breakdown(result, tracer=None) -> list[dict]:
    """One row per (stage, phase): model cost, memory touches, wall.

    Wall seconds are *exclusive* (self) times.  When a tracer is given
    its run-wide phase spans are preferred — ``result.phase_walls``
    only covers the coloring context, while an ordering computed on a
    child context reports through the shared tracer.
    """
    walls = dict(result.phase_walls)
    if tracer is not None and tracer.enabled:
        walls.update(tracer.phase_self_walls())
    stages = []
    if result.reorder_cost is not None:
        stages.append(("reorder", result.reorder_cost, result.reorder_mem))
    stages.append(("coloring", result.cost, result.mem))
    rows = []
    for stage, cost, mem in stages:
        for name, p in cost.phases.items():
            seq, rand = (mem.by_phase.get(name, (0, 0))
                         if mem is not None else (0, 0))
            rows.append({
                "stage": stage, "phase": name,
                "wall_s": round(walls.get(name, 0.0), 6),
                "work": p.work, "depth": p.depth, "rounds": p.rounds,
                "mem_seq": seq, "mem_rand": rand,
            })
    return rows


def round_breakdown(tracer) -> list[dict]:
    """One row per round id, one column per metric series.

    Counters sum repeated points for the same round id (DEC engines
    restart their round counter per partition); gauges keep the last
    sample.  Missing cells are left empty.
    """
    if not tracer.enabled:
        return []
    names = tracer.metrics.names()
    rounds: dict[int, dict] = {}
    for name in names:
        for rnd, value in tracer.metrics.get(name).by_round().items():
            row = rounds.setdefault(rnd, {"round": rnd})
            row[name] = int(value) if float(value).is_integer() else value
    out = []
    for rnd in sorted(rounds):
        row = {"round": rnd}
        for name in names:
            row[name] = rounds[rnd].get(name, "")
        out.append(row)
    return out


def resource_breakdown(result) -> list[dict]:
    """Resource-telemetry rows for one run, from ``result.resources``.

    One ``coordinator`` row (sampler peak RSS, CPU seconds, sample
    count).  Empty when telemetry was off — the profile section is
    omitted then.
    """
    rec = getattr(result, "resources", None)
    if not rec:
        return []
    coord = rec.get("coordinator") or {}
    return [{
        "role": "coordinator", "pid": coord.get("pid", ""),
        "peak_rss_kb": coord.get("peak_rss_kb", 0),
        "cpu_s": round(coord.get("cpu_s", 0.0), 4),
        "samples": coord.get("samples", 0),
    }]
