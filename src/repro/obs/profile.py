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


def fault_breakdown(result) -> list[dict]:
    """Fault-recovery rows for one run, from ``result.faults``.

    One row per ``fault.*`` counter (injections, retries, timeouts,
    respawns, degradations) followed by one row per recorded
    respawn/degradation event, in order.  Empty when the run had no
    fault plan and saw no recovery activity — the profile section is
    omitted then.
    """
    rec = getattr(result, "faults", None)
    if not rec:
        return []
    rows = [{"kind": "counter", "name": name, "value": rec["counters"][name],
             "detail": ""}
            for name in sorted(rec["counters"])]
    for ev in rec["events"]:
        detail = {k: v for k, v in ev.items() if k != "kind"}
        rows.append({"kind": "event", "name": ev["kind"],
                     "value": detail.pop("round", ""),
                     "detail": " ".join(f"{k}={v}"
                                        for k, v in sorted(detail.items()))})
    plan = rec.get("plan")
    if plan:
        rows.append({"kind": "plan", "name": "clauses",
                     "value": plan["clauses"],
                     "detail": f"seed={plan['seed']} fired={plan['fired']}"})
    return rows


def dispatch_breakdown(result) -> list[dict]:
    """Adaptive-dispatch rows for one run, from ``result.dispatch``.

    One row per decision counter (inline / parallel), one per learned
    model input (per-kernel ``unit_s``, per-backend ``dispatch_s`` with
    its seeding provenance).  Empty when the run made no dispatch
    decisions (serial backend, or ``$REPRO_ADAPTIVE=off``) — the
    profile section is omitted then.
    """
    rec = getattr(result, "dispatch", None)
    if not rec:
        return []
    rows = [{"kind": "decision", "name": name,
             "value": rec["decisions"][name], "detail": ""}
            for name in sorted(rec["decisions"])]
    for key, val in rec.get("unit_s", {}).items():
        rows.append({"kind": "unit_s", "name": key,
                     "value": f"{val:.3e}", "detail": "sec/unit"})
    for backend, val in rec.get("dispatch_s", {}).items():
        rows.append({"kind": "dispatch_s", "name": backend,
                     "value": f"{val:.3e}",
                     "detail": f"seed={rec.get('seeded', {}).get(backend, '')}"})
    rows.append({"kind": "mode", "name": "adaptive",
                 "value": rec.get("mode", ""),
                 "detail": f"margin={rec.get('margin', '')}"})
    return rows


def shard_breakdown(result) -> list[dict]:
    """Sharding-layer rows for one run, from ``result.shards``.

    One row per shard (size, boundary/ghost counts, working-set bytes,
    and — when the shard actually ran — its engine's rounds, wall,
    work, and peak RSS), then one ``repair`` row with the cut-edge
    count and the boundary protocol's rounds/recolors, and a
    ``degraded`` row when the run fell back to unsharded execution.
    Empty when the run did not go through the sharding layer — the
    profile section is omitted then.
    """
    rec = getattr(result, "shards", None)
    if not rec:
        return []
    per = {r["shard"]: r for r in rec.get("per_shard", [])}
    rows = []
    for sid in range(rec["n_shards"]):
        r = per.get(sid)
        rows.append({
            "shard": sid,
            "n": rec["sizes"][sid], "edges": rec["edges"][sid],
            "boundary": rec["boundary"][sid], "ghosts": rec["ghosts"][sid],
            "bytes": rec["bytes"][sid],
            "rounds": r["rounds"] if r else "",
            "conflicts": r["conflicts"] if r else "",
            "wall_ms": round(r["wall_s"] * 1e3, 3) if r else "",
            "work": r["work"] if r else "",
            "rss_kb": r["rss_kb"] if r else "",
        })
    rows.append({
        "shard": "repair", "n": "", "edges": rec["cut_edges"],
        "boundary": "", "ghosts": "", "bytes": "",
        "rounds": rec["repair_rounds"],
        "conflicts": rec["repair_recolored"],
        "wall_ms": "", "work": "", "rss_kb": "",
    })
    if rec.get("degraded"):
        rows.append({
            "shard": "degraded", "n": "", "edges": "", "boundary": "",
            "ghosts": "", "bytes": "", "rounds": "", "conflicts": "",
            "wall_ms": "", "work": "",
            "rss_kb": f"respawns={rec.get('respawns', 0)}",
        })
    return rows


def resource_breakdown(result) -> list[dict]:
    """Resource-telemetry rows for one run, from ``result.resources``.

    One ``coordinator`` row (sampler peak RSS, CPU seconds, sample
    count), then one row per worker pid (``shardN`` for shard rows,
    ``worker`` otherwise).  Empty when telemetry was off — the profile
    section is omitted then.
    """
    rec = getattr(result, "resources", None)
    if not rec:
        return []
    coord = rec.get("coordinator") or {}
    rows = [{
        "role": "coordinator", "pid": coord.get("pid", ""),
        "peak_rss_kb": coord.get("peak_rss_kb", 0),
        "cpu_s": round(coord.get("cpu_s", 0.0), 4),
        "samples": coord.get("samples", 0),
    }]
    for w in rec.get("workers", []):
        role = f"shard{w['shard']}" if "shard" in w else "worker"
        rows.append({
            "role": role, "pid": w.get("pid", ""),
            "peak_rss_kb": w.get("peak_rss_kb", 0),
            "cpu_s": round(w.get("cpu_s", 0.0), 4),
            "samples": "",
        })
    return rows


def imbalance_breakdown(tracer) -> list[dict]:
    """One row per multi-chunk round: chunk count and max/mean wall."""
    if not tracer.enabled:
        return []
    rows = []
    for e in tracer.spans(cat="round"):
        if e.args.get("chunks", 0) > 1:
            rows.append({
                "phase": e.args.get("phase") or "", "round": e.args["round"],
                "chunks": e.args["chunks"], "items": e.args["items"],
                "max_chunk_ms": round(e.args["max_chunk_s"] * 1e3, 3),
                "mean_chunk_ms": round(e.args["mean_chunk_s"] * 1e3, 3),
                "imbalance": round(e.args["imbalance"], 3),
            })
    return rows
