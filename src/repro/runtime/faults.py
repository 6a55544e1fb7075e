"""Deterministic fault injection for the execution runtime.

The runtime's recovery machinery (per-chunk retry, round deadlines,
worker respawn, backend degradation — see
:meth:`~repro.runtime.ExecutionContext.map_chunks`) is only trustworthy
if every recovery path can be exercised *on demand and reproducibly*.
A :class:`FaultPlan` is a seeded, deterministic schedule of injected
faults addressed by ``(round, chunk)`` coordinates: round ids are the
run-wide :meth:`map_chunks` sequence numbers shared by every context of
one run, chunk ids index the round's chunk list, so the same plan hits
the same coordinates on every backend and on every re-run.

Three fault kinds:

- ``error`` — the chunk raises :class:`FaultInjected` instead of
  running (a kernel bug, a transient allocation failure);
- ``delay`` — the chunk sleeps ``param`` seconds before running (a
  straggler; combine with ``$REPRO_ROUND_TIMEOUT`` to exercise the
  deadline path);
- ``kill`` — worker death.  Threads cannot be killed safely, so the
  chunk raises :class:`WorkerDeath`, which the runtime treats exactly
  like a dead worker: pool respawn, or backend degradation once the
  respawn budget is spent.

Plan grammar (``$REPRO_FAULTS`` or the ``faults=`` argument)::

    plan   := clause (';' clause)*
    clause := KIND '@' ROUND '.' CHUNK [':' PARAM] ['x' TIMES]
            | KIND '@' 's' SHARD [':' PARAM] ['x' TIMES]
            | KIND '%' RATE [':' PARAM]
            | 'seed=' INT
    KIND   := 'error' | 'delay' | 'kill'
    ROUND, CHUNK, SHARD := non-negative int, or '*' (any)
    PARAM  := float (delay seconds; ignored for error/kill)
    TIMES  := fire on the first TIMES attempts of a coordinate (default 1)
    RATE   := float in [0, 1] — probabilistic clause, decided by a
              seeded hash of (seed, clause, round, chunk); first
              attempts only, so retries always make progress

Shard-addressed clauses (``KIND@sSHARD``) target the sharding layer
(:mod:`repro.runtime.shard`): the coordinate is the shard id of a
dispatched shard engine, drawn through :meth:`FaultPlan.draw_shard`
once per (shard, attempt).  They are invisible to the per-chunk
:meth:`FaultPlan.draw` — and vice versa — so one plan can exercise both
granularities without cross-talk.

Examples::

    error@3.0            # chunk 0 of round 3 raises once
    error@3.0x5          # ... on its first five attempts (exhausts a
                         # retry budget < 5 -> ChunkError)
    delay@7.2:0.25       # chunk 2 of round 7 sleeps 250 ms first
    kill@5.*             # every chunk of round 5 kills its worker
    kill@s1              # shard 1's engine worker dies on attempt 1
    kill@s*x99           # every shard dies on every attempt (exhausts
                         # the respawn budget -> unsharded degradation)
    error%0.01;seed=42   # 1% of all (round, chunk) dispatches fail once

Explicit and probabilistic clauses only fire while ``attempt`` stays in
range, so a plan with default ``TIMES`` never outlasts the retry
budget: recovery re-runs the chunk, the plan stays quiet, and the
result is bit-identical to a fault-free run (chunks are pure — all
mutation happens on the coordinator, in chunk order).
"""

from __future__ import annotations

import os
import re
import time
import zlib
from dataclasses import dataclass

KINDS = ("error", "delay", "kill")

#: Sleep applied by a ``delay`` clause with no explicit PARAM.
DEFAULT_DELAY = 0.05


class FaultInjected(RuntimeError):
    """An injected chunk failure (the ``error`` fault kind)."""


class WorkerDeath(FaultInjected):
    """An injected worker death (the ``kill`` fault kind, simulated
    because a pool thread cannot be killed safely)."""


@dataclass(frozen=True)
class FaultSpec:
    """One clause of a :class:`FaultPlan`.

    ``round``/``chunk`` of ``None`` are wildcards; ``rate`` switches
    the clause to probabilistic mode (coordinates are ignored then).
    A ``shard`` coordinate (a shard id, or ``'*'`` as the any-shard
    wildcard) makes the clause shard-addressed: matched only by
    :meth:`FaultPlan.draw_shard`, never by the per-chunk draw.
    """

    kind: str
    round: int | None = None
    chunk: int | None = None
    param: float = 0.0
    times: int = 1
    rate: float | None = None
    shard: int | str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"fault kind must be one of {KINDS}, "
                             f"got {self.kind!r}")
        if self.param < 0:
            raise ValueError(f"fault param must be >= 0, got {self.param}")
        if self.times < 1:
            raise ValueError(f"fault times must be >= 1, got {self.times}")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.shard is not None and self.shard != "*" \
                and (not isinstance(self.shard, int) or self.shard < 0):
            raise ValueError(f"fault shard must be a non-negative int or "
                             f"'*', got {self.shard!r}")


_CLAUSE_AT = re.compile(
    r"^(error|delay|kill)@(\d+|\*)\.(\d+|\*)"
    r"(?::([0-9]*\.?[0-9]+))?(?:x(\d+))?$")
_CLAUSE_SHARD = re.compile(
    r"^(error|delay|kill)@s(\d+|\*)"
    r"(?::([0-9]*\.?[0-9]+))?(?:x(\d+))?$")
_CLAUSE_RATE = re.compile(
    r"^(error|delay|kill)%([0-9]*\.?[0-9]+)(?::([0-9]*\.?[0-9]+))?$")


class FaultPlan:
    """A deterministic schedule of injected faults for one run.

    The runtime consults :meth:`draw` once per chunk *dispatch* (every
    attempt of every chunk of every round); the first matching clause
    fires.  ``fired`` counts the events actually injected per kind —
    the ground truth the runtime's ``fault.injected.*`` counters are
    tested against.
    """

    def __init__(self, specs=(), seed: int = 0):
        self.specs = list(specs)
        for s in self.specs:
            if not isinstance(s, FaultSpec):
                raise TypeError(f"specs must be FaultSpec, got {type(s)}")
        self.seed = int(seed)
        self.fired: dict[str, int] = {}

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan(specs={self.specs!r}, seed={self.seed})"

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the plan grammar (see the module docstring)."""
        specs: list[FaultSpec] = []
        seed = 0
        for raw in text.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                seed = int(clause[5:])
                continue
            m = _CLAUSE_AT.match(clause)
            if m:
                kind, rnd, chk, param, times = m.groups()
                specs.append(FaultSpec(
                    kind=kind,
                    round=None if rnd == "*" else int(rnd),
                    chunk=None if chk == "*" else int(chk),
                    param=float(param) if param else
                    (DEFAULT_DELAY if kind == "delay" else 0.0),
                    times=int(times) if times else 1))
                continue
            m = _CLAUSE_SHARD.match(clause)
            if m:
                kind, shard, param, times = m.groups()
                specs.append(FaultSpec(
                    kind=kind,
                    shard="*" if shard == "*" else int(shard),
                    param=float(param) if param else
                    (DEFAULT_DELAY if kind == "delay" else 0.0),
                    times=int(times) if times else 1))
                continue
            m = _CLAUSE_RATE.match(clause)
            if m:
                kind, rate, param = m.groups()
                specs.append(FaultSpec(
                    kind=kind, rate=float(rate),
                    param=float(param) if param else
                    (DEFAULT_DELAY if kind == "delay" else 0.0)))
                continue
            raise ValueError(
                f"bad fault clause {clause!r}; expected "
                f"kind@round.chunk[:param][xN], kind@sSHARD[:param][xN], "
                f"kind%rate[:param], or seed=N with kind in {KINDS}")
        return cls(specs, seed=seed)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """$REPRO_FAULTS, parsed; None when unset/empty/'off'."""
        env = os.environ.get("REPRO_FAULTS", "").strip()
        if not env or env.lower() in ("0", "off"):
            return None
        return cls.parse(env)

    # -- drawing -------------------------------------------------------------

    def _coin(self, idx: int, round: int, chunk: int) -> float:
        """Deterministic uniform draw in [0, 1) for one coordinate."""
        h = zlib.crc32(f"{self.seed}:{idx}:{round}:{chunk}".encode())
        return (h & 0xFFFFFFFF) / 2.0 ** 32

    def draw(self, round: int, chunk: int,
             attempt: int = 1) -> FaultSpec | None:
        """The fault to inject into this dispatch, if any.

        Called once per (round, chunk, attempt) by the runtime; the
        first matching clause wins and is tallied in ``fired``.
        Shard-addressed clauses never match here (see
        :meth:`draw_shard`).
        """
        for idx, s in enumerate(self.specs):
            if s.shard is not None:
                continue
            if s.rate is not None:
                if attempt <= s.times and self._coin(idx, round,
                                                     chunk) < s.rate:
                    break
            elif (s.round in (None, round) and s.chunk in (None, chunk)
                    and attempt <= s.times):
                break
        else:
            return None
        self.fired[s.kind] = self.fired.get(s.kind, 0) + 1
        return s

    def draw_shard(self, shard: int, attempt: int = 1) -> FaultSpec | None:
        """The fault to inject into one shard-engine dispatch, if any.

        The sharding layer calls this once per (shard, attempt); only
        shard-addressed clauses participate, so chunk-level plans run
        untouched under sharding (shard workers drawing chunk faults
        from their own contexts) and shard plans never perturb chunk
        rounds.
        """
        for s in self.specs:
            if s.shard is not None and s.shard in ("*", shard) \
                    and attempt <= s.times:
                break
        else:
            return None
        self.fired[s.kind] = self.fired.get(s.kind, 0) + 1
        return s

    def describe(self) -> dict:
        """JSON-friendly digest (carried on ``ColoringResult.faults``)."""
        return {"clauses": len(self.specs), "seed": self.seed,
                "fired": dict(self.fired)}


# -- injection application ----------------------------------------------------

def apply_fault(spec: FaultSpec) -> None:
    """Apply a drawn fault where the chunk runs.

    ``delay`` sleeps and returns — the chunk then runs normally;
    ``error`` raises :class:`FaultInjected`; ``kill`` raises
    :class:`WorkerDeath` (the simulated death the runtime routes
    through its pool-failure path).
    """
    if spec.kind == "delay":
        time.sleep(spec.param or DEFAULT_DELAY)
        return
    if spec.kind == "kill":
        raise WorkerDeath("injected worker death")
    raise FaultInjected("injected chunk fault")


# -- environment knobs --------------------------------------------------------

def resolve_fault_plan(faults) -> FaultPlan | None:
    """Resolve the ``faults=`` argument of an ExecutionContext.

    A :class:`FaultPlan` is used as-is; a string is parsed; ``None``
    defers to ``$REPRO_FAULTS``; ``False`` forces injection off.
    """
    if faults is None:
        return FaultPlan.from_env()
    if faults is False:
        return None
    if isinstance(faults, FaultPlan):
        return faults if faults else None
    if isinstance(faults, str):
        plan = FaultPlan.parse(faults)
        return plan if plan else None
    raise TypeError(f"faults must be a FaultPlan, str, False, or None; "
                    f"got {type(faults).__name__}")


def _env_number(name: str, default, cast, minimum):
    env = os.environ.get(name, "").strip()
    if not env:
        return default
    try:
        value = cast(env)
    except ValueError:
        raise ValueError(f"${name} must be a {cast.__name__}, "
                         f"got {env!r}") from None
    if value < minimum:
        raise ValueError(f"${name} must be >= {minimum}, got {value}")
    return value


def default_retries() -> int:
    """Per-chunk retry budget: $REPRO_RETRIES, else 2."""
    return _env_number("REPRO_RETRIES", 2, int, 0)


def default_backoff() -> float:
    """Retry backoff base seconds: $REPRO_BACKOFF, else 0.02."""
    return _env_number("REPRO_BACKOFF", 0.02, float, 0.0)


def default_round_timeout() -> float | None:
    """Per-round deadline seconds: $REPRO_ROUND_TIMEOUT, else off.

    Unset, empty, or ``0`` disables the deadline.
    """
    value = _env_number("REPRO_ROUND_TIMEOUT", None, float, 0.0)
    return None if not value else value


def default_max_respawns() -> int:
    """Pool-respawn budget before degradation: $REPRO_RESPAWNS, else 2."""
    return _env_number("REPRO_RESPAWNS", 2, int, 0)
