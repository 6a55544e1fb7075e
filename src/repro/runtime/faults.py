"""Deterministic fault injection and the runtime's one recovery policy.

Every algorithm here is a sequence of pure parallel rounds, and the
color bounds depend only on the ADG order and the rounds — never on the
executor.  So re-running a failed chunk cannot change a color,
and one rule is enough at every level.  :class:`Recovery` is that rule:
owned by the run's pool host, it is the only code that draws injected
faults, charges failed attempts, sleeps the capped backoff, and books
the ``fault.*`` counters and events.  A :class:`FaultPlan` makes every
path reproducible on demand: a seeded, deterministic schedule of
injected faults addressed by ``(round, chunk)`` coordinates — round ids
are the run-wide :meth:`~repro.runtime.ExecutionContext.map_chunks`
sequence numbers shared by every context of one run, chunk ids index
the round's chunk list.

Three fault kinds: ``error`` raises :class:`FaultInjected` (a kernel
bug, a transient allocation failure); ``delay`` sleeps ``param``
seconds, then runs (a straggler); ``kill`` raises :class:`WorkerDeath`
(a thread cannot be killed safely, so worker death is simulated).

The policy, level by fault kind (``retries`` is ``$REPRO_RETRIES``,
default 2; each retry sleeps ``backoff * 2**(attempt-1)`` seconds,
``$REPRO_BACKOFF`` default 0.02, capped at :data:`MAX_BACKOFF`)::

    level            error, or any exception     kill
    ---------------  --------------------------  --------------------------
    threaded round   retry in place, then        pool lost: degrade to
    (pooled/inline)  ChunkError                  serial at once; only the
                                                 lost chunks re-run, over
                                                 the same chunk plan
    serial round     retry in place, then        a failed attempt (retry,
                     ChunkError                  then ChunkError)
    service request  RecoveryError: re-run once on a quiet serial context
                     (``degraded: true``); anything else: error response

``ChunkError`` is a :class:`RecoveryError`.

Plan grammar (``$REPRO_FAULTS`` or the ``faults=`` argument)::

    plan   := clause (';' clause)*
    clause := KIND '@' ROUND '.' CHUNK [':' PARAM] ['x' TIMES]
            | KIND '%' RATE [':' PARAM]
            | 'seed=' INT
    KIND   := 'error' | 'delay' | 'kill'
    ROUND, CHUNK := non-negative int, or '*' (any)
    PARAM  := float (delay seconds; ignored for error/kill)
    TIMES  := fire on the first TIMES attempts of a coordinate (default 1)
    RATE   := float in [0, 1] — probabilistic clause, decided by a
              seeded hash of (seed, clause, round, chunk); first
              attempts only, so retries always make progress

Examples::

    error@3.0            # chunk 0 of round 3 raises once
    error@3.0x5          # ... on its first five attempts (exhausts a
                         # retry budget < 5 -> ChunkError)
    delay@7.2:0.25       # chunk 2 of round 7 sleeps 250 ms first
    kill@5.*             # every chunk of round 5 kills its worker
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

#: Cap on one retry-backoff sleep, seconds.
MAX_BACKOFF = 1.0


class FaultInjected(RuntimeError):
    """An injected chunk failure (the ``error`` fault kind)."""


class WorkerDeath(FaultInjected):
    """An injected worker death (the ``kill`` fault kind, simulated
    because a pool thread cannot be killed safely)."""


class RecoveryError(RuntimeError):
    """A unit of work failed for good: its retry budget is spent.

    The base of :class:`~repro.runtime.ChunkError` (one chunk of a
    round); the message names the unit and the attempt count, and the
    last failure is chained.  The service re-runs a request on a quiet
    serial context on exactly this type, and on nothing else.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One clause of a :class:`FaultPlan`.

    ``round``/``chunk`` of ``None`` are wildcards; ``rate`` switches
    the clause to probabilistic mode (coordinates are ignored then).
    """

    kind: str
    round: int | None = None
    chunk: int | None = None
    param: float = 0.0
    times: int = 1
    rate: float | None = None

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


_CLAUSE_AT = re.compile(
    r"^(error|delay|kill)@(\d+|\*)\.(\d+|\*)"
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
                f"kind@round.chunk[:param][xN], kind%rate[:param], "
                f"or seed=N with kind in {KINDS}")
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
        """
        for idx, s in enumerate(self.specs):
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

    def describe(self) -> dict:
        """JSON-friendly digest (carried on ``ColoringResult.faults``)."""
        return {"clauses": len(self.specs), "seed": self.seed,
                "fired": dict(self.fired)}


# -- injection application ----------------------------------------------------

def apply_fault(spec: FaultSpec) -> None:
    """Apply a drawn fault where the chunk runs.

    ``delay`` sleeps and returns — the chunk then runs normally;
    ``error`` raises :class:`FaultInjected`; ``kill`` raises
    :class:`WorkerDeath` (the simulated death :class:`Recovery`
    treats as a lost pool on a threaded round).
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


# -- the recovery policy ------------------------------------------------------

class Recovery:
    """The run's one fault-recovery policy (see the module docstring).

    Owned by the pool host of an :class:`~repro.runtime.ExecutionContext`
    and shared by its child contexts, so round
    ids, budgets, counters and events are run-wide.  ``retries`` and
    ``backoff`` of ``None`` resolve via ``$REPRO_RETRIES`` /
    ``$REPRO_BACKOFF``.
    """

    def __init__(self, plan: FaultPlan | None, retries: int | None,
                 backoff: float | None, tracer):
        self.plan = plan
        self.retries = default_retries() if retries is None else retries
        self.backoff = default_backoff() if backoff is None else backoff
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        self.tracer = tracer
        self.counters: dict[str, int] = {}
        self.events: list[dict] = []

    def _count(self, name: str, round: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        if self.tracer.enabled:
            self.tracer.count(name, 1, round=round)

    def draw(self, round: int, chunk: int,
             attempt: int) -> FaultSpec | None:
        """The fault injected into one chunk dispatch, if any."""
        if self.plan is None:
            return None
        spec = self.plan.draw(round, chunk, attempt)
        if spec is not None:
            self._count(f"fault.injected.{spec.kind}", round)
            if self.tracer.enabled:
                self.tracer.instant(f"fault.{spec.kind}", cat="fault",
                                    round=round, chunk=chunk,
                                    attempt=attempt)
        return spec

    def retry(self, attempt: int, exc: BaseException, error: type,
              what: str, round: int = 0) -> None:
        """Charge one failed attempt of ``what``.

        Past the budget, raise ``error`` (a :class:`RecoveryError`
        subclass) chaining ``exc``; otherwise count a retry and sleep
        the capped backoff — the caller then re-runs the unit.
        """
        if attempt > self.retries:
            raise error(f"{what} failed after {attempt} attempt(s): "
                        f"{exc}") from exc
        self._count("fault.retries", round)
        if self.backoff > 0:
            time.sleep(min(MAX_BACKOFF, self.backoff * 2 ** (attempt - 1)))

    def run(self, call, draw, error: type, what: str, round: int = 0,
            attempt: int = 0, pool_lost=None):
        """Run ``call(fault)`` in place until it returns.

        ``draw(attempt)`` picks each attempt's injected fault.  A
        failure is charged through :meth:`retry`, except a ``kill``
        for which ``pool_lost()`` reports a pool it just gave up: that
        attempt re-runs uncharged.  ``attempt`` is the count already
        spent on the unit.  Returns ``(result, attempts)``.
        """
        while True:
            attempt += 1
            fault = draw(attempt)
            try:
                return call(fault), attempt
            except WorkerDeath as exc:
                if pool_lost is None or not pool_lost():
                    self.retry(attempt, exc, error, what, round)
            except Exception as exc:
                self.retry(attempt, exc, error, what, round)

    def degrade(self, round: int, backend: str) -> None:
        """Book the run's drop from ``backend`` to serial."""
        self._count("fault.degradations", round)
        event = {"kind": "degrade", "from": backend, "to": "serial",
                 "round": round}
        self.events.append(event)
        if self.tracer.enabled:
            self.tracer.instant("fault.degrade", cat="fault", **{
                k: v for k, v in event.items() if k != "kind"})

    def record(self) -> dict | None:
        """Digest for ``ColoringResult.faults``, or ``None`` for a quiet
        run with no plan (the common case — keeps result rows clean).

        ``counters`` are the run-wide ``fault.*`` totals (injections,
        retries, degradations); ``events`` the ordered degradation log;
        ``plan`` the injection plan's own digest when one was attached.
        """
        if self.plan is None and not self.counters and not self.events:
            return None
        return {"counters": dict(self.counters),
                "events": list(self.events),
                "plan": self.plan.describe()
                if self.plan is not None else None}
