"""Deterministic fault injection and the runtime's one recovery policy.

Every algorithm here is a sequence of pure rounds, and the color bounds
depend only on the ADG order and the rounds.  So re-running a failed
round cannot change a color, and one rule is enough.  :class:`Recovery`
is that rule: owned by the run's host context, it is the only code that
draws injected faults, charges failed attempts, sleeps the capped
backoff, and books the ``fault.*`` counters.  A :class:`FaultPlan`
makes the path reproducible on demand: a seeded, deterministic schedule
of injected faults addressed by round — round ids are the run-wide
:meth:`~repro.runtime.ExecutionContext.map_chunks` sequence numbers
shared by every context of one run.

Only injected faults are retried.  An injected ``error`` raises
:class:`FaultInjected` in place of the round; the policy (``retries``
is ``$REPRO_RETRIES``, default 2; each retry sleeps
``backoff * 2**(attempt-1)`` seconds, ``$REPRO_BACKOFF`` default 0.02,
capped at :data:`MAX_BACKOFF`)::

    level            injected error                   any other exception
    ---------------  -------------------------------  -------------------
    round            retry in place, then ChunkError  propagates at once,
                                                      unwrapped
    service request  ChunkError is a RecoveryError:   error response
                     re-run once on a quiet serial
                     context (``degraded: true``)

A deterministic failure (a malformed edge list, an invalid argument)
fails the same way on every attempt, so it is never retried.

Plan grammar (``$REPRO_FAULTS`` or the ``faults=`` argument)::

    plan   := clause (';' clause)*
    clause := 'error' '@' ROUND '.' CHUNK [':' PARAM] ['x' TIMES]
            | 'error' '%' RATE [':' PARAM]
            | 'seed=' INT
    ROUND  := non-negative int, or '*' (any)
    CHUNK  := '0' or '*' — every round is one chunk
    PARAM  := float, accepted and ignored
    TIMES  := fire on the first TIMES attempts of a round (default 1)
    RATE   := float in [0, 1] — probabilistic clause, decided by a
              seeded hash of (seed, clause, round); first attempts
              only, so retries always make progress

Examples::

    error@3.0            # round 3 raises once
    error@3.0x5          # ... on its first five attempts (exhausts a
                         # retry budget < 5 -> ChunkError)
    error%0.01;seed=42   # 1% of all rounds fail once

The ``kill`` and ``delay`` kinds (worker death, straggler) and chunk
coordinates other than ``0`` acted on the removed thread pool; a plan
naming them raises a ``ValueError`` saying so.

Explicit and probabilistic clauses only fire while ``attempt`` stays in
range, so a plan with default ``TIMES`` never outlasts the retry
budget: recovery re-runs the round, the plan stays quiet, and the
result is bit-identical to a fault-free run.
"""

from __future__ import annotations

import os
import re
import time
import zlib
from dataclasses import dataclass

KINDS = ("error",)

#: Cap on one retry-backoff sleep, seconds.
MAX_BACKOFF = 1.0


class FaultInjected(RuntimeError):
    """An injected round failure (the ``error`` fault kind)."""


class RecoveryError(RuntimeError):
    """A unit of work failed for good: its retry budget is spent.

    The base of :class:`~repro.runtime.ChunkError` (one round); the
    message names the unit and the attempt count, and the last failure
    is chained.  The service re-runs a request on a quiet serial
    context on exactly this type, and on nothing else.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One clause of a :class:`FaultPlan`.

    ``round`` of ``None`` is a wildcard; ``rate`` switches the clause
    to probabilistic mode (the round is ignored then).
    """

    kind: str = "error"
    round: int | None = None
    times: int = 1
    rate: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"fault kind must be one of {KINDS}, "
                             f"got {self.kind!r}")
        if self.times < 1:
            raise ValueError(f"fault times must be >= 1, got {self.times}")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")


# ``kill`` and ``delay`` still parse, so that a plan naming them fails
# with the reason instead of as a bad clause.
_KIND = r"^(error|delay|kill)"
_PARAM = r"(?::[0-9]*\.?[0-9]+)?"
_CLAUSE_AT = re.compile(_KIND + r"@(\d+|\*)\.(\d+|\*)" + _PARAM
                        + r"(?:x(\d+))?$")
_CLAUSE_RATE = re.compile(_KIND + r"%([0-9]*\.?[0-9]+)" + _PARAM + "$")


def _check_kind(kind: str, clause: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"fault clause {clause!r}: the {kind!r} fault kind "
                         f"was removed with the thread pool; only 'error' "
                         f"remains")


class FaultPlan:
    """A deterministic schedule of injected faults for one run.

    The runtime consults :meth:`draw` once per attempt of every round
    of a run with a plan; the first matching clause fires.  ``fired``
    counts the events actually injected per kind — the ground truth the
    runtime's ``fault.injected.*`` counters are tested against.
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
                kind, rnd, chk, times = m.groups()
                _check_kind(kind, clause)
                if chk not in ("0", "*"):
                    raise ValueError(
                        f"fault clause {clause!r}: chunk coordinate {chk} "
                        f"was removed with chunked rounds; every round is "
                        f"one chunk, address it as {rnd}.0")
                specs.append(FaultSpec(
                    kind=kind, round=None if rnd == "*" else int(rnd),
                    times=int(times) if times else 1))
                continue
            m = _CLAUSE_RATE.match(clause)
            if m:
                _check_kind(m.group(1), clause)
                specs.append(FaultSpec(kind=m.group(1),
                                       rate=float(m.group(2))))
                continue
            raise ValueError(
                f"bad fault clause {clause!r}; expected "
                f"error@round.0[:param][xN], error%rate[:param], "
                f"or seed=N")
        return cls(specs, seed=seed)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """$REPRO_FAULTS, parsed; None when unset/empty/'off'."""
        env = os.environ.get("REPRO_FAULTS", "").strip()
        if not env or env.lower() in ("0", "off"):
            return None
        return cls.parse(env)

    # -- drawing -------------------------------------------------------------

    def _coin(self, idx: int, round: int) -> float:
        """Deterministic uniform draw in [0, 1) for one round (the
        trailing ``:0`` is the round's one chunk, kept so seeded plans
        fire on the same rounds as before chunking was removed)."""
        h = zlib.crc32(f"{self.seed}:{idx}:{round}:0".encode())
        return (h & 0xFFFFFFFF) / 2.0 ** 32

    def draw(self, round: int, attempt: int = 1) -> FaultSpec | None:
        """The fault to inject into this attempt of ``round``, if any.

        The first matching clause wins and is tallied in ``fired``.
        """
        for idx, s in enumerate(self.specs):
            if attempt > s.times:
                continue
            if s.rate is not None:
                if self._coin(idx, round) < s.rate:
                    break
            elif s.round in (None, round):
                break
        else:
            return None
        self.fired[s.kind] = self.fired.get(s.kind, 0) + 1
        return s

    def describe(self) -> dict:
        """JSON-friendly digest (carried on ``ColoringResult.faults``)."""
        return {"clauses": len(self.specs), "seed": self.seed,
                "fired": dict(self.fired)}


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
    """Per-round retry budget: $REPRO_RETRIES, else 2."""
    return _env_number("REPRO_RETRIES", 2, int, 0)


def default_backoff() -> float:
    """Retry backoff base seconds: $REPRO_BACKOFF, else 0.02."""
    return _env_number("REPRO_BACKOFF", 0.02, float, 0.0)


# -- the recovery policy ------------------------------------------------------

class Recovery:
    """The run's one fault-recovery policy (see the module docstring).

    Owned by the host :class:`~repro.runtime.ExecutionContext` and
    shared by its child contexts, so round ids, budgets and counters
    are run-wide.  ``retries`` and ``backoff`` of ``None`` resolve via
    ``$REPRO_RETRIES`` / ``$REPRO_BACKOFF``.
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

    def _count(self, name: str, round: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        if self.tracer.enabled:
            self.tracer.count(name, 1, round=round)

    def run(self, call, round: int, what: str, error: type):
        """Run ``call()`` for ``round`` under the (non-empty) plan until
        it returns.

        An attempt the plan picks raises :class:`FaultInjected` instead
        of calling; it is retried after the capped backoff, and past
        the budget ``error`` (a :class:`RecoveryError` subclass naming
        ``what``) is raised from it.  Exceptions ``call`` raises itself
        propagate unchanged.
        """
        attempt = 0
        while True:
            attempt += 1
            spec = self.plan.draw(round, attempt)
            if spec is None:
                return call()
            self._count(f"fault.injected.{spec.kind}", round)
            if self.tracer.enabled:
                self.tracer.instant(f"fault.{spec.kind}", cat="fault",
                                    round=round, attempt=attempt)
            exc = FaultInjected("injected round fault")
            if attempt > self.retries:
                raise error(f"{what} failed after {attempt} attempt(s): "
                            f"{exc}") from exc
            self._count("fault.retries", round)
            if self.backoff > 0:
                time.sleep(min(MAX_BACKOFF, self.backoff * 2 ** (attempt - 1)))

    def record(self) -> dict | None:
        """Digest for ``ColoringResult.faults``, or ``None`` for a quiet
        run with no plan (the common case — keeps result rows clean).

        ``counters`` are the run-wide ``fault.*`` totals (injections,
        retries); ``plan`` the injection plan's own digest when one was
        attached.
        """
        if self.plan is None and not self.counters:
            return None
        return {"counters": dict(self.counters),
                "plan": self.plan.describe()
                if self.plan is not None else None}
