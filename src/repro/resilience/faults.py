"""Deterministic fault injection for the resilience test suite.

:class:`FaultInjectingDatabase` is a drop-in :class:`Database` whose raw
statement execution consults a :class:`FaultPlan` first.  A plan combines

* **scripted faults** — "the next 2 statements matching ``INSERT INTO
  item`` fail with ``database is locked``" — for precise scenarios, and
* **seeded background rates** — every statement draws from one
  ``random.Random(seed)`` stream, so a run is exactly reproducible.

Faults fire *below* the retry/guard machinery (inside ``_raw_execute``),
which is the whole point: the tests prove that retry, rollback and
timeout handling in the layers above actually engage.  Transaction
control statements (SAVEPOINT / ROLLBACK / RELEASE / COMMIT / PRAGMA)
are never faulted so a rollback path can always complete.
"""

from __future__ import annotations

import os
import random
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.resilience.policy import ResiliencePolicy
from repro.storage.database import Database, Params

#: Statements that must stay reliable for recovery to work.
_CONTROL_PREFIXES = (
    "SAVEPOINT",
    "ROLLBACK",
    "RELEASE",
    "COMMIT",
    "BEGIN",
    "END",
    "PRAGMA",
)


@dataclass
class FaultSpec:
    """One scripted fault."""

    #: ``"busy"`` (transient lock error), ``"error"`` (permanent
    #: operational error) or ``"delay"`` (sleep before executing).
    kind: str
    #: SQL substring filter; the empty string matches every statement.
    match: str = ""
    #: Remaining firings.
    times: int = 1
    #: Sleep duration for ``"delay"`` faults, in seconds.
    seconds: float = 0.0
    #: Error text for ``"error"`` faults.
    message: str = "disk I/O error"


@dataclass
class FaultPlan:
    """A seeded, reproducible schedule of faults."""

    seed: int = 0
    #: Background probabilities per statement, applied after scripted
    #: faults are exhausted.
    busy_rate: float = 0.0
    error_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.01
    #: Log of every injected fault as ``(kind, sql)`` pairs.
    injected: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._scripted: list[FaultSpec] = []

    def script(
        self,
        kind: str,
        *,
        match: str = "",
        times: int = 1,
        seconds: float = 0.0,
        message: str = "disk I/O error",
    ) -> "FaultPlan":
        """Queue a scripted fault; returns ``self`` for chaining."""
        self._scripted.append(
            FaultSpec(kind, match=match, times=times,
                      seconds=seconds, message=message)
        )
        return self

    def draw(self, sql: str) -> FaultSpec | None:
        """The fault to inject for ``sql``, if any."""
        for spec in self._scripted:
            if spec.times > 0 and spec.match in sql:
                spec.times -= 1
                self.injected.append((spec.kind, sql))
                return spec
        roll = self._rng.random()
        threshold = 0.0
        for kind, rate in (
            ("busy", self.busy_rate),
            ("error", self.error_rate),
            ("delay", self.delay_rate),
        ):
            threshold += rate
            if rate and roll < threshold:
                self.injected.append((kind, sql))
                return FaultSpec(kind, seconds=self.delay_seconds)
        return None

    def injected_kinds(self) -> list[str]:
        """Just the kinds of the injected faults, in firing order."""
        return [kind for kind, _ in self.injected]


@dataclass
class WorkerFault:
    """One scripted process-level fault of the sharded serving layer.

    Matched inside a shard worker against its ``(shard, replica)``
    identity and a per-worker count of query requests served so far.
    """

    #: ``"kill"`` (worker exits hard, as if OOM-killed), ``"hang"``
    #: (worker freezes — heartbeats stop — until the supervisor
    #: terminates it) or ``"slow"`` (the request is delayed by
    #: ``seconds`` before executing).
    kind: str
    #: Shard the fault targets (``None`` matches every shard).
    shard: int | None = None
    #: Replica index the fault targets (``None`` matches every replica).
    replica: int | None = None
    #: Query-request ordinal (0-based, per worker *incarnation*) from
    #: which the fault starts firing.
    after: int = 0
    #: Worker generation the fault targets.  Defaults to ``0`` — the
    #: original incarnation — so a respawned worker genuinely recovers;
    #: ``None`` makes the fault hit every incarnation (a permanently
    #: broken worker).
    generation: int | None = 0
    #: Remaining firings (``kill``/``hang`` only ever fire once per
    #: worker incarnation by nature).
    times: int = 1
    #: Delay for ``"slow"`` faults / freeze duration cap for ``"hang"``.
    seconds: float = 0.05


@dataclass
class WorkerFaultPlan:
    """A seeded, picklable schedule of process-level faults.

    The plan ships to every worker at spawn time; each worker draws
    from its own ``random.Random`` stream seeded with
    ``seed ^ hash((shard, replica))`` so a run is exactly reproducible
    regardless of scheduling order.  Unlike :class:`FaultPlan` (which
    fires below the statement layer), these faults model whole-process
    failure: kill, freeze, and shard-level slowness.  A worker serves
    its requests one at a time, so a ``"slow"`` fault delays the
    *worker* — the affected request and every request queued behind
    it — while its heartbeat keeps ticking.
    """

    seed: int = 0
    faults: list[WorkerFault] = field(default_factory=list)
    #: Background probability that any query request is slowed by
    #: ``slow_seconds`` (applied after scripted faults).
    slow_rate: float = 0.0
    slow_seconds: float = 0.02

    def script(
        self,
        kind: str,
        *,
        shard: int | None = None,
        replica: int | None = None,
        after: int = 0,
        generation: int | None = 0,
        times: int = 1,
        seconds: float = 0.05,
    ) -> "WorkerFaultPlan":
        """Queue a scripted fault; returns ``self`` for chaining."""
        self.faults.append(
            WorkerFault(
                kind,
                shard=shard,
                replica=replica,
                after=after,
                generation=generation,
                times=times,
                seconds=seconds,
            )
        )
        return self

    def for_worker(
        self, shard: int, replica: int, generation: int = 0
    ) -> "WorkerFaultDraw":
        """The per-worker drawing state (created inside the worker
        process; the plan object itself stays immutable there)."""
        return WorkerFaultDraw(self, shard, replica, generation)


class WorkerFaultDraw:
    """Per-worker-incarnation drawing state over a
    :class:`WorkerFaultPlan`."""

    def __init__(
        self, plan: WorkerFaultPlan, shard: int, replica: int,
        generation: int = 0,
    ):
        self._plan = plan
        self._shard = shard
        self._replica = replica
        self._generation = generation
        self._ordinal = 0
        self._fired: dict[int, int] = {}
        self._rng = random.Random(plan.seed ^ (shard * 65_537 + replica))

    def draw(self) -> WorkerFault | None:
        """The fault to apply to the next query request, if any."""
        ordinal = self._ordinal
        self._ordinal += 1
        for position, fault in enumerate(self._plan.faults):
            if fault.shard is not None and fault.shard != self._shard:
                continue
            if fault.replica is not None and fault.replica != self._replica:
                continue
            if (
                fault.generation is not None
                and fault.generation != self._generation
            ):
                continue
            if ordinal < fault.after:
                continue
            if self._fired.get(position, 0) >= fault.times:
                continue
            self._fired[position] = self._fired.get(position, 0) + 1
            return fault
        if self._plan.slow_rate and self._rng.random() < self._plan.slow_rate:
            return WorkerFault("slow", seconds=self._plan.slow_seconds)
        return None


def corrupt_shard_file(path: str, seed: int = 0, bytes_to_flip: int = 64) -> None:
    """Deterministically corrupt a SQLite shard file in place.

    Flips ``bytes_to_flip`` pseudo-random bytes spread over the file
    (including the header region), modelling on-disk corruption: later
    statements on the file fail with ``sqlite3.DatabaseError`` and the
    shard's manifest digest no longer verifies.  Used by the chaos
    suite; never call it on data you care about.
    """
    size = os.path.getsize(path)
    rng = random.Random(seed)
    with open(path, "r+b") as handle:
        for _ in range(bytes_to_flip):
            offset = rng.randrange(size)
            handle.seek(offset)
            original = handle.read(1)
            flipped = bytes([original[0] ^ 0xFF]) if original else b"\xff"
            handle.seek(offset)
            handle.write(flipped)


class FaultInjectingDatabase(Database):
    """A :class:`Database` whose raw execution layer injects faults."""

    def __init__(
        self,
        connection: sqlite3.Connection,
        plan: FaultPlan,
        policy: ResiliencePolicy | None = None,
    ):
        super().__init__(connection, policy=policy)
        self.plan = plan

    @classmethod
    def memory(
        cls,
        plan: FaultPlan | None = None,
        policy: ResiliencePolicy | None = None,
        check_same_thread: bool = True,
    ) -> "FaultInjectingDatabase":
        """A fresh in-memory fault-injecting database."""
        return cls(
            sqlite3.connect(":memory:", check_same_thread=check_same_thread),
            plan if plan is not None else FaultPlan(),
            policy=policy,
        )

    # -- fault insertion point ---------------------------------------------------

    def _maybe_inject(self, sql: str) -> None:
        if sql.lstrip().upper().startswith(_CONTROL_PREFIXES):
            return
        fault = self.plan.draw(sql)
        if fault is None:
            return
        if fault.kind == "delay":
            time.sleep(fault.seconds)
            return
        if fault.kind == "busy":
            raise sqlite3.OperationalError("database is locked")
        if fault.kind == "error":
            raise sqlite3.OperationalError(fault.message)
        raise ValueError(  # pragma: no cover - defensive
            f"unknown fault kind {fault.kind!r}"
        )

    def _raw_execute(self, sql: str, params: Params = ()) -> sqlite3.Cursor:
        self._maybe_inject(sql)
        return super()._raw_execute(sql, params)

    def _raw_executemany(self, sql: str, rows: Iterable[Sequence]):
        self._maybe_inject(sql)
        return super()._raw_executemany(sql, rows)

    def _raw_executescript(self, script: str):
        self._maybe_inject(script)
        return super()._raw_executescript(script)
