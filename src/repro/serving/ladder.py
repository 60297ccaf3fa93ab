"""The degradation ladder of one shard call, as an I/O-free machine.

A *shard call* is "these statements, this shard, this expiry, hedge
allowed or not".  :class:`ShardCall` owns every rung decision for it —
the breaker gate and its bookkeeping, the attempt count and the even
slicing of the remaining deadline over the attempts left, which replica
is primary, the hedge point, first-answer-wins and all-incarnations-lost,
which statements an attempt still owes, the ``hedges`` / ``retries`` /
``breaker_short_circuits`` counters, and abandoning every request it
sent exactly once — and does none of the work itself: it is *fed events*
and *returns actions*.

========================  =============================================
event (method)            meaning
========================  =============================================
``start(now)``            begin the call
``sent(tag, rid)``        the transport accepted ``Send(tag, ...)`` as ``rid``
``response(tag, p, now)`` the worker answered request ``tag`` with ``p``
``lost(tag, now)``        request ``tag`` can never be answered
``timer(token, now)``     a ``SetTimer`` came due
``cancel()``              the caller went away
========================  =============================================

Actions are :class:`Send`, :class:`SetTimer`, :class:`Abandon` and
:class:`Resolve`.  A driver performs them against a transport and a
clock: :class:`~repro.serving.scatter.ShardedEngine` blocks the calling
thread on a queue, :class:`~repro.serving.frontdoor.AsyncShardedEngine`
bridges them onto an event loop.  ``now`` is whatever monotonic clock
the driver reads; the machine imports none.  Stale events (a straggler
from an abandoned attempt, a timer of a finished one) are ignored, so a
driver never has to cancel anything for correctness.

One attempt sends the statements still owed to the primary replica and,
after ``hedge_delay`` of silence, once more to the next replica.  The
first response ends the attempt, whatever it says; statements it
answered are done, the rest are owed to the next attempt, which rotates
the primary.  A single query is a list of one statement.
"""

from __future__ import annotations

import itertools
import marshal
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Protocol, Sequence, Union


@dataclass
class ShardOutcome:
    """What one shard contributed to one statement."""

    shard: int
    rows: Optional[list[Any]] = None
    #: Failure classification (``None`` on success): ``"breaker-open"``,
    #: ``"deadline"``, ``"worker-crashed"``, or a worker-reported error
    #: kind (``"timeout"``, ``"limit"``, ``"storage"``, ...).
    kind: Optional[str] = None
    error: Optional[str] = None
    attempts: int = 0
    hedged: bool = False

    @property
    def ok(self) -> bool:
        return self.rows is not None


class Send(NamedTuple):
    """Submit ``statements`` to ``replica``; report the transport's
    request id with ``sent(tag, rid)``, or ``lost(tag)`` if it refused."""

    tag: int
    replica: int
    statements: list[str]
    timeout: Optional[float]


class SetTimer(NamedTuple):
    """Feed ``timer(token)`` back ``delay`` seconds from now."""

    delay: float
    token: tuple[str, int]


class Abandon(NamedTuple):
    """Forget transport request ``rid``."""

    rid: int


class Resolve(NamedTuple):
    """The call is over: one outcome per statement, in order."""

    outcomes: list[ShardOutcome]


Action = Union[Send, SetTimer, Abandon, Resolve]


class Breaker(Protocol):
    """The circuit-breaker surface the ladder uses."""

    @property
    def state(self) -> str: ...
    def allow(self) -> bool: ...
    def record_success(self) -> None: ...
    def record_failure(self) -> None: ...
    def release_probe(self) -> None: ...


class Rungs(Protocol):
    """The :class:`~repro.serving.scatter.ServingConfig` fields the
    ladder reads."""

    @property
    def hedge_delay(self) -> Optional[float]: ...
    @property
    def shard_retries(self) -> int: ...


class ShardLadder:
    """One shard's rungs, shared by every call to it: the breaker, the
    retry and hedge settings, the counters and the primary rotation."""

    def __init__(
        self,
        shard: int,
        replicas: int,
        config: Rungs,
        breaker: Breaker,
        count: Callable[[str], None],
    ) -> None:
        self.shard = shard
        self.replicas = replicas
        self.attempts = max(1, config.shard_retries + 1)
        #: A hedge needs a second replica to go to.
        self.hedge_delay = config.hedge_delay if replicas > 1 else None
        self.breaker = breaker
        self.count = count
        self._rotation = itertools.count()

    def call(
        self, statements: Sequence[str], expiry: Optional[float], hedge: bool
    ) -> "ShardCall":
        """A new call; successive calls start on successive replicas."""
        return ShardCall(
            self, statements, expiry, hedge, next(self._rotation)
        )


class ShardCall:
    """The ladder of one shard call — see the module docstring."""

    def __init__(
        self,
        ladder: ShardLadder,
        statements: Sequence[str],
        expiry: Optional[float],
        hedge: bool,
        first_primary: int,
    ) -> None:
        self.shard = ladder.shard
        self._ladder = ladder
        self._statements = statements
        self._expiry = expiry
        self._hedge_delay = ladder.hedge_delay if hedge else None
        self._first_primary = first_primary
        self._outcomes = [ShardOutcome(ladder.shard) for _ in statements]
        #: Positions of the statements no attempt has answered yet.
        self._owed = list(range(len(statements)))
        self._attempt = 0
        self._attempt_ends: Optional[float] = None
        self._tags = itertools.count()
        #: This attempt's requests that may still answer.
        self._live: set[int] = set()
        #: This attempt's transport ids, abandoned when it ends.
        self._rids: list[int] = []
        self._done = False

    # -- events ------------------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        return self._advance(now)

    def sent(self, tag: int, rid: int) -> None:
        self._rids.append(rid)

    def response(
        self, tag: int, payload: dict[str, Any], now: float
    ) -> list[Action]:
        if tag not in self._live:
            return []
        actions = self._end_attempt()
        if payload.get("ok"):
            unanswered = []
            for position, item in zip(
                self._owed, marshal.loads(payload["items"])
            ):
                outcome = self._outcomes[position]
                if item.get("ok"):
                    outcome.rows = item["rows"]
                    outcome.kind = outcome.error = None
                else:
                    outcome.kind = item.get("error_kind", "internal")
                    outcome.error = item.get("error")
                    unanswered.append(position)
            self._owed = unanswered
        else:
            self._fail_owed(
                payload.get("error_kind", "internal"), payload.get("error")
            )
        if self._owed:
            self._ladder.breaker.record_failure()
        else:
            self._ladder.breaker.record_success()
        return actions + self._advance(now)

    def lost(self, tag: int, now: float) -> list[Action]:
        self._live.discard(tag)
        if self._done or self._live:
            return []
        # Every incarnation this attempt asked is dead or fenced off: no
        # answer can ever arrive, so fail over now.
        return self._fail_attempt(
            "worker-crashed",
            f"shard {self.shard}: worker crashed mid-request",
            now,
        )

    def timer(self, token: tuple[str, int], now: float) -> list[Action]:
        rung, attempt = token
        if self._done or attempt != self._attempt:
            return []
        if rung == "budget":
            return self._fail_attempt(
                "deadline",
                f"shard {self.shard}: no response within budget",
                now,
            )
        self._ladder.count("hedges")
        for position in self._owed:
            self._outcomes[position].hedged = True
        left = (
            max(self._attempt_ends - now, 0.001)
            if self._attempt_ends is not None
            else None
        )
        return [self._send(self._primary() + 1, left)]

    def cancel(self) -> list[Action]:
        if self._done:
            return []
        self._done = True
        if self._attempt == 1:
            # The first attempt is still out, holding what ``allow()``
            # gave it — a half-open breaker's one probe slot — and no
            # outcome will be recorded: a cancelled attempt says nothing
            # about the shard, but the slot goes back, or nobody probes
            # again.
            self._ladder.breaker.release_probe()
        return self._end_attempt()

    # -- rungs -------------------------------------------------------------------

    def _advance(self, now: float) -> list[Action]:
        """Begin the next attempt, or resolve when nothing is owed or
        nothing is left to try."""
        ladder = self._ladder
        remaining = self._expiry - now if self._expiry is not None else None
        if not self._owed or self._attempt == ladder.attempts:
            pass
        elif remaining is not None and remaining <= 0:
            self._fail_owed(
                "deadline", f"shard {self.shard}: query deadline exhausted"
            )
        elif self._attempt == 0 and not ladder.breaker.allow():
            ladder.count("breaker_short_circuits")
            self._fail_owed(
                "breaker-open",
                f"shard {self.shard} circuit breaker is "
                f"{ladder.breaker.state}",
            )
        else:
            return self._begin_attempt(now, remaining)
        self._done = True
        return [Resolve(self._outcomes)]

    def _begin_attempt(
        self, now: float, remaining: Optional[float]
    ) -> list[Action]:
        ladder = self._ladder
        if self._attempt:
            ladder.count("retries")
        self._attempt += 1
        for position in self._owed:
            self._outcomes[position].attempts = self._attempt
        # This attempt's slice of the remaining deadline: split evenly
        # over the attempts still available, so one slow attempt cannot
        # starve the retries behind it.
        budget = (
            remaining / (ladder.attempts - self._attempt + 1)
            if remaining is not None
            else None
        )
        self._attempt_ends = now + budget if budget is not None else None
        actions: list[Action] = [self._send(self._primary(), budget)]
        if budget is not None:
            actions.append(SetTimer(budget, ("budget", self._attempt)))
        if self._hedge_delay is not None:
            actions.append(
                SetTimer(self._hedge_delay, ("hedge", self._attempt))
            )
        return actions

    def _primary(self) -> int:
        return self._first_primary + self._attempt - 1

    def _send(self, replica: int, timeout: Optional[float]) -> Send:
        tag = next(self._tags)
        self._live.add(tag)
        return Send(
            tag,
            replica % self._ladder.replicas,
            [self._statements[position] for position in self._owed],
            timeout,
        )

    def _end_attempt(self) -> list[Action]:
        actions: list[Action] = [Abandon(rid) for rid in self._rids]
        self._rids = []
        self._live = set()
        return actions

    def _fail_attempt(self, kind: str, error: str, now: float) -> list[Action]:
        actions = self._end_attempt()
        self._fail_owed(kind, error)
        self._ladder.breaker.record_failure()
        return actions + self._advance(now)

    def _fail_owed(self, kind: str, error: Optional[str]) -> None:
        for position in self._owed:
            outcome = self._outcomes[position]
            outcome.kind = kind
            outcome.error = error
