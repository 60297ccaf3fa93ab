"""Supervised shard-worker processes: the muscle behind sharded serving.

Processes are the only parallelism in the tree.  Thread fan-out
measurably *degrades* this workload (``BENCH_PR2.json`` /
``BENCH_PR4.json``, and EXPERIMENTS.md "PR 18" on two cores), so
queries scatter over forked workers: each shard of a :class:`~repro.
serving.shards.ShardedStore` is served by one or more worker processes,
each owning one read-only :class:`~repro.storage.database.Database`
over the shard file and running its requests one at a time.  Separate
processes get separate page caches and true CPU parallelism for the
Python-side row handling; more throughput per shard means more
``replicas``, not threads inside a worker.

The robustness machinery lives here:

* **supervision** — a :class:`ShardRuntime` background thread health-
  checks every worker: a dead process (crash, OOM-kill) is respawned
  immediately; a *hung* process (heartbeats stale) is terminated and
  respawned.  Respawn events land in a journal the chaos suite asserts
  on.
* **generation fencing** — every worker incarnation carries a
  generation number; responses echo it, and the parent drops responses
  whose generation does not match the incarnation it sent the request
  to.  A late reply from a pre-crash worker (or one serving a stale
  store) can therefore never be mistaken for a fresh answer.
* **circuit breaking** — :class:`CircuitBreaker` implements the
  classic closed → open → half-open ladder per shard, so a persistently
  failing shard is failed fast instead of eating the query deadline on
  every request.

Workers are deliberately dumb: they receive already-translated SQL
(shard files share one schema, and the generated statements filter
`Paths` by string, never by shard-local ids), run it under the
resilience guards, and ship raw rows back.  All policy — deadlines,
hedging, retries, degradation — stays in the parent
(:mod:`repro.serving.ladder`).
"""

from __future__ import annotations

import marshal
import multiprocessing
import os
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import (
    QueryLimitError,
    QueryTimeoutError,
    RetryExhaustedError,
    ShardError,
    StorageError,
)
from repro.resilience.faults import WorkerFaultPlan
from repro.resilience.policy import ResiliencePolicy

#: Seconds between heartbeat stamps inside a healthy worker.
HEARTBEAT_INTERVAL = 0.05

#: Default seconds between supervisor health sweeps.
DEFAULT_HEALTH_INTERVAL = 0.25

#: Default staleness threshold before a worker counts as hung.
DEFAULT_HEARTBEAT_TIMEOUT = 2.0

#: Exit code workers use for scripted kill faults (mirrors SIGKILL).
_KILL_EXIT_CODE = 137


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs, picklable for any
    multiprocessing start method."""

    shard: int
    replica: int
    generation: int
    shard_path: str
    policy: ResiliencePolicy | None = None
    fault_plan: WorkerFaultPlan | None = None
    heartbeat_interval: float = HEARTBEAT_INTERVAL


def _classify_error(exc: Exception) -> str:
    if isinstance(exc, QueryTimeoutError):
        return "timeout"
    if isinstance(exc, QueryLimitError):
        return "limit"
    if isinstance(exc, RetryExhaustedError):
        return "retry-exhausted"
    if isinstance(exc, StorageError):
        return "storage"
    return "internal"


def worker_main(
    config: WorkerConfig,
    requests: "multiprocessing.queues.Queue[dict]",
    responses: "multiprocessing.queues.Queue[dict]",
    heartbeat: Any,
) -> None:
    """Entry point of one shard worker process.

    Serves ``batch``/``ping`` requests from ``requests``, one at a
    time on this thread, until a ``stop`` message arrives, stamping
    ``heartbeat`` from a side thread so long-running queries never look
    like a hang.  Scripted process faults (kill / hang / slow) apply
    per request.
    """
    from repro.storage.database import Database

    frozen = threading.Event()
    stop_beating = threading.Event()

    def beat() -> None:
        while not stop_beating.is_set() and not frozen.is_set():
            heartbeat.value = time.time()
            stop_beating.wait(config.heartbeat_interval)

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()

    draw = (
        config.fault_plan.for_worker(
            config.shard, config.replica, config.generation
        )
        if config.fault_plan is not None
        else None
    )
    db: Database | None = None
    open_error: str | None = None
    try:
        db = Database.open(
            config.shard_path, policy=config.policy, read_only=True
        )
    except Exception as exc:  # pragma: no cover - open failures are rare
        open_error = str(exc)

    def respond(payload: dict) -> None:
        payload.setdefault("shard", config.shard)
        payload.setdefault("replica", config.replica)
        payload["gen"] = config.generation
        responses.put(payload)

    def run_batch(message: dict, fault: Any) -> None:
        # Pipelined statements: one request/response round-trip carries
        # a whole batch (a single query is a batch of one), amortizing
        # queue + pickle overhead that would otherwise be paid per
        # query.  Item failures are reported per item; the batch
        # response itself is always "ok" once the shard file is open.
        # A "slow" fault delays this worker — the affected request and
        # everything queued behind it.
        if fault is not None and fault.kind == "slow":
            time.sleep(fault.seconds)
        if db is None:
            respond(
                {
                    "id": message["id"],
                    "ok": False,
                    "error_kind": "storage",
                    "error": f"shard database unavailable: {open_error}",
                }
            )
            return
        items = []
        for sql in message["sqls"]:
            try:
                rows = db.query(
                    sql,
                    timeout=message.get("timeout"),
                    max_rows=message.get("max_rows"),
                )
                items.append({"ok": True, "rows": rows})
            except Exception as exc:
                items.append(
                    {
                        "ok": False,
                        "error_kind": _classify_error(exc),
                        "error": str(exc)[:500],
                    }
                )
        # SQLite rows hold only marshal-able scalars, and marshal of a
        # big nested list beats the queue deep-pickling 10k+ tuples —
        # the queue then ships one flat bytes payload.
        respond(
            {"id": message["id"], "ok": True, "items": marshal.dumps(items)}
        )

    try:
        while True:
            try:
                message = requests.get(timeout=0.2)
            except queue_mod.Empty:
                continue
            op = message.get("op")
            if op == "stop":
                break
            if op == "ping":
                respond({"id": message["id"], "ok": True, "pong": True})
                continue
            if op != "batch":
                continue
            fault = draw.draw() if draw is not None else None
            if fault is not None:
                if fault.kind == "kill":
                    os._exit(_KILL_EXIT_CODE)
                if fault.kind == "hang":
                    # A frozen process stops heartbeating entirely; the
                    # supervisor terminates it well before the cap.
                    frozen.set()
                    time.sleep(fault.seconds if fault.seconds > 0 else 3600.0)
                    continue
            run_batch(message, fault)
    finally:
        # Reached between requests only: no statement is running on the
        # connection being closed.
        stop_beating.set()
        if db is not None:
            db.close()


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Closed → open → half-open breaker guarding one shard.

    *Closed* passes requests through and counts consecutive failures;
    ``failure_threshold`` of them trip the breaker *open*, which fails
    fast for ``cooldown`` seconds.  After the cooldown, the breaker is
    *half-open*: exactly one probe request is let through — success
    closes the breaker, failure re-opens it for another cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a request proceed right now?  In the half-open state,
        only the first caller gets a probe slot until its outcome is
        recorded."""
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "open":
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def release_probe(self) -> None:
        """Give the half-open probe slot back without an outcome (the
        probing call was cancelled)."""
        with self._lock:
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            if self._opened_at is not None:
                # Failed probe (or late failure): restart the cooldown.
                self._opened_at = self._clock()
                self._probing = False
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._probing = False


# ---------------------------------------------------------------------------
# runtime
# ---------------------------------------------------------------------------


@dataclass
class WorkerHandle:
    """Parent-side view of one worker incarnation."""

    shard: int
    replica: int
    generation: int
    process: Any
    requests: Any
    heartbeat: Any
    started_at: float = field(default_factory=time.time)


class _Pending:
    """One in-flight request awaiting its completion."""

    __slots__ = ("callback", "done", "expected_gen", "shard", "replica")

    def __init__(
        self,
        shard: int,
        replica: int,
        expected_gen: int,
        callback: "Callable[[Optional[dict]], None]",
    ):
        self.shard = shard
        self.replica = replica
        self.expected_gen = expected_gen
        #: Fired once, from the dispatcher or supervisor thread, with
        #: the response dict — or ``None`` when the request became
        #: unanswerable (worker respawned / runtime closed).  Event-loop
        #: callers bridge it with ``loop.call_soon_threadsafe``, blocking
        #: ones with a queue; neither needs a waiting thread per request.
        self.callback = callback
        self.done = False


class _Parked:
    """The completion hook of a request sent without one: keeps the
    response where :meth:`ShardRuntime.wait` picks it up."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: dict | None = None

    def __call__(self, response: Optional[dict]) -> None:
        self.response = response
        self.event.set()


class ShardRuntime:
    """The supervised worker fleet over one sharded store.

    ``replicas`` workers serve each shard (two by default, so hedged
    duplicate requests have somewhere to go).  A supervisor thread
    respawns dead workers and terminates hung ones; a dispatcher thread
    routes responses — dropping any whose worker generation is stale —
    to the threads waiting on them.

    The runtime is transport only: :meth:`submit_batch` moves SQL out
    and ``on_complete`` (or :meth:`wait`) brings raw rows back.
    Deadlines, hedging, retries and degradation live in
    :mod:`repro.serving.ladder`.
    """

    def __init__(
        self,
        shard_paths: list[str],
        replicas: int = 2,
        policy: ResiliencePolicy | None = None,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        fault_plan: WorkerFaultPlan | None = None,
        start_method: str | None = None,
    ):
        if not shard_paths:
            raise ShardError("a shard runtime needs at least one shard")
        if replicas < 1:
            raise ShardError(f"replicas must be >= 1, got {replicas}")
        self.shard_paths = list(shard_paths)
        self.replicas = replicas
        self.policy = policy
        self.health_interval = health_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.fault_plan = fault_plan
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self._responses = self._ctx.Queue()
        self._workers: dict[tuple[int, int], WorkerHandle] = {}
        self._lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._next_request_id = 1
        self._stop = threading.Event()
        self._started = False
        #: Supervision journal: spawn/respawn/heartbeat-kill events, in
        #: order.  The chaos suite uploads this as its run artifact.
        self.events: list[dict] = []

    # -- lifecycle ---------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shard_paths)

    def start(self) -> "ShardRuntime":
        """Spawn every worker and the dispatcher/supervisor threads."""
        if self._started:
            return self
        self._started = True
        for shard in range(self.shard_count):
            for replica in range(self.replicas):
                self._spawn(shard, replica, generation=0, reason="start")
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="shard-dispatch"
        )
        self._dispatcher.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, daemon=True, name="shard-supervise"
        )
        self._supervisor.start()
        return self

    def close(self) -> None:
        """Stop supervision, shut every worker down, drain state."""
        if not self._started or self._stop.is_set():
            self._stop.set()
            return
        self._stop.set()
        self._supervisor.join(timeout=2.0)
        with self._lock:
            handles = list(self._workers.values())
        for handle in handles:
            try:
                handle.requests.put_nowait({"op": "stop"})
            except Exception:  # pragma: no cover - queue torn down
                pass
        deadline = time.monotonic() + 2.0
        for handle in handles:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self._dispatcher.join(timeout=2.0)
        with self._lock:
            self._workers.clear()
        self._lose()
        with self._lock:
            self._pending.clear()

    def __enter__(self) -> "ShardRuntime":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- spawning / supervision --------------------------------------------------

    def _spawn(
        self, shard: int, replica: int, generation: int, reason: str
    ) -> WorkerHandle:
        config = WorkerConfig(
            shard=shard,
            replica=replica,
            generation=generation,
            shard_path=self.shard_paths[shard],
            policy=self.policy,
            fault_plan=self.fault_plan,
        )
        requests = self._ctx.Queue()
        heartbeat = self._ctx.Value("d", time.time(), lock=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(config, requests, self._responses, heartbeat),
            daemon=True,
            name=f"shard-{shard}-r{replica}-g{generation}",
        )
        process.start()
        handle = WorkerHandle(
            shard=shard,
            replica=replica,
            generation=generation,
            process=process,
            requests=requests,
            heartbeat=heartbeat,
        )
        with self._lock:
            self._workers[(shard, replica)] = handle
            self.events.append(
                {
                    "time": time.time(),
                    "event": "spawn" if generation == 0 else "respawn",
                    "reason": reason,
                    "shard": shard,
                    "replica": replica,
                    "generation": generation,
                }
            )
        return handle

    def _supervise_loop(self) -> None:
        while not self._stop.wait(self.health_interval):
            for key in list(self._workers):
                with self._lock:
                    handle = self._workers.get(key)
                if handle is None:  # pragma: no cover - close() race
                    continue
                if not handle.process.is_alive():
                    self._respawn(handle, reason="crash")
                    continue
                stale = time.time() - handle.heartbeat.value
                if stale > self.heartbeat_timeout:
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                    self._respawn(handle, reason="hung")

    def _respawn(self, handle: WorkerHandle, reason: str) -> None:
        """Replace a dead/hung worker with a fresh incarnation one
        generation up — in-flight requests to the old incarnation are
        fenced off by the generation check in the dispatcher."""
        self._spawn(
            handle.shard,
            handle.replica,
            generation=handle.generation + 1,
            reason=reason,
        )
        self._lose()

    def _lose(self) -> None:
        """Complete with ``None`` every unanswered request whose worker
        incarnation is gone — dead, respawned one generation up, or
        shut down — so callers fail over now instead of waiting out
        their deadline budget.  Runs after every respawn, and whenever
        the dispatcher idles, which catches a crash before the next
        health sweep does."""
        with self._lock:
            lost = []
            for pending in self._pending.values():
                handle = self._workers.get((pending.shard, pending.replica))
                if not pending.done and (
                    handle is None
                    or handle.generation != pending.expected_gen
                    or not handle.process.is_alive()
                ):
                    pending.done = True
                    lost.append(pending)
        for pending in lost:
            self._complete(pending, None)

    @staticmethod
    def _complete(pending: _Pending, response: Optional[dict]) -> None:
        # Outside the lock: the hook typically just posts to a queue or
        # schedules a loop.call_soon_threadsafe, but it is caller code.
        try:
            pending.callback(response)
        except Exception:  # pragma: no cover - defensive
            pass

    def worker(self, shard: int, replica: int) -> WorkerHandle:
        """The current incarnation serving ``(shard, replica)``."""
        with self._lock:
            try:
                return self._workers[(shard, replica)]
            except KeyError:
                raise ShardError(
                    f"no worker for shard {shard} replica {replica}",
                    shard=shard,
                ) from None

    def respawn_count(self) -> int:
        """Number of respawn events so far (crash + hang recoveries)."""
        with self._lock:
            return sum(
                1 for event in self.events if event["event"] == "respawn"
            )

    # -- request plumbing --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not (self._stop.is_set() and not self._pending):
            try:
                response = self._responses.get(timeout=0.1)
            except queue_mod.Empty:
                if self._stop.is_set():
                    break
                self._lose()
                continue
            with self._lock:
                pending = self._pending.get(response.get("id"))
                if pending is None or pending.done:
                    continue  # already abandoned (hedge lost the race)
                if response.get("gen") != pending.expected_gen:
                    # Generation fence: a reply from a stale worker
                    # incarnation must never satisfy a fresh request.
                    continue
                pending.done = True
            self._complete(pending, response)

    def _send(
        self,
        shard: int,
        replica: int,
        message: dict,
        on_complete: Callable[[Optional[dict]], None] | None,
    ) -> int:
        """Register a pending request and enqueue ``message`` to the
        worker of ``(shard, replica)``; returns the request id."""
        with self._lock:
            # Looked up and registered under one lock hold: a respawn
            # either sees this request (and reports it lost) or has
            # already swapped in the incarnation it goes to.
            handle = self._workers.get((shard, replica))
            if handle is None:
                raise ShardError(
                    f"no worker for shard {shard} replica {replica}",
                    shard=shard,
                )
            request_id = message["id"] = self._next_request_id
            self._next_request_id += 1
            self._pending[request_id] = _Pending(
                shard,
                replica,
                handle.generation,
                on_complete if on_complete is not None else _Parked(),
            )
        try:
            handle.requests.put_nowait(message)
        except Exception as exc:
            self.abandon(request_id)
            raise ShardError(
                f"could not enqueue {message['op']} to shard {shard} "
                f"replica {replica}: {exc}",
                shard=shard,
            ) from exc
        return request_id

    def submit_batch(
        self,
        shard: int,
        sqls: list[str],
        *,
        replica: int = 0,
        timeout: float | None = None,
        max_rows: int | None = None,
        on_complete: Callable[[Optional[dict]], None] | None = None,
    ) -> int:
        """Send a pipelined batch of statements to one worker in a
        single request/response round-trip.  The response carries one
        ``items`` entry per statement (``ok`` + rows, or a per-item
        error), marshal-encoded; queue and pickle overhead is paid once
        per batch instead of once per statement.  ``on_complete`` is
        fired once from a runtime thread with the response dict — or
        ``None`` when the request became unanswerable; without it the
        response is kept for :meth:`wait`.  Either way every id handed
        out is the caller's to :meth:`abandon` (or :meth:`wait` out)."""
        message = {
            "op": "batch",
            "sqls": list(sqls),
            "timeout": timeout,
            "max_rows": max_rows,
        }
        return self._send(shard, replica, message, on_complete)

    def ping(self, shard: int, replica: int, timeout: float = 1.0) -> bool:
        """Round-trip health probe of one worker."""
        try:
            request_id = self._send(shard, replica, {"op": "ping"}, None)
        except ShardError:
            return False
        response = self.wait(request_id, timeout)
        return bool(response and response.get("ok"))

    def wait(self, request_id: int, timeout: float) -> Optional[dict]:
        """Block for the response to a request sent without
        ``on_complete``; ``None`` when it does not arrive in time or
        never can (the request is abandoned either way)."""
        with self._lock:
            pending = self._pending.get(request_id)
        if pending is None:
            return None
        parked = pending.callback
        if not isinstance(parked, _Parked):
            raise ShardError("wait() is for requests sent without on_complete")
        parked.event.wait(timeout)
        self.abandon(request_id)
        return parked.response

    def abandon(self, request_id: int) -> None:
        """Forget an in-flight request (lost hedge, expired deadline);
        its eventual response — if any — is dropped by the
        dispatcher."""
        with self._lock:
            self._pending.pop(request_id, None)
