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

The transport is one ``socket.socketpair()`` per worker incarnation,
framed by hand: a 4-byte little-endian length, then one ``marshal``
payload.  A caller's thread writes its request frame itself, under the
runtime's lock and without blocking: whatever the kernel does not take
waits, in order, in the handle's outbox, and the dispatcher thread
flushes it when the socket turns writable.  The dispatcher — the
runtime's only thread — waits on every worker socket with one selector
and completes requests as their responses arrive.  EOF on a worker's
socket is the crash signal: the requests waiting on that worker are
reported lost at once.  A worker blocks on its socket and exits on EOF,
so it never outlives the process that started it; for that EOF to
arrive, a forked child closes every parent-side socket end it inherited
(:func:`_close_parent_ends`).

The robustness machinery lives here:

* **supervision** — every ``health_interval`` the dispatcher's
  ``select()`` times out into a health sweep that ticks each slot's
  :class:`~repro.serving.lifecycle.Lifecycle`: a dead process (crash,
  OOM-kill) is respawned; a *hung* one (heartbeat stale) is sent
  ``terminate()`` and respawned.  Respawn events land in a journal the
  chaos suite asserts on.
* **generation fencing** — every worker incarnation carries a
  generation number; responses echo it, and the slot's lifecycle lets
  a response complete only a request sent to that generation.  A late
  reply from a pre-crash worker (or one serving a stale store) can
  therefore never be mistaken for a fresh answer.
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

import itertools
import marshal
import multiprocessing
import os
import selectors
import socket
import threading
import time
import weakref
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
from repro.serving.lifecycle import Complete, Lifecycle, Spawn, Terminate

#: Seconds between heartbeat stamps inside a healthy worker.
HEARTBEAT_INTERVAL = 0.05

#: Default seconds between supervisor health sweeps.
DEFAULT_HEALTH_INTERVAL = 0.25

#: Default staleness threshold before a worker counts as hung.
DEFAULT_HEARTBEAT_TIMEOUT = 2.0

#: Exit code workers use for scripted kill faults (mirrors SIGKILL).
_KILL_EXIT_CODE = 137

#: Bytes of the length prefix in front of every frame.
_HEADER = 4

#: Initial size of a worker's receive buffer in the parent; it grows to
#: the largest response frame.
_INBOX_BYTES = 1 << 16

#: Every parent-side socket end of every runtime in this process.  It is
#: per process, not per runtime, because a worker forked by one runtime
#: inherits the ends of all of them.
_PARENT_ENDS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


def _close_parent_ends() -> None:
    """Runs in every forked child: a worker that kept a copy of its own
    parent end, or of an earlier sibling's, would never see EOF when
    the parent dies."""
    for sock in list(_PARENT_ENDS):
        sock.close()


os.register_at_fork(after_in_child=_close_parent_ends)


def _frame(message: dict) -> bytes:
    payload = marshal.dumps(message)
    return len(payload).to_bytes(_HEADER, "little") + payload


def _read_frame(reader: Any) -> dict | None:
    """The next message from a blocking buffered reader, ``None`` at
    EOF."""
    header = reader.read(_HEADER)
    if len(header) < _HEADER:
        return None
    size = int.from_bytes(header, "little")
    payload = reader.read(size)
    return marshal.loads(payload) if len(payload) == size else None


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
    config: WorkerConfig, conn: socket.socket, heartbeat: Any
) -> None:
    """Entry point of one shard worker process.

    Serves ``batch``/``ping`` requests framed on ``conn``, one at a
    time on this thread, until a ``stop`` message or EOF arrives,
    stamping ``heartbeat`` from a side thread so long-running queries
    never look like a hang.  Scripted process faults (kill / hang /
    slow) apply per request.
    """
    from repro.storage.database import Database

    frozen = threading.Event()
    stop_beating = threading.Event()

    def beat() -> None:
        while not stop_beating.is_set() and not frozen.is_set():
            heartbeat.value = time.time()
            stop_beating.wait(HEARTBEAT_INTERVAL)

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

    reader = conn.makefile("rb")

    def respond(payload: dict) -> None:
        payload.setdefault("shard", config.shard)
        payload.setdefault("replica", config.replica)
        payload["gen"] = config.generation
        conn.sendall(_frame(payload))

    def run_batch(message: dict, fault: Any) -> None:
        # Pipelined statements: one request/response round-trip carries
        # a whole batch (a single query is a batch of one), amortizing
        # the framing and system calls that would otherwise be paid per
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
        # SQLite rows hold only marshal-able scalars.  The items travel
        # as their own marshal bytes inside the response frame: the
        # parent decodes the frame on its dispatcher thread and leaves
        # the rows to the ladder.
        respond(
            {"id": message["id"], "ok": True, "items": marshal.dumps(items)}
        )

    try:
        while True:
            message = _read_frame(reader)
            if message is None:
                break  # EOF: the parent closed its end or died
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
    except ConnectionError:
        pass  # the parent went away mid-frame
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


@dataclass(eq=False)
class WorkerHandle:
    """Parent-side view of one worker incarnation and its socket."""

    shard: int
    replica: int
    generation: int
    process: Any
    #: The parent's end of the worker's socket, non-blocking.
    conn: socket.socket
    heartbeat: Any
    #: The slot's machine, handed from each incarnation to the next.
    lifecycle: Lifecycle
    #: Frame bytes the kernel has not taken yet, in send order; touched
    #: under the runtime's lock.
    outbox: bytearray = field(default_factory=bytearray, repr=False)
    #: Dispatcher thread only: the selector watches ``conn`` for
    #: writability too, and ``inbox[:filled]`` holds the start of the
    #: frames not yet delivered.
    writing: bool = False
    inbox: bytearray = field(
        default_factory=lambda: bytearray(_INBOX_BYTES), repr=False
    )
    filled: int = 0


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
    duplicate requests have somewhere to go).  One dispatcher thread
    reads every worker socket, routes responses to the requests waiting
    on them and, every ``health_interval``, sweeps the fleet: each
    slot's :class:`~repro.serving.lifecycle.Lifecycle` decides what is
    lost, fenced, terminated and respawned, and the dispatcher does it.

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
        #: Held to feed any lifecycle, to touch ``_pending`` or an
        #: outbox, and to write to or close a worker socket.
        self._lock = threading.Lock()
        self._workers: dict[tuple[int, int], WorkerHandle] = {}
        #: Request id -> its slot's machine and completion hook, until
        #: the sender abandons it (or :meth:`wait` does).
        self._pending: dict[int, tuple[Lifecycle, Callable]] = {}
        self._request_ids = itertools.count(1)
        self._started = False
        self._dispatching = False
        #: Supervision journal: spawn/respawn events, in order.  The
        #: chaos suite uploads this as its run artifact.
        self.events: list[dict] = []

    # -- lifecycle ---------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shard_paths)

    def start(self) -> "ShardRuntime":
        """Spawn every worker and the dispatcher thread."""
        if self._started:
            return self
        self._started = True
        self._selector = selectors.DefaultSelector()
        # A caller wakes the dispatcher with a byte here when an outbox
        # starts to hold bytes, and close() when it is time to stop.
        self._wake_r, self._wake_w = socket.socketpair()
        for end in (self._wake_r, self._wake_w):
            end.setblocking(False)
            _PARENT_ENDS.add(end)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        for shard in range(self.shard_count):
            for replica in range(self.replicas):
                lifecycle = Lifecycle(self.heartbeat_timeout)
                self._spawn((shard, replica), lifecycle, Spawn(0, "start"))
        self._dispatching = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="shard-dispatch"
        )
        self._dispatcher.start()
        return self

    def close(self) -> None:
        """Report every unanswered request lost, stop the dispatcher
        and shut every worker down."""
        with self._lock:
            if not self._dispatching:
                return
            self._dispatching = False
            handles = list(self._workers.values())
            lost = [
                self._firing(action)
                for handle in handles
                for action in handle.lifecycle.close()
            ]
            for handle in handles:
                try:
                    self._write(handle, _frame({"op": "stop"}))
                except OSError:
                    pass  # already gone
        self._fire(lost)
        self._wake()
        self._dispatcher.join(timeout=2.0)
        # A worker still running a batch reads EOF after it.
        for handle in handles:
            handle.conn.close()
        deadline = time.monotonic() + 2.0
        for handle in handles:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self._wake_r.close()
        self._wake_w.close()
        self._workers.clear()

    def __enter__(self) -> "ShardRuntime":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- spawning / supervision --------------------------------------------------

    def _spawn(
        self, slot: tuple[int, int], lifecycle: Lifecycle, spawn: Spawn
    ) -> None:
        """Start incarnation ``spawn.generation`` of ``slot`` and watch
        its socket: in :meth:`start` before the dispatcher runs, then
        only on the dispatcher, under the lock."""
        shard, replica = slot
        generation = spawn.generation
        config = WorkerConfig(
            shard=shard,
            replica=replica,
            generation=generation,
            shard_path=self.shard_paths[shard],
            policy=self.policy,
            fault_plan=self.fault_plan,
        )
        conn, child_end = socket.socketpair()
        conn.setblocking(False)
        _PARENT_ENDS.add(conn)
        heartbeat = self._ctx.Value("d", time.time(), lock=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(config, child_end, heartbeat),
            daemon=True,
            name=f"shard-{shard}-r{replica}-g{generation}",
        )
        # Also reaps a terminated predecessor that has exited by now.
        process.start()
        # Only the worker holds its end now: its exit is EOF here.
        child_end.close()
        handle = WorkerHandle(
            shard=shard,
            replica=replica,
            generation=generation,
            process=process,
            conn=conn,
            heartbeat=heartbeat,
            lifecycle=lifecycle,
        )
        self._selector.register(conn, selectors.EVENT_READ, handle)
        self._workers[slot] = handle
        lifecycle.spawned(generation)
        self.events.append(
            {
                "time": time.time(),
                "event": "spawn" if generation == 0 else "respawn",
                "reason": spawn.reason,
                "shard": shard,
                "replica": replica,
                "generation": generation,
            }
        )

    def _sweep(self) -> None:
        """One health sweep: tick every slot's machine and do what it
        says.  A hung worker only gets a signal; nothing here joins."""
        now = time.time()
        lost = []
        with self._lock:
            for slot, handle in list(self._workers.items()):
                for action in handle.lifecycle.tick(
                    now, handle.heartbeat.value, handle.process.is_alive()
                ):
                    if isinstance(action, Complete):
                        lost.append(self._firing(action))
                    elif isinstance(action, Terminate):
                        handle.process.terminate()
                    else:
                        self._drop(handle)
                        try:
                            self._spawn(slot, handle.lifecycle, action)
                        except OSError:
                            pass  # no fork: the slot stays down, sends lost
        self._fire(lost)

    def _firing(
        self, action: Complete, response: Optional[dict] = None
    ) -> tuple[Callable, Optional[dict]]:
        """The hook ``action`` completes and what it gets, under the
        lock: ``response``, or ``None`` for a lost request."""
        return self._pending[action.rid][1], response if action.ok else None

    @staticmethod
    def _fire(firings: list[tuple[Callable, Optional[dict]]]) -> None:
        # Outside the lock: the hook typically just posts to a queue or
        # schedules a loop.call_soon_threadsafe, but it is caller code.
        for callback, response in firings:
            try:
                callback(response)
            except Exception:  # pragma: no cover - defensive
                pass

    def worker(self, shard: int, replica: int) -> WorkerHandle:
        """The current incarnation serving ``(shard, replica)``."""
        handle = self._workers.get((shard, replica))
        if handle is None:
            raise ShardError(
                f"no worker for shard {shard} replica {replica}", shard=shard
            )
        return handle

    def respawn_count(self) -> int:
        """Number of respawn events so far (crash + hang recoveries)."""
        return sum(1 for event in self.events if event["event"] == "respawn")

    # -- request plumbing --------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # full, so a wake-up is pending anyway; or closed

    @staticmethod
    def _write(handle: WorkerHandle, frame: bytes) -> bool:
        """Send ``frame`` to ``handle``'s worker without blocking, under
        the lock: what the kernel does not take now waits in the outbox,
        behind what is already there, for the dispatcher to flush.
        True when the dispatcher must start watching for writability;
        raises ``OSError`` when the socket is closed or broken."""
        if handle.outbox:
            handle.outbox += frame
            return False
        try:
            sent = handle.conn.send(frame)
        except BlockingIOError:
            sent = 0
        if sent == len(frame):
            return False
        handle.outbox += memoryview(frame)[sent:]
        return True

    def _dispatch_loop(self) -> None:
        due = time.monotonic() + self.health_interval
        try:
            while self._dispatching:
                for key, events in self._selector.select(
                    max(0.0, due - time.monotonic())
                ):
                    handle = key.data
                    if handle is None:
                        self._watch()
                        continue
                    if events & selectors.EVENT_WRITE:
                        self._flush(handle)
                    if events & selectors.EVENT_READ:
                        self._read(handle)
                # Due even while frames keep the selector busy.
                if time.monotonic() >= due:
                    self._sweep()
                    due = time.monotonic() + self.health_interval
        finally:
            self._selector.close()

    def _watch(self) -> None:
        """Drain the wake-up socket and watch for writability every
        socket whose outbox holds bytes."""
        try:
            while self._wake_r.recv(4096):
                pass
        except BlockingIOError:
            pass
        with self._lock:
            for handle in self._workers.values():
                if handle.outbox and not handle.writing:
                    self._selector.modify(
                        handle.conn,
                        selectors.EVENT_READ | selectors.EVENT_WRITE,
                        handle,
                    )
                    handle.writing = True

    def _drop(self, handle: WorkerHandle) -> None:
        """Stop watching ``handle``'s socket and close it, under the
        lock on the dispatcher thread."""
        if handle.conn.fileno() >= 0:
            self._selector.unregister(handle.conn)
            handle.conn.close()
            handle.outbox.clear()

    def _flush(self, handle: WorkerHandle) -> None:
        """Hand the kernel what it takes of ``handle``'s outbox."""
        with self._lock:
            try:
                del handle.outbox[: handle.conn.send(handle.outbox)]
            except BlockingIOError:
                return
            except OSError:
                # Broken: the worker is gone, and EOF follows on read.
                handle.outbox.clear()
            if not handle.outbox:
                self._selector.modify(handle.conn, selectors.EVENT_READ, handle)
                handle.writing = False

    def _read(self, handle: WorkerHandle) -> None:
        """Receive into ``handle``'s inbox and deliver every whole
        frame; on EOF, report the requests waiting on the worker lost."""
        inbox, start = handle.inbox, 0
        try:
            end = handle.filled + handle.conn.recv_into(
                memoryview(inbox)[handle.filled :]
            )
        except BlockingIOError:
            return
        except OSError:
            end = handle.filled
        if end == handle.filled:
            with self._lock:
                lost = [self._firing(action) for action in handle.lifecycle.eof()]
                self._drop(handle)
            self._fire(lost)
            return
        while end - start >= _HEADER:
            stop = start + _HEADER + int.from_bytes(
                inbox[start : start + _HEADER], "little"
            )
            if stop > end:
                break
            self._deliver(
                handle,
                marshal.loads(memoryview(inbox)[start + _HEADER : stop]),
            )
            start = stop
        handle.filled = end - start
        if start and handle.filled:
            inbox[: handle.filled] = inbox[start:end]
        if handle.filled >= _HEADER:
            # Room for the whole next frame, so it is received in place.
            size = _HEADER + int.from_bytes(inbox[:_HEADER], "little")
            if size > len(inbox):
                inbox.extend(bytes(size - len(inbox)))

    def _deliver(self, handle: WorkerHandle, response: dict) -> None:
        """Complete the request ``response`` answers, unless it was
        abandoned or the generation fence drops the frame."""
        with self._lock:
            done = [
                self._firing(action, response)
                for action in handle.lifecycle.frame(
                    response.get("gen"), response.get("id")
                )
            ]
        self._fire(done)

    def _send(
        self,
        shard: int,
        replica: int,
        message: dict,
        on_complete: Callable[[Optional[dict]], None] | None,
    ) -> int:
        """Register a pending request and send ``message`` to the
        worker of ``(shard, replica)``; returns the request id."""
        request_id = message["id"] = next(self._request_ids)
        frame = _frame(message)
        callback = on_complete if on_complete is not None else _Parked()
        with self._lock:
            handle = self.worker(shard, replica)
            self._pending[request_id] = (handle.lifecycle, callback)
            # Registered and written under one lock hold: the request
            # reaches the incarnation its machine has it pending on, or
            # is lost at once because none is up.
            lost = [self._firing(a) for a in handle.lifecycle.sent(request_id)]
            try:
                wake = not lost and self._write(handle, frame)
            except OSError as exc:
                handle.lifecycle.refused(request_id)
                del self._pending[request_id]
                raise ShardError(
                    f"could not send {message['op']} to shard {shard} "
                    f"replica {replica}: {exc}",
                    shard=shard,
                ) from exc
        if wake:
            self._wake()  # the dispatcher now watches for writability
        self._fire(lost)
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
        error), marshal-encoded; framing and system calls are paid once
        per batch instead of once per statement.  ``on_complete`` is
        fired once with the response dict — or ``None`` when the request
        became unanswerable — from the dispatcher thread, or before this
        returns when the slot has no live worker; without it the
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
        parked = pending[1]
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
            pending = self._pending.pop(request_id, None)
            if pending is not None:
                pending[0].abandon(request_id)
