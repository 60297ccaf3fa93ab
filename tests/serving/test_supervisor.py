"""The supervised worker fleet: query round-trips, crash/hang
respawns, generation fencing, and the circuit-breaker state machine."""

from __future__ import annotations

import asyncio
import marshal
import os
import queue
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import ShardError, infer_schema, parse_document
from repro.api import EngineConfig
from repro.resilience.faults import WorkerFaultPlan
from repro.serving.frontdoor import _Tick
from repro.serving.scatter import ShardedEngine
from repro.serving.shards import ShardedStore
from repro.serving.supervisor import CircuitBreaker, ShardRuntime

pytestmark = pytest.mark.filterwarnings(
    # Forking from a process with supervision threads is this layer's
    # deliberate design on Linux; py3.12 warns about the general case.
    "ignore:.*fork.*:DeprecationWarning"
)


def make_store(tmp_path, shards=2, docs=4):
    documents = [
        parse_document(
            "<shop>"
            + "".join(
                f"<item sku='d{i}i{j}'><price>{j}</price></item>"
                for j in range(3)
            )
            + "</shop>",
            name=f"doc{i}.xml",
        )
        for i in range(docs)
    ]
    store = ShardedStore.create(
        str(tmp_path / "s"), schema=infer_schema(documents), shards=shards
    )
    store.bulk_load(documents)
    return store


def wait_for(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


COUNT_SQL = "SELECT COUNT(*) AS n, 1, x'00' FROM docs"
ENDLESS_SQL = (
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
    "SELECT COUNT(*), 1, x'00' FROM c"
)


class TestRuntimeBasics:
    def test_query_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        with ShardRuntime(store.shard_paths, replicas=1) as runtime:
            request = runtime.submit_batch(
                0, ["SELECT id, 1, x'00' FROM docs"]
            )
            response = runtime.wait(request, timeout=5.0)
            assert response is not None and response["ok"]
            assert response["gen"] == 0
            (item,) = marshal.loads(response["items"])
            assert item["ok"] and len(item["rows"]) >= 1
        store.close()

    def test_ping_all_workers(self, tmp_path):
        store = make_store(tmp_path)
        with ShardRuntime(store.shard_paths, replicas=2) as runtime:
            for shard in range(runtime.shard_count):
                for replica in range(2):
                    assert runtime.ping(shard, replica, timeout=5.0)
        store.close()

    def test_worker_reports_typed_error_kind(self, tmp_path):
        store = make_store(tmp_path)
        with ShardRuntime(store.shard_paths, replicas=1) as runtime:
            request = runtime.submit_batch(
                0, [COUNT_SQL, "SELECT * FROM no_such_table"]
            )
            response = runtime.wait(request, timeout=5.0)
            # The batch itself answers; the failure is the item's.
            assert response is not None and response["ok"]
            good, bad = marshal.loads(response["items"])
            assert good["ok"]
            assert not bad["ok"] and bad["error_kind"] == "storage"
        store.close()

    def test_one_parent_thread_runs_the_fleet(self, tmp_path):
        """The dispatcher reads every socket and sweeps the fleet's
        health; no other thread is started, and close() ends it."""
        store = make_store(tmp_path)
        before = set(threading.enumerate())
        runtime = ShardRuntime(store.shard_paths, replicas=2).start()
        try:
            added = set(threading.enumerate()) - before
            assert [thread.name for thread in added] == ["shard-dispatch"]
        finally:
            runtime.close()
        assert not set(threading.enumerate()) - before
        store.close()

    def test_rejects_empty_fleet(self):
        with pytest.raises(ShardError):
            ShardRuntime([])

    def test_rejects_zero_replicas(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ShardError):
            ShardRuntime(store.shard_paths, replicas=0)
        store.close()


class TestSupervision:
    def test_killed_worker_respawned_within_health_interval(self, tmp_path):
        """The acceptance-criteria bound: a killed worker is back
        within one health-check interval (plus spawn time)."""
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("kill", shard=0, replica=0)
        health = 0.2
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=health,
            fault_plan=plan,
        ).start()
        try:
            request = runtime.submit_batch(0, [COUNT_SQL])
            assert runtime.wait(request, timeout=2.0) is None  # died
            killed_at = time.monotonic()
            assert wait_for(
                lambda: runtime.respawn_count() >= 1, timeout=5.0
            )
            respawn_event = [
                event
                for event in runtime.events
                if event["event"] == "respawn"
            ][0]
            assert respawn_event["reason"] == "crash"
            # Detection itself happens within one sweep; allow one
            # extra interval of slack for process spawn.
            assert time.monotonic() - killed_at < health * 2 + 2.0
            # The respawned incarnation serves queries again.
            assert wait_for(
                lambda: runtime.ping(0, 0, timeout=1.0), timeout=5.0
            )
        finally:
            runtime.close()
        store.close()

    def test_hung_worker_terminated_and_respawned(self, tmp_path):
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("hang", shard=0, replica=0)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=0.1,
            heartbeat_timeout=0.4,
            fault_plan=plan,
        ).start()
        try:
            runtime.submit_batch(0, [COUNT_SQL])  # freezes the worker
            assert wait_for(
                lambda: runtime.respawn_count() >= 1, timeout=8.0
            )
            reasons = {
                event["reason"]
                for event in runtime.events
                if event["event"] == "respawn"
            }
            assert "hung" in reasons
        finally:
            runtime.close()
        store.close()

    @pytest.mark.chaos  # also runs in CI's chaos-smoke job
    def test_close_under_a_running_batch_never_crashes_a_worker(
        self, tmp_path
    ):
        """A worker runs its batch on its own request loop, so it can
        only reach its shutdown path between statements: one that is
        still stepping when the fleet closes finishes (exit 0) or is
        terminated by the supervisor (SIGTERM) — it never closes the
        connection under the statement and dies on SIGSEGV."""
        store = make_store(tmp_path, shards=2)
        runtime = ShardRuntime(store.shard_paths, replicas=1).start()
        handles = [runtime.worker(shard, 0) for shard in range(2)]
        completions = queue.SimpleQueue()
        # Shard 0 outlives close()'s grace period; shard 1 times out
        # inside it and then sees the stop message.
        runtime.submit_batch(
            0, [ENDLESS_SQL], timeout=30.0, on_complete=completions.put
        )
        runtime.submit_batch(
            1, [ENDLESS_SQL], timeout=0.5, on_complete=completions.put
        )
        runtime.close()
        for handle in handles:
            handle.process.join(timeout=5.0)
        exit_codes = [handle.process.exitcode for handle in handles]
        assert set(exit_codes) <= {0, -signal.SIGTERM}, exit_codes
        store.close()


class TestGenerationFencing:
    def test_respawn_bumps_generation(self, tmp_path):
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("kill", shard=0, replica=0)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=0.1,
            fault_plan=plan,
        ).start()
        try:
            assert runtime.worker(0, 0).generation == 0
            runtime.submit_batch(0, [COUNT_SQL])
            assert wait_for(
                lambda: runtime.worker(0, 0).generation == 1, timeout=5.0
            )
        finally:
            runtime.close()
        store.close()

    def test_request_to_dead_incarnation_reports_lost(self, tmp_path):
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("kill", shard=0, replica=0)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=0.1,
            fault_plan=plan,
        ).start()
        try:
            completions = queue.SimpleQueue()
            request = runtime.submit_batch(
                0, [COUNT_SQL], on_complete=completions.put
            )
            # The kill fires on receipt: the pending request can never
            # be answered, and the one loss signal — on_complete(None)
            # — arrives well before any deadline: on process death
            # when the dispatcher idles, else with the respawn.
            assert completions.get(timeout=5.0) is None
            assert wait_for(
                lambda: runtime.respawn_count() >= 1, timeout=5.0
            )
            # Exactly once: the respawn's fence does not report the
            # same request again.
            time.sleep(0.3)
            assert completions.empty()
            # Still registered until its sender abandons it.
            assert request in runtime._pending
            runtime.abandon(request)
            assert not runtime._pending
        finally:
            runtime.close()
        store.close()

    def test_stale_generation_response_is_fenced(self, tmp_path):
        """A reply stamped with another incarnation's generation never
        completes a request."""
        store = make_store(tmp_path, shards=1)
        with ShardRuntime(store.shard_paths, replicas=1) as runtime:
            completions = queue.SimpleQueue()
            request = runtime.submit_batch(
                0, [COUNT_SQL], on_complete=completions.put
            )
            response = completions.get(timeout=5.0)
            assert response["ok"] and response["gen"] == 0
            runtime.abandon(request)
            # Same id, wrong generation: register a request bound to
            # generation 0 and hand the receive path a generation-7
            # reply on its worker's socket, as the dispatcher does with
            # each decoded frame.
            fenced = runtime.submit_batch(
                0, [COUNT_SQL], on_complete=completions.put
            )
            runtime._deliver(
                runtime.worker(0, 0),
                {"id": fenced, "ok": True, "items": b"", "gen": 7},
            )
            assert completions.get(timeout=5.0)["gen"] == 0
            time.sleep(0.3)
            assert completions.empty()
            runtime.abandon(fenced)
        store.close()

    def test_close_completes_unanswered_requests_with_none(self, tmp_path):
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("hang", shard=0, replica=0)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=30.0,
            fault_plan=plan,
        ).start()
        completions = queue.SimpleQueue()
        runtime.submit_batch(0, [COUNT_SQL], on_complete=completions.put)
        runtime.close()
        assert completions.get(timeout=5.0) is None
        store.close()

    def test_fresh_request_after_respawn_is_served(self, tmp_path):
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("kill", shard=0, replica=0)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=0.1,
            fault_plan=plan,
        ).start()
        try:
            runtime.submit_batch(0, [COUNT_SQL])
            assert wait_for(
                lambda: runtime.worker(0, 0).generation == 1, timeout=5.0
            )
            request = runtime.submit_batch(0, [COUNT_SQL])
            response = runtime.wait(request, timeout=5.0)
            assert response is not None and response["ok"]
            assert response["gen"] == 1
        finally:
            runtime.close()
        store.close()


#: One ~80 KB statement: 112 of them are over 8 MB of request frames,
#: far more than a socket buffers.
BIG_SQL = "SELECT 1, 1, x'00' -- " + "x" * 80_000
BIG_BATCHES = 112

#: Started in a child interpreter that the orphan test SIGKILLs: brings
#: a fleet up, prints its worker pids, and waits to be killed.
ORPHAN_SCRIPT = """
import sys, time
from repro.serving.supervisor import ShardRuntime
runtime = ShardRuntime(sys.argv[1:], replicas=1).start()
for shard in range(runtime.shard_count):
    assert runtime.ping(shard, 0, timeout=30.0)
print(*(runtime.worker(s, 0).process.pid for s in range(runtime.shard_count)))
sys.stdout.flush()
time.sleep(120)
"""


def running(pid):
    """Is ``pid`` a live process (a zombie left for init to reap is not)?"""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.chaos  # also runs in CI's chaos-smoke job
class TestTransport:
    """One socket per worker incarnation: sends never wait for the
    worker, EOF is the crash signal both ways, and nothing relies on
    fork inheritance."""

    def test_sends_never_block_on_a_hung_worker(self, tmp_path):
        """Over 8 MB of batches to a worker frozen for two seconds: the
        kernel takes a few hundred KB, the handle's outbox keeps the
        rest in order, and neither a blocking caller nor an event loop
        waits for the worker."""
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script(
            "hang", shard=0, replica=0, seconds=2.0
        )
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            heartbeat_timeout=30.0,
            fault_plan=plan,
        ).start()
        try:
            runtime.submit_batch(0, [COUNT_SQL])  # freezes the worker
            completions = queue.SimpleQueue()
            slowest = 0.0
            for _ in range(BIG_BATCHES):
                started = time.monotonic()
                runtime.submit_batch(
                    0, [BIG_SQL], on_complete=completions.put
                )
                slowest = max(slowest, time.monotonic() - started)
            assert slowest < 0.05, slowest
            assert runtime.worker(0, 0).outbox  # the kernel took only part
            # The worker thaws and the outbox drains: all answered.
            for _ in range(BIG_BATCHES):
                response = completions.get(timeout=30.0)
                assert response is not None and response["ok"]
        finally:
            runtime.close()

        engine = ShardedEngine.serve(
            store,
            config=EngineConfig(replicas=1),
            fault_plan=plan,
            heartbeat_timeout=30.0,
        )

        async def drive():
            loop = asyncio.get_running_loop()
            lateness = []

            def tick(due):
                # A timer every 5 ms across the sends: a send that
                # blocks the loop makes the next one late.
                lateness.append(loop.time() - due)
                if len(ticks) < BIG_BATCHES:
                    loop.call_later(0.005, tick, loop.time() + 0.005)

            freeze = _Tick(engine, loop)
            freeze.start([COUNT_SQL], None, False)
            ticks, slowest = [], 0.0
            loop.call_later(0.005, tick, loop.time() + 0.005)
            for _ in range(BIG_BATCHES):
                batch = _Tick(engine, loop)
                started = time.monotonic()
                batch.start([BIG_SQL], None, False)
                slowest = max(slowest, time.monotonic() - started)
                ticks.append(batch)
                await asyncio.sleep(0.002)
            deadline = loop.time() + 30.0
            while not all(batch.outcomes for batch in ticks):
                assert loop.time() < deadline
                await asyncio.sleep(0.02)
            freeze.cancel()
            return slowest, max(lateness), ticks

        try:
            slowest, late, ticks = asyncio.run(drive())
        finally:
            engine.close()
        assert late < 0.05, late
        assert slowest < 0.05, slowest
        assert all(batch.outcomes[0][0].ok for batch in ticks)
        store.close()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="needs /proc"
    )
    def test_orphaned_workers_exit(self, tmp_path):
        """SIGKILL the process holding a started runtime: every worker
        sees EOF on its socket and exits within 2 s.  The second worker
        was forked after the first, so this also needs each child to
        close the parent ends it inherited."""
        store = make_store(tmp_path, shards=2)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        holder = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_SCRIPT, *store.shard_paths],
            stdout=subprocess.PIPE,
            env=env,
        )
        pids = []
        try:
            pids = [int(pid) for pid in holder.stdout.readline().split()]
            assert len(pids) == 2 and all(running(pid) for pid in pids)
            holder.kill()
            holder.wait(timeout=10.0)
            assert wait_for(
                lambda: not any(running(pid) for pid in pids), timeout=2.0
            ), [pid for pid in pids if running(pid)]
        finally:
            holder.kill()
            holder.stdout.close()
            holder.wait(timeout=10.0)
            for pid in pids:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
        store.close()

    def test_crash_is_seen_on_eof(self, tmp_path):
        """A worker killed mid-request is reported lost within 0.5 s
        while the dispatcher is kept busy by another shard and the next
        health sweep is 30 s away: EOF on its socket is the signal."""
        store = make_store(tmp_path, shards=2)
        runtime = ShardRuntime(
            store.shard_paths, replicas=1, health_interval=30.0
        ).start()
        stop = threading.Event()

        def stream():
            # Shard 1 answers every ~10 ms: the dispatcher never idles.
            while not stop.is_set():
                runtime.wait(runtime.submit_batch(1, [COUNT_SQL]), 5.0)
                time.sleep(0.01)

        streamer = threading.Thread(target=stream, daemon=True)
        streamer.start()
        try:
            completions = queue.SimpleQueue()
            runtime.submit_batch(
                0, [ENDLESS_SQL], timeout=30.0, on_complete=completions.put
            )
            time.sleep(0.3)  # the statement is running
            os.kill(runtime.worker(0, 0).process.pid, signal.SIGKILL)
            killed = time.monotonic()
            assert completions.get(timeout=5.0) is None
            assert time.monotonic() - killed < 0.5
        finally:
            stop.set()
            streamer.join(timeout=10.0)
            runtime.close()
        store.close()

    def test_spawn_start_method(self, tmp_path):
        """Workers started with ``spawn`` inherit nothing but their
        arguments: the socket travels with them, they answer a batch
        and a ping, and a killed one is reported lost."""
        store = make_store(tmp_path, shards=2)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=30.0,
            start_method="spawn",
        ).start()
        try:
            response = runtime.wait(
                runtime.submit_batch(0, [COUNT_SQL]), timeout=60.0
            )
            assert response is not None and response["ok"]
            (item,) = marshal.loads(response["items"])
            assert item["ok"] and item["rows"]
            assert runtime.ping(1, 0, timeout=60.0)
            completions = queue.SimpleQueue()
            runtime.submit_batch(
                1, [ENDLESS_SQL], timeout=30.0, on_complete=completions.put
            )
            time.sleep(0.3)
            os.kill(runtime.worker(1, 0).process.pid, signal.SIGKILL)
            assert completions.get(timeout=5.0) is None
        finally:
            runtime.close()
        store.close()


class TestCircuitBreaker:
    def test_starts_closed(self):
        assert CircuitBreaker().state == "closed"

    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=60.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_after_cooldown_single_probe(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        assert not breaker.allow()
        now[0] = 11.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # only one probe at a time

    def test_probe_success_closes(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_probe_failure_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 22.0
        assert breaker.state == "half-open"

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
