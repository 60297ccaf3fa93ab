"""The blocking and the asyncio driver are the same ladder.

Both engines drive :class:`repro.serving.ladder.ShardCall`; what each
adds is only the wake-up.  This suite pins that on a **scripted fake
transport** — an in-memory object with the runtime's ``submit_batch`` /
``abandon`` surface whose script answers, fails an item, fails the
request, loses it, refuses it or stays silent, per request — so no
process is forked and every run is deterministic.  For each script the
two drivers must return identical rows, ``complete``,
``failed_shards``, ``served_by``, per-shard ``attempts`` / ``hedged`` /
failure kind, and identical ``engine.stats``.

Three of these were not true before the ladder was written once: a
blocking batch was never hedged, a failed batch was retried one
statement at a time, and the two engines rotated primaries from
different counters.
"""

from __future__ import annotations

import asyncio
import marshal

import pytest

from repro import ShardUnavailableError, infer_schema, parse_document
from repro.errors import ShardError
from repro.serving.frontdoor import AsyncShardedEngine
from repro.serving.scatter import ServingConfig, ShardedEngine
from repro.serving.shards import ShardedStore
from repro.storage.database import Database

SHARDS = 2
REPLICAS = 2
SINGLE = "//item"
BATCH = ["//price/text()", "//item[@sku]", "/shop/item[2]"]


@pytest.fixture()
def store(tmp_path):
    documents = [
        parse_document(
            "<shop>"
            + "".join(
                f"<item sku='d{i}i{j}'><price>{i + j}</price></item>"
                for j in range(4)
            )
            + "</shop>",
            name=f"doc{i}.xml",
        )
        for i in range(6)
    ]
    sharded = ShardedStore.create(
        str(tmp_path / "shards"), infer_schema(documents), shards=SHARDS
    )
    sharded.bulk_load(documents)
    yield sharded
    sharded.close()


class ScriptedTransport:
    """The ``submit_batch`` / ``abandon`` surface of ``ShardRuntime``
    over in-process shard connections.  ``script(shard, replica, nth,
    sqls)`` — ``nth`` counting that worker's requests from 0 — names
    the fate of each request:

    * ``"ok"`` — every statement answered;
    * ``"item-error"`` — the first statement fails, the rest answer;
    * ``"failed"`` — the whole request fails (``ok: False``);
    * ``"lost"`` — ``on_complete(None)``: the worker died;
    * ``"refused"`` — ``submit_batch`` raises;
    * ``"silent"`` — nothing ever comes back.

    Completions fire *inside* ``submit_batch``, before it returns the
    id — the earliest a real dispatcher thread could.
    """

    def __init__(self, store, script):
        self.shard_count = store.shard_count
        self.replicas = REPLICAS
        self.script = script
        self.databases = [
            Database.open(path, read_only=True) for path in store.shard_paths
        ]
        self.requests = {}  # (shard, replica) -> count
        self.log = []  # (shard, replica, statements, fate)
        self.pending = set()
        self.next_id = 1

    def submit_batch(
        self, shard, sqls, *, replica, timeout, max_rows, on_complete
    ):
        nth = self.requests.get((shard, replica), 0)
        self.requests[(shard, replica)] = nth + 1
        fate = self.script(shard, replica, nth, sqls)
        self.log.append((shard, replica, len(sqls), fate))
        if fate == "refused":
            raise ShardError("scripted refusal", shard=shard)
        request_id = self.next_id
        self.next_id += 1
        self.pending.add(request_id)
        if fate == "lost":
            on_complete(None)
        elif fate == "failed":
            on_complete(
                {"ok": False, "error_kind": "storage", "error": "scripted"}
            )
        elif fate != "silent":
            items = [
                {"ok": True, "rows": self.databases[shard].query(sql)}
                for sql in sqls
            ]
            if fate == "item-error":
                items[0] = {
                    "ok": False, "error_kind": "limit", "error": "scripted"
                }
            on_complete({"ok": True, "items": marshal.dumps(items)})
        return request_id

    def abandon(self, request_id):
        self.pending.remove(request_id)  # exactly once, or KeyError

    def close(self):
        for database in self.databases:
            database.close()


def healthy(shard, replica, nth, sqls):
    return "ok"


def first_primary_silent(shard, replica, nth, sqls):
    """Shard 0's replica 0 never answers its first request: the hedge
    to replica 1 does."""
    return "silent" if (shard, replica, nth) == (0, 0, 0) else "ok"


def first_primary_lost(shard, replica, nth, sqls):
    return "lost" if (shard, replica, nth) == (1, 0, 0) else "ok"


def first_primary_refused(shard, replica, nth, sqls):
    return "refused" if (shard, replica, nth) == (1, 0, 0) else "ok"


def batch_item_fails_once(shard, replica, nth, sqls):
    """The first multi-statement request to shard 1 fails its first
    item; the retry (that statement alone) succeeds."""
    return "item-error" if shard == 1 and len(sqls) == len(BATCH) else "ok"


def shard_zero_broken(shard, replica, nth, sqls):
    return "failed" if shard == 0 else "ok"


def every_worker_dead(shard, replica, nth, sqls):
    return "lost"


def every_worker_silent(shard, replica, nth, sqls):
    return "silent"


SCRIPTS = {
    "healthy": (healthy, {}),
    "hedge": (first_primary_silent, {}),
    "retry-after-loss": (first_primary_lost, {}),
    "retry-after-refusal": (first_primary_refused, {}),
    "batch-item-retried-as-one-list": (batch_item_fails_once, {}),
    "partial-then-breaker": (shard_zero_broken, {"breaker_threshold": 3}),
    "fallback": (every_worker_dead, {}),
    "deadline": (every_worker_silent, {"deadline": 0.3}),
    "typed-error": (every_worker_dead, {"fallback": False}),
}


def make_engine(store, script, overrides):
    settings = dict(
        deadline=5.0,
        hedge_delay=0.02,
        hedge_min_rows=0.0,  # every query may hedge, whatever its estimate
        shard_retries=1,
        breaker_cooldown=60.0,
        result_cache_size=None,
    )
    settings.update(overrides)
    transport = ScriptedTransport(store, script)
    engine = ShardedEngine(store, transport, config=ServingConfig(**settings))
    observed = []
    finish = engine._finish

    def recording_finish(plan, outcomes):
        observed.append(
            [(o.shard, o.ok, o.kind, o.attempts, o.hedged) for o in outcomes]
        )
        return finish(plan, outcomes)

    engine._finish = recording_finish
    return engine, transport, observed


def summarize(results):
    return [
        result
        if isinstance(result, str)
        else (
            result.ids,
            result.values,
            result.complete,
            result.failed_shards,
            result.served_by,
        )
        for result in results
    ]


def attempt(call):
    """A typed error is an outcome to compare, not a test failure."""
    try:
        return call()
    except ShardUnavailableError:
        return ["ShardUnavailableError"]


def run_blocking(store, script, overrides):
    engine, transport, observed = make_engine(store, script, overrides)
    try:
        results = attempt(lambda: [engine.execute(SINGLE)])
        results += attempt(lambda: engine.execute_many(BATCH))
        results += attempt(lambda: [engine.execute(SINGLE)])
        assert not transport.pending
        return summarize(results), observed, dict(engine.stats), transport.log
    finally:
        transport.close()


def run_asyncio(store, script, overrides):
    engine, transport, observed = make_engine(store, script, overrides)

    async def attempt_async(call):
        try:
            return await call()
        except ShardUnavailableError:
            return ["ShardUnavailableError"]

    async def go():
        front = AsyncShardedEngine(engine)

        async def single():
            return [await front.execute(SINGLE)]

        results = await attempt_async(single)
        results += await attempt_async(lambda: front.execute_many(BATCH))
        results += await attempt_async(single)
        return results

    try:
        results = asyncio.run(go())
        assert not transport.pending
        return summarize(results), observed, dict(engine.stats), transport.log
    finally:
        transport.close()


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_both_drivers_agree(store, name):
    script, overrides = SCRIPTS[name]
    blocking = run_blocking(store, script, overrides)
    awaited = run_asyncio(store, script, overrides)
    for label, left, right in zip(
        ("results", "per-shard outcomes", "stats", "requests sent"),
        blocking,
        awaited,
    ):
        assert left == right, f"{name}: {label} differ"


class TestWhatEachScriptShows:
    """The scripts do what their names say — checked on the blocking
    driver; parity above carries it over to the asyncio one."""

    def test_healthy_is_complete_and_rotates_primaries(self, store):
        results, observed, stats, log = run_blocking(store, healthy, {})
        assert all(complete for _, _, complete, _, _ in results)
        assert all(
            outcome[1:] == (True, None, 1, False)
            for outcomes in observed
            for outcome in outcomes
        )
        # Three calls per shard, successive primaries 0, 1, 0.
        assert [replica for shard, replica, _, _ in log if shard == 0] == [
            0, 1, 0,
        ]
        assert stats["hedges"] == stats["retries"] == 0

    def test_blocking_batches_hedge(self, store):
        def silent_batch_primary(shard, replica, nth, sqls):
            return "silent" if len(sqls) > 1 and replica == 1 else "ok"

        _, observed, stats, log = run_blocking(
            store, silent_batch_primary, {}
        )
        # The batch is each shard's second call: primary replica 1,
        # silent, hedged to replica 0 — one hedge per shard.
        assert stats["hedges"] == SHARDS
        batch_outcomes = observed[1 : 1 + len(BATCH)]
        assert all(
            outcome[1:] == (True, None, 1, True)
            for outcomes in batch_outcomes
            for outcome in outcomes
        )
        assert (0, 0, len(BATCH), "ok") in log

    def test_failed_batch_item_is_retried_as_one_list(self, store):
        _, observed, stats, log = run_blocking(
            store, batch_item_fails_once, {}
        )
        # One retry for the batch, carrying only the failed statement.
        assert stats["retries"] == 1
        shard_one = [entry for entry in log if entry[0] == 1]
        assert (1, 1, len(BATCH), "item-error") in shard_one
        assert (1, 0, 1, "ok") in shard_one
        first, *rest = observed[1 : 1 + len(BATCH)]
        assert first[1][1:] == (True, None, 2, False)
        assert all(outcomes[1][3] == 1 for outcomes in rest)

    def test_partial_then_breaker(self, store):
        results, _, stats, log = run_blocking(
            store, shard_zero_broken, {"breaker_threshold": 3}
        )
        assert all(
            (complete, failed) == (False, [0])
            for _, _, complete, failed, _ in results
        )
        # Two failed attempts on the first call, a third on the batch
        # opens the breaker mid-call; the last call is short-circuited.
        assert stats["breaker_short_circuits"] == 1
        assert stats["partials"] == len(results)
        assert len([entry for entry in log if entry[0] == 0]) == 4

    def test_fallback_and_typed_error(self, store):
        results, observed, stats, _ = run_blocking(
            store, every_worker_dead, {}
        )
        assert {served_by for *_, served_by in results} == {"native"}
        assert stats["fallbacks"] == len(results)
        assert observed[0][0][1:] == (False, "worker-crashed", 2, False)
        results, *_ = run_blocking(
            store, every_worker_dead, {"fallback": False}
        )
        assert results == ["ShardUnavailableError"] * 3

    def test_deadline_is_kept(self, store):
        import time

        started = time.monotonic()
        _, observed, stats, _ = run_blocking(
            store, every_worker_silent, {"deadline": 0.3}
        )
        # Two calls wait out their 0.3 s; their four failed attempts
        # per shard open the breakers, so the third does not wait.
        assert 0.55 < time.monotonic() - started < 3.0
        assert stats["breaker_short_circuits"] == SHARDS
        assert {
            outcome[2] for outcomes in observed for outcome in outcomes
        } == {"deadline", "breaker-open"}
