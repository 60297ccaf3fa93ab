"""Seeded chaos soak of the sharded serving layer.

The acceptance property: under a scripted schedule of worker kills,
hangs, slow shards and background slowness, **every** query returns
one of

* a correct-complete result (identical to the single-store oracle),
* a correct-partial result — ``complete=False``, the missing shards
  listed in ``failed_shards``, and the rows exactly the oracle rows of
  the surviving shards' documents, or
* a typed error (:class:`ShardUnavailableError` /
  :class:`AdmissionRejectedError`).

Never a silently wrong answer.  The run journal (supervision events,
per-query outcomes, degradation counters) is written to the path in
``$CHAOS_JOURNAL`` when set — CI uploads it as the chaos-smoke
artifact."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import (
    AdmissionRejectedError,
    Database,
    PPFEngine,
    ShardUnavailableError,
    ShreddedStore,
    infer_schema,
)
from repro.api import EngineConfig
from repro.resilience.faults import WorkerFaultPlan, corrupt_shard_file
from repro.serving.scatter import ShardedEngine
from repro.serving.shards import ShardedStore
from repro.workloads.xmark import XMarkConfig, generate_xmark

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning"),
]

SEED = 20060328  # EDBT 2006
SHARDS = 4
QUERIES = [
    "/site/regions/*/item",
    "//item/name/text()",
    "//person[@id]",
    "//bidder/increase/text()",
    "//item[location='United States']/name/text()",
]


def build_corpus(tmp_path, docs=6, scale=1):
    documents = []
    for i in range(docs):
        document = generate_xmark(XMarkConfig(scale=scale, seed=SEED + i))
        document.name = f"xmark-{i}.xml"
        documents.append(document)
    schema = infer_schema(documents)
    single = ShreddedStore.create(
        Database.open(str(tmp_path / "oracle.db")), schema
    )
    for document in documents:
        single.load(document)
    sharded = ShardedStore.create(
        str(tmp_path / "shards"), schema, shards=SHARDS
    )
    sharded.bulk_load(documents)
    return single, sharded


def oracle_answers(single, sharded):
    """Per query: the full oracle id/value rows, plus each result row's
    owning shard (via the registry) for partial-result checking."""
    engine = PPFEngine(single)
    doc_shard = {e.doc_id: e.shard for e in sharded.doc_entries}
    answers = {}
    for query in QUERIES:
        result = engine.execute(query)
        answers[query] = [
            (row.id, row.value, doc_shard[row.doc_id]) for row in result
        ]
    return answers


def check_outcome(query, result, answers):
    """Classify and verify one query outcome against the oracle.
    Raises AssertionError on any silently-wrong answer."""
    expected = answers[query]
    got = [(row.id, row.value) for row in result]
    if result.complete:
        assert got == [(i, v) for i, v, _ in expected], (
            f"{query}: complete result diverges from oracle"
        )
        return "native" if result.served_by == "native" else "complete"
    assert result.failed_shards, "partial result must name failed shards"
    failed = set(result.failed_shards)
    surviving = [
        (i, v) for i, v, shard in expected if shard not in failed
    ]
    assert got == surviving, (
        f"{query}: partial result is not exactly the surviving shards' "
        f"oracle rows (failed={sorted(failed)})"
    )
    return "partial"


def write_journal(path, payload):
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


class TestChaosSoak:
    def test_seeded_kill_hang_slow_soak_never_silently_wrong(
        self, tmp_path
    ):
        single, sharded = build_corpus(tmp_path)
        answers = oracle_answers(single, sharded)
        plan = (
            WorkerFaultPlan(seed=SEED, slow_rate=0.10, slow_seconds=0.03)
            .script("kill", shard=0, replica=0, after=1)
            .script("kill", shard=2, replica=1, after=2)
            .script("hang", shard=1, replica=0, after=4)
            .script("slow", shard=3, after=0, times=3, seconds=0.3)
            .script("kill", shard=3, replica=0, after=6, generation=None)
        )
        config = EngineConfig(
            deadline=8.0,
            hedge_delay=0.05,
            shard_retries=1,
            result_cache_size=None,
            replicas=2,
        )
        tally = {"complete": 0, "partial": 0, "native": 0, "error": 0}
        outcomes = []
        engine = ShardedEngine.serve(
            sharded,
            config=config,
            fault_plan=plan,
            health_interval=0.1,
            heartbeat_timeout=0.5,
        )
        scripted_kills = sum(
            1 for fault in plan.faults if fault.kind == "kill"
        )
        try:
            for round_number in range(5):
                for query in QUERIES:
                    try:
                        result = engine.execute(query)
                        kind = check_outcome(query, result, answers)
                        failed = list(result.failed_shards)
                    except (
                        ShardUnavailableError, AdmissionRejectedError
                    ) as exc:
                        kind, failed = "error", [type(exc).__name__]
                    tally[kind] += 1
                    outcomes.append(
                        {
                            "round": round_number,
                            "query": query,
                            "outcome": kind,
                            "failed_shards": failed,
                        }
                    )
            respawns = engine.runtime.respawn_count()
            journal = {
                "seed": SEED,
                "shards": SHARDS,
                "tally": tally,
                "outcomes": outcomes,
                "respawns": respawns,
                "supervision_events": engine.runtime.events,
                "engine_stats": engine.stats,
            }
        finally:
            engine.close()
        single.db.close()
        sharded.close()
        write_journal(
            os.environ.get("CHAOS_JOURNAL")
            or str(tmp_path / "chaos-journal.json"),
            journal,
        )
        # Every query was accounted for, most of them correct-complete
        # (hedge + retry + respawn absorb the scripted faults).
        assert sum(tally.values()) == 5 * len(QUERIES)
        assert tally["complete"] >= len(QUERIES)
        # The scripted kills/hangs actually happened and were healed.
        assert respawns >= 2, "scripted faults never triggered respawns"
        assert respawns <= scripted_kills + 20  # sanity: no respawn storm

    def test_corrupt_shard_soak_always_flagged(self, tmp_path):
        """With one shard corrupt on disk and no replicas to dodge to,
        every answer must be flagged partial (missing exactly that
        shard's documents) or a typed error — never silently wrong."""
        single, sharded = build_corpus(tmp_path, docs=4)
        answers = oracle_answers(single, sharded)
        sharded.close()
        reopened = ShardedStore.open(str(tmp_path / "shards"))
        victim = 0
        corrupt_shard_file(
            reopened.shard_path(victim), seed=SEED, bytes_to_flip=512
        )
        config = EngineConfig(
            deadline=8.0,
            shard_retries=1,
            breaker_threshold=3,
            breaker_cooldown=0.2,
            result_cache_size=None,
            replicas=1,
        )
        flagged = 0
        with reopened, ShardedEngine.serve(
            reopened, config=config
        ) as engine:
            for _ in range(3):
                for query in QUERIES:
                    try:
                        result = engine.execute(query)
                    except (
                        ShardUnavailableError, AdmissionRejectedError
                    ):
                        continue
                    kind = check_outcome(query, result, answers)
                    assert kind == "partial"
                    assert result.failed_shards == [victim]
                    flagged += 1
        single.db.close()
        assert flagged > 0


class TestAsyncChaosSoak:
    def test_async_kill_mid_await_never_silently_wrong(self, tmp_path):
        """The asyncio front door under the same seeded fault plan: a
        worker is killed while queries are parked on awaits, some
        awaits are cancelled mid-flight.  Every settled result must be
        complete/native/partial against the oracle (never silently
        wrong), and after the dust settles no futures leak: the
        supervisor's pending table drains to empty."""
        import asyncio

        from repro.serving.frontdoor import AsyncShardedEngine

        single, sharded = build_corpus(tmp_path, docs=4)
        answers = oracle_answers(single, sharded)
        # The 20 concurrent queries coalesce into one batch per worker
        # and tick, so only a worker's *first* request (after=0) is
        # sure to arrive while they are parked.
        plan = (
            WorkerFaultPlan(seed=SEED, slow_rate=0.10, slow_seconds=0.03)
            .script("kill", shard=0, replica=0, after=0)
            .script("kill", shard=1, replica=1, after=2)
        )
        config = EngineConfig(
            deadline=8.0,
            hedge_delay=0.05,
            shard_retries=1,
            result_cache_size=None,
            max_inflight=16,
            admission_timeout=None,
            replicas=2,
        )
        engine = ShardedEngine.serve(
            sharded,
            config=config,
            fault_plan=plan,
            health_interval=0.1,
            heartbeat_timeout=0.5,
        )
        tally = {"complete": 0, "native": 0, "partial": 0, "error": 0}
        try:

            async def soak():
                front = AsyncShardedEngine(engine)
                victim = engine.runtime.worker(0, 0)
                workload = QUERIES * 4
                tasks = [
                    asyncio.ensure_future(front.execute(q))
                    for q in workload
                ]
                # Cancel a deterministic slice mid-await while the
                # scripted kills are landing.
                await asyncio.sleep(0.02)
                cancelled = tasks[:: len(QUERIES)]
                for task in cancelled:
                    task.cancel()
                settled = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                for query, outcome in zip(workload, settled):
                    if isinstance(outcome, asyncio.CancelledError):
                        continue
                    if isinstance(
                        outcome,
                        (ShardUnavailableError, AdmissionRejectedError),
                    ):
                        tally["error"] += 1
                        continue
                    assert not isinstance(outcome, BaseException), outcome
                    tally[check_outcome(query, outcome, answers)] += 1
                # The kill landed while the wave was parked: shard 0's
                # answers above came from the surviving replica.  (A
                # freshly forked victim on a busy host may still be on
                # its way to reading that first request when the
                # hedged wave settles: give it a bounded moment.)
                for _ in range(250):
                    if not victim.process.is_alive():
                        break
                    await asyncio.sleep(0.02)
                assert not victim.process.is_alive()
                # No leaked futures: all in-flight requests (hedges
                # included) were answered or abandoned.
                for _ in range(100):
                    if not engine.runtime._pending:
                        break
                    await asyncio.sleep(0.05)
                assert not engine.runtime._pending
                # The fleet is still serviceable from the same loop.
                fresh = await front.execute(QUERIES[0])
                assert check_outcome(QUERIES[0], fresh, answers) in (
                    "complete",
                    "native",
                    "partial",
                )

            asyncio.run(soak())
            # The supervisor replaces the dead worker on its next health
            # sweep (0.1 s apart); the wave, answered by the hedge after
            # 0.05 s, usually finishes before that.
            patience = time.monotonic() + 5.0
            while (
                not engine.runtime.respawn_count()
                and time.monotonic() < patience
            ):
                time.sleep(0.02)
            respawns = engine.runtime.respawn_count()
        finally:
            engine.close()
        single.db.close()
        sharded.close()
        # Everything not cancelled was accounted for, and a healthy
        # majority came back complete despite the kills.
        accounted = sum(tally.values())
        assert accounted >= 3 * len(QUERIES)
        assert tally["complete"] >= len(QUERIES)
        assert respawns >= 1, "scripted kills never triggered respawns"
