"""The measuring loops of the run child: one driver per workload kind.

A driver connects to a store the set-up child prepared, and offers

* ``unit()`` — the operations of one pass (one XM25 pass, one round of the
  8 ad-hoc templates, one ingest cycle), each an :class:`Op` whose ``call``
  is the timed program call and whose ``check`` verifies the result against
  the oracle after the clock has stopped;
* ``traced_unit(errors)`` — the same operations under spans, followed by
  the probes of ``layers.py``;
* ``layer_metrics()`` — the per-layer numbers of a traced run.

Closed loop, one client: the next operation starts when the previous one
has been checked.  ``fleet_async`` keeps ``ASYNC_IN_FLIGHT`` operations in
flight from one event loop instead.
"""

from __future__ import annotations

import asyncio
import math
from collections import defaultdict, deque
from functools import partial
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

import repro
from repro.core.adapters import SchemaAwareAdapter
from repro.core.translator import PPFTranslator
from repro.resilience.policy import ResiliencePolicy
from repro.serving.shards import ShardedStore
from repro.serving.supervisor import ShardRuntime
from repro.storage.database import Database
from repro.storage.schema_aware import ShreddedStore
from repro.xmltree.parser import parse_document

from perfbench import spec
from perfbench.inputs import PAPER_QIDS, adhoc_stream
from perfbench.layers import (
    DatabaseProbe,
    TranslatorProbe,
    qerrors,
    regexp_calls,
)
from perfbench.oracle import digest, in_document_order, result_digest
from perfbench.spans import Tracer, lower_decile, percentile


class Op(NamedTuple):
    key: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    #: The input text of the call: the XPath string of a query (what the
    #: probes re-run), the XML of a load.
    text: str = ""


class Sample(NamedTuple):
    key: str
    seconds: float
    ok: bool


# -- statistics ----------------------------------------------------------------
#
# The sandbox this runs in is noisy in two ways the guest cannot see (no
# steal time is reported).  Time slices go missing, which adds milliseconds
# to whichever operation is running: per-second medians of one query wander
# by +-50 % while its lower decile stays within +-3 %.  And for minutes at a
# time everything runs 20 to 50 % slower, lower deciles included.  Both only
# ever add time.  So every timing metric is built from each operation's
# *floor* — the lower decile of its latency — which the first kind of noise
# leaves alone, and every sample is first divided by the slow-down the
# yardstick (``calibration.py``) measured during its one-second block,
# which takes out the second.  Means, medians and whole-stream percentiles
# of the same samples spread 4 to 20 times wider between runs.


def floors(samples: list[Sample]) -> dict[str, float]:
    """Per operation key: the lower decile of its latency, in seconds."""
    by_key: dict[str, list[float]] = defaultdict(list)
    for sample in samples:
        by_key[sample.key].append(sample.seconds)
    return {key: lower_decile(values) for key, values in by_key.items()}


def floor_statistics(samples: list[Sample]) -> dict[str, float]:
    """The three loop metrics of a set of samples.

    With every operation at its floor, one caller that waits for each
    reply completes ``1 / mean latency`` operations a second; operations
    that failed take their time and count for nothing.  The 95th
    percentile is over the operations as they were issued, each at its
    key's floor: it lands on the heavy operations of the mix (the
    big-result queries, the writes) and says nothing about hiccups inside
    one key, which this machine's noise would drown anyway."""
    floor = floors(samples)
    at_floor = sorted(floor[sample.key] for sample in samples)
    correct = sum(1 for sample in samples if sample.ok)
    log_mean = sum(math.log(value) for value in floor.values()) / len(floor)
    return {
        "throughput_ops": correct / sum(at_floor),
        "latency_ms_gmean": math.exp(log_mean) * 1000.0,
        "latency_ms_p95": percentile(at_floor, 0.95) * 1000.0,
    }


class Block(NamedTuple):
    #: Samples and seconds are already divided by ``slowdown``, the
    #: yardstick's reading for this block.
    samples: list[Sample]
    seconds: float
    slowdown: float


def make_block(samples: list[Sample], seconds: float, yardstick) -> Block:
    slowdown = yardstick.take() if yardstick is not None else 1.0
    return Block(
        [s._replace(seconds=s.seconds / slowdown) for s in samples],
        seconds / slowdown,
        slowdown,
    )


def run_statistics(blocks: list[Block], overlapped: bool) -> dict:
    """The run's three loop metrics, the per-block record, and how far the
    run disagrees with itself: the same statistics from the even and from
    the odd blocks, as a share of the whole-run value.

    Where operations overlap (``fleet_async``) latencies include waiting
    for each other, so throughput cannot be had from them: it is the
    best block's correct operations per second of wall time instead."""

    def estimate(chosen: list[Block]) -> dict[str, float]:
        statistics = floor_statistics(
            [sample for block in chosen for sample in block.samples]
        )
        if overlapped:
            statistics["throughput_ops"] = max(
                sum(1 for s in block.samples if s.ok) / block.seconds
                for block in chosen
            )
        return statistics

    whole = estimate(blocks)
    noise = dict.fromkeys(whole, 0.0)
    if len(blocks) > 1:
        even, odd = estimate(blocks[0::2]), estimate(blocks[1::2])
        noise = {
            name: abs(even[name] - odd[name]) / whole[name] for name in whole
        }
    pooled = [sample for block in blocks for sample in block.samples]
    return {
        "metrics": whole,
        "noise": noise,
        "blocks": [
            {
                "ops": len(block.samples),
                "failed": sum(1 for s in block.samples if not s.ok),
                "seconds": block.seconds,
                "slowdown": block.slowdown,
            }
            for block in blocks
        ],
        "floor_ms_by_key": {
            key: value * 1000.0 for key, value in floors(pooled).items()
        },
    }


class Errors:
    """Failed operations are counted in the samples; this keeps the first
    few reasons for the report."""

    def __init__(self) -> None:
        self.notes: list[str] = []

    def note(self, key: str, reason: object) -> None:
        if len(self.notes) < 5:
            self.notes.append(f"{key}: {reason!r}"[:300])


def attempt(op: Op, errors: Errors):
    """The operation's result, or the exception it raised."""
    try:
        return op.call()
    except Exception as exc:  # a failed operation is a measurement
        errors.note(op.key, exc)
        return exc


def verdict(op: Op, outcome, errors: Errors) -> bool:
    if isinstance(outcome, Exception):
        return False
    try:
        ok = bool(op.check(outcome))
    except Exception as exc:
        errors.note(op.key, exc)
        return False
    if not ok:
        errors.note(op.key, "result disagrees with the oracle")
    return ok


def run_block(
    driver, seconds: float, errors: Errors, yardstick=None
) -> Block:
    """Whole units until ``seconds`` have passed (at least one); between
    operations the yardstick is read every now and then."""
    samples: list[Sample] = []
    start = perf_counter()
    while True:
        for op in driver.unit():
            began = perf_counter()
            outcome = attempt(op, errors)
            elapsed = perf_counter() - began
            samples.append(Sample(op.key, elapsed, verdict(op, outcome, errors)))
            if yardstick is not None:
                yardstick.tick()
        if perf_counter() - start >= seconds:
            break
    return make_block(samples, sum(s.seconds for s in samples), yardstick)


async def run_block_async(
    driver, seconds: float, errors: Errors, yardstick=None
) -> Block:
    """``ASYNC_IN_FLIGHT`` clients share one stream of whole units;
    latency runs from submission to result.  A result is checked as soon
    as its latency is taken: that costs the event loop a little time
    other operations could have had, but holding a block's results until
    it has drained would double the footprint ``peak_rss_mb`` reports."""
    samples: list[Sample] = []
    start = perf_counter()

    def stream() -> Iterator[Op]:
        while True:
            yield from driver.unit()
            if perf_counter() - start >= seconds:
                break

    ops = stream()

    async def client() -> None:
        for op in ops:
            began = perf_counter()
            try:
                outcome = await op.call()
            except Exception as exc:
                errors.note(op.key, exc)
                outcome = exc
            elapsed = perf_counter() - began
            samples.append(Sample(op.key, elapsed, verdict(op, outcome, errors)))
            if yardstick is not None:
                yardstick.tick()

    await asyncio.gather(*(client() for _ in range(spec.ASYNC_IN_FLIGHT)))
    return make_block(samples, perf_counter() - start, yardstick)


# -- drivers ---------------------------------------------------------------------


class ReadDriver:
    """XM25 round-robin on a single store (``xmark_hot``, ``xmark_large``)."""

    layer_span = "core.engine.execute"
    is_async = False

    def __init__(self, prepared: dict):
        self.prepared = prepared
        #: Warm-up checks document order and duplicates on top of the
        #: digest; the timed loop checks completeness, count and digest.
        self.full_check = False
        self.engine = repro.connect(
            prepared["store"], config=repro.EngineConfig(**prepared["config"])
        )
        self.queries: list[tuple[str, str]] = [
            tuple(query) for query in prepared.get("queries", ())
        ]
        self.ops = [self._query_op(qid, xpath) for qid, xpath in self.queries]

    def _query_op(self, qid: str, xpath: str) -> Op:
        return Op(
            qid,
            partial(self.engine.execute, xpath),
            self._digest_checker(self.prepared["oracle"][qid]),
            xpath,
        )

    def _checker(
        self, matches: Callable[[object], bool]
    ) -> Callable[[object], bool]:
        """``matches`` plus what every result owes: completeness, and in
        the warm-up document order without duplicates."""
        return lambda result: (
            result.complete
            and matches(result)
            and (not self.full_check or in_document_order(result))
        )

    def _digest_checker(self, expected: list) -> Callable[[object], bool]:
        return self._checker(lambda result: result_digest(result) == expected)

    def close(self) -> None:
        self.engine.close()

    def unit(self) -> Iterator[Op]:
        return iter(self.ops)

    # -- traced ------------------------------------------------------------------

    def start_trace(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.translator_probe = TranslatorProbe(self._translator(), tracer)
        self.database_probe = DatabaseProbe(self.engine.store.db, tracer)
        self.estimates: dict[str, float | None] = {}
        self.actual: dict[str, int] = {}
        #: Translation-cache lookups made by the harness, not by an op.
        self.own_lookups = 0
        self.cache_before = self.engine.cache_info()
        self.results_before = self.engine.result_cache_info()

    def _translator(self) -> PPFTranslator:
        return self.engine.translator

    def traced_unit(self, errors: Errors) -> list[Sample]:
        """One unit under spans; the samples of the real operations."""
        return [self._traced_op(op, errors) for op in self.unit()]

    def _traced_op(self, op: Op, errors: Errors) -> Sample:
        tracer, key = self.tracer, op.key
        with tracer.op("op", key):
            with tracer.span(self.layer_span, key) as span:
                outcome = attempt(op, errors)
            ok = verdict(op, outcome, errors)
            with tracer.span("probe", key):
                self._probe_query(op.text, key)
        if ok:
            self.actual[key] = len(outcome)
        return Sample(key, span.seconds, ok)

    def _probe_query(self, xpath: str, key: str) -> None:
        with self.tracer.span("core.engine.translate_hot", key):
            translation = self.engine.translate(xpath)
        self.own_lookups += 1
        self.estimates[key] = translation.estimated_rows
        self.translator_probe.run(xpath, key)
        self.database_probe.run(translation.sql, key)

    def _cache_ratios(self) -> tuple[float, float]:
        """(translation-cache, result-cache) hit ratios of the operations
        alone: the harness's own lookups, all hits, are taken out."""
        before, after = self.cache_before, self.engine.cache_info()
        hits = after.hits - before.hits - self.own_lookups
        lookups = hits + after.misses - before.misses
        r_before, r_after = self.results_before, self.engine.result_cache_info()
        r_hits = r_after.hits - r_before.hits
        r_lookups = r_hits + r_after.misses - r_before.misses
        return (
            hits / lookups if lookups else 0.0,
            r_hits / r_lookups if r_lookups else 0.0,
        )

    def layer_metrics(self) -> dict[str, float]:
        tracer = self.tracer
        out = self.translator_probe.metrics()
        out.update(self.database_probe.metrics())
        hot = tracer.per_op("core.engine.translate_hot")
        hit_ratio, result_hit_ratio = self._cache_ratios()
        translated = (
            hit_ratio * hot
            + (1.0 - hit_ratio) * out["core.engine.translate_cold_s"]
        )
        execute = tracer.per_op(self.layer_span)
        overhead = execute - out["storage.database.query_s"] - translated
        gmean, worst = qerrors(self.estimates, self.actual)
        floor = tracer.floors(self.layer_span)
        out.update({
            "core.engine.translate_hot_s": hot,
            "core.engine.translation_cache_hit_ratio": hit_ratio,
            "core.engine.overhead_s": overhead,
            "core.engine.overhead_us_per_row":
                overhead * 1e6 / max(out["storage.database.rows"], 1.0),
            "core.engine.xpathmark17_sum_ms": (
                sum(floor[qid] for qid in PAPER_QIDS) * 1000.0
                if all(qid in floor for qid in PAPER_QIDS) else 0.0
            ),
            "plan.cost.qerror_gmean": gmean,
            "plan.cost.qerror_max": worst,
            "serving.cache.hit_ratio": result_hit_ratio,
            "perfbench.attributed_ratio":
                (out["storage.database.query_s"] + translated) / execute,
        })
        return out


class AdhocDriver(ReadDriver):
    """A never-repeating stream from 8 templates (``adhoc_cold``)."""

    def __init__(self, prepared: dict):
        super().__init__(prepared)
        self.stream = adhoc_stream(prepared["seed"], prepared["candidates"])

    def unit(self) -> Iterator[Op]:
        for _ in range(len(self.prepared["templates"])):
            template, xpath, rows = next(self.stream)
            expected = digest(
                [row[0] for row in rows], [row[1] for row in rows]
            )
            yield Op(
                template,
                partial(self.engine.execute, xpath),
                self._digest_checker(expected),
                xpath,
            )


class IngestDriver(ReadDriver):
    """Writes beside reads on one store (``ingest_churn``)."""

    def __init__(self, prepared: dict):
        super().__init__(prepared)
        self.store: ShreddedStore = self.engine.store
        self.pool = []
        for entry in prepared["pool"]:
            with open(entry["xml"], "r", encoding="utf-8") as handle:
                self.pool.append(
                    (handle.read(), entry["counts"], entry["elements"])
                )
        #: (doc id, pool index), oldest first.
        self.resident = deque(tuple(pair) for pair in prepared["resident"])
        self.next_index = len(self.resident)
        self.twin: ShreddedStore | None = None

    def _query_op(self, qid: str, xpath: str) -> Op:
        return Op(qid, partial(self.engine.execute, xpath), bool, xpath)

    def close(self) -> None:
        if self.twin is not None:
            self.twin.db.close()
        self.engine.close()

    def unit(self) -> Iterator[Op]:
        index = self.next_index % len(self.pool)
        self.next_index += 1
        xml, _, _ = self.pool[index]

        def loaded(doc_id: int) -> bool:
            self.resident.append((doc_id, index))
            return True

        yield Op(
            "load", lambda: self.store.load(parse_document(xml)), loaded, xml
        )
        # A stale read (old generation served from a cache) returns the
        # count of another resident set and fails here.
        counts = [
            sum(self.pool[member][1][q] for _, member in self.resident)
            for q in range(len(self.ops))
        ]
        checks = [
            self._checker(lambda result, count=count: len(result) == count)
            for count in counts
        ]
        for op, check in zip(self.ops, checks):
            yield op._replace(key="miss." + op.key, check=check)
        for op, check in zip(self.ops, checks):
            yield op._replace(key="hit", check=check)
        doc_id, oldest = self.resident[0]

        def deleted(removed: int) -> bool:
            self.resident.popleft()
            return removed == self.pool[oldest][2]

        yield Op("delete", partial(self.store.delete_document, doc_id), deleted)

    # -- traced ------------------------------------------------------------------

    def start_trace(self, tracer: Tracer) -> None:
        super().start_trace(tracer)
        self.twin = ShreddedStore.open(Database.open(self.prepared["twin"]))
        self.twin_resident = deque(self.prepared["twin_resident"])

    def _traced_op(self, op: Op, errors: Errors) -> Sample:
        tracer, key = self.tracer, op.key
        if key == "load":
            # The op's two calls, each under its own span.
            with tracer.op("op", key) as root:
                with tracer.span("xmltree.parser.parse", key):
                    document = parse_document(op.text)
                with tracer.span("storage.schema_aware.load", key):
                    doc_id = self.store.load(document)
            with tracer.op("probe.load", key):
                with tracer.span("storage.schema_aware.load_twin", key):
                    self.twin_resident.append(self.twin.load(document))
            return Sample(key, root.seconds, op.check(doc_id))
        if key == "delete":
            with tracer.op("op", key):
                with tracer.span("storage.schema_aware.delete", key) as span:
                    outcome = attempt(op, errors)
                self.twin.delete_document(self.twin_resident.popleft())
            return Sample(key, span.seconds, verdict(op, outcome, errors))
        if key == "hit":
            with tracer.op("op", key):
                with tracer.span("serving.cache.hit", key) as span:
                    outcome = attempt(op, errors)
            return Sample(key, span.seconds, verdict(op, outcome, errors))
        # A miss: the translation the mutation invalidated is redone under
        # its own span, so the execute after it finds it cached.
        with tracer.op("op", key):
            with tracer.span("core.engine.retranslate", key) as translated:
                self.engine.translate(op.text)
            with tracer.span(self.layer_span, key) as executed:
                outcome = attempt(op, errors)
            ok = verdict(op, outcome, errors)
            with tracer.span("probe", key):
                self._probe_query(op.text, key)
        if ok:
            self.actual[key] = len(outcome)
        return Sample(key, translated.seconds + executed.seconds, ok)

    def layer_metrics(self) -> dict[str, float]:
        tracer = self.tracer
        out = super().layer_metrics()
        load = tracer.per_op("storage.schema_aware.load")
        hit = tracer.per_op("serving.cache.hit")
        parse = tracer.per_op("xmltree.parser.parse")
        delete = tracer.per_op("storage.schema_aware.delete")
        retranslate = sum(tracer.floors("core.engine.retranslate").values())
        execute = tracer.per_op(self.layer_span)
        queries = len(self.ops)
        overhead = (
            execute
            - out["storage.database.query_s"]
            - out["core.engine.translate_hot_s"]
        )
        # One cycle: load, `queries` misses, as many hits, delete.
        fixed = parse + load + delete + queries * hit + retranslate
        cycle = fixed + queries * execute
        out.update({
            "storage.schema_aware.load_s": load,
            "storage.schema_aware.delete_s": delete,
            "stats.maintenance.load_delta_s":
                load - tracer.per_op("storage.schema_aware.load_twin"),
            "core.engine.retranslate_s": retranslate / queries,
            "serving.cache.hit_s": hit,
            "core.engine.overhead_s": overhead,
            "core.engine.overhead_us_per_row":
                overhead * 1e6 / max(out["storage.database.rows"], 1.0),
            "perfbench.attributed_ratio":
                (cycle - queries * overhead) / cycle,
        })
        return out


class FleetDriver(ReadDriver):
    """XM25 over the 2-shard worker fleet (``fleet_sync``/``fleet_async``)."""

    layer_span = "serving.scatter.execute"

    def __init__(self, prepared: dict):
        self.is_async = prepared["kind"] == "fleet_async"
        super().__init__(prepared)
        self.local: list[Database] = []

    def _query_op(self, qid: str, xpath: str) -> Op:
        op = super()._query_op(qid, xpath)
        if self.is_async:
            return op._replace(call=partial(self.engine.execute_async, xpath))
        return op

    def close(self) -> None:
        for db in self.local:
            db.close()
        self.engine.close()

    def _translator(self) -> PPFTranslator:
        # What ShardedEngine builds for itself (it keeps its own private).
        return PPFTranslator(SchemaAwareAdapter(self.engine.store))

    def start_trace(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.translator_probe = TranslatorProbe(self._translator(), tracer)
        self.estimates, self.actual = {}, {}
        policy = ResiliencePolicy(query_timeout=self.engine.config.deadline)
        self.local = [
            Database.open(path, policy=policy, read_only=True)
            for path in self.engine.store.shard_paths
        ]
        #: Per shard: (rows, REGEXP calls) of one in-process pass.
        self.shard_counts = [(0, 0)] * len(self.local)
        self.stats_before = dict(self.engine.stats)

    def traced_unit(self, errors: Errors) -> list[Sample]:
        tracer = self.tracer
        samples = []
        for op in self.unit():
            with tracer.op("op", op.key):
                with tracer.span(self.layer_span, op.key) as span:
                    outcome = attempt(op, errors)
                ok = verdict(op, outcome, errors)
            if ok:
                self.actual[op.key] = len(outcome)
            samples.append(Sample(op.key, span.seconds, ok))
        with tracer.op("probe.pass", "pass"):
            self._probe_pass()
        return samples

    async def traced_unit_async(self, errors: Errors) -> list[Sample]:
        """One pass with the usual number in flight (root spans timed by
        hand: concurrent operations cannot nest on one stack), then the
        probe pass."""
        tracer = self.tracer
        ops = self.unit()
        samples: list[Sample] = []

        async def client() -> None:
            for op in ops:
                began = perf_counter()
                try:
                    outcome = await op.call()
                except Exception as exc:
                    errors.note(op.key, exc)
                    outcome = exc
                ended = perf_counter()
                tracer.add_op(self.layer_span, op.key, began, ended)
                ok = verdict(op, outcome, errors)
                if ok:
                    self.actual[op.key] = len(outcome)
                samples.append(Sample(op.key, ended - began, ok))

        await asyncio.gather(*(client() for _ in range(spec.ASYNC_IN_FLIGHT)))
        with tracer.op("probe.pass", "pass"):
            self._probe_pass()
            with tracer.span("serving.frontdoor.gather", "pass"):
                await asyncio.gather(*(
                    self.engine.execute_async(xpath)
                    for _, xpath in self.queries
                ))
        return samples

    def _probe_pass(self) -> None:
        tracer, engine = self.tracer, self.engine
        runtime: ShardRuntime = engine.runtime
        sqls = []
        for qid, xpath in self.queries:
            with tracer.span("core.engine.translate_hot", qid):
                translation = engine.translate(xpath)
            self.estimates[qid] = translation.estimated_rows
            self.translator_probe.run(xpath, qid)
            if not translation.is_empty:
                sqls.append(translation.sql)
        for shard, db in enumerate(self.local):
            with tracer.span("serving.supervisor.ping", shard):
                runtime.ping(shard, 0)
            with tracer.span("serving.supervisor.batch_rtt", shard):
                request = runtime.submit_batch(
                    shard, sqls, timeout=engine.config.deadline
                )
                response = runtime.wait(request, 30.0)
            if not (response and response.get("ok")):
                raise RuntimeError(f"probe batch to shard {shard} failed")
            calls, rows = regexp_calls(), 0
            with tracer.span("serving.supervisor.shard_exec", shard):
                for sql in sqls:
                    rows += len(db.guarded_query(sql))
            self.shard_counts[shard] = (rows, regexp_calls() - calls)
        with tracer.span("serving.scatter.batch", "pass"):
            engine.execute_many([xpath for _, xpath in self.queries])

    def layer_metrics(self) -> dict[str, float]:
        tracer, engine = self.tracer, self.engine
        out = self.translator_probe.metrics()
        ops = len(self.queries)
        batch_rtt = tracer.floors("serving.supervisor.batch_rtt")
        # The result waits for the slower shard: report that one.
        slowest = max(batch_rtt, key=batch_rtt.get)
        shard_exec = tracer.floors("serving.supervisor.shard_exec")[slowest]
        translate = sum(tracer.floors("core.engine.translate_hot").values())
        batch = tracer.per_op("serving.scatter.batch")
        gather = tracer.per_op("serving.frontdoor.gather")
        rows = sum(rows for rows, _ in self.shard_counts) / ops
        calls = sum(calls for _, calls in self.shard_counts) / ops
        gmean, worst = qerrors(self.estimates, self.actual)
        out.update({
            "core.engine.translate_hot_s": translate / ops,
            "core.engine.translation_cache_hit_ratio": 1.0,
            "plan.cost.qerror_gmean": gmean,
            "plan.cost.qerror_max": worst,
            "storage.database.query_s": shard_exec / ops,
            "storage.database.rows": rows,
            "storage.database.regexp_calls": calls,
            "storage.database.regexp_calls_per_row": calls / max(rows, 1.0),
            "serving.supervisor.ping_rtt_s":
                tracer.per_op("serving.supervisor.ping"),
            "serving.supervisor.batch_rtt_s": batch_rtt[slowest],
            "serving.supervisor.shard_exec_s": shard_exec,
            "serving.supervisor.ipc_overhead_s":
                batch_rtt[slowest] - shard_exec,
            "serving.supervisor.respawns":
                float(engine.runtime.respawn_count()),
            "serving.supervisor.worker_rss_mb": max(
                _rss_mb(engine.runtime.worker(shard, 0).process.pid)
                for shard in range(len(self.local))
            ),
            "serving.scatter.execute_s": tracer.per_op(self.layer_span),
            "serving.scatter.batch_s": batch,
            "serving.scatter.merge_s":
                batch - batch_rtt[slowest] - translate,
            "serving.frontdoor.gather_s": gather,
            "serving.frontdoor.overhead_s": gather - batch if gather else 0.0,
            "perfbench.attributed_ratio":
                (batch_rtt[slowest] + translate) / batch,
        })
        for counter in ("hedges", "retries", "partials", "fallbacks",
                        "rejections", "breaker_short_circuits"):
            out[f"serving.scatter.{counter}"] = float(
                engine.stats[counter] - self.stats_before[counter]
            )
        return out


def _rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def fleet_start_up(directory: str, config: repro.EngineConfig) -> dict:
    """``ShardedStore.open`` and ``ShardRuntime.start`` timed on their
    own, which ``connect()`` does in one call."""
    start = perf_counter()
    store = ShardedStore.open(directory)
    opened = perf_counter()
    runtime = ShardRuntime(
        store.shard_paths, replicas=config.replicas, policy=config.policy()
    )
    try:
        spawn = perf_counter()
        runtime.start()
        for shard in range(runtime.shard_count):
            for replica in range(config.replicas):
                if not runtime.ping(shard, replica, timeout=30.0):
                    raise RuntimeError("a worker did not answer its ping")
        ready = perf_counter()
    finally:
        runtime.close()
        store.close()
    return {
        "serving.shards.open_s": opened - start,
        "serving.supervisor.spawn_s": ready - spawn,
    }


DRIVERS = {
    "read": ReadDriver,
    "adhoc": AdhocDriver,
    "ingest": IngestDriver,
    "fleet_sync": FleetDriver,
    "fleet_async": FleetDriver,
}
