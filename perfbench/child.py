"""The child interpreters of a run: ``setup``, ``cold`` and ``run``.

``run.py`` starts each in a fresh process so that set-up memory never
shows in the serving footprint, so that a cold start really is cold, and
so that one workload's caches cannot warm another's.  Each role prints one
JSON object as its last line.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402


def _checkpoint(db) -> None:
    db.commit()
    db.execute("PRAGMA wal_checkpoint(TRUNCATE)")


# -- setup ---------------------------------------------------------------------


def store_size(path: str) -> int:
    """Bytes of a store file, or of every shard file of a directory."""
    if os.path.isdir(path):
        return sum(
            os.path.getsize(os.path.join(path, name))
            for name in os.listdir(path)
            if name.endswith(".db")
        )
    return os.path.getsize(path)


def setup(args: argparse.Namespace) -> dict:
    """Generate the workload's documents from the seed, hand the program
    their XML, and leave a checkpointed store plus ``inputs.json`` (ops
    and oracle) in ``args.dir``."""
    from repro.schema.inference import infer_schema
    from repro.serving.shards import ShardedStore
    from repro.storage.database import Database
    from repro.storage.schema_aware import ShreddedStore
    from repro.xmltree.parser import parse_document
    from repro.xmltree.serializer import serialize

    from perfbench import inputs, oracle, spec
    from perfbench.calibration import Yardstick

    yardstick = Yardstick()
    busy = [yardstick.busy()]
    #: Seconds spent reading the yardstick, taken out of ``setup_s``.
    paused = 0.0

    def read_yardstick() -> None:
        nonlocal paused
        start = perf_counter()
        busy.append(yardstick.busy())
        paused += perf_counter() - start

    born = perf_counter()
    tier = spec.PAPER_TIER if args.tier == "paper" else spec.WORKLOADS
    workload = next(w for w in tier if w.name == args.workload)
    scale = args.scale if args.scale else workload.scale
    os.makedirs(args.dir, exist_ok=True)
    layers: dict[str, float] = {}
    prepared: dict = {
        "kind": workload.kind,
        "config": dict(workload.config),
    }

    if workload.source == "dblp":
        from repro.workloads.dblp import (
            DBLP_QUERIES, DBLPConfig, generate_dblp,
        )

        generated = [generate_dblp(DBLPConfig(scale=scale, seed=args.seed))]
        queries = [(query.qid, query.xpath) for query in DBLP_QUERIES]
    else:
        count = spec.CHURN_POOL if workload.kind == "ingest" else workload.docs
        generated = inputs.xmark_documents(args.seed, scale, count)
        queries = inputs.xm25()
    texts = [serialize(document) for document in generated]
    xml_bytes = sum(len(text.encode()) for text in texts[:workload.docs])

    start = perf_counter()
    documents = [
        parse_document(text, name=f"doc{index}")
        for index, text in enumerate(texts)
    ]
    layers["xmltree.parser.parse_s"] = perf_counter() - start
    layers["xmltree.parser.mb_per_s"] = (
        sum(len(text.encode()) for text in texts) / 1e6
        / layers["xmltree.parser.parse_s"]
    )
    read_yardstick()
    start = perf_counter()
    schema = infer_schema(documents)
    layers["schema.inference.infer_s"] = perf_counter() - start
    resident = documents[:workload.docs]
    elements = sum(document.element_count() for document in resident)

    if workload.shards:
        path = os.path.join(args.dir, "shards")
        store = ShardedStore.create(path, schema, shards=workload.shards)
        start = perf_counter()
        store.bulk_load(resident)
        layers["storage.schema_aware.bulk_load_s"] = perf_counter() - start
        start = perf_counter()
        store.analyze()
        layers["stats.maintenance.collect_s"] = perf_counter() - start
        start = perf_counter()
        for index in range(workload.shards):
            store.shard_store(index).db.execute("ANALYZE")
        layers["storage.database.analyze_s"] = perf_counter() - start
        for index in range(workload.shards):
            _checkpoint(store.shard_store(index).db)
        bases = [entry.base for entry in store.doc_entries]
        store.close()
    else:
        path = os.path.join(args.dir, "store.db")
        db = Database.open(path)
        single = ShreddedStore.create(db, schema)
        start = perf_counter()
        doc_ids = single.bulk_load(resident)
        layers["storage.schema_aware.bulk_load_s"] = perf_counter() - start
        start = perf_counter()
        single.collect_statistics()
        layers["stats.maintenance.collect_s"] = perf_counter() - start
        start = perf_counter()
        db.execute("ANALYZE")
        layers["storage.database.analyze_s"] = perf_counter() - start
        _checkpoint(db)
        bases = [single.doc_base(doc_id) for doc_id in doc_ids]
        db.close()
    read_yardstick()
    layers["storage.schema_aware.elements_per_s"] = (
        elements / layers["storage.schema_aware.bulk_load_s"]
    )
    prepared["store"] = path

    if workload.kind == "ingest":
        # The statistics-free twin the traced run loads beside the store:
        # plain load() on a store without statistics keeps it that way.
        twin_path = os.path.join(args.dir, "twin.db")
        twin_db = Database.open(twin_path)
        twin = ShreddedStore.create(twin_db, schema)
        prepared["twin_resident"] = [twin.load(doc) for doc in resident]
        _checkpoint(twin_db)
        twin_db.close()
        prepared["twin"] = twin_path
        prepared["resident"] = [
            [doc_id, index] for index, doc_id in enumerate(doc_ids)
        ]
        queries = queries[:spec.CHURN_QUERIES]
        prepared["pool"] = []
        for index, text in enumerate(texts):
            xml_path = os.path.join(args.dir, f"pool{index}.xml")
            with open(xml_path, "w", encoding="utf-8") as handle:
                handle.write(text)
            prepared["pool"].append({
                "xml": xml_path,
                "elements": documents[index].element_count(),
            })
    prepared["queries"] = queries

    setup_s = perf_counter() - born - paused
    busy.append(yardstick.busy())
    oracle_s = 0.0
    if args.oracle:
        # From the generated trees, not the parsed ones: the oracle then
        # shares neither the SQL path nor the parser with the program.
        start = perf_counter()
        if workload.kind == "adhoc":
            prepared["seed"] = args.seed
            prepared["templates"] = [name for name, _ in inputs.TEMPLATES]
            prepared["candidates"] = inputs.adhoc_candidates(generated[0])
            del prepared["queries"]
        elif workload.kind == "ingest":
            for entry, document in zip(prepared["pool"], generated):
                entry["counts"] = oracle.native_counts(document, queries)
        elif args.tier == "paper":
            prepared["oracle"] = _edge_digests(args.dir, resident, queries)
        else:
            prepared["oracle"] = oracle.native_digests(
                generated[:workload.docs], bases, queries
            )
        oracle_s = perf_counter() - start
    with open(os.path.join(args.dir, "inputs.json"), "w") as handle:
        json.dump(prepared, handle)
    return {
        "setup_s": setup_s,
        "busy": sum(busy) / len(busy),
        "oracle_s": oracle_s,
        "xml_bytes": xml_bytes,
        "store_bytes": store_size(path),
        "elements": elements,
        "layers": layers,
    }


def _edge_digests(directory: str, documents, queries) -> dict[str, list]:
    """The paper tier's stand-in oracle: the schema-oblivious Edge engine
    (same translator, other mapping) must agree with PPF."""
    from repro.core.engine import EdgePPFEngine
    from repro.storage.database import Database
    from repro.storage.edge import EdgeStore

    from perfbench.oracle import result_digest

    db = Database.open(os.path.join(directory, "edge.db"))
    try:
        store = EdgeStore.create(db)
        store.bulk_load(documents)
        engine = EdgePPFEngine(store, result_cache_size=None)
        return {
            qid: result_digest(engine.execute(xpath))
            for qid, xpath in queries
        }
    finally:
        db.close()


# -- cold ------------------------------------------------------------------------


def cold(args: argparse.Namespace) -> dict:
    """What every CLI call pays: import, connect, first result.  The
    yardstick is read before and after; the price is that ``sqlite3`` and
    ``re`` are imported before the clock starts."""
    from perfbench.calibration import Yardstick

    yardstick = Yardstick()
    busy = yardstick.busy()
    born = perf_counter()
    import repro  # noqa: F401 - the import is part of what is timed

    from perfbench.loops import DRIVERS, Errors, verdict

    prepared = _prepared(args)
    driver = DRIVERS[prepared["kind"]](prepared)
    try:
        op = next(iter(driver.unit()))
        if driver.is_async:
            outcome = asyncio.run(_await(op.call))
        else:
            outcome = op.call()
        elapsed = perf_counter() - born
        busy = (busy + yardstick.busy()) / 2.0
        ok = verdict(op, outcome, Errors())
    finally:
        driver.close()
    return {"cold_query_ms": elapsed * 1000.0, "busy": busy, "ok": ok}


async def _await(call):
    return await call()


def _prepared(args: argparse.Namespace) -> dict:
    with open(os.path.join(args.dir, "inputs.json")) as handle:
        prepared = json.load(handle)
    if args.store:
        prepared["store"] = args.store
    return prepared


# -- run -------------------------------------------------------------------------


def run(args: argparse.Namespace) -> dict:
    import repro
    from repro.plan.passes import PASSES

    from perfbench import spec
    from perfbench.loops import DRIVERS, fleet_start_up

    if tuple(PASSES) != spec.PASS_NAMES:
        raise SystemExit(
            f"repro.plan.passes.PASSES is {tuple(PASSES)}; perfbench/spec.py "
            f"names {spec.PASS_NAMES} — update the benchmark in its own PR"
        )
    prepared = _prepared(args)
    start_up = {}
    if args.trace and prepared["kind"].startswith("fleet"):
        start_up = fleet_start_up(
            prepared["store"], repro.EngineConfig(**prepared["config"])
        )
    driver = DRIVERS[prepared["kind"]](prepared)
    try:
        result = asyncio.run(_measure(driver, args))
    finally:
        driver.close()
    result.setdefault("layers", {}).update(start_up)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return result


async def _measure(driver, args: argparse.Namespace) -> dict:
    """Warm up one full unit, freeze the heap, then measure.  Runs inside
    an event loop for every kind; only ``fleet_async`` ever yields to it."""
    from perfbench.calibration import QUIET_SLOWDOWN, Yardstick
    from perfbench.loops import (
        Errors, floor_statistics, run_block, run_block_async, run_statistics,
    )
    from perfbench.spans import Tracer

    errors = Errors()
    # The traced run reports raw layer times, so its reference is raw too.
    yardstick = None if args.trace else Yardstick()

    async def block(seconds: float):
        if driver.is_async:
            return await run_block_async(driver, seconds, errors, yardstick)
        return run_block(driver, seconds, errors, yardstick)

    driver.full_check = True
    counted = (await block(0.0)).samples
    driver.full_check = False
    gc.collect()
    gc.freeze()
    if not args.trace:
        # One-second blocks, each with its own yardstick reading.  Blocks
        # taken while the machine was slow are set aside and replaced, for
        # up to half as long again as the run was meant to last: a slow
        # phase does not slow everything by the same factor (waiting for
        # the disk or for a worker does not get slower), so dividing by the
        # reading is the fallback, not the method.  If the machine never
        # calms down, the quieter half of what was taken has to do.
        count = max(1, round(args.seconds))
        length = args.seconds / count
        taken = []
        give_up = perf_counter() + 1.5 * args.seconds
        while (
            sum(b.slowdown <= QUIET_SLOWDOWN for b in taken) < count
            and perf_counter() < give_up
        ):
            taken.append(await block(length))
        counted += [sample for b in taken for sample in b.samples]
        blocks = [b for b in taken if b.slowdown <= QUIET_SLOWDOWN]
        if 2 * len(blocks) < count:
            by_reading = sorted(taken, key=lambda b: b.slowdown)
            blocks = by_reading[:max(len(taken) // 2, 1)]
        result = run_statistics(blocks, driver.is_async)
        result["blocks_set_aside"] = len(taken) - len(blocks)
    else:
        # A third of the time untraced, for the harness's own cost; the
        # rest under spans.
        reference = (await block(args.seconds / 3.0)).samples
        tracer = Tracer()
        driver.start_trace(tracer)
        traced = []
        start = perf_counter()
        while True:
            if driver.is_async:
                traced += await driver.traced_unit_async(errors)
            else:
                traced += driver.traced_unit(errors)
            if perf_counter() - start >= args.seconds * 2.0 / 3.0:
                break
        layers = driver.layer_metrics()
        layers["perfbench.trace_overhead_ratio"] = (
            floor_statistics(traced)["throughput_ops"]
            / floor_statistics(reference)["throughput_ops"]
        )
        tracer.write(args.trace_file)
        result = {"layers": layers, "self_seconds": tracer.self_times()}
        counted += reference + traced
    result["attempted"] = len(counted)
    result["failed"] = sum(1 for sample in counted if not sample.ok)
    result["errors"] = errors.notes
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "cold", "run"))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--tier", default="gated")
    parser.add_argument("--scale", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--oracle", type=int, default=1)
    parser.add_argument("--store", default="")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-file", default="")
    args = parser.parse_args()
    result = {"setup": setup, "cold": cold, "run": run}[args.role](args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
