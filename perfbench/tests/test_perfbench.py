"""A miniature of the whole benchmark, and the properties it must keep."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from perfbench import compare, inputs, spec
from repro.baselines.native import NativeEngine
from repro.xmltree.serializer import serialize

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def script(name: str, *args: object) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, name), *map(str, args)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )


def run_py(tmp, tag: str, *args: object) -> dict:
    out = tmp / f"{tag}.json"
    done = script("run.py", "--seconds", 0.3, "--scale", 1, "--out", out,
                  *args)
    assert done.returncode == 0, done.stderr[-2000:]
    with open(out) as handle:
        report = json.load(handle)
    report["stdout"] = done.stdout
    return report


@pytest.fixture(scope="session")
def miniature(tmp_path_factory) -> dict:
    """Every workload, both modes, a third of a second each at scale 1."""
    return run_py(tmp_path_factory.mktemp("mini"), "mini")


def test_every_metric_for_every_workload(miniature):
    runs = {(run["workload"], run["trace"]): run for run in miniature["runs"]}
    assert set(runs) == {
        (w.name, trace) for w in spec.WORKLOADS for trace in (False, True)
    }
    for (_, trace), run in runs.items():
        table = spec.PER_LAYER if trace else spec.END_TO_END
        assert list(run["metrics"]) == [metric.name for metric in table]
        for metric in table:
            assert run["metrics"][metric.name]["unit"] == metric.unit
            assert isinstance(run["metrics"][metric.name]["value"], float)
        assert run["failed"] == 0, run["errors"]
        assert run["attempted"] >= 1
    for w in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            assert runs[w.name, False]["metrics"][metric.name]["value"] > 0
        ratio = runs[w.name, True]["metrics"]["perfbench.trace_overhead_ratio"]
        assert ratio["value"] > 0
    meta = miniature["meta"]
    for key in ("nproc", "python", "sqlite", "git_commit", "seed",
                "loadavg_start", "loadavg_end"):
        assert key in meta


def test_layers_that_must_read_zero(miniature):
    for run in miniature["runs"]:
        if not run["trace"]:
            continue
        workload = next(w for w in spec.WORKLOADS if w.name == run["workload"])
        config = dict(workload.config)
        if "result_cache_size" in config:  # switched off
            assert run["metrics"]["serving.cache.hit_ratio"]["value"] == 0
            assert run["metrics"]["serving.cache.hit_s"]["value"] == 0
        if run["workload"] == "ingest_churn":
            assert run["metrics"]["serving.cache.hit_ratio"]["value"] == 0.5
        for counter in ("hedges", "retries", "partials", "fallbacks",
                        "rejections", "breaker_short_circuits"):
            assert run["metrics"][f"serving.scatter.{counter}"]["value"] == 0


def test_names_and_units_fit_the_contract():
    names = [w.name for w in spec.WORKLOADS]
    names += [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")
    for metric in spec.END_TO_END:
        assert 0 < metric.bound <= 0.25
    assert max(m.bound for m in spec.END_TO_END) == spec.END_TO_END[0].bound
    assert spec.END_TO_END[0].name == "setup_s"
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert len(spec.END_TO_END) <= 16 and len(spec.PER_LAYER) <= 128
    for w in spec.WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why


def test_benchmark_json_is_the_spec(miniature):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared == spec.benchmark_json(declared["run_seconds"])
    assert 1 <= declared["run_seconds"] <= 60
    printed = {
        (run["workload"], name)
        for run in miniature["runs"] for name in run["metrics"]
    }
    assert printed == {
        (w["name"], m["name"])
        for w in declared["workloads"]
        for m in declared["end_to_end"] + declared["per_layer"]
    }


def test_same_seed_same_inputs():
    def xml(seed):
        return [serialize(d) for d in inputs.xmark_documents(seed, 1.0, 2)]

    def stream(seed):
        candidates = inputs.adhoc_candidates(
            inputs.xmark_documents(5, 1.0, 1)[0]
        )
        ops = inputs.adhoc_stream(seed, candidates)
        return [next(ops)[:2] for _ in range(64)]

    assert xml(11) == xml(11) and xml(11) != xml(12)
    assert stream(11) == stream(11) and stream(11) != stream(12)
    xpaths = [xpath for _, xpath in stream(11)]
    assert len(set(xpaths)) == len(xpaths)


def test_adhoc_oracle_is_the_native_answer():
    document = inputs.xmark_documents(9, 1.0, 1)[0]
    native = NativeEngine(document)
    ops = inputs.adhoc_stream(9, inputs.adhoc_candidates(document))
    nonempty = 0
    for _ in range(20 * len(inputs.TEMPLATES)):
        _, xpath, expected = next(ops)
        rows = inputs.native_rows(native, xpath)
        assert [(row[0], row[1]) for row in rows] == expected, xpath
        nonempty += bool(expected)
    assert nonempty > 20


def test_driver_form_and_exact_counts(miniature, tmp_path):
    """One workload in one mode ends with the contract's result line, and
    a count made by the program repeats exactly from run to run."""
    again = run_py(tmp_path, "again", "--workload", "xmark_hot",
                   "--seed", 42, "--trace", 1)
    last = json.loads(again["stdout"].strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert list(last["metrics"]) == [m.name for m in spec.PER_LAYER]
    first = next(
        run for run in miniature["runs"]
        if run["workload"] == "xmark_hot" and run["trace"]
    )
    name = "storage.database.regexp_calls"
    assert first["metrics"][name]["value"] > 0
    assert last["metrics"][name] == first["metrics"][name]


def test_trace_files_are_well_formed(miniature):
    for run in miniature["runs"]:
        if not run["trace"]:
            continue
        with open(os.path.join(ROOT, run["trace_file"])) as handle:
            spans = [json.loads(line) for line in handle]
        assert spans and [span["id"] for span in spans] == list(
            range(len(spans))
        )
        roots = [span for span in spans if span["parent"] is None]
        assert len({span["op"] for span in roots}) == len(roots)
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["op"] == span["op"]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]


def test_attribution(miniature):
    """Directly timed layer calls plus the named residuals account for an
    operation; the directly timed share alone is reported too."""
    for run in miniature["runs"]:
        if run["trace"]:
            share = run["metrics"]["perfbench.attributed_ratio"]["value"]
            assert 0.3 < share <= 1.05, (run["workload"], share)


def child(role: str, *args: object) -> dict:
    done = script("child.py", role, *args)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_corrupt_digest_fails_ops_and_the_gate(tmp_path, miniature):
    child("setup", "--dir", tmp_path, "--workload", "xmark_hot",
          "--scale", 1)
    path = tmp_path / "inputs.json"
    prepared = json.loads(path.read_text())
    prepared["oracle"]["Q3"][1] = "0" * 24
    path.write_text(json.dumps(prepared))
    result = child("run", "--dir", tmp_path, "--seconds", 0.3)
    failed = result["failed"]
    assert failed >= 2  # the warm-up's Q3 and at least one timed Q3
    assert any("Q3" in note for note in result["errors"])

    good = next(
        run for run in miniature["runs"]
        if run["workload"] == "xmark_hot" and not run["trace"]
    )
    bad = dict(good, failed_ratio=failed / 100.0)
    old = {"meta": miniature["meta"], "runs": [good]}
    new = {"meta": miniature["meta"], "runs": [bad]}
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    gate = script("compare.py", tmp_path / "old.json", tmp_path / "new.json")
    assert gate.returncode == 1 and "worse" in gate.stdout
    same = script("compare.py", tmp_path / "old.json", tmp_path / "old.json")
    assert same.returncode == 0, same.stdout


def test_compare_verdicts(miniature):
    good = next(run for run in miniature["runs"] if not run["trace"])
    quiet = dict(good, noise={})
    slower = json.loads(json.dumps(quiet))
    slower["metrics"]["throughput_ops"]["value"] *= 0.7
    noisy = dict(slower, noise={"throughput_ops": 0.5})

    def verdict(new):
        rows = compare.compare({"runs": [quiet]}, {"runs": [new]})
        return {row["metric"]: row["verdict"] for row in rows}

    assert set(verdict(quiet).values()) == {"ok"}
    assert verdict(slower)["throughput_ops"] == "worse"
    assert verdict(noisy)["throughput_ops"] == "unresolved"


def test_paper_tier_runs_small(tmp_path):
    """The opt-in tier's path (DBLP twin, Edge agreement instead of the
    native oracle) at a size a test can afford."""
    meta = child("setup", "--dir", tmp_path, "--tier", "paper",
                 "--workload", "dblp_large", "--scale", 2)
    assert meta["elements"] > 100
    result = child("run", "--dir", tmp_path, "--seconds", 0.3)
    assert result["attempted"] >= 10 and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the
    command must fail without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xmark_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0 and "correct" not in done.stdout
