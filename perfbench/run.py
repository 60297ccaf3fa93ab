"""The one command: ``python3 perfbench/run.py``.

With no arguments it runs every workload twice — untraced for the
end-to-end metrics, traced for the per-layer ones — prints both tables and
writes ``perfbench/out/report.json``.  The driver's form,

    run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in one mode and prints, as the last line, the JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Each workload is measured in fresh child interpreters (``child.py``): set-up
children build the store from seeded XML, cold children time a first query,
one run child connects to the prepared store and measures.  Scratch stores
live in a directory under ``perfbench/out/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import subprocess
import sys
import tempfile
from statistics import mean, median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT]

from perfbench import spec  # noqa: E402

OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

#: No child may outlive this many seconds.
CHILD_TIMEOUT = 170.0


class ChildFailed(RuntimeError):
    pass


def child(role: str, *args: object) -> dict:
    """Run one child to completion; the JSON object on its last line."""
    command = [sys.executable, CHILD, role, *(str(arg) for arg in args)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        cwd=ROOT,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildFailed(
            f"{role} child exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def measure(
    workload: spec.Workload, args: argparse.Namespace, trace: bool,
    scratch: str,
) -> dict:
    """One workload in one mode; the result ``report.json`` keeps."""
    common = ["--workload", workload.name, "--seed", args.seed,
              "--tier", args.tier, "--scale", args.scale]
    store_dir = os.path.join(scratch, "store")
    meta = child("setup", "--dir", store_dir, *common)
    setups = [meta["setup_s"]]
    #: How busy the machine was around each set-up and cold start: the
    #: yardstick's mean, as the children read it (calibration.py).
    busy = {"setup": [meta["busy"]], "cold": []}
    colds: list[float] = []
    if not trace:
        # Set-up forks, writes and fsyncs, so it is the median of a few,
        # each in its own interpreter and directory.  The cold starts sit
        # between them so that one burst of noise cannot cover them all.
        cold = 0
        for index in range(spec.SETUPS):
            if index:
                again = os.path.join(scratch, f"setup{index}")
                extra = child("setup", "--dir", again, "--oracle", 0, *common)
                setups.append(extra["setup_s"])
                busy["setup"].append(extra["busy"])
                shutil.rmtree(again)
            share = -(-spec.COLD_STARTS * (index + 1) // spec.SETUPS)
            while cold < share:
                answer = cold_start(workload, store_dir, scratch, cold)
                colds.append(answer["cold_query_ms"])
                busy["cold"].append(answer["busy"])
                cold += 1
    trace_file = os.path.join(OUT, f"trace-{workload.name}.jsonl")
    run = child(
        "run", "--dir", store_dir, "--seconds", args.seconds,
        "--trace", int(trace), "--trace-file", trace_file,
    )
    result = {
        "workload": workload.name,
        "trace": trace,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_ratio": run["failed"] / run["attempted"],
        "errors": run["errors"],
        "oracle_s": meta["oracle_s"],
        "elements": meta["elements"],
        "xml_bytes": meta["xml_bytes"],
        "store_bytes": meta["store_bytes"],
    }
    if trace:
        layers = {**meta["layers"], **run["layers"]}
        # A layer the workload never enters costs it nothing: 0.
        result["metrics"] = {
            layer.name: {
                "value": float(layers.get(layer.name, 0.0)),
                "unit": layer.unit,
            }
            for layer in spec.PER_LAYER
        }
        result["self_seconds"] = run["self_seconds"]
        result["trace_file"] = os.path.relpath(trace_file, ROOT)
        return result
    values = {
        **run["metrics"],
        "setup_s": median(setups) / mean(busy["setup"]),
        "cold_query_ms": median(colds) / mean(busy["cold"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "store_bytes_per_xml_byte": meta["store_bytes"] / meta["xml_bytes"],
    }
    result["metrics"] = {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in spec.END_TO_END
    }
    #: How far the run disagrees with itself, as a share of each value:
    #: even against odd blocks for the loop's metrics, the inter-quartile
    #: range for set-ups and cold starts.  compare.py calls a metric
    #: unresolved when this is wider than its bound.
    result["noise"] = {
        **run["noise"],
        "setup_s": spread(setups),
        "cold_query_ms": spread(colds),
    }
    #: Everything needed to recompute the values above.
    result["raw"] = {
        "setup_s": setups,
        "cold_query_ms": colds,
        "busy": busy,
        "blocks": run["blocks"],
        "blocks_set_aside": run["blocks_set_aside"],
        "floor_ms_by_key": run["floor_ms_by_key"],
    }
    return result


def cold_start(
    workload: spec.Workload, store_dir: str, scratch: str, index: int
) -> dict:
    """One fresh interpreter's import -> connect -> first result.  A
    workload whose first op writes gets a throw-away copy of the store."""
    extra: list[object] = []
    if workload.kind == "ingest":
        copy = os.path.join(scratch, f"cold{index}.db")
        shutil.copyfile(os.path.join(store_dir, "store.db"), copy)
        extra = ["--store", copy]
    answer = child("cold", "--dir", store_dir, *extra)
    if not answer["ok"]:
        raise ChildFailed(f"cold start of {workload.name}: wrong first result")
    return answer


def provenance() -> dict:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=10,
        ).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "git_commit": commit,
    }


def print_table(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"\n== {result['workload']} ({mode}): "
          f"{result['attempted']} ops, failed_ratio "
          f"{result['failed_ratio']:.6f}, oracle {result['oracle_s']:.2f} s")
    noise = result.get("noise", {})
    for name, metric in result["metrics"].items():
        line = f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}"
        if name in noise:
            line += f"   (noise {noise[name] * 100:.1f} %)"
        print(line)
    if result["trace"]:
        total = sum(result["self_seconds"].values())
        print("  self time by span (share of the traced loop):")
        ranked = sorted(result["self_seconds"].items(), key=lambda kv: -kv[1])
        for name, seconds in ranked[:12]:
            print(f"    {name:<44} {seconds / total * 100:>6.1f} %")
    for note in result["errors"]:
        print(f"  ! {note}")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--out", default=os.path.join(OUT, "report.json"))
    parser.add_argument("--tier", choices=("gated", "paper"), default="gated",
                        help="paper: the 113 MB / 130 MB regime of Section 5 "
                             "(opt-in, slow, not in BENCHMARK.json)")
    parser.add_argument("--scale", type=float, default=0.0,
                        help="override every document's scale (self-tests)")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench needs the program under src/repro", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    tier = spec.PAPER_TIER if args.tier == "paper" else spec.WORKLOADS
    by_name = {workload.name: workload for workload in tier}
    names = args.workload or list(by_name)
    unknown = [name for name in names if name not in by_name]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; have {list(by_name)}")
    modes = [False, True] if args.trace is None else [bool(args.trace)]

    os.makedirs(OUT, exist_ok=True)
    report = {
        "meta": {
            **provenance(),
            "seed": args.seed,
            "seconds": args.seconds,
            "tier": args.tier,
            "loadavg_start": os.getloadavg()[0],
        },
        "runs": [],
    }
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        for name in names:
            for trace in modes:
                work = os.path.join(scratch, f"{name}-{int(trace)}")
                os.makedirs(work)
                result = measure(by_name[name], args, trace, work)
                shutil.rmtree(work)
                report["runs"].append(result)
                print_table(result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["meta"]["loadavg_end"] = os.getloadavg()[0]
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nreport: {os.path.relpath(args.out)}")
    if len(report["runs"]) == 1:
        print(contract_line(report["runs"][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
