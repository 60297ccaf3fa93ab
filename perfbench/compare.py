"""The regression gate: ``python3 perfbench/compare.py OLD.json NEW.json``.

Both files are reports written by ``run.py``.  One row per (workload,
end-to-end metric): old, new, new/old, the metric's bound and a verdict —

* ``ok``          new is not worse than old by more than the bound;
* ``worse``       it is;
* ``unresolved``  either run disagrees with itself (even against odd blocks;
                  inter-quartile range of set-ups and cold starts) by more
                  than the bound, so the pair cannot tell.

``failed_ratio`` has no tolerance: any rise is ``worse``.  Exit status 1 on
any ``worse``, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from perfbench import spec  # noqa: E402


def untraced(report: dict) -> dict[str, dict]:
    return {
        run["workload"]: run for run in report["runs"] if not run["trace"]
    }


def compare(old: dict, new: dict) -> list[dict]:
    rows = []
    old_runs, new_runs = untraced(old), untraced(new)
    for workload in old_runs:
        if workload not in new_runs:
            continue
        before, after = old_runs[workload], new_runs[workload]
        rows.append({
            "workload": workload, "metric": "failed_ratio", "unit": "ratio",
            "old": before["failed_ratio"], "new": after["failed_ratio"],
            "bound": 0.0,
            "verdict": (
                "worse" if after["failed_ratio"] > before["failed_ratio"]
                else "ok"
            ),
        })
        for metric in spec.END_TO_END:
            was = before["metrics"][metric.name]["value"]
            now = after["metrics"][metric.name]["value"]
            change = (now - was) / was
            worse_by = change if metric.better == "lower" else -change
            noise = max(
                before["noise"].get(metric.name, 0.0),
                after["noise"].get(metric.name, 0.0),
            )
            if noise > metric.bound:
                verdict = "unresolved"
            elif worse_by > metric.bound:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric.name,
                "unit": metric.unit, "old": was, "new": now,
                "bound": metric.bound, "noise": noise, "verdict": verdict,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        old = json.load(handle)
    with open(argv[2]) as handle:
        new = json.load(handle)
    rows = compare(old, new)
    print(f"{'workload':<14}{'metric':<26}{'old':>12}{'new':>12}"
          f"{'new/old':>9}{'bound':>7}{'noise':>7}  verdict")
    for row in rows:
        ratio = row["new"] / row["old"] if row["old"] else float("nan")
        print(
            f"{row['workload']:<14}{row['metric']:<26}"
            f"{row['old']:>12.5g}{row['new']:>12.5g}{ratio:>9.3f}"
            f"{row['bound'] * 100:>6.0f}%{row.get('noise', 0.0) * 100:>6.1f}%"
            f"  {row['verdict']}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"\n{len(rows)} rows, {len(worse)} worse, "
          f"{sum(row['verdict'] == 'unresolved' for row in rows)} unresolved "
          f"(old {old['meta']['git_commit'][:10]}, "
          f"new {new['meta']['git_commit'][:10]})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
