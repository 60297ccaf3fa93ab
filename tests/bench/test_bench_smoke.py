"""Structural checks that ride with the benchmark CI job (`-m
bench_smoke`): wall-clock budgets, not absolute numbers."""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.bench_smoke


def test_full_analysis_sweep_fits_wall_clock_budget():
    """The CI analysis job runs plan verification plus the code linter
    on every push; the whole sweep has to stay interactive-fast and
    clean even with warnings promoted."""
    import time

    from repro.analysis import (
        exit_code,
        lint_code,
        merge_reports,
        verify_workloads,
    )

    started = time.perf_counter()
    plan_report, verified, _skipped = verify_workloads()
    merged = merge_reports([plan_report, lint_code(["src"])])
    elapsed = time.perf_counter() - started

    assert verified > 0
    assert exit_code(merged, fail_on_warn=True) == 0, merged.render_text()
    assert elapsed < 90.0, f"analysis sweep took {elapsed:.1f}s"
