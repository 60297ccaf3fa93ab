"""Path-summary statistics for the cost-based optimizer.

The paper motivates its Section 4.5 rewrites and the Table 3
regex-vs-equality choice with cardinality arguments; this package gives
the optimizer those cardinalities.  A :class:`PathSummary` — per-path
element counts, distinct-document counts, child fan-out and
value-presence ratios, in the spirit of Arion et al.'s path summaries —
is collected at shred/bulk-load time from the `Paths` relation and the
mapping relations, persisted in the store (``repro_path_stats`` +
``repro_meta``), versioned against ``store.generation`` and maintained
incrementally by ``bulk_load`` / ``delete_document``.

The summary never changes *what* a query returns.  Its counts only
steer performance decisions (join order, union-branch order, hedge
gating); its path list becomes the SQL path filter
(``costed-access-strategy``), which is sound because the stores hand a
summary out only while it is exact — a stale summary is no summary.
"""

from repro.stats.summary import PathStats, PathSummary, StatsState
from repro.stats.maintenance import (
    STATS_TABLE_DDL,
    collect_summary,
    document_deltas,
    load_state,
    load_summary,
    persist_summary,
    removal_deltas,
)

__all__ = [
    "PathStats",
    "PathSummary",
    "StatsState",
    "STATS_TABLE_DDL",
    "collect_summary",
    "document_deltas",
    "load_state",
    "load_summary",
    "persist_summary",
    "removal_deltas",
]
