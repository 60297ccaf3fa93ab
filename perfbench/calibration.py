"""A yardstick for the machine's speed, measured beside every timing.

The sandbox slows down by 20 to 50 % for seconds or minutes at a time
(another tenant on the host; the guest sees no steal time), so the same
commit measured twice differs by more than any regression bound.  The
slow-down hits everything that runs, so a fixed piece of work timed next to
the measurement tells how slow the machine was just then, and dividing by
it takes the phase out.

The yardstick uses the standard library only — nothing of ``repro`` — so that a change to
the program cannot move it.  It does what an operation of the program does,
in the same proportions: a SQLite statement that calls a Python REGEXP-like
function per row, ``fetchall``, one small object per row, a dict de-dupe
and a keyed sort.  About a millisecond a call.

In the measuring loop ``slowdown`` is the yardstick's floor during a
one-second block over ``NOMINAL_SECONDS``, its floor on this sandbox when
quiet.  It is used twice.  Blocks taken while it read more than
``QUIET_SLOWDOWN`` are set aside and taken again, within a time limit — a
slow phase does not slow everything by the same factor (waiting for the
disk or for a worker does not get slower), so the first defence is not to
measure during one.  And every sample is ``measured / slowdown``, which
evens out the small differences between quiet readings and is the fallback
when the machine never calms down.

A set-up or a cold start is one long activity with no floor to take: it
loses whatever time slices the host takes away while it runs.  Those are
divided by the yardstick's *mean* (``busy``), read in short windows before,
during and after them and averaged over all set-ups (cold starts) of the
run.  Measured in a phase where cold starts took 25 % longer, this brought
their median back to within 6 % of the quiet value; the quickest of five,
unnormalized, stayed 25 % off.  The readings are kept in the report.
"""

from __future__ import annotations

import re
import sqlite3
from time import perf_counter

from perfbench.spans import lower_decile

#: Lower decile of the yardstick on the quiet sandbox (Xeon 2.1 GHz,
#: CPython 3.11, SQLite 3.40).  A constant: a slow-down of 1.0 means "as
#: fast as the box the baseline was taken on".
NOMINAL_SECONDS = 0.001075

#: A block counts as taken on a quiet machine up to this reading.  Quiet readings are 1.0 to 1.2, depending on how much of the
#: processor's cache the workload leaves the yardstick; a busy sibling
#: hyper-thread on the host reads 1.4 to 1.9.
QUIET_SLOWDOWN = 1.25

#: Seconds between two yardstick calls inside a measuring loop (about 2 %
#: of the loop's time).
INTERVAL = 0.05

_ROWS = 1000
_PATTERN = "^/site/a1[0-2]?/b[0-3]/c$"


class _Row:
    __slots__ = ("id", "doc", "pos")

    def __init__(self, row_id: int, doc: int, pos: bytes):
        self.id = row_id
        self.doc = doc
        self.pos = pos


class Yardstick:
    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._db.create_function(
            "rx", 2, lambda value, pattern: bool(re.search(pattern, value)),
            deterministic=True,
        )
        self._db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, doc INT, path TEXT, "
            "pos BLOB)"
        )
        self._db.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [
                (i, i % 7, f"/site/a{i % 13}/b{i % 5}/c",
                 bytes([i % 251, i % 13]))
                for i in range(_ROWS)
            ],
        )
        #: Durations of the calls since the last :meth:`take`.
        self._pending: list[float] = []
        self._due = 0.0
        for _ in range(10):  # compile the pattern, warm the statement
            self._work()

    def _work(self) -> None:
        rows = self._db.execute(
            "SELECT id, doc, pos FROM t WHERE rx(path, ?) ORDER BY doc, pos",
            (_PATTERN,),
        ).fetchall()
        unique: dict[int, _Row] = {}
        for row in rows:
            unique.setdefault(row[0], _Row(*row))
        sorted(unique.values(), key=lambda r: (r.doc, r.pos))

    def measure(self) -> None:
        start = perf_counter()
        self._work()
        end = perf_counter()
        self._pending.append(end - start)
        self._due = end + INTERVAL

    def tick(self) -> None:
        """Between two operations: measure if the interval has passed."""
        if perf_counter() >= self._due:
            self.measure()

    def take(self, calls: int = 5) -> float:
        """The slow-down since the last take: the floor of the calls made
        since — at least ``calls`` of them — over the nominal floor.  A
        process that has just woken up (the parent, after waiting for a
        child) runs slowly for its first milliseconds: it asks for enough
        calls that the floor is taken from warm ones."""
        while len(self._pending) < calls:
            self.measure()
        floor = lower_decile(self._pending)
        self._pending = []
        return floor / NOMINAL_SECONDS

    def busy(self, calls: int = 20) -> float:
        """The *mean* of ``calls`` calls over the nominal floor: unlike the
        floor it also counts the time slices that went missing, which is
        what a single long activity (a set-up, a cold start) suffers and
        cannot take a floor of.  About 1.04 on the quiet sandbox."""
        total = 0.0
        for _ in range(calls):
            start = perf_counter()
            self._work()
            total += perf_counter() - start
        return total / calls / NOMINAL_SECONDS

    def close(self) -> None:
        self._db.close()
