"""Relational storage: SQLite backend and the three shredding schemes.

* :class:`repro.storage.schema_aware.ShreddedStore` — the paper's
  schema-aware mapping (Section 3): one relation per element definition /
  complex type, `Paths` relation, Dewey positions, parent ids.
* :class:`repro.storage.edge.EdgeStore` — the schema-oblivious Edge-like
  mapping used in the Section 5.1 comparison: one central element
  relation plus a separate attribute relation (footnote 3).
* :class:`repro.storage.accel.AccelStore` — pre/post region encoding for
  the XPath Accelerator baseline of Section 5.2.

The first two carry the same descriptors and share one write path,
:mod:`repro.storage.loading`: ``load`` and ``bulk_load`` are one
transaction, verified by one integrity check.
"""

from repro.storage.database import Database
from repro.storage.paths import PathIndex
from repro.storage.schema_aware import RelationInfo, SchemaAwareMapping, ShreddedStore
from repro.storage.edge import EdgeStore
from repro.storage.accel import AccelStore

__all__ = [
    "AccelStore",
    "Database",
    "EdgeStore",
    "PathIndex",
    "RelationInfo",
    "SchemaAwareMapping",
    "ShreddedStore",
]
