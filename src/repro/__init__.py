"""repro — PPF-based XPath execution on relational systems.

A full reproduction of "Improving the Efficiency of XPath Execution on
Relational Systems" (Georgiadis & Vassalos, EDBT 2006): schema-aware and
schema-oblivious XML shredding into SQLite, Dewey-encoded structural
joins, a root-to-node path index with regular-expression filtering, the
PPF-based XPath-to-SQL translator, the baselines the paper compares
against, and the benchmark workloads of its evaluation.

Quickstart — :func:`repro.connect` opens any store (a single SQLite
file or a sharded store directory) behind one :class:`~repro.api.
Engine` surface::

    import repro

    with repro.connect("corpus.db") as engine:
        print(engine.explain("/site/regions/*/item"))
        for row in engine.execute("/site/regions/*/item"):
            print(row.id, row.dewey_pos)

    # asyncio clients await the same engine
    result = await engine.execute_async("//price", deadline=1.0)

Building a store from scratch (and the lower-level pieces
``connect`` wraps)::

    from repro import (
        parse_document, infer_schema, Database, ShreddedStore, PPFEngine,
    )

    doc = parse_document(xml_text)
    schema = infer_schema([doc])
    store = ShreddedStore.create(Database.memory(), schema)
    store.load(doc)
    engine = PPFEngine(store)
"""

from repro.errors import (
    AdmissionRejectedError,
    DeweyError,
    DocumentDepthError,
    QueryCancelledError,
    QueryLimitError,
    QueryTimeoutError,
    ReproError,
    RetryExhaustedError,
    SchemaError,
    ShardError,
    ShardUnavailableError,
    StorageError,
    StoreIntegrityError,
    TranslationError,
    UnsupportedXPathError,
    XMLParseError,
    XPathSyntaxError,
)
from repro.xmltree import (
    Document,
    DocumentBuilder,
    ElementNode,
    TextNode,
    parse_document,
    parse_fragment,
    serialize,
)
from repro.schema import (
    PathClass,
    Schema,
    SchemaMarking,
    infer_schema,
    parse_dtd,
    parse_xsd,
)
from repro.schema.model import figure1_schema
from repro.xpath import parse_xpath
from repro.storage import (
    AccelStore,
    Database,
    EdgeStore,
    PathIndex,
    ShreddedStore,
)
from repro.core import (
    EdgePPFEngine,
    PPFEngine,
    PPFTranslator,
    QueryResult,
    TranslationResult,
)
from repro.core.engine import SERVED_BY, ServedBy
from repro.api import Engine, EngineConfig, connect
from repro.baselines import (
    AccelEngine,
    NaiveEngine,
    NativeEngine,
    evaluate_xpath,
)
from repro.resilience import (
    FaultInjectingDatabase,
    FaultPlan,
    ResiliencePolicy,
)
from repro.serving import (
    AsyncShardedEngine,
    ConnectionPool,
    ResultCache,
    ShardRuntime,
    ShardedEngine,
    ShardedStore,
)

__version__ = "1.0.0"

__all__ = [
    "AccelEngine",
    "AccelStore",
    "AdmissionRejectedError",
    "AsyncShardedEngine",
    "ConnectionPool",
    "Database",
    "DeweyError",
    "DocumentDepthError",
    "Document",
    "DocumentBuilder",
    "EdgePPFEngine",
    "EdgeStore",
    "ElementNode",
    "Engine",
    "EngineConfig",
    "FaultInjectingDatabase",
    "FaultPlan",
    "NaiveEngine",
    "NativeEngine",
    "PPFEngine",
    "PPFTranslator",
    "PathClass",
    "PathIndex",
    "QueryCancelledError",
    "QueryLimitError",
    "QueryResult",
    "QueryTimeoutError",
    "ReproError",
    "ResiliencePolicy",
    "ResultCache",
    "RetryExhaustedError",
    "SERVED_BY",
    "Schema",
    "SchemaError",
    "SchemaMarking",
    "ServedBy",
    "ShardError",
    "ShardRuntime",
    "ShardUnavailableError",
    "ShardedEngine",
    "ShardedStore",
    "ShreddedStore",
    "StorageError",
    "StoreIntegrityError",
    "TextNode",
    "TranslationError",
    "TranslationResult",
    "UnsupportedXPathError",
    "XMLParseError",
    "XPathSyntaxError",
    "connect",
    "evaluate_xpath",
    "figure1_schema",
    "infer_schema",
    "parse_document",
    "parse_dtd",
    "parse_fragment",
    "parse_xpath",
    "parse_xsd",
    "serialize",
]
