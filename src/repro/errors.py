"""Exception hierarchy shared by every subsystem of the library.

Keeping the whole hierarchy in one module lets callers catch
:class:`ReproError` to handle any library failure, or a specific subclass
when they care about the origin (parsing, schema, storage, translation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class XMLParseError(ReproError):
    """Raised when an XML document is not well formed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class DocumentDepthError(ReproError):
    """Raised when a document tree nests elements deeper than
    :data:`repro.xmltree.nodes.MAX_DEPTH` — a built tree, where the
    parser's located :class:`XMLParseError` cannot apply."""


class XPathSyntaxError(ReproError):
    """Raised when an XPath expression cannot be parsed."""

    def __init__(self, message: str, position: int = -1, expression: str = ""):
        detail = f" at offset {position}" if position >= 0 else ""
        context = f" in {expression!r}" if expression else ""
        super().__init__(f"{message}{detail}{context}")
        self.position = position
        self.expression = expression


class UnsupportedXPathError(ReproError):
    """Raised when a syntactically valid expression uses a feature outside
    the subset a particular engine supports."""


class SchemaError(ReproError):
    """Raised for inconsistent schema definitions or documents that do not
    conform to the schema they are being loaded against."""


#: Longest SQL excerpt embedded in a :class:`StorageError` message; the
#: complete statement stays available on the ``sql`` attribute.
SQL_PREVIEW_LIMIT = 2048


class StorageError(ReproError):
    """Raised for shredding/loading failures and malformed store state.

    When the failure concerns a specific statement, the full SQL text is
    kept on :attr:`sql` while the rendered message embeds at most
    :data:`SQL_PREVIEW_LIMIT` characters of it — a multi-branch UNION
    query must not turn into a megabyte exception string.
    """

    def __init__(self, message: str, *, sql: str | None = None):
        #: The failure itself, without the SQL excerpt.
        self.reason = message
        super().__init__(message)
        self.restate(sql)

    def restate(self, sql: str | None) -> None:
        """Name ``sql`` as the failing statement, in :attr:`sql` and in
        the message.  The engines use this to report a statement that
        ran with bound parameters as the self-contained text a user can
        paste into ``sqlite3``."""
        self.sql = sql
        message = self.reason
        if sql:
            if len(sql) > SQL_PREVIEW_LIMIT:
                shown = (
                    sql[:SQL_PREVIEW_LIMIT]
                    + f"\n... [truncated, {len(sql)} characters total]"
                )
            else:
                shown = sql
            message = f"{message}\nSQL was:\n{shown}"
        self.args = (message,)


class QueryTimeoutError(StorageError):
    """Raised when a query exceeds its wall-clock time limit."""


class QueryLimitError(StorageError):
    """Raised when a query produces more rows than its configured cap."""


class QueryCancelledError(StorageError):
    """Raised in the executing thread when :meth:`Database.cancel`
    interrupts a running query."""


class RetryExhaustedError(StorageError):
    """Raised when transient errors (``SQLITE_BUSY`` and friends) persist
    beyond the retry budget of the active resilience policy.

    Carries the total number of :attr:`attempts` made (first try plus
    retries) and chains the last underlying exception as ``__cause__``,
    so supervisor logs can say *what* kept failing and *how hard* the
    retry layer tried.  The SQL excerpt in the message follows the same
    ~2KB truncation contract as every other :class:`StorageError`.
    """

    def __init__(
        self, message: str, *, sql: str | None = None, attempts: int = 0
    ):
        super().__init__(message, sql=sql)
        #: Total execution attempts made (1 first try + N retries).
        self.attempts = attempts


class StoreIntegrityError(StorageError):
    """Raised when the post-load integrity check finds orphan rows,
    dangling ``path_id`` references or out-of-order Dewey positions."""


class ShardError(StorageError):
    """Base class for failures of the sharded multi-process serving
    layer (:mod:`repro.serving.shards` / :mod:`repro.serving.scatter`).

    Carries the affected ``shard`` index when the failure concerns one
    shard (``None`` for store-wide failures).
    """

    def __init__(
        self, message: str, *, sql: str | None = None,
        shard: int | None = None,
    ):
        super().__init__(message, sql=sql)
        self.shard = shard


class WorkerCrashedError(ShardError):
    """Raised (or recorded per shard) when a shard worker process died
    while a request was in flight.  The supervisor respawns the worker;
    the request itself is retried or reported failed."""


class ShardUnavailableError(ShardError):
    """Raised when a shard cannot serve at all: its circuit breaker is
    open, its worker fleet is down, or every attempt within the query
    deadline failed."""


class AdmissionRejectedError(ShardError):
    """Raised by the sharded engine's admission-control queue when the
    in-flight limit is reached and no slot frees up within the queue
    timeout — explicit backpressure instead of unbounded queueing."""


class TranslationError(ReproError):
    """Raised when the XPath-to-SQL translator cannot produce a statement,
    e.g. a step matches no relation under the schema."""


class DeweyError(ReproError):
    """Raised for invalid Dewey vectors or encodings."""
