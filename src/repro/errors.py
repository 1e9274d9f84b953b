"""Exception hierarchy for the repro deductive database.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one type.  Sub-hierarchies mirror the subsystems:
logic kernel, catalog, language, engine, and the knowledge-query core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class LogicError(ReproError):
    """Errors raised by the logic kernel (terms, clauses, unification)."""


class UnificationError(LogicError):
    """Two expressions could not be unified (raised by strict APIs only)."""


class TypingError(LogicError):
    """A rule violates the typing discipline required of recursive rules."""


class CatalogError(ReproError):
    """Errors raised by the catalog (schemas, relations, knowledge base)."""


class SchemaError(CatalogError):
    """A predicate was declared or used inconsistently with its schema."""


class ArityError(SchemaError):
    """An atom's argument count disagrees with its predicate's arity."""


class DuplicatePredicateError(CatalogError):
    """A predicate name was declared in more than one of EDB/IDB/built-ins."""


class UnknownPredicateError(CatalogError):
    """A query or rule referenced a predicate the database does not know."""


class IntegrityError(CatalogError):
    """A stored fact violates a declared integrity constraint."""


class WalError(CatalogError):
    """The durable write-ahead log could not be written or parsed."""


class RecoveryError(CatalogError):
    """Crash recovery of a durable knowledge base failed.

    Raised when the snapshot or write-ahead log is unreadable, fails its
    checksum, or replay does not verify against the log's final version
    stamps.  Structured fields locate the failure on disk so the ``dbk``
    CLI can report it like any other source-located diagnostic:

    ``path``
        the file that failed (snapshot or log), when known;
    ``offset``
        byte offset of the failing record in that file, when known;
    ``state``
        the :class:`~repro.catalog.recovery.Recoverer` state at failure
        time (``"inspecting"``, ``"loading_snapshot"``, ...).
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        offset: int | None = None,
        state: str | None = None,
    ) -> None:
        located = message
        if path is not None:
            where = path if offset is None else f"{path}:{offset}"
            located = f"{where}: {message}"
        super().__init__(located)
        self.path = path
        self.offset = offset
        self.state = state

    def __reduce__(self):
        # Keyword-only fields need explicit pickle support (cf.
        # ResourceExhausted): rebuild from the located message, then
        # restore the instance dict.
        return (_rebuild_recovery_error, (str(self), self.__dict__.copy()))


def _rebuild_recovery_error(message: str, fields: dict) -> "RecoveryError":
    """Unpickle helper: the located message must not be re-prefixed."""
    error = RecoveryError.__new__(RecoveryError)
    Exception.__init__(error, message)
    error.__dict__.update(fields)
    return error


class LanguageError(ReproError):
    """Errors raised by the lexer/parser for the query language."""


class LexError(LanguageError):
    """The input text contains a character sequence that is not a token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(LanguageError):
    """The token stream does not form a valid statement."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class EngineError(ReproError):
    """Errors raised while evaluating data (retrieve) queries."""


class SafetyError(EngineError):
    """A rule or query is unsafe (unbound head or comparison variables).

    Carries the structured findings behind the message: ``diagnostics`` is
    a tuple of :class:`repro.analysis.diagnostics.Diagnostic` records (may
    be empty for ad-hoc raises), ``code`` is the first finding's stable
    code (e.g. ``"KB101"``) and ``span`` its source location, when known.
    """

    def __init__(self, message: str, *, diagnostics: object = ()) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)  # type: ignore[arg-type]

    @property
    def code(self) -> str | None:
        """The first finding's diagnostic code, when structured."""
        return self.diagnostics[0].code if self.diagnostics else None

    @property
    def span(self) -> object | None:
        """The first finding's source span, when structured."""
        return self.diagnostics[0].span if self.diagnostics else None

    def __reduce__(self):
        # Keyword-only fields need explicit pickle support (cf.
        # ResourceExhausted below): rebuild from the message, then restore
        # the instance dict.
        return (self.__class__, (str(self),), dict(self.__dict__))


class ResourceExhausted(ReproError):
    """A query tripped a resource budget (deadline, facts, steps, ...).

    The common base of every budget error, so governed callers can catch one
    type regardless of which evaluation path (data engines or the
    derivation-tree search) exhausted its budget.  Structured fields:

    ``budget``
        which budget tripped — one of ``"deadline"``, ``"facts"``,
        ``"steps"``, ``"depth"``, ``"iterations"``, ``"cancelled"``;
    ``consumed``
        how much of the resource was consumed at trip time;
    ``limit``
        the configured limit (seconds for deadlines, counts otherwise).

    Instances survive pickling with their structured fields intact (needed
    for multi-process evaluation).
    """

    def __init__(
        self,
        message: str = "resource budget exhausted",
        *,
        budget: str | None = None,
        consumed: object = None,
        limit: object = None,
    ) -> None:
        super().__init__(message)
        self.budget = budget
        self.consumed = consumed
        self.limit = limit

    def __reduce__(self):
        # Exceptions with keyword-only fields need explicit pickle support:
        # rebuild from the message, then restore the instance dict.
        return (self.__class__, (str(self),), dict(self.__dict__))


class EvaluationLimitError(EngineError, ResourceExhausted):
    """Evaluation exceeded a caller-imposed step or size budget."""


class QueryCancelled(ResourceExhausted):
    """The query's cooperative cancellation token was triggered."""

    def __init__(self, message: str = "query cancelled", **fields: object) -> None:
        fields.setdefault("budget", "cancelled")
        ResourceExhausted.__init__(self, message, **fields)  # type: ignore[arg-type]


class ServerError(ReproError):
    """Errors raised by the concurrent query server (:mod:`repro.server`)."""


class AdmissionError(ServerError, ResourceExhausted):
    """A request was rejected at admission control (QoS tier exhausted).

    Raised before any evaluation starts: the client's tier had no free
    slot and its queue was full (or the queue wait timed out).  The HTTP
    front end maps it to ``429 Too Many Requests``.  ``tier`` names the
    QoS tier that rejected the request; the inherited
    :class:`ResourceExhausted` fields carry the structured budget data
    (``budget="admission"``, consumed/limit = queued/queue capacity).
    """

    def __init__(
        self, message: str = "admission rejected", *, tier: str | None = None,
        **fields: object,
    ) -> None:
        fields.setdefault("budget", "admission")
        ResourceExhausted.__init__(self, message, **fields)  # type: ignore[arg-type]
        self.tier = tier


class CoreError(ReproError):
    """Errors raised by the knowledge-query (describe) core."""


class TransformError(CoreError):
    """The Imielinski transformation could not be applied to a rule set."""


class SearchBudgetExceeded(CoreError, ResourceExhausted):
    """The derivation-tree search exceeded its budget.

    Algorithm 1 on recursive subjects is expected to trip this; the error is
    how the library demonstrates the paper's Examples 6-8 divergence.

    Accepts the legacy ``(steps, answers_so_far, reason)`` form as well as
    the structured ``(message, budget=..., consumed=..., limit=...)`` form
    shared by the :class:`ResourceExhausted` family.
    """

    def __init__(
        self,
        steps: int | str | None = None,
        answers_so_far: list | None = None,
        reason: str | None = None,
        *,
        budget: str = "steps",
        consumed: object = None,
        limit: object = None,
    ) -> None:
        if isinstance(steps, str):
            reason = reason or steps
            steps = None
        if steps is not None:
            consumed = consumed if consumed is not None else steps
            limit = limit if limit is not None else steps
        message = reason or f"derivation search exceeded {limit} steps"
        ResourceExhausted.__init__(
            self, message, budget=budget, consumed=consumed, limit=limit
        )
        self.steps = steps if steps is not None else consumed
        self.answers_so_far = answers_so_far or []
