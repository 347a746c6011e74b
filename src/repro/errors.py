"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Subclasses partition the
failure domains: schema/metadata problems, query language problems, rule
evaluation problems, and storage-engine problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A cube schema or dimension hierarchy is malformed or misused."""


class MemberNotFoundError(SchemaError):
    """A dimension member (or member instance) was looked up but not found."""

    def __init__(self, dimension: str, member: str) -> None:
        super().__init__(f"member {member!r} not found in dimension {dimension!r}")
        self.dimension = dimension
        self.member = member


class DuplicateMemberError(SchemaError):
    """An attempt was made to add a member name that already exists."""


class InvalidChangeError(ReproError):
    """A structural change violates Definition 3.1 (legal changes)."""


class ValidityError(ReproError):
    """A validity-set operation is inconsistent (e.g. overlapping instances)."""


class RuleError(ReproError):
    """A derived-cell rule is malformed or fails during evaluation."""


class FormulaSyntaxError(RuleError):
    """A rule formula could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MdxError(ReproError):
    """Base class for extended-MDX language errors."""


class MdxSyntaxError(MdxError):
    """The extended-MDX query text could not be parsed.

    Carries the 1-based ``line``/``column`` of the offending token whenever
    the parser or lexer knows it, and renders it in the same
    ``line L, column C`` format used by analyzer diagnostics (see
    :mod:`repro.analysis.diagnostics`).
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.raw_message = message
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column

    @property
    def span(self):
        """The error position as a :class:`~repro.mdx.span.SourceSpan`
        (``None`` when the position is unknown)."""
        from repro.mdx.span import SourceSpan

        if not self.line:
            return None
        return SourceSpan(self.line, self.column)


class MdxEvaluationError(MdxError):
    """A parsed query failed during evaluation (unknown member, bad axis...)."""


class UnknownMemberError(MdxEvaluationError):
    """A member path in a query resolved to nothing."""


class AmbiguousMemberError(MdxEvaluationError):
    """A member path in a query matched more than one dimension."""


class StorageError(ReproError):
    """A chunk-store or array-storage operation failed."""


class WarehouseFormatError(SchemaError):
    """A persisted warehouse file is missing, truncated, or malformed.

    Carries the offending ``path`` and, when known, the store's declared
    ``format_version`` so callers can distinguish "this is not a warehouse"
    from "this warehouse is newer than this build".
    """

    def __init__(
        self,
        message: str,
        *,
        path: "str | None" = None,
        format_version: "object | None" = None,
    ) -> None:
        detail = message
        if path is not None:
            detail = f"{detail} (path: {path}"
            if format_version is not None:
                detail = f"{detail}, format_version: {format_version!r}"
            detail = f"{detail})"
        elif format_version is not None:
            detail = f"{detail} (format_version: {format_version!r})"
        super().__init__(detail)
        self.path = path
        self.format_version = format_version


class WarehouseCorruptionError(StorageError):
    """A persisted warehouse failed integrity checks and could not be
    recovered from any earlier generation.

    ``lost`` names exactly which files were torn/corrupt/missing;
    ``quarantined`` lists where the damaged originals were moved
    (``*.corrupt`` siblings) for post-mortem inspection.
    """

    def __init__(
        self,
        message: str,
        *,
        lost: "tuple[str, ...]" = (),
        quarantined: "tuple[str, ...]" = (),
    ) -> None:
        if lost:
            message = f"{message}; lost: {', '.join(lost)}"
        if quarantined:
            message = f"{message}; quarantined: {', '.join(quarantined)}"
        super().__init__(message)
        self.lost = lost
        self.quarantined = quarantined


class FaultInjectedError(ReproError):
    """An armed failpoint fired (see :mod:`repro.faults`).

    Deliberately *outside* the Storage/Mdx subtrees so production error
    handling cannot accidentally swallow an injected crash as a routine
    failure — tests that arm a failpoint see exactly this type.
    """

    def __init__(self, failpoint: str, message: "str | None" = None) -> None:
        super().__init__(message or f"injected fault at failpoint {failpoint!r}")
        self.failpoint = failpoint


class TransientFaultError(FaultInjectedError):
    """An injected fault that models a *transient* failure (e.g. EINTR,
    a momentary I/O hiccup).  Retry wrappers treat this as retryable;
    a plain :class:`FaultInjectedError` is terminal."""


class CatalogError(ReproError):
    """Base class for scenario-catalog failures (:mod:`repro.catalog`)."""


class ScenarioNotFoundError(CatalogError):
    """A catalog operation named a scenario that does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"scenario {name!r} does not exist in the catalog")
        self.name = name


class ScenarioExistsError(CatalogError):
    """A create/fork tried to reuse an existing scenario name."""

    def __init__(self, name: str) -> None:
        super().__init__(f"scenario {name!r} already exists in the catalog")
        self.name = name


class ScenarioConflictError(CatalogError):
    """A merge or rebase found chunks changed on both sides.

    Conflicts are detected at *chunk* granularity (see
    :mod:`repro.catalog.model`): two branches that touched the same chunk
    cannot be combined automatically.  ``chunks`` names the conflicting
    chunk keys and ``addresses`` the changed cell addresses inside them,
    so callers can resolve explicitly (``on_conflict="ours"/"theirs"``).
    """

    def __init__(
        self,
        message: str,
        *,
        chunks: "tuple[str, ...]" = (),
        addresses: "tuple[tuple[str, ...], ...]" = (),
    ) -> None:
        if chunks:
            message = f"{message}; conflicting chunks: {', '.join(chunks)}"
        if addresses:
            rendered = ", ".join("/".join(addr) for addr in addresses[:8])
            if len(addresses) > 8:
                rendered += f", ... ({len(addresses)} total)"
            message = f"{message}; conflicting addresses: {rendered}"
        super().__init__(message)
        self.chunks = chunks
        self.addresses = addresses


class ScenarioQuotaError(CatalogError):
    """A tenant exceeded its scenario-catalog quota.

    The breach degrades gracefully: the offending operation fails with
    this typed error and **nothing is evicted silently** — existing
    scenarios are never dropped to make room.  ``quota`` names which
    limit tripped (``"max-scenarios"`` or ``"max-delta-bytes"``).
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str = "",
        quota: str = "",
        limit: int = 0,
        used: int = 0,
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.quota = quota
        self.limit = limit
        self.used = used


class CatalogCorruptionError(CatalogError, StorageError):
    """A persisted scenario catalog failed integrity checks beyond what
    journal replay could repair.

    ``lost`` names the scenarios whose delta files are gone for good;
    ``quarantined`` lists the ``*.corrupt`` siblings holding the damaged
    originals for post-mortem inspection.  Opening with
    ``allow_lost=True`` drops the named scenarios (recorded in the
    recovery report) instead of raising.
    """

    def __init__(
        self,
        message: str,
        *,
        lost: "tuple[str, ...]" = (),
        quarantined: "tuple[str, ...]" = (),
    ) -> None:
        if lost:
            message = f"{message}; lost: {', '.join(lost)}"
        if quarantined:
            message = f"{message}; quarantined: {', '.join(quarantined)}"
        super().__init__(message)
        self.lost = lost
        self.quarantined = quarantined


class QueryBudgetExceededError(ReproError):
    """A query exhausted its :class:`~repro.mdx.budget.QueryBudget` in a
    phase that cannot produce a partial result (axis resolution).  Cell
    evaluation never raises this — it degrades to ⊥ cells instead."""

    def __init__(self, message: str, *, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class SnapshotImmutableError(ReproError):
    """A mutation was attempted on a frozen snapshot cube.

    Snapshot isolation (see :mod:`repro.service`) pins in-flight queries
    to an immutable read view; writes must go to the live warehouse cube,
    never to the view a concurrent reader holds.
    """


class ServiceError(ReproError):
    """Base class for concurrent query-service failures
    (:mod:`repro.service`)."""


class ServiceOverloadedError(ServiceError):
    """The service shed a query instead of running it.

    Raised at submit time when the admission queue is full, or at result
    time when the query's deadline fully expired while it waited in the
    queue.  ``reason`` is machine-readable: ``"queue-full"`` or
    ``"deadline-expired"``.
    """

    def __init__(self, message: str, *, reason: str = "queue-full") -> None:
        super().__init__(message)
        self.reason = reason


class ServiceTimeoutError(ServiceError, TimeoutError):
    """A caller-supplied wait on a :class:`~repro.service.QueryTicket`
    expired before the query completed.

    Subclasses the builtin :class:`TimeoutError` so callers written
    against the ``concurrent.futures`` convention (``except TimeoutError``)
    keep working, while staying inside the :class:`ReproError` taxonomy
    the service's entry-point lint requires.
    """


class CircuitOpenError(ServiceError):
    """The service's circuit breaker is open: repeated failpoint or
    corruption errors tripped it, and submissions fail fast until the
    backoff elapses and a half-open probe succeeds."""


class ServiceStoppedError(ServiceError):
    """A query was submitted to (or was still queued in) a service that
    has been closed."""


class ShardError(ServiceError):
    """A shard process failed in a way the coordinator cannot map back to
    a typed engine error: the worker died mid-request, the pipe broke, or
    the remote raised an exception type unknown to this taxonomy.

    Remote errors that *do* map — injected faults, storage corruption,
    MDX evaluation errors — are re-raised as their own types so breaker
    accounting and HTTP status mapping treat local and sharded execution
    identically; ``ShardError`` is the residue.
    """

    def __init__(self, message: str, *, shard: "int | None" = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardDownError(ShardError):
    """A shard is known-dead (or its supervisor gave up respawning it)
    and the query's degrade policy forbids answering without it.

    Raised only under ``degrade="fail"`` — the ``fallback`` policy
    recomputes the shard's cells on the coordinator instead, and
    ``partial`` returns them as ⊥ with a structured degradation record.
    ``restarts`` is how many times the supervisor has respawned this
    shard so far; ``retry_after_s`` is its estimate of when the next
    respawn attempt lands (the HTTP layer turns it into ``Retry-After``).
    """

    def __init__(
        self,
        message: str,
        *,
        shard: "int | None" = None,
        restarts: int = 0,
        retry_after_s: float = 1.0,
    ) -> None:
        super().__init__(message, shard=shard)
        self.restarts = restarts
        self.retry_after_s = retry_after_s


class LockOrderError(ReproError):
    """The lockdep witness observed a lock acquisition that inverts the
    declared hierarchy (see :mod:`repro.lint.lock_hierarchy`) or an edge
    already recorded in the opposite direction.

    Raised *before* the offending lock is acquired, so the thread that
    would have completed the deadlock cycle fails fast instead of
    blocking forever.  Only ever raised under ``REPRO_LOCKDEP=1``.
    """

    def __init__(self, message: str, *, holding: str = "", acquiring: str = "") -> None:
        super().__init__(message)
        self.holding = holding
        self.acquiring = acquiring


class QueryError(ReproError):
    """A what-if query is inconsistent (e.g. perspectives outside the
    parameter dimension, or a scenario over a non-varying dimension)."""


class AnalysisError(ReproError):
    """Base class for static-analysis rejections.

    Raised when the analyzer (see :mod:`repro.analysis`) finds error-level
    diagnostics and enforcement is on.  The full report is available as
    ``exc.report``; ``str(exc)`` includes every diagnostic message so
    callers matching on message fragments keep working.
    """


class MdxAnalysisError(AnalysisError, MdxEvaluationError):
    """An extended-MDX query was rejected by static analysis."""

    def __init__(self, report) -> None:
        self.report = report
        super().__init__(
            "query rejected by static analysis:\n" + report.to_text()
        )
