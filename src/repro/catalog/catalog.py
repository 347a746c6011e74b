"""The persistent, crash-safe scenario catalog.

A :class:`ScenarioCatalog` keeps named what-if workspaces alive across
process restarts.  On disk it is one directory::

    <root>/
      MANIFEST.json       checkpoint manifest (durability.py generations)
      CATALOG.json        last checkpoint: lsn + per-scenario digests
      journal.wal         write-ahead journal since that checkpoint
      deltas/<name>.json  one canonical delta file per scenario

Every mutation follows the WAL protocol: *journal append (fsync) →
apply*.  The fsync'd append is the commit point; the apply step rewrites
the scenario's delta file atomically and updates the in-memory index.  A
kill anywhere therefore leaves the catalog in exactly the pre-op state
(torn journal tail, rolled back on reopen) or the post-op state (record
replayed on reopen) — never a torn hybrid.  Checkpoints
(:meth:`ScenarioCatalog.gc`, or automatic every ``checkpoint_interval``
commits) fold the journal into ``CATALOG.json`` via
:func:`~repro.durability.commit_generation` and truncate it; the journal
is only ever truncated *after* the checkpoint manifest committed, so
recovery always has either the checkpoint or the records.

Recovery policy on open (mirroring
:func:`~repro.io.load_warehouse_recovered`):

1. restore the checkpoint via :func:`~repro.durability.recover_store`
   (``.prev`` fallback, quarantine);
2. verify each checkpointed delta file against its recorded SHA-256;
3. replay journal records with ``lsn > checkpoint_lsn`` — each record
   carries the full resulting scenario state, so redo is an idempotent
   install that also repairs damaged delta files;
4. **adopt** any self-consistent delta file the surviving metadata does
   not know about (a durably-applied write whose checkpoint was lost);
5. quarantine whatever is still damaged as ``*.corrupt`` and raise
   :class:`~repro.errors.CatalogCorruptionError` — or, with
   ``allow_lost=True``, drop the named scenarios and report them.

Per-tenant quotas (max scenarios, max delta bytes) are enforced *before*
the journal append: a breach raises
:class:`~repro.errors.ScenarioQuotaError` and nothing is evicted
silently.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.catalog.diff import ScenarioDiff, diff_states
from repro.catalog.journal import CatalogJournal
from repro.catalog.model import (
    ScenarioState,
    base_chunk_digests,
    canonical_json,
    chunk_key,
    chunks_of,
    conflicting_chunks,
    decode_state,
    encode_state,
    payload_digest,
    validate_scenario_name,
)
from repro.durability import (
    MANIFEST_NAME,
    atomic_write_text,
    commit_generation,
    file_digest,
    recover_store,
)
from repro.errors import (
    CatalogCorruptionError,
    CatalogError,
    ScenarioConflictError,
    ScenarioExistsError,
    ScenarioNotFoundError,
    ScenarioQuotaError,
    WarehouseCorruptionError,
    WarehouseFormatError,
)
from repro.faults import inject_io_fault, register_failpoint
from repro.lint.lockdep import make_lock
from repro.obs.metrics import METRICS
from repro.obs.trace import trace_span
from repro.olap.cube import Cube
from repro.olap.missing import is_missing
from repro.perf.scenario_cache import ScenarioCache

__all__ = [
    "CatalogRecovery",
    "ScenarioCatalog",
    "ScenarioInfo",
    "TenantQuota",
    "CATALOG_FILE",
    "DELTA_DIR",
    "JOURNAL_FILE",
]

FORMAT_VERSION = 1
CATALOG_FILE = "CATALOG.json"
JOURNAL_FILE = "journal.wal"
DELTA_DIR = "deltas"
_CORRUPT_SUFFIX = ".corrupt"
DEFAULT_TENANT = "default"

FP_CATALOG_APPLY = register_failpoint("catalog.apply")
FP_CATALOG_RECOVER = register_failpoint("catalog.recover")


@dataclass(frozen=True)
class TenantQuota:
    """Resource ceiling for one tenant's scenarios.

    ``None`` means unlimited.  Breaches fail the *offending operation*
    with a typed :class:`~repro.errors.ScenarioQuotaError`; existing
    scenarios are never evicted to make room.
    """

    max_scenarios: "int | None" = None
    max_delta_bytes: "int | None" = None

    def check(self, tenant: str, scenarios: int, delta_bytes: int) -> None:
        if self.max_scenarios is not None and scenarios > self.max_scenarios:
            raise ScenarioQuotaError(
                f"tenant {tenant!r} would hold {scenarios} scenarios, over "
                f"its max-scenarios quota of {self.max_scenarios}",
                tenant=tenant,
                quota="max-scenarios",
                limit=self.max_scenarios,
                used=scenarios,
            )
        if (
            self.max_delta_bytes is not None
            and delta_bytes > self.max_delta_bytes
        ):
            raise ScenarioQuotaError(
                f"tenant {tenant!r} would hold {delta_bytes} delta bytes, "
                f"over its max-delta-bytes quota of {self.max_delta_bytes}",
                tenant=tenant,
                quota="max-delta-bytes",
                limit=self.max_delta_bytes,
                used=delta_bytes,
            )


@dataclass(frozen=True)
class ScenarioInfo:
    """Public summary of one catalog scenario (for listings and the CLI)."""

    name: str
    tenant: str
    parent: str
    base_version: int
    delta_bytes: int
    changed_cells: int
    changed_chunks: int


@dataclass
class CatalogRecovery:
    """What opening the catalog had to do to reach a consistent state.

    Mirrors :class:`~repro.durability.RecoveredStore`; ``outcome`` is the
    label recorded on ``catalog_recoveries_total`` (``clean`` /
    ``replayed`` / ``rolled_back`` / ``restored`` / ``lost``).
    """

    root: Path
    outcome: str = "clean"
    #: journal records redone past the checkpoint
    replayed: int = 0
    #: True when a torn journal tail was truncated away
    rolled_back: bool = False
    #: True when the checkpoint came from the ``.prev`` generation
    restored_from_previous: bool = False
    #: scenarios re-installed from self-consistent delta files the
    #: surviving metadata did not list
    adopted: list[str] = field(default_factory=list)
    #: damaged files moved aside as ``*.corrupt``
    quarantined: list[str] = field(default_factory=list)
    #: scenarios that could not be recovered (dropped iff allow_lost)
    lost: list[str] = field(default_factory=list)
    #: human-readable notes describing every recovery action taken
    notes: list[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        return (
            self.replayed > 0
            or self.rolled_back
            or self.restored_from_previous
            or bool(self.adopted)
            or bool(self.quarantined)
            or bool(self.lost)
        )


class ScenarioCatalog:
    """Durable, delta-encoded, multi-tenant scenario workspaces.

    Thread-safe: every public operation runs under one catalog lock
    (ranked in :mod:`repro.lint.lock_hierarchy` above the cube and cache
    locks it acquires).  Opening *is* recovery — the constructor replays
    or rolls back whatever the last process left behind and records the
    outcome in :attr:`recovery`.
    """

    def __init__(
        self,
        root: "Path | str",
        *,
        base: "Cube | None" = None,
        default_quota: "TenantQuota | None" = None,
        quotas: "Mapping[str, TenantQuota] | None" = None,
        chunk_depth: int = 1,
        sync: bool = True,
        checkpoint_interval: int = 512,
        cache_size: int = 32,
        allow_lost: bool = False,
    ) -> None:
        self.root = Path(root)
        self.chunk_depth = chunk_depth
        self.checkpoint_interval = checkpoint_interval
        self._base = base
        self._default_quota = default_quota or TenantQuota()
        self._quotas: dict[str, TenantQuota] = dict(quotas or {})
        self._lock = make_lock("ScenarioCatalog._lock")
        self._journal = CatalogJournal(self.root / JOURNAL_FILE, sync=sync)
        self._cache: "ScenarioCache[Cube]" = ScenarioCache(maxsize=cache_size)
        self._scenarios: dict[str, ScenarioState] = {}
        self._sizes: dict[str, int] = {}
        self._generation = 0
        self._checkpoint_lsn = 0
        self._gauged_tenants: set[str] = set()
        self._base_digest_cache: "tuple[int, dict[str, str]] | None" = None
        self.recovery = self._recover(allow_lost=allow_lost)

    # -- recovery -----------------------------------------------------------

    def _recover(self, *, allow_lost: bool) -> CatalogRecovery:
        report = CatalogRecovery(root=self.root)
        with trace_span("catalog.recover"), self._lock:
            inject_io_fault(FP_CATALOG_RECOVER)
            self.root.mkdir(parents=True, exist_ok=True)
            self._delta_dir.mkdir(exist_ok=True)

            checkpoint_lsn, entries = self._load_checkpoint(report)
            damaged = self._load_delta_files(entries, report)

            records, journal_notes = self._journal.recover()
            report.notes.extend(journal_notes)
            report.rolled_back = bool(journal_notes)
            max_lsn = checkpoint_lsn
            for record in records:
                lsn = int(record["lsn"])
                max_lsn = max(max_lsn, lsn)
                if lsn <= checkpoint_lsn:
                    continue
                self._redo(record)
                damaged.pop(str(record["scenario"]), None)
                report.replayed += 1

            self._adopt_or_quarantine(damaged, report)

            if report.lost and not allow_lost:
                METRICS.counter(
                    "catalog_recoveries_total", outcome="lost"
                ).inc()
                raise CatalogCorruptionError(
                    f"scenario catalog at {self.root} failed integrity "
                    "checks beyond journal repair",
                    lost=tuple(report.lost),
                    quarantined=tuple(report.quarantined),
                )

            self._checkpoint_lsn = checkpoint_lsn
            self._generation = max_lsn
            self._journal.set_next_lsn(max_lsn + 1)
            report.outcome = (
                "lost" if report.lost
                else "rolled_back" if report.rolled_back
                else "replayed" if report.replayed
                else "restored" if (
                    report.restored_from_previous
                    or report.adopted
                    or report.quarantined
                )
                else "clean"
            )
            METRICS.counter(
                "catalog_recoveries_total", outcome=report.outcome
            ).inc()
            self._refresh_gauges()
        return report

    def _load_checkpoint(
        self, report: CatalogRecovery
    ) -> "tuple[int, dict[str, tuple[str, int]]]":
        """Restore ``CATALOG.json`` (with ``.prev`` fallback); returns the
        checkpoint LSN and the name → (sha256, bytes) delta index."""
        manifest_here = (self.root / MANIFEST_NAME).exists() or (
            self.root / (MANIFEST_NAME + ".prev")
        ).exists()
        if not manifest_here:
            return 0, {}  # never checkpointed: the journal is everything
        try:
            store = recover_store(self.root, expected_files=(CATALOG_FILE,))
        except (WarehouseCorruptionError, WarehouseFormatError) as exc:
            # Both checkpoint generations are gone; the journal and the
            # delta files (via adoption) carry the recovery from here.
            report.quarantined.extend(getattr(exc, "quarantined", ()))
            report.notes.append(f"checkpoint unrecoverable: {exc}")
            return 0, {}
        report.restored_from_previous = store.restored_from_previous
        report.quarantined.extend(store.quarantined)
        report.notes.extend(store.notes)
        path = store.files.get(CATALOG_FILE, self.root / CATALOG_FILE)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            checkpoint_lsn = int(payload["checkpoint_lsn"])
            entries = {
                str(name): (str(meta["sha256"]), int(meta["bytes"]))
                for name, meta in payload["scenarios"].items()
            }
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            report.notes.append(f"checkpoint file unusable: {exc}")
            return 0, {}
        return checkpoint_lsn, entries

    def _load_delta_files(
        self,
        entries: "dict[str, tuple[str, int]]",
        report: CatalogRecovery,
    ) -> dict[str, str]:
        """Install every checkpointed scenario whose delta file verifies;
        returns name → problem for the rest (journal replay or adoption
        may still repair them)."""
        damaged: dict[str, str] = {}
        for name, (digest, size) in sorted(entries.items()):
            path = self._delta_path(name)
            if not path.exists():
                damaged[name] = "missing"
                continue
            actual_digest, actual_size = file_digest(path)
            if (actual_digest, actual_size) != (digest, size):
                damaged[name] = "checksum mismatch"
                continue
            try:
                text = path.read_text(encoding="utf-8")
                state = decode_state(text, source=str(path))
            except (OSError, CatalogError) as exc:
                damaged[name] = f"unreadable: {exc}"
                continue
            self._install(state, len(text.encode("utf-8")))
        return damaged

    def _adopt_or_quarantine(
        self, damaged: dict[str, str], report: CatalogRecovery
    ) -> None:
        """Last-chance pass over delta files the metadata cannot vouch for.

        A file that decodes and re-encodes to exactly its own bytes was
        written by :func:`~repro.catalog.model.encode_state` through an
        atomic rename — it is a durably-applied post-op state whose
        checkpoint/journal record was lost, so it is **adopted**.
        Anything else is quarantined as ``*.corrupt`` and reported lost.
        """
        on_disk = {
            path.stem: path
            for path in sorted(self._delta_dir.glob("*.json"))
        }
        candidates = set(damaged) | (set(on_disk) - set(self._scenarios))
        for name in sorted(candidates):
            if name in self._scenarios:
                continue  # journal replay already repaired it
            path = on_disk.get(name)
            if path is None:
                report.lost.append(name)
                report.notes.append(
                    f"scenario {name}: delta file missing "
                    f"({damaged.get(name, 'not checkpointed')})"
                )
                continue
            adopted = False
            try:
                text = path.read_text(encoding="utf-8")
                state = decode_state(text, source=str(path))
                if state.name == name and encode_state(state) == text:
                    self._install(state, len(text.encode("utf-8")))
                    report.adopted.append(name)
                    report.notes.append(
                        f"adopted {name} from its delta file "
                        f"({damaged.get(name, 'not in checkpoint')})"
                    )
                    adopted = True
            except (OSError, CatalogError):
                pass
            if not adopted:
                target = path.with_name(path.name + _CORRUPT_SUFFIX)
                os.replace(path, target)
                report.quarantined.append(f"{DELTA_DIR}/{target.name}")
                report.lost.append(name)
                report.notes.append(
                    f"quarantined {DELTA_DIR}/{path.name} -> "
                    f"{DELTA_DIR}/{target.name}"
                )

    def _install(self, state: ScenarioState, size: int) -> None:  # reprolint: locked
        self._scenarios[state.name] = state
        self._sizes[state.name] = size

    def _redo(self, record: dict) -> None:  # reprolint: locked
        """Idempotently re-apply one journal record (replay path)."""
        name = str(record["scenario"])
        if record.get("op") == "drop" or record.get("state") is None:
            self._scenarios.pop(name, None)
            self._sizes.pop(name, None)
            self._delta_path(name).unlink(missing_ok=True)
            return
        text = canonical_json(record["state"])
        state = decode_state(text, source=f"journal lsn {record['lsn']}")
        current = self._delta_path(name)
        try:
            existing = current.read_text(encoding="utf-8")
        except OSError:
            existing = None
        if existing != text:
            atomic_write_text(current, text)
        self._install(state, len(text.encode("utf-8")))

    # -- the WAL commit protocol -------------------------------------------

    def _commit(self, op: str, name: str, state: "ScenarioState | None") -> int:  # reprolint: locked
        """Journal append (the commit point) → apply → index update.

        ``state=None`` means drop.  Callers hold the catalog lock; the
        ``catalog.apply`` failpoint sits exactly between the durable
        append and the apply, the widest crash window the matrix kills in.
        """
        if state is not None:
            text = encode_state(state)
            size = len(text.encode("utf-8"))
            self._check_quota(op, state, size)
            record = {"op": op, "scenario": name, "state": json.loads(text)}
        else:
            text, size = "", 0
            record = {"op": op, "scenario": name, "state": None}
        lsn = self._journal.append(record)
        inject_io_fault(FP_CATALOG_APPLY)
        if state is None:
            self._scenarios.pop(name, None)
            self._sizes.pop(name, None)
            self._delta_path(name).unlink(missing_ok=True)
        else:
            atomic_write_text(self._delta_path(name), text)
            self._install(state, size)
        self._generation = lsn
        METRICS.counter("catalog_ops_total", op=op).inc()
        self._refresh_gauges()
        if lsn - self._checkpoint_lsn >= self.checkpoint_interval:
            self._checkpoint()
        return lsn

    def _check_quota(self, op: str, state: ScenarioState, size: int) -> None:  # reprolint: locked
        tenant = state.tenant
        quota = self._quotas.get(tenant, self._default_quota)
        count, used = 0, 0
        for name, existing in self._scenarios.items():
            if existing.tenant != tenant or name == state.name:
                continue
            count += 1
            used += self._sizes.get(name, 0)
        quota.check(tenant, count + 1, used + size)

    def _refresh_gauges(self) -> None:  # reprolint: locked
        usage: dict[str, int] = {}
        for state in self._scenarios.values():
            usage[state.tenant] = usage.get(state.tenant, 0) + 1
        for tenant in self._gauged_tenants - set(usage):
            METRICS.gauge("catalog_scenarios", tenant=tenant).set(0)
        for tenant, count in usage.items():
            METRICS.gauge("catalog_scenarios", tenant=tenant).set(count)
        self._gauged_tenants = set(usage)
        METRICS.gauge("catalog_delta_bytes").set(sum(self._sizes.values()))

    def _checkpoint(self) -> None:  # reprolint: locked
        """Fold the journal into ``CATALOG.json`` and truncate it.

        The manifest rename inside :func:`commit_generation` is the
        checkpoint's commit point; the journal truncation only happens
        after it, so a kill anywhere in between replays harmlessly
        (records at or below the checkpoint LSN are skipped on reopen).
        """
        scenarios = {}
        for name, state in sorted(self._scenarios.items()):
            text = encode_state(state)
            scenarios[name] = {
                "sha256": payload_digest(text),
                "bytes": len(text.encode("utf-8")),
            }
        payload = {
            "format_version": FORMAT_VERSION,
            "checkpoint_lsn": self._generation,
            "scenarios": scenarios,
        }
        commit_generation(
            self.root,
            {CATALOG_FILE: json.dumps(payload, indent=2, sort_keys=True)},
            format_version=FORMAT_VERSION,
        )
        self._journal.reset()
        self._checkpoint_lsn = self._generation

    # -- helpers ------------------------------------------------------------

    @property
    def _delta_dir(self) -> Path:
        return self.root / DELTA_DIR

    def _delta_path(self, name: str) -> Path:
        return self._delta_dir / f"{name}.json"

    def _require(self, name: str) -> ScenarioState:  # reprolint: locked
        state = self._scenarios.get(name)
        if state is None:
            raise ScenarioNotFoundError(name)
        return state

    def _normalize_cells(
        self, cells: "Mapping[Sequence[str], object] | None"
    ) -> "dict[tuple[str, ...], float | None]":
        normalized: dict[tuple[str, ...], float | None] = {}
        for address, value in (cells or {}).items():
            addr = tuple(str(coord) for coord in address)
            if value is None or is_missing(value):
                normalized[addr] = None
            else:
                try:
                    normalized[addr] = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError) as exc:
                    raise CatalogError(
                        f"scenario cell {'/'.join(addr)} has non-numeric "
                        f"value {value!r}"
                    ) from exc
        return normalized

    def _base_digest_map(self) -> dict[str, str]:  # reprolint: locked
        """Per-chunk digests of the current base cube, cached per
        ``base.version`` (computing them is one O(cube) pass)."""
        if self._base is None:
            return {}
        version = self._base.version
        cached = self._base_digest_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        digests = base_chunk_digests(self._base.cells(), self.chunk_depth)
        self._base_digest_cache = (version, digests)
        return digests

    def _digests_for(self, delta: Mapping) -> dict[str, str]:  # reprolint: locked
        current = self._base_digest_map()
        return {
            chunk: current.get(chunk, "")
            for chunk in chunks_of(delta, self.chunk_depth)
        }

    # -- read API -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._scenarios

    def __len__(self) -> int:
        with self._lock:
            return len(self._scenarios)

    @property
    def generation(self) -> int:
        """Monotone catalog version: the LSN of the last applied op.
        Cache keys derived from scenario content must include this."""
        with self._lock:
            return self._generation

    @property
    def base(self) -> "Cube | None":
        return self._base

    def get_state(self, name: str) -> ScenarioState:
        """A deep copy of one scenario's state (meta + delta)."""
        with self._lock:
            return self._require(name).copy()

    def info(self, name: str) -> ScenarioInfo:
        with self._lock:
            state = self._require(name)
            return self._info_locked(state)

    def _info_locked(self, state: ScenarioState) -> ScenarioInfo:  # reprolint: locked
        return ScenarioInfo(
            name=state.name,
            tenant=state.tenant,
            parent=state.parent,
            base_version=state.base_version,
            delta_bytes=self._sizes.get(state.name, 0),
            changed_cells=state.changed_cell_count,
            changed_chunks=len(state.changed_chunks(self.chunk_depth)),
        )

    def list_scenarios(self, tenant: "str | None" = None) -> list[ScenarioInfo]:
        with trace_span("catalog.list"), self._lock:
            return [
                self._info_locked(state)
                for name, state in sorted(self._scenarios.items())
                if tenant is None or state.tenant == tenant
            ]

    def delta_bytes(self, tenant: "str | None" = None) -> int:
        """Total encoded delta bytes (optionally one tenant's)."""
        with self._lock:
            if tenant is None:
                return sum(self._sizes.values())
            return sum(
                size
                for name, size in self._sizes.items()
                if self._scenarios[name].tenant == tenant
            )

    def stats(self) -> dict[str, int]:
        """Point-in-time counters for collectors and ``EXPLAIN`` output."""
        with self._lock:
            return {
                "scenarios": len(self._scenarios),
                "delta_bytes": sum(self._sizes.values()),
                "generation": self._generation,
                "checkpoint_lsn": self._checkpoint_lsn,
                "journal_bytes": self._journal.size_bytes(),
            }

    # -- mutating API --------------------------------------------------------

    def create(
        self,
        name: str,
        *,
        tenant: str = DEFAULT_TENANT,
        cells: "Mapping[Sequence[str], object] | None" = None,
    ) -> ScenarioInfo:
        """Create a scenario branched off the base cube."""
        with trace_span("catalog.create", scenario=name), self._lock:
            validate_scenario_name(name)
            if name in self._scenarios:
                raise ScenarioExistsError(name)
            delta = self._normalize_cells(cells)
            state = ScenarioState(
                name=name,
                tenant=tenant,
                parent="",
                base_version=self._base.version if self._base is not None else 0,
                base_digests=self._digests_for(delta),
                delta=delta,
            )
            self._commit("create", name, state)
            return self._info_locked(state)

    def fork(
        self,
        name: str,
        source: "str | None" = None,
        *,
        tenant: "str | None" = None,
    ) -> ScenarioInfo:
        """Branch a new scenario off ``source`` (or off the base cube).

        The fork copies only the source's *delta* — memory and disk keep
        scaling with changed cells, not cube size × scenarios.
        """
        with trace_span("catalog.fork", scenario=name, source=source or ""), self._lock:
            validate_scenario_name(name)
            if name in self._scenarios:
                raise ScenarioExistsError(name)
            if source is None:
                origin = ScenarioState(
                    name=name,
                    tenant=tenant or DEFAULT_TENANT,
                    parent="",
                    base_version=(
                        self._base.version if self._base is not None else 0
                    ),
                )
            else:
                parent = self._require(source)
                origin = ScenarioState(
                    name=name,
                    tenant=tenant or parent.tenant,
                    parent=source,
                    base_version=parent.base_version,
                    base_digests=dict(parent.base_digests),
                    delta=dict(parent.delta),
                )
            self._commit("fork", name, origin)
            return self._info_locked(origin)

    def update(
        self,
        name: str,
        cells: "Mapping[Sequence[str], object] | None" = None,
        *,
        clear: "Iterable[Sequence[str]]" = (),
    ) -> ScenarioInfo:
        """Apply cell overrides to a scenario (``None`` values tombstone
        the cell); ``clear`` removes overrides so cells read the base
        again."""
        with trace_span("catalog.update", scenario=name), self._lock:
            state = self._require(name).copy()
            for address in clear:
                state.delta.pop(tuple(str(c) for c in address), None)
            state.delta.update(self._normalize_cells(cells))
            state.base_digests = self._digests_for(state.delta)
            self._commit("update", name, state)
            return self._info_locked(state)

    def merge(
        self,
        source: str,
        into: str,
        *,
        on_conflict: str = "raise",
    ) -> ScenarioInfo:
        """Fold scenario ``source``'s delta into scenario ``into``.

        Conflicts are chunks both branches changed differently
        (:func:`~repro.catalog.model.conflicting_chunks`).
        ``on_conflict``: ``"raise"`` (default, typed
        :class:`~repro.errors.ScenarioConflictError`), ``"ours"`` (keep
        ``into``'s version of conflicting chunks) or ``"theirs"`` (take
        ``source``'s).
        """
        with trace_span("catalog.merge", source=source, into=into), self._lock:
            self._check_resolution(on_conflict)
            src = self._require(source)
            dst = self._require(into)
            conflicts, addresses = conflicting_chunks(
                dst.delta, src.delta, self.chunk_depth
            )
            if conflicts and on_conflict == "raise":
                raise ScenarioConflictError(
                    f"cannot merge {source!r} into {into!r}",
                    chunks=conflicts,
                    addresses=addresses,
                )
            conflicted = set(conflicts)
            merged = dict(dst.delta)
            if on_conflict == "theirs":
                merged = {
                    addr: value
                    for addr, value in merged.items()
                    if chunk_key(addr, self.chunk_depth) not in conflicted
                }
            for addr, value in src.delta.items():
                if (
                    on_conflict == "ours"
                    and chunk_key(addr, self.chunk_depth) in conflicted
                ):
                    continue
                merged[addr] = value
            digests = dict(dst.base_digests)
            for chunk, digest in src.base_digests.items():
                if chunk not in digests or (
                    chunk in conflicted and on_conflict == "theirs"
                ):
                    digests[chunk] = digest
            state = ScenarioState(
                name=dst.name,
                tenant=dst.tenant,
                parent=dst.parent,
                base_version=dst.base_version,
                base_digests=digests,
                delta=merged,
            )
            self._commit("merge", into, state)
            return self._info_locked(state)

    def rebase(self, name: str, *, on_conflict: str = "raise") -> ScenarioInfo:
        """Move a scenario onto the *current* base cube version.

        A chunk conflicts when the base's cells under it changed since
        the scenario recorded its pre-image digest.  ``on_conflict``:
        ``"raise"``, ``"ours"`` (keep the scenario's overrides anyway)
        or ``"theirs"`` (drop overrides in conflicting chunks, so those
        cells read the moved base).
        """
        with trace_span("catalog.rebase", scenario=name), self._lock:
            self._check_resolution(on_conflict)
            if self._base is None:
                raise CatalogError(
                    "catalog has no base cube bound; rebase requires one "
                    "(open the catalog through Warehouse.attach_catalog)"
                )
            state = self._require(name).copy()
            current = self._base_digest_map()
            conflicts = tuple(
                chunk
                for chunk, recorded in sorted(state.base_digests.items())
                if current.get(chunk, "") != recorded
            )
            if conflicts and on_conflict == "raise":
                conflicted = set(conflicts)
                addresses = tuple(
                    addr
                    for addr in sorted(state.delta)
                    if chunk_key(addr, self.chunk_depth) in conflicted
                )
                raise ScenarioConflictError(
                    f"cannot rebase {name!r}: the base cube moved under it",
                    chunks=conflicts,
                    addresses=addresses,
                )
            if on_conflict == "theirs" and conflicts:
                conflicted = set(conflicts)
                state.delta = {
                    addr: value
                    for addr, value in state.delta.items()
                    if chunk_key(addr, self.chunk_depth) not in conflicted
                }
            state.base_version = self._base.version
            state.base_digests = self._digests_for(state.delta)
            self._commit("rebase", name, state)
            return self._info_locked(state)

    def drop(self, name: str) -> None:
        """Remove a scenario (journaled like every other mutation)."""
        with trace_span("catalog.drop", scenario=name), self._lock:
            self._require(name)
            self._commit("drop", name, None)

    @staticmethod
    def _check_resolution(on_conflict: str) -> None:
        if on_conflict not in ("raise", "ours", "theirs"):
            raise CatalogError(
                f"on_conflict must be 'raise', 'ours' or 'theirs', "
                f"not {on_conflict!r}"
            )

    # -- derived views -------------------------------------------------------

    def diff(self, a: str, b: str) -> ScenarioDiff:
        """Containment / overlap / changed-cell report between two
        scenarios (the comparative diff operator of "A Cube Algebra with
        Comparative Operations", PAPERS.md)."""
        with trace_span("catalog.diff", a=a, b=b), self._lock:
            return diff_states(
                self._require(a), self._require(b), self.chunk_depth
            )

    def materialize(self, name: str) -> Cube:
        """The scenario as a frozen cube: base copy + delta applied.

        Results are cached in a :class:`ScenarioCache` keyed on
        ``(base.version, catalog.generation)`` — a merge or rebase bumps
        the generation, so stale cubes can never be served.
        """
        with trace_span("catalog.materialize", scenario=name), self._lock:
            state = self._require(name)
            if self._base is None:
                raise CatalogError(
                    "catalog has no base cube bound; materialize requires "
                    "one (open the catalog through Warehouse.attach_catalog)"
                )
            version = (self._base.version, self._generation)
            cached = self._cache.get(("catalog", name), version)
            if cached is not None:
                return cached
            cube = self._base.copy()
            # One bulk mutation instead of a set_value round trip per
            # delta cell: a single version bump and one locked pass.
            cube.apply_overrides(sorted(state.delta.items()))
            cube.freeze()
            self._cache.put(("catalog", name), version, cube)
            return cube

    @property
    def cache(self) -> "ScenarioCache[Cube]":
        return self._cache

    # -- maintenance ---------------------------------------------------------

    def gc(self) -> dict[str, int]:
        """Checkpoint, truncate the journal, and sweep orphan delta files.

        Returns a report of what was reclaimed.  Orphans (delta files no
        live scenario owns — e.g. left by a crash between a replayed drop
        and its file deletion) are removed; ``*.corrupt`` quarantine
        files are counted but deliberately kept for post-mortems.
        """
        with trace_span("catalog.gc"), self._lock:
            journal_before = self._journal.size_bytes()
            self._checkpoint()
            orphans = 0
            for path in sorted(self._delta_dir.glob("*.json")):
                if path.stem not in self._scenarios:
                    path.unlink(missing_ok=True)
                    orphans += 1
            corrupt = len(list(self._delta_dir.glob(f"*{_CORRUPT_SUFFIX}"))) + len(
                list(self.root.glob(f"*{_CORRUPT_SUFFIX}"))
            )
            return {
                "checkpoint_lsn": self._checkpoint_lsn,
                "journal_bytes_reclaimed": max(
                    0, journal_before - self._journal.size_bytes()
                ),
                "orphan_deltas_removed": orphans,
                "corrupt_files_kept": corrupt,
            }

    def flush(self) -> None:
        """Force journal bytes to disk (only meaningful with
        ``sync=False``)."""
        self._journal.flush()

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "ScenarioCatalog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"ScenarioCatalog({str(self.root)!r}, "
                f"{len(self._scenarios)} scenarios, "
                f"generation {self._generation})"
            )
