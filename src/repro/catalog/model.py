"""Data model of the scenario catalog: deltas, chunks, canonical encoding.

A **scenario** is a named, delta-encoded branch of the warehouse: a
mapping ``address -> override`` where an override is either a float (the
scenario's hypothetical value for that cell) or ``None`` (a tombstone —
the cell reads ⊥ inside the scenario even though the base stores data).
Everything else reads through to the base cube, so a scenario costs
memory and disk proportional to *what it changed*, never to the cube —
the same copy-on-write contract as :meth:`ChunkStore.fork
<repro.storage.chunk_store.ChunkStore.fork>`, applied to the semantic
cube (per the delta-table encoding of "New Dimension Value Introduction
for In-Memory What-If Analysis", PAPERS.md).

Deltas are partitioned into **chunks** for conflict detection: the chunk
key of an address is its first ``chunk_depth`` coordinates (JSON-encoded,
so keys are unambiguous).  Two branches that changed the same chunk in
different ways cannot be merged or rebased automatically.

The canonical encoding (sorted cells, sorted keys, compact separators) is
shared by the journal and the per-scenario delta files, so a payload has
exactly one byte representation and one SHA-256 — the digest recorded at
append time is the digest verified at recovery time.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import CatalogError
from repro.olap.schema import Address

__all__ = [
    "Delta",
    "ScenarioState",
    "canonical_json",
    "chunk_key",
    "chunks_of",
    "conflicting_chunks",
    "decode_state",
    "encode_state",
    "payload_digest",
    "validate_scenario_name",
]

#: address -> override: a float replaces the base value, ``None`` is a
#: tombstone (the cell reads ⊥ inside the scenario).
Delta = dict[Address, "float | None"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,127}$")


def validate_scenario_name(name: str) -> str:
    """Check a scenario name is usable as a file stem; returns it.

    Names double as delta file names, so they are restricted to a safe
    alphabet (no separators, no leading dot) and 128 characters.
    """
    if not _NAME_RE.match(name):
        raise CatalogError(
            f"invalid scenario name {name!r}: must match "
            "[A-Za-z0-9][A-Za-z0-9_.-]{0,127}"
        )
    return name


def chunk_key(address: Address, chunk_depth: int = 1) -> str:
    """The chunk an address belongs to: its first ``chunk_depth``
    coordinates, JSON-encoded so distinct prefixes never collide."""
    return json.dumps(list(address[:chunk_depth]), separators=(",", ":"))


def chunks_of(delta: Mapping[Address, "float | None"], chunk_depth: int) -> dict[str, list[Address]]:
    """Group a delta's addresses by chunk key (addresses sorted)."""
    grouped: dict[str, list[Address]] = {}
    for address in sorted(delta):
        grouped.setdefault(chunk_key(address, chunk_depth), []).append(address)
    return grouped


def conflicting_chunks(
    ours: Mapping[Address, "float | None"],
    theirs: Mapping[Address, "float | None"],
    chunk_depth: int,
) -> tuple[tuple[str, ...], tuple[Address, ...]]:
    """Chunks both deltas changed *differently*, plus the addresses inside.

    Every chunk both deltas touch is one neither branch can merge past
    without the other; they are walked in chunk-key order.  A chunk where
    both deltas agree cell-for-cell is *not* a conflict — the branches
    made the same change.
    """
    ours_chunks = chunks_of(ours, chunk_depth)
    theirs_chunks = chunks_of(theirs, chunk_depth)
    conflicts: list[str] = []
    addresses: list[Address] = []
    for chunk in sorted(set(ours_chunks) & set(theirs_chunks)):
        in_ours = {addr: ours[addr] for addr in ours_chunks[chunk]}
        in_theirs = {addr: theirs[addr] for addr in theirs_chunks[chunk]}
        if in_ours == in_theirs:
            continue  # identical change on both sides: no conflict
        conflicts.append(chunk)
        addresses.extend(sorted(set(in_ours) | set(in_theirs)))
    return tuple(conflicts), tuple(addresses)


@dataclass
class ScenarioState:
    """The full persisted state of one scenario (meta + delta).

    ``base_digests`` maps each chunk the delta touches to the SHA-256 of
    the *base cube's* cells in that chunk at the moment the scenario last
    wrote it — the pre-image fingerprint rebase compares against the
    moved base to detect conflicts without a base changelog.
    """

    name: str
    tenant: str
    parent: str  #: "" = branched off the base cube
    base_version: int  #: Cube.version the scenario was last (re)based on
    base_digests: dict[str, str] = field(default_factory=dict)
    delta: Delta = field(default_factory=dict)

    def changed_chunks(self, chunk_depth: int) -> tuple[str, ...]:
        return tuple(sorted(chunks_of(self.delta, chunk_depth)))

    @property
    def changed_cell_count(self) -> int:
        return len(self.delta)

    def copy(self) -> "ScenarioState":
        return ScenarioState(
            name=self.name,
            tenant=self.tenant,
            parent=self.parent,
            base_version=self.base_version,
            base_digests=dict(self.base_digests),
            delta=dict(self.delta),
        )


def canonical_json(payload: object) -> str:
    """The one byte representation a payload has (sorted, compact)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encode_state(state: ScenarioState) -> str:
    """Canonical JSON text of a scenario's persisted state."""
    cells = sorted(
        [list(address) + [value] for address, value in state.delta.items()]
    )
    return canonical_json(
        {
            "name": state.name,
            "tenant": state.tenant,
            "parent": state.parent,
            "base_version": state.base_version,
            "base_digests": dict(sorted(state.base_digests.items())),
            "cells": cells,
        }
    )


def decode_state(text: str, *, source: str = "<payload>") -> ScenarioState:
    """Parse :func:`encode_state` output; typed error on any malformation."""
    try:
        payload = json.loads(text)
        delta: Delta = {}
        for row in payload["cells"]:
            value = row[-1]
            delta[tuple(str(c) for c in row[:-1])] = (
                None if value is None else float(value)
            )
        return ScenarioState(
            name=str(payload["name"]),
            tenant=str(payload["tenant"]),
            parent=str(payload["parent"]),
            base_version=int(payload["base_version"]),
            base_digests={
                str(k): str(v) for k, v in payload["base_digests"].items()
            },
            delta=delta,
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CatalogError(
            f"scenario state in {source} is not parseable: {exc}"
        ) from exc


def base_chunk_digests(
    cells: Iterable[tuple[Address, float]], chunk_depth: int
) -> dict[str, str]:
    """SHA-256 per chunk over a base cube's cells (leaf + stored derived).

    The digest of a chunk covers every base cell whose address falls in
    it, in sorted order — the pre-image fingerprint recorded on fork and
    compared on rebase.
    """
    grouped: dict[str, list[tuple[Address, float]]] = {}
    for address, value in cells:
        grouped.setdefault(chunk_key(address, chunk_depth), []).append(
            (address, value)
        )
    return {
        chunk: payload_digest(
            canonical_json(sorted([list(a) + [v] for a, v in rows]))
        )
        for chunk, rows in grouped.items()
    }
