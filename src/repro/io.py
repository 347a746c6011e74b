"""Warehouse persistence: save/load a warehouse as a JSON directory.

Layout::

    <path>/
      MANIFEST.json   generation number + SHA-256/byte-length per data file
      schema.json     dimensions, varying registry, rules, named sets, names
      cells.json      leaf cells and stored (materialised) aggregates
      *.prev          the previous good generation (kept until the next save)
      *.corrupt       quarantined files that failed integrity checks

Everything is plain JSON with deterministic ordering, so a saved warehouse
diffs cleanly under version control.  The round trip is lossless for the
data model this library exposes: hierarchies, ordered/measures flags,
varying assignments (including invalid moments), formula rules with
scopes, named sets, and both leaf and stored derived cells.

Saves are crash-safe (see :mod:`repro.durability`): every file is staged,
fsynced, and renamed, with the manifest rename as the commit point, and
the previous generation retained as ``*.prev``.  :func:`load_warehouse`
verifies checksums, quarantines torn or corrupt files as ``*.corrupt``,
restores the last-good generation when the newest one is damaged, and
raises :class:`~repro.errors.WarehouseCorruptionError` naming exactly what
was lost when no generation survives.  Stores written before manifests
existed (plain ``schema.json`` + ``cells.json``) still load.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.durability import RecoveredStore, commit_generation, recover_store
from repro.errors import WarehouseFormatError
from repro.faults import inject_io_fault, register_failpoint
from repro.obs.trace import trace_span
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension, Member
from repro.olap.formula import format_expr
from repro.olap.rules import RuleEngine
from repro.olap.schema import CubeSchema
from repro.warehouse import Warehouse

__all__ = ["save_warehouse", "load_warehouse", "load_warehouse_recovered"]

FORMAT_VERSION = 1

SCHEMA_FILE = "schema.json"
CELLS_FILE = "cells.json"

FP_SAVE_SCHEMA = register_failpoint("io.save.schema")
FP_SAVE_CELLS = register_failpoint("io.save.cells")
FP_SAVE_COMMIT = register_failpoint("io.save.commit")
FP_LOAD_SCHEMA = register_failpoint("io.load.schema")
FP_LOAD_CELLS = register_failpoint("io.load.cells")


def _member_tree(member: Member) -> dict:
    return {
        "name": member.name,
        "children": [_member_tree(child) for child in member.children],
    }


def _dimension_payload(dimension: Dimension) -> dict:
    return {
        "name": dimension.name,
        "ordered": dimension.ordered,
        "is_measures": dimension.is_measures,
        "members": [_member_tree(child) for child in dimension.root.children],
    }


def _rules_payload(rules: RuleEngine | None) -> list[dict]:
    if rules is None:
        return []
    return [
        {
            "target": rule.target,
            "dimension": rule.dimension,
            "formula": format_expr(rule.expression),
            "scope": dict(sorted(rule.scope.items())),
        }
        for rule in rules.rules
    ]


def save_warehouse(warehouse: Warehouse, path: "str | Path") -> Path:
    """Write the warehouse to ``path`` (created if needed); returns it.

    The save is atomic at generation granularity: a crash at any point
    leaves either the previous store or the new one loadable, never a
    half-written mix (see :mod:`repro.durability`).
    """
    with trace_span("io.save") as span:
        root = _save_warehouse(warehouse, Path(path))
        if span is not None:
            span.set(path=str(root))
    return root


def _save_warehouse(warehouse: Warehouse, root: Path) -> Path:
    inject_io_fault(FP_SAVE_SCHEMA)
    schema = warehouse.schema
    payload = {
        "format_version": FORMAT_VERSION,
        "name": warehouse.name,
        "aliases": sorted(warehouse.aliases),
        "dimensions": [_dimension_payload(d) for d in schema.dimensions],
        "varying": {
            name: {
                "parameter": varying.parameter.name,
                "assignments": varying.assignments(),
            }
            for name, varying in sorted(schema.varying.items())
        },
        "rules": _rules_payload(warehouse.cube.rules),
        "named_sets": {
            named.name: list(named.members)
            for named in warehouse.named_sets()
        },
    }
    schema_text = json.dumps(payload, indent=2, sort_keys=True)

    inject_io_fault(FP_SAVE_CELLS)
    cells = {
        "leaf": sorted(
            [list(addr) + [value] for addr, value in warehouse.cube.leaf_cells()]
        ),
        "derived": sorted(
            [
                list(addr) + [value]
                for addr, value in warehouse.cube.stored_derived_cells()
            ]
        ),
    }
    cells_text = json.dumps(cells, indent=0)

    inject_io_fault(FP_SAVE_COMMIT)
    commit_generation(
        root,
        {SCHEMA_FILE: schema_text, CELLS_FILE: cells_text},
        format_version=FORMAT_VERSION,
    )
    return root


def _load_members(dimension: Dimension, nodes: list[dict], parent: str | None) -> None:
    for node in nodes:
        dimension.add_member(node["name"], parent)
        _load_members(dimension, node["children"], node["name"])


def _read_json(path: Path, *, what: str) -> dict:
    """Read one store file as JSON, mapping every failure to a typed
    :class:`~repro.errors.WarehouseFormatError`."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise WarehouseFormatError(f"{what} missing", path=str(path)) from exc
    except OSError as exc:
        raise WarehouseFormatError(
            f"{what} unreadable: {exc}", path=str(path)
        ) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WarehouseFormatError(
            f"{what} is not valid JSON (truncated or garbled): {exc}",
            path=str(path),
        ) from exc
    if not isinstance(payload, dict):
        raise WarehouseFormatError(
            f"{what} must be a JSON object, found {type(payload).__name__}",
            path=str(path),
        )
    return payload


def _check_version(payload: dict, path: Path) -> None:
    version = payload.get("format_version")
    if version == FORMAT_VERSION:
        return
    if isinstance(version, int) and version > FORMAT_VERSION:
        raise WarehouseFormatError(
            f"warehouse format version {version} is newer than this build "
            f"reads ({FORMAT_VERSION}); upgrade the library to load it",
            path=str(path),
            format_version=version,
        )
    raise WarehouseFormatError(
        f"unsupported warehouse format version {version!r} "
        f"(this build reads {FORMAT_VERSION})",
        path=str(path),
        format_version=version,
    )


def _build_warehouse(schema_path: Path, cells_path: Path) -> Warehouse:
    inject_io_fault(FP_LOAD_SCHEMA)
    payload = _read_json(schema_path, what="schema.json")
    _check_version(payload, schema_path)

    try:
        dimensions = []
        for spec in payload["dimensions"]:
            dimension = Dimension(
                spec["name"], ordered=spec["ordered"], is_measures=spec["is_measures"]
            )
            _load_members(dimension, spec["members"], None)
            dimensions.append(dimension)
        schema = CubeSchema(dimensions)

        for name, varying_spec in payload["varying"].items():
            varying = schema.make_varying(name, varying_spec["parameter"])
            varying.load_assignments(varying_spec["assignments"])

        rules = RuleEngine(schema)
        for rule_spec in payload["rules"]:
            rules.define(
                rule_spec["target"],
                rule_spec["formula"],
                dimension=rule_spec["dimension"],
                scope=rule_spec["scope"],
            )
    except (KeyError, TypeError) as exc:
        raise WarehouseFormatError(
            f"schema.json is structurally invalid: missing or mistyped "
            f"field ({exc})",
            path=str(schema_path),
            format_version=payload.get("format_version"),
        ) from exc

    cube = Cube(schema, rules)
    inject_io_fault(FP_LOAD_CELLS)
    cells = _read_json(cells_path, what="cells.json")
    try:
        cube.load(
            (tuple(row[:-1]), row[-1]) for row in cells["leaf"] + cells["derived"]
        )
    except (KeyError, TypeError) as exc:
        raise WarehouseFormatError(
            f"cells.json is structurally invalid: {exc}",
            path=str(cells_path),
            format_version=payload.get("format_version"),
        ) from exc

    try:
        warehouse = Warehouse(
            schema, cube, name=payload["name"], aliases=payload["aliases"]
        )
        for name, members in payload["named_sets"].items():
            warehouse.define_named_set(name, members)
    except (KeyError, TypeError) as exc:
        raise WarehouseFormatError(
            f"schema.json is structurally invalid: missing or mistyped "
            f"field ({exc})",
            path=str(schema_path),
            format_version=payload.get("format_version"),
        ) from exc
    return warehouse


def load_warehouse_recovered(
    path: "str | Path",
) -> tuple[Warehouse, RecoveredStore]:
    """Like :func:`load_warehouse`, but also return the
    :class:`~repro.durability.RecoveredStore` describing any integrity
    repairs (quarantines, generation restores) performed on the way in."""
    root = Path(path)
    with trace_span("io.load", path=str(root)):
        recovered = recover_store(
            root, expected_files=(SCHEMA_FILE, CELLS_FILE)
        )
        for name in (SCHEMA_FILE, CELLS_FILE):
            if name not in recovered.files:
                raise WarehouseFormatError(
                    f"store manifest does not list {name}",
                    path=str(root / "MANIFEST.json"),
                )
        warehouse = _build_warehouse(
            recovered.files[SCHEMA_FILE], recovered.files[CELLS_FILE]
        )
    return warehouse, recovered


def load_warehouse(path: "str | Path") -> Warehouse:
    """Rebuild a warehouse saved by :func:`save_warehouse`.

    Integrity policy: checksums are verified against ``MANIFEST.json``;
    damaged files are quarantined as ``*.corrupt`` and the previous
    generation is restored when it verifies in full.  A store beyond
    repair raises :class:`~repro.errors.WarehouseCorruptionError`;
    a file that is missing/garbled in a pre-manifest (legacy) store
    raises :class:`~repro.errors.WarehouseFormatError`.
    """
    warehouse, _ = load_warehouse_recovered(path)
    return warehouse
