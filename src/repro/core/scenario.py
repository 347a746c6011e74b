"""What-if scenarios: negative (perspectives) and positive (changes).

This module composes the algebra of Sec. 4 exactly as Theorem 4.1
prescribes:

* a **negative scenario** (Sec. 3.3) with perspectives P, semantics *sem*
  and mode *mode* evaluates as ``E ∘ ρ(·, Φ_sem(VS_in, P)) ∘ σ`` — the
  active-instance filter σ is folded into Φ (instances whose output
  validity set is empty are dropped);
* a **positive scenario** (Sec. 3.4) with change relation R evaluates as
  ``E ∘ S(·, R)``.

The result of applying a scenario is a :class:`WhatIfCube` — the paper's
*perspective cube* — a read-only facade pairing the hypothetical leaf data
with the mode-appropriate source of non-leaf (aggregate) values: the
re-evaluated output for **visual** mode, the stage's input cube for
**non-visual** mode.

The scenario chain is the one executable form of the algebra: a query's
WITH clause becomes a list of scenarios, :func:`apply_scenarios` is the
only place a chain is applied (every query and the shard workers run
through it), and each scenario renders itself in the algebra
(:meth:`NegativeScenario.describe` / :meth:`PositiveScenario.describe`) —
there is no separate plan tree to execute, analyze or print.

Φ and R transform validity sets — metadata; only ρ and S move cells.  So
each scenario has a **structure half** (``structure``: the hypothetical
structure and the output validity sets, from the varying structure and
the names of the members holding data) that its ``apply`` runs before
``relocate`` / ``split``, and :func:`chain_structure` threads a chain's
structure halves alone: what axis resolution, EXPLAIN and the static
analyzer need of a scenario, at O(members) and without touching a cell.

Theorem 4.1 applies the chain to *the result of the core query*, σ first.
So a query is answered **resolve → footprint → σ → ρ/S**: axes resolve
from the structure half, the coordinates the cells name are the query's
*footprint* (:data:`Footprint`), :func:`footprint_rows` turns it into the
base rows that can reach one of those cells, and ρ / S run over those
rows only (:func:`apply_chain`).  The full view is the unrestricted case
of the same call.  A NON_VISUAL last stage's ρ / S runs only if a cell
lies at leaf level on every dimension: every other cell of such a stage
is its input cube's (Sec. 3.3), so its leaves wait for a reader
(:attr:`WhatIfCube.leaf_cube`) — and, when it is the first stage too,
so do the footprint's rows.

Both halves are array programs over the varying structure's instance
table: the members holding data are member numbers, and Φ's and S's
output validity sets are a :class:`~repro.core.perspective.ValidityMap`
over that table, whose :class:`ValiditySet` objects are built only for a
reader of its values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import AbstractSet, Any, Callable, Mapping, NamedTuple, Sequence, TypeAlias

import numpy as np

from repro.core.operators import (
    ChangeTuple,
    _hypothetical_structure,
    relocate,
    split,
)
from repro.core.perspective import (
    Mode,
    PerspectiveSet,
    Semantics,
    ValidityMap,
    phi_table,
)
from repro.validity import ValiditySet
from repro.errors import QueryError
from repro.lint.lockdep import make_lock
from repro.olap.cube import Cube
from repro.olap.instances import InstanceTable, MemberInstance, VaryingDimension
from repro.olap.missing import Missing
from repro.olap.schema import CubeSchema
from repro.perf import config as perf_config

__all__ = [
    "AppliedChain",
    "ChainStructure",
    "Footprint",
    "WhatIfCube",
    "NegativeScenario",
    "PositiveScenario",
    "apply_chain",
    "apply_scenarios",
    "chain_structure",
    "expand_instances",
    "footprint_rows",
    "phi_validity",
]

CellValue: TypeAlias = "float | Missing"
#: one stage's structure half, as ``scenario.structure`` returns it: the
#: hypothetical structure S leaves (``None`` for ρ) and the output validity
#: sets by instance full path
Stage: TypeAlias = "tuple[VaryingDimension | None, ValidityMap]"
#: the members holding data, as :func:`_members_with_data` lists them:
#: member numbers of the dimension's instance tables, or names
Members: TypeAlias = "np.ndarray | Sequence[str]"
#: σ_F's base rows as :func:`apply_scenarios` takes them: leaf ids, ``None``
#: for every leaf, or a callable computing one of the two when first needed
Rows: TypeAlias = "np.ndarray | None | Callable[[], np.ndarray | None]"
#: what a query's cells name: per dimension the coordinates some cell
#: carries there.  A dimension left out is unrestricted (a cell names its
#: root, or nothing may be assumed about the reader); ``{}`` is the whole
#: cube.
Footprint: TypeAlias = "Mapping[str, frozenset[str]]"


class WhatIfCube:
    """A perspective cube: hypothetical leaves + mode-appropriate aggregates.

    Supports the same read API as :class:`~repro.olap.cube.Cube`
    (``effective_value`` / ``value``), so MDX evaluation and the algebra
    operators can consume it transparently.

    A NON_VISUAL stage may hand in ``build`` — the ρ / S call that moves
    its leaves — instead of ``leaf_cube``: its aggregates are its input's,
    so the leaves are moved only when someone reads them
    (:attr:`leaf_cube`), once, however many threads ask at the same time.
    ``validity_out`` is kept as handed in, not copied.
    """

    def __init__(
        self,
        leaf_cube: "Cube | None",
        aggregate_cube: Cube,
        mode: Mode,
        validity_out: Mapping[str, ValiditySet] | None = None,
        varying_out: VaryingDimension | None = None,
        build: "Callable[[], Cube] | None" = None,
        footprint_rows: "int | None" = None,
    ) -> None:
        self._leaf_cube = leaf_cube
        self._build = build
        self._lock = make_lock("WhatIfCube._lock", reentrant=False)
        self.aggregate_cube = aggregate_cube
        self.mode = mode
        #: output validity sets keyed by member-instance full path
        self.validity_out: Mapping[str, ValiditySet] = (
            {} if validity_out is None else validity_out
        )
        #: base leaves the chain's first stage read (``None`` until a
        #: deferred first stage has read them)
        self.footprint_rows = footprint_rows
        #: hypothetical varying structure (positive scenarios)
        self.varying_out = varying_out
        #: over the whole chain that produced this cube, per varying
        #: dimension (filled by :func:`apply_scenarios`; a later stage on
        #: the same dimension overwrites): the hypothetical structure S
        #: left behind, and the instances with a non-empty output validity
        self.varying: dict[str, VaryingDimension] = {}
        self.surviving: dict[str, AbstractSet[str]] = {}

    @property
    def leaf_cube(self) -> Cube:
        """The hypothetical leaves: moved by the first reader when the
        stage deferred them; a racing reader waits for that one build,
        and a build that raises leaves the next reader to try again."""
        leaves = self._leaf_cube
        if leaves is None:
            with self._lock:
                leaves = self._leaf_cube
                if leaves is None:
                    leaves = self._leaf_cube = self._build()
                    self._build = None
        return leaves

    def with_aggregates(self, aggregate_cube: Cube) -> "WhatIfCube":
        """This cube over another aggregate half — a frozen copy of the one
        it reads — sharing its leaves: deferred ones are moved once, by
        whichever of the two is read first."""
        leaves = self._leaf_cube
        clone = WhatIfCube(
            leaves,
            aggregate_cube,
            self.mode,
            self.validity_out,
            self.varying_out,
            build=None if leaves is not None else lambda: self.leaf_cube,
            footprint_rows=self.footprint_rows,
        )
        clone.varying, clone.surviving = self.varying, self.surviving
        return clone

    @property
    def leaves_moved(self) -> bool:
        """Whether :attr:`leaf_cube` exists yet (always, unless deferred)."""
        return self._leaf_cube is not None

    @property
    def schema(self) -> CubeSchema:
        return self.aggregate_cube.schema

    def effective_value(self, address: Sequence[str]) -> CellValue:
        """The one cell rule (:meth:`Cube.effective_value`): the address is
        validated and leaf-tested once, and the half that answers it — the
        leaves or the aggregates — reads it with no second test."""
        addr = tuple(address)
        if self.schema.is_leaf_address(addr):
            return self.leaf_cube._cell(addr, True)
        return self.aggregate_cube._cell(addr, False)

    def value(self, address: Sequence[str]) -> CellValue:
        return self.effective_value(address)

    def at(self, **coords: str) -> CellValue:
        return self.effective_value(self.schema.address(**coords))

    def as_cube(self) -> Cube:
        """The leaf cube (useful for chaining scenarios or exporting)."""
        return self.leaf_cube

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        leaves = self._leaf_cube
        return (
            f"WhatIfCube(mode={self.mode.value}, "
            + ("leaves not moved, " if leaves is None else f"{leaves.n_leaf_cells} leaf cells, ")
            + f"{len(self.validity_out)} instances)"
        )


def _picked(rows: Rows, cube: Cube) -> "tuple[np.ndarray | None, int]":
    """The rows a stage reads of ``cube`` (computed now, if ``rows`` is a
    callable) and how many they are."""
    picked = rows() if callable(rows) else rows
    return picked, cube.n_leaf_cells if picked is None else len(picked)


def _view(
    scenario: "NegativeScenario | PositiveScenario",
    cube: Cube,
    out: Cube,
    n_rows: int,
    validity_out: Mapping[str, ValiditySet],
    varying_out: "VaryingDimension | None" = None,
) -> WhatIfCube:
    """A stage's view over the leaves ``out`` it moved from ``n_rows``
    rows of ``cube``: its aggregates are ``out``'s own, re-evaluated, in
    VISUAL mode and ``cube``'s in NON_VISUAL mode."""
    aggregates = cube
    if scenario.mode is Mode.VISUAL:
        out.clear_stored_derived()
        aggregates = out
    return WhatIfCube(
        out, aggregates, scenario.mode, validity_out, varying_out, footprint_rows=n_rows
    )


def _deferred(
    scenario: "NegativeScenario | PositiveScenario",
    cube: Cube,
    rows: Rows,
    move: "Callable[[np.ndarray | None], Cube]",
    validity_out: Mapping[str, ValiditySet],
    varying_out: "VaryingDimension | None" = None,
) -> WhatIfCube:
    """A NON_VISUAL stage's view whose leaf half — the rows ``rows`` of
    ``cube`` (computed then, if a callable) moved by ``move`` — waits for
    the first reader of :attr:`WhatIfCube.leaf_cube`, under a
    ``scenario.leaves`` span of its own."""

    def build() -> Cube:
        from repro.obs.trace import trace_span

        with trace_span(
            "scenario.leaves", kind=type(scenario).__name__, dimension=scenario.dimension
        ):
            picked, view.footprint_rows = _picked(rows, cube)
            return move(picked)

    view = WhatIfCube(None, cube, scenario.mode, validity_out, varying_out, build=build)
    return view


def _algebra(movement: str, mode: Mode) -> str:
    """Theorem 4.1's expression for one stage: E re-evaluates the
    aggregates over the moved leaves in visual mode only."""
    return f"E ∘ {movement}" if mode is Mode.VISUAL else movement


def _members_with_data(cube: Cube, dim_name: str) -> Members:
    """Members holding leaf data, once each however many instance
    coordinates carry their cells: their numbers in the dimension's
    instance tables, ascending (name order), off the cube's coordinate
    counts and the coordinates' member numbers.  A coordinate naming no
    member of the skeleton has no number: then the sorted names, its own
    included, for the stage to refuse after its own checks
    (:func:`_numbered`)."""
    table = cube.schema.varying_dimension(dim_name).instance_table()
    coords, counts, labels = cube.rollup_index().coord_labels(
        cube.schema.dim_index(dim_name), *table.member_labels()
    )
    held = counts > 0
    strays = held & (labels < 0)
    if strays.any():
        return sorted(
            {
                *(table.members[m] for m in labels[held & (labels >= 0)].tolist()),
                *(coords[c].rsplit("/", 1)[-1] for c in np.flatnonzero(strays)),
            }
        )
    return np.flatnonzero(np.bincount(labels[held], minlength=len(table.members)))


def _numbered(table: InstanceTable, varying: VaryingDimension, members: Members) -> np.ndarray:
    """``members`` as member numbers of ``table``: numbers as they are,
    names looked up — the first that names no member refused as the
    dimension refuses it."""
    if isinstance(members, np.ndarray):
        return members
    ids = np.fromiter(
        map(table.member_id.get, members, repeat(-1)), dtype=np.int64, count=len(members)
    )
    if len(ids) and ids.min() < 0:
        varying.dimension.member(members[int(np.argmin(ids))])  # raises
    return ids


def phi_validity(
    varying: VaryingDimension,
    members: Members,
    pset: PerspectiveSet,
    semantics: Semantics,
) -> ValidityMap:
    """Φ per member (Def. 3.4 / 4.3) over every instance of ``members``
    (member numbers, or names): instance full path → output validity set,
    in member then instance order.  σ (the active filter) is implicit: an
    instance whose output set is empty is left out.  One
    :func:`~repro.core.perspective.phi_table` over the structure's
    instance table: Φ runs once per distinct input set."""
    table = varying.instance_table()
    ids = _numbered(table, varying, members)
    return phi_table(table, table.of_members(ids), pset, semantics)


def expand_instances(
    varying: VaryingDimension,
    member: str,
    ancestors: Sequence[str],
    surviving: "AbstractSet[str] | None",
) -> list[MemberInstance]:
    """The instances a reference to a varying leaf member names: those
    under every named ancestor and, when a scenario touched the dimension
    (``surviving`` is not ``None``), with a non-empty output validity."""
    instances = varying.instances_of(member)
    if ancestors:
        wanted = set(ancestors)
        instances = [i for i in instances if wanted <= set(i.path[:-1])]
    if surviving is not None:
        instances = [i for i in instances if i.full_path in surviving]
    return instances


@dataclass
class NegativeScenario:
    """Perspectives over one varying dimension (Sec. 3.3, extended MDX
    ``WITH PERSPECTIVE {...} FOR <dim> <semantics> <mode>``)."""

    dimension: str
    perspectives: Sequence[str]
    semantics: Semantics = Semantics.STATIC
    mode: Mode = Mode.NON_VISUAL

    def fingerprint(self) -> tuple:
        """Canonical cache key: Theorem 4.1 makes :meth:`apply` a pure
        function of the base cube and this normalised clause, so two
        clauses with equal fingerprints yield the same perspective cube.
        P is a set — order and repetition are irrelevant to Φ."""
        return (
            "negative",
            self.dimension,
            self.semantics.value,
            self.mode.value,
            tuple(sorted(set(self.perspectives))),
        )

    def describe(self) -> dict[str, Any]:
        """This stage in the paper's algebra, as EXPLAIN reports it."""
        perspectives = list(self.perspectives)
        return {
            "operator": "Perspective",
            "algebra": _algebra("ρ(·, Φ_sem(VS, P)) ∘ σ", self.mode),
            "dimension": self.dimension,
            "perspectives": perspectives,
            "semantics": self.semantics.value,
            "mode": self.mode.value,
            "label": (
                f"Perspective[{self.dimension}: P={perspectives}, "
                f"{self.semantics.value}, {self.mode.value}]"
            ),
        }

    def structure(
        self, varying: VaryingDimension, members: Members
    ) -> "tuple[None, ValidityMap]":
        """The structure half: Φ_sem(VS_in, P) over the instances of
        ``members`` (the members holding data, as numbers or names) in
        ``varying``'s instance table.  ρ leaves the varying structure as
        it is, hence the ``None``."""
        if not self.perspectives:
            raise QueryError("a perspective clause needs at least one moment")
        if self.semantics.is_dynamic and not varying.parameter.ordered:
            raise QueryError(
                f"{self.semantics.value} semantics requires an ordered "
                f"parameter dimension; {varying.parameter.name!r} is unordered"
            )
        pset = PerspectiveSet.from_names(self.perspectives, varying)
        from repro.obs.trace import trace_span

        with trace_span("core.phi") as span:
            validity_out = phi_validity(varying, members, pset, self.semantics)
            if span is not None:
                span.set(members=len(members), instances=len(validity_out))
        return None, validity_out

    def apply(
        self,
        cube: Cube,
        varying: VaryingDimension | None = None,
        rows: Rows = None,
        structure: "Stage | None" = None,
    ) -> WhatIfCube:
        """``rows`` applies ρ to those leaves of ``cube`` only
        (:func:`footprint_rows`; a callable computes them when ρ runs);
        ``structure`` is this stage's structure half when the caller
        already ran it (once per chain, on the whole cube — Φ is not asked
        again).  A NON_VISUAL stage handed its structure half has nothing
        left to compute but its leaves: it defers them, and their rows, to
        their first reader (:class:`WhatIfCube`)."""
        varying = varying or cube.schema.varying_dimension(self.dimension)
        _, validity_out = structure or self.structure(
            varying, _members_with_data(cube, self.dimension)
        )

        def move(picked: "np.ndarray | None") -> Cube:
            operands = (cube, self.dimension, validity_out, varying)
            return relocate(*operands) if picked is None else relocate(*operands, picked)

        if structure is not None and self.mode is Mode.NON_VISUAL:
            return _deferred(self, cube, rows, move, validity_out)
        picked, n_rows = _picked(rows, cube)
        return _view(self, cube, move(picked), n_rows, validity_out)


@dataclass
class PositiveScenario:
    """Hypothetical changes R(m, o, n, t) (Sec. 3.4, extended MDX
    ``WITH CHANGES R <mode>``)."""

    dimension: str
    changes: Sequence[ChangeTuple] = field(default_factory=list)
    mode: Mode = Mode.NON_VISUAL

    def fingerprint(self) -> tuple:
        """Canonical cache key over the change relation R, normalised the
        way S applies it (``_hypothetical_structure``: a stable sort by
        moment): the order tuples of different moments are listed in is
        irrelevant, the order within one moment is not — a second move of
        one member at the same moment only validates after the first."""
        return (
            "positive",
            self.dimension,
            self.mode.value,
            tuple(
                (c.member, c.old_parent, c.new_parent, c.moment)
                for c in sorted(self.changes, key=lambda c: c.moment)
            ),
        )

    def describe(self) -> dict[str, Any]:
        """This stage in the paper's algebra, as EXPLAIN reports it."""
        return {
            "operator": "Split",
            "algebra": _algebra("S(·, R)", self.mode),
            "dimension": self.dimension,
            "changes": len(self.changes),
            "mode": self.mode.value,
            "label": (
                f"Split[{self.dimension}: {len(self.changes)} change(s), "
                f"{self.mode.value}]"
            ),
        }

    def _validity(
        self, hypo: VaryingDimension, varying: VaryingDimension, members: Members
    ) -> ValidityMap:
        """The validity sets S leaves behind, per instance of ``members``
        (numbers or names), member then instance: a managed member's
        instances under ``hypo``, every other member's under ``varying``.
        One instance table: ``hypo``'s, which differs from ``varying``'s
        in R's members alone — unless R moves a member others hang below,
        whose instances S leaves where they were: then ``varying``'s
        table with ``hypo``'s managed members re-read."""
        table = hypo.instance_table()
        if any(hypo.has_below(change.member) for change in self.changes):
            table = varying.instance_table().patched(hypo, hypo.managed_members())
        instances = table.of_members(_numbered(table, varying, members))
        return ValidityMap(
            table, instances, table.set_of[instances], table.matrix, lambda: list(table.set_id)
        )

    def structure(
        self, varying: VaryingDimension, members: Members
    ) -> "tuple[VaryingDimension, ValidityMap]":
        """The structure half: R applied to a copy of ``varying``, and the
        validity sets of the instances of ``members`` (the members holding
        data) under it.

        Precondition for this to be what :meth:`apply` reports: S drops a
        row only at a moment its member has *no* instance, so a cube with
        no value at such a moment — what
        :func:`repro.core.validation.check_warehouse` audits — keeps its
        members-with-data through S.  :meth:`apply` itself asks the cube S
        produced.
        """
        if not self.changes:
            raise QueryError("a changes clause needs at least one change tuple")
        hypo = _hypothetical_structure(varying, self.changes)
        return hypo, self._validity(hypo, varying, members)

    def apply(
        self,
        cube: Cube,
        varying: VaryingDimension | None = None,
        rows: Rows = None,
        structure: "Stage | None" = None,
    ) -> WhatIfCube:
        """``rows`` / ``structure`` as in :meth:`NegativeScenario.apply`."""
        varying = varying or cube.schema.varying_dimension(self.dimension)
        if not self.changes:
            raise QueryError("a changes clause needs at least one change tuple")
        operands = (cube, self.dimension, list(self.changes), varying)
        if structure is None:
            # without a structure half split builds its own and hands it back
            picked, n_rows = _picked(rows, cube)
            out, hypo = split(*operands, **({} if picked is None else {"rows": picked}))
            validity_out = self._validity(hypo, varying, _members_with_data(out, self.dimension))
            return _view(self, cube, out, n_rows, validity_out, hypo)
        # S's structure half (R applied) is the chain's: split is handed
        # it, not asked to build it again
        hypo, validity_out = structure

        def move(picked: "np.ndarray | None") -> Cube:
            restricted = {} if picked is None else {"rows": picked}
            return split(*operands, hypo=hypo, **restricted)[0]

        if self.mode is Mode.NON_VISUAL:
            return _deferred(self, cube, rows, move, validity_out, hypo)
        picked, n_rows = _picked(rows, cube)
        return _view(self, cube, move(picked), n_rows, validity_out, hypo)


def apply_scenarios(
    cube: Cube,
    scenarios: Sequence[NegativeScenario | PositiveScenario],
    rows: Rows = None,
    stages: "Sequence[Stage] | None" = None,
) -> WhatIfCube:
    """Apply a chain of scenarios left to right (a query may carry both
    positive and negative scenarios, Sec. 3.2: changes first, then
    perspectives view the hypothetical history).

    The one place a chain is threaded: each stage reads the previous
    stage's leaves under the hypothetical structure an earlier S left on
    its dimension.  The last stage's cube is returned carrying, per
    dimension, that structure (``varying``) and the surviving instances
    (``surviving``) — all a query needs to resolve its axes.

    ``rows`` (:func:`footprint_rows`) is σ pushed below the chain: the
    first stage reads those leaves of ``cube`` only, and every later
    stage the — already restricted — output of the one before; a
    callable is asked for them when the first stage moves its leaves.
    ``stages`` hands each stage the structure half :func:`chain_structure`
    computed for it on the whole cube; a NON_VISUAL stage then defers its
    leaves to their first reader.  A stage before the last is read at
    once, as the next stage's input; the last one's leaves are moved only
    if the query reads a cell at leaf level (Sec. 3.3: every other cell
    of a NON_VISUAL stage is its input's) — so a NON_VISUAL chain of one
    stage computes its rows only then.  The result's ``footprint_rows``
    counts the base leaves the first stage read.
    """
    from repro.obs.trace import trace_span

    if not scenarios:
        raise QueryError("apply_scenarios() needs at least one scenario")
    current = cube
    result: WhatIfCube | None = None
    varying: dict[str, VaryingDimension] = {}
    surviving: dict[str, AbstractSet[str]] = {}
    first: WhatIfCube | None = None
    for position, scenario in enumerate(scenarios):
        if result is not None:  # a stage's input is the leaves of the one before
            current = result.leaf_cube
        # Data-driven scenarios (e.g. AllocationScenario) have no varying
        # dimension; structural ones thread the hypothetical structure.
        dimension = getattr(scenario, "dimension", None)
        restricted: dict[str, Any] = {}
        if rows is not None and position == 0:
            restricted["rows"] = rows
        if stages is not None:
            restricted["structure"] = stages[position]
        with trace_span(
            "scenario.apply", kind=type(scenario).__name__, dimension=dimension
        ):
            result = scenario.apply(current, varying.get(dimension), **restricted)
        if first is None:
            first = result
        if dimension:
            surviving[dimension] = result.validity_out.keys()
            if result.varying_out is not None:
                varying[dimension] = result.varying_out
    assert first is not None and result is not None
    if result is not first:  # read at once, as the second stage's input
        result.footprint_rows = first.footprint_rows
    result.varying, result.surviving = varying, surviving
    return result


class ChainStructure(NamedTuple):
    """The structure half of a whole chain (:func:`chain_structure`): what
    :func:`apply_scenarios` reports as ``.varying`` / ``.surviving``, and
    each stage's own half for the apply that follows.  A dimension's
    surviving instances are the keys of its last stage's validity map:
    ``in`` reads that map's instance table, and no set is built."""

    varying: dict[str, VaryingDimension]
    surviving: dict[str, AbstractSet[str]]
    stages: tuple[Stage, ...]


def chain_structure(
    cube: Cube, scenarios: Sequence[NegativeScenario | PositiveScenario]
) -> ChainStructure:
    """The structure half of :func:`apply_scenarios`, from the varying
    structures and the members holding data in ``cube`` alone — no cell
    is read or moved, no ``scenario.apply`` / ``core.relocate`` /
    ``core.split`` span opens.  An S stage's validity map and a ρ stage's
    Φ after it read one instance table, the hypothetical structure's.

    Holds for the chains MDX can express (at most one S, then at most one
    ρ) over a warehouse :func:`~repro.core.validation.check_warehouse`
    accepts — see :meth:`PositiveScenario.structure` for why: every stage
    then sees the base cube's members-with-data.
    """
    varying: dict[str, VaryingDimension] = {}
    surviving: dict[str, AbstractSet[str]] = {}
    stages: list[Stage] = []
    for scenario in scenarios:
        dimension = scenario.dimension
        current = varying.get(dimension) or cube.schema.varying_dimension(dimension)
        stage = scenario.structure(current, _members_with_data(cube, dimension))
        stages.append(stage)
        surviving[dimension] = stage[1].keys()
        if stage[0] is not None:
            varying[dimension] = stage[0]
    return ChainStructure(varying, surviving, tuple(stages))


# ---------------------------------------------------------------------------
# σ below ρ: a chain is applied to the rows the query reads
# ---------------------------------------------------------------------------


def _rows_of_members_reaching(
    cube: Cube, name: str, structures: Sequence[VaryingDimension], named: frozenset[str]
) -> np.ndarray:
    """On a scenario's own dimension: the codes (in ``cube``'s index) of
    the leaf coordinates with data of the members that have an instance
    at or under a named coordinate in one of ``structures`` — the input
    one and the hypothetical one.  ρ and S move a value between instances
    of one member only, so these members' rows are the ones that can come
    to lie under a named coordinate: Fig. 13's axis.

    A named instance path names its member outright; a member with data
    at a coordinate under a named one is read off the index; the
    instances through a named coordinate (one that holds no data yet — a
    hypothetical one, or one Φ routes into — included) off each
    structure's instance table.  Array operations all, over member
    numbers: no coordinate is split per query."""
    table = structures[0].instance_table()
    index = cube.rollup_index()
    dim_index = cube.schema.dim_index(name)
    _, counts, labels = index.coord_labels(dim_index, *table.member_labels())
    # one slot past the members: the coordinates naming none (label -1)
    reaching = np.zeros(len(table.members) + 1, dtype=np.bool_)
    above = [coord for coord in named if "/" not in coord]
    for coord in named:
        if "/" in coord:
            reaching[table.member_id.get(coord.rsplit("/", 1)[-1], -1)] = True
    for coord in above:
        codes = index.codes_under(dim_index, coord)
        reaching[labels[codes[counts[codes] > 0]]] = True
    if above:
        for structure in structures:
            through = structure.instance_table()
            reaching[through.member[through.through(above)]] = True
    return np.flatnonzero((counts > 0) & reaching[labels])


def footprint_rows(
    cube: Cube,
    scenarios: Sequence[NegativeScenario | PositiveScenario],
    structure: ChainStructure,
    named: Footprint,
) -> "np.ndarray | None":
    """σ_F below the chain: the leaf ids of ``cube`` (ascending, for
    ``apply_scenarios(..., rows=)``) that can reach a cell naming only
    coordinates of ``named`` — ``None`` when that is every leaf.

    On a dimension the chain does not touch, ρ and S leave a row's
    coordinate alone (the parameter dimension included: a value moves
    between instances *at one moment*): the rows rolling up into a named
    coordinate, off the base index's per-coordinate masks.  On a
    scenario's own dimension, all rows of the members that reach a named
    coordinate (:func:`_rows_of_members_reaching`, as codes).  Applying
    the chain to these rows yields the restriction of the full view to
    them, order included (``relocate`` / ``split`` say why), and a cell's
    scope lies within them by construction.

    A cube with a rule engine is read whole — a formula may read any cell
    — and so is anything under ``naive_mode()``, which trusts no mask.
    """
    if _reads_whole(cube, named):
        return None
    schema = cube.schema
    touched = {scenario.dimension for scenario in scenarios}
    under: dict[int, "Sequence[str] | frozenset[str] | np.ndarray"] = {}
    for name, coords in named.items():
        if name in touched:
            structures = [schema.varying_dimension(name)]
            if name in structure.varying:
                structures.append(structure.varying[name])
            coords = _rows_of_members_reaching(cube, name, structures, coords)
        under[schema.dim_index(name)] = coords
    return cube.rollup_index().ids_under(under)


def _reads_whole(cube: Cube, named: Footprint) -> bool:
    """Whether σ_F keeps every leaf of ``cube`` (:func:`footprint_rows`
    is ``None``): no dimension restricted, a rule engine, or
    ``naive_mode()``."""
    return not named or cube.rules is not None or not perf_config.engine_enabled()


def _covers(schema: CubeSchema, have: Footprint, want: Footprint) -> bool:
    """Whether every coordinate of ``want`` is, or lies under, one of
    ``have`` on each dimension ``have`` restricts."""
    for name, coords in have.items():
        asked = want.get(name)
        if asked is None:
            return False
        if asked <= coords:
            continue
        dim_index = schema.dim_index(name)
        for coord in asked - coords:
            if coords.isdisjoint(schema.ancestor_chain(dim_index, coord)):
                return False
    return True


class AppliedChain(NamedTuple):
    """What the scenario cache holds for one fingerprint chain: the base
    cube it was threaded over, the chain's structure half, and the applied
    data for **one** footprint (``view`` is ``None`` while only axes have
    been resolved under the chain).  Immutable and shared read-only
    between queries; :func:`apply_chain` returns a wider one."""

    base: Cube
    view: "WhatIfCube | None"
    structure: ChainStructure
    #: the footprint ``view`` was applied under; ``{}`` = the whole cube
    named: "Footprint | None" = None

    @property
    def footprint_rows(self) -> "int | None":
        """Base leaves ``view`` was applied to — ``None`` until they are
        known: no view yet, or a NON_VISUAL stage of one whose leaves, and
        the rows they come from, wait for a reader."""
        return None if self.view is None else self.view.footprint_rows


def apply_chain(
    entry: AppliedChain,
    scenarios: Sequence[NegativeScenario | PositiveScenario],
    named: Footprint,
) -> AppliedChain:
    """``entry`` if its data covers the footprint ``named``; otherwise the
    chain applied to the rows of the per-dimension union of both
    footprints (a dimension either leaves unrestricted stays so), so an
    entry only ever widens — towards, and never past, the full view.
    The rows are computed when the first stage moves its leaves: at once,
    or — a NON_VISUAL chain of one stage — on the first read of them.  An
    entry whose rows are every leaf covers any footprint (``named`` is
    ``{}``); a deferred one says so only where no row needs computing
    (:func:`_reads_whole`)."""
    base, schema = entry.base, entry.base.schema
    if entry.view is not None:
        if _covers(schema, entry.named, named):
            return entry
        named = {
            name: entry.named[name] | named[name]
            for name in entry.named.keys() & named.keys()
        }
    structure = entry.structure

    def rows() -> "np.ndarray | None":
        return footprint_rows(base, scenarios, structure, named)

    view = apply_scenarios(base, scenarios, rows, structure.stages)
    whole = _reads_whole(base, named) or view.footprint_rows == base.n_leaf_cells
    return entry._replace(view=view, named={} if whole else named)
