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
re-evaluated output for **visual** mode, the original input cube for
**non-visual** mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, TypeAlias

from repro.core.operators import ChangeTuple, relocate, split
from repro.core.perspective import Mode, PerspectiveSet, Semantics, phi_member
from repro.validity import ValiditySet
from repro.errors import QueryError
from repro.olap.cube import Cube
from repro.olap.instances import VaryingDimension
from repro.olap.missing import Missing
from repro.olap.schema import CubeSchema

__all__ = [
    "WhatIfCube",
    "NegativeScenario",
    "PositiveScenario",
    "apply_scenarios",
]

CellValue: TypeAlias = "float | Missing"


class WhatIfCube:
    """A perspective cube: hypothetical leaves + mode-appropriate aggregates.

    Supports the same read API as :class:`~repro.olap.cube.Cube`
    (``effective_value`` / ``value``), so MDX evaluation and the algebra
    operators can consume it transparently.
    """

    def __init__(
        self,
        leaf_cube: Cube,
        aggregate_cube: Cube,
        mode: Mode,
        validity_out: Mapping[str, ValiditySet] | None = None,
        varying_out: VaryingDimension | None = None,
    ) -> None:
        self.leaf_cube = leaf_cube
        self.aggregate_cube = aggregate_cube
        self.mode = mode
        #: output validity sets keyed by member-instance full path
        self.validity_out: dict[str, ValiditySet] = dict(validity_out or {})
        #: hypothetical varying structure (positive scenarios)
        self.varying_out = varying_out

    @property
    def schema(self) -> CubeSchema:
        return self.leaf_cube.schema

    def effective_value(self, address: Sequence[str]) -> CellValue:
        addr = self.schema.validate_address(address)
        if self.schema.is_leaf_address(addr):
            return self.leaf_cube.effective_value(addr)
        return self.aggregate_cube.effective_value(addr)

    def value(self, address: Sequence[str]) -> CellValue:
        return self.effective_value(address)

    def at(self, **coords: str) -> CellValue:
        return self.effective_value(self.schema.address(**coords))

    def as_cube(self) -> Cube:
        """The leaf cube (useful for chaining scenarios or exporting)."""
        return self.leaf_cube

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WhatIfCube(mode={self.mode.value}, "
            f"{self.leaf_cube.n_leaf_cells} leaf cells, "
            f"{len(self.validity_out)} instances)"
        )


def _members_with_data(cube: Cube, dim_name: str) -> list[str]:
    """Members holding leaf data, sorted — one entry per member however
    many instance coordinates carry its cells."""
    return sorted(
        {coord.rsplit("/", 1)[-1] for coord in cube.coordinates_used(dim_name)}
    )


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
        Perspective order is irrelevant to Φ, hence the sort."""
        return (
            "negative",
            self.dimension,
            self.semantics.value,
            self.mode.value,
            tuple(sorted(self.perspectives)),
        )

    def apply(self, cube: Cube, varying: VaryingDimension | None = None) -> WhatIfCube:
        schema = cube.schema
        varying = varying or schema.varying_dimension(self.dimension)
        if not self.perspectives:
            raise QueryError("a perspective clause needs at least one moment")
        if self.semantics.is_dynamic and not varying.parameter.ordered:
            raise QueryError(
                f"{self.semantics.value} semantics requires an ordered "
                f"parameter dimension; {varying.parameter.name!r} is unordered"
            )
        pset = PerspectiveSet.from_names(self.perspectives, varying)
        from repro.obs.trace import trace_span

        # Φ per member (Def. 3.4 / 4.3); σ (active filter) is implicit in
        # dropping instances with empty output validity.  Φ of an instance
        # depends only on its own validity set, and most members share
        # one (never moved: valid throughout), so it runs once per
        # distinct input set.
        validity_out: dict[str, ValiditySet] = {}
        transformed: dict[ValiditySet, ValiditySet | None] = {}
        with trace_span("core.phi") as span:
            members = _members_with_data(cube, self.dimension)
            for member in members:
                for instance in varying.instances_of(member):
                    validity = instance.validity
                    if validity not in transformed:
                        transformed[validity] = phi_member(
                            (instance,), pset, self.semantics
                        ).get(instance)
                    validity = transformed[validity]
                    if validity is not None:
                        validity_out[instance.full_path] = validity
            if span is not None:
                span.set(members=len(members), instances=len(validity_out))

        out = relocate(cube, self.dimension, validity_out, varying)
        if self.mode is Mode.VISUAL:
            out.clear_stored_derived()
            return WhatIfCube(out, out, self.mode, validity_out)
        return WhatIfCube(out, cube, self.mode, validity_out)


@dataclass
class PositiveScenario:
    """Hypothetical changes R(m, o, n, t) (Sec. 3.4, extended MDX
    ``WITH CHANGES R <mode>``)."""

    dimension: str
    changes: Sequence[ChangeTuple] = field(default_factory=list)
    mode: Mode = Mode.NON_VISUAL

    def fingerprint(self) -> tuple:
        """Canonical cache key over the normalised change relation R:
        a set of (m, o, n, t) tuples, so listing order is irrelevant."""
        return (
            "positive",
            self.dimension,
            self.mode.value,
            tuple(
                sorted(
                    (c.member, c.old_parent, c.new_parent, c.moment)
                    for c in self.changes
                )
            ),
        )

    def apply(self, cube: Cube, varying: VaryingDimension | None = None) -> WhatIfCube:
        schema = cube.schema
        varying = varying or schema.varying_dimension(self.dimension)
        if not self.changes:
            raise QueryError("a changes clause needs at least one change tuple")
        out, hypo = split(cube, self.dimension, list(self.changes), varying)

        validity_out: dict[str, ValiditySet] = {}
        for member in _members_with_data(out, self.dimension):
            source = hypo if hypo.is_managed(member) else varying
            for instance in source.instances_of(member):
                validity_out[instance.full_path] = instance.validity

        if self.mode is Mode.VISUAL:
            out.clear_stored_derived()
            return WhatIfCube(out, out, self.mode, validity_out, varying_out=hypo)
        return WhatIfCube(out, cube, self.mode, validity_out, varying_out=hypo)


Scenario: TypeAlias = "NegativeScenario | PositiveScenario"


def apply_scenarios(
    cube: Cube, scenarios: Sequence[NegativeScenario | PositiveScenario]
) -> WhatIfCube:
    """Apply a sequence of scenarios left to right (a query may carry both
    positive and negative scenarios, Sec. 3.2)."""
    if not scenarios:
        raise QueryError("apply_scenarios() needs at least one scenario")
    current = cube
    result: WhatIfCube | None = None
    varying_overrides: dict[str, VaryingDimension] = {}
    for scenario in scenarios:
        # Data-driven scenarios (e.g. AllocationScenario) have no varying
        # dimension; structural ones thread the hypothetical structure.
        dimension = getattr(scenario, "dimension", None)
        varying = varying_overrides.get(dimension) if dimension else None
        result = scenario.apply(current, varying)
        if dimension and result.varying_out is not None:
            varying_overrides[dimension] = result.varying_out
        current = result.leaf_cube
    assert result is not None
    return result
