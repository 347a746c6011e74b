"""Tests for CubeSchema: addresses, coordinate semantics, varying registry."""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.errors import MemberNotFoundError, SchemaError
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.instances import VaryingDimension
from repro.olap.missing import MISSING
from repro.olap.schema import CubeSchema

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
#: seeded runs of the leaf-test law; the CI fault job draws the wide run
LAW_RUNS = 200 if FULL_MATRIX else 6


class TestRegistry:
    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(SchemaError):
            CubeSchema([Dimension("A"), Dimension("A")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            CubeSchema([])

    def test_dim_lookup(self, example):
        assert example.schema.dim_index("Time") == 2
        assert example.schema.dimension("Time").ordered
        with pytest.raises(SchemaError):
            example.schema.dim_index("Nope")

    def test_measures_dimension(self, example):
        assert example.schema.measures_dimension().name == "Measures"

    def test_varying_registry(self, example):
        assert example.schema.is_varying("Organization")
        assert not example.schema.is_varying("Location")
        assert example.schema.varying_dimension("Organization") is example.org
        with pytest.raises(SchemaError):
            example.schema.varying_dimension("Location")

    def test_register_foreign_dimension_rejected(self, example):
        rogue = Dimension("Rogue")
        time = example.time
        with pytest.raises(SchemaError):
            example.schema.register_varying(VaryingDimension(rogue, time))

    def test_register_parameter_outside_schema_rejected(self):
        d = Dimension("D")
        d.add_member("x")
        t = Dimension("T", ordered=True)
        t.add_member("Jan")
        schema = CubeSchema([d])
        with pytest.raises(SchemaError):
            schema.register_varying(VaryingDimension(d, t))


class TestAddresses:
    def test_address_builder(self, example):
        addr = example.schema.address(
            Organization="FTE", Location="NY", Time="Jan", Measures="Salary"
        )
        assert addr == ("FTE", "NY", "Jan", "Salary")

    def test_address_missing_dim_rejected(self, example):
        with pytest.raises(SchemaError):
            example.schema.address(Organization="FTE")

    def test_address_extra_dim_rejected(self, example):
        with pytest.raises(SchemaError):
            example.schema.address(
                Organization="FTE",
                Location="NY",
                Time="Jan",
                Measures="Salary",
                Bogus="x",
            )

    def test_validate_address_arity(self, example):
        with pytest.raises(SchemaError):
            example.schema.validate_address(("a", "b"))


class TestCoordinateSemantics:
    def test_varying_leafness_by_slash(self, example):
        schema = example.schema
        org = schema.dim_index("Organization")
        assert schema.coordinate_is_leaf(org, "Organization/FTE/Joe")
        assert not schema.coordinate_is_leaf(org, "FTE")

    def test_plain_dimension_leafness(self, example):
        schema = example.schema
        time = schema.dim_index("Time")
        assert schema.coordinate_is_leaf(time, "Jan")
        assert not schema.coordinate_is_leaf(time, "Qtr1")

    def test_is_leaf_address(self, example):
        schema = example.schema
        assert schema.is_leaf_address(
            ("Organization/FTE/Joe", "NY", "Jan", "Salary")
        )
        assert not schema.is_leaf_address(("FTE", "NY", "Jan", "Salary"))
        assert not schema.is_leaf_address(
            ("Organization/FTE/Joe", "NY", "Qtr1", "Salary")
        )

    def test_is_leaf_address_follows_add_member(self):
        """The leaf-name set is rebuilt after ``add_member``: a child under
        a former leaf makes it a parent."""
        time = Dimension("Time")
        time.add_children(None, ["Jan", "Feb"])
        measures = Dimension("Measures", is_measures=True)
        measures.add_children(None, ["Sales"])
        schema = CubeSchema([time, measures])
        assert schema.is_leaf_address(("Jan", "Sales"))
        time.add_children("Jan", ["Jan-w1"])
        assert not schema.is_leaf_address(("Jan", "Sales"))
        assert schema.coordinate_is_leaf(0, "Feb") and not schema.coordinate_is_leaf(0, "Jan")
        assert schema.is_leaf_address(("Jan-w1", "Sales"))

    @pytest.mark.parametrize(
        ("address", "dimension", "member"),
        [
            (("Organization/FTE/Joe", "Atlantis", "Jan", "Salary"), "Location", "Atlantis"),
            (("Organization/FTE/Joe", "NY", "Jan", "Bonus"), "Measures", "Bonus"),
            (("Organization/FTE/Joe", "Atlantis", "Jan", "Bonus"), "Location", "Atlantis"),
        ],
    )
    def test_unknown_member_raises_at_the_first_unknown_coordinate(
        self, example, address, dimension, member
    ):
        """Coordinates are asked in dimension order, as the per-coordinate
        test asks them: the first unknown member raises."""
        from repro.errors import MemberNotFoundError

        schema = example.schema
        with pytest.raises(MemberNotFoundError) as raised:
            schema.is_leaf_address(address)
        with pytest.raises(MemberNotFoundError) as per_coordinate:
            all(schema.coordinate_is_leaf(i, c) for i, c in enumerate(address))
        assert str(raised.value) == str(per_coordinate.value)
        assert dimension in str(raised.value) and member in str(raised.value)

    def test_every_coordinate_is_asked(self, example):
        # no short-circuit: "Qtr1" is known and not a leaf, and the unknown
        # measure after it still raises — a write must not store a cell
        # at a member that does not exist
        from repro.errors import MemberNotFoundError

        with pytest.raises(MemberNotFoundError, match="Bonus"):
            example.schema.is_leaf_address(
                ("Organization/FTE/Joe", "NY", "Qtr1", "Bonus")
            )
        assert not example.schema.is_leaf_address(
            ("Organization/FTE/Joe", "NY", "Qtr1", "Salary")
        )

    @pytest.mark.parametrize("length", [0, 1, 3, 5])
    def test_a_wrong_length_address_raises(self, example, length):
        """``zip`` must not truncate: a short or long address is no leaf
        address, it is an error — the one :meth:`validate_address`
        raises, from the classification and from a write, which then
        moves nothing."""
        schema = example.schema
        address = ("Organization/FTE/Joe", "NY", "Jan", "Salary", "Extra")[:length]
        with pytest.raises(SchemaError, match="coordinates"):
            schema.is_leaf_address(address)
        cube = example.cube
        version, n_leaves = cube.version, cube.n_leaf_cells
        with pytest.raises(SchemaError, match="coordinates"):
            cube.set_value(address, 1.0)
        assert (cube.version, cube.n_leaf_cells) == (version, n_leaves)

    def test_a_pickled_schema_classifies_like_the_original(self, example):
        """A shard's schema crosses a pipe: its leaf tests must still be
        its own dimensions' live sets, and a varying dimension's test must
        still look nothing up."""
        import pickle

        schema = pickle.loads(pickle.dumps(example.schema, pickle.HIGHEST_PROTOCOL))
        for address in (
            ("Organization/FTE/Joe", "NY", "Jan", "Salary"),
            ("FTE", "NY", "Qtr1", "Salary"),
            ("NoSuchInstance", "NY", "Jan", "Salary"),  # never looked up
        ):
            assert schema.is_leaf_address(address) == example.schema.is_leaf_address(address)
        schema.dimension("Location").add_member("Boston", "MA")
        assert not schema.is_leaf_address(("Organization/FTE/Joe", "MA", "Jan", "Salary"))
        assert schema.is_leaf_address(("Organization/FTE/Joe", "Boston", "Jan", "Salary"))

    def test_coordinate_display(self, example):
        schema = example.schema
        org = schema.dim_index("Organization")
        assert schema.coordinate_display(org, "Organization/FTE/Joe") == "FTE/Joe"
        assert schema.coordinate_display(org, "FTE") == "FTE"

    def test_is_under_varying(self, example):
        schema = example.schema
        org = schema.dim_index("Organization")
        assert schema.is_under(org, "Organization/FTE/Joe", "FTE")
        assert schema.is_under(org, "Organization/FTE/Joe", "Organization")
        assert not schema.is_under(org, "Organization/FTE/Joe", "PTE")
        assert schema.is_under(
            org, "Organization/FTE/Joe", "Organization/FTE/Joe"
        )

    def test_is_under_plain(self, example):
        schema = example.schema
        loc = schema.dim_index("Location")
        assert schema.is_under(loc, "NY", "East")
        assert not schema.is_under(loc, "NY", "West")

    def test_instance_for_coordinate(self, example):
        schema = example.schema
        org = schema.dim_index("Organization")
        instance = schema.instance_for_coordinate(org, "Organization/PTE/Joe")
        assert instance.qualified_name == "PTE/Joe"
        assert instance.validity.sorted_moments() == [1]
        assert schema.instance_for_coordinate(org, "FTE") is None
        time = schema.dim_index("Time")
        assert schema.instance_for_coordinate(time, "Jan") is None


def _law_schema() -> "tuple[CubeSchema, Dimension, Dimension, Dimension]":
    dept = Dimension("Dept")
    dept.add_children(None, ["Sales", "Ops"])
    time = Dimension("Time", ordered=True)
    time.add_children(None, ["Jan", "Feb", "Mar"])
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, ["FTE"])
    return CubeSchema([dept, time, measures]), dept, time, measures


def _formable(schema: CubeSchema) -> "list[tuple[str, ...]]":
    """Every address the schema can form: every member on every
    dimension, and every leaf's instance path on a varying one."""
    per_dim = []
    for dimension in schema.dimensions:
        coords = [member.name for member in dimension.members()]
        if schema.is_varying(dimension.name):
            coords += [leaf.path() for leaf in dimension.leaf_members()]
        per_dim.append(coords)
    return list(itertools.product(*per_dim))


def _assert_leaf_law(schema: CubeSchema, cube: Cube, rng: random.Random) -> None:
    for dimension in schema.dimensions:
        names = {member.name for member in dimension.leaf_members()}
        assert dimension.leaf_names() == names
    for address in _formable(schema):
        assert schema.is_leaf_address(address) == all(
            schema.coordinate_is_leaf(dim, coord) for dim, coord in enumerate(address)
        ), address
    # an unknown member of a non-varying dimension raises from a write,
    # wherever it stands, and the write moves nothing
    plain = [
        dim for dim, d in enumerate(schema.dimensions) if not schema.is_varying(d.name)
    ]
    # a row left at an address that is no longer a leaf (add_member under
    # a leaf that held data, or a late register_varying) is rolled up,
    # never read back as the cell
    stored = dict(cube.stored_derived_cells())
    for address, _ in cube.leaf_cells():
        if not schema.is_leaf_address(address):
            assert repr(cube.effective_value(address)) == repr(cube.rollup(address)), address
            assert repr(cube.value(address)) == repr(stored.get(address, MISSING)), address
    address = list(rng.choice(_formable(schema)))
    address[rng.choice(plain)] = f"Nobody{rng.randrange(10**6)}"
    version = cube.version
    with pytest.raises(MemberNotFoundError):
        cube.set_value(tuple(address), 1.0)
    assert cube.version == version


@pytest.mark.parametrize("seed", range(LAW_RUNS))
def test_the_leaf_test_follows_every_add_member(seed):
    """The leaf-test law: random ``add_member`` sequences — under a root,
    under a leaf, under a leaf that holds data in a cube — then a late
    ``register_varying`` and more members: after every step
    ``is_leaf_address`` is the conjunction of ``coordinate_is_leaf`` over
    every address the schema can form, and each dimension's live
    leaf-name set is its leaves' names."""
    rng = random.Random(seed)
    schema, dept, time, measures = _law_schema()
    cube = Cube(schema)
    grown = [dept, measures]  # the parameter dimension stays as it is
    names = (f"m{k}" for k in itertools.count())

    def leaf_address() -> "tuple[str, ...]":
        return tuple(
            rng.choice(
                [leaf.path() for leaf in d.leaf_members()]
                if schema.is_varying(d.name)
                else sorted(d.leaf_names())
            )
            for d in schema.dimensions
        )

    def step(kind: str) -> None:
        dimension = rng.choice(grown)
        if kind == "root":
            parent = None
        elif kind == "leaf":
            parent = rng.choice(sorted(dimension.leaf_names()))
        else:  # under a leaf that holds data
            address = leaf_address()
            cube.set_value(address, float(rng.randrange(100)))
            coord = address[schema.dim_index(dimension.name)]
            parent = coord.rsplit("/", 1)[-1]
        dimension.add_member(next(names), parent)
        if rng.random() < 0.5:
            cube.set_value(leaf_address(), float(rng.randrange(100)))
        _assert_leaf_law(schema, cube, rng)

    _assert_leaf_law(schema, cube, rng)
    for _ in range(rng.randint(1, 8)):
        step(rng.choice(("root", "leaf", "data")))
    schema.register_varying(VaryingDimension(dept, time))
    _assert_leaf_law(schema, cube, rng)
    for _ in range(rng.randint(0, 3)):
        step(rng.choice(("root", "leaf", "data")))
