"""Columnar kernel parity: the value column vs the dict scan.

The vectorized rollup kernel keeps leaf values in one ``float64`` column
and reduces gathered arrays.  Its contract is that this is *invisible*:
results are bit-identical to the naive scan — across fill densities,
interleaved ``set_value`` mutations, frozen snapshots, and fork
copy-on-write sharing of the column.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import ChangeTuple
from repro.core.perspective import Mode, Semantics
from repro.core.scenario import NegativeScenario, PositiveScenario, apply_scenarios
from repro.olap.aggregation import AGGREGATORS
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.missing import MISSING, is_missing
from repro.olap.schema import CubeSchema
from repro.perf.config import naive_mode
from repro.perf.rollup_index import RollupIndex
from repro.workload.running_example import MONTHS as EXAMPLE_MONTHS
from repro.workload.running_example import build_running_example

from .test_rollup_index import _all_addresses as _example_addresses

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun")
MEASURES = ("Sales", "COGS")
LEAF_ADDRESSES = [(m, s) for m in MONTHS for s in MEASURES]


def _tiny_cube() -> Cube:
    time = Dimension("Time", ordered=True)
    time.add_member("H1")
    time.add_children("H1", ["Jan", "Feb", "Mar"])
    time.add_member("H2")
    time.add_children("H2", ["Apr", "May", "Jun"])
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, ["Sales", "COGS"])
    return Cube(CubeSchema([time, measures]))


def _all_addresses(schema) -> list[tuple[str, str]]:
    time_members = [
        m.name
        for m in schema.dimension("Time").root.descendants(include_self=True)
    ]
    measure_members = [
        m.name
        for m in schema.dimension("Measures").root.descendants(include_self=True)
    ]
    return [(t, s) for t in time_members for s in measure_members]


def _assert_parity(cube: Cube, index: RollupIndex, addresses) -> None:
    """Indexed (columnar) results must equal the naive scan bit-for-bit:
    ``sum`` read off ``index``, every other aggregator folded over the
    engine's scope."""
    for address in addresses:
        for aggregator in AGGREGATORS:
            if aggregator == "sum":
                indexed = index.rollup(address)
            else:
                indexed = cube.rollup(address, aggregator)
            with naive_mode():
                naive = cube.rollup(address, aggregator)
            if is_missing(indexed) or is_missing(naive):
                assert is_missing(indexed) and is_missing(naive), (
                    address,
                    aggregator,
                )
            else:
                assert repr(indexed) == repr(naive), (address, aggregator)


values_strategy = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

mutations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(LEAF_ADDRESSES) - 1),
        st.one_of(st.none(), values_strategy),
    ),
    min_size=1,
    max_size=12,
)


class TestColumnarParityProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        density=st.floats(min_value=0.01, max_value=1.0),
        chosen=st.permutations(range(len(LEAF_ADDRESSES))),
        values=st.lists(
            values_strategy,
            min_size=len(LEAF_ADDRESSES),
            max_size=len(LEAF_ADDRESSES),
        ),
        ops=mutations,
    )
    def test_dense_sparse_dict_parity(self, density, chosen, values, ops):
        """Across fill densities 0.01-1.0: a built index, the same index
        adopted and written to, and the dict scan all agree bit-for-bit,
        including under interleaved mutations."""
        cube = _tiny_cube()
        n_fill = max(1, round(density * len(LEAF_ADDRESSES)))
        for slot in chosen[:n_fill]:
            cube.set_value(LEAF_ADDRESSES[slot], values[slot])
        addresses = _all_addresses(cube.schema)

        index = RollupIndex.build(cube)
        _assert_parity(cube, index, addresses)

        cube = cube.adopt(index, {})  # so set_value maintains this index
        # re-valuing one live leaf flushes the memo, so the next parity
        # pass actually gathers from the column
        first_addr = LEAF_ADDRESSES[chosen[0]]
        if not is_missing(cube.value(first_addr)):
            cube.set_value(first_addr, cube.value(first_addr))
        _assert_parity(cube, index, addresses)

        # interleaved mutations: inserts, updates and deletes keep the
        # kernel bit-identical
        for slot, value in ops:
            cube.set_value(
                LEAF_ADDRESSES[slot], MISSING if value is None else value
            )
            _assert_parity(cube, index, addresses)

    @settings(max_examples=15, deadline=None)
    @given(
        density=st.floats(min_value=0.01, max_value=1.0),
        chosen=st.permutations(range(len(LEAF_ADDRESSES))),
        values=st.lists(
            values_strategy,
            min_size=len(LEAF_ADDRESSES),
            max_size=len(LEAF_ADDRESSES),
        ),
        ops=mutations,
    )
    def test_frozen_snapshot_fork_cow(self, density, chosen, values, ops):
        """A frozen snapshot forks the index copy-on-write: the snapshot
        keeps serving the pinned values (bit-identical to its own naive
        scan) while the live cube diverges."""
        cube = _tiny_cube()
        n_fill = max(1, round(density * len(LEAF_ADDRESSES)))
        for slot in chosen[:n_fill]:
            cube.set_value(LEAF_ADDRESSES[slot], values[slot])
        addresses = _all_addresses(cube.schema)
        live_index = cube.rollup_index()

        snap = cube.frozen_copy()
        snap_index = snap.rollup_index()
        assert snap_index is not None, "frozen_copy must fork a built index"
        # COW: the column is one shared array until either side writes
        assert snap_index.plane_store._column is live_index.plane_store._column

        pinned = {
            (address, agg): snap.rollup(address, agg)
            for address in addresses
            for agg in AGGREGATORS
        }

        for slot, value in ops:
            cube.set_value(
                LEAF_ADDRESSES[slot], MISSING if value is None else value
            )
        _assert_parity(cube, live_index, addresses)

        # the snapshot still serves the pinned values...
        for (address, agg), expected in pinned.items():
            now = snap.rollup(address, agg)
            if is_missing(expected):
                assert is_missing(now), (address, agg)
            else:
                assert repr(now) == repr(expected), (address, agg)
        # ...and stays bit-identical to its own naive scan
        _assert_parity(snap, snap_index, addresses)


def _assert_index_parity(cube: Cube, index: RollupIndex, addresses) -> None:
    """``index`` (however it came to exist) serves insertion-ordered
    scopes equal to a fresh build's and sums bit-identical to the scan."""
    rebuilt = RollupIndex.build(cube)
    assert index.columns(()).addresses == [addr for addr, _ in cube.leaf_cells()]
    for address in addresses:
        assert index.scope_cells(address) == rebuilt.scope_cells(address)
        served = index.rollup(address)
        with naive_mode():
            naive = cube.rollup(address)
        assert repr(served) == repr(naive), address


class TestScenarioViewParity:
    """The column/dict parity extended to scenario views: a derived
    index (ρ, S ∘ ρ) and a forked-then-mutated one agree with
    ``RollupIndex.build`` and the dict scan."""

    @settings(max_examples=12, deadline=None)
    @given(
        density=st.floats(min_value=0.2, max_value=1.0),
        order=st.randoms(use_true_random=False),
        semantics=st.sampled_from(list(Semantics)),
        perspectives=st.lists(
            st.sampled_from(EXAMPLE_MONTHS), min_size=1, max_size=4, unique=True
        ),
        change_month=st.sampled_from(EXAMPLE_MONTHS[1:]),
        ops=st.lists(
            st.tuples(st.integers(0, 10_000), st.one_of(st.none(), values_strategy)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_derived_and_forked_indexes(
        self, density, order, semantics, perspectives, change_month, ops
    ):
        example = build_running_example()
        cells = list(example.cube.leaf_cells())
        order.shuffle(cells)
        cube = Cube(example.schema)
        for addr, value in cells[: max(1, round(density * len(cells)))]:
            cube.set_value(addr, value)
        # 25k addresses exist; each example checks a drawn sample of them
        addresses = order.sample(_example_addresses(cube.schema), 120)
        index = RollupIndex.build(cube)
        cube = cube.adopt(index, {})

        # derived by ρ, and by S then ρ
        negative = NegativeScenario(
            "Organization", perspectives, semantics, Mode.VISUAL
        )
        view = negative.apply(cube).leaf_cube
        assert view.rollup_index() is not None
        _assert_index_parity(view, view.rollup_index(), addresses)
        old_parent = example.org.parent_at("Lisa", change_month)
        new_parent = "PTE" if old_parent != "PTE" else "FTE"
        chained = apply_scenarios(
            cube,
            [
                PositiveScenario(
                    "Organization",
                    [ChangeTuple("Lisa", old_parent, new_parent, change_month)],
                ),
                negative,
            ],
        ).leaf_cube
        assert chained.rollup_index() is not None
        _assert_index_parity(chained, chained.rollup_index(), addresses)

        # forked, then the live side mutates (update / delete / insert)
        snap = cube.frozen_copy()
        for pick, value in ops:
            addr = cells[pick % len(cells)][0]
            cube.set_value(addr, MISSING if value is None else value)
        _assert_index_parity(cube, index, addresses)
        _assert_index_parity(snap, snap.rollup_index(), addresses)
