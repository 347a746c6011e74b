"""The scenario cache holds, per fingerprint chain, the chain's structure
half plus the applied data for ONE footprint.

A query resolves its axes, derives its footprint (the coordinates its
cells name), and reads the chain applied to the base rows those cells can
reach: the entry's data if it covers them, else the chain re-applied for
the per-dimension union and swapped in.  Pinned here:

* covered → no rebuild; uncovered → one rebuild to the union, and whoever
  holds the old entry keeps a consistent piece;
* FILTER / ORDER conditions and a cube with a rule engine read the whole
  cube — the unrestricted case of the same call;
* a base version bump drops structure and data together;
* threads missing at once lose no build and corrupt nothing;
* ρ's refusals follow the footprint: a malformed row fails the queries
  whose cells it can reach, and no other;
* spans and EXPLAIN say what was kept;
* a NON_VISUAL last stage moves its leaves only for a grid with a leaf
  cell — once, in the scenario phase, however many threads race for them
  — and refuses a malformed row only then; a chain of that one stage
  computes the footprint's rows only then too, from the entry's
  footprint;
* Φ's output is a read-only mapping over the instance table that reads
  as the dict it replaced.

The law this stands on is ``tests/core/test_sigma_below_rho.py``.
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Mapping

import pytest

import repro.core.scenario as scenario_module
from repro.core.perspective import PerspectiveSet, Semantics, ValidityMap, phi_member
from repro.core.scenario import apply_scenarios, phi_validity
from repro.core.validation import check_warehouse
from repro.errors import QueryError
from repro.mdx.evaluator import build_scenarios
from repro.mdx.parser import parse_query
from repro.obs.explain import explain_query, explain_report
from repro.obs.trace import TRACER, tracing
from repro.warehouse import Warehouse
from repro.workload.workforce import MONTHS, WorkforceConfig, build_workforce

CONFIG = WorkforceConfig(
    n_employees=24, n_departments=3, n_changing=4, max_moves=3, n_accounts=3, n_scenarios=2
)
PERSPECTIVE = "WITH PERSPECTIVE {(Mar), (Sep)} FOR Department DYNAMIC FORWARD VISUAL "
NON_VISUAL = PERSPECTIVE.replace(" VISUAL ", " ")
COLUMNS = ", ".join(f"Period.[{month}]" for month in MONTHS)
TAIL = "[Current], [Local], [BU Version_1], [HSP_InputValue]"


def dashboard(account: str, with_clause: str = PERSPECTIVE) -> str:
    return (
        f"{with_clause}SELECT {{{COLUMNS}}} ON COLUMNS, {{Department.Children}} ON ROWS "
        f"FROM [App].[Db] WHERE ([{account}], {TAIL})"
    )


def employees(department: str, account: str, with_clause: str = PERSPECTIVE) -> str:
    return (
        f"{with_clause}SELECT {{{COLUMNS}}} ON COLUMNS, {{[{department}].Children}} ON ROWS "
        f"FROM [App].[Db] WHERE ([{account}], {TAIL})"
    )


@pytest.fixture
def workforce():
    return build_workforce(CONFIG)


@pytest.fixture
def warehouse(workforce) -> Warehouse:
    return workforce.warehouse


def _entry(warehouse: Warehouse, text: str):
    """The chain's cache entry, read without touching the counters."""
    key = tuple(s.fingerprint() for s in build_scenarios(warehouse, parse_query(text)))
    return warehouse.scenario_cache._entries[key][1]


def _grid(result) -> str:
    return repr(([t.labels for t in result.rows], result.cells))


def _reference(text: str) -> str:
    """The grid a warehouse that never saw another query answers."""
    return _grid(build_workforce(CONFIG).warehouse.query(text))


class TestOneEntryPerChain:
    def test_a_cold_query_applies_the_chain_to_its_footprint(self, warehouse):
        result = warehouse.query(dashboard("Acct001"))
        entry = _entry(warehouse, dashboard("Acct001"))
        n_leaves = warehouse.cube.n_leaf_cells
        assert entry.base is warehouse.cube
        assert entry.named["Account"] == {"Acct001"}
        assert entry.named["Scenario"] == {"Current"}
        assert "Period" in entry.named  # twelve months named, not the root
        # one account of three, one scenario of two
        assert entry.footprint_rows == n_leaves // 6
        assert entry.view.leaf_cube.n_leaf_cells <= entry.footprint_rows
        assert _grid(result) == _reference(dashboard("Acct001"))

    def test_a_covered_footprint_reads_the_entry_and_builds_nothing(self, warehouse, workforce):
        warehouse.query(dashboard("Acct001"))
        first = _entry(warehouse, dashboard("Acct001"))
        builds = warehouse.scenario_cache.stats.builds
        # every instance under a department lies under a named coordinate
        text = employees(workforce.departments[1], "Acct001")
        second = warehouse.query(text)
        assert second.stats["scenario_cache_hits"] == 1
        assert "scenario_cache_misses" not in second.stats
        assert warehouse.scenario_cache.stats.builds == builds == 1
        assert _entry(warehouse, text) is first
        assert _grid(second) == _reference(text)

    def test_an_uncovered_footprint_rebuilds_once_for_the_union(self, warehouse):
        first_grid = _grid(warehouse.query(dashboard("Acct001")))
        old = _entry(warehouse, dashboard("Acct001"))
        other = warehouse.query(dashboard("Acct002"))
        # the chain's entry was there — and did not hold these rows
        assert other.stats["scenario_cache_hits"] == 1
        stats = warehouse.scenario_cache.stats
        assert (stats.builds, len(warehouse.scenario_cache)) == (2, 1)
        new = _entry(warehouse, dashboard("Acct002"))
        assert new is not old and new.structure is old.structure
        assert new.named["Account"] == {"Acct001", "Acct002"}
        assert new.footprint_rows == 2 * old.footprint_rows
        assert _grid(other) == _reference(dashboard("Acct002"))
        # whoever still holds the old entry holds a consistent piece of it
        assert old.named["Account"] == {"Acct001"}
        assert old.view.leaf_cube.n_leaf_cells <= old.footprint_rows
        sample = list(old.view.leaf_cube.leaf_cells())[:50]
        assert all(new.view.leaf_cube.value(addr) == value for addr, value in sample)
        # both accounts are covered from here on
        for account in ("Acct001", "Acct002"):
            again = warehouse.query(dashboard(account))
            assert again.stats["scenario_cache_hits"] == 1
        assert _grid(warehouse.query(dashboard("Acct001"))) == first_grid
        assert stats.builds == 2

    def test_repeated_shapes_converge_on_the_whole_cube_and_stop_there(self, warehouse):
        whole = (
            f"{PERSPECTIVE}SELECT {{Period.Members}} ON COLUMNS, "
            "{CrossJoin({Department.Children}, {Account.Members})} ON ROWS "
            "FROM [App].[Db] WHERE ([Scenario], [Local], [BU Version_1], [HSP_InputValue])"
        )
        for text in (dashboard("Acct001"), whole, dashboard("Acct002"), whole):
            warehouse.query(text)
        entry = _entry(warehouse, whole)
        assert entry.named == {}
        assert entry.footprint_rows == warehouse.cube.n_leaf_cells
        assert warehouse.scenario_cache.stats.builds == 2  # cold, then widened once

    def test_a_filter_condition_reads_the_whole_cube(self, warehouse):
        text = dashboard("Acct001").replace(
            "{Department.Children}",
            "{Filter({Department.Children}, ([Acct002], [Jan]) > 0)}",
        )
        assert text != dashboard("Acct001")
        result = warehouse.query(text)
        entry = _entry(warehouse, text)
        assert entry.named == {}
        assert entry.footprint_rows == warehouse.cube.n_leaf_cells
        assert warehouse.scenario_cache.stats.builds == 1
        assert _grid(result) == _reference(text)
        ordered = dashboard("Acct001").replace(
            "{Department.Children}",
            "{Order({Department.Children}, ([Acct002], [Jan]), DESC)}",
        )
        assert warehouse.query(ordered).stats["scenario_cache_hits"] == 1
        assert warehouse.scenario_cache.stats.builds == 1

    def test_a_cube_with_a_rule_engine_is_read_whole(self, example):
        warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
        assert warehouse.cube.rules is not None
        text = (
            "WITH PERSPECTIVE {(Feb)} FOR Organization DYNAMIC FORWARD "
            "SELECT {Time.[Jan]} ON COLUMNS, {[Joe]} ON ROWS "
            "FROM Warehouse WHERE ([NY], [Salary])"
        )
        warehouse.query(text)
        entry = _entry(warehouse, text)
        assert entry.named == {}
        assert entry.footprint_rows == warehouse.cube.n_leaf_cells

    def test_a_version_bump_drops_structure_and_data_together(self, warehouse):
        warehouse.query(dashboard("Acct001"))
        old = _entry(warehouse, dashboard("Acct001"))
        addr, value = next(iter(warehouse.cube.leaf_cells()))
        warehouse.cube.set_value(addr, value + 1.0)
        result = warehouse.query(dashboard("Acct001"))
        assert result.stats["scenario_cache_misses"] == 1
        stats = warehouse.scenario_cache.stats
        assert (stats.invalidations, stats.builds) == (1, 2)
        new = _entry(warehouse, dashboard("Acct001"))
        assert new.structure is not old.structure and new.view is not old.view
        assert len(warehouse.scenario_cache) == 1

    def test_explain_then_query_is_one_entry_filled_in(self, warehouse):
        explain_report(warehouse, dashboard("Acct001"))
        structure_only = _entry(warehouse, dashboard("Acct001"))
        assert structure_only.view is None and structure_only.named is None
        result = warehouse.query(dashboard("Acct001"))
        assert result.stats["scenario_cache_hits"] == 1  # the chain's entry was there
        filled = _entry(warehouse, dashboard("Acct001"))
        assert filled.structure is structure_only.structure  # Φ ran once
        assert filled.view is not None
        assert len(warehouse.scenario_cache) == 1


class TestConcurrentMisses:
    def test_threads_missing_at_once_lose_no_build_and_corrupt_nothing(self, warehouse):
        """Same shape as the cache's own
        ``test_concurrent_puts_lose_no_build_and_share_no_eviction``: every
        apply is a counted build, and every reply is the reference grid
        whichever entry it read."""
        texts = [dashboard("Acct001"), dashboard("Acct002"), dashboard("Acct001")]
        expected = {text: _reference(text) for text in set(texts)}
        warehouse.query(dashboard("Acct000"))  # the entry all of them find too narrow
        n_rounds = 6
        barrier = threading.Barrier(len(texts))
        errors: list[BaseException] = []
        misses = [0] * len(texts)

        def worker(slot: int) -> None:
            try:
                for _ in range(n_rounds):
                    barrier.wait(timeout=30)
                    result = warehouse.query(texts[slot])
                    assert _grid(result) == expected[texts[slot]]
                    misses[slot] += result.stats.get("scenario_cache_misses", 0)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(texts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert sum(misses) == 0  # the chain's entry was always there
        assert len(warehouse.scenario_cache) == 1
        # a widening put may be overwritten by a narrower one that raced it;
        # the next queries widen again, and then everyone is covered
        for text in texts:
            assert _grid(warehouse.query(text)) == expected[text]
        settled = warehouse.scenario_cache.stats.builds
        assert 2 <= settled <= 1 + n_rounds * len(texts) + len(texts)
        entry = _entry(warehouse, texts[0])
        assert entry.named["Account"] >= {"Acct001", "Acct002"}
        for text in texts:
            assert _grid(warehouse.query(text)) == expected[text]
        assert warehouse.scenario_cache.stats.builds == settled


class TestValidationFollowsTheFootprint:
    """ρ refuses a member with data at two instances at one moment.  The
    refusal is raised for the rows a query's cells can reach, with the
    whole-cube message and first-offender rule among those rows."""

    @staticmethod
    def _clash(workforce, account: str, employee_at: int) -> "tuple[str, str]":
        """Give a never-moving employee a second instance with data in
        January of ``account``; returns (employee, home department)."""
        warehouse = workforce.warehouse
        moving = set(workforce.changing_employees)
        department = warehouse.schema.dimension("Department")
        steady = [m.name for m in department.leaf_members() if m.name not in moving]
        employee = steady[employee_at]
        home = department.member(employee).parent.name
        other = next(d for d in workforce.departments if d != home)
        warehouse.cube.set_value(
            (f"Department/{other}/{employee}", "Jan", account, "Current", "Local",
             "BU Version_1", "HSP_InputValue"),
            1.0,
        )
        return employee, home

    def test_the_query_naming_the_offender_raises_the_whole_cubes_error(self, workforce):
        warehouse = workforce.warehouse
        employee, home = self._clash(workforce, "Acct001", 0)
        assert check_warehouse(warehouse)  # the whole-cube audit still sees it
        chain = build_scenarios(warehouse, parse_query(dashboard("Acct001")))
        with pytest.raises(QueryError) as whole:
            apply_scenarios(warehouse.cube, chain)
        assert repr(employee) in str(whole.value)
        for text in (dashboard("Acct001"), employees(home, "Acct001")):
            with pytest.raises(QueryError) as caught:
                warehouse.query(text, analyze=False)
            assert str(caught.value) == str(whole.value)
        assert len(warehouse.scenario_cache) == 0  # nothing half-applied was kept

    def test_a_query_no_cell_of_which_reaches_it_answers(self, workforce):
        warehouse = workforce.warehouse
        self._clash(workforce, "Acct001", 0)
        for text in (dashboard("Acct000"), dashboard("Acct002")):
            # ... bit-identical to the same query on the repaired cube
            assert _grid(warehouse.query(text, analyze=False)) == _reference(text)

    def test_the_first_offender_is_the_first_among_the_rows_read(self, workforce):
        warehouse = workforce.warehouse
        first, _ = self._clash(workforce, "Acct001", 0)
        second, _ = self._clash(workforce, "Acct002", 1)
        chain = build_scenarios(warehouse, parse_query(dashboard("Acct001")))
        with pytest.raises(QueryError) as whole:
            apply_scenarios(warehouse.cube, chain)
        with pytest.raises(QueryError) as narrow:
            warehouse.query(dashboard("Acct002"), analyze=False)
        assert repr(first) in str(whole.value) and repr(second) not in str(whole.value)
        assert repr(second) in str(narrow.value) and repr(first) not in str(narrow.value)


class TestNonVisualValidationFollowsTheLeaves:
    """The same refusal under a NON_VISUAL perspective, whose cells off the
    leaves are the base cube's (Sec. 3.3): ρ runs — and refuses — only for
    a grid with a cell at leaf level, over the rows that grid reaches."""

    def test_a_leaf_grid_reaching_the_offender_raises_the_whole_cubes_error(self, workforce):
        warehouse = workforce.warehouse
        employee, home = TestValidationFollowsTheFootprint._clash(workforce, "Acct001", 0)
        text = employees(home, "Acct001", NON_VISUAL)
        chain = build_scenarios(warehouse, parse_query(text))
        with pytest.raises(QueryError) as whole:
            apply_scenarios(warehouse.cube, chain)
        assert repr(employee) in str(whole.value)
        with pytest.raises(QueryError) as caught:
            warehouse.query(text, analyze=False)
        assert str(caught.value) == str(whole.value)
        assert len(warehouse.scenario_cache) == 0  # nothing half-applied was kept

    def test_an_aggregate_only_dashboard_over_the_offender_answers(self, workforce):
        """The department row's footprint holds both of the offender's
        rows, so moving its leaves would raise; no cell reads one, and the
        grid is the one the repaired cube answers."""
        warehouse = workforce.warehouse
        _, home = TestValidationFollowsTheFootprint._clash(workforce, "Acct001", 0)
        text = dashboard("Acct001", NON_VISUAL).replace(
            "{Department.Children}", f"{{[{home}]}}"
        )
        assert _grid(warehouse.query(text, analyze=False)) == _reference(text)
        # ... and a leaf grid under the same entry still refuses
        with pytest.raises(QueryError):
            warehouse.query(employees(home, "Acct001", NON_VISUAL), analyze=False)
        assert _grid(warehouse.query(text, analyze=False)) == _reference(text)


class TestObservability:
    def _traced(self, warehouse, text):
        with tracing():
            result = warehouse.query(text)
            root = TRACER.take_last()
        return result, root

    def test_spans_say_what_was_read(self, warehouse):
        n_leaves = warehouse.cube.n_leaf_cells
        _, root = self._traced(warehouse, dashboard("Acct001"))
        scenario = root.find("mdx.scenario").attrs
        assert scenario["leaves_in"] == n_leaves
        assert scenario["footprint_rows"] == n_leaves // 6
        relocate = root.find("core.relocate").attrs
        assert relocate["leaves_in"] == n_leaves
        assert relocate["footprint_rows"] == n_leaves // 6
        assert relocate["leaves_out"] + relocate["dropped"] == relocate["footprint_rows"]
        # warm and covered: the same numbers, nothing applied
        result, root = self._traced(warehouse, dashboard("Acct001"))
        assert result.stats["scenario_cache_hits"] == 1
        assert root.find("mdx.scenario").attrs["footprint_rows"] == n_leaves // 6
        assert root.find("core.relocate") is None

    def test_split_reads_its_footprint_and_relocate_what_split_left(self, warehouse, workforce):
        moving = set(workforce.changing_employees)
        department = warehouse.schema.dimension("Department")
        employee = next(
            m.name for m in department.leaf_members() if m.name not in moving
        )
        home = department.member(employee).parent.name
        target = next(d for d in workforce.departments if d != home)
        clause = (
            f"WITH CHANGES {{([{employee}], [{home}], [{target}], [Apr])}} FOR Department VISUAL "
            + PERSPECTIVE.replace("WITH ", "")
        )
        _, root = self._traced(warehouse, employees(target, "Acct001", clause))
        split, relocate = root.find("core.split").attrs, root.find("core.relocate").attrs
        assert split["leaves_in"] == warehouse.cube.n_leaf_cells
        assert 0 < split["footprint_rows"] < warehouse.cube.n_leaf_cells // 6
        assert relocate["leaves_in"] == relocate["footprint_rows"] == split["leaves_out"]

    def test_a_leafless_non_visual_dashboard_moves_no_leaf(self, warehouse):
        result, root = self._traced(warehouse, dashboard("Acct001", NON_VISUAL))
        assert result.stats["scenario_cache_misses"] == 1
        assert root.find("mdx.scenario").attrs["leaves_moved"] is False
        opened = {span.name for span in root.iter_spans()}
        assert not opened & {"core.relocate", "scenario.leaves"}
        assert _grid(result) == _reference(dashboard("Acct001", NON_VISUAL))

    def test_a_leaf_grid_then_moves_them_once_in_the_scenario_phase(self, warehouse, workforce):
        warehouse.query(dashboard("Acct001", NON_VISUAL))
        text = employees(workforce.departments[1], "Acct001", NON_VISUAL)
        result, root = self._traced(warehouse, text)
        assert result.stats["scenario_cache_hits"] == 1  # the dashboard's entry
        relocates = [span for span in root.iter_spans() if span.name == "core.relocate"]
        assert len(relocates) == 1
        phase = root.find("mdx.scenario")
        assert phase.attrs["leaves_moved"] is True
        assert relocates[0] in list(phase.find("scenario.leaves").iter_spans())
        assert relocates[0].attrs["footprint_rows"] == warehouse.cube.n_leaf_cells // 6
        assert _grid(result) == _reference(text)
        # moved once: the next leaf grid moves nothing
        _, root = self._traced(warehouse, employees(workforce.departments[2], "Acct001", NON_VISUAL))
        assert root.find("core.relocate") is None

    def test_the_footprint_follows_the_leaves(self, warehouse, workforce, monkeypatch):
        """A leafless NON_VISUAL dashboard computes no footprint row; the
        first leaf grid its entry covers computes them once, for the
        footprint the entry was asked for, inside the leaves' build."""
        text = dashboard("Acct001", NON_VISUAL)
        leaf = employees(workforce.departments[1], "Acct001", NON_VISUAL)
        expected = {text: _reference(text), leaf: _reference(leaf)}
        calls = []
        footprint_rows = scenario_module.footprint_rows

        def counted(cube, scenarios, structure, named):
            calls.append(dict(named))
            return footprint_rows(cube, scenarios, structure, named)

        monkeypatch.setattr(scenario_module, "footprint_rows", counted)
        result, root = self._traced(warehouse, text)
        assert calls == []
        assert _grid(result) == expected[text]
        entry = _entry(warehouse, text)
        assert entry.footprint_rows is None  # deferred with the leaves
        assert root.find("mdx.scenario").attrs["footprint_rows"] is None
        result, root = self._traced(warehouse, leaf)
        assert result.stats["scenario_cache_hits"] == 1
        assert _entry(warehouse, leaf) is entry  # covered: no new entry
        assert calls == [dict(entry.named)]
        assert entry.footprint_rows == warehouse.cube.n_leaf_cells // 6
        assert root.find("mdx.scenario").attrs["footprint_rows"] == entry.footprint_rows
        assert _grid(result) == expected[leaf]
        warehouse.query(employees(workforce.departments[2], "Acct001", NON_VISUAL))
        assert len(calls) == 1

    def test_threads_racing_the_first_leaf_read_move_the_leaves_once(
        self, warehouse, workforce, monkeypatch
    ):
        texts = [employees(d, "Acct001", NON_VISUAL) for d in workforce.departments]
        expected = {text: _reference(text) for text in texts}
        warehouse.query(dashboard("Acct001", NON_VISUAL))  # the entry, leaves not moved
        calls = []
        relocate = scenario_module.relocate
        monkeypatch.setattr(
            scenario_module, "relocate", lambda *args: calls.append(1) or relocate(*args)
        )
        barrier = threading.Barrier(len(texts))
        errors: list[BaseException] = []

        def worker(text: str) -> None:
            try:
                barrier.wait(timeout=30)
                assert _grid(warehouse.query(text)) == expected[text]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=worker, args=(text,)) for text in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(calls) == 1
        assert warehouse.scenario_cache.stats.builds == 1

    def test_explain_prints_the_footprint_and_applies_nothing(self, warehouse):
        n_leaves = warehouse.cube.n_leaf_cells
        with tracing() as tracer:
            report = explain_report(warehouse, dashboard("Acct001"))
            root = tracer.take_last()
        assert report["footprint"] == {
            "restricted": [
                "Account", "Currency", "Department", "Period", "Scenario", "Value", "Version",
            ],
            "rows": n_leaves // 6,
            "leaf_cells": n_leaves,
        }
        opened = {span.name for span in root.iter_spans()}
        assert not opened & {"scenario.apply", "core.relocate", "core.split", "mdx.cells"}
        rendered = explain_query(warehouse, dashboard("Acct001"))
        assert f"footprint: {n_leaves // 6} of {n_leaves} base row(s)" in rendered
        # what the query then applies under
        warehouse.query(dashboard("Acct001"))
        assert _entry(warehouse, dashboard("Acct001")).footprint_rows == report["footprint"]["rows"]
        # a base-cube query has no chain, hence no footprint
        assert "footprint" not in explain_report(warehouse, dashboard("Acct001", ""))


class TestValidityMap:
    """Φ's output reads as the path → output set dict it replaced: built
    here member by member (``phi_member``), the way that dict was."""

    def test_reads_as_the_eager_dict(self, warehouse):
        varying = warehouse.schema.varying_dimension("Department")
        members = sorted(
            {c.rsplit("/", 1)[-1] for c in warehouse.cube.coordinates_used("Department")}
        )
        pset = PerspectiveSet.from_names(["Mar", "Sep"], varying)
        for semantics in Semantics:
            eager = {
                instance.full_path: validity
                for member in members
                for instance, validity in phi_member(
                    varying.instances_of(member), pset, semantics
                ).items()
            }
            vm = phi_validity(varying, members, pset, semantics)
            assert isinstance(vm, ValidityMap) and isinstance(vm, Mapping)
            assert not isinstance(vm, dict)
            # length, order and membership come off the table
            assert len(vm) == len(eager)
            assert list(vm) == list(eager)
            assert all(path in vm for path in eager)
            dropped = [
                instance.full_path
                for member in members
                for instance in varying.instances_of(member)
                if instance.full_path not in eager
            ]
            assert not any(path in vm for path in dropped)
            assert "Department/nowhere" not in vm and 7 not in vm
            assert vm.keys() == eager.keys()
            assert vm._entries is None  # no set built yet
            assert dict(vm) == eager and list(vm.items()) == list(eager.items())
            assert vm == eager and eager == vm
            assert vm[next(iter(eager))] == next(iter(eager.values()))
            with pytest.raises(TypeError):
                vm["Department/x"] = next(iter(eager.values()))  # read-only
