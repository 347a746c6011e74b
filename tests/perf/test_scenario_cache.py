"""Tests for the scenario-cube cache (repro.perf.scenario_cache)."""

from __future__ import annotations

import pytest

from repro.core.operators import ChangeTuple
from repro.core.perspective import Mode, Semantics
from repro.core.scenario import NegativeScenario, PositiveScenario
from repro.perf.scenario_cache import ScenarioCache
from repro.warehouse import Warehouse

PERSPECTIVE_QUERY = """
    WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
    SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
           {[Joe]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
"""


@pytest.fixture
def warehouse(example) -> Warehouse:
    return Warehouse(example.schema, example.cube, name="Warehouse")


class TestFingerprints:
    def test_negative_normalises_perspective_order(self):
        a = NegativeScenario("Org", ["Feb", "Apr"], Semantics.STATIC, Mode.VISUAL)
        b = NegativeScenario("Org", ["Apr", "Feb"], Semantics.STATIC, Mode.VISUAL)
        assert a.fingerprint() == b.fingerprint()

    def test_negative_distinguishes_semantics_and_mode(self):
        base = NegativeScenario("Org", ["Feb"], Semantics.STATIC, Mode.VISUAL)
        other_sem = NegativeScenario(
            "Org", ["Feb"], Semantics.FORWARD, Mode.VISUAL
        )
        other_mode = NegativeScenario(
            "Org", ["Feb"], Semantics.STATIC, Mode.NON_VISUAL
        )
        assert base.fingerprint() != other_sem.fingerprint()
        assert base.fingerprint() != other_mode.fingerprint()

    def test_positive_normalises_change_order(self):
        c1 = ChangeTuple("Joe", "FTE", "PTE", "Feb")
        c2 = ChangeTuple("Lisa", "FTE", "PTE", "Apr")
        a = PositiveScenario("Org", [c1, c2])
        b = PositiveScenario("Org", [c2, c1])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != PositiveScenario("Org", [c1]).fingerprint()

    def test_fingerprints_are_hashable(self):
        scenario = NegativeScenario("Org", ["Feb"])
        assert hash(scenario.fingerprint()) == hash(scenario.fingerprint())

    def test_negative_ignores_repeated_perspective_points(self):
        """P is a set (WIF104: duplicates have no effect)."""
        once = NegativeScenario("Org", ["Jan", "Apr"], Semantics.FORWARD)
        twice = NegativeScenario("Org", ["Jan", "Apr", "Jan"], Semantics.FORWARD)
        assert once.fingerprint() == twice.fingerprint()

    def test_positive_keeps_listing_order_within_one_moment(self):
        """S applies same-moment tuples in listing order — the second move
        of a member only validates after the first — so the key may
        normalise order across moments only."""
        first = ChangeTuple("Lisa", "FTE", "Contractor", "Apr")
        then = ChangeTuple("Lisa", "Contractor", "PTE", "Apr")
        other = ChangeTuple("Joe", "FTE", "PTE", "Feb")
        listed = PositiveScenario("Org", [first, then, other])
        assert (
            listed.fingerprint()
            == PositiveScenario("Org", [other, first, then]).fingerprint()
            == PositiveScenario("Org", [first, other, then]).fingerprint()
        )
        assert (
            listed.fingerprint()
            != PositiveScenario("Org", [then, first, other]).fingerprint()
        )


class TestScenarioCacheUnit:
    def test_hit_and_miss_counting(self):
        cache = ScenarioCache()
        assert cache.get("k", 0) is None
        cache.put("k", 0, "value")
        assert cache.get("k", 0) == "value"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_version_mismatch_invalidates(self):
        cache = ScenarioCache()
        cache.put("k", 0, "old")
        assert cache.get("k", 1) is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = ScenarioCache(maxsize=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) == 1  # refresh a; b is now LRU
        cache.put("c", 0, 3)
        assert len(cache) == 2
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1
        assert cache.get("c", 0) == 3

    def test_discard_counts_invalidation(self):
        cache = ScenarioCache()
        cache.put("k", 0, "v")
        cache.discard("k")
        cache.discard("k")  # absent: no double count
        assert cache.stats.invalidations == 1

    def test_discard_is_not_an_eviction_or_miss(self):
        cache = ScenarioCache()
        cache.put("k", 0, "v")
        cache.discard("k")
        assert cache.stats.invalidations == 1
        assert cache.stats.evictions == 0
        assert cache.stats.misses == 0

    def test_lru_eviction_is_counted_once(self):
        cache = ScenarioCache(maxsize=1)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)  # evicts a
        assert cache.stats.evictions == 1
        assert cache.stats.invalidations == 0
        # Looking up the evicted key is a plain miss, not a second
        # eviction or an invalidation.
        assert cache.get("a", 0) is None
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 1
        assert cache.stats.invalidations == 0

    def test_version_mismatch_counts_one_invalidation_and_one_miss(self):
        cache = ScenarioCache()
        cache.put("k", 0, "old")
        assert cache.get("k", 1) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 0
        # The entry is gone: the next stale-version lookup is a plain
        # miss, not a second invalidation.
        assert cache.get("k", 1) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 2

    def test_overwrite_same_key_never_evicts(self):
        cache = ScenarioCache(maxsize=1)
        cache.put("k", 0, "v1")
        cache.put("k", 1, "v2")
        assert len(cache) == 1
        assert cache.stats.evictions == 0
        assert cache.get("k", 1) == "v2"

    def test_eviction_appears_in_snapshot(self):
        cache = ScenarioCache(maxsize=1)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.stats.snapshot()["evictions"] == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            ScenarioCache(maxsize=0)

    def test_put_counts_the_build_and_returns_its_own_evictions(self):
        cache = ScenarioCache(maxsize=1)
        assert cache.put("a", 0, 1) == 0
        assert cache.put("b", 0, 2) == 1  # displaced a
        assert cache.put("b", 1, 3) == 0  # overwrite: nothing leaves
        assert cache.stats.builds == 3
        assert cache.stats.evictions == 1

    def test_concurrent_puts_lose_no_build_and_share_no_eviction(self):
        """Every put is a build, and the evictions the puts report add up
        to the cache's count: both are taken under the cache lock."""
        import sys
        import threading

        n_threads, per_thread = 4, 200
        cache = ScenarioCache(maxsize=1)
        barrier = threading.Barrier(n_threads)
        billed = [0] * n_threads

        def worker(slot: int) -> None:
            barrier.wait(timeout=30)
            for i in range(per_thread):
                billed[slot] += cache.put((slot, i), 0, i)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # a lost update needs a switch mid-put
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.stats.builds == n_threads * per_thread
        assert sum(billed) == cache.stats.evictions == n_threads * per_thread - 1


class TestWarehouseIntegration:
    def test_repeat_query_hits_cache(self, warehouse):
        first = warehouse.query(PERSPECTIVE_QUERY)
        second = warehouse.query(PERSPECTIVE_QUERY)
        assert first.cells == second.cells
        assert first.stats.get("scenario_cache_misses") == 1
        assert second.stats.get("scenario_cache_hits") == 1
        assert warehouse.scenario_cache.stats.builds == 1

    def test_mutation_invalidates(self, warehouse):
        warehouse.query(PERSPECTIVE_QUERY)
        addr, value = next(iter(warehouse.cube.leaf_cells()))
        warehouse.cube.set_value(addr, value + 1.0)
        result = warehouse.query(PERSPECTIVE_QUERY)
        assert result.stats.get("scenario_cache_misses") == 1
        assert warehouse.scenario_cache.stats.invalidations == 1

    def test_equivalent_with_clauses_share_one_entry(self, warehouse):
        reordered = PERSPECTIVE_QUERY.replace("(Feb), (Apr)", "(Apr), (Feb)")
        first = warehouse.query(PERSPECTIVE_QUERY)
        second = warehouse.query(reordered)
        assert first.cells == second.cells
        assert second.stats.get("scenario_cache_hits") == 1
        assert len(warehouse.scenario_cache) == 1

    def test_unscenarioed_query_bypasses_cache(self, warehouse):
        result = warehouse.query(
            "SELECT {Time.[Qtr1]} ON COLUMNS FROM Warehouse"
        )
        assert "scenario_cache_misses" not in result.stats
        assert len(warehouse.scenario_cache) == 0

    def test_eviction_surfaces_in_result_stats(self, warehouse):
        warehouse.scenario_cache = ScenarioCache(maxsize=1)
        other = PERSPECTIVE_QUERY.replace("(Feb), (Apr)", "(Mar)")
        first = warehouse.query(PERSPECTIVE_QUERY)
        second = warehouse.query(other)  # displaces the first entry
        assert "scenario_cache_evictions" not in first.stats
        assert second.stats.get("scenario_cache_evictions") == 1
        assert warehouse.scenario_cache.stats.evictions == 1


    def test_repeated_perspective_point_hits_the_entry_without_it(self, warehouse):
        repeated = PERSPECTIVE_QUERY.replace("(Feb), (Apr)", "(Feb), (Apr), (Feb)")
        first = warehouse.query(PERSPECTIVE_QUERY)
        second = warehouse.query(repeated)  # WIF104 is a warning: it runs
        assert first.cells == second.cells
        assert second.stats.get("scenario_cache_hits") == 1
        assert len(warehouse.scenario_cache) == 1

    def test_reversed_same_moment_changes_answer_the_same_warm_and_cold(
        self, example
    ):
        """Two moves of Lisa in April only apply in listing order; the
        reversed listing must be refused whether or not the listed one is
        cached (it used to share its key and return its grid when warm)."""
        from repro.errors import InvalidChangeError
        from repro.workload.running_example import build_running_example

        first = "([Lisa], [FTE], [Contractor], [Apr])"
        then = "([Lisa], [Contractor], [PTE], [Apr])"
        text = (
            "WITH CHANGES {%s} FOR Organization "
            "SELECT {Time.[Mar], Time.[Apr]} ON COLUMNS, {[Lisa]} ON ROWS "
            "FROM Warehouse WHERE ([NY], [Salary])"
        )
        listed, reversed_ = text % f"{first}, {then}", text % f"{then}, {first}"

        cold = Warehouse(example.schema, example.cube, name="Warehouse")
        with pytest.raises(InvalidChangeError):
            cold.query(reversed_, analyze=False)

        fresh = build_running_example()
        warm = Warehouse(fresh.schema, fresh.cube, name="Warehouse")
        assert warm.query(listed, analyze=False).row_labels() == [
            "FTE/Lisa",
            "PTE/Lisa",
        ]
        with pytest.raises(InvalidChangeError):
            warm.query(reversed_, analyze=False)

    def test_a_query_is_billed_only_its_own_evictions(self, warehouse):
        """Two workers missing at once on a one-entry cache: every build is
        counted, and the evictions the two results report add up to the
        cache's — neither is billed the other's."""
        import threading

        warehouse.scenario_cache = ScenarioCache(maxsize=1)
        warehouse.query(PERSPECTIVE_QUERY)  # the entry both will displace
        texts = [
            PERSPECTIVE_QUERY.replace("(Feb), (Apr)", "(Mar)"),
            PERSPECTIVE_QUERY.replace("(Feb), (Apr)", "(May)"),
        ]
        barrier = threading.Barrier(len(texts))
        results = [None] * len(texts)

        def worker(slot: int) -> None:
            barrier.wait(timeout=30)
            results[slot] = warehouse.query(texts[slot])

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(len(texts))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        stats = warehouse.scenario_cache.stats
        assert stats.builds == 3
        assert stats.evictions == 2
        billed = [r.stats.get("scenario_cache_evictions", 0) for r in results]
        assert billed == [1, 1]


class TestConcurrentInvalidation:
    """Satellite regression: scenario-cache invalidation under concurrent
    ``Cube.set_value`` — readers racing a writer must neither crash nor
    ever serve a scenario cube computed against a stale base version."""

    def test_queries_race_mutations_without_corruption(self, warehouse):
        import threading

        errors: list[BaseException] = []
        stop = threading.Event()
        addr, base_value = next(iter(warehouse.cube.leaf_cells()))

        def reader() -> None:
            while not stop.is_set():
                try:
                    warehouse.query(PERSPECTIVE_QUERY, analyze=False)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        def writer() -> None:
            bump = 0.0
            while not stop.is_set():
                bump += 1.0
                try:
                    warehouse.cube.set_value(addr, base_value + bump)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []
        # The cache settles: a fresh warehouse rebuilt from the final leaf
        # data answers identically (nothing stale survived the storm).
        from repro.workload.running_example import build_running_example

        final = warehouse.query(PERSPECTIVE_QUERY, analyze=False)
        rebuilt_example = build_running_example()
        rebuilt = Warehouse(
            rebuilt_example.schema, rebuilt_example.cube, name="Warehouse"
        )
        for leaf_addr, value in warehouse.cube.leaf_cells():
            rebuilt.cube.set_value(leaf_addr, value)
        expected = rebuilt.query(PERSPECTIVE_QUERY, analyze=False)
        assert final.cells == expected.cells

    def test_lookup_accounting_is_atomic(self, warehouse):
        import threading

        addr, value = next(iter(warehouse.cube.leaf_cells()))
        warehouse.query(PERSPECTIVE_QUERY)  # seed one cache entry

        def bump(step: int) -> None:
            warehouse.cube.set_value(addr, value + step)
            warehouse.query(PERSPECTIVE_QUERY)

        threads = [
            threading.Thread(target=bump, args=(step,)) for step in range(1, 5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every scenarioed query does exactly one lookup; under a torn
        # counter update these would not add up.
        stats = warehouse.scenario_cache.stats
        assert stats.hits + stats.misses == 5
        assert stats.invalidations <= stats.misses
        # One query text -> at most one surviving entry.
        assert len(warehouse.scenario_cache) <= 1
