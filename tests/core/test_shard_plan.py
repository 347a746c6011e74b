"""The shard plan: determinism, whole members, coverage, range packing."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.service.shard import ShardPlan, build_shard_plan, build_workload
from repro.workload.workforce import WorkforceConfig, build_workforce


def _slots(n_members: int, instances: int = 1, prefix: str = "m") -> dict:
    return {
        f"{prefix}{i:03d}": [
            f"Dim/cat{i % 4}/{prefix}{i:03d}-{k}" for k in range(instances)
        ]
        for i in range(n_members)
    }


class TestPlanning:
    def test_deterministic(self):
        slots = _slots(40, instances=2)
        a = ShardPlan.pack("Dim", slots, 4)
        b = ShardPlan.pack("Dim", slots, 4)
        assert a.shards == b.shards
        assert dict(a.member_shard) == dict(b.member_shard)
        assert dict(a.label_shard) == dict(b.label_shard)

    def test_every_member_covered_exactly_once(self):
        slots = _slots(33, instances=3)
        plan = ShardPlan.pack("Dim", slots, 5)
        seen: list[str] = []
        for owned in plan.shards:
            seen.extend(owned)
        assert sorted(seen) == sorted(slots)
        for member, labels in slots.items():
            shard = plan.member_shard[member]
            for label in labels:
                assert plan.label_shard[label] == shard

    def test_range_packing_is_contiguous_in_axis_order(self):
        slots = _slots(64)
        plan = ShardPlan.pack("Dim", slots, 4)
        order = {member: i for i, member in enumerate(slots)}
        boundaries = []
        for owned in plan.shards:
            assert owned, "64 members must fill every shard"
            ranks = sorted(order[m] for m in owned)
            # contiguous: the shard owns one unbroken run of the axis
            assert ranks == list(range(ranks[0], ranks[-1] + 1))
            boundaries.append((ranks[0], ranks[-1]))
        assert boundaries == sorted(boundaries)

    def test_balanced_within_group_granularity(self):
        slots = _slots(80)
        plan = ShardPlan.pack("Dim", slots, 4)
        loads = [
            sum(len(slots[m]) for m in owned) for owned in plan.shards
        ]
        assert max(loads) - min(loads) <= 1  # one member's slot count

    def test_single_shard_owns_everything(self):
        slots = _slots(10, instances=2)
        plan = ShardPlan.pack("Dim", slots, 1)
        assert len(plan.shards) == 1
        assert sorted(plan.shards[0]) == sorted(slots)


class TestShardOfCoordinate:
    @pytest.fixture
    def plan(self) -> ShardPlan:
        return ShardPlan.pack("Dim", _slots(16, instances=2), 2)

    def test_resolves_slot_label(self, plan):
        assert plan.shard_of_coordinate("Dim/cat1/m001-0") == plan.member_shard["m001"]

    def test_resolves_bare_member_name(self, plan):
        assert plan.shard_of_coordinate("m005") == plan.member_shard["m005"]

    def test_resolves_member_path_by_last_component(self, plan):
        assert (
            plan.shard_of_coordinate("Dim/whatever/m009")
            == plan.member_shard["m009"]
        )

    def test_root_and_categories_span(self, plan):
        assert plan.shard_of_coordinate("Dim") is None
        assert plan.shard_of_coordinate("Dim/cat1") is None


class TestValidation:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(QueryError):
            ShardPlan.pack("Dim", _slots(4), 0)


@pytest.fixture(scope="module")
def running():
    return build_workload("running"), "Organization"


@pytest.fixture(scope="module")
def ledger_workforce():
    # the ledger's full cube shape (benchmarks/ledger/workloads.py)
    config = WorkforceConfig(
        n_employees=400, n_departments=10, n_changing=40, max_moves=4,
        n_accounts=10, n_scenarios=2, seed=42,
    )
    return build_workforce(config).warehouse, "Department"


class TestEveryShardOwnsAMember:
    """Whatever the shard count, every shard owns a contiguous run of
    whole members, and the loads differ by at most one member's
    instance count."""

    @staticmethod
    def _check(warehouse, dimension: str, n_shards: int) -> None:
        varying = warehouse.schema.varying_dimension(dimension)
        axis = [
            member.name
            for member in varying.dimension.leaf_members()
            if varying.instances_of(member.name)
        ]
        weight = {member: len(varying.instances_of(member)) for member in axis}
        plan = build_shard_plan(warehouse, dimension, n_shards)
        assert len(plan.shards) == n_shards
        assert all(plan.shards), f"an empty shard: {plan.shards}"
        owned = [member for shard in plan.shards for member in shard]
        # each member on exactly one shard, the shards' runs in axis order
        assert owned == axis
        for index, shard in enumerate(plan.shards):
            assert all(plan.member_shard[member] == index for member in shard)
        loads = [sum(weight[member] for member in shard) for shard in plan.shards]
        assert max(loads) - min(loads) <= max(weight.values()), loads
        with pytest.raises(QueryError):
            build_shard_plan(warehouse, dimension, len(axis) + 1)

    @pytest.mark.parametrize("n_shards", range(1, 7))
    def test_running_example(self, running, n_shards):
        self._check(*running, n_shards)

    @pytest.mark.parametrize("n_shards", range(1, 9))
    def test_ledger_workforce(self, ledger_workforce, n_shards):
        self._check(*ledger_workforce, n_shards)
