"""The shard tier's failure policy as two tables — no process, no clock.

``rpc_action`` decides what the coordinator's RPC loop does after a
fault; ``_QueryState.give_up`` applies the degrade policy once a shard is
given up on.  The rows are docs/serving.md "Deadlines, retries, hedging"
and "Degrade policies", sentence by sentence, plus the edges nobody had
written down; ``tests/service/test_shard_chaos.py`` proves the same
contract against real SIGKILLs.
"""

from __future__ import annotations

import pytest

from repro.errors import ShardError
from repro.obs.metrics import MetricsRegistry
from repro.service.service import (
    AWAIT_RESPAWN,
    DEADLINE,
    GIVE_UP,
    HEDGE,
    RAISE,
    RE_GATHER,
    RE_SUBMIT,
    RPC_RETRIES,
    SHARD_ERROR,
    TRANSIENT,
    _QueryState,
    rpc_action,
)

#: a fresh RPC with time left, a dead worker and an answered slot; each
#: row below overrides what it is about
BASE = dict(
    transient=0, respawns=0, remaining=5.0, consumed=True, alive=False, hedging=False
)
LATE = dict(consumed=False, alive=True)  # the worker is up, the answer is not in

POLICY = [
    # "transient faults retry in place, up to RPC_RETRIES times per stage"
    ("a remote-raised transient spent the slot", TRANSIENT, {}, RE_SUBMIT),
    ("a local transient left it intact", TRANSIENT, {"consumed": False}, RE_GATHER),
    ("the last transient retry", TRANSIENT, {"transient": RPC_RETRIES - 1}, RE_SUBMIT),
    ("transient budget spent", TRANSIENT, {"transient": RPC_RETRIES}, RAISE),
    ("... whatever else holds", TRANSIENT, {"transient": RPC_RETRIES, **LATE}, RAISE),
    ("transients ignore the clock", TRANSIENT, {"remaining": 0.0}, RE_SUBMIT),
    # "a dead shard waits, bounded by the deadline, for its respawn"
    ("a dead shard", SHARD_ERROR, {}, AWAIT_RESPAWN),
    ("a scatter that found the shard down", SHARD_ERROR, {"alive": True}, AWAIT_RESPAWN),
    ("a pipe that died mid-wait", SHARD_ERROR, {"consumed": False}, AWAIT_RESPAWN),
    ("the last respawn wait", SHARD_ERROR, {"respawns": RPC_RETRIES - 1}, AWAIT_RESPAWN),
    ("respawn budget spent", SHARD_ERROR, {"respawns": RPC_RETRIES}, GIVE_UP),
    ("dead, and the deadline has passed", SHARD_ERROR, {"remaining": 0.0}, GIVE_UP),
    ("dead, and past the deadline", SHARD_ERROR, {"remaining": -0.2}, GIVE_UP),
    ("a dead shard is never hedged", SHARD_ERROR, {"hedging": True}, AWAIT_RESPAWN),
    # "a slow-but-alive shard past hedge_ms is hedged — under fallback only"
    ("late, under fallback with a hedge", SHARD_ERROR, {**LATE, "hedging": True}, HEDGE),
    ("late, under fail / partial / no hedge", SHARD_ERROR, LATE, GIVE_UP),
    ("hedging needs no respawn budget", SHARD_ERROR,
     {**LATE, "hedging": True, "respawns": RPC_RETRIES}, HEDGE),
    # "every RPC of a query shares one deadline"
    ("the deadline passed before the wait", DEADLINE, {}, GIVE_UP),
    ("... even with a live worker and a hedge", DEADLINE, {**LATE, "hedging": True}, GIVE_UP),
]


@pytest.mark.parametrize(
    "fault, overrides, action", [row[1:] for row in POLICY], ids=[row[0] for row in POLICY]
)
def test_rpc_action(fault, overrides, action):
    assert rpc_action(fault, **{**BASE, **overrides}) == action


def test_the_policy_is_total_and_closed():
    """Every input combination maps to one of the six actions, and a
    transient fault is never answered by giving up on the shard (it is
    retried or raised: the degrade policy never hides it)."""
    actions = {RE_GATHER, RE_SUBMIT, AWAIT_RESPAWN, HEDGE, GIVE_UP, RAISE}
    for fault in (TRANSIENT, SHARD_ERROR, DEADLINE):
        for spent in range(RPC_RETRIES + 2):
            for remaining in (5.0, 0.0):
                for flags in range(8):
                    consumed, alive, hedging = flags & 1, flags & 2, flags & 4
                    action = rpc_action(
                        fault,
                        transient=spent,
                        respawns=spent,
                        remaining=remaining,
                        consumed=bool(consumed),
                        alive=bool(alive),
                        hedging=bool(hedging),
                    )
                    assert action in actions
                    if fault == TRANSIENT:
                        assert action in (RE_GATHER, RE_SUBMIT, RAISE)
                    else:
                        assert action not in (RE_GATHER, RE_SUBMIT, RAISE)


# -- the give-up step: 3 policies ---------------------------------------------------

CELL_0 = (0, 0, ("Joe", "NY", "Jan", "Salary"))
CELL_1 = (1, 0, ("Lisa", "NY", "Jan", "Salary"))
BOOM = ShardError("shard 0 is down", shard=0)


def _state(degrade: str) -> _QueryState:
    return _QueryState(
        degrade,
        MetricsRegistry(),
        owned={0: [CELL_0], 1: [CELL_1]},
        local=[],
        grid=[],
        stats={},
    )


def _fallback_count(state: _QueryState) -> float:
    return state.metrics.value("serve_fallback_cells_total", shard="0")


def test_fail_raises_the_error_and_moves_nothing():
    state = _state("fail")
    with pytest.raises(ShardError) as raised:
        state.give_up(0, "gather failed: boom", BOOM)
    assert raised.value is BOOM
    assert state.owned == {0: [CELL_0], 1: [CELL_1]}
    assert state.fallback == [] and state.lost == []


def test_fallback_recomputes_a_lost_shards_owned_cells_locally():
    state = _state("fallback")
    state.give_up(0, "gather failed: boom", BOOM)
    assert state.owned == {1: [CELL_1]}  # the merge will not look for shard 0
    assert state.fallback == [CELL_0]
    assert _fallback_count(state) == 1
    assert state.lost == []
    state.give_up(0, "again", BOOM)  # nothing left to give up
    assert state.fallback == [CELL_0] and _fallback_count(state) == 1


def test_partial_records_a_lost_shards_owned_cells():
    state = _state("partial")
    state.give_up(0, "gather failed: boom", BOOM)
    assert state.owned == {1: [CELL_1]}
    assert state.lost == [("shard 0: gather failed: boom", [CELL_0])]
    assert state.fallback == [] and _fallback_count(state) == 0
