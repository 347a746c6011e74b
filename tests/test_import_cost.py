"""What a process pays before its first answer must not include what it
never uses: ``networkx`` (0.13–0.20 s, ≈ 13 MB) is needed only where a
merge graph is built — the pebbling planner and the coordinator's shard
plan — so a process that queries a warehouse, every shard worker
included, never imports it."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import repro
from repro import Warehouse
from repro.workload import build_running_example

example = build_running_example()
warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
grid = warehouse.query(
    "WITH PERSPECTIVE {{(Feb)}} FOR Organization STATIC "
    "SELECT {{Time.[Jan]}} ON COLUMNS, {{[FTE], [Joe]}} ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])"
)
assert grid.cells, grid
import repro.service  # what a shard worker imports
assert "networkx" not in sys.modules, "a plain query imported networkx"

# ... and whoever does build a graph still gets it, on demand
from repro.service.shard import build_shard_plan
plan = build_shard_plan(warehouse, "Organization", 2, chunk=2)
assert all(plan.shards), plan
assert "networkx" in sys.modules
print("ok")
"""


def test_a_query_never_imports_networkx_and_the_shard_planner_still_does():
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(src=SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
