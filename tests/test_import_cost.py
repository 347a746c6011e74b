"""What a process pays before its first answer must not include what it
never uses: ``networkx`` (0.13–0.20 s, ≈ 13 MB) is needed only where the
paper's Sec. 5 code builds a merge graph — the pebbling planner — so a
process that queries a warehouse, serves it (shard workers and the
coordinator's shard plan included) or merges catalog deltas never
imports it."""

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
from repro.service.shard import build_shard_plan
plan = build_shard_plan(warehouse, "Organization", 2)
assert all(plan.shards), plan
from repro.catalog.model import conflicting_chunks
address = ("Organization/FTE/Joe",) * 4
assert conflicting_chunks({{address: 1.0}}, {{address: 2.0}}, 1)[0]
assert "networkx" not in sys.modules, "networkx imported off the Sec. 5 path"

# ... and the Sec. 5 pebbling planner, which builds a graph, still gets it
from repro.core.merge_graph import fig8_example_graph
from repro.core.pebbling import pebble
assert pebble(fig8_example_graph()).max_pebbles == 3
assert "networkx" in sys.modules
print("ok")
"""


def test_serving_never_imports_networkx_and_the_pebbling_planner_still_does():
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(src=SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
