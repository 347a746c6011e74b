"""What a process pays before its first answer must not include what it
never uses.

* ``networkx`` (0.13–0.20 s, ≈ 13 MB) is needed only where the paper's
  Sec. 5 code builds a merge graph — the pebbling planner — so a process
  that queries a warehouse, serves it (shard workers and the
  coordinator's shard plan included) or merges catalog deltas never
  imports it.
* Every package ``__init__`` re-exports lazily, so a process that runs a
  query, and a shard worker that opens its slice and answers a block,
  import none of the serving front end, the catalog, durability, saving
  and loading, the paper-figure harness or the linter — while every name
  a package's ``__all__`` lists still resolves and ``from repro import
  *`` still works.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

_QUERY = (
    "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC "
    "SELECT {Time.[Jan]} ON COLUMNS, {[FTE], [Joe]} ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])"
)

#: what neither a query process nor a shard worker may import: a name
#: stands for the module and everything under it
NEVER_ON_THE_QUERY_PATH = (
    "repro.service.http_api",
    "repro.service.stress",
    "repro.service.supervisor",
    "repro.catalog",
    "repro.durability",
    "repro.io",
    "repro.bench",
    "repro.lint.runner",
    "repro.lint.check_",
)

_NETWORKX_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import repro
from repro import Warehouse
from repro.workload import build_running_example

example = build_running_example()
warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
grid = warehouse.query({query!r})
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

_QUERY_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro import Warehouse
from repro.workload import build_running_example

example = build_running_example()
warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
assert warehouse.query({query!r}).cells
print(json.dumps(sorted(sys.modules)))
"""

#: a shard worker, driven over a pipe as the coordinator drives it: the
#: spawn target's module, *ready*, the pickled slice, *hello*, one block
#: of cells, shutdown — the coordinator's side imports nothing of repro
_WORKER_SCRIPT = """
import json, pickle, sys, threading
from multiprocessing import Pipe
sys.path.insert(0, {src!r})
with open({path!r}, "rb") as handle:
    payload, request = pickle.load(handle)
here, there = Pipe()
from repro.service.shard import shard_worker_main  # what unpickling the target imports
worker = threading.Thread(target=shard_worker_main, args=(there, 0))
worker.start()
assert here.recv()["ok"]
here.send_bytes(payload)
assert here.recv()["ok"]
here.send(request)
reply = here.recv()
assert reply["ok"], reply
here.send({{"op": "shutdown"}})
assert here.recv()["ok"]
worker.join()
print(json.dumps(sorted(sys.modules)))
"""

_EXPORTS_SCRIPT = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
namespace = {{}}
exec("from repro import *", namespace)
import repro
assert set(repro.__all__) <= set(namespace), set(repro.__all__) - set(namespace)
packages = ["repro"] + [
    "repro." + info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]
for name in packages:
    package = importlib.import_module(name)
    for export in package.__all__:
        assert getattr(package, export) is not None, (name, export)
        assert export in dir(package), (name, export)
print(len(packages))
"""


def _run(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def _forbidden(modules: "list[str]") -> "list[str]":
    return [
        module
        for module in modules
        for never in NEVER_ON_THE_QUERY_PATH
        if module == never or module.startswith(never if never.endswith("_") else never + ".")
    ]


def test_serving_never_imports_networkx_and_the_pebbling_planner_still_does():
    assert _run(_NETWORKX_SCRIPT.format(src=SRC, query=_QUERY)) == "ok"


def test_a_query_process_imports_nothing_it_does_not_run():
    modules = json.loads(_run(_QUERY_SCRIPT.format(src=SRC, query=_QUERY)))
    assert "repro.mdx.evaluator" in modules
    assert _forbidden(modules) == []
    assert not [m for m in modules if m.startswith("repro.service")]


def test_a_shard_worker_imports_the_shard_module_alone_of_the_service(tmp_path):
    from repro.mdx.evaluator import prepare
    from repro.service.shard import build_shard_plan, cells_request, make_slice
    from repro.warehouse import Warehouse
    from repro.workload import build_running_example

    example = build_running_example()
    warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
    plan = build_shard_plan(warehouse, "Organization", 2)
    piece = make_slice(warehouse, "Organization", plan.shards[0])
    resolved = prepare(warehouse, _QUERY).resolve()
    request = cells_request(
        _QUERY, dict(resolved.base_coords), [(resolved.rows, resolved.columns)]
    )
    path = tmp_path / "slice.pickle"
    path.write_bytes(pickle.dumps((pickle.dumps(piece), request)))
    modules = json.loads(_run(_WORKER_SCRIPT.format(src=SRC, path=str(path))))
    assert "repro.mdx.evaluator" in modules
    assert _forbidden(modules) == []
    assert [m for m in modules if m.startswith("repro.service")] == [
        "repro.service",
        "repro.service.shard",
    ]


def test_the_forbidden_list_names_modules_that_exist():
    # a typo in NEVER_ON_THE_QUERY_PATH would make the two tests above
    # vacuous: every entry names a module or (a ``_`` prefix) some modules
    root = Path(SRC)
    files = {
        ".".join(path.relative_to(root).with_suffix("").parts).removesuffix(".__init__")
        for path in root.rglob("*.py")
    }
    for never in NEVER_ON_THE_QUERY_PATH:
        assert any(name == never or name.startswith(never) for name in files), never


def test_every_export_of_every_package_resolves_and_star_import_works():
    assert int(_run(_EXPORTS_SCRIPT.format(src=SRC))) >= 12


def test_every_lazy_table_mirrors_its_type_checking_imports():
    # a type checker reads the ``if TYPE_CHECKING:`` imports, the runtime
    # the ``lazy_exports`` table: the two must name the same exports
    import ast

    for init in sorted(Path(SRC, "repro").rglob("__init__.py")):
        tree = ast.parse(init.read_text(encoding="utf-8"))
        typed = {
            (node.module, alias.name)
            for statement in tree.body
            if isinstance(statement, ast.If)
            and getattr(statement.test, "id", "") == "TYPE_CHECKING"
            for node in statement.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        (table,) = [
            node.value.args[1]
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", "") == "lazy_exports"
        ]
        lazy = {
            (module.value, name.value)
            for module, names in zip(table.keys, table.values)
            for name in names.elts
        }
        assert typed == lazy, init
