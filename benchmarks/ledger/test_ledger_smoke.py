"""Smoke tests of the ledger itself.

Not part of tier-1 (``testpaths`` is ``tests/``); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.ledger import stats  # noqa: E402
from benchmarks.ledger.workloads import SMOKE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(HERE / "run.py")]


def test_every_declared_metric_is_printed_with_its_unit():
    started = time.perf_counter()
    done = subprocess.run(
        RUN + ["--smoke", "--trace", "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = set(done.stdout.splitlines())
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            pattern = re.compile(
                rf"^{re.escape(workload['name'])}\.{re.escape(metric['name'])} = "
                rf"\S+ {re.escape(metric['unit'])}$"
            )
            assert any(pattern.match(line) for line in lines), (
                workload["name"],
                metric["name"],
            )
        assert f"{workload['name']}.ops_failed = 0" in lines
        assert (HERE / "out" / f"trace-{workload['name']}.json").is_file()
    assert "# ops_failed = 0" in lines
    # the smoke preset is sized to stay under 20 s; leave room for a busy host
    assert elapsed < 60, elapsed


def test_contract_result_line_and_layer_invariants():
    """The last stdout line is the contract's JSON object; the scenario
    cache never hits on cold_whatif and always hits on warm_dashboard."""
    ratios = {}
    for workload in ("cold_whatif", "warm_dashboard"):
        done = subprocess.run(
            RUN + ["--workload", workload, "--seed", "3", "--smoke", "--trace", "1"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        ratios[workload] = result["metrics"]["perf.scenario_cache_hit_ratio"]["value"]
        assert result["metrics"]["obs.tracing_overhead_ratio"]["value"] > 0
    assert ratios == {"cold_whatif": 0.0, "warm_dashboard": 1.0}


def test_a_corrupted_grid_is_caught():
    workload = WORKLOADS["cold_whatif"](SMOKE, 7)
    workload.setup()
    workload.prepare()
    slot = workload.slots[0]
    workload.run_op(slot, 0)
    workload.run_op(slot, 0)
    assert workload.failed == 0

    honest = workload.warehouse.query

    def corrupt(text, **kwargs):
        result = honest(text, **kwargs)
        result.cells[0][0] = 12345.0
        return result

    workload.warehouse.query = corrupt
    workload.run_op(slot, 0)
    assert workload.failed == 1, "a reply that differs from the first pass must fail"

    # a wrong *reference* is what the naive oracle exists for
    del workload.warehouse.query
    for row in workload.reference[slot.name][0].cells:
        row[:] = [12345.0] * len(row)
    workload.verify()
    assert workload.failed == 2
    assert "naive oracle" in workload.failures[-1]


def test_a_different_seed_changes_texts_and_write_addresses():
    def texts(seed):
        workload = WORKLOADS["cold_whatif"](SMOKE, seed)
        workload.setup()
        workload.prepare()
        return [slot.query.text for slot in workload.slots]

    def addresses(seed):
        workload = WORKLOADS["write_requery"](SMOKE, seed)
        try:
            workload.setup()
            workload.prepare()
            return [slot.cells for slot in workload.slots]
        finally:
            workload.close()

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)
    assert addresses(1) == addresses(1)
    assert addresses(1) != addresses(2)


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "cold_whatif",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_best_block_ignores_a_disturbed_block():
    quiet = [[[10.0, 10.0, 11.0], [10.0, 10.0, 11.0]], [[40.0], [41.0]]]
    noisy = [[[10.0, 10.0, 11.0], [19.0, 25.0, 30.0]], [[140.0], [40.0]]]
    assert stats.best_block(quiet)["op_p50_ms"] == stats.best_block(noisy)["op_p50_ms"]
    assert stats.best_block(quiet)["ops_per_s"] == stats.best_block(noisy)["ops_per_s"]
    # three ops at 10 ms and one at 40 ms: each slot brings its own best block
    assert abs(stats.best_block(noisy)["ops_per_s"] - 4 / 0.070) < 1e-9
    assert stats.best_block(noisy)["block_spread"] > 1.15
    tail = stats.raw_tail([1.0] * 99)
    assert tail["raw_p90_ms"] == 0.0 and tail["samples"] == 99.0
