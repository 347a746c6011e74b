"""Smoke tests: every example script runs cleanly and prints its story."""

from __future__ import annotations

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    script = EXAMPLES / name
    assert script.exists(), f"missing example {script}"
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "FTE/Joe" in out
    assert "Contractor/Joe" in out
    # The Fig. 4 inheritance: PTE/Joe shows 30 for March.
    assert "PTE/Joe" in out


def test_workforce_planning():
    out = run_example("workforce_planning.py")
    assert "variance" in out
    assert "Conclusion" in out
    # The story: hypothetical variance collapses.
    assert "caused by the structural changes" in out


def test_product_restructuring():
    out = run_example("product_restructuring.py")
    assert "Hypothetical family totals" in out
    assert "Margin" in out
    assert "Soundbar" in out


def test_chunk_pebbling_demo():
    out = run_example("chunk_pebbling_demo.py")
    assert "heuristic max pebbles: 3" in out
    assert "optimal pebbles      : 3" in out
    assert "Lemma 5.1" in out


def test_location_what_if():
    out = run_example("location_what_if.py")
    assert "PTE/Lisa" in out
    assert "unordered" in out  # the rejected-dynamic-semantics message


def test_compression():
    out = run_example("compression.py")
    assert "compression ratio" in out
    assert "lossless roundtrip: True" in out


def test_analyst_walkthrough():
    out = run_example("analyst_walkthrough.py")
    assert "Top movers" in out
    assert "reloaded cube has" in out
    assert "ratio" in out
