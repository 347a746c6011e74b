"""Tests for the failpoint registry and retry wrappers (repro.faults)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import FaultInjectedError, TransientFaultError
from repro.faults import (
    FAULTS,
    INSTRUMENTED_MODULES,
    failpoint_names,
    inject_io_fault,
    with_retries,
)
from repro.storage.chunks import ChunkGrid
from repro.storage.chunk_store import ChunkStore


class TestRegistry:
    def test_unarmed_failpoint_is_noop(self):
        inject_io_fault("chunk.read")  # nothing armed: must not raise

    def test_fail_with_fires_every_hit(self):
        FAULTS.fail_with("chunk.read")
        for _ in range(3):
            with pytest.raises(FaultInjectedError) as info:
                inject_io_fault("chunk.read")
            assert info.value.failpoint == "chunk.read"

    def test_fail_after_fires_on_nth_hit_only(self):
        FAULTS.fail_after("chunk.read", 3)
        inject_io_fault("chunk.read")
        inject_io_fault("chunk.read")
        with pytest.raises(FaultInjectedError):
            inject_io_fault("chunk.read")
        inject_io_fault("chunk.read")  # after the nth hit: clean again

    def test_fail_transient_recovers(self):
        FAULTS.fail_transient("chunk.read", times=2)
        for _ in range(2):
            with pytest.raises(TransientFaultError):
                inject_io_fault("chunk.read")
        inject_io_fault("chunk.read")

    def test_probabilistic_is_deterministic_per_seed(self):
        def schedule(seed: int) -> list[bool]:
            FAULTS.fail_probabilistic("chunk.read", 0.5, seed=seed)
            fired = []
            for _ in range(20):
                try:
                    inject_io_fault("chunk.read")
                    fired.append(False)
                except FaultInjectedError:
                    fired.append(True)
            FAULTS.clear()
            return fired

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        assert any(schedule(7))

    def test_unknown_failpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            FAULTS.fail_with("no.such.failpoint")

    def test_custom_exception_factory(self):
        FAULTS.fail_with("chunk.write", lambda fp: OSError(f"boom at {fp}"))
        with pytest.raises(OSError, match="boom at chunk.write"):
            inject_io_fault("chunk.write")

    def test_clear_disarms(self):
        FAULTS.fail_with("chunk.read")
        FAULTS.clear()
        inject_io_fault("chunk.read")

    def test_fired_count(self):
        FAULTS.fail_after("chunk.read", 1)
        with pytest.raises(FaultInjectedError):
            inject_io_fault("chunk.read")
        assert FAULTS.fired_count("chunk.read") == 1

    def test_all_expected_failpoints_registered(self):
        names = set(failpoint_names())
        assert {
            "chunk.read",
            "chunk.write",
            "durability.commit",
            "durability.fsync",
            "durability.rename",
            "durability.write",
            "io.load.cells",
            "io.load.schema",
            "io.save.cells",
            "io.save.commit",
            "io.save.schema",
            "mdx.cell",
        } <= names


SRC = Path(__file__).resolve().parents[1] / "src"


def _bindings_in_source() -> "dict[str, set[str]]":
    """Module -> the failpoint names it registers, as the failpoint lint
    (RPL3xx) reads the module-level ``register_failpoint`` bindings."""
    from repro.lint.check_failpoints import _collect_constants
    from repro.lint.model import SourceFile

    found: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        source = SourceFile.parse(path, path.read_text(encoding="utf-8"))
        names = set(_collect_constants(source).values())
        if names:
            found[".".join(path.relative_to(SRC).with_suffix("").parts)] = names
    return found


class TestRegistryWithoutImports:
    """The registry's list and its refusal of an unknown name do not
    depend on what the process imported before."""

    def test_the_instrumented_modules_are_the_ones_that_register(self):
        assert set(INSTRUMENTED_MODULES) == set(_bindings_in_source())

    def test_a_process_that_imported_only_the_registry_lists_every_failpoint(self):
        expected = sorted(set().union(*_bindings_in_source().values()))
        assert len(expected) == 21
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import json, sys; sys.path.insert(0, {str(SRC)!r}); "
                "import repro.faults as faults; "
                "assert not [m for m in sys.modules if m.startswith('repro.catalog')]; "
                "print(json.dumps(faults.failpoint_names()))",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == expected

    def test_the_cli_arms_a_failpoint_of_a_module_it_has_not_imported(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("REPRO_FAULTS", None)
        done = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "--faults",
                "catalog.journal.append:after=1",
                "catalog",
                "list",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert done.returncode == 0, done.stderr

    def test_an_unknown_name_is_still_refused(self):
        with pytest.raises(ValueError, match="unknown failpoint 'chunk.raed'"):
            FAULTS.fail_with("chunk.raed")


class TestSpecParsing:
    def test_always(self):
        assert FAULTS.arm_from_spec("chunk.read:always") == ("chunk.read",)
        with pytest.raises(FaultInjectedError):
            inject_io_fault("chunk.read")

    def test_after(self):
        FAULTS.arm_from_spec("chunk.read:after=2")
        inject_io_fault("chunk.read")
        with pytest.raises(FaultInjectedError):
            inject_io_fault("chunk.read")

    def test_transient(self):
        FAULTS.arm_from_spec("chunk.read:transient=1")
        with pytest.raises(TransientFaultError):
            inject_io_fault("chunk.read")
        inject_io_fault("chunk.read")

    def test_probabilistic_with_seed(self):
        FAULTS.arm_from_spec("chunk.read:prob=1.0@seed=3")
        with pytest.raises(FaultInjectedError):
            inject_io_fault("chunk.read")

    def test_multiple_entries(self):
        armed = FAULTS.arm_from_spec("chunk.read:always; chunk.write:after=5")
        assert armed == ("chunk.read", "chunk.write")

    def test_ci_matrix_marker_arms_nothing(self):
        assert FAULTS.arm_from_spec("ci-matrix") == ()
        assert FAULTS.armed() == ()

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            FAULTS.arm_from_spec("chunk.read")
        with pytest.raises(ValueError, match="bad fault mode"):
            FAULTS.arm_from_spec("chunk.read:sometimes")

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "chunk.read:always")
        assert FAULTS.arm_from_env() == ("chunk.read",)
        with pytest.raises(FaultInjectedError):
            inject_io_fault("chunk.read")

    def test_env_empty_is_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FAULTS.arm_from_env() == ()


class TestRetries:
    def test_returns_value_on_success(self):
        assert with_retries(lambda: 42) == 42

    def test_transient_errors_retried_with_backoff(self):
        attempts = []
        delays = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientFaultError("x.y", "transient hiccup")
            return "ok"

        FAULTS.fail_transient("chunk.read", times=2)  # irrelevant, direct raise
        result = with_retries(
            flaky, base_delay=0.001, sleep=delays.append
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert delays == [0.001, 0.002]  # exponential

    def test_terminal_fault_not_retried(self):
        attempts = []

        def crash():
            attempts.append(1)
            raise FaultInjectedError("x.y")

        with pytest.raises(FaultInjectedError):
            with_retries(crash, sleep=lambda _: None)
        assert len(attempts) == 1

    def test_exhausted_retries_reraise(self):
        def always_transient():
            raise TransientFaultError("x.y")

        with pytest.raises(TransientFaultError):
            with_retries(always_transient, attempts=3, sleep=lambda _: None)

    def test_backoff_is_capped(self):
        delays = []

        def always_transient():
            raise TransientFaultError("x.y")

        with pytest.raises(TransientFaultError):
            with_retries(
                always_transient,
                attempts=6,
                base_delay=0.1,
                max_delay=0.2,
                sleep=delays.append,
            )
        assert max(delays) == 0.2


class TestRetriesTable:
    """Table-driven audit of the retry contract: exact sleep sequences,
    no sleep after the final attempt, and the *last* error re-raised."""

    @pytest.mark.parametrize(
        "attempts, failures, base, cap, expect_calls, expect_sleeps",
        [
            # succeeds immediately: one call, no sleeps
            (4, 0, 0.005, 0.25, 1, []),
            # one transient failure: sleep once at base delay
            (4, 1, 0.005, 0.25, 2, [0.005]),
            # recovers on the last allowed attempt: sleeps between
            # attempts only, exponential doubling
            (4, 3, 0.005, 0.25, 4, [0.005, 0.01, 0.02]),
            # exhausts the budget: attempts calls, but attempts-1 sleeps —
            # never a sleep after the final failure
            (3, 99, 0.005, 0.25, 3, [0.005, 0.01]),
            (1, 99, 0.005, 0.25, 1, []),
            # the cap flattens the tail of the schedule
            (5, 99, 0.1, 0.15, 5, [0.1, 0.15, 0.15, 0.15]),
        ],
    )
    def test_sleep_schedules(
        self, attempts, failures, base, cap, expect_calls, expect_sleeps
    ):
        calls = []
        sleeps = []

        def flaky():
            calls.append(1)
            if len(calls) <= failures:
                raise TransientFaultError("x.y", f"failure {len(calls)}")
            return "ok"

        should_fail = failures >= attempts
        if should_fail:
            with pytest.raises(TransientFaultError):
                with_retries(
                    flaky,
                    attempts=attempts,
                    base_delay=base,
                    max_delay=cap,
                    sleep=sleeps.append,
                )
        else:
            assert (
                with_retries(
                    flaky,
                    attempts=attempts,
                    base_delay=base,
                    max_delay=cap,
                    sleep=sleeps.append,
                )
                == "ok"
            )
        assert len(calls) == expect_calls
        assert sleeps == pytest.approx(expect_sleeps)

    def test_last_error_is_the_one_raised(self):
        errors = [
            TransientFaultError("x.y", "first"),
            TransientFaultError("x.y", "second"),
            TransientFaultError("x.y", "third"),
        ]
        iterator = iter(errors)

        def always_fail():
            raise next(iterator)

        with pytest.raises(TransientFaultError) as info:
            with_retries(always_fail, attempts=3, sleep=lambda _: None)
        assert info.value is errors[-1]

    def test_rejects_nonpositive_attempts(self):
        with pytest.raises(ValueError, match="attempts >= 1"):
            with_retries(lambda: 1, attempts=0)


def _store() -> ChunkStore:
    grid = ChunkGrid(dim_sizes=(4, 4), chunk_shape=(2, 2))
    store = ChunkStore(grid)
    store.load((0, 0), np.ones((2, 2)))
    return store


class TestChunkStoreFaults:
    def test_terminal_read_fault_propagates(self):
        store = _store()
        FAULTS.fail_with("chunk.read")
        with pytest.raises(FaultInjectedError):
            store.read((0, 0))

    def test_transient_read_fault_recovers(self):
        store = _store()
        FAULTS.fail_transient("chunk.read", times=2)
        data = store.read((0, 0))
        assert data.shape == (2, 2)
        assert store.stats.chunk_reads == 1  # the successful attempt counts once

    def test_missing_chunk_reads_empty_without_touching_faults(self):
        store = _store()
        FAULTS.fail_with("chunk.read")
        data = store.read((1, 1))  # not stored: no physical read happens
        assert np.isnan(data).all()

    def test_terminal_write_fault_propagates(self):
        store = _store()
        FAULTS.fail_with("chunk.write")
        with pytest.raises(FaultInjectedError):
            store.write((1, 0), np.zeros((2, 2)))
        assert not store.has_chunk((1, 0))  # failed write stores nothing

    def test_transient_write_fault_recovers(self):
        store = _store()
        FAULTS.fail_transient("chunk.write", times=1)
        store.write((1, 0), np.zeros((2, 2)))
        assert store.has_chunk((1, 0))


class TestConcurrentArming:
    """Satellite regression: the registry's arm/disarm/hit bookkeeping is
    atomic — a ``transient=N`` failpoint hammered from many threads fires
    *exactly* N times, never N±k from a torn read-modify-write."""

    def test_transient_budget_is_exact_across_threads(self):
        import threading

        times = 50
        FAULTS.fail_transient("mdx.cell", times=times)
        raised = []
        lock = threading.Lock()

        def hammer() -> None:
            for _ in range(200):
                try:
                    FAULTS.hit("mdx.cell")
                except TransientFaultError:
                    with lock:
                        raised.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(raised) == times
        assert FAULTS.fired_count("mdx.cell") == times

    def test_disarm_races_cleanly_with_hits(self):
        import threading

        stop = threading.Event()
        errors = []

        def toggler() -> None:
            while not stop.is_set():
                FAULTS.fail_transient("mdx.cell", times=2)
                FAULTS.disarm("mdx.cell")

        def hitter() -> None:
            while not stop.is_set():
                try:
                    FAULTS.hit("mdx.cell")
                except TransientFaultError:
                    pass
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=toggler)]
        threads += [threading.Thread(target=hitter) for _ in range(7)]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []
