"""Failpoint registry: deterministic fault injection for durability tests.

The durability layer is only trustworthy if its recovery paths are
*exercised*, not just written.  This module provides named **failpoints**
threaded through the hot I/O sites (``ChunkStore.read``/``write``,
``save_warehouse``/``load_warehouse``, the MDX cell evaluator).  Production
code calls :func:`inject_io_fault` at each site; the call is a no-op unless
a test (or the ``REPRO_FAULTS`` environment variable / ``--faults`` CLI
flag) has *armed* that failpoint.

Arming modes
------------

``fail_with(name, exc)``
    Every hit raises (a fresh copy of) ``exc``.
``fail_after(name, n)``
    The *n*-th hit raises; earlier hits pass.  ``n=1`` fires immediately.
``fail_transient(name, times)``
    The first ``times`` hits raise :class:`~repro.errors.TransientFaultError`
    (retryable); later hits pass — this is what proves the
    retry-with-backoff wrappers actually recover.
``fail_probabilistic(name, p, seed)``
    Each hit raises with probability ``p`` from a seeded (deterministic)
    generator; the same seed replays the same crash schedule.

Spec strings
------------

``REPRO_FAULTS`` / ``--faults`` accept a ``;``-separated list of
``<failpoint>:<mode>`` entries::

    io.save.cells:after=2;chunk.read:prob=0.25@seed=7;io.load.schema:always
    mdx.cell:transient=3

The special spec ``ci-matrix`` arms nothing by itself — it is a marker the
test suite recognises to widen the fault matrix (see
``tests/test_fault_matrix.py``).
"""

from __future__ import annotations

import importlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import FaultInjectedError, TransientFaultError
from repro.lint.lockdep import LockProtocol, make_lock

__all__ = [
    "FAULTS",
    "FaultRegistry",
    "INSTRUMENTED_MODULES",
    "failpoint_names",
    "inject_io_fault",
    "register_failpoint",
    "with_retries",
]

T = TypeVar("T")

#: Failpoints registered by the instrumented modules.  Arming an unknown
#: name is an error: it catches typos that would otherwise make a fault
#: test silently vacuous.
_KNOWN_FAILPOINTS: set[str] = set()

#: Every module that registers a failpoint (a module-level ``FP_X =
#: register_failpoint("name")``): imported before the registry lists its
#: names or refuses one, so neither depends on what the process imported
#: so far (tests/test_faults.py holds this tuple to the lint's bindings).
INSTRUMENTED_MODULES = (
    "repro.catalog.catalog",
    "repro.catalog.journal",
    "repro.durability",
    "repro.io",
    "repro.mdx.evaluator",
    "repro.service.shard",
    "repro.service.supervisor",
    "repro.storage.chunk_store",
)


def register_failpoint(name: str) -> str:
    """Declare a failpoint name (called at import time by instrumented
    modules); returns the name so it can double as a constant."""
    _KNOWN_FAILPOINTS.add(name)
    return name


def _register_all() -> None:
    for module in INSTRUMENTED_MODULES:
        importlib.import_module(module)


def failpoint_names() -> tuple[str, ...]:
    """Every failpoint name, sorted (the fault-matrix domain): the
    instrumented modules are imported first."""
    _register_all()
    return tuple(sorted(_KNOWN_FAILPOINTS))


@dataclass
class _Arming:
    """One armed failpoint: decides, per hit, whether to raise."""

    failpoint: str
    mode: str  # "always" | "after" | "transient" | "prob"
    count: int = 0  # for after= / transient=
    probability: float = 0.0
    rng: random.Random | None = None
    exc_factory: Callable[[str], BaseException] | None = None
    hits: int = 0
    fired: int = 0

    def should_fire(self) -> bool:
        self.hits += 1
        if self.mode == "always":
            return True
        if self.mode == "after":
            return self.hits == self.count
        if self.mode == "transient":
            return self.hits <= self.count
        if self.mode == "prob":
            assert self.rng is not None
            return self.rng.random() < self.probability
        raise AssertionError(f"unknown fault mode {self.mode!r}")

    def make_exception(self) -> BaseException:
        if self.exc_factory is not None:
            return self.exc_factory(self.failpoint)
        if self.mode == "transient":
            return TransientFaultError(self.failpoint)
        return FaultInjectedError(self.failpoint)


@dataclass
class FaultRegistry:
    """Holds the armed failpoints; the module-level :data:`FAULTS` is the
    process-wide instance.

    Thread-safety: arming, disarming, and hit/fired counting are atomic
    under one registry lock, so a ``transient=N`` failpoint hammered from
    many threads fires *exactly* N times — per-hit decisions
    (:meth:`_Arming.should_fire`) and the fired increment happen in one
    critical section.  The disarmed fast path stays a single lock-free
    dict read (safe under the GIL)."""

    _armed: dict[str, _Arming] = field(default_factory=dict)
    _lock: LockProtocol = field(
        default_factory=lambda: make_lock("FaultRegistry._lock"),
        repr=False,
        compare=False,
    )

    # -- arming -----------------------------------------------------------------

    def _check_known(self, failpoint: str) -> None:
        # a name this process has registered needs no import; any other
        # is checked against every instrumented module's
        if failpoint not in _KNOWN_FAILPOINTS:
            _register_all()
        if failpoint not in _KNOWN_FAILPOINTS:
            known = ", ".join(failpoint_names())
            raise ValueError(
                f"unknown failpoint {failpoint!r}; registered: {known}"
            )

    def fail_with(
        self,
        failpoint: str,
        exc_factory: Callable[[str], BaseException] | None = None,
    ) -> None:
        """Arm ``failpoint`` to raise on every hit."""
        self._check_known(failpoint)
        with self._lock:
            self._armed[failpoint] = _Arming(
                failpoint, "always", exc_factory=exc_factory
            )

    def fail_after(
        self,
        failpoint: str,
        n: int,
        exc_factory: Callable[[str], BaseException] | None = None,
    ) -> None:
        """Arm ``failpoint`` to raise on exactly the *n*-th hit (1-based)."""
        if n < 1:
            raise ValueError("fail_after requires n >= 1")
        self._check_known(failpoint)
        with self._lock:
            self._armed[failpoint] = _Arming(
                failpoint, "after", count=n, exc_factory=exc_factory
            )

    def fail_transient(self, failpoint: str, times: int = 1) -> None:
        """Arm ``failpoint`` to raise a retryable
        :class:`~repro.errors.TransientFaultError` for the first ``times``
        hits, then succeed."""
        if times < 1:
            raise ValueError("fail_transient requires times >= 1")
        self._check_known(failpoint)
        with self._lock:
            self._armed[failpoint] = _Arming(
                failpoint, "transient", count=times
            )

    def fail_probabilistic(
        self, failpoint: str, probability: float, seed: int = 0
    ) -> None:
        """Arm ``failpoint`` to raise with ``probability`` per hit, from a
        seeded deterministic generator."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._check_known(failpoint)
        with self._lock:
            self._armed[failpoint] = _Arming(
                failpoint,
                "prob",
                probability=probability,
                rng=random.Random(seed),
            )

    def disarm(self, failpoint: str) -> None:
        with self._lock:
            self._armed.pop(failpoint, None)

    def clear(self) -> None:
        """Disarm everything (test teardown)."""
        with self._lock:
            self._armed.clear()

    # -- introspection ----------------------------------------------------------

    def armed(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._armed))

    def fired_count(self, failpoint: str) -> int:
        with self._lock:
            arming = self._armed.get(failpoint)
            return 0 if arming is None else arming.fired

    def fired_counts(self) -> dict[str, int]:
        """Fired counts of every armed failpoint (including zero) — the
        warehouse snapshots this around a query to attribute fault events
        to one evaluation."""
        with self._lock:
            return {
                name: arming.fired for name, arming in self._armed.items()
            }

    # -- the hot-path hook --------------------------------------------------------

    def hit(self, failpoint: str, times: int = 1) -> None:
        """Raise if ``failpoint`` is armed and due; no-op otherwise.

        ``times`` counts that many hits in a row, stopping at the first
        that fires: exactly ``times`` single hits, in one critical
        section (a grid fires ``mdx.cell`` once per row this way).  The
        fast path (nothing armed) is one dict lookup, so leaving the
        hooks in production code costs nothing measurable.
        """
        if self._armed.get(failpoint) is None:
            return
        with self._lock:
            arming = self._armed.get(failpoint)
            if arming is None:
                return  # disarmed between the unlocked check and here
            for _ in range(times):
                if arming.should_fire():
                    break
            else:
                return
            arming.fired += 1
            exc = arming.make_exception()
        from repro.obs.metrics import METRICS

        METRICS.counter("faults_fired_total", failpoint=failpoint).inc()
        raise exc

    # -- spec parsing ------------------------------------------------------------

    def arm_from_spec(self, spec: str) -> tuple[str, ...]:
        """Arm failpoints from a ``REPRO_FAULTS``-style spec string;
        returns the names armed.  ``ci-matrix`` (and empty) arm nothing."""
        armed: list[str] = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry or entry == "ci-matrix":
                continue
            if ":" not in entry:
                raise ValueError(
                    f"bad fault spec entry {entry!r}; expected "
                    "'<failpoint>:<always|after=N|transient=N|prob=P[@seed=S]>'"
                )
            name, mode = entry.split(":", 1)
            name, mode = name.strip(), mode.strip()
            if mode == "always":
                self.fail_with(name)
            elif mode.startswith("after="):
                self.fail_after(name, int(mode[len("after="):]))
            elif mode.startswith("transient="):
                self.fail_transient(name, int(mode[len("transient="):]))
            elif mode.startswith("prob="):
                prob_part = mode[len("prob="):]
                seed = 0
                if "@seed=" in prob_part:
                    prob_part, seed_part = prob_part.split("@seed=", 1)
                    seed = int(seed_part)
                self.fail_probabilistic(name, float(prob_part), seed=seed)
            else:
                raise ValueError(f"bad fault mode {mode!r} in entry {entry!r}")
            armed.append(name)
        return tuple(armed)

    def arm_from_env(self, env: str = "REPRO_FAULTS") -> tuple[str, ...]:
        spec = os.environ.get(env, "")
        return self.arm_from_spec(spec) if spec else ()


#: The process-wide registry; instrumented modules call
#: ``FAULTS.hit(<name>)`` via :func:`inject_io_fault`.
FAULTS = FaultRegistry()


def inject_io_fault(failpoint: str) -> None:
    """The instrumentation hook: raise if ``failpoint`` is armed and due.

    This is the single call production code places at each fault site.
    """
    FAULTS.hit(failpoint)


def with_retries(
    operation: Callable[[], T],
    *,
    attempts: int = 4,
    base_delay: float = 0.005,
    max_delay: float = 0.25,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``operation``, retrying transient failures with exponential
    backoff (``base_delay * 2**attempt``, capped at ``max_delay``).

    Terminal faults (anything but a :class:`~repro.errors.TransientFaultError`
    or an ``OSError`` — notably a plain
    :class:`~repro.errors.FaultInjectedError`) propagate immediately: a
    simulated crash must not be retried into oblivion.  The last transient
    error re-raises once ``attempts`` is exhausted.
    """
    if attempts < 1:
        raise ValueError("with_retries requires attempts >= 1")
    delay = base_delay
    for attempt in range(attempts):
        try:
            return operation()
        except (TransientFaultError, OSError):
            if attempt == attempts - 1:
                raise
            sleep(min(delay, max_delay))
            delay *= 2
    raise AssertionError("unreachable")  # pragma: no cover
