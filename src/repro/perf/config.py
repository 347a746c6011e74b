"""The reference-path switch of the query-throughput engine.

The engine (rollup index scopes + memo, scenario cache, batched grid
evaluation) is always on in production code; nothing sets it per
deployment.  :func:`naive_mode` is the one scoped way to turn it off: a
derived cell is then one full scan of the cube's leaf addresses and
values, nothing is memoised or cached, and the what-if operators rebuild
their output's columns from its addresses instead of deriving them.  It
exists as the *reference*: the ledger's oracle and the equivalence suites
evaluate under it and require bit-identical results.

Reductions are strict everywhere: a sequential fold from ``0.0`` in
insertion order, the streaming :mod:`repro.olap.aggregation` folds on
the reference path and the rollup index's block reduction
(``RollupIndex._block_sums``) on the engine's, so there is no reduction
mode to choose.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["engine_enabled", "naive_mode"]

_ENGINE_ENABLED = True


def engine_enabled() -> bool:
    """Whether the rollup index / scenario cache / batched paths are on."""
    return _ENGINE_ENABLED


@contextmanager
def naive_mode() -> Iterator[None]:
    """Temporarily evaluate on the full-scan reference paths."""
    global _ENGINE_ENABLED
    previous = _ENGINE_ENABLED
    _ENGINE_ENABLED = False
    try:
        yield
    finally:
        _ENGINE_ENABLED = previous
