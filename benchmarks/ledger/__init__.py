"""The performance ledger: four closed-loop workloads over the seeded
workforce cube, best-block statistics, and a traced per-layer pass.

See ``README.md`` in this directory; the entry point is ``run.py``
(``python3 benchmarks/ledger/run.py`` or ``python -m benchmarks.ledger``).
"""
