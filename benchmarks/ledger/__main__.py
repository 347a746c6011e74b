"""``python -m benchmarks.ledger`` — see :mod:`benchmarks.ledger.run`."""

from benchmarks.ledger.run import exit_now

if __name__ == "__main__":
    exit_now()
