"""Task callables the ledger ships to pool and fleet workers.

Lives beside the benchmark (on the workers' ``PYTHONPATH``) so that a
dispatch cost can be measured with no simulator work behind it.
"""


def noop(index: int, seed: int = 0) -> int:
    """The cheapest possible task: echo the index."""
    return index
