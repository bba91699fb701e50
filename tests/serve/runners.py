"""The scheduler's runner contract for tests that score rows as arrays."""

from repro.serve import split_rows


def per_request(fn):
    """A :class:`~repro.serve.MicroBatchScheduler` runner from ``fn``.

    ``fn(rows) -> result rows`` scores the whole stacked batch in one
    call; the runner returns one outcome per request through
    :func:`~repro.serve.split_rows`, the way a one-engine runner does.
    """
    return lambda rows, counts: split_rows(fn(rows), counts)
