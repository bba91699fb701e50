"""The server latency ledger: log-linear histograms and stage spans."""

import time

import numpy as np
import pytest

from repro.obs import (
    _FOLD_AT,
    Ledger,
    RequestRecord,
    Stage,
    _bucket,
    _bucket_mid_ns,
)


def test_buckets_are_exact_low_and_within_three_percent_high():
    small = np.arange(64)
    np.testing.assert_array_equal(_bucket_mid_ns(_bucket(small)), small)
    values = np.random.default_rng(0).integers(64, 2**41, 10_000)
    mids = _bucket_mid_ns(_bucket(values))
    assert np.all(np.abs(mids - values) <= values / 32)
    # monotone: a larger duration never lands in a lower bucket
    ordered = np.sort(values)
    assert np.all(np.diff(_bucket(ordered)) >= 0)


def _record(*, inline):
    """A record whose stages took 1, 2, 4, 5, 6 and 7 µs; close() stamps
    the write."""
    us = 1000
    t = time.monotonic_ns() - 100 * us
    record = RequestRecord(7, t, inline)
    record.decoded = t + 1 * us
    if inline:
        record.started = t + 3 * us
    else:
        record.submitted = t + 3 * us
        record.woke = t + 6 * us
        record.started = t + 10 * us
    record.scored = record.started + 5 * us
    record.resolved = record.scored + 6 * us
    if not inline:
        record.drained = record.resolved + 7 * us
    return record


@pytest.mark.parametrize("n", [1, _FOLD_AT + 3])
def test_stages_add_up_to_the_request(n):
    ledger = Ledger()
    ledger.close([_record(inline=i % 2 == 0) for i in range(n)])
    snap = ledger.snapshot()
    n_inline = (n + 1) // 2
    assert (snap["inline"], snap["queued"]) == (n_inline, n - n_inline)
    for stage in ("queue_wait", "wakeup", "handoff"):
        assert snap[stage]["count"] == n - n_inline
    for stage in ("decode", "submit", "kernel", "respond", "reply", "request"):
        assert snap[stage]["count"] == n
    assert snap["decode"]["p50_us"] == pytest.approx(1.0, rel=0.04)
    assert snap["kernel"]["p99_us"] == pytest.approx(5.0, rel=0.04)
    if n > 1:
        assert snap["wakeup"]["p50_us"] == pytest.approx(3.0, rel=0.04)
    total = sum(
        snap[stage.name.lower()]["mean_us"] * snap[stage.name.lower()]["count"]
        for stage in Stage
    )
    assert total == pytest.approx(
        snap["request"]["mean_us"] * snap["request"]["count"], rel=1e-6
    )


def test_close_folds_in_batches_and_snapshot_folds_the_rest():
    ledger = Ledger()
    records = [_record(inline=True) for _ in range(_FOLD_AT)]
    ledger.close(records[:-1])
    assert ledger._closed and ledger.inline == 0
    ledger.close(records[-1:])
    assert not ledger._closed and ledger.inline == _FOLD_AT
    ledger.close([_record(inline=False)])
    assert ledger.snapshot()["queued"] == 1


def test_empty_ledger_reports_zero_counts():
    snap = Ledger().snapshot()
    assert snap["inline"] == snap["queued"] == 0
    assert all(snap[s.name.lower()]["count"] == 0 for s in Stage)
    assert snap["request"] == {
        "count": 0, "mean_us": 0.0, "p50_us": 0.0, "p99_us": 0.0
    }
