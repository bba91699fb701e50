"""Admission control + deadlines: typed shedding instead of unbounded queues.

Every test here is event-driven: runners block on Events the test owns,
so "the queue is full" and "the deadline passed while queued" are
constructed states, not sleep-and-hope races.
"""

import threading
import time

import numpy as np
import pytest

from repro.hd import HDModel, get_quantizer
from repro.proto import ScoreRequest
from repro.serve import (
    DeadlineExceeded,
    MicroBatchConfig,
    MicroBatchScheduler,
    ModelArtifact,
    Overloaded,
    ServingAPI,
)
from repro.utils import spawn
from tests.serve.runners import per_request


class _GatedRunner:
    """A runner the test opens and closes like a valve."""

    def __init__(self):
        self.entered = threading.Event()  # a flush reached the runner
        self.release = threading.Event()  # let the flush finish
        self.batches = []

    def __call__(self, rows, counts):
        return per_request(self.score)(rows, counts)

    def score(self, batch):
        self.entered.set()
        assert self.release.wait(timeout=30.0), "test never released runner"
        self.batches.append(np.asarray(batch).copy())
        return np.asarray(batch) * 2.0


def _fill_queue(sched, runner, rows_each, count):
    """One request into the runner, then `count` more parked in queue."""
    first = sched.submit(np.ones((rows_each, 2)))
    assert runner.entered.wait(timeout=10.0)
    queued = [sched.submit(np.ones((rows_each, 2))) for _ in range(count)]
    return first, queued


class TestRowAdmission:
    def test_full_queue_rejects_with_typed_overloaded(self):
        runner = _GatedRunner()
        config = MicroBatchConfig(max_batch=64, max_queue_rows=4)
        with MicroBatchScheduler(runner, config) as sched:
            first, queued = _fill_queue(sched, runner, rows_each=2, count=2)
            with pytest.raises(Overloaded) as excinfo:
                sched.submit(np.ones((2, 2)))
            assert excinfo.value.retry_after_ms >= 1
            assert excinfo.value.queued_rows == 4
            assert sched.stats.rejected == 2
            runner.release.set()
            for f in [first, *queued]:
                np.testing.assert_array_equal(f.result(timeout=10.0), 2.0)
        # Shedding never starved an accepted request.
        assert sched.stats.completed == 6

    def test_oversized_request_admitted_into_empty_queue(self):
        runner = _GatedRunner()
        runner.release.set()
        config = MicroBatchConfig(max_batch=4, max_queue_rows=4)
        with MicroBatchScheduler(runner, config) as sched:
            out = sched.predict(np.ones((10, 2)))  # > bound, queue empty
        assert out.shape == (10, 2)
        assert sched.stats.rejected == 0

    def test_retry_after_tracks_drain_rate(self):
        """After flushes train the EWMA, the hint scales with the queue."""

        @per_request
        def slow(batch):
            time.sleep(0.002 * np.asarray(batch).shape[0])
            return np.asarray(batch)

        config = MicroBatchConfig(max_batch=8, max_queue_rows=8)
        with MicroBatchScheduler(slow, config) as sched:
            for _ in range(4):  # train the drain-rate estimate
                sched.predict(np.ones((4, 2)))
            gate = threading.Event()
            entered = threading.Event()
            sched.runner = lambda rows, counts: (
                entered.set(),
                gate.wait(timeout=30.0),
                slow(rows, counts),
            )[-1]
            first = sched.submit(np.ones((4, 2)))
            assert entered.wait(timeout=10.0)
            queued = [sched.submit(np.ones((4, 2))) for _ in range(2)]
            with pytest.raises(Overloaded) as excinfo:
                sched.submit(np.ones((4, 2)))
            # 8 queued rows at ~2 ms/row: the hint is measured, not the
            # 50 ms default (wide bounds absorb scheduler overhead).
            assert 4 <= excinfo.value.retry_after_ms <= 1000
            gate.set()
            for f in [first, *queued]:
                f.result(timeout=10.0)


class TestAgeAdmission:
    def test_stale_queue_rejects_even_when_shallow(self):
        runner = _GatedRunner()
        config = MicroBatchConfig(
            max_batch=64, max_queue_rows=1000, max_queue_age_s=0.01
        )
        with MicroBatchScheduler(runner, config) as sched:
            first, queued = _fill_queue(sched, runner, rows_each=1, count=1)
            deadline = time.monotonic() + 10.0
            # The oldest queued request only grows older while the
            # runner is gated; poll until the bound trips.
            while time.monotonic() < deadline:
                try:
                    queued.append(sched.submit(np.ones((1, 2))))
                except Overloaded as exc:
                    assert "old" in str(exc)
                    break
                time.sleep(0.005)
            else:
                pytest.fail("age bound never tripped")
            runner.release.set()
            for f in [first, *queued]:
                f.result(timeout=10.0)


class TestDeadlines:
    def test_already_expired_deadline_raises_synchronously(self):
        runner = _GatedRunner()
        runner.release.set()
        with MicroBatchScheduler(runner) as sched:
            with pytest.raises(DeadlineExceeded):
                sched.submit(
                    np.ones((3, 2)), deadline=time.monotonic() - 0.001
                )
            assert sched.stats.expired == 3

    def test_expired_while_queued_dropped_before_scoring(self):
        runner = _GatedRunner()
        with MicroBatchScheduler(runner) as sched:
            first = sched.submit(np.ones((1, 2)))
            assert runner.entered.wait(timeout=10.0)
            doomed = sched.submit(
                np.full((2, 2), 7.0), deadline=time.monotonic() + 0.01
            )
            time.sleep(0.03)  # deadline passes while the runner is gated
            runner.release.set()
            first.result(timeout=10.0)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10.0)
            sched.close()
        assert sched.stats.expired == 2
        # The doomed rows (value 7.0) never reached the runner.
        assert not any(
            (np.asarray(b) == 7.0).any() for b in runner.batches
        )

    def test_live_deadline_scores_normally(self):
        runner = _GatedRunner()
        runner.release.set()
        with MicroBatchScheduler(runner) as sched:
            out = sched.submit(
                np.ones((2, 2)), deadline=time.monotonic() + 30.0
            ).result(timeout=10.0)
        np.testing.assert_array_equal(out, 2.0)


class TestCloseDrainRace:
    def test_drain_races_admission_without_hangs_or_lost_answers(self):
        """Submitters race close(drain=True): every accepted request
        completes with the right answer, every refusal is typed."""

        @per_request
        def runner(batch):
            time.sleep(0.001)
            return np.asarray(batch) * 2.0

        config = MicroBatchConfig(max_batch=8, max_queue_rows=8)
        sched = MicroBatchScheduler(runner, config).start()
        accepted = []
        outcomes = []
        lock = threading.Lock()
        start = threading.Event()

        def spam(worker):
            # Submit until this thread *observes* the close — so the
            # drain provably raced live submissions from every thread.
            start.wait()
            i = 0
            while True:
                value = float(worker * 100_000 + i)
                i += 1
                try:
                    f = sched.submit(np.full((1, 2), value))
                except Overloaded:
                    with lock:
                        outcomes.append("overloaded")
                except RuntimeError as exc:
                    assert "closed" in str(exc)
                    with lock:
                        outcomes.append("closed")
                    return
                else:
                    with lock:
                        accepted.append((value, f))

        threads = [
            threading.Thread(target=spam, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        start.set()
        time.sleep(0.01)  # let load build, then drain mid-storm
        sched.close(drain=True)
        for t in threads:
            t.join()
        for value, f in accepted:
            np.testing.assert_array_equal(
                f.result(timeout=10.0), np.full((1, 2), 2.0 * value)
            )
        assert sched.stats.rejected == outcomes.count("overloaded")
        # Every thread saw the typed close; nothing hung, nothing lost.
        assert outcomes.count("closed") == 8
        assert len(accepted) > 0


class TestServingAPISurface:
    def _artifact(self, d_hv=200, n_classes=3):
        rng = spawn(0, "overload-api")
        store = get_quantizer("bipolar")(rng.normal(size=(n_classes, d_hv)))
        return ModelArtifact.build(
            HDModel(n_classes, d_hv, store),
            quantizer="bipolar",
            backend="packed",
        )

    def _queries(self, n=4, d_hv=200):
        rng = spawn(1, "overload-api-q")
        return get_quantizer("bipolar")(
            rng.normal(size=(n, d_hv))
        ).astype(np.float32)

    def test_submit_score_rejects_expired_deadline(self):
        with ServingAPI.from_artifact(self._artifact(), name="m") as api:
            with pytest.raises(DeadlineExceeded):
                api.submit_score(
                    ScoreRequest(queries=self._queries()),
                    deadline=time.monotonic() - 1.0,
                )

    def test_request_deadline_ms_is_honored(self):
        """A wire deadline_ms resolves to a monotonic deadline."""
        with ServingAPI.from_artifact(self._artifact(), name="m") as api:
            resp = api.submit_score(
                ScoreRequest(queries=self._queries(), deadline_ms=60_000)
            ).result(timeout=10.0)
            assert resp.predictions.shape == (4,)

    def test_stats_expose_rejected_and_expired(self):
        with ServingAPI.from_artifact(self._artifact(), name="m") as api:
            try:
                api.submit_score(
                    ScoreRequest(queries=self._queries()),
                    deadline=time.monotonic() - 1.0,
                )
            except DeadlineExceeded:
                pass
            stats = api.stats()
        (entry,) = stats["schedulers"].values()
        assert entry["expired"] == 4
        assert entry["rejected"] == 0
