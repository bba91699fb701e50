"""MicroBatchScheduler: coalescing, triggers, failure isolation."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import MicroBatchConfig, MicroBatchScheduler, split_rows
from repro.serve.scheduler import _Flusher
from tests.serve.runners import per_request


@per_request
def double_rows(batch):
    return np.asarray(batch) * 2.0


class TestCorrectness:
    def test_single_request_round_trip(self):
        with MicroBatchScheduler(double_rows) as sched:
            out = sched.predict(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(out, [2.0, 4.0])
        assert out.shape == (2,)  # 1-D in, 1-D out (squeezed)

    def test_batch_request_keeps_shape(self):
        with MicroBatchScheduler(double_rows) as sched:
            out = sched.predict(np.ones((5, 3)))
        assert out.shape == (5, 3)

    def test_concurrent_clients_get_their_own_rows(self):
        n = 200
        results = np.zeros(n)
        with MicroBatchScheduler(double_rows) as sched:
            def client(i):
                results[i] = sched.predict(np.array([float(i)]))[0]

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        np.testing.assert_array_equal(results, 2.0 * np.arange(n))

    def test_requests_actually_coalesce(self):
        """Under a slow runner, concurrent requests share flushes."""
        @per_request
        def slow_runner(batch):
            time.sleep(0.005)
            return np.asarray(batch)

        with MicroBatchScheduler(slow_runner) as sched:
            futures = [sched.submit(np.array([float(i)])) for i in range(32)]
            for f in futures:
                f.result()
            stats = sched.stats
        assert stats.flushes < 32
        assert stats.max_batch_rows > 1

    def test_oversized_request_flushes_alone(self):
        config = MicroBatchConfig(max_batch=4)
        with MicroBatchScheduler(double_rows, config) as sched:
            out = sched.predict(np.ones((10, 2)))
        assert out.shape == (10, 2)

    def test_empty_request_rejected(self):
        with MicroBatchScheduler(double_rows) as sched:
            with pytest.raises(ValueError, match="empty"):
                sched.submit(np.empty((0, 3)))


class TestResultScatter:
    """The vectorized `split_rows` scatter (then each request's squeeze)
    must scatter exactly like the per-future loop it replaced, across
    every batch shape."""

    def _pending(self, rows, squeeze):
        from repro.serve.scheduler import _Pending, _squeeze

        finish = _squeeze if squeeze else None
        p = _Pending(np.atleast_2d(np.asarray(rows)), 0.0, None, finish)
        p.future.set_running_or_notify_cancel()
        return p

    def _scatter(self, batch, result):
        counts = np.array([p.rows.shape[0] for p in batch])
        outs = split_rows(np.asarray(result), counts)
        assert MicroBatchScheduler._finish(batch, outs) == 0
        return outs

    def test_single_request_batch(self):
        p = self._pending(np.ones((3, 2)), squeeze=False)
        (out,) = self._scatter([p], np.arange(3))
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_single_squeezed_request(self):
        p = self._pending(np.ones(4), squeeze=True)
        (out,) = self._scatter([p], np.array([7]))
        assert out == 7

    def test_all_single_row_fast_path(self):
        batch = [self._pending(np.ones(2), True) for _ in range(5)]
        batch[2] = self._pending(np.ones((1, 2)), False)  # unsqueezed
        outs = self._scatter(batch, np.arange(5) * 10)
        assert outs[0] == 0 and outs[1] == 10
        np.testing.assert_array_equal(outs[2], [20])  # kept 2-D
        assert outs[2].shape == (1,)
        assert outs[3] == 30 and outs[4] == 40

    def test_mixed_sizes_split_at_boundaries(self):
        sizes = [3, 1, 4, 2]
        batch = [
            self._pending(np.ones((s, 2)), squeeze=False) for s in sizes
        ]
        batch[1] = self._pending(np.ones(2), squeeze=True)
        result = np.arange(10)
        outs = self._scatter(batch, result)
        np.testing.assert_array_equal(outs[0], [0, 1, 2])
        assert outs[1] == 3  # squeezed single row
        np.testing.assert_array_equal(outs[2], [4, 5, 6, 7])
        np.testing.assert_array_equal(outs[3], [8, 9])

    def test_2d_results_scatter_rowwise(self):
        batch = [self._pending(np.ones(2), True) for _ in range(3)]
        result = np.arange(12).reshape(3, 4)
        outs = self._scatter(batch, result)
        np.testing.assert_array_equal(outs[1], [4, 5, 6, 7])

    def test_end_to_end_mixed_shapes_through_scheduler(self):
        rng = np.random.default_rng(4)
        requests = [rng.normal(size=(int(n), 3)) for n in rng.integers(1, 6, 20)]
        requests.append(rng.normal(size=3))  # one squeezed single query
        with MicroBatchScheduler(
            double_rows, MicroBatchConfig(max_batch=7)
        ) as sched:
            futures = [sched.submit(r) for r in requests]
            for r, f in zip(requests, futures):
                np.testing.assert_array_equal(
                    f.result(), np.atleast_2d(r)[0] * 2
                    if np.asarray(r).ndim == 1
                    else np.asarray(r) * 2,
                )


class TestTriggers:
    def test_size_trigger_counts(self):
        config = MicroBatchConfig(max_batch=8)
        with MicroBatchScheduler(double_rows, config) as sched:
            sched.predict(np.ones((8, 2)))  # exactly max_batch
            stats = sched.stats
        assert stats.flushes_by_trigger["size"] == 1

    def test_paced_mode_flushes_on_deadline(self):
        config = MicroBatchConfig(
            max_batch=1000, eager=False, max_delay_s=0.005
        )
        with MicroBatchScheduler(double_rows, config) as sched:
            t0 = time.perf_counter()
            sched.predict(np.ones((1, 2)))
            elapsed = time.perf_counter() - t0
            stats = sched.stats
        assert stats.flushes_by_trigger["deadline"] == 1
        assert elapsed >= 0.005

    def test_eager_mode_does_not_wait(self):
        config = MicroBatchConfig(max_batch=1000, max_delay_s=10.0)
        with MicroBatchScheduler(double_rows, config) as sched:
            t0 = time.perf_counter()
            sched.predict(np.ones((1, 2)))
            elapsed = time.perf_counter() - t0
        assert elapsed < 1.0  # nowhere near the 10 s deadline

    def test_stats_accounting(self):
        with MicroBatchScheduler(double_rows) as sched:
            sched.predict(np.ones((3, 2)))
            sched.predict(np.ones((2, 2)))
            stats = sched.stats
        assert stats.submitted == 5
        assert stats.completed == 5
        assert stats.failed == 0
        assert stats.total_rows == 5
        assert stats.mean_batch_rows > 0


class TestFailureIsolation:
    def test_runner_exception_fails_only_that_batch(self):
        calls = []

        @per_request
        def flaky(batch):
            calls.append(batch.shape[0])
            if len(calls) == 1:
                raise RuntimeError("transient")
            return np.asarray(batch)

        with MicroBatchScheduler(flaky) as sched:
            with pytest.raises(RuntimeError, match="transient"):
                sched.predict(np.ones((2, 2)))
            # The scheduler survives and serves the next batch.
            out = sched.predict(np.ones((3, 2)))
        assert out.shape == (3, 2)
        assert sched.stats.failed == 2
        assert sched.stats.completed == 3

    def test_wrong_row_count_from_runner_fails_batch(self):
        @per_request
        def bad_runner(batch):
            return np.ones((batch.shape[0] + 1, 2))

        with MicroBatchScheduler(bad_runner) as sched:
            with pytest.raises(RuntimeError, match="rows"):
                sched.predict(np.ones((2, 2)))


class TestPerRequestOutcomes:
    def test_an_error_outcome_fails_only_its_own_request(self):
        """One request's outcome is an exception: only its future fails,
        every other future of the flush resolves once, and the stats
        count rows."""

        def runner(rows, counts):
            outcomes = split_rows(np.asarray(rows) * 2.0, counts)
            outcomes[1] = ValueError("this request only")
            return outcomes

        resolved = []
        sizes = (1, 2, 3)
        config = MicroBatchConfig(max_batch=sum(sizes), eager=False,
                                  max_delay_s=30.0)
        with MicroBatchScheduler(runner, config) as sched:
            futures = [sched.submit(np.full((n, 2), float(n))) for n in sizes]
            for f in futures:
                f.add_done_callback(resolved.append)
            with pytest.raises(ValueError, match="this request only"):
                futures[1].result(timeout=10.0)
            for n, f in zip(sizes[::2], futures[::2]):
                np.testing.assert_array_equal(
                    f.result(timeout=10.0), np.full((n, 2), 2.0 * n)
                )
            stats = sched.stats
        assert stats.flushes == stats.flushes_by_trigger["size"] == 1
        assert sorted(map(id, resolved)) == sorted(map(id, futures))
        assert (stats.submitted, stats.completed, stats.failed) == (6, 4, 2)

    def test_a_finish_that_raises_fails_only_its_own_request(self):
        config = MicroBatchConfig(max_batch=3, eager=False, max_delay_s=30.0)
        with MicroBatchScheduler(double_rows, config) as sched:
            good = sched.submit(np.ones((2, 2)))
            bad = sched._enqueue(np.ones((1, 2)), finish=lambda out: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                bad.result(timeout=10.0)
            np.testing.assert_array_equal(good.result(timeout=10.0), 2.0)
            stats = sched.stats
        assert (stats.completed, stats.failed) == (2, 1)

    def test_a_runner_with_the_wrong_outcome_count_fails_its_batch(self):
        with MicroBatchScheduler(lambda rows, counts: []) as sched:
            with pytest.raises(RuntimeError, match="0 outcomes"):
                sched.predict(np.ones((2, 2)))
        assert sched.stats.failed == 2


class TestAfterFlush:
    def test_deferred_callable_runs_once_the_flush_resolved_all(self):
        from repro.serve.scheduler import _call_after_flush

        seen = []
        paced = MicroBatchConfig(eager=False, max_delay_s=0.2)
        with MicroBatchScheduler(double_rows, paced) as sched:
            futures = [sched.submit(np.ones(2)) for _ in range(3)]
            futures[0].add_done_callback(
                lambda _f: _call_after_flush(
                    lambda: seen.append([f.done() for f in futures])
                )
            )
            for f in futures:
                f.result(timeout=10.0)
        assert sched.stats.flushes == 1
        assert seen == [[True, True, True]]

    def test_outside_a_flush_it_runs_now(self):
        from repro.serve.scheduler import _call_after_flush

        seen = []
        _call_after_flush(lambda: seen.append(1))
        assert seen == [1]


class TestSharedFlusher:
    """Queues sharing one flusher thread take turns, one flush each."""

    @staticmethod
    def _logging(log, key, hold=None):
        def runner(rows, counts):
            log.append(key)
            if hold is not None:
                hold()
            return split_rows(np.asarray(rows), counts)
        return runner

    def test_a_cold_queue_flushes_before_the_hot_queues_second(self):
        log, entered, release = [], threading.Event(), threading.Event()

        def hold():
            entered.set()
            assert release.wait(timeout=10.0)

        flusher = _Flusher("shared-flusher")
        one_row = MicroBatchConfig(max_batch=1)
        block, hot, cold = (
            MicroBatchScheduler(
                self._logging(log, key, hold if key == "block" else None),
                one_row, name=key, _flusher=flusher,
            )
            for key in ("block", "hot", "cold")
        )
        try:
            futures = [block.submit(np.ones(2))]
            assert entered.wait(timeout=10.0)  # the one thread is held
            futures += [hot.submit(np.full(2, i)) for i in range(10)]
            futures.append(cold.submit(np.full(2, -1.0)))
            release.set()
            for f in futures:
                f.result(timeout=10.0)
        finally:
            release.set()
            flusher.close()
        assert log == ["block", "hot", "cold"] + ["hot"] * 9
        assert not flusher.thread.is_alive()

    def test_a_queue_not_due_does_not_delay_one_that_is(self):
        log = []
        flusher = _Flusher("shared-flusher")
        waits = MicroBatchScheduler(
            self._logging(log, "waits"),
            MicroBatchConfig(eager=False, max_delay_s=30.0),
            _flusher=flusher,
        )
        full = MicroBatchScheduler(
            self._logging(log, "full"),
            MicroBatchConfig(max_batch=2, eager=False, max_delay_s=30.0),
            _flusher=flusher,
        )
        try:
            waiting = waits.submit(np.ones(2))  # due in 30 s
            np.testing.assert_array_equal(
                full.submit(np.ones((2, 2))).result(timeout=10.0), 1.0
            )
            assert not waiting.done()
            assert log == ["full"]
            assert full.stats.flushes_by_trigger["size"] == 1
        finally:
            flusher.close()  # closing makes the waiting queue due
        np.testing.assert_array_equal(waiting.result(timeout=0), 1.0)
        assert waits.stats.flushes_by_trigger["drain"] == 1

    def test_racing_submitters_and_inline_runs_answer_each_once(self):
        """Eight threads, two per queue, race queued submits and inline
        runs on four queues of one flusher: every future resolves once,
        to its own rows, and each queue's stats add up."""
        flusher = _Flusher("shared-flusher")
        queues = [
            MicroBatchScheduler(
                # a slow flush lets the other thread queue behind it
                self._logging([], k, lambda: time.sleep(2e-4)),
                MicroBatchConfig(max_batch=4, eager=k % 2 == 0,
                                 max_delay_s=0.001),
                _flusher=flusher,
            )
            for k in range(4)
        ]
        done, errors = [], []

        def client(w):
            try:
                for i in range(150):
                    sched, row = queues[w % 4], np.full(2, w * 1000 + i)
                    future = sched._run_here(
                        1, lambda row=row: [row[None]]
                    ) if i % 3 == 0 else None
                    if future is None:
                        future = sched.submit(row[None])
                    future.add_done_callback(done.append)
                    np.testing.assert_array_equal(
                        future.result(timeout=10.0), row[None]
                    )
            except BaseException as exc:  # noqa: BLE001 — reported
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(w,)) for w in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old_interval)
            flusher.close()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(done) == len(set(map(id, done))) == 8 * 150
        for sched in queues:
            stats = sched.stats
            assert stats.submitted == stats.completed == stats.total_rows
        assert sum(q.stats.submitted for q in queues) == 8 * 150
        assert not flusher.thread.is_alive()


class TestLifecycle:
    def test_submit_after_close_raises(self):
        sched = MicroBatchScheduler(double_rows)
        sched.predict(np.ones((1, 2)))
        sched.close()
        with pytest.raises(RuntimeError, match="closed"):
            sched.submit(np.ones((1, 2)))

    def test_close_without_drain_fails_pending(self):
        release = threading.Event()

        @per_request
        def blocking(batch):
            release.wait(timeout=5)
            return np.asarray(batch)

        sched = MicroBatchScheduler(blocking)
        first = sched.submit(np.ones((1, 2)))  # occupies the runner
        time.sleep(0.05)
        second = sched.submit(np.ones((1, 2)))  # still queued
        closer = threading.Thread(
            target=sched.close, kwargs={"drain": False}
        )
        closer.start()
        time.sleep(0.05)
        release.set()
        closer.join()
        np.testing.assert_array_equal(first.result(), np.ones((1, 2)))
        with pytest.raises(RuntimeError, match="closed"):
            second.result()

    def test_close_is_idempotent(self):
        sched = MicroBatchScheduler(double_rows)
        sched.close()
        sched.close()

    def test_cancelled_future_does_not_wedge_the_scheduler(self):
        """A client cancelling a queued request must not kill the
        flusher: later and co-batched requests still complete."""
        release = threading.Event()

        @per_request
        def blocking(batch):
            release.wait(timeout=5)
            return np.asarray(batch)

        with MicroBatchScheduler(blocking) as sched:
            first = sched.submit(np.ones((1, 2)))  # occupies the runner
            time.sleep(0.05)
            doomed = sched.submit(np.ones((2, 2)))  # queued
            assert doomed.cancel()
            survivor = sched.submit(np.ones((3, 2)))  # queued behind it
            release.set()
            np.testing.assert_array_equal(first.result(5), np.ones((1, 2)))
            np.testing.assert_array_equal(survivor.result(5), np.ones((3, 2)))
            assert sched.stats.cancelled == 2
