"""Async micro-batching: coalesce concurrent single queries into batches.

The packed similarity kernels are batch machines — a 10,000-dimension
XOR+popcount pass costs nearly the same for 1 query as for 64 — yet real
serving traffic arrives as many concurrent *small* requests.  Answering
each caller synchronously degrades the packed batch bench to per-query
matmuls; :class:`MicroBatchScheduler` restores the batch shape by
coalescing pending requests and flushing a bounded batch to the runner
when a trigger fires:

* **size** — pending rows reached ``max_batch``: flush immediately;
* **eager** (default policy) — the runner is idle and requests are
  pending: flush them now.  While the runner chews on a batch, new
  requests pile up behind it, so batch shape grows with load by pure
  backpressure — no artificial latency at low load, near-``max_batch``
  batches at saturation;
* **deadline** — with ``eager=False`` (paced mode), the *oldest*
  pending request has waited ``max_delay_s``: flush whatever is
  pending.  Paced mode trades tail latency for batch shape when the
  runner is cheap but per-flush overhead is not;
* **drain** — the scheduler is closing: flush the remainder.

Clients call :meth:`submit` (non-blocking, returns a
:class:`concurrent.futures.Future`) or :meth:`predict` (blocking sugar)
from any number of threads.  A flusher thread assembles batches, stacks
the rows, invokes the runner once, and resolves each caller's future
from its own outcome — so ``N`` concurrent single-query clients cost
``ceil(N / max_batch)`` kernel invocations, not ``N``.

A scheduler is a queue and its policy, not a thread: the queues of a
:class:`~repro.serve.ServingAPI` share one flusher thread
(:class:`_Flusher`), started by the first request that queues, which
takes the due queues in turn, one flush each, so a hot queue cannot
starve a cold one.  A ``scheduler.flush`` stall therefore holds every
queue sharing it, and a slow flush delays another queue by at most one
flush per queue ahead of it in the turn.

The flusher is one of two executors.  The socket frontend's dispatch
may offer a request it found alone (its connection has nothing else in
flight or buffered) to :meth:`MicroBatchScheduler._run_here`: when the
queue is empty, no flush is running and the request's rows cost at most
:data:`_INLINE_MAX_S` at the measured drain rate, it runs to completion
on the submitting thread — the batch an eager flush would have formed,
without the flusher's wake-up and the hand-off back.  Both executors
share one accounting step (:meth:`MicroBatchScheduler._execute`), so
an inline request counts as an ``eager`` flush of its rows.

Overload safety
---------------
Without bounds, a saturated scheduler queues unboundedly: latency grows
without limit and memory with it.  Two admission limits close that
hole (both off by default — opt in per deployment):

* ``max_queue_rows`` — :meth:`submit` fails fast with a typed
  :class:`~repro.serve.Overloaded` (carrying a ``retry_after_ms``
  drain-rate hint) once that many rows are already pending;
* ``max_queue_age_s`` — likewise when the *oldest* pending request has
  waited that long, which catches a stalled runner even at low depth.

Requests may also carry a **deadline** (``submit(..., deadline=t)``,
absolute :func:`time.monotonic`): a request whose deadline expired
while queued is dropped *before* scoring — its future fails with
:class:`~repro.serve.DeadlineExceeded` and the batch never wastes
kernel time on an answer nobody is waiting for.  Rejections and drops
are counted in :class:`SchedulerStats` (``rejected``/``expired``).

The runner takes the stacked ``(n, d)`` rows and each request's row
count, and returns **one outcome per request**, in order: the request's
result, or an exception instance that fails that request alone (a
runner that raises fails its whole batch).  A runner that scores the
batch in one call returns through :func:`split_rows`; the
:class:`~repro.serve.ServingAPI` runners resolve the registry per flush
and refuse only the requests a hot-swap made stale.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from repro.obs import RequestRecord
from repro.serve.errors import DeadlineExceeded, Overloaded
from repro.serve.faults import InjectedFault, faults
from repro.utils.validation import check_positive_int

__all__ = [
    "MicroBatchConfig", "MicroBatchScheduler", "SchedulerStats", "split_rows"
]

#: the finish of a 1-D submission: its single result row
_squeeze = itemgetter(0)

#: fallback ``retry_after_ms`` hint before any flush has measured a
#: drain rate (and the floor/ceiling the measured hint is clamped to)
_RETRY_AFTER_DEFAULT_MS = 50
_RETRY_AFTER_MAX_MS = 10_000

logger = logging.getLogger(__name__)

#: the longest a request may run on its submitting thread, estimated as
#: its rows times the scheduler's measured seconds per row; a scheduler
#: with no measurement yet runs one-row requests there only
_INLINE_MAX_S = 0.001

#: per flusher thread: what :func:`_call_after_flush` deferred
_flush_local = threading.local()


def _call_after_flush(fn: Callable[[], None]) -> None:
    """Run ``fn`` once this thread's flush resolved all its futures (or now).

    A done-callback that wakes another thread defers the wake-up here,
    so the woken thread does not preempt the flusher mid-batch.
    """
    pending = getattr(_flush_local, "pending", None)
    if pending is None:
        fn()
    else:
        pending.append(fn)


def split_rows(result: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Each request's rows of a batch result: one outcome per request.

    How a runner that scores its batch in one call returns; ``counts``
    are the row counts the scheduler passed it.  All-single-row batches
    take one C-level row iteration, mixed sizes one ``np.split`` (the
    ``scatter`` section of ``BENCH_serve.json``).  Raises
    ``RuntimeError`` unless the result has one row per batch row.
    """
    result = np.asarray(result)
    n_rows = sum(counts.tolist())  # cheaper than a NumPy reduce here
    if result.shape[0] != n_rows:
        raise RuntimeError(
            f"runner returned {result.shape[0]} rows for a "
            f"{n_rows}-row batch"
        )
    if len(counts) == 1:
        return [result]
    if n_rows == len(counts):
        return list(result[:, None])
    return np.split(result, np.cumsum(counts[:-1]), axis=0)


@dataclass(frozen=True)
class MicroBatchConfig:
    """Flush policy of a :class:`MicroBatchScheduler`.

    Attributes
    ----------
    max_batch:
        Flush as soon as this many rows are pending.  Batches never mix
        a partial request: a single request larger than ``max_batch``
        flushes alone (the engine chunks it internally via its own
        ``batch_size``), and smaller requests are packed whole up to
        the bound.
    eager:
        ``True`` (default): flush pending requests whenever the runner
        is idle; batch shape then comes from backpressure (requests
        that arrived while the previous batch ran).  ``False``: hold
        each batch until it fills or the deadline below expires.
    max_delay_s:
        Paced mode only (``eager=False``): longest any request may wait
        for batch-mates before a deadline flush — the knob trading tail
        latency for batch shape.
    max_queue_rows:
        Admission bound: :meth:`MicroBatchScheduler.submit` raises
        :class:`~repro.serve.Overloaded` once this many rows are
        already pending (``None`` = unbounded, the historical
        behavior).  A request larger than the bound is still admitted
        when the queue is empty, mirroring ``max_batch`` semantics.
    max_queue_age_s:
        Admission bound on *staleness*: reject new requests while the
        oldest pending one has waited longer than this (``None`` =
        unbounded).  Catches a stalled runner even when the queue is
        shallow.
    """

    max_batch: int = 256
    eager: bool = True
    max_delay_s: float = 0.002
    max_queue_rows: int | None = None
    max_queue_age_s: float | None = None

    def __post_init__(self):
        check_positive_int(self.max_batch, "max_batch")
        if self.max_delay_s < 0:
            raise ValueError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}"
            )
        if self.max_queue_rows is not None:
            check_positive_int(self.max_queue_rows, "max_queue_rows")
        if self.max_queue_age_s is not None and self.max_queue_age_s <= 0:
            raise ValueError(
                f"max_queue_age_s must be > 0, got {self.max_queue_age_s}"
            )


@dataclass
class SchedulerStats:
    """Cumulative flush accounting (read under the scheduler lock).

    Every counter but the flush counts is in rows: ``submitted`` rows
    entered the queue; ``completed``/``failed`` rows of requests whose
    future got a result/an exception from a flush (its own outcome, or
    the runner raising for the batch); ``cancelled`` rows cancelled
    while queued.  ``flushes_by_trigger`` counts why each batch was
    released; a healthy loaded deployment flushes mostly on **size**,
    an idle one on **eager** (default policy) or, in paced mode, on
    **deadline**.  ``max_batch_rows``/``total_rows``/``flushes`` give
    the realized batch-shape distribution the bench reports.
    ``rejected`` counts rows refused by admission control (the caller
    got a typed :class:`~repro.serve.Overloaded`), ``expired`` rows
    dropped from the queue because their deadline passed before scoring.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    expired: int = 0
    flushes: int = 0
    total_rows: int = 0
    max_batch_rows: int = 0
    flushes_by_trigger: dict = field(
        default_factory=lambda: {
            "size": 0,
            "eager": 0,
            "deadline": 0,
            "drain": 0,
        }
    )

    @property
    def mean_batch_rows(self) -> float:
        """Average rows per runner invocation so far."""
        if self.flushes == 0:
            return 0.0
        return self.total_rows / self.flushes


class _Pending:
    """One submitted request: rows (and their count), future, arrival,
    deadline, finish, and its ledger record, if any.

    An inline request (:meth:`MicroBatchScheduler._run_here`) has no
    rows, only their count ``n``: its runner holds what it scores.
    """

    __slots__ = (
        "rows", "n", "future", "arrived_at", "deadline", "finish", "record"
    )

    def __init__(
        self,
        rows: np.ndarray | None,
        arrived_at: float,
        deadline: float | None = None,
        finish: Callable | None = None,
        record: RequestRecord | None = None,
        n: int | None = None,
    ):
        self.rows = rows
        self.n = rows.shape[0] if n is None else n
        self.future: Future = Future()
        self.arrived_at = arrived_at
        self.deadline = deadline
        self.finish = finish
        self.record = record


class MicroBatchScheduler:
    """Deadline- and size-triggered micro-batcher around one runner.

    Use as a context manager (or call :meth:`start`/:meth:`close`):

        def runner(rows, counts):
            return split_rows(engine.predict(rows), counts)

        with MicroBatchScheduler(runner) as sched:
            preds = sched.predict(one_query)      # coalesced under load

    Thread-safe; any number of client threads may submit concurrently.
    An exception outcome fails exactly its own request's future, and a
    runner exception exactly the futures of the batch that hit it —
    the scheduler itself keeps running.

    Without a shared ``_flusher`` (private: what
    :class:`~repro.serve.ServingAPI` passes), it makes its own.
    """

    def __init__(
        self,
        runner: Callable[[np.ndarray, np.ndarray], Sequence],
        config: MicroBatchConfig | None = None,
        *,
        name: str = "micro-batch",
        _flusher: _Flusher | None = None,
    ):
        self.runner = runner
        self.config = config or MicroBatchConfig()
        self.name = name
        self.stats = SchedulerStats()
        self._queue: deque[_Pending] = deque()
        self._queued_rows = 0
        # EWMA of runner seconds-per-row, feeding the retry_after_ms
        # hint of Overloaded rejections (written by the flusher thread
        # under the lock, read by submitters under the lock).
        self._ewma_s_per_row: float | None = None
        self._owns_flusher = _flusher is None
        self._flusher = _flusher or _Flusher(f"{name}-flusher")
        self._lock = self._flusher.lock
        self._wake = self._flusher.wake
        self._closing = False
        # A runner call is in progress (on the flusher or inline); the
        # queue is listed in the flusher's turn; a stall fired by an
        # inline request that had to queue instead.
        self._busy = False
        self._listed = False
        self._stall = None
        with self._lock:
            self._flusher.queues.append(self)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, queries, *, deadline: float | None = None) -> Future:
        """Enqueue a ``(d,)`` or ``(n, d)`` request; returns its Future.

        The future resolves to the runner's outcome for exactly this
        request (first axis preserved; a 1-D submission resolves to the
        outcome's single row, squeezed).

        ``deadline`` is an absolute :func:`time.monotonic` timestamp:
        if it passes while the request is still queued, the request is
        dropped before scoring and its future fails with
        :class:`~repro.serve.DeadlineExceeded` (an already-expired
        deadline raises it here, synchronously).  When the configured
        admission bounds are exceeded, raises
        :class:`~repro.serve.Overloaded` *without* enqueueing — the
        caller gets a ``retry_after_ms`` hint instead of an unbounded
        wait.
        """
        if not isinstance(queries, np.ndarray):
            queries = np.asarray(queries)
        finish = _squeeze if queries.ndim == 1 else None
        return self._enqueue(queries, deadline, finish)

    def _enqueue(self, queries, deadline=None, finish=None,
                 record=None) -> Future:
        """:meth:`submit`; the future resolves to ``finish(outcome)``, if any.

        The flusher calls ``finish`` right after the flush on a result
        outcome; if it raises, only this request's future fails.
        ``record`` (a :class:`~repro.obs.RequestRecord`) gets the
        request's scheduler stamps.
        """
        rows = np.atleast_2d(queries)
        n_rows = rows.shape[0]
        if n_rows == 0:
            raise ValueError("cannot schedule an empty query batch")
        now = time.monotonic()
        pending = _Pending(rows, now, deadline, finish, record)
        with self._lock:
            if self._closing:
                raise RuntimeError(f"scheduler {self.name!r} is closed")
            if deadline is not None and deadline <= now:
                self.stats.expired += n_rows
                raise DeadlineExceeded(
                    f"deadline expired {(now - deadline) * 1e3:.1f} ms "
                    f"before submission to scheduler {self.name!r}"
                )
            self._check_admission(n_rows, now)
            self._queue.append(pending)
            self._queued_rows += n_rows
            self.stats.submitted += n_rows
            if not (self._busy or self._listed):
                self._flusher.push(self)
            self._wake.notify()
            if record is not None:
                record.submitted = time.monotonic_ns()
        return pending.future

    def _run_here(self, n_rows: int, run: Callable[[], Sequence],
                  deadline=None, finish=None, record=None) -> Future | None:
        """Run one request to completion on this thread, if nothing waits.

        The inline executor: ``run()`` returns the request's outcome
        list, as the runner would for a batch of this one request.  It
        runs only while the queue is empty, no flush is running and
        ``n_rows`` cost at most :data:`_INLINE_MAX_S`; the request then
        counts as an ``eager`` flush, and the returned future is
        already resolved to ``finish(outcome)``.  Returns ``None``
        otherwise: the caller queues the request with :meth:`_enqueue`,
        which also raises for an expired deadline or a closed
        scheduler.  A ``scheduler.flush`` stall never sleeps here: the
        flusher sleeps it out before the flush that takes the request.
        """
        ewma = self._ewma_s_per_row
        limit = 1 if ewma is None else _INLINE_MAX_S / ewma
        if not 0 < n_rows <= limit:
            return None
        now = time.monotonic()
        with self._lock:
            if self._busy or self._queue or self._closing or (
                deadline is not None and deadline <= now
            ):
                return None
            stall = faults.fire("scheduler.flush")
            if stall is not None and stall.delay_s > 0:
                self._stall = stall
                return None
            self._busy = True
            self.stats.submitted += n_rows
        pending = _Pending(None, now, deadline, finish, record, n_rows)
        pending.future.set_running_or_notify_cancel()
        self._execute([pending], "eager", run, n_rows)
        return pending.future

    def _check_admission(self, n_rows: int, now: float) -> None:
        """Enforce the queue bounds (lock held); raises ``Overloaded``.

        An oversized request is admitted into an *empty* queue (it
        flushes alone, like ``max_batch``); everything else is checked
        against both the row bound and the oldest-pending age bound.
        """
        cfg = self.config
        over: str | None = None
        if (
            cfg.max_queue_rows is not None
            and self._queue
            and self._queued_rows + n_rows > cfg.max_queue_rows
        ):
            over = (
                f"{self._queued_rows} rows queued + {n_rows} submitted "
                f"exceed max_queue_rows={cfg.max_queue_rows}"
            )
        elif (
            cfg.max_queue_age_s is not None
            and self._queue
            and now - self._queue[0].arrived_at > cfg.max_queue_age_s
        ):
            over = (
                f"oldest queued request is "
                f"{now - self._queue[0].arrived_at:.3f}s old "
                f"(max_queue_age_s={cfg.max_queue_age_s})"
            )
        if over is None:
            return
        self.stats.rejected += n_rows
        raise Overloaded(
            f"scheduler {self.name!r} is overloaded: {over}",
            retry_after_ms=self._retry_after_ms(),
            queued_rows=self._queued_rows,
        )

    def _retry_after_ms(self) -> int:
        """Estimated ms until the current queue drains (lock held)."""
        if self._ewma_s_per_row is None:
            return _RETRY_AFTER_DEFAULT_MS
        estimate = self._queued_rows * self._ewma_s_per_row * 1e3
        return int(min(max(estimate, 1.0), _RETRY_AFTER_MAX_MS))

    def predict(self, queries) -> np.ndarray:
        """Blocking submit: wait for this request's batch and return it."""
        return self.submit(queries).result()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatchScheduler":
        """Start the flusher thread eagerly (submit() starts it lazily)."""
        with self._lock:
            if self._closing:
                raise RuntimeError(f"scheduler {self.name!r} is closed")
            self._flusher.start()
        return self

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting requests; flush (``drain=True``) the backlog.

        Waits for the flush when the scheduler has its own flusher.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            if not drain:
                while self._queue:
                    p = self._queue.popleft()
                    self._queued_rows -= p.n
                    if p.future.set_running_or_notify_cancel():
                        p.future.set_exception(
                            RuntimeError(f"scheduler {self.name!r} closed")
                        )
                    else:
                        self.stats.cancelled += p.n
            self._wake.notify()
        if self._owns_flusher:
            self._flusher.close()

    def __enter__(self) -> "MicroBatchScheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # flusher thread
    # ------------------------------------------------------------------
    def _due_at(self) -> float:
        """When this listed queue is due (``monotonic``; lock held): at
        once eager, closing or at ``max_batch`` rows, else (paced) once
        its oldest request has waited ``max_delay_s``."""
        cfg = self.config
        if cfg.eager or self._closing or self._queued_rows >= cfg.max_batch:
            return 0.0
        return self._queue[0].arrived_at + cfg.max_delay_s

    def _take_batch(self, woke: int = 0) -> tuple[list[_Pending], str]:
        """Pop up to ``max_batch`` rows of whole requests (lock held).

        Requests whose deadline expired while queued are dropped here —
        their futures fail with
        :class:`~repro.serve.DeadlineExceeded` and their rows never
        reach the runner.  ``woke`` (``monotonic_ns``, 0 = the flusher
        was not idle) stamps the records of requests queued before it.
        """
        cfg = self.config
        now = time.monotonic()
        batch: list[_Pending] = []
        rows = 0
        while self._queue and (
            rows == 0 or rows + self._queue[0].n <= cfg.max_batch
        ):
            p = self._queue.popleft()
            self._queued_rows -= p.n
            # Transition the future to RUNNING; a client that cancelled
            # while queued is skipped here, and a RUNNING future can no
            # longer be cancelled, so the set_result/set_exception in
            # _run_batch cannot race a cancellation.
            if not p.future.set_running_or_notify_cancel():
                self.stats.cancelled += p.n
                continue
            if p.deadline is not None and p.deadline <= now:
                self.stats.expired += p.n
                p.future.set_exception(
                    DeadlineExceeded(
                        f"deadline expired after "
                        f"{(now - p.arrived_at) * 1e3:.1f} ms in the "
                        f"{self.name!r} queue"
                    )
                )
                continue
            if woke and p.record is not None and p.record.submitted <= woke:
                p.record.woke = woke
            batch.append(p)
            rows += p.n
        if rows >= cfg.max_batch:
            trigger = "size"
        elif self._closing:
            trigger = "drain"
        elif cfg.eager:
            trigger = "eager"
        else:
            trigger = "deadline"
        return batch, trigger

    def _run_batch(self, batch: list[_Pending], trigger: str,
                   stall=None) -> None:
        """Stack ``batch``, sleep out a stall, and run it (flusher thread).

        ``stall`` is one an inline request handed over; without it the
        ``scheduler.flush`` fault point fires here, and the error an
        ``error`` rule raises is the outcome of every request of this
        batch.
        """
        counts = np.fromiter(
            (p.n for p in batch), dtype=np.intp, count=len(batch)
        )
        stacked = (
            batch[0].rows
            if len(batch) == 1
            else np.concatenate([p.rows for p in batch], axis=0)
        )
        run = lambda: self.runner(stacked, counts)
        try:
            if stall is None:
                stall = faults.fire("scheduler.flush")
        except InjectedFault as exc:  # fails this batch, not the flusher
            outcomes = [exc] * len(batch)
            run = lambda: outcomes
        if stall is not None and stall.delay_s > 0:
            time.sleep(stall.delay_s)
        self._execute(batch, trigger, run, stacked.shape[0])

    def _execute(self, batch: list[_Pending], trigger: str,
                 run: Callable[[], Sequence], n_rows: int) -> None:
        """Run one flush, account it, resolve each request's future.

        What both executors share: ``run()`` returns one outcome per
        request of ``batch`` (``n_rows`` rows in all); its time feeds
        the drain-rate EWMA, the flush counts go to :attr:`stats`, the
        scheduler is idle again, and the ledger records get their
        kernel and respond stamps.
        """
        started = time.monotonic_ns()
        try:
            outcomes = list(run())
            if len(outcomes) != len(batch):
                raise RuntimeError(
                    f"runner returned {len(outcomes)} outcomes for a "
                    f"{len(batch)}-request batch"
                )
        except BaseException as exc:  # noqa: BLE001 — forwarded per-future
            outcomes = [exc] * len(batch)
        scored = time.monotonic_ns()
        s_per_row = (scored - started) / 1e9 / n_rows
        n_failed = self._finish(batch, outcomes)
        with self._lock:
            # Blend the observed drain rate into the retry_after hint
            # (alpha 0.3: responsive to load shifts, stable per flush).
            if self._ewma_s_per_row is None:
                self._ewma_s_per_row = s_per_row
            else:
                self._ewma_s_per_row += 0.3 * (
                    s_per_row - self._ewma_s_per_row
                )
            self.stats.flushes += 1
            self.stats.flushes_by_trigger[trigger] += 1
            self.stats.total_rows += n_rows
            self.stats.max_batch_rows = max(self.stats.max_batch_rows, n_rows)
            self.stats.completed += n_rows - n_failed
            self.stats.failed += n_failed
            self._busy = False
            if self._queue:  # back to the tail of the turn
                self._flusher.push(self)
            if self._queue or self._closing:  # a closing flusher may wait
                self._wake.notify()
        for p, out in zip(batch, outcomes):
            record = p.record
            if record is not None:
                record.started, record.scored = started, scored
                record.resolved = time.monotonic_ns()
            if isinstance(out, BaseException):
                p.future.set_exception(out)
            else:
                p.future.set_result(out)

    @staticmethod
    def _finish(batch: list[_Pending], outcomes: list) -> int:
        """Apply each request's ``finish`` to its result outcome, in place.

        A ``finish`` that raises makes the exception that request's
        outcome.  Returns the rows of the requests that failed.
        """
        failed = 0
        for i, (p, out) in enumerate(zip(batch, outcomes)):
            if isinstance(out, BaseException):
                failed += p.n
            elif p.finish is not None:
                try:
                    outcomes[i] = p.finish(out)
                except Exception as exc:  # noqa: BLE001 — this request only
                    outcomes[i] = exc
                    failed += p.n
        return failed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatchScheduler(name={self.name!r}, "
            f"max_batch={self.config.max_batch}, "
            f"max_delay_s={self.config.max_delay_s}, "
            f"flushes={self.stats.flushes})"
        )


class _Flusher:
    """One thread running the flushes of every queue that shares it.

    The queues share its lock and condition.  A queue with rows and no
    flush running is listed in ``ready``; each pass runs one batch of
    the first listed queue that is due, and a flush that leaves rows
    lists its queue again at the tail.
    """

    def __init__(self, name: str):
        self.lock = threading.Lock()
        self.wake = threading.Condition(self.lock)
        self.queues: list[MicroBatchScheduler] = []
        self.ready: deque[MicroBatchScheduler] = deque()
        self.thread = threading.Thread(target=self._loop, name=name,
                                       daemon=True)

    def start(self) -> None:
        """Start the thread unless it started (lock held)."""
        if self.thread.ident is None:
            self.thread.start()

    def push(self, sched: MicroBatchScheduler) -> None:
        """List ``sched`` at the tail (lock held)."""
        sched._listed = True
        self.ready.append(sched)
        self.start()

    def close(self) -> None:
        """Close every queue, flush their backlogs, stop the thread."""
        with self.lock:
            for sched in self.queues:
                sched._closing = True
            self.wake.notify()
        if self.thread.ident is not None:
            self.thread.join()

    def _next(self) -> tuple[MicroBatchScheduler | None, int]:
        """The first due queue, taken off the list, and when this thread
        last woke idle (``monotonic_ns``, 0 = it was not idle); ``None``
        once every queue is closed and idle (lock held)."""
        woke = 0
        while True:
            now, soonest = time.monotonic(), None
            for i, sched in enumerate(self.ready):
                due = sched._due_at()
                if due <= now:
                    del self.ready[i]
                    sched._listed = False
                    return sched, woke
                soonest = due if soonest is None else min(soonest, due)
            idle = not self.ready
            if idle and all(q._closing and not q._busy for q in self.queues):
                return None, 0
            self.wake.wait(None if soonest is None else soonest - now)
            if idle:
                woke = time.monotonic_ns()

    def _loop(self) -> None:
        while True:
            with self.lock:
                sched, woke = self._next()
                if sched is None:
                    return
                batch, trigger = sched._take_batch(woke)
                if not batch:  # every request cancelled or expired
                    continue
                sched._busy = True
                stall, sched._stall = sched._stall, None
            _flush_local.pending = after = []
            try:
                sched._run_batch(batch, trigger, stall)
            finally:
                _flush_local.pending = None
                for fn in after:
                    try:
                        fn()
                    except Exception:  # noqa: BLE001 — as in Future
                        logger.exception("after-flush %r failed", fn)
