"""The server half of the request latency ledger.

Every scoring frame the socket frontend decodes carries one
:class:`RequestRecord`: monotonic-ns stamps at the boundaries of the
server stages it crosses, and the wire's correlation id.  The frontend
opens the record at decode and closes it once the reply is written; the
scheduler stamps the middle.  A closed record becomes one duration per
:class:`Stage` it crossed, counted into log-linear
(HdrHistogram-style) histograms by a :class:`Ledger`:

* ``decode`` — frame → typed message;
* ``submit`` — tenant lookup/admission, shape and support checks, and
  the enqueue (or, inline, everything up to the kernel);
* ``queue_wait`` — queued → its flush starts, less the wake-up;
* ``wakeup`` — queued into an idle scheduler → its flusher runs;
* ``kernel`` — the runner: scoring, plus the flush's registry resolve;
* ``respond`` — the finish (the typed response) and the flush's
  accounting;
* ``handoff`` — the future resolved → the event loop drains it from its
  inbox;
* ``reply`` — render and write.

A request the scheduler ran to completion on the submitting thread
(``inline``) has no ``queue_wait``, ``wakeup`` or ``handoff``; a queued
one that found its flusher busy has no ``wakeup``.  The stages of one
request add up to its ``request`` time, decode start → reply written.

The ledger is always on: a record is nine integer slots, and closed
records fold into the histograms in NumPy batches (:data:`_FOLD_AT`),
so a request pays a few stamps and one list append.

:func:`thread_cpu_seconds` reads each live thread's CPU time from
``/proc/self/task`` where that exists.
"""

from __future__ import annotations

import enum
import os
import threading
from itertools import chain
from operator import attrgetter
from time import monotonic_ns

import numpy as np

__all__ = ["Stage", "RequestRecord", "Ledger", "thread_cpu_seconds"]


class Stage(enum.IntEnum):
    """The server stages of one request, in the order it crosses them."""

    DECODE = 0
    SUBMIT = 1
    QUEUE_WAIT = 2
    WAKEUP = 3
    KERNEL = 4
    RESPOND = 5
    HANDOFF = 6
    REPLY = 7


#: the whole-request histogram's row, after the stages
_REQUEST = len(Stage)

#: sub-bucket bits: 32 linear sub-buckets per power of two, so a
#: reported value is within 1/32 (~3%) of the recorded one
_SUB_BITS = 5
#: durations are clipped below 2**_MAX_BITS ns (~73 min)
_MAX_BITS = 42
_N_BUCKETS = (_MAX_BITS - _SUB_BITS + 1) << _SUB_BITS

#: closed records wait in a list until this many fold into the
#: histograms in one vectorized pass (or a snapshot folds them early)
_FOLD_AT = 256

_STAMP_NAMES = (
    "opened", "decoded", "submitted", "woke", "started", "scored",
    "resolved", "drained", "written",
)
_STAMPS = attrgetter(*_STAMP_NAMES)


class RequestRecord:
    """One request's stage stamps (``monotonic_ns``; 0 = not crossed).

    Opened once the request's frame is decoded: ``opened`` is when its
    decode started, ``decoded`` now.

    ``may_inline`` is the frontend's half of the run-to-completion
    gate: the connection has only this request in flight and no frame
    buffered behind it.
    """

    __slots__ = (
        "request_id", "may_inline", "opened", "decoded", "submitted",
        "woke", "started", "scored", "resolved", "drained", "written",
    )

    def __init__(self, request_id: int, opened: int, may_inline: bool):
        self.request_id = request_id
        self.may_inline = may_inline
        self.opened = opened
        self.decoded = monotonic_ns()
        self.submitted = self.woke = self.started = self.scored = 0
        self.resolved = self.drained = self.written = 0


def _bucket(ns: np.ndarray) -> np.ndarray:
    """Log-linear bucket index of each non-negative duration."""
    ns = np.clip(ns, 0, (1 << _MAX_BITS) - 1)
    _, bits = np.frexp(ns.astype(np.float64))  # bits = ns.bit_length()
    shift = np.maximum(bits - (_SUB_BITS + 1), 0)
    return (shift << _SUB_BITS) + (ns >> shift)


def _bucket_mid_ns(index: np.ndarray) -> np.ndarray:
    """Midpoint of each bucket (exact below ``2**(_SUB_BITS + 1)``)."""
    shift = np.maximum((index >> _SUB_BITS) - 1, 0)
    low = (index - (shift << _SUB_BITS)) << shift
    return low + ((1 << shift) - 1) / 2


class Ledger:
    """Per-stage latency histograms of the requests a frontend served."""

    def __init__(self):
        self._lock = threading.Lock()
        self._closed: list[RequestRecord] = []
        self._hist = np.zeros((_REQUEST + 1, _N_BUCKETS), dtype=np.int64)
        self._sum_ns = np.zeros(_REQUEST + 1, dtype=np.int64)
        self.inline = 0
        self.queued = 0

    def close(self, records) -> None:
        """The replies of ``records`` were written now: count them."""
        written = monotonic_ns()
        for record in records:
            record.written = written
        with self._lock:
            self._closed.extend(records)
            if len(self._closed) < _FOLD_AT:
                return
            closed, self._closed = self._closed, []
            self._fold(closed)

    def _fold(self, closed: list[RequestRecord]) -> None:
        """Count closed records into the histograms (lock held)."""
        t = np.fromiter(
            chain.from_iterable(map(_STAMPS, closed)), dtype=np.int64,
            count=len(closed) * len(_STAMP_NAMES),
        )
        (opened, decoded, submitted, woke, started, scored, resolved,
         drained, written) = t.reshape(len(closed), -1).T
        queued = submitted > 0
        # (start, end) stamps of each Stage, in order, then the request
        starts = np.stack([
            opened, decoded, np.where(woke > 0, woke, submitted), submitted,
            started, scored, resolved, np.where(drained > 0, drained, resolved),
            opened,
        ])
        ends = np.stack([
            decoded, np.where(queued, submitted, started), started, woke,
            scored, resolved, drained, written, written,
        ])
        crossed = (starts > 0) & (ends > 0)
        row = np.nonzero(crossed)[0]
        ns = (ends - starts)[crossed]
        self._hist += np.bincount(
            row * _N_BUCKETS + _bucket(ns), minlength=self._hist.size
        ).reshape(self._hist.shape)
        np.add.at(self._sum_ns, row, ns)
        self.queued += int(queued.sum())
        self.inline += int(((started > 0) & ~queued).sum())

    def snapshot(self) -> dict:
        """JSON-safe ``{stage: {count, mean_us, p50_us, p99_us}}``.

        Also ``"request"`` (decode start → reply written) and the
        ``"inline"``/``"queued"`` request counts.
        """
        with self._lock:
            closed, self._closed = self._closed, []
            if closed:
                self._fold(closed)
            hist, sum_ns = self._hist.copy(), self._sum_ns.copy()
            out = {"inline": self.inline, "queued": self.queued}
        names = [stage.name.lower() for stage in Stage] + ["request"]
        for row, name in enumerate(names):
            out[name] = _summary(hist[row], int(sum_ns[row]))
        return out


def _summary(hist: np.ndarray, sum_ns: int) -> dict:
    count = int(hist.sum())
    if count == 0:
        return {"count": 0, "mean_us": 0.0, "p50_us": 0.0, "p99_us": 0.0}
    cum = np.cumsum(hist)
    at = np.searchsorted(cum, np.ceil(np.array([0.5, 0.99]) * count))
    p50, p99 = _bucket_mid_ns(at) / 1e3
    return {
        "count": count,
        "mean_us": round(sum_ns / count / 1e3, 3),
        "p50_us": round(float(p50), 3),
        "p99_us": round(float(p99), 3),
    }


#: where :func:`thread_cpu_seconds` reads per-thread ``stat`` files
_PROC_TASKS = "/proc/self/task"


def thread_cpu_seconds() -> dict[str, float] | None:
    """Each live Python thread's name → its CPU seconds (user + system).

    Read from ``/proc/self/task/<native_id>/stat``; ``None`` where that
    is unreadable (no procfs).  Threads sharing a name are summed.
    """
    tick = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
    out: dict[str, float] = {}
    for thread in threading.enumerate():
        try:
            with open(f"{_PROC_TASKS}/{thread.native_id}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            if not os.path.isdir(_PROC_TASKS):
                return None
            continue  # the thread ended since enumerate()
        # Fields after the parenthesised command: utime, stime are the
        # 12th and 13th.
        fields = stat[stat.rindex(b")") + 2:].split()
        cpu = (int(fields[11]) + int(fields[12])) / tick
        out[thread.name] = out.get(thread.name, 0.0) + cpu
    return out
