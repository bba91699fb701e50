"""Serving-throughput measurement shared by the CLI and the benchmarks.

The dense-vs-packed speedup is a headline claim of this refactor, so it
is *measured*, never asserted: :func:`run_throughput` builds the same
bipolar-quantized model, routes the same queries through each backend's
:class:`~repro.serve.InferenceEngine`, checks the predictions are
identical, and reports queries/second.  Both ``prive-hd throughput`` and
``benchmarks/bench_throughput.py`` are thin wrappers around it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.hd.model import HDModel
from repro.serve.engine import InferenceEngine
from repro.utils.rng import spawn
from repro.utils.validation import check_positive_int

__all__ = [
    "ThroughputRow",
    "ThroughputResult",
    "make_serving_fixture",
    "run_throughput",
    "render_throughput_report",
]


@dataclass(frozen=True)
class ThroughputRow:
    """One backend's measurement (best wall-clock of the repeats)."""

    backend: str
    elapsed_s: float
    queries_per_s: float


@dataclass(frozen=True)
class ThroughputResult:
    """Dense/packed serving throughput on one synthetic workload.

    Attributes
    ----------
    rows:
        One row per measured backend.
    n_queries, d_hv, n_classes:
        Workload shape.
    speedup:
        Packed q/s over dense q/s; ``None`` unless both were measured.
    identical:
        Whether all measured backends produced bit-identical predictions.
    client_pack_s:
        One-time client-side cost of bit-packing the query batch (the
        §III-C offload scenario ships packed queries, so this happens on
        the edge device, off the serving path — and shrinks the uplink
        payload 16×).
    """

    rows: tuple[ThroughputRow, ...]
    n_queries: int
    d_hv: int
    n_classes: int
    speedup: float | None = None
    identical: bool = True
    client_pack_s: float = 0.0
    predictions: dict = field(default_factory=dict, repr=False)


def make_serving_fixture(
    d_hv: int = 10000,
    n_queries: int = 2000,
    n_classes: int = 26,
    seed: int = 0,
) -> tuple[HDModel, np.ndarray]:
    """A bipolar-quantized model plus bipolar query hypervectors.

    Both sides are 1-bit with every dimension live: an *unmasked*
    deployment.  A §III-C deployment also zeroes the same masked
    dimensions on both sides; that masked shape is what the
    ``gateway_batched`` workload of ``perfbench/`` serves.  Both take
    the packed backend's shared-support kernel — here the shared plane
    is every dimension.  Values are ±1 floats so the dense backend runs
    its usual path untouched.
    """
    check_positive_int(d_hv, "d_hv")
    check_positive_int(n_queries, "n_queries")
    check_positive_int(n_classes, "n_classes")
    rng = spawn(seed, "serving-fixture")
    class_hvs = np.where(rng.normal(size=(n_classes, d_hv)) >= 0, 1.0, -1.0)
    # Queries correlate with a random class so predictions are non-trivial.
    owner = rng.integers(0, n_classes, n_queries)
    noise = rng.normal(size=(n_queries, d_hv))
    queries = np.where(class_hvs[owner] + 1.5 * noise >= 0, 1.0, -1.0)
    model = HDModel(n_classes, d_hv, class_hvs)
    return model, queries.astype(np.float32)


def run_throughput(
    backend: str = "both",
    *,
    d_hv: int = 10000,
    n_queries: int = 2000,
    n_classes: int = 26,
    batch_size: int = 8192,
    seed: int = 0,
    repeats: int = 3,
) -> ThroughputResult:
    """Measure host-side ``predict`` throughput per backend.

    ``backend`` is ``"dense"``, ``"packed"``, ``"native"``, ``"both"``
    (dense + packed) or ``"all"`` (those plus native).  The same query
    batch is served in each backend's wire format — floats for dense,
    bit planes for the packed-operand backends, exactly the §III-C
    offload split where the client quantizes/packs before transmitting.
    Native kernels are warmed (JIT-compiled) before timing.  The one-time
    client-side packing cost is measured separately
    (``client_pack_s``).  Each row is the best of ``repeats`` runs; when
    both backends run, predictions are compared element-wise.
    """
    from repro.backend import pack_hypervectors
    from repro.backend.native import kernels_available, warm_kernels

    if backend == "both":
        names: tuple[str, ...] = ("dense", "packed")
    elif backend == "all":
        names = ("dense", "packed", "native")
    else:
        names = (backend,)
    check_positive_int(repeats, "repeats")
    model, queries = make_serving_fixture(d_hv, n_queries, n_classes, seed)
    packed_queries, client_pack_s = None, 0.0
    if "packed" in names or "native" in names:
        t0 = time.perf_counter()
        packed_queries = pack_hypervectors(queries)
        client_pack_s = time.perf_counter() - t0
    if "native" in names and kernels_available():
        warm_kernels()  # JIT compilation must not count against the timings

    rows = []
    predictions: dict[str, np.ndarray] = {}
    for name in names:
        wire = queries if name == "dense" else packed_queries
        engine = InferenceEngine(model, backend=name, batch_size=batch_size)
        predictions[name] = engine.predict(wire)  # warm-up + correctness
        best = min(_time_once(engine.predict, wire) for _ in range(repeats))
        rows.append(
            ThroughputRow(
                backend=name,
                elapsed_s=best,
                queries_per_s=n_queries / best,
            )
        )

    speedup = None
    by_name = {r.backend: r for r in rows}
    if "dense" in by_name and "packed" in by_name:
        speedup = (
            by_name["packed"].queries_per_s / by_name["dense"].queries_per_s
        )
    identical = (
        len({p.tobytes() for p in predictions.values()}) == 1
    )
    return ThroughputResult(
        rows=tuple(rows),
        n_queries=n_queries,
        d_hv=d_hv,
        n_classes=n_classes,
        speedup=speedup,
        identical=identical,
        client_pack_s=client_pack_s,
        predictions=predictions,
    )


def _time_once(fn, arg) -> float:
    t0 = time.perf_counter()
    fn(arg)
    return time.perf_counter() - t0


def render_throughput_report(results: ThroughputResult) -> str:
    """The human-readable report both the CLI and the bench script print.

    One renderer so the two entry points cannot drift; callers must
    still treat ``results.identical == False`` as a failure (non-zero
    exit) themselves.
    """
    lines = [
        f"serving workload: {results.n_queries} queries, "
        f"d_hv={results.d_hv}, {results.n_classes} classes "
        "(bipolar store + queries)"
    ]
    for row in results.rows:
        lines.append(
            f"{row.backend:>6}: {row.queries_per_s:12,.0f} q/s   "
            f"({row.elapsed_s * 1e3:8.2f} ms / {results.n_queries} queries)"
        )
    if results.client_pack_s > 0:
        lines.append(
            f"one-time client-side packing: "
            f"{results.client_pack_s * 1e3:.2f} ms "
            "(16x smaller uplink payload)"
        )
    if results.speedup is not None:
        lines.append(
            f"packed speedup over dense: {results.speedup:.1f}x "
            f"(identical predictions: {results.identical})"
        )
    return "\n".join(lines)
