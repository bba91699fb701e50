"""Memory-bounded batched encoding for paper-scale runs.

At the paper's scale (60k MNIST rows × Dhv = 10,000) a single encoding
matrix costs gigabytes.  :func:`fit_classes_batched` streams fixed-size
chunks of an :class:`~repro.hd.encode_pipeline.EncodePipeline` straight
into the class store, so full-precision encodings never coexist in
memory.  A pre-quantized stream of bit-packed chunks
(:class:`~repro.backend.PackedHV`) is accepted too, so an edge device —
or a cached, 16×-smaller packed encoding file — can feed training
directly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.backend.packed import PackedHV
from repro.hd.encode_pipeline import EncodePipeline
from repro.hd.encoder import Encoder
from repro.hd.model import HDModel
from repro.hd.quantize import EncodingQuantizer, get_quantizer
from repro.utils.validation import check_2d, check_labels, check_positive_int

__all__ = ["fit_classes_batched"]


def fit_classes_batched(
    encoder: Encoder | None,
    X: np.ndarray | None,
    y: np.ndarray,
    n_classes: int,
    *,
    quantizer: EncodingQuantizer | str | None = None,
    batch_size: int = 1024,
    workers: int | None = 1,
    stream: Iterable[tuple[slice, np.ndarray | PackedHV]] | None = None,
    d_hv: int | None = None,
) -> HDModel:
    """Single-pass training (Eq. 3) with bounded encoding memory.

    Produces a model identical (up to float accumulation order) to
    ``HDModel.from_encodings(quantize(encoder.encode(X)), y, n_classes)``
    while holding at most ``batch_size`` encodings at once.  The
    quantizers cut per-row quantiles, so per-batch and whole-matrix
    quantization give identical results.

    Parameters
    ----------
    encoder, X:
        The usual path: encode ``X`` chunk-by-chunk.  Pass ``None`` for
        both when supplying ``stream``.
    y, n_classes:
        Labels and class count.
    quantizer:
        Quantizer applied to each *dense* chunk (packed chunks are
        already quantized and are bundled as-is).
    batch_size:
        Rows encoded per chunk on the ``encoder``/``X`` path.
    workers:
        Concurrent encode tiles on the ``encoder``/``X`` path (see
        :class:`~repro.hd.encode_pipeline.EncodePipeline`); ignored with
        ``stream``.
    stream:
        Alternative input: an iterable of ``(row_slice, chunk)`` pairs
        where each chunk is a dense ``(rows, d_hv)`` array or a
        pre-quantized bit-packed :class:`~repro.backend.PackedHV` batch
        (e.g. from ``quantizer.pack`` on an edge device).  Mutually
        exclusive with ``X``.
    d_hv:
        Hypervector dimensionality — required with ``stream`` when no
        ``encoder`` is given; otherwise taken from the encoder.

    >>> from repro.hd import ScalarBaseEncoder
    >>> enc = ScalarBaseEncoder(4, 32, seed=0)
    >>> X = np.random.default_rng(0).uniform(0, 1, (10, 4))
    >>> y = np.arange(10) % 2
    >>> fit_classes_batched(enc, X, y, 2, batch_size=4).class_hvs.shape
    (2, 32)
    """
    if (X is None) == (stream is None):
        raise ValueError("provide exactly one of X or stream")
    y = check_labels(y, "y", n_classes=n_classes)
    q = get_quantizer(quantizer)

    if stream is None:
        if encoder is None:
            raise ValueError("the X path needs an encoder")
        X = check_2d(X, "X", n_cols=encoder.d_in)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X / y length mismatch")
        stream = EncodePipeline(
            encoder, chunk_size=batch_size, workers=workers
        ).stream(X)

    if d_hv is None:
        if encoder is None:
            raise ValueError("stream training without an encoder needs d_hv")
        d_hv = encoder.d_hv

    model = HDModel(n_classes, check_positive_int(d_hv, "d_hv"))
    row_ids = np.arange(y.shape[0])
    covered = np.zeros(y.shape[0], dtype=bool)
    for rows, chunk in stream:
        if isinstance(chunk, PackedHV):
            # Already quantized on the producer side; bundled straight
            # off the bit planes — no dense unpack round-trip.
            H = None
            n_chunk = chunk.n
        else:
            H = q(chunk)
            n_chunk = H.shape[0]
        idx = row_ids[rows]
        if n_chunk != idx.shape[0]:
            raise ValueError(
                f"stream chunk has {n_chunk} rows but its slice "
                f"selects {idx.shape[0]}"
            )
        if np.unique(idx).size != idx.size or covered[idx].any():
            raise ValueError(
                "stream covers some rows more than once "
                f"(around rows {idx[:3].tolist()})"
            )
        covered[idx] = True
        if H is None:
            model.bundle_packed(chunk, y[rows])
        else:
            model.bundle(H, y[rows])
    if not covered.all():
        raise ValueError(
            f"stream left {int((~covered).sum())} of {y.shape[0]} rows "
            "uncovered"
        )
    return model
