"""The streaming encode pipeline: chunked, parallel, cache-aware.

Encoding is the dominant cost of every training run, Eq. (5) retraining
epoch and experiment sweep: one monolithic ``encoder.encode(X)`` call
materializes the full ``(n, d_hv)`` float matrix (gigabytes at paper
scale) inside a single-threaded hot loop.  This module turns encoding
into a *pipeline*:

* :class:`EncodePipeline` drives the encoder over bounded-memory tiles
  and optionally fans tiles out across a thread pool — the threads
  share the codebooks read-only and scale because the NumPy kernels
  release the GIL.
* Level-base tiles run on the flip-chain popcount
  (:meth:`~repro.hd.encoder.LevelBaseEncoder.encode_packed`, which is
  also what ``encoder.encode`` runs), compiled by numba when it is
  installed (``kernel="native"`` insists, ``kernel="packed"`` pins the
  NumPy kernel).
* :meth:`EncodePipeline.stream_quantized` fuses encode → quantize →
  (optionally) bit-pack per tile, so training and serving never hold
  full-precision encodings for more than one tile.  Bipolar packing on
  a level-base encoder is emitted *directly* from the flip-chain
  count (:meth:`~repro.hd.encoder.LevelBaseEncoder.encode_packed_bipolar`)
  — the dense tile never materializes.
* :class:`EncodedChunkStore` caches the quantized tiles keyed by chunk
  index — 16× smaller than floats when bit-packed — so retraining
  epochs replay encodings instead of recomputing them.

Measure it: ``python benchmarks/bench_encode.py`` (writes
``BENCH_encode.json`` and asserts parity with the single-shot path).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np

from repro.backend.packed import PackedHV
from repro.hd.encoder import Encoder
from repro.hd.quantize import EncodingQuantizer, get_quantizer
from repro.utils.validation import check_2d, check_positive_int

__all__ = [
    "EncodePipeline",
    "EncodedChunkStore",
    "LazyEncodedStream",
    "ENCODE_KERNELS",
]

#: kernel choices accepted by :class:`EncodePipeline`
ENCODE_KERNELS = ("auto", "dense", "packed", "native")


def default_workers() -> int:
    """A conservative worker count: the CPU count, capped at 4."""
    return max(1, min(4, os.cpu_count() or 1))


class EncodePipeline:
    """Chunked (and optionally parallel) driver around one encoder.

    Parameters
    ----------
    encoder:
        The :class:`~repro.hd.encoder.Encoder` to drive; thread workers
        share its codebooks read-only.
    chunk_size:
        Rows encoded per tile; bounds peak memory at
        ``chunk_size × d_hv`` floats per in-flight tile.
    workers:
        Concurrent tiles.  ``1`` (default) encodes inline; ``None``
        resolves to :func:`default_workers`.
    kernel:
        ``"auto"`` (default) uses the best kernel the encoder provides —
        the numba-compiled native kernels when numba is installed, the
        flip-chain popcount for level-base encoders, the GEMM otherwise.
        ``"dense"`` / ``"packed"`` / ``"native"`` force a path
        (``"dense"`` tiles are ``encoder.encode``; ``"packed"`` pins the
        pure-NumPy kernel; ``"native"`` raises at construction when
        numba is absent).

    All paths produce the same rows as the single-shot
    ``encoder.encode(X)``: bit-identical for level-base (integer-exact
    addend sums), and identical up to BLAS accumulation order for the
    scalar-base float matmul.
    """

    def __init__(
        self,
        encoder: Encoder,
        *,
        chunk_size: int = 1024,
        workers: int | None = 1,
        kernel: str = "auto",
    ):
        self.encoder = encoder
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        self.workers = (
            default_workers()
            if workers is None
            else check_positive_int(workers, "workers")
        )
        if kernel not in ENCODE_KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {ENCODE_KERNELS}"
            )
        if kernel == "packed" and not hasattr(encoder, "encode_packed"):
            raise ValueError(
                f"the {type(encoder).__name__} has no packed encode kernel; "
                "use kernel='auto' or 'dense'"
            )
        if kernel == "native":
            from repro.backend.native import kernels_available

            if not kernels_available():
                raise ValueError(
                    "kernel='native' needs numba, which is not installed; "
                    "use kernel='auto' for automatic selection"
                )
        self.kernel = kernel

    # ------------------------------------------------------------------
    @property
    def uses_packed_kernel(self) -> bool:
        """True when tiles come straight off ``encode_packed``."""
        if self.kernel == "dense":
            return False
        return hasattr(self.encoder, "encode_packed")

    def _encode_tile(self, X_chunk, mode: str):
        """Encode one tile under the kernel policy.

        ``self.kernel`` follows :data:`ENCODE_KERNELS` ("packed" forces
        the pure-NumPy accumulator, "native" the compiled kernels,
        "auto" picks the best available); ``mode`` is ``"encode"`` for a
        dense float32 tile or ``"packed-bipolar"`` for direct
        :class:`~repro.backend.PackedHV` emission.
        """
        encoder, kernel = self.encoder, self.kernel
        native = {"native": True, "packed": False}.get(kernel)
        if mode == "packed-bipolar":
            return encoder.encode_packed_bipolar(X_chunk, native=native)
        if native is not None and hasattr(encoder, "encode_packed"):
            return encoder.encode_packed(X_chunk, native=native)
        if kernel == "native" and hasattr(encoder, "encode_into"):
            out = np.empty((X_chunk.shape[0], encoder.d_hv), dtype=np.float32)
            return encoder.encode_into(X_chunk, out, native=True)
        return encoder.encode(X_chunk)

    def _chunk_slices(self, n: int) -> list[slice]:
        return [
            slice(start, min(start + self.chunk_size, n))
            for start in range(0, n, self.chunk_size)
        ]

    # ------------------------------------------------------------------
    def stream(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield ``(row_slice, encoded_tile)`` in row order.

        With ``workers > 1`` up to ``2 × workers`` tiles are in flight,
        so peak memory stays bounded no matter how large ``X`` is.
        """
        X = check_2d(X, "X", n_cols=self.encoder.d_in)
        yield from self._stream_tiles(X, "encode")

    def _stream_tiles(self, X, mode: str) -> Iterator[tuple[slice, np.ndarray]]:
        """Drive tiles inline, or through a bounded thread-pool window."""
        slices = self._chunk_slices(X.shape[0])
        if self.workers == 1:
            for sl in slices:
                yield sl, self._encode_tile(X[sl], mode)
            return
        pool = ThreadPoolExecutor(max_workers=self.workers)

        def submit(sl):
            return pool.submit(self._encode_tile, X[sl], mode)

        window = 2 * self.workers
        try:
            pending: deque = deque()
            todo = iter(slices)
            for sl in todo:
                pending.append((sl, submit(sl)))
                if len(pending) >= window:
                    break
            while pending:
                sl, future = pending.popleft()
                result = future.result()
                for nxt in todo:
                    pending.append((nxt, submit(nxt)))
                    break
                yield sl, result
        finally:
            pool.shutdown(wait=True)

    @property
    def uses_fused_dense_kernel(self) -> bool:
        """True when :meth:`encode` writes tiles in place (no copy-out).

        Available when the encoder exposes ``encode_into`` (the blocked
        quantize-into-matmul of
        :meth:`~repro.hd.encoder.ScalarBaseEncoder.encode_into`) and the
        selected kernel is dense.
        """
        return not self.uses_packed_kernel and hasattr(self.encoder, "encode_into")

    #: row count below which a scalar-base GEMM is memory-bound (the
    #: codebook panel is re-streamed per call without enough rows to
    #: amortize it); the fused encode path coalesces chunk slices up to
    #: this many rows per projection call.
    FUSED_GEMM_ROWS = 2048

    def _coalesced_slices(self, n: int, min_rows: int) -> list[slice]:
        """Chunk slices merged into row groups of at least ``min_rows``.

        Feature quantization is elementwise, so quantizing a merged
        group equals quantizing its chunks one by one — coalescing only
        changes the *projection* call shape, never the values.
        """
        groups: list[slice] = []
        start = 0
        while start < n:
            stop = min(start + max(self.chunk_size, min_rows), n)
            groups.append(slice(start, stop))
            start = stop
        return groups

    def encode(self, X: np.ndarray) -> np.ndarray:
        """The full ``(n, d_hv)`` float32 encoding, built tile by tile.

        Same contract as ``encoder.encode`` — use :meth:`stream` or
        :meth:`stream_quantized` when the matrix should never
        materialize.  When the encoder provides a fused ``encode_into``
        kernel (scalar-base), quantization is fused per tile into a
        blocked projection that lands directly in the output rows — no
        per-tile temporary, no copy-out pass, and GEMM calls are
        coalesced to at least :attr:`FUSED_GEMM_ROWS` rows so small
        streaming chunks no longer degrade the matmul to a
        memory-bound shape.  This is what recovers the chunked
        scalar-base path to single-shot throughput
        (``benchmarks/bench_encode.py``).
        """
        X = check_2d(X, "X", n_cols=self.encoder.d_in)
        out = np.empty((X.shape[0], self.encoder.d_hv), dtype=np.float32)
        if self.uses_fused_dense_kernel:
            native = {"native": True, "dense": False}.get(self.kernel)
            groups = self._coalesced_slices(X.shape[0], self.FUSED_GEMM_ROWS)
            if self.workers == 1 or len(groups) == 1:
                for sl in groups:
                    self.encoder.encode_into(X[sl], out[sl], native=native)
                return out
            # Thread workers share the output buffer; every group writes
            # a disjoint row block, so no synchronization is needed.
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                futures = [
                    pool.submit(
                        self.encoder.encode_into, X[sl], out[sl], native=native
                    )
                    for sl in groups
                ]
                for future in futures:
                    future.result()
            return out
        for sl, tile in self.stream(X):
            out[sl] = tile
        return out

    def stream_quantized(
        self,
        X: np.ndarray,
        quantizer: EncodingQuantizer | str | None,
        *,
        pack: bool = False,
    ) -> Iterator[tuple[slice, np.ndarray | PackedHV]]:
        """Fused encode → quantize (→ bit-pack) tile stream.

        With ``pack=True`` (packable quantizers only) each tile leaves
        the pipeline as a :class:`~repro.backend.PackedHV` — 16× smaller
        than float32 — ready for the packed similarity kernels, the
        training stream of :func:`~repro.hd.batching.fit_classes_batched`
        or an :class:`EncodedChunkStore`.

        Bipolar packing on an encoder with a direct-emission kernel
        (level-base) skips the dense tile entirely: the packed sign
        plane comes straight off the flip-chain count
        (:meth:`~repro.hd.encoder.LevelBaseEncoder.encode_packed_bipolar`)
        with no unpack → quantize → re-pack round-trip.  Values are
        identical either way.
        """
        q = get_quantizer(quantizer)
        if pack and self._emits_packed_bipolar(q):
            X = check_2d(X, "X", n_cols=self.encoder.d_in)
            yield from self._stream_tiles(X, "packed-bipolar")
            return
        prepare = q.pack if pack else q
        for sl, tile in self.stream(X):
            yield sl, prepare(tile)

    def _emits_packed_bipolar(self, q: EncodingQuantizer) -> bool:
        """True when packed bipolar tiles can skip the dense round-trip."""
        return (
            q.name == "bipolar"
            and self.kernel != "dense"
            and hasattr(self.encoder, "encode_packed_bipolar")
        )

    def store(
        self,
        X: np.ndarray,
        quantizer: EncodingQuantizer | str | None = None,
        *,
        pack: bool | str = "auto",
    ) -> "EncodedChunkStore":
        """Encode once into a replayable :class:`EncodedChunkStore`."""
        return EncodedChunkStore.build(self, X, quantizer=quantizer, pack=pack)

    def lazy_store(
        self,
        X: np.ndarray,
        quantizer: EncodingQuantizer | str | None = None,
    ) -> "LazyEncodedStream":
        """A replayable chunk source that re-encodes on every pass.

        The bounded-memory companion of :meth:`store` for quantizers
        whose tiles cannot be bit-packed (identity, 2-bit): caching
        those dense would cost as much as the full matrix, so each pass
        replays the fused pipeline instead — more compute, same bounded
        peak.
        """
        return LazyEncodedStream(self, X, quantizer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EncodePipeline({type(self.encoder).__name__}, "
            f"chunk_size={self.chunk_size}, workers={self.workers}, "
            f"kernel={self.kernel!r})"
        )


class EncodedChunkStore:
    """Quantized encoding tiles cached by chunk index.

    Eq. (5) retraining replays the training encodings every epoch; the
    paper's observation that retraining is cheap hinges on *not*
    re-encoding each time.  This store keeps each quantized tile —
    bit-packed when the quantizer allows, 16× smaller than float32 — and
    replays them as dense tiles on demand, so an epoch costs one unpack
    pass instead of a full encode.

    Attributes
    ----------
    d_hv:
        Hypervector dimensionality of every tile.
    n_rows:
        Total rows across tiles.
    packed:
        True when tiles are stored as bit planes.
    """

    def __init__(
        self,
        d_hv: int,
        chunks: list[tuple[slice, np.ndarray | PackedHV]],
    ):
        self.d_hv = check_positive_int(d_hv, "d_hv")
        if not chunks:
            raise ValueError("an EncodedChunkStore needs at least one chunk")
        self._chunks = list(chunks)
        self.n_rows = max(sl.stop for sl, _ in self._chunks)
        self.packed = any(isinstance(c, PackedHV) for _, c in self._chunks)

    @classmethod
    def build(
        cls,
        pipeline: EncodePipeline,
        X: np.ndarray,
        *,
        quantizer: EncodingQuantizer | str | None = None,
        pack: bool | str = "auto",
    ) -> "EncodedChunkStore":
        """Fill a store from one fused encode → quantize (→ pack) pass.

        ``pack="auto"`` bit-packs exactly when the quantizer's levels
        fit the planes; ``pack=True`` insists (raising for unpackable
        quantizers); ``pack=False`` stores dense float32 tiles.
        """
        q = get_quantizer(quantizer)
        if pack == "auto":
            pack = q.packable
        chunks = list(pipeline.stream_quantized(X, q, pack=bool(pack)))
        return cls(pipeline.encoder.d_hv, chunks)

    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        """Number of cached tiles."""
        return len(self._chunks)

    @property
    def nbytes(self) -> int:
        """Bytes held across all cached tiles."""
        return sum(c.nbytes for _, c in self._chunks)

    def iter_chunks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Replay ``(row_slice, dense_tile)`` pairs (repeatable)."""
        for sl, chunk in self._chunks:
            if isinstance(chunk, PackedHV):
                yield sl, chunk.unpack()
            else:
                yield sl, chunk

    def iter_raw(self) -> Iterator[tuple[slice, np.ndarray | PackedHV]]:
        """The tiles exactly as stored (packed tiles stay packed) —
        directly consumable by ``fit_classes_batched(stream=...)``."""
        yield from iter(self._chunks)

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EncodedChunkStore(n_rows={self.n_rows}, d_hv={self.d_hv}, "
            f"n_chunks={self.n_chunks}, packed={self.packed}, "
            f"nbytes={self.nbytes})"
        )


class LazyEncodedStream:
    """A chunk source that replays the fused pipeline on every pass.

    Offers the same repeatable ``iter_chunks()`` interface as
    :class:`EncodedChunkStore` while holding only the raw ``(n, d_in)``
    features: each pass re-encodes and re-quantizes tile by tile, so
    peak memory stays bounded by the chunk size even for quantizers
    whose output cannot be bit-packed.  Trades one full encode per
    retraining epoch for that bound — prefer :class:`EncodedChunkStore`
    whenever the quantizer packs.
    """

    def __init__(
        self,
        pipeline: EncodePipeline,
        X: np.ndarray,
        quantizer: EncodingQuantizer | str | None = None,
    ):
        self._pipeline = pipeline
        self._X = check_2d(X, "X", n_cols=pipeline.encoder.d_in)
        self._quantizer = get_quantizer(quantizer)
        self.d_hv = pipeline.encoder.d_hv
        self.n_rows = self._X.shape[0]

    def iter_chunks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Re-encode and yield ``(row_slice, quantized_tile)`` pairs."""
        yield from self._pipeline.stream_quantized(self._X, self._quantizer)

    # already-quantized tiles: same contract as EncodedChunkStore.iter_raw
    iter_raw = iter_chunks

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazyEncodedStream(n_rows={self.n_rows}, d_hv={self.d_hv}, "
            f"quantizer={self._quantizer.name!r})"
        )
