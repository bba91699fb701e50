"""The batched inference engine — a prepared model that answers queries.

The cloud-offload scenario of §III-C has a hosted model answering a
stream of (possibly obfuscated) query hypervectors.  Serving from the
raw :class:`~repro.hd.model.HDModel` repeats per-query work that only
needs doing once: quantizing the class store, packing it into bit
planes, and computing the Eq. (4) norm denominators.
:class:`InferenceEngine` does all of that at construction and then
answers queries in fixed-size batches, so peak memory stays bounded no
matter how large a batch a client sends.

    >>> from repro.serve import InferenceEngine
    >>> engine = InferenceEngine(model, backend="packed", quantizer="bipolar")
    >>> engine.predict(client_queries)            # dense or PackedHV batch

With ``backend="packed"`` the class store lives as uint64 sign/magnitude
planes and every similarity is XOR + popcount — several times the dense
throughput at paper scale (measure it: ``python benchmarks/
bench_serve.py --backend all``).  Decisions are bit-for-bit
identical to dense on the same quantized operands.
"""

from __future__ import annotations

import numpy as np

from repro.backend import Backend, PackedBackend, PackedHV, get_backend
from repro.backend.packed import (
    LiveHV,
    LiveStore,
    expand_live,
    keep_of,
    keep_support,
    popcount,
    support_digest,
)
from repro.hd.encode_pipeline import EncodePipeline
from repro.hd.encoder import Encoder
from repro.hd.model import HDModel
from repro.hd.quantize import MaskedQuantizer, get_quantizer
from repro.utils.validation import check_labels, check_positive_int

__all__ = ["InferenceEngine", "MODEL_OBJECT_NBYTES"]

#: Bytes the objects around a resident model's arrays hold (registry entry,
#: artifact, engine, store wrappers): 3.7-5.9 KB per fleet tenant under
#: ``tracemalloc`` (CPython 3.11, d_hv=10,000, with or without an encoder).
MODEL_OBJECT_NBYTES = 4096


class InferenceEngine:
    """A prepared (quantized, packed, norm-precomputed) serving model.

    Parameters
    ----------
    model:
        The trained :class:`~repro.hd.model.HDModel`.  The engine takes a
        snapshot of its class store; later mutation of ``model`` does not
        affect the engine.  A :class:`~repro.backend.PackedHV` or
        :class:`~repro.backend.packed.LiveStore` is taken as a class
        store already in its serving representation (what a packed
        :class:`~repro.serve.ModelArtifact` holds): a packed backend
        serves it as it is, never re-quantized.
    backend:
        ``"dense"`` (default), ``"packed"``, ``"native"`` (compiled
        packed kernels, NumPy fallback when numba is absent), or a
        :class:`Backend` instance.  The packed-operand backends require
        the (possibly quantized) class store to be bipolar/ternary.
    quantizer:
        Optional quantizer name/instance applied to the **class store**
        before preparation (e.g. ``"bipolar"`` serves the 1-bit model of
        §III-C/III-D).  ``None`` serves the store as trained.
    batch_size:
        Maximum queries scored at once; larger client batches are
        chunked transparently.
    encoder:
        Optional :class:`~repro.hd.encoder.Encoder` matching the model's
        ``d_hv``.  When given, the ``*_features`` methods accept raw
        ``(n, d_in)`` features and stream them through a fused
        encode → quantize (→ pack) pipeline, so serving raw features
        never materializes more than one encoded tile.
    encode_workers, chunk_size:
        Encode-pipeline knobs (see
        :class:`~repro.hd.encode_pipeline.EncodePipeline`); only used
        with ``encoder``.  The NumPy bit kernels release the GIL, so
        thread workers scale.
    store_is_quantized:
        Declare the model's class store already in its serving
        representation — e.g. loaded from a
        :class:`~repro.serve.ModelArtifact`, whose store was quantized
        once at save time.  The store is prepared as-is (re-applying a
        quantile quantizer to its own output is not idempotent in
        general), while ``quantizer`` still shapes raw-feature queries.
    keep_mask:
        Live-dimension mask of a pruned (§III-B) model (``(d_hv,)`` bool,
        or its packed plane), held only as :attr:`support`.  Raw-feature
        queries are quantized over the live dimensions only and zeroed
        elsewhere — the exact training-time query pipeline
        (:class:`~repro.hd.quantize.MaskedQuantizer`).  Encoded-query
        entry points (``predict``/``scores``) expect the caller to have
        masked already, as the obfuscator does.  Its packed plane (all
        dimensions when absent, or the support of a class store held
        as live words) is the support protocol-v5 live queries must
        name (:meth:`check_live`).

    Attributes
    ----------
    pruned, support, support_digest, n_live:
        Whether a ``keep_mask`` was given; the served support plane (its
        plane, if given), its digest and its popcount.
    live_in_place:
        Whether live queries score against the store as they are: the
        store is held as live words on :attr:`support`.  Otherwise they
        are placed on :attr:`support` first.
    coalesce_key:
        The group of engines one fused fleet flush can score together
        (:func:`~repro.serve.fleet.fused_tenant_scores`): same ``d_hv``,
        class count (score width) and query quantizer (what the rows
        mean); the scheduler key adds the rows' live-dimension count
        (live-word width, though *which* dimensions are live may
        differ).  Set only when :attr:`live_in_place`; ``None`` for
        dense and ternary stores, and for a store held off the served
        support, which score per tenant.
    queries_served, batches_served:
        Cumulative serving counters (cheap observability for the
        throughput benchmarks and the micro-batching server).
    """

    def __init__(
        self,
        model: HDModel | PackedHV | LiveStore,
        *,
        backend: str | Backend | None = None,
        quantizer=None,
        batch_size: int = 8192,
        encoder: Encoder | None = None,
        encode_workers: int | None = 1,
        chunk_size: int | None = None,
        store_is_quantized: bool = False,
        keep_mask=None,
    ):
        self.backend = get_backend(backend)
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.quantizer = None if quantizer is None else get_quantizer(quantizer)
        if isinstance(model, (PackedHV, LiveStore)):
            self.n_classes, self.d_hv = model.shape
            class_hvs = model
            if not isinstance(self.backend, PackedBackend):
                class_hvs = model.unpack(np.float64)
            store_is_quantized = True
        else:
            self.n_classes = model.n_classes
            self.d_hv = model.d_hv
            class_hvs = model.class_hvs
        self.store_is_quantized = bool(store_is_quantized)
        self.pruned = keep_mask is not None
        self.encode_pipeline = None
        if encoder is not None:
            if encoder.d_hv != self.d_hv:
                raise ValueError(
                    f"encoder produces {encoder.d_hv}-dim hypervectors but "
                    f"the model is {self.d_hv}-dim"
                )
            self.encode_pipeline = EncodePipeline(
                encoder,
                chunk_size=batch_size if chunk_size is None else chunk_size,
                workers=encode_workers,
            )

        if self.quantizer is not None and not self.store_is_quantized:
            class_hvs = self.quantizer(class_hvs)
        if not self.backend.supports(class_hvs):
            raise ValueError(
                f"the {self.backend.name!r} backend cannot represent this "
                "class store; pass quantizer='bipolar' (or 'ternary' / "
                "'ternary-biased') to quantize it for serving"
            )
        self.prepared = self.backend.prepare_class_store(class_hvs)
        store = self.prepared.store
        if keep_mask is None:  # a LiveStore's support, else every dimension
            keep_mask = getattr(store, "support", np.ones(self.d_hv, bool))
        support = keep_support(keep_mask, self.d_hv)
        self.support_digest = support_digest(support)
        self.live_in_place = (
            isinstance(store, LiveStore)
            and store.digest == self.support_digest
        )
        self.support = store.support if self.live_in_place else support
        self.n_live = int(popcount(self.support).sum())
        self.coalesce_key = None
        if self.live_in_place:
            self.coalesce_key = (
                self.d_hv,
                self.n_classes,
                None if self.quantizer is None else self.quantizer.name,
            )
        self.queries_served = 0
        self.batches_served = 0

    # ------------------------------------------------------------------
    @property
    def class_norms(self) -> np.ndarray:
        """Precomputed Eq. (4) denominators of the served store."""
        return self.prepared.norms

    @property
    def store_nbytes(self) -> int:
        """Bytes held by the prepared class store."""
        return int(self.prepared.store.nbytes)

    @property
    def resident_nbytes(self) -> int:
        """A fleet tenant's charge: the prepared store, its norms, a
        support plane held apart from it and :data:`MODEL_OBJECT_NBYTES`."""
        held = self.store_nbytes + self.prepared.norms.nbytes
        if self.support is not getattr(self.prepared.store, "support", None):
            held += self.support.nbytes
        return held + MODEL_OBJECT_NBYTES

    def held_on(self, digest: int, n_live: int):
        """The class store live words on that support score against.

        The served :class:`~repro.backend.packed.LiveStore`, or its
        core (:meth:`~repro.backend.packed.LiveStore.held_on`), when
        :attr:`live_in_place`; otherwise the prepared store, for words
        on :attr:`support` only (placed on it before scoring).  ``None``
        when the model holds no such support.
        """
        if self.live_in_place:
            return self.prepared.store.held_on(digest, n_live)
        if (digest, n_live) == (self.support_digest, self.n_live):
            return self.prepared.store
        return None

    def check_live(self, queries: LiveHV) -> None:
        """Refuse live queries that name no support this model holds.

        Raises ``ValueError`` (the wire's ``bad-request``) unless
        ``queries`` were packed on :attr:`support` or on the store's
        core (:meth:`held_on`): same ``d_hv``, same ``n_live``, same
        :func:`~repro.backend.packed.support_digest`.
        """
        if (
            queries.d != self.d_hv
            or self.held_on(queries.digest, queries.n_live) is None
        ):
            raise ValueError(
                f"live queries name support {queries.digest:#018x} "
                f"(d_hv={queries.d}, n_live={queries.n_live}) but this "
                f"model serves {self.support_digest:#018x} "
                f"(d_hv={self.d_hv}, n_live={self.n_live}); mask the "
                "queries with the served keep mask"
            )

    def _batches(self, queries):
        if isinstance(queries, LiveHV):
            self.check_live(queries)
            if not self.live_in_place:
                queries = expand_live(queries, self.support)
        elif not isinstance(queries, PackedHV):
            queries = np.atleast_2d(np.asarray(queries))
        n = len(queries)
        if n == 0:
            raise ValueError("cannot serve an empty query batch")
        for start in range(0, n, self.batch_size):
            yield queries[start : start + self.batch_size]

    # ------------------------------------------------------------------
    def scores(self, queries) -> np.ndarray:
        """Eq. (4) class scores, shape ``(n, n_classes)``, batched.

        ``queries`` may be a dense ``(n, d_hv)`` array, an already
        bit-packed :class:`~repro.backend.PackedHV` batch (what an
        obfuscating client ships for offload), or the
        :class:`~repro.backend.packed.LiveHV` live words of one (checked
        by :meth:`check_live`).
        """
        chunks = []
        for chunk in self._batches(queries):
            native = self.backend.prepare_queries(chunk)
            chunks.append(self.backend.class_scores(native, self.prepared))
            self.batches_served += 1
            self.queries_served += chunks[-1].shape[0]
        return np.vstack(chunks)

    def predict(self, queries) -> np.ndarray:
        """Predicted labels, shape ``(n,)``."""
        return np.argmax(self.scores(queries), axis=1)

    # ------------------------------------------------------------------
    # raw-feature serving (requires the ``encoder`` constructor argument)
    # ------------------------------------------------------------------
    @property
    def query_quantizer(self):
        """The quantizer raw-feature queries actually stream through.

        The configured ``quantizer`` wrapped over the live dimensions
        when the engine serves a pruned model (``keep_mask``), the
        configured quantizer itself otherwise, ``None`` when neither is
        set.
        """
        if not self.pruned:
            return self.quantizer
        return MaskedQuantizer(
            get_quantizer(self.quantizer), keep_of(self.support, self.d_hv)
        )

    def _feature_stream(self, X: np.ndarray):
        if self.encode_pipeline is None:
            raise ValueError(
                "this engine has no encoder; construct it with "
                "InferenceEngine(model, encoder=...) to serve raw features"
            )
        # Queries get the model's serving quantizer (masked to the live
        # dimensions for pruned models) so both backends answer
        # identically; the packed backend additionally receives
        # bit-packed tiles (what an obfuscating client ships).
        q = self.query_quantizer
        packed_backend = isinstance(self.backend, PackedBackend)
        pack = (
            packed_backend
            and self.quantizer is not None
            and self.quantizer.packable
        )
        if packed_backend and not pack:
            raise ValueError(
                f"the {self.backend.name!r} backend needs a packable "
                "quantizer (bipolar/ternary/ternary-biased) to serve "
                "raw features"
            )
        return self.encode_pipeline.stream_quantized(X, q, pack=pack)

    def predict_features(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels for raw ``(n, d_in)`` features, streamed.

        Fuses encode → quantize (→ pack) → score tile by tile: at no
        point does more than one encoded tile exist in memory.
        """
        return np.concatenate(
            [self.predict(H) for _, H in self._feature_stream(X)]
        )

    def accuracy_features(self, X: np.ndarray, labels: np.ndarray) -> float:
        """Streamed accuracy on raw features."""
        y = check_labels(labels, "labels", n_classes=self.n_classes)
        preds = self.predict_features(X)
        if preds.shape[0] != y.shape[0]:
            raise ValueError(f"{preds.shape[0]} queries but {y.shape[0]} labels")
        return float(np.mean(preds == y))

    def accuracy(self, queries, labels: np.ndarray) -> float:
        """Fraction of queries whose argmax class matches ``labels``."""
        y = check_labels(labels, "labels", n_classes=self.n_classes)
        preds = self.predict(queries)
        if preds.shape[0] != y.shape[0]:
            raise ValueError(f"{preds.shape[0]} queries but {y.shape[0]} labels")
        return float(np.mean(preds == y))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        q = self.quantizer.name if self.quantizer is not None else None
        return (
            f"InferenceEngine(backend={self.backend.name!r}, quantizer={q!r}, "
            f"n_classes={self.n_classes}, d_hv={self.d_hv}, "
            f"served={self.queries_served})"
        )
