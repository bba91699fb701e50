"""The HD classification model: class hypervectors + cosine inference.

Training (Eq. 3) bundles the encoded hypervectors of each class into one
*class hypervector*; inference (Eq. 4) returns the class whose hypervector
has the highest cosine similarity with the encoded query.  The model is a
plain ``(n_classes, d_hv)`` float array — which is precisely why it leaks:
subtracting two models trained on adjacent datasets yields the encoding of
the missing record (Section III-A).  The differential-privacy machinery in
:mod:`repro.core` operates directly on instances of this class.
"""

from __future__ import annotations

import numpy as np

from repro.backend import Backend, PackedHV, get_backend, is_packable
from repro.hd.similarity import class_scores, cosine_matrix, norm_rows
from repro.utils.rng import RngLike, ensure_generator
from repro.utils.validation import check_2d, check_labels, check_positive_int

__all__ = ["HDModel"]


def add_rows(
    out: np.ndarray, index: np.ndarray, rows: np.ndarray, *, op=np.add
) -> None:
    """``op.at(out, index, rows)`` one row at a time.

    The same float64 adds into the same elements in the same order as
    the scatter, so the result is bit-identical, but each row is one
    vectorized ``d_hv``-wide add instead of ``d_hv`` indexed scalar ones.
    """
    for i, row in zip(index.tolist(), rows):
        target = out[i]
        op(target, row, out=target)


class HDModel:
    """An HD classifier: one prototype hypervector per class.

    Parameters
    ----------
    n_classes:
        Number of classes ``|C|``.
    d_hv:
        Hypervector dimensionality ``Dhv``.
    class_hvs:
        Optional initial ``(n_classes, d_hv)`` array (copied); zeros when
        omitted.

    Notes
    -----
    The class store is float64: class values grow like the number of
    bundled inputs, and the DP mechanism later adds real-valued Gaussian
    noise, so integer storage would buy nothing.
    """

    def __init__(
        self,
        n_classes: int,
        d_hv: int,
        class_hvs: np.ndarray | None = None,
    ):
        self.n_classes = check_positive_int(n_classes, "n_classes")
        self.d_hv = check_positive_int(d_hv, "d_hv")
        if class_hvs is None:
            self.class_hvs = np.zeros((n_classes, d_hv), dtype=np.float64)
        else:
            class_hvs = np.asarray(class_hvs, dtype=np.float64)
            if class_hvs.shape != (n_classes, d_hv):
                raise ValueError(
                    f"class_hvs must have shape {(n_classes, d_hv)}, "
                    f"got {class_hvs.shape}"
                )
            self.class_hvs = class_hvs.copy()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_encodings(
        cls, encodings: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> "HDModel":
        """Single-pass HD training, Eq. (3): bundle encodings per class."""
        H = check_2d(encodings, "encodings")
        y = check_labels(labels, "labels", n_classes=n_classes)
        if H.shape[0] != y.shape[0]:
            raise ValueError(
                f"{H.shape[0]} encodings but {y.shape[0]} labels"
            )
        model = cls(n_classes, H.shape[1])
        model.bundle(H, y)
        return model

    def copy(self) -> "HDModel":
        """Deep copy (class store included)."""
        return HDModel(self.n_classes, self.d_hv, self.class_hvs)

    # ------------------------------------------------------------------
    # training-time mutation
    # ------------------------------------------------------------------
    def bundle(self, encodings: np.ndarray, labels: np.ndarray) -> None:
        """Add encodings into their class hypervectors (Eq. 3 / Eq. 5 '+')."""
        H = check_2d(encodings, "encodings", n_cols=self.d_hv)
        y = check_labels(labels, "labels", n_classes=self.n_classes)
        add_rows(self.class_hvs, y, H)
        self._invalidate()

    def unbundle(self, encodings: np.ndarray, labels: np.ndarray) -> None:
        """Subtract encodings from class hypervectors (Eq. 5 '−')."""
        H = check_2d(encodings, "encodings", n_cols=self.d_hv)
        y = check_labels(labels, "labels", n_classes=self.n_classes)
        add_rows(self.class_hvs, y, H, op=np.subtract)
        self._invalidate()

    def bundle_packed(self, packed: PackedHV, labels: np.ndarray) -> None:
        """Bundle bit-packed quantized encodings — no dense round-trip.

        Equivalent to ``bundle(packed.unpack(), labels)`` but the
        ``(n, d_hv)`` float tile never materializes: per class, the sum
        of ternary values is ``2 · #positive − #non-zero`` per column,
        and both counts come off the bit planes through carry-save
        :class:`~repro.backend.BitPlaneAccumulator` counters.  Every
        addend is ±1/0, so the integer counts are exact and the result
        matches the dense bundle bit-for-bit in float64.
        """
        from repro.backend.packed import BitPlaneAccumulator

        y = check_labels(labels, "labels", n_classes=self.n_classes)
        if packed.d != self.d_hv:
            raise ValueError(
                f"packed encodings have {packed.d} dims, model has {self.d_hv}"
            )
        if packed.n != y.shape[0]:
            raise ValueError(
                f"{packed.n} encodings but {y.shape[0]} labels"
            )
        bipolar = packed.is_bipolar
        for c in np.unique(y):
            rows = np.nonzero(y == c)[0]
            acc_pos = BitPlaneAccumulator()
            acc_nnz = None if bipolar else BitPlaneAccumulator()
            for r in rows:
                acc_pos.add(packed.signs[r : r + 1] & packed.mags[r : r + 1])
                if acc_nnz is not None:
                    acc_nnz.add(packed.mags[r : r + 1])
            pos = acc_pos.counts(self.d_hv, dtype=np.int64)[0]
            if acc_nnz is None:
                nnz = np.int64(len(rows))
            else:
                nnz = acc_nnz.counts(self.d_hv, dtype=np.int64)[0]
            self.class_hvs[c] += 2 * pos - nnz
        self._invalidate()

    def _invalidate(self) -> None:
        self._norm_cache = None

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    @property
    def class_norms(self) -> np.ndarray:
        """Cached ℓ2 norms of the class hypervectors (Eq. 4 denominator)."""
        cache = getattr(self, "_norm_cache", None)
        if cache is None:
            cache = norm_rows(self.class_hvs)
            self._norm_cache = cache
        return cache

    def _resolve_backend(self, backend, queries) -> Backend | None:
        """Pick a backend.

        Explicit choice wins.  Packed queries auto-route to the packed
        kernels when the class store is packable too — upgraded to the
        numba-compiled ``native`` backend when its kernels are available
        (answers are bit-identical); against a full-precision store (the
        §III-C host: degraded query, information-rich classes) they fall
        back to dense, which unpacks them — decisions are identical
        either way.
        """
        if backend is not None:
            return get_backend(backend)
        if not isinstance(queries, PackedHV):
            return None  # classic dense expression, zero indirection
        if is_packable(self.class_hvs):
            from repro.backend.native import kernels_available

            return get_backend("native" if kernels_available() else "packed")
        return get_backend("dense")

    def scores(self, queries, *, backend: str | Backend | None = None) -> np.ndarray:
        """Class-normalized dot products, shape ``(n, n_classes)``.

        Equivalent to cosine similarity up to the per-query norm, which is
        constant across classes and therefore dropped (paper, Eq. 4).

        ``backend`` selects the compute path (``"dense"``/``"packed"``);
        when omitted, packed queries use the packed kernels and anything
        else the dense expression.  The packed backend requires the class
        store to be bipolar/ternary (e.g. a quantized serving snapshot).

        The store is prepared on every call so direct mutation of
        ``class_hvs`` — a documented plain array — is always honored.
        For repeated high-throughput queries use
        :class:`repro.serve.InferenceEngine`, which prepares (quantizes,
        packs, precomputes norms) exactly once.
        """
        be = self._resolve_backend(backend, queries)
        if be is None:
            return class_scores(queries, self.class_hvs)
        return be.class_scores(
            be.prepare_queries(queries),
            be.prepare_class_store(self.class_hvs),
        )

    def similarities(self, queries: np.ndarray) -> np.ndarray:
        """Fully normalized cosine similarities (used for Fig. 3)."""
        return cosine_matrix(queries, self.class_hvs)

    def predict(self, queries, *, backend: str | Backend | None = None) -> np.ndarray:
        """Predicted labels, shape ``(n,)``."""
        return np.argmax(self.scores(queries, backend=backend), axis=1)

    def accuracy(
        self,
        queries,
        labels: np.ndarray,
        *,
        backend: str | Backend | None = None,
    ) -> float:
        """Fraction of queries whose argmax class matches ``labels``."""
        y = check_labels(labels, "labels", n_classes=self.n_classes)
        preds = self.predict(queries, backend=backend)
        if preds.shape[0] != y.shape[0]:
            raise ValueError(
                f"{preds.shape[0]} queries but {y.shape[0]} labels"
            )
        if y.size == 0:
            raise ValueError("cannot score an empty batch")
        return float(np.mean(preds == y))

    # ------------------------------------------------------------------
    # privacy-related transforms (return new models)
    # ------------------------------------------------------------------
    def with_noise(self, noise_std: float, *, rng: RngLike = None) -> "HDModel":
        """A copy with i.i.d. Gaussian noise added to every class value.

        This is the Gaussian mechanism of Eq. (8); ``noise_std`` should be
        ``Δf · σ`` as produced by :mod:`repro.core.mechanism`.
        """
        if noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {noise_std}")
        gen = ensure_generator(rng)
        noisy = self.class_hvs + gen.normal(
            0.0, noise_std, size=self.class_hvs.shape
        )
        return HDModel(self.n_classes, self.d_hv, noisy)

    def masked(self, keep_mask: np.ndarray) -> "HDModel":
        """A copy with pruned dimensions zeroed (keep_mask True = keep)."""
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.shape != (self.d_hv,):
            raise ValueError(
                f"keep_mask must have shape ({self.d_hv},), got {keep.shape}"
            )
        return HDModel(self.n_classes, self.d_hv, self.class_hvs * keep)

    def truncated(self, d_hv: int) -> "HDModel":
        """A copy restricted to the first ``d_hv`` dimensions."""
        check_positive_int(d_hv, "d_hv")
        if d_hv > self.d_hv:
            raise ValueError(f"cannot truncate {self.d_hv} dims to {d_hv}")
        return HDModel(self.n_classes, d_hv, self.class_hvs[:, :d_hv])

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HDModel(n_classes={self.n_classes}, d_hv={self.d_hv})"
