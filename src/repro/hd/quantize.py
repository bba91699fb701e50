"""Encoding quantizers — Eq. (13)–(14) of the paper.

Prive-HD quantizes only the *encoding* hypervectors (the class
hypervectors stay full precision), because the ℓ2 sensitivity of training
is exactly the ℓ2 norm of a single encoding.  Replacing the
approximately-Gaussian encoding values with a handful of small integers
makes that norm both small and *data-independent*:

    Δf = ‖H‖₂ = ( Σ_{k ∈ levels} p_k · Dhv · k² )^{1/2}        (Eq. 14)

where ``p_k`` is the fraction of dimensions quantized to level ``k``.

Because encoded dimensions are i.i.d., a per-row quantile rule realizes
any target level distribution exactly, independent of the input scale:

* ``bipolar``          → {−1, +1},          p = (1/2, 1/2)
* ``ternary``          → {−1, 0, +1},       p = (1/3, 1/3, 1/3)
* ``ternary-biased``   → {−1, 0, +1},       p = (1/4, 1/2, 1/4) — the
  paper's biased scheme, shrinking sensitivity by √(3/4) ≈ 0.87×
* ``2bit``             → {−2, −1, 0, +1},   p = (1/4, 1/4, 1/4, 1/4)
* ``identity``         → passthrough (full precision)
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod

import numpy as np

from repro.backend.packed import PackedHV, pack_hypervectors
from repro.utils.validation import check_2d, check_positive_int

__all__ = [
    "EncodingQuantizer",
    "IdentityQuantizer",
    "BipolarQuantizer",
    "TernaryQuantizer",
    "BiasedTernaryQuantizer",
    "TwoBitQuantizer",
    "MaskedQuantizer",
    "get_quantizer",
    "QUANTIZER_NAMES",
    "empirical_level_probabilities",
]


class EncodingQuantizer(ABC):
    """Maps real-valued encodings to a small discrete level set."""

    #: short registry name, e.g. ``"ternary-biased"``
    name: str = "abstract"

    @property
    @abstractmethod
    def levels(self) -> np.ndarray:
        """The sorted quantization level values (empty for identity)."""

    @property
    @abstractmethod
    def design_probabilities(self) -> np.ndarray:
        """Intended probability of each level (empty for identity)."""

    @abstractmethod
    def __call__(self, encodings: np.ndarray) -> np.ndarray:
        """Quantize ``(n, d_hv)`` (or ``(d_hv,)``) encodings."""

    @functools.cached_property
    def packable(self) -> bool:
        """True when this quantizer's levels fit the bit-packed planes.

        Packable levels are exactly {−1, 0, +1}: bipolar and both ternary
        schemes pack; identity (continuous) and 2-bit (level −2) do not.
        A quantizer's levels never change, so this is computed once.
        """
        levels = self.levels
        return bool(levels.size) and bool(np.isin(levels, (-1, 0, 1)).all())

    def pack(self, encodings: np.ndarray) -> PackedHV:
        """Quantize and bit-pack in one step (packable quantizers only).

        The returned :class:`~repro.backend.PackedHV` feeds the packed
        similarity kernels directly — 64 dimensions per uint64 word, 16×
        smaller than a float32 encoding matrix.
        """
        if not self.packable:
            raise ValueError(
                f"quantizer {self.name!r} has levels "
                f"{self.levels.tolist() or '(continuous)'} outside "
                "{-1, 0, +1} and cannot be bit-packed"
            )
        # Our own output is levels-exact by construction; skip the
        # packer's validation pass.
        return pack_hypervectors(self(encodings), validate=False)

    def expected_l2_sensitivity(self, d_hv: int, d_in: int | None = None) -> float:
        """Analytic ℓ2 sensitivity of a quantized encoding, Eq. (14).

        ``d_in`` is accepted (and ignored) so that the identity quantizer
        — whose sensitivity is the full-precision Eq. (12) value
        √(Dhv·Div) — exposes the same signature.
        """
        check_positive_int(d_hv, "d_hv")
        p = self.design_probabilities
        k = self.levels.astype(np.float64)
        return float(np.sqrt(np.sum(p * d_hv * k**2)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class IdentityQuantizer(EncodingQuantizer):
    """Full-precision passthrough; sensitivity follows Eq. (12)."""

    name = "identity"

    @property
    def levels(self) -> np.ndarray:
        """Empty: a passthrough has no discrete levels."""
        return np.array([])

    @property
    def design_probabilities(self) -> np.ndarray:
        """Empty: no levels, no design distribution."""
        return np.array([])

    def __call__(self, encodings: np.ndarray) -> np.ndarray:
        return np.asarray(encodings, dtype=np.float32)

    def expected_l2_sensitivity(self, d_hv: int, d_in: int | None = None) -> float:
        check_positive_int(d_hv, "d_hv")
        if d_in is None:
            raise ValueError(
                "identity (full-precision) sensitivity needs d_in: "
                "Δf = sqrt(d_hv * d_in) per Eq. (12)"
            )
        check_positive_int(d_in, "d_in")
        return float(np.sqrt(d_hv * d_in))


class _QuantileQuantizer(EncodingQuantizer):
    """Shared machinery: cut each row at fixed quantiles.

    Sub-classes define the level values and the cumulative cut
    probabilities; dimension ``d`` of a row gets level ``j`` when its
    value falls between the row's ``cut_probs[j-1]`` and ``cut_probs[j]``
    quantiles.  Per-row cuts make the quantizer scale-free, matching the
    paper's i.i.d.-dimensions argument for Eq. (14).
    """

    _levels: tuple[float, ...] = ()
    _cut_probs: tuple[float, ...] = ()
    _design_probs: tuple[float, ...] = ()

    @property
    def levels(self) -> np.ndarray:
        return np.asarray(self._levels, dtype=np.float64)

    @property
    def design_probabilities(self) -> np.ndarray:
        return np.asarray(self._design_probs, dtype=np.float64)

    def __call__(self, encodings: np.ndarray) -> np.ndarray:
        H = np.asarray(encodings, dtype=np.float64)
        squeeze = H.ndim == 1
        H = check_2d(H, "encodings")
        cuts = np.quantile(H, self._cut_probs, axis=1)  # (n_cuts, n)
        idx = np.zeros(H.shape, dtype=np.int64)
        for c in cuts:
            idx += H > c[:, None]
        out = self.levels[idx].astype(np.float32)
        return out[0] if squeeze else out


class BipolarQuantizer(_QuantileQuantizer):
    """1-bit sign quantization, Eq. (13): ``H → sign(H)``."""

    name = "bipolar"
    _levels = (-1.0, 1.0)
    _cut_probs = (0.5,)
    _design_probs = (0.5, 0.5)

    def __call__(self, encodings: np.ndarray) -> np.ndarray:
        # The paper's Eq. (13) is literally sign(); use it directly (with
        # the deterministic 0 → +1 tie-break) rather than a median cut so
        # that single-dimension edge cases behave like hardware.
        # Compare in the input's own dtype: widening to float64 first
        # keeps every sign (and NaN) as it is, so it only costs a copy.
        H = np.asarray(encodings)
        if H.dtype.kind not in "biuf":
            H = H.astype(np.float64)
        return np.where(H >= 0, np.float32(1.0), np.float32(-1.0))


class TernaryQuantizer(_QuantileQuantizer):
    """Uniform ternary quantization to {−1, 0, +1}, p = 1/3 each."""

    name = "ternary"
    _levels = (-1.0, 0.0, 1.0)
    _cut_probs = (1.0 / 3.0, 2.0 / 3.0)
    _design_probs = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


class BiasedTernaryQuantizer(_QuantileQuantizer):
    """The paper's biased ternary: p0 = 1/2, p±1 = 1/4.

    Weighting the zero level halves the number of non-zero dimensions,
    shrinking Eq. (14) by √(3/4) ≈ 0.87× relative to uniform ternary —
    the exact factor quoted in Section III-B.2.
    """

    name = "ternary-biased"
    _levels = (-1.0, 0.0, 1.0)
    _cut_probs = (0.25, 0.75)
    _design_probs = (0.25, 0.5, 0.25)


class TwoBitQuantizer(_QuantileQuantizer):
    """2-bit quantization to {−2, −1, 0, +1}, p = 1/4 each (Fig. 5)."""

    name = "2bit"
    _levels = (-2.0, -1.0, 0.0, 1.0)
    _cut_probs = (0.25, 0.5, 0.75)
    _design_probs = (0.25, 0.25, 0.25, 0.25)


class MaskedQuantizer(EncodingQuantizer):
    """A quantizer restricted to the live dimensions of a pruned model.

    The §III-B query pipeline quantizes only the dimensions that survived
    pruning — quantile cuts run over the kept dimensions, so the realized
    level proportions (and the Eq. 14 sensitivity) hold exactly at the
    live dimension count — and leaves the pruned dimensions at zero.
    Wrapping that rule as an :class:`EncodingQuantizer` lets every fused
    consumer (:meth:`~repro.hd.encode_pipeline.EncodePipeline.
    stream_quantized`, :class:`~repro.serve.InferenceEngine`) stream
    pruned-model queries without special-casing the mask.

    Masked output adds zeros to the inner level set, so a masked bipolar/
    ternary quantizer stays packable (zeros are exactly the packed 0
    level).
    """

    def __init__(self, inner: EncodingQuantizer | str, keep_mask: np.ndarray):
        self.inner = get_quantizer(inner)
        keep = np.asarray(keep_mask, dtype=bool)
        if keep.ndim != 1:
            raise ValueError(
                f"keep_mask must be 1-D, got shape {keep.shape}"
            )
        self.keep_mask = keep
        self.name = f"masked({self.inner.name})"

    @property
    def levels(self) -> np.ndarray:
        """The inner quantizer's levels plus 0 (masked dimensions)."""
        inner = self.inner.levels
        if inner.size == 0:
            return inner
        return np.unique(np.append(inner, 0.0))

    @property
    def design_probabilities(self) -> np.ndarray:
        """The inner quantizer's design distribution (see the note)."""
        # Dimension-marginal probabilities are a mask-weighted mixture;
        # sensitivity accounting uses the inner quantizer at the live
        # count instead (expected_l2_sensitivity below).
        return self.inner.design_probabilities

    @property
    def packable(self) -> bool:
        """Packable exactly when the inner quantizer is."""
        # Identity passes values through unchanged outside the mask, so
        # it is packable only if the inner quantizer is.
        return self.inner.packable

    def __call__(self, encodings: np.ndarray) -> np.ndarray:
        H = np.asarray(encodings, dtype=np.float64)
        squeeze = H.ndim == 1
        H = check_2d(H, "encodings")
        if H.shape[1] != self.keep_mask.shape[0]:
            raise ValueError(
                f"encodings have {H.shape[1]} dims but keep_mask covers "
                f"{self.keep_mask.shape[0]}"
            )
        out = np.zeros(H.shape, dtype=np.float32)
        out[:, self.keep_mask] = self.inner(H[:, self.keep_mask])
        return out[0] if squeeze else out

    def expected_l2_sensitivity(self, d_hv: int, d_in: int | None = None) -> float:
        """Eq. (14) at the *live* dimension count (``d_hv`` ignored)."""
        return self.inner.expected_l2_sensitivity(
            int(self.keep_mask.sum()), d_in
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaskedQuantizer({self.inner.name!r}, "
            f"live={int(self.keep_mask.sum())}/{self.keep_mask.shape[0]})"
        )


_REGISTRY = {
    "identity": IdentityQuantizer,
    "none": IdentityQuantizer,
    "full": IdentityQuantizer,
    "bipolar": BipolarQuantizer,
    "binary": BipolarQuantizer,
    "ternary": TernaryQuantizer,
    "ternary-biased": BiasedTernaryQuantizer,
    "biased": BiasedTernaryQuantizer,
    "2bit": TwoBitQuantizer,
}

#: canonical names accepted by :func:`get_quantizer`
QUANTIZER_NAMES = ("identity", "bipolar", "ternary", "ternary-biased", "2bit")


def get_quantizer(name: str | EncodingQuantizer | None) -> EncodingQuantizer:
    """Resolve a quantizer by registry name (idempotent for instances).

    >>> get_quantizer("ternary-biased").name
    'ternary-biased'
    """
    if name is None:
        return IdentityQuantizer()
    if isinstance(name, EncodingQuantizer):
        return name
    key = str(name).lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown quantizer {name!r}; choose from {sorted(set(_REGISTRY))}"
        )
    return _REGISTRY[key]()


def empirical_level_probabilities(
    quantized: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """Measured fraction of each level in a quantized encoding batch.

    Used to cross-check Eq. (14)'s design probabilities against what the
    quantizer actually produced (they match to sampling error).
    """
    q = np.asarray(quantized, dtype=np.float64).ravel()
    levels = np.asarray(levels, dtype=np.float64)
    if q.size == 0:
        raise ValueError("quantized array is empty")
    counts = np.array([(q == lv).sum() for lv in levels], dtype=np.float64)
    return counts / q.size
