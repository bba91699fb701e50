"""Item memories: the fixed random codebooks of an HD system.

An HD encoder owns two codebooks (Eq. 1–2 of the paper):

* a **base memory** — one random bipolar *base/location* hypervector
  ``B_k`` per input feature, mutually quasi-orthogonal, which preserves
  the spatial/temporal position of each feature; and
* a **level memory** — one hypervector ``L_j`` per quantized feature
  *value*, built as a flip chain so that nearby values stay similar and
  the extreme values are orthogonal.

Both are deterministic functions of a seed, which is what makes the
encoding reproducible between the trainer, the cloud host, the attacker
(Section III-A assumes the base hypervectors are known), and the hardware
simulator.
"""

from __future__ import annotations

import numpy as np

from repro.hd.hypervector import flip_chain, random_bipolar
from repro.utils.rng import RngLike, ensure_generator
from repro.utils.validation import check_2d, check_finite, check_positive_int

__all__ = ["BaseMemory", "LevelMemory"]


class BaseMemory:
    """The ``Div`` random base/location hypervectors of an encoder.

    Parameters
    ----------
    d_in:
        Number of input features (``Div``).
    d_hv:
        Hypervector dimensionality (``Dhv``).
    rng:
        Seed or generator fixing the codebook.

    Attributes
    ----------
    vectors:
        ``(d_in, d_hv)`` int8 bipolar array; row ``k`` is ``B_k``.
    """

    def __init__(self, d_in: int, d_hv: int, *, rng: RngLike = None):
        self.d_in = check_positive_int(d_in, "d_in")
        self.d_hv = check_positive_int(d_hv, "d_hv")
        gen = ensure_generator(rng)
        self.vectors = random_bipolar(d_hv, n=d_in, rng=gen)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.vectors[k]

    def __len__(self) -> int:
        return self.d_in

    def __getstate__(self):
        # Pickle the int8 codebook, not the float32 cache (it rebuilds on
        # first use).
        state = self.__dict__.copy()
        state.pop("_float_cache", None)
        return state

    def as_float(self) -> np.ndarray:
        """The codebook as float32 (cached), for the scalar-base GEMM."""
        cached = getattr(self, "_float_cache", None)
        if cached is None:
            cached = self.vectors.astype(np.float32)
            self._float_cache = cached
        return cached

    def truncated(self, d_hv: int) -> "BaseMemory":
        """A view-like copy restricted to the first ``d_hv`` dimensions.

        Dimension sweeps (Fig. 5, Fig. 8) re-use one 10k-dimension codebook
        and slice it, so that results across ``Dhv`` differ only in the
        retained dimensions, mirroring how the paper prunes one model.
        """
        check_positive_int(d_hv, "d_hv")
        if d_hv > self.d_hv:
            raise ValueError(f"cannot truncate {self.d_hv} dims to {d_hv}")
        out = object.__new__(BaseMemory)
        out.d_in = self.d_in
        out.d_hv = d_hv
        out.vectors = self.vectors[:, :d_hv]
        return out


class LevelMemory:
    """Flip-chain level hypervectors plus the feature-value quantizer.

    Feature values are assumed to lie in ``[lo, hi]``; :meth:`indices`
    maps them to the nearest of ``n_levels`` uniformly spaced levels
    (the set ``F`` of Eq. 1), and :attr:`vectors` holds ``L_j`` per level.

    Parameters
    ----------
    n_levels:
        Number of feature levels ``ℓiv``.
    d_hv:
        Hypervector dimensionality.
    lo, hi:
        Inclusive feature range; values outside are clipped (the datasets
        in this reproduction are normalized to [0, 1]).
    rng:
        Seed or generator fixing the codebook.
    """

    def __init__(
        self,
        n_levels: int,
        d_hv: int,
        *,
        lo: float = 0.0,
        hi: float = 1.0,
        rng: RngLike = None,
    ):
        self.n_levels = check_positive_int(n_levels, "n_levels")
        self.d_hv = check_positive_int(d_hv, "d_hv")
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        gen = ensure_generator(rng)
        self.vectors = flip_chain(n_levels, d_hv, rng=gen)

    def __len__(self) -> int:
        return self.n_levels

    @property
    def index_dtype(self) -> np.dtype:
        """The smallest unsigned integer dtype that holds every level."""
        return np.min_scalar_type(self.n_levels - 1)

    def indices(self, features: np.ndarray) -> np.ndarray:
        """Quantize feature values to level indices in ``[0, n_levels)``.

        Clip to ``[lo, hi]``, subtract ``lo``, divide by ``hi − lo``,
        multiply by ``n_levels − 1`` and round half to even, in float64
        and in that order (reordered, the formula can move a value on a
        rounding boundary to the next level).  Returns
        :attr:`index_dtype`.  Raises ``ValueError`` naming the column of
        any NaN/±inf feature, which has no level.
        """
        x = check_finite(np.asarray(features, dtype=np.float64), "features")
        scaled = np.maximum(x, self.lo)
        np.minimum(scaled, self.hi, out=scaled)
        scaled -= self.lo
        scaled /= self.hi - self.lo
        scaled *= self.n_levels - 1
        return np.rint(scaled, out=scaled).astype(self.index_dtype)

    def values(self, indices: np.ndarray) -> np.ndarray:
        """Map level indices back to representative feature values ``f_j``.

        This is the codomain the reconstruction attack recovers: decoding
        returns the quantized representative, not the raw feature
        (Section III-A: "we are retrieving the features, that might or
        might not be the exact raw elements").
        """
        idx = np.asarray(indices, dtype=np.float64)
        if self.n_levels == 1:
            return np.full_like(idx, (self.lo + self.hi) / 2.0)
        return self.lo + idx / (self.n_levels - 1) * (self.hi - self.lo)

    def lookup(self, features: np.ndarray) -> np.ndarray:
        """Level hypervectors for a batch of features.

        Parameters
        ----------
        features:
            ``(n, d_in)`` feature matrix.

        Returns
        -------
        numpy.ndarray
            ``(n, d_in, d_hv)`` int8 array — use sparingly, this is big.
        """
        feats = check_2d(features, "features")
        return self.vectors[self.indices(feats)]

    def truncated(self, d_hv: int) -> "LevelMemory":
        """Copy restricted to the first ``d_hv`` dimensions (cf. BaseMemory)."""
        check_positive_int(d_hv, "d_hv")
        if d_hv > self.d_hv:
            raise ValueError(f"cannot truncate {self.d_hv} dims to {d_hv}")
        out = object.__new__(LevelMemory)
        out.n_levels = self.n_levels
        out.d_hv = d_hv
        out.lo = self.lo
        out.hi = self.hi
        out.vectors = self.vectors[:, :d_hv]
        return out
