"""HD encoders — Eq. (2a) and (2b) of the paper.

Both encoders map an input feature vector ``V ∈ R^{Div}`` to an encoded
hypervector ``H ∈ R^{Dhv}``:

* :class:`ScalarBaseEncoder` (Eq. 2a): ``H = Σ_k v_k · B_k`` — the scalar
  feature value (optionally snapped to one of ``ℓiv`` levels) directly
  scales its base hypervector.  This is the encoding the paper analyzes
  for reversibility (Eq. 9–10) and differential privacy (Eq. 11–12).
* :class:`LevelBaseEncoder` (Eq. 2b): ``H = Σ_k L_{v_k} ⊙ B_k`` — the
  feature value selects a *level hypervector* which is bound (XNOR) with
  the base hypervector.  Every addend is bipolar, which is what the
  FPGA datapath of Section III-D exploits; the paper adopts this encoding
  for the hardware implementation.

Both are deterministic functions of ``(d_in, d_hv, seed)`` so that the
trainer, the attacker, and the hardware simulator all reconstruct the
identical codebooks.

Dtype policy
------------
``encode`` returns float32 for both encoders.  Scalar-base features
are clipped/quantized in float32 and projected through the base
codebook cached as float32 (``as_float``).  Level-base encodings are
sums of ±1 addends, i.e. exact integer counts, so
:meth:`LevelBaseEncoder.encode` never touches a float codebook: it runs
the bit-plane counters (:meth:`LevelBaseEncoder.encode_packed`) and
converts the counts, which are far below 2²⁴, exactly to float32.
Training and similarity accumulate in float64 (see
:class:`~repro.hd.model.HDModel`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from repro.hd.item_memory import BaseMemory, LevelMemory
from repro.utils.rng import spawn
from repro.utils.validation import check_2d, check_finite, check_positive_int

__all__ = [
    "Encoder",
    "ScalarBaseEncoder",
    "LevelBaseEncoder",
    "encoder_from_config",
    "ENCODER_KINDS",
]


class Encoder(ABC):
    """Common interface of the two paper encoders.

    Attributes
    ----------
    d_in:
        Input feature count ``Div``.
    d_hv:
        Hypervector dimensionality ``Dhv``.
    seed:
        Root seed of the codebooks.
    kind:
        ``"scalar-base"`` or ``"level-base"``; the reconstruction attack
        dispatches its decoding rule on this.
    """

    kind: str = "abstract"

    def __init__(self, d_in: int, d_hv: int, seed: int = 0):
        self.d_in = check_positive_int(d_in, "d_in")
        self.d_hv = check_positive_int(d_hv, "d_hv")
        self.seed = int(seed)
        self.base = BaseMemory(d_in, d_hv, rng=spawn(seed, "base-hv"))

    @abstractmethod
    def encode(self, X: np.ndarray) -> np.ndarray:
        """Encode ``(n, d_in)`` features into ``(n, d_hv)`` hypervectors."""

    def encode_one(self, x: np.ndarray) -> np.ndarray:
        """Encode a single ``(d_in,)`` input to a ``(d_hv,)`` hypervector."""
        return self.encode(np.asarray(x)[None, :])[0]

    @abstractmethod
    def truncated(self, d_hv: int) -> "Encoder":
        """The same encoder restricted to the first ``d_hv`` dimensions."""

    def config(self) -> dict:
        """A JSON-safe description that rebuilds this encoder exactly.

        Codebooks are deterministic in ``(kind, d_in, d_hv, seed, …)``, so
        the config *is* the codebook — the on-disk model artifact stores
        this dict instead of megabytes of ±1 vectors.  Truncated encoders
        record their parent dimensionality (``parent_d_hv``) because a
        ``d_hv``-dimensional codebook drawn fresh differs from the first
        ``d_hv`` columns of the parent's.
        """
        cfg = {
            "kind": self.kind,
            "d_in": self.d_in,
            "d_hv": self.d_hv,
            "seed": self.seed,
            "n_levels": self.n_levels,
            "lo": self.lo,
            "hi": self.hi,
        }
        parent = getattr(self, "_parent_d_hv", self.d_hv)
        if parent != self.d_hv:
            cfg["parent_d_hv"] = parent
        return cfg


class ScalarBaseEncoder(Encoder):
    """Scalar × base encoding, Eq. (2a).

    Parameters
    ----------
    d_in, d_hv:
        Feature count and hypervector dimensionality.
    n_levels:
        If given, feature values are first snapped to ``n_levels`` uniform
        levels in ``[lo, hi]`` (the finite feature set ``F`` of Eq. 1);
        if ``None``, raw feature values are used directly.
    lo, hi:
        Feature range used both for level snapping and by the decoder to
        clip reconstructions.
    seed:
        Codebook seed.
    """

    kind = "scalar-base"

    def __init__(
        self,
        d_in: int,
        d_hv: int,
        *,
        n_levels: int | None = None,
        lo: float = 0.0,
        hi: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(d_in, d_hv, seed)
        if n_levels is not None:
            check_positive_int(n_levels, "n_levels")
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        self.n_levels = n_levels
        self.lo = float(lo)
        self.hi = float(hi)

    def quantize_features(self, X: np.ndarray) -> np.ndarray:
        """Snap features to the level grid (identity when ``n_levels=None``).

        Returns float32 (the module's dtype policy) so ``encode`` feeds
        the cached float32 codebook without a second cast.  Raises
        ``ValueError`` naming the column of any NaN/±inf feature.
        """
        X = check_finite(check_2d(X, "X", n_cols=self.d_in), "X")
        X = X.astype(np.float32)
        np.clip(X, self.lo, self.hi, out=X)
        if self.n_levels is None or self.n_levels == 1:
            return X
        step = (self.hi - self.lo) / (self.n_levels - 1)
        return np.float32(self.lo) + np.rint(
            (X - np.float32(self.lo)) / np.float32(step)
        ) * np.float32(step)

    def _quantized_features(self, X: np.ndarray, native: bool | None) -> np.ndarray:
        """Level-snapped features via the NumPy or compiled path.

        ``native=None`` auto-selects the compiled kernel when available;
        ``True`` insists (raising without numba); ``False`` forces the
        NumPy reference.  Both paths are elementwise float32 and produce
        bit-identical values.
        """
        from repro.backend import native as native_kernels

        if native is None:
            native = native_kernels.kernels_available()
        if not native:
            return self.quantize_features(X)
        X = check_finite(check_2d(X, "X", n_cols=self.d_in), "X")
        snap = self.n_levels is not None and self.n_levels != 1
        step = (
            (self.hi - self.lo) / (self.n_levels - 1) if snap else None
        )
        return native_kernels.native_quantize_features(
            X, self.lo, self.hi, step
        )

    def encode(self, X: np.ndarray) -> np.ndarray:
        return self.quantize_features(X) @ self.base.as_float()

    def encode_into(
        self,
        X: np.ndarray,
        out: np.ndarray,
        *,
        col_block: int | None = None,
        native: bool | None = None,
    ) -> np.ndarray:
        """Blocked quantize-into-matmul: encode ``X`` directly into ``out``.

        Fuses the per-tile feature quantization into the projection and
        writes the BLAS product straight into the caller's buffer — no
        per-tile ``(rows, d_hv)`` temporary, no copy-out pass.  This is
        what lets the chunked streaming pipeline match (not trail) the
        single-shot ``encode`` throughput: the single-shot path allocates
        and fills the full matrix once, and so does a sequence of
        ``encode_into`` tiles.

        ``col_block`` additionally tiles the projection over codebook
        column panels (``base[:, j:j+col_block]``), keeping the output
        panel cache-resident for very large ``d_hv``; ``None`` (default)
        issues one GEMM per call, which is optimal for the usual tile
        shapes.  Blocking over columns never changes the per-element
        accumulation order, so results are identical to :meth:`encode`'s
        matmul up to BLAS kernel-shape rounding.

        ``native`` selects the compiled quantize kernel feeding the GEMM
        (``None`` auto-detects numba, ``False`` forces NumPy, ``True``
        insists); the two quantize paths are bit-identical.
        """
        Xq = self._quantized_features(X, native)
        if out.shape != (Xq.shape[0], self.d_hv):
            raise ValueError(
                f"out must have shape {(Xq.shape[0], self.d_hv)}, "
                f"got {out.shape}"
            )
        if out.dtype != np.float32:
            raise ValueError(f"out must be float32, got {out.dtype}")
        base = self.base.as_float()
        if col_block is None or col_block >= self.d_hv:
            # matmul's out= path is measurably faster than np.dot's here
            # (no output-buffer staging) and writes the product straight
            # into the caller's rows.
            np.matmul(Xq, base, out=out)
            return out
        check_positive_int(col_block, "col_block")
        for j in range(0, self.d_hv, col_block):
            sl = slice(j, min(j + col_block, self.d_hv))
            np.matmul(Xq, base[:, sl], out=out[:, sl])
        return out

    def truncated(self, d_hv: int) -> "ScalarBaseEncoder":
        out = object.__new__(ScalarBaseEncoder)
        out.d_in = self.d_in
        out.d_hv = check_positive_int(d_hv, "d_hv")
        out.seed = self.seed
        out.base = self.base.truncated(d_hv)
        out.n_levels = self.n_levels
        out.lo = self.lo
        out.hi = self.hi
        out._parent_d_hv = getattr(self, "_parent_d_hv", self.d_hv)
        return out


#: rows per block of the NumPy bit-plane encode kernel
_ROW_BLOCK = 128
#: bytes of addend planes one carry-save tree reduces at a time (≈ L2)
_TILE_BYTES = 1 << 20
#: smallest feature group worth a tree; below it the per-feature loop wins
_MIN_GROUP = 8


def _feature_group(d_in: int, rows: int, words: int) -> int:
    """Addend planes per carry-save tree for a ``(rows, words)`` block.

    The largest power of two ``G`` whose ``(G, rows, words)`` uint64
    tile fits :data:`_TILE_BYTES`, capped at the next power of two
    ``>= d_in``; ``1`` (one plane per feature) when that is below
    :data:`_MIN_GROUP`.
    """
    fit = _TILE_BYTES // (max(rows, 1) * words * 8)
    g = min(fit, 1 << (d_in - 1).bit_length())
    return 1 << (g.bit_length() - 1) if g >= _MIN_GROUP else 1


def _tree_counts(tile: np.ndarray) -> list[np.ndarray]:
    """Column counts of a ``(G, rows, words)`` plane stack, ``G`` a power of 2.

    A vectorised adder tree over the first axis: each level adds the
    contiguous first half of the partial counts to the second half with
    ripple-carry full adders on whole bit-plane arrays, so ``G`` planes
    cost ``O(G)`` word operations in ``log2 G`` NumPy passes.  Returns
    the ``log2(G) + 1`` binary planes of the count, LSB first; the
    input tile is overwritten.
    """
    bits = [tile]
    m = tile.shape[0]
    while m > 1:
        h = m // 2
        carry = None
        for b in bits:
            x, y = b[:h], b[h:m]
            if carry is None:
                carry = x & y
                x ^= y
            else:  # full adder; the spent upper half y is scratch
                t = x & y
                x ^= y
                np.bitwise_and(x, carry, out=y)
                t |= y
                x ^= carry
                carry = t
        bits.append(carry)
        bits = [b[:h] for b in bits]
        m = h
    return [b[0] for b in bits]


class _ColumnPlan(NamedTuple):
    """The level-base counters' operands, compacted to the columns that differ.

    The level flip chain flips ``span · d_hv`` columns across the whole
    chain (half of them at the default span) and leaves the rest alone.
    On an untouched column ``j``, ``L_l[j] = L_0[j]`` for every level,
    so Eq. (2b) gives ``Σ_k L_0[j]·B_k[j]`` for every input.  The counters
    run only on the other, *varying* columns of a selection; the
    invariant ones take :attr:`fixed`.

    Attributes
    ----------
    cols:
        ``(n_vary,)`` int64 — the selection's varying dimensions, ascending.
    lvl:
        ``(n_levels, n_words(n_vary))`` uint64 level sign planes on ``cols``.
    inv_base:
        ``(d_in, n_words(n_vary))`` uint64 *inverted* base sign planes on
        ``cols`` (XNOR folded into the codebook).
    fixed:
        ``(d_hv,)`` float32 — every column's encoding at level 0, which
        is every input's encoding on the invariant columns.
    fixed_signs:
        ``(n_words(d_hv),)`` uint64 — the bipolar sign bits of the
        selection's invariant columns.
    support:
        ``(n_words(d_hv),)`` uint64 — the selection itself.
    """

    cols: np.ndarray
    lvl: np.ndarray
    inv_base: np.ndarray
    fixed: np.ndarray
    fixed_signs: np.ndarray
    support: np.ndarray


class LevelBaseEncoder(Encoder):
    """Level ⊙ base encoding, Eq. (2b).

    Parameters
    ----------
    d_in, d_hv:
        Feature count and hypervector dimensionality.
    n_levels:
        Number of level hypervectors (``ℓiv``, "L" in Fig. 4's legend).
    lo, hi:
        Feature range for level quantization.
    seed:
        Codebook seed; base and level memories use independent sub-streams.
    """

    kind = "level-base"

    def __init__(
        self,
        d_in: int,
        d_hv: int,
        *,
        n_levels: int = 32,
        lo: float = 0.0,
        hi: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(d_in, d_hv, seed)
        self.n_levels = check_positive_int(n_levels, "n_levels")
        self.levels = LevelMemory(
            n_levels, d_hv, lo=lo, hi=hi, rng=spawn(seed, "level-hv")
        )
        self.lo = float(lo)
        self.hi = float(hi)

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Eq. (2b) as float32: the bit-plane counters of :meth:`encode_packed`."""
        return self.encode_packed(X)

    def _level_indices(self, X: np.ndarray) -> np.ndarray:
        return self.levels.indices(check_2d(X, "X", n_cols=self.d_in))

    def _column_plan(self, keep: np.ndarray | None = None) -> _ColumnPlan:
        """The counters' operands on the columns of ``keep`` that can differ.

        ``keep`` selects dimensions (default: all, cached on the encoder;
        other selections are the caller's to cache).  Derived from the
        codebooks, never pickled: see :class:`_ColumnPlan`.
        """
        if keep is None:
            plan = getattr(self, "_plan", None)
            if plan is None:
                plan = self._plan = self._column_plan(
                    np.ones(self.d_hv, dtype=bool)
                )
            return plan
        from repro.backend.packed import pack_sign_planes

        sel = np.asarray(keep, dtype=bool)
        L, B = self.levels.vectors, self.base.vectors
        varies = (L != L[0]).any(axis=0)
        cols = np.flatnonzero(sel & varies)
        fixed = (
            2 * (B == L[0]).sum(axis=0, dtype=np.int64) - self.d_in
        ).astype(np.float32)
        return _ColumnPlan(
            cols=cols,
            lvl=pack_sign_planes(L[:, cols]),
            # XNOR(a, b) == a ^ ~b: fold the inversion into the base planes.
            inv_base=~pack_sign_planes(B[:, cols]),
            fixed=fixed,
            fixed_signs=pack_sign_planes(sel & ~varies & (fixed >= 0))[0],
            support=pack_sign_planes(sel)[0],
        )

    @staticmethod
    def _use_native(native: bool | None) -> bool:
        from repro.backend import native as native_kernels

        if native is None:
            return native_kernels.kernels_available()
        if native and not native_kernels.kernels_available():
            raise ValueError(
                "native=True needs numba, which is not installed; "
                "use native=None for automatic selection"
            )
        return bool(native)

    def _count_addends(self, idx, plan: _ColumnPlan, finish) -> np.ndarray:
        """The NumPy bit-plane counters, cache-tiled; ``finish(acc)`` per block.

        Counts the addends on the plan's compacted columns only.  Rows
        run in blocks of at most :data:`_ROW_BLOCK`, each with its
        own :class:`~repro.backend.packed.BitPlaneAccumulator`.  Within a
        block the ``d_in`` addend planes ``L_{q_k} ⊙ B_k`` are formed
        :func:`_feature_group` at a time into one ~1 MiB tile (the last
        group zero-padded to the next power of two), reduced by
        :func:`_tree_counts`, and the tree's weight-``2^p`` output planes
        are pushed into the accumulator.  Bounding the tile keeps the
        working set in cache whatever the batch size; with ``G = 1``
        each tile is one addend plane, added at weight 0.  ``finish``
        turns each block's accumulator into rows of the result (counts
        or sign planes), which are concatenated in row order.
        """
        from repro.backend.packed import BitPlaneAccumulator

        lvl_planes, inv_base = plan.lvl, plan.inv_base
        n, words = idx.shape[0], inv_base.shape[1]
        parts = []
        for r0 in range(0, max(n, 1), _ROW_BLOCK):
            block = idx[r0 : r0 + _ROW_BLOCK]
            rows = block.shape[0]
            acc = BitPlaneAccumulator()
            g = _feature_group(self.d_in, rows, words)
            for k0 in range(0, self.d_in, g):
                m = min(g, self.d_in - k0)
                tile = np.empty(
                    (1 << (m - 1).bit_length(), rows, words), dtype=np.uint64
                )
                # indices are in range; "clip" lets take write into out unbuffered
                np.take(lvl_planes, block[:, k0 : k0 + m].T, axis=0,
                        out=tile[:m], mode="clip")
                tile[:m] ^= inv_base[k0 : k0 + m, None, :]
                tile[m:] = 0
                for p, plane in enumerate(_tree_counts(tile)):
                    acc.add(plane, weight=p)
            parts.append(finish(acc))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def encode_packed(
        self, X: np.ndarray, *, native: bool | None = None
    ) -> np.ndarray:
        """Eq. (2b) on uint64 bit planes: the kernel behind :meth:`encode`.

        Every addend ``L_{q_k} ⊙ B_k`` is bipolar, so its sign plane is
        one XOR away from the cached codebook planes (XNOR of the level
        and base sign bits), and the encoding reduces to an exact
        per-dimension count of positive addends::

            H[n, j] = 2 · #{k : addend_{k,j} = +1} − d_in

        Only the columns some level flips are counted (see
        :class:`_ColumnPlan`); every other column takes its fixed
        value.  The count runs through carry-save adder trees over
        cache-sized feature groups feeding a
        :class:`~repro.backend.packed.BitPlaneAccumulator` — the software
        mirror of the §III-D adder tree (see :meth:`_count_addends`) —
        touching one word per 64 varying columns per feature whatever
        ``ℓiv`` is.

        ``native`` routes the counters through the numba-compiled kernel
        (:func:`~repro.backend.native.native_level_encode`): ``None``
        auto-detects numba, ``False`` forces the NumPy accumulator,
        ``True`` insists on the compiled path.  Both are integer-exact
        and bit-identical.
        """
        idx = self._level_indices(X)
        use_native = self._use_native(native)
        plan = self._column_plan()
        out = np.repeat(plan.fixed[None, :], idx.shape[0], axis=0)
        nv = plan.cols.size
        if not nv:
            return out
        if use_native:
            from repro.backend.native import native_level_encode

            out[:, plan.cols] = native_level_encode(
                idx, plan.lvl, plan.inv_base, self.d_in, nv
            )
        else:
            positives = self._count_addends(
                idx, plan, lambda acc: acc.counts(nv)
            )
            out[:, plan.cols] = 2 * positives - self.d_in
        return out

    def encode_packed_bipolar(
        self, X: np.ndarray, *, native: bool | None = None
    ):
        """Encode and bipolar-quantize directly on bit planes — no dense tile.

        Equivalent to ``pack_hypervectors(bipolar(encode(X)))`` but the
        ``(n, d_hv)`` float tile never exists: the sign of the encoding
        ``2c − d_in`` is exactly ``c > (d_in − 1) // 2`` (the bipolar
        quantizer's 0 → +1 tie-break included), read straight off the
        vertical counters with a bitwise magnitude comparator
        (:meth:`~repro.backend.packed.BitPlaneAccumulator.greater_than`).
        Returns a :class:`~repro.backend.PackedHV` whose magnitude plane
        is all-ones over the valid dimensions (bipolar values have no
        zeros).  ``native`` selects the compiled counters as in
        :meth:`encode_packed`.
        """
        return self._bipolar_planes(X, self._column_plan(), native)

    def _bipolar_planes(self, X, plan: _ColumnPlan, native: bool | None):
        """Bipolar encoding of ``X`` on the plan's support, zero elsewhere.

        The counters run on the plan's varying columns only; their sign
        bits are scattered into the ``d_hv``-wide layout over the fixed
        sign bits of its invariant columns.  The magnitude plane is the
        support, so the result packs like the dense encoding quantized
        to bipolar and then zeroed off the support.
        """
        from repro.backend.packed import PackedHV, unpack_bit_planes

        idx = self._level_indices(X)
        use_native = self._use_native(native)
        n, nv = idx.shape[0], plan.cols.size
        signs = np.repeat(plan.fixed_signs[None, :], n, axis=0)
        if nv:
            if use_native:
                from repro.backend.native import native_level_encode_signs

                live = native_level_encode_signs(
                    idx, plan.lvl, plan.inv_base, self.d_in, nv
                )
            else:
                threshold = (self.d_in - 1) // 2
                live = self._count_addends(
                    idx, plan, lambda acc: acc.greater_than(threshold)
                )
            bits = np.zeros((n, signs.shape[1] * 64), dtype=np.uint8)
            bits[:, plan.cols] = unpack_bit_planes(live, nv)
            signs |= np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        mags = np.repeat(plan.support[None, :], n, axis=0)
        return PackedHV(signs=signs, mags=mags, d=self.d_hv)

    def __getstate__(self):
        # Keep worker-process pickles at codebook size (cf. item_memory).
        state = self.__dict__.copy()
        state.pop("_plan", None)
        return state

    def encode_addends(self, x: np.ndarray) -> np.ndarray:
        """The ``d_in`` bipolar addends of one input, before summation.

        Returns the ``(d_in, d_hv)`` int8 matrix ``A[k] = L_{q_k} ⊙ B_k``
        whose column-wise sum is the encoding.  The FPGA datapath model
        consumes exactly this matrix: each output dimension is a
        majority/adder tree over one column (Fig. 7).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d_in,):
            raise ValueError(f"x must have shape ({self.d_in},), got {x.shape}")
        idx = self.levels.indices(x[None, :])[0]
        return (self.levels.vectors[idx] * self.base.vectors).astype(np.int8)

    def truncated(self, d_hv: int) -> "LevelBaseEncoder":
        out = object.__new__(LevelBaseEncoder)
        out.d_in = self.d_in
        out.d_hv = check_positive_int(d_hv, "d_hv")
        out.seed = self.seed
        out.base = self.base.truncated(d_hv)
        out.n_levels = self.n_levels
        out.levels = self.levels.truncated(d_hv)
        out.lo = self.lo
        out.hi = self.hi
        out._parent_d_hv = getattr(self, "_parent_d_hv", self.d_hv)
        return out


#: encoder kinds reconstructible by :func:`encoder_from_config`
ENCODER_KINDS = ("scalar-base", "level-base")


def encoder_from_config(config: dict) -> Encoder:
    """Rebuild an encoder (codebooks included) from :meth:`Encoder.config`.

    The returned encoder's codebooks are bit-identical to the original's:
    they regenerate deterministically from the recorded seed, and a
    recorded ``parent_d_hv`` rebuilds the parent codebook first and
    truncates it, exactly as the original was made.
    """
    cfg = dict(config)
    kind = cfg.get("kind")
    if kind not in ENCODER_KINDS:
        raise ValueError(
            f"unknown encoder kind {kind!r}; choose from {ENCODER_KINDS}"
        )
    d_hv = int(cfg["d_hv"])
    parent_d_hv = int(cfg.get("parent_d_hv", d_hv))
    if parent_d_hv < d_hv:
        raise ValueError(
            f"parent_d_hv ({parent_d_hv}) cannot be smaller than d_hv ({d_hv})"
        )
    n_levels = cfg.get("n_levels")
    kwargs = dict(
        lo=float(cfg.get("lo", 0.0)),
        hi=float(cfg.get("hi", 1.0)),
        seed=int(cfg.get("seed", 0)),
    )
    if kind == "scalar-base":
        enc: Encoder = ScalarBaseEncoder(
            int(cfg["d_in"]),
            parent_d_hv,
            n_levels=None if n_levels is None else int(n_levels),
            **kwargs,
        )
    else:
        enc = LevelBaseEncoder(
            int(cfg["d_in"]),
            parent_d_hv,
            n_levels=32 if n_levels is None else int(n_levels),
            **kwargs,
        )
    if parent_d_hv != d_hv:
        enc = enc.truncated(d_hv)
    return enc
