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
:meth:`LevelBaseEncoder.encode` never touches a float codebook: it
counts on the level flip chain with popcounts
(:meth:`LevelBaseEncoder.encode_packed`) and converts the counts,
which are far below 2²⁴, exactly to float32.
Training and similarity accumulate in float64 (see
:class:`~repro.hd.model.HDModel`).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from repro.backend import native as native_kernels
from repro.backend.packed import (
    LiveHV,
    PackedHV,
    n_words,
    pack_sign_planes,
    popcount,
    support_of,
)
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
        X = check_2d(X, "X", n_cols=self.d_in)
        out = np.empty((X.shape[0], self.d_hv), dtype=np.float32)
        return self.encode_into(X, out)

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
        accumulation order, so results are identical to the unblocked
        product up to BLAS kernel-shape rounding.

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


#: what a bipolar encode can build (:meth:`LevelBaseEncoder._bipolar_planes`):
#: the bit planes, the live words or the core words
WORD_SETS = ("planes", "live", "core")

#: per-thread row temporaries of :meth:`LevelBaseEncoder._flip_chain_rows`
#: for the last grid shape the thread counted on (cf. ``backend/packed.py``)
_SCRATCH = threading.local()


def _row_scratch(agree_shape: tuple, d_in: int) -> tuple:
    """This thread's ``(later, both, ones, pos)`` for one grid.

    Kept across calls while the grid shape stays; ``later``'s columns
    past ``d_in`` are zero when built and never written.
    """
    key = (agree_shape, d_in)
    if getattr(_SCRATCH, "key", None) != key:
        words, rows, width = agree_shape
        _SCRATCH.buffers = (
            np.zeros((rows, words * 64), dtype=bool),
            np.empty(agree_shape, dtype=np.uint64),
            np.empty(agree_shape, dtype=np.uint8),
            np.empty((rows, width), dtype=np.min_scalar_type(d_in)),
        )
        _SCRATCH.key = key
    return _SCRATCH.buffers


class _ColumnPlan(NamedTuple):
    """The flip-chain count's operands on a selection's columns that differ.

    The levels are a flip chain: column ``j`` of level ``t`` is ``L_0[j]``
    below the column's flip level ``t_j`` and ``−L_0[j]`` from ``t_j`` on;
    the other columns (half of them at the default span) never flip.
    With ``a_kj = [B_k[j] = L_0[j]]`` and ``F_t`` the features whose level
    is ``≥ t``, addend ``k`` of Eq. (2b) is positive on column ``j``
    exactly when ``a_kj`` differs from ``[k ∈ F_{t_j}]``, so::

        pos_j = popcount(a_·j ^ F_{t_j})
        H_j   = 2 · pos_j − d_in

    and the bipolar sign of ``H_j`` is ``+1`` exactly when
    ``2 · pos_j ≥ d_in``: an integer compare.  A column that never
    flips takes ``fixed_j = 2 Σ_k a_kj − d_in``, the level-0 encoding,
    whatever the input.

    The counted columns sit in a ``(rows, width)`` grid whose every row
    holds columns of one flip level, so one ``F_t`` word per feature
    word broadcasts over a grid row.  A short row is padded with copies
    of its first column, which compute and scatter the same value.

    Attributes
    ----------
    cols:
        ``(rows, width)`` int64 — the dimension each grid slot counts.
    flip:
        ``(rows,)`` — the flip level ``t`` of each grid row, in the
        level index dtype
        (:attr:`~repro.hd.item_memory.LevelMemory.index_dtype`).
    agree:
        ``(n_words(d_in), rows, width)`` uint64 — each slot's ``a_·j``
        bits, packed 64 features per word.
    fixed:
        ``(d_hv,)`` float32 — every column's level-0 encoding.
    fixed_signs:
        ``(n_words(d_hv),)`` uint64 — the bipolar sign bits of the
        selection's columns that never flip.
    support:
        ``(n_words(d_hv),)`` uint64 — the selection itself.
    ranks:
        ``(rows, width)`` int64 — each grid slot's bit in the live words:
        its column's rank among the selected columns.
    fixed_live:
        ``(n_words(n_live),)`` uint64 — ``fixed_signs`` in the live words.
    n_live, digest:
        The selection's size and :func:`~repro.backend.packed.support_digest`.
    core_ranks:
        ``(rows, width)`` int64 — each grid slot's bit in the core words:
        its column's rank among the counted columns, which make up the
        *core* support (the selected columns some level flips).
    core, n_core, core_digest:
        The core support plane ``(n_words(d_hv),)`` uint64, its size
        and its digest.
    """

    cols: np.ndarray
    flip: np.ndarray
    agree: np.ndarray
    fixed: np.ndarray
    fixed_signs: np.ndarray
    support: np.ndarray
    ranks: np.ndarray
    fixed_live: np.ndarray
    n_live: int
    digest: int
    core_ranks: np.ndarray
    core: np.ndarray
    n_core: int
    core_digest: int


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
        """Eq. (2b) as float32: the flip-chain count, :meth:`encode_packed`."""
        return self.encode_packed(X)

    def _level_indices(self, X: np.ndarray) -> np.ndarray:
        return self.levels.indices(check_2d(X, "X", n_cols=self.d_in))

    def _column_plan(self, keep: np.ndarray | None = None) -> _ColumnPlan:
        """The count's operands on the columns of ``keep`` that can differ.

        ``keep`` selects dimensions (default: all, cached on the encoder;
        other selections are the caller's to cache).  Derived from the
        codebooks, never pickled: see :class:`_ColumnPlan`.  Raises
        ``ValueError`` naming the first level codebook column that is not
        a flip chain (changes back, or to a value other than ``−L_0``).
        """
        if keep is None:
            plan = getattr(self, "_plan", None)
            if plan is None:
                plan = self._plan = self._column_plan(
                    np.ones(self.d_hv, dtype=bool)
                )
            return plan
        sel = np.asarray(keep, dtype=bool)
        L, B = self.levels.vectors, self.base.vectors
        flipped = L != L[0]
        broken = (flipped[:-1] & ~flipped[1:]).any(axis=0) | (
            flipped & (L != -L[0])
        ).any(axis=0)
        if broken.any():
            raise ValueError(
                f"level codebook column {int(np.argmax(broken))} is not a "
                "flip chain: it must flip sign at most once and never back"
            )
        varies = flipped[-1]  # on a chain, a flipped column stays flipped
        core_cols = cols = np.flatnonzero(sel & varies)
        at = flipped[:, cols].argmax(axis=0)
        cols = cols[np.argsort(at, kind="stable")]
        levels, sizes = np.unique(at, return_counts=True)
        # Level g's i-th column goes to slot i of grid row g; a short
        # row's empty slots copy its first column.
        pos = np.arange(cols.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        grid = np.full((levels.size, sizes.max(initial=0)), -1, dtype=np.int64)
        grid[np.repeat(np.arange(levels.size), sizes), pos] = cols
        grid = np.where(grid < 0, grid[:, :1], grid)
        slots = grid.ravel()
        agree = pack_sign_planes(B[:, slots].T == L[0, slots, None]).T
        fixed = (
            2 * (B == L[0]).sum(axis=0, dtype=np.int64) - self.d_in
        ).astype(np.float32)
        fixed_bits = ~varies & (fixed >= 0)
        support, digest = support_of(sel)
        core, core_digest = support_of(sel & varies)
        return _ColumnPlan(
            cols=grid,
            flip=levels.astype(self.levels.index_dtype),
            agree=np.ascontiguousarray(agree).reshape(len(agree), *grid.shape),
            fixed=fixed,
            fixed_signs=pack_sign_planes(sel & fixed_bits)[0],
            support=support,
            ranks=(np.cumsum(sel) - 1)[grid],
            fixed_live=pack_sign_planes(fixed_bits[sel])[0],
            n_live=int(sel.sum()),
            digest=digest,
            core_ranks=np.searchsorted(core_cols, grid),
            core=core,
            n_core=core_cols.size,
            core_digest=core_digest,
        )

    @staticmethod
    def _use_native(native: bool | None) -> bool:
        if native is None:
            return native_kernels.kernels_available()
        if native and not native_kernels.kernels_available():
            raise ValueError(
                "native=True needs numba, which is not installed; "
                "use native=None for automatic selection"
            )
        return bool(native)

    def _flip_chain_rows(self, idx: np.ndarray, plan: _ColumnPlan):
        """Eq. (2b) on the plan's grid slots, one input row at a time.

        Yields each row's ``(rows, width)`` counts ``pos`` of positive
        addends per grid slot (:class:`_ColumnPlan`).  Per row: the
        ``F_t`` words at the grid rows' flip levels (``n_words(d_in)``
        per level), XORed into ``agree`` broadcast over each grid row,
        popcounted and summed over the leading feature-word axis.

        The row temporaries are this thread's scratch, the yielded
        array included, rewritten by the next row and the next call:
        read it before advancing.
        """
        later, both, ones, pos = _row_scratch(plan.agree.shape, self.d_in)
        flip = plan.flip[:, None]
        for row in idx:
            np.greater_equal(row, flip, out=later[:, : self.d_in])
            F = np.packbits(later, axis=-1, bitorder="little").view(np.uint64)
            np.bitwise_xor(plan.agree, F.T[:, :, None], out=both)
            popcount(both, out=ones)
            yield np.add.reduce(ones, axis=0, dtype=pos.dtype, out=pos)

    def encode_packed(
        self, X: np.ndarray, *, native: bool | None = None
    ) -> np.ndarray:
        """Eq. (2b) by popcounts on the flip chain; :meth:`encode` runs it.

        Every addend ``L_{q_k} ⊙ B_k`` is bipolar, so the encoding is an
        exact per-dimension count of positive addends::

            H[n, j] = 2 · #{k : addend_{k,j} = +1} − d_in

        Because the levels are a flip chain, that count is closed-form in
        one AND + popcount per column per 64 features (see
        :class:`_ColumnPlan`), on the columns some level flips only;
        every other column takes its fixed value.

        ``native`` routes the count through the numba-compiled kernel
        (:func:`~repro.backend.native.native_level_encode`): ``None``
        auto-detects numba, ``False`` forces NumPy, ``True`` insists on
        the compiled path.  Both are integer-exact and bit-identical.
        """
        idx = self._level_indices(X)
        use_native = self._use_native(native)
        plan = self._column_plan()
        if use_native:
            return native_kernels.native_level_encode(
                idx, self.n_levels, plan.flip, plan.agree, plan.cols,
                plan.fixed,
            )
        out = np.repeat(plan.fixed[None, :], idx.shape[0], axis=0)
        if plan.cols.size:
            h = np.empty(plan.cols.shape, dtype=np.float32)
            for row, pos in zip(out, self._flip_chain_rows(idx, plan)):
                np.multiply(pos, np.float32(2), out=h)
                h -= self.d_in
                row[plan.cols] = h
        return out

    def encode_packed_bipolar(
        self, X: np.ndarray, *, native: bool | None = None
    ):
        """Encode and bipolar-quantize directly on bit planes — no dense tile.

        Equivalent to ``pack_hypervectors(bipolar(encode(X)))`` but the
        ``(n, d_hv)`` float tile never exists: only the flipping columns
        are counted and their signs (the bipolar quantizer's 0 → +1
        tie-break included) are packed over the fixed sign bits of the
        others.  Returns a :class:`~repro.backend.PackedHV` whose
        magnitude plane is all-ones over the valid dimensions (bipolar
        values have no zeros).  ``native`` selects the compiled count as
        in :meth:`encode_packed`.
        """
        return self._bipolar_planes(X, self._column_plan(), native, "planes")

    def _bipolar_planes(
        self, X, plan: _ColumnPlan, native: bool | None, words=None
    ):
        """Bipolar encoding of ``X`` on the plan's support, zero elsewhere.

        ``words`` names what to build (:data:`WORD_SETS`): ``"planes"``,
        the :class:`~repro.backend.PackedHV` whose magnitude plane is
        the support, so it packs like the dense encoding quantized to
        bipolar and then zeroed off the support; ``"live"``, the
        support's bits only, or ``"core"``, the flipping columns' bits
        only, each a :class:`~repro.backend.packed.LiveHV`; ``None``,
        the planes carrying both word sets.  The count runs on the
        plan's flipping columns only, and each word set built takes
        their sign bits over its fixed bits (none in the core words).
        """
        idx = self._level_indices(X)
        n = idx.shape[0]
        names = WORD_SETS if words is None else (words,)
        if self._use_native(native):
            built = dict(zip(WORD_SETS, native_kernels.native_level_encode_signs(
                idx, self.n_levels, plan.flip, plan.agree, plan.cols,
                plan.fixed, plan.fixed_signs, plan.ranks, plan.fixed_live,
                plan.core_ranks, plan.n_core,
            )))
        else:
            # Each set starts from its fixed bits; grid slot s sets bit
            # slots[s] of it.
            fixed = {"planes": plan.fixed_signs, "live": plan.fixed_live}
            slots = {
                "planes": plan.cols, "live": plan.ranks, "core": plan.core_ranks
            }
            built = {
                name: fixed[name][None, :].repeat(n, axis=0) if name in fixed
                else np.zeros((n, n_words(plan.n_core)), dtype=np.uint64)
                for name in names
            }
            if plan.cols.size:
                # Rows overwrite the same bits, so one buffer per set
                # serves every row.
                sets = [
                    (built[name], slots[name],
                     np.zeros(64 * built[name].shape[1], dtype=bool))
                    for name in names
                ]
                positive = np.empty(plan.cols.shape, dtype=bool)
                half = (self.d_in + 1) // 2  # 2·pos ≥ d_in, pos an integer
                for i, pos in enumerate(self._flip_chain_rows(idx, plan)):
                    np.greater_equal(pos, half, out=positive)
                    for out, at, bits in sets:
                        bits[at] = positive
                        out[i] |= np.packbits(bits, bitorder="little").view(
                            np.uint64
                        )
        found = {
            name: LiveHV(built[name], self.d_hv, n_live, digest)
            for name, n_live, digest in (
                ("live", plan.n_live, plan.digest),
                ("core", plan.n_core, plan.core_digest),
            )
            if name in names
        }
        if words in found:
            return found[words]
        mags = plan.support[None, :].repeat(n, axis=0)
        return PackedHV(
            built["planes"], mags, self.d_hv,
            live=found.get("live"), core=found.get("core"),
        )

    def __getstate__(self):
        # Pickle at codebook size: the column plan rebuilds on first use
        # (cf. item_memory).
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
