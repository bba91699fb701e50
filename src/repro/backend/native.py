"""Numba-compiled native kernels behind the ``repro.backend`` protocol.

The packed kernels of :mod:`repro.backend.packed` already shrink the
Eq. (4) similarity search to XOR + popcount, but they run as chains of
NumPy ufunc calls: every word pass allocates an intermediate, popcounts
stream through memory once per operator, and everything stays on one
core.  This module compiles the same three kernel families to native
code with numba:

* **fused scoring** — the XOR/popcount dot product (shared-support and
  general ternary paths) runs as a single ``prange``-parallel loop nest
  with zero intermediate allocations;
* **flip-chain encode** — the level-base count of Eq. (2b) as one
  AND + popcount per counted column per 64 features, per row in
  registers, including a variant that emits the packed bipolar sign
  plane directly;
* **fused quantize** — the scalar-base feature snapping of Eq. (2a)
  runs clip→snap in one float32 pass, feeding the projection GEMM.

Fallback semantics
------------------
numba is an *optional* dependency.  When it is absent (or fails to
import) every ``native_*`` entry point transparently falls back to the
pure-NumPy packed kernels — identical results, reduced throughput — and
logs one message the first time.  :func:`kernels_available` reports
which mode is active; the ``native`` backend therefore always resolves
and always answers correctly, compiled or not.

Every kernel is exact integer (or IEEE-deterministic float32)
arithmetic: results are bit-identical to the packed and dense reference
paths, which the backend equivalence suite asserts across all three
backends.

    >>> import numpy as np
    >>> from repro.backend import pack_hypervectors
    >>> from repro.backend.native import native_dot_matrix
    >>> a = pack_hypervectors(np.array([[1.0, -1.0, 1.0]]))
    >>> native_dot_matrix(a, a)  # compiled when numba is installed
    array([[3]])
"""

from __future__ import annotations

import logging

import numpy as np

from repro.backend.packed import (
    LiveHV,
    PackedBackend,
    PackedHV,
    _check_pair,
    _dot_operands,
    n_words,
    packed_class_scores,
    packed_dot_matrix,
    packed_hamming_matrix,
)
from repro.backend.base import register_backend

__all__ = [
    "NUMBA_AVAILABLE",
    "NativeBackend",
    "kernels_available",
    "native_dot_matrix",
    "native_class_scores",
    "native_hamming_matrix",
    "native_level_encode",
    "native_level_encode_signs",
    "native_quantize_features",
    "warm_kernels",
]

_logger = logging.getLogger(__name__)
_fallback_logged = False

try:  # pragma: no cover - exercised via the monkeypatched-import test
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # numba absent: pure-NumPy fallback mode
    NUMBA_AVAILABLE = False


def kernels_available() -> bool:
    """True when the compiled kernels can run (numba imported cleanly)."""
    return NUMBA_AVAILABLE


def _note_fallback() -> None:
    """Log the numba-absent fallback exactly once per process."""
    global _fallback_logged
    if not _fallback_logged:
        _logger.info(
            "numba is not installed; the 'native' backend falls back to "
            "the pure-NumPy packed kernels (identical results, reduced "
            "throughput)"
        )
        _fallback_logged = True


def _require_kernels() -> None:
    if not NUMBA_AVAILABLE:
        raise RuntimeError(
            "the compiled native kernels need numba, which is not "
            "installed; call kernels_available() first or use the "
            "automatic fallback entry points"
        )


if NUMBA_AVAILABLE:
    # uint64 SWAR constants — typed scalars, because mixing uint64 with
    # Python int literals promotes to float64 under numba's numpy rules.
    _M1 = np.uint64(0x5555555555555555)
    _M2 = np.uint64(0x3333333333333333)
    _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _H01 = np.uint64(0x0101010101010101)
    _S1 = np.uint64(1)
    _S2 = np.uint64(2)
    _S4 = np.uint64(4)
    _S56 = np.uint64(56)
    _U1 = np.uint64(1)

    @njit(inline="always")
    def _pc64(x):  # pragma: no cover - compiled
        """SWAR popcount of one uint64 word, returned as int64."""
        x = x - ((x >> _S1) & _M1)
        x = (x & _M2) + ((x >> _S2) & _M2)
        x = (x + (x >> _S4)) & _M4
        return np.int64((x * _H01) >> _S56)

    @njit(parallel=True, nogil=True, cache=True)
    def _dot_bipolar_kernel(qs, cs, base, out):  # pragma: no cover
        """dot = base − 2·popcount(qs ^ cs) on live words of one M."""
        for i in prange(qs.shape[0]):
            for j in range(cs.shape[0]):
                acc = np.int64(0)
                for w in range(qs.shape[1]):
                    acc += _pc64(qs[i, w] ^ cs[j, w])
                out[i, j] = base[j] - 2 * acc

    @njit(parallel=True, nogil=True, cache=True)
    def _dot_ternary_kernel(qs, qm, cs, cm, out):  # pragma: no cover - compiled
        """Masked-ternary dot: ±1 on common support, 0 elsewhere."""
        for i in prange(qs.shape[0]):
            for j in range(cs.shape[0]):
                acc = np.int64(0)
                for w in range(qs.shape[1]):
                    common = qm[i, w] & cm[j, w]
                    disagree = (qs[i, w] ^ cs[j, w]) & common
                    acc += _pc64(common) - 2 * _pc64(disagree)
                out[i, j] = acc

    @njit(parallel=True, nogil=True, cache=True)
    def _ham_bipolar_kernel(qs, cs, out):  # pragma: no cover - compiled
        """Differing-dimension counts for bipolar operands."""
        for i in prange(qs.shape[0]):
            for j in range(cs.shape[0]):
                acc = np.int64(0)
                for w in range(qs.shape[1]):
                    acc += _pc64(qs[i, w] ^ cs[j, w])
                out[i, j] = acc

    @njit(parallel=True, nogil=True, cache=True)
    def _ham_ternary_kernel(qs, qm, cs, cm, out):  # pragma: no cover - compiled
        """Differing-dimension counts for ternary operands."""
        for i in prange(qs.shape[0]):
            for j in range(cs.shape[0]):
                acc = np.int64(0)
                for w in range(qs.shape[1]):
                    differs = ((qs[i, w] ^ cs[j, w]) & qm[i, w] & cm[j, w]) | (
                        qm[i, w] ^ cm[j, w]
                    )
                    acc += _pc64(differs)
                out[i, j] = acc

    @njit(inline="always")
    def _flip_chain_counts(q, n_levels, flip, agree):  # pragma: no cover
        """``popcount(a & F_t)`` per grid slot for one row's level indices.

        ``F[t]`` (the features at level ``>= t``, 64 per word) is built
        one-hot by level and then suffix-ORed, ``size[t] = |F_t|`` the
        same way.  Returns ``(size, counts)``.
        """
        n_feature_words = agree.shape[0]
        F = np.zeros((n_levels + 1, n_feature_words), dtype=np.uint64)
        size = np.zeros(n_levels + 1, dtype=np.int64)
        for k in range(q.shape[0]):
            F[q[k], k >> 6] |= _U1 << np.uint64(k & 63)
            size[q[k]] += 1
        for t in range(n_levels - 1, -1, -1):
            size[t] += size[t + 1]
            for w in range(n_feature_words):
                F[t, w] |= F[t + 1, w]
        counts = np.zeros((agree.shape[1], agree.shape[2]), dtype=np.int64)
        for w in range(n_feature_words):
            for r in range(agree.shape[1]):
                f = F[flip[r], w]
                for s in range(agree.shape[2]):
                    counts[r, s] += _pc64(agree[w, r, s] & f)
        return size, counts

    @njit(parallel=True, nogil=True, cache=True)
    def _level_encode_kernel(
        idx, n_levels, flip, agree, cols, fixed, out
    ):  # pragma: no cover - compiled
        """Flip-chain popcounts → dense float32 rows over ``fixed``."""
        for i in prange(idx.shape[0]):
            size, counts = _flip_chain_counts(idx[i], n_levels, flip, agree)
            for j in range(fixed.shape[0]):
                out[i, j] = fixed[j]
            for r in range(cols.shape[0]):
                for s in range(cols.shape[1]):
                    c = cols[r, s]
                    out[i, c] = fixed[c] + np.float32(
                        2 * size[flip[r]] - 4 * counts[r, s]
                    )

    @njit(parallel=True, nogil=True, cache=True)
    def _level_signs_kernel(
        idx, n_levels, flip, agree, cols, fixed, fixed_signs,
        ranks, fixed_live, core_ranks, signs, live, core,
    ):  # pragma: no cover - compiled
        """Flip-chain popcounts → packed sign rows over ``fixed_signs``,
        live-word rows over ``fixed_live`` (slot → bit ``ranks``) and
        core-word rows (slot → bit ``core_ranks``)."""
        for i in prange(idx.shape[0]):
            size, counts = _flip_chain_counts(idx[i], n_levels, flip, agree)
            for w in range(fixed_signs.shape[0]):
                signs[i, w] = fixed_signs[w]
            for w in range(fixed_live.shape[0]):
                live[i, w] = fixed_live[w]
            for w in range(core.shape[1]):
                core[i, w] = 0
            for r in range(cols.shape[0]):
                for s in range(cols.shape[1]):
                    c = cols[r, s]
                    h = fixed[c] + np.float32(
                        2 * size[flip[r]] - 4 * counts[r, s]
                    )
                    if h >= 0:
                        signs[i, c >> 6] |= _U1 << np.uint64(c & 63)
                        k = ranks[r, s]
                        live[i, k >> 6] |= _U1 << np.uint64(k & 63)
                        k = core_ranks[r, s]
                        core[i, k >> 6] |= _U1 << np.uint64(k & 63)

    @njit(parallel=True, nogil=True, cache=True)
    def _quantize_kernel(X, lo, hi, step, snap, out):  # pragma: no cover
        """Fused float32 clip → level-snap, elementwise-identical to NumPy."""
        for i in prange(X.shape[0]):
            for j in range(X.shape[1]):
                v = np.float32(X[i, j])
                if v < lo:
                    v = lo
                elif v > hi:
                    v = hi
                if snap:
                    v = lo + np.float32(np.rint((v - lo) / step)) * step
                out[i, j] = v


# ----------------------------------------------------------------------
# entry points (always defined; automatic fallback when numba is absent)
# ----------------------------------------------------------------------
def native_dot_matrix(a, b) -> np.ndarray:
    """Exact pairwise dot products, shape ``(a.n, b.n)``, int64.

    The compiled twin of :func:`~repro.backend.packed.packed_dot_matrix`,
    sharing its prologue and so its live-word precondition (``b``'s rows
    share one magnitude plane ``M`` and ``a`` is on it): when it holds, the
    one-plane kernel scores the live words against the store's
    :attr:`~repro.backend.packed.LiveStore.base`;
    otherwise the general ternary kernel runs, parallelized over the
    larger batch.  Either way one fused XOR+popcount loop nest
    allocating nothing but the output.  Falls back to the packed kernel
    when numba is absent.
    """
    if not NUMBA_AVAILABLE:
        _note_fallback()
        return packed_dot_matrix(a, b)
    a, b = _dot_operands(a, b)
    if isinstance(a, LiveHV):
        out = np.empty((a.n, b.n), dtype=np.int64)
        _dot_bipolar_kernel(
            np.ascontiguousarray(a.words), b.words, b.base, out
        )
        return out
    if a.n >= b.n:
        return _native_dot(a, b)
    return _native_dot(b, a).T


def _native_dot(a: PackedHV, b: PackedHV) -> np.ndarray:
    out = np.empty((a.n, b.n), dtype=np.int64)
    _dot_ternary_kernel(a.signs, a.mags, b.signs, b.mags, out)
    return out


def native_class_scores(
    queries,
    class_store,
    class_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Eq. (4) class scores on packed operands via the compiled dot.

    :func:`~repro.backend.packed.packed_class_scores` with
    :func:`native_dot_matrix`: bit-identical to it (and hence to the
    dense reference) on the same operands.
    """
    return packed_class_scores(
        queries, class_store, class_norms, dot=native_dot_matrix
    )


def native_hamming_matrix(a: PackedHV, b: PackedHV) -> np.ndarray:
    """Pairwise normalized Hamming distances, compiled XOR+popcount.

    Falls back to :func:`~repro.backend.packed.packed_hamming_matrix`
    when numba is absent.
    """
    if not NUMBA_AVAILABLE:
        _note_fallback()
        return packed_hamming_matrix(a, b)
    _check_pair(a, b)
    if a.n >= b.n:
        counts = _native_ham(a, b)
    else:
        counts = _native_ham(b, a).T
    return counts / float(a.d)


def _native_ham(a: PackedHV, b: PackedHV) -> np.ndarray:
    out = np.empty((a.n, b.n), dtype=np.int64)
    if a.is_bipolar and b.is_bipolar:
        _ham_bipolar_kernel(a.signs, b.signs, out)
    else:
        _ham_ternary_kernel(a.signs, a.mags, b.signs, b.mags, out)
    return out


def native_level_encode(
    idx: np.ndarray,
    n_levels: int,
    flip: np.ndarray,
    agree: np.ndarray,
    cols: np.ndarray,
    fixed: np.ndarray,
) -> np.ndarray:
    """Compiled Eq. (2b) encode on a flip chain → ``(n, d_hv)`` float32.

    Operands mirror :meth:`~repro.hd.encoder.LevelBaseEncoder.encode_packed`'s
    column plan: per-feature level indices in ``[0, n_levels)``, each
    grid row's flip level ``flip``, the ``agree`` bits packed along the
    feature axis ``(n_words(d_in), rows, width)``, the dimension ``cols``
    each grid slot counts, and the level-0 encoding ``fixed``, which the
    other dimensions keep.  Each slot is
    ``fixed + 2·|F_t| − 4·popcount(agree & F_t)``.  Requires numba —
    callers select this path via :func:`kernels_available`.
    """
    _require_kernels()
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    out = np.empty((idx.shape[0], fixed.shape[0]), dtype=np.float32)
    _level_encode_kernel(idx, int(n_levels), flip, agree, cols, fixed, out)
    return out


def native_level_encode_signs(
    idx: np.ndarray,
    n_levels: int,
    flip: np.ndarray,
    agree: np.ndarray,
    cols: np.ndarray,
    fixed: np.ndarray,
    fixed_signs: np.ndarray,
    ranks: np.ndarray,
    fixed_live: np.ndarray,
    core_ranks: np.ndarray,
    n_core: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compiled Eq. (2b) encode emitting the bipolar *sign plane* directly.

    Same operands as :func:`native_level_encode`, plus the sign words of
    the dimensions left uncounted (``fixed_signs``).  Skips the dense
    tile: each counted dimension sets its bit when its encoding is
    ``>= 0`` (the +1 tie-break of the bipolar quantizer), giving
    ``(n, len(fixed_signs))`` uint64 sign words.  The same pass writes
    the rows' live words: ``ranks`` maps each grid slot to its live bit
    and ``fixed_live`` holds the uncounted live bits; and their
    ``n_core`` core bits, slot ``core_ranks`` each.  Returns
    ``(signs, live, core)``.  Requires numba.
    """
    _require_kernels()
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    n = idx.shape[0]
    signs = np.empty((n, fixed_signs.shape[0]), dtype=np.uint64)
    live = np.empty((n, fixed_live.shape[0]), dtype=np.uint64)
    core = np.empty((n, n_words(n_core)), dtype=np.uint64)
    _level_signs_kernel(
        idx, int(n_levels), flip, agree, cols, fixed, fixed_signs,
        ranks, fixed_live, core_ranks, signs, live, core,
    )
    return signs, live, core


def native_quantize_features(
    X: np.ndarray,
    lo: float,
    hi: float,
    step: float | None,
) -> np.ndarray:
    """Compiled scalar-base feature snapping: fused clip → level grid.

    One parallel float32 pass, elementwise bit-identical to
    :meth:`~repro.hd.encoder.ScalarBaseEncoder.quantize_features`
    (IEEE float32 clip, divide, round-half-even, multiply-add).
    ``step=None`` clips only.  Requires numba.
    """
    _require_kernels()
    X = np.asarray(X)
    out = np.empty(X.shape, dtype=np.float32)
    snap = step is not None
    _quantize_kernel(
        X,
        np.float32(lo),
        np.float32(hi),
        np.float32(step if snap else 1.0),
        snap,
        out,
    )
    return out


def warm_kernels() -> bool:
    """Trigger JIT compilation of every kernel on tiny operands.

    Benchmarks call this before timing so compilation latency never
    lands inside a measured region.  Returns ``True`` when the compiled
    kernels are active, ``False`` in fallback mode (no-op).
    """
    if not NUMBA_AVAILABLE:
        return False
    from repro.backend.packed import pack_hypervectors

    bip = pack_hypervectors(np.ones((2, 70)))
    # rows with different supports, so the general ternary kernel compiles
    tern = pack_hypervectors(
        np.array([[1.0, 0.0, -1.0] * 30, [0.0, 1.0, -1.0] * 30])
    )
    native_dot_matrix(bip, bip)
    native_dot_matrix(tern, tern)
    native_hamming_matrix(bip, bip)
    native_hamming_matrix(tern, tern)
    idx = np.zeros((1, 3), dtype=np.int64)
    flip = np.ones(1, dtype=np.uint8)  # a column plan's flip levels
    agree = np.zeros((1, 1, 2), dtype=np.uint64)
    cols = np.zeros((1, 2), dtype=np.int64)
    fixed = np.zeros(70, dtype=np.float32)
    native_level_encode(idx, 2, flip, agree, cols, fixed)
    words = np.zeros(2, dtype=np.uint64)
    native_level_encode_signs(
        idx, 2, flip, agree, cols, fixed, words, cols, words, cols, 2
    )
    native_quantize_features(np.zeros((1, 3)), 0.0, 1.0, 0.5)
    native_quantize_features(np.zeros((1, 3)), 0.0, 1.0, None)
    return True


# ----------------------------------------------------------------------
# backend adapter
# ----------------------------------------------------------------------
@register_backend
class NativeBackend(PackedBackend):
    """Compiled XOR+popcount kernels over :class:`PackedHV` operands.

    Same operand format, preparation, and answers as
    :class:`~repro.backend.packed.PackedBackend` — the scoring loops run
    as numba-compiled parallel kernels when numba is installed and fall
    back to the packed NumPy kernels (logged once) when it is not, so
    selecting ``"native"`` is always safe.
    """

    name = "native"

    def dot_matrix(self, queries, references) -> np.ndarray:
        return native_dot_matrix(
            self.prepare_queries(queries), self.prepare_queries(references)
        ).astype(np.float64)

    def class_scores(self, queries, prepared) -> np.ndarray:
        self._check_prepared(prepared)
        q = self.prepare_queries(queries)
        if q.d != prepared.d_hv:
            raise ValueError(
                f"queries have {q.d} dims, class store has {prepared.d_hv}"
            )
        return native_class_scores(q, prepared.store, prepared.norms)

    def hamming_matrix(self, a, b) -> np.ndarray:
        return native_hamming_matrix(
            self.prepare_queries(a), self.prepare_queries(b)
        )
