"""Bit-packed bipolar/ternary hypervectors and XOR+popcount kernels.

The paper's quantized hypervectors take values in {−1, +1} (Eq. 13) or
{−1, 0, +1} (the biased scheme of §III-B.2), yet a dense float64 matmul
spends 64 bits and a fused multiply-add per dimension.  Packing 64
dimensions into one ``uint64`` word turns the Eq. (4) dot product into
XOR + popcount — the same transformation the FPGA datapath of §III-D
performs in LUTs — and makes a 10,000-dimension similarity a 157-word
bitwise pass.

Representation
--------------
A :class:`PackedHV` stores two bit planes per hypervector:

* ``signs`` — bit ``i`` is 1 when dimension ``i`` is **positive**;
* ``mags``  — bit ``i`` is 1 when dimension ``i`` is **non-zero**.

For ternary vectors (including masked/obfuscated queries, whose zeroed
dimensions are exactly the 0 level) the planes combine as::

    dot(a, b)  = popcount(Ma & Mb) − 2·popcount((Sa ^ Sb) & Ma & Mb)

i.e. dimensions where both are non-zero contribute ±1 according to sign
agreement, all others contribute 0 — bit-for-bit the float result.

**Shared support.**  §III-C masks the same dimensions on both sides of
the offload, so every obfuscated query and every stored class of a
masked deployment carry one and the same magnitude plane ``M``.  When
a class store's rows all share ``M`` (:attr:`PackedHV.shared_support`)
and every query row's magnitude plane equals ``M`` too, the formula
collapses to one XOR and one popcount per word::

    dot(q, c)  = n_live − 2·popcount((Sq & M) ^ (Sc & M))

with ``n_live = popcount(M)``.  A bipolar store is the special case
``M`` = all valid dimensions.  The ``& M`` matters: nothing forces a
plane received off the wire to keep its sign bits inside its magnitude
plane, and such stray bits must never count.  Whether a call takes
this path depends on the operands alone; any other input takes the
general formula above, with identical results.

Tail dimensions beyond ``d`` (when ``d`` is not a multiple of 64) are
zero in **both** planes, so they never contribute to any kernel.

This module is the bottom of the backend layer: it imports nothing from
:mod:`repro.hd`, so both layers can build on it without cycles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.utils.validation import check_2d

__all__ = [
    "WORD_BITS",
    "PackedHV",
    "SharedSupport",
    "PackedBackend",
    "pack_hypervectors",
    "pack_sign_planes",
    "unpack_bit_planes",
    "is_packable",
    "popcount",
    "popcount_lut",
    "BitPlaneAccumulator",
    "packed_norms",
    "packed_dot_matrix",
    "packed_class_scores",
    "packed_hamming_matrix",
    "shared_support_signs",
    "hold_shared_support",
    "xor_dot_rows",
]

#: dimensions per machine word
WORD_BITS = 64

#: uint64 words of XOR temporary per row tile of :func:`xor_dot_rows`
#: (16 queries against a 26-class store at d_hv=10,000)
TILE_WORDS = 1 << 16

_POP16: np.ndarray | None = None


def _pop16_table() -> np.ndarray:
    """The 65536-entry per-halfword popcount table, built on first use."""
    global _POP16
    if _POP16 is None:
        h = np.arange(1 << 16, dtype=np.uint32)
        h = h - ((h >> 1) & 0x5555)
        h = (h & 0x3333) + ((h >> 2) & 0x3333)
        h = (h + (h >> 4)) & 0x0F0F
        _POP16 = ((h + (h >> 8)) & 0x1F).astype(np.uint8)
    return _POP16


def popcount_lut(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-element population count via a 16-bit lookup table.

    The NumPy < 2.0 fallback for :func:`popcount`: each uint64 word is
    split into four halfwords and counted with one gather each from a
    64 KiB table — one pass and a small reduction, versus the eight
    gathers plus reshape of the old per-byte path.  Kept importable on
    every NumPy so the equivalence test can cross-check it against the
    hardware ``np.bitwise_count`` path.
    """
    w = np.asarray(words, dtype=np.uint64)
    halves = np.ascontiguousarray(w).reshape(-1).view(np.uint16)
    counts = _pop16_table()[halves].reshape(-1, 4).sum(axis=1)
    counts = counts.astype(np.uint8).reshape(w.shape)
    if out is None:
        return counts
    out[...] = counts
    return out


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0: hardware popcount

    def popcount(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-element population count of a uint64 array (into ``out``)."""
        return np.bitwise_count(words, out=out)

else:  # pragma: no cover - exercised only on NumPy < 2.0
    popcount = popcount_lut


def n_words(d: int) -> int:
    """Words needed to hold ``d`` packed dimensions."""
    return -(-int(d) // WORD_BITS)


def _pack_bits(bits: np.ndarray, width: int) -> np.ndarray:
    """Pack a ``(n, d)`` bool array into ``(n, width)`` uint64 words.

    Bit ``i`` of word ``w`` holds dimension ``w * 64 + i`` (little-endian
    bit order), with zero padding beyond ``d``.
    """
    packed = np.packbits(bits, axis=1, bitorder="little")
    target_bytes = width * (WORD_BITS // 8)
    if packed.shape[1] < target_bytes:
        packed = np.pad(packed, ((0, 0), (0, target_bytes - packed.shape[1])))
    return np.ascontiguousarray(packed).view(np.uint64)


def is_packable(values: np.ndarray) -> bool:
    """True when every value is one of the packable levels {−1, 0, +1}.

    An empty batch is vacuously packable — a 0-row stream chunk packs to
    0-row planes rather than erroring.
    """
    v = np.asarray(values)
    return bool(np.isin(v, (-1, 0, 1)).all())


def pack_sign_planes(values: np.ndarray) -> np.ndarray:
    """Sign bit planes of a ``(n, d)`` array: bit set where positive.

    The single-plane companion of :func:`pack_hypervectors` for operands
    known to be bipolar (codebooks, level memories): only the sign plane
    is stored, at 64 dimensions per uint64 word with zero tail padding.
    """
    v = check_2d(np.atleast_2d(np.asarray(values)), "values")
    return _pack_bits(v > 0, n_words(v.shape[1]))


def unpack_bit_planes(planes: np.ndarray, d: int) -> np.ndarray:
    """Unpack ``(n, n_words)`` uint64 planes to a ``(n, d)`` uint8 array."""
    return np.unpackbits(
        planes.view(np.uint8), axis=1, bitorder="little"
    )[:, :d]


class BitPlaneAccumulator:
    """Exact per-column sums of one-bit rows via carry-save adders.

    Adding ``R`` bit planes one at a time with a ripple-carry counter
    costs ``O(R log R)`` word operations; this accumulator instead keeps
    a binomial-heap of partial planes — at most two planes per weight
    ``2^p`` — and compresses three same-weight planes into a sum and a
    carry with one 5-op carry-save adder, for ``O(R)`` total word
    operations.  This is the column-wise (vertical-counter) analogue of
    the Harley–Seal popcount and the software mirror of the §III-D adder
    tree; :meth:`~repro.hd.model.HDModel.bundle_packed` bundles packed
    encodings through it.

    All arithmetic is integer-exact: :meth:`counts` returns the exact
    number of set bits per column across every plane added.
    """

    def __init__(self):
        # _planes[p] holds 1–2 uint64 plane arrays of weight 2**p
        self._planes: list[list[np.ndarray]] = []

    def add(self, plane: np.ndarray) -> None:
        """Accumulate one ``(n, n_words)`` uint64 bit plane."""
        p, carry = 0, plane
        while True:
            if p == len(self._planes):
                self._planes.append([carry])
                return
            level = self._planes[p]
            if len(level) < 2:
                level.append(carry)
                return
            a, b = level
            # Full adder with three temporaries; a, b and carry may be
            # caller-owned planes, so only fresh arrays are updated in place.
            u = a ^ b
            t = a & b
            t |= u & carry
            u ^= carry
            self._planes[p] = [u]
            carry = t
            p += 1

    def counts(self, d: int, dtype=np.int32) -> np.ndarray:
        """The exact per-column bit count over the first ``d`` columns."""
        if not self._planes:
            raise ValueError("no planes accumulated")
        out = None
        for p, level in enumerate(self._planes):
            for plane in level:
                bits = unpack_bit_planes(plane, d).astype(dtype)
                contrib = bits << p
                out = contrib if out is None else out + contrib
        return out


class SharedSupport(NamedTuple):
    """One magnitude plane common to every row of a packed batch.

    Attributes
    ----------
    mask:
        ``(n_words,)`` uint64 — the shared magnitude plane ``M``.
    n_live:
        ``popcount(M)``: the dimensions every row is non-zero on.
    signs:
        ``(n, n_words)`` uint64 sign planes with every bit outside ``M``
        cleared (the batch's own ``signs`` when it has none there).
    """

    mask: np.ndarray
    n_live: int
    signs: np.ndarray


@dataclass(frozen=True)
class PackedHV:
    """A batch of bit-packed ternary (or bipolar) hypervectors.

    Attributes
    ----------
    signs:
        ``(n, n_words)`` uint64 — bit set where the dimension is positive.
    mags:
        ``(n, n_words)`` uint64 — bit set where the dimension is non-zero.
    d:
        Logical dimensionality ``Dhv`` (may be any positive integer; the
        trailing ``n_words * 64 - d`` bits are zero in both planes).
    """

    signs: np.ndarray
    mags: np.ndarray
    d: int

    def __post_init__(self):
        if self.signs.shape != self.mags.shape:
            raise ValueError(
                f"sign/magnitude plane shape mismatch: "
                f"{self.signs.shape} vs {self.mags.shape}"
            )
        if self.signs.ndim != 2 or self.signs.shape[1] != n_words(self.d):
            raise ValueError(
                f"planes must have shape (n, {n_words(self.d)}) for "
                f"d={self.d}, got {self.signs.shape}"
            )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of hypervectors in the batch."""
        return self.signs.shape[0]

    @property
    def n_words(self) -> int:
        """uint64 words per hypervector."""
        return self.signs.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(n, d)`` shape of the unpacked batch."""
        return (self.n, self.d)

    @cached_property
    def is_bipolar(self) -> bool:
        """True when no dimension is zero (one-plane kernels apply)."""
        return int(popcount(self.mags).sum()) == self.n * self.d

    @cached_property
    def shared_support(self) -> SharedSupport | None:
        """The magnitude plane all rows share, or ``None`` if they differ.

        Worked out once per batch and cached, so a class store pays for
        it on its first scoring call only.  Empty batches have none.
        """
        if self.n == 0 or not (self.mags == self.mags[0]).all():
            return None
        mask = self.mags[0]
        signs = self.signs & mask
        if np.array_equal(signs, self.signs):
            signs = self.signs  # no stray bits: share, don't copy
        return SharedSupport(mask, int(popcount(mask).sum()), signs)

    @property
    def nbytes(self) -> int:
        """Bytes held by both planes.

        A stride-0 plane (a magnitude row held once, see
        :func:`hold_shared_support`) holds one row, whatever ``n`` is.
        """
        return sum(
            plane[:1].nbytes if plane.strides[0] == 0 else plane.nbytes
            for plane in (self.signs, self.mags)
        )

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows) -> "PackedHV":
        """Row-sliced view (slices/arrays of row indices)."""
        signs = np.atleast_2d(self.signs[rows])
        mags = np.atleast_2d(self.mags[rows])
        return PackedHV(signs=signs, mags=mags, d=self.d)

    # ------------------------------------------------------------------
    def unpack(self, dtype=np.float32) -> np.ndarray:
        """The dense ``(n, d)`` array this batch packs (exact round-trip)."""
        sign_bits = unpack_bit_planes(self.signs, self.d)
        mag_bits = unpack_bit_planes(self.mags, self.d)
        # Integer arithmetic: avoids float -0.0 on masked dimensions.
        out = (2 * sign_bits.astype(np.int8) - 1) * mag_bits
        return out.astype(dtype)


def pack_hypervectors(values: np.ndarray, *, validate: bool = True) -> "PackedHV":
    """Pack a ``(n, d)`` (or ``(d,)``) ternary array into bit planes.

    Values must lie in {−1, 0, +1}; bipolar input is the special case
    with no zeros.  Raises ``ValueError`` for anything else (full-
    precision or 2-bit encodings cannot be packed — quantize first).

    ``validate=False`` skips the level check — a full extra pass over
    the data — and is reserved for producers that guarantee ternary
    output by construction (the packable quantizers, the obfuscator).
    Out-of-range values would be silently collapsed to their sign, so
    external callers should keep the default.

    >>> p = pack_hypervectors(np.array([[1., -1., 0., 1.]]))
    >>> p.shape
    (1, 4)
    >>> p.unpack().tolist()
    [[1.0, -1.0, 0.0, 1.0]]
    """
    if isinstance(values, PackedHV):
        return values
    H = np.atleast_2d(np.asarray(values))
    H = check_2d(H, "values")
    if validate and not is_packable(H):
        bad = np.setdiff1d(np.unique(H), (-1.0, 0.0, 1.0))
        raise ValueError(
            "only bipolar/ternary values in {-1, 0, +1} can be bit-packed; "
            f"found level(s) {bad[:4].tolist()} — apply a 'bipolar', "
            "'ternary' or 'ternary-biased' quantizer first"
        )
    width = n_words(H.shape[1])
    return PackedHV(
        signs=_pack_bits(H > 0, width),
        mags=_pack_bits(H != 0, width),
        d=H.shape[1],
    )


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def _check_pair(a: PackedHV, b: PackedHV) -> None:
    if a.d != b.d:
        raise ValueError(f"dimensionality mismatch: {a.d} vs {b.d}")


def hold_shared_support(store: PackedHV) -> PackedHV:
    """``store`` holding the magnitude plane its rows share once.

    Every row of a bipolar class store, and of a §III-C masked one,
    carries the same ``mags`` plane.  Such a store comes back holding
    one aligned, read-only copy of that row, ``mags`` a read-only
    stride-0 ``(n, W)`` view of it (so :attr:`PackedHV.nbytes` counts
    ``signs`` plus one row), and :attr:`PackedHV.shared_support`
    already filled in from the check run here.  A store whose rows
    differ, an empty one, or one already held this way comes back as
    it is.  Values, kernel results and saved bytes do not change.

    Meant for class stores, which are made once and scored many times;
    query batches never come through here.
    """
    if store.n == 0 or store.mags.strides[0] == 0:
        return store
    support = store.shared_support
    if support is None:
        return store
    row = np.array(support.mask)  # a fresh, aligned, C-contiguous copy
    row.flags.writeable = False
    mags = np.broadcast_to(row, store.mags.shape)
    held = PackedHV(signs=store.signs, mags=mags, d=store.d)
    # Prime the cached property: the rows were just compared.
    vars(held)["shared_support"] = support._replace(mask=row)
    return held


def packed_norms(p: PackedHV) -> np.ndarray:
    """ℓ2 norm of each packed row: √(non-zero count), zeros guarded to 1.

    For ternary values the squared magnitudes are all 1, so the norm is
    the square root of the population count of the magnitude plane —
    no unpacking required.
    """
    nnz = popcount(p.mags).sum(axis=1, dtype=np.int64).astype(np.float64)
    return np.sqrt(np.where(nnz == 0, 1.0, nnz))


def shared_support_signs(
    queries: PackedHV, support: SharedSupport | None
) -> np.ndarray | None:
    """``queries.signs & M`` when every query row lies on ``support``.

    The per-call half of the shared-support precondition (the store's
    half is :attr:`PackedHV.shared_support`): ``None`` unless every
    query row's magnitude plane equals the store's ``M``, in which case
    the sign planes come back with any bits outside ``M`` cleared.
    """
    if support is None or not (queries.mags == support.mask).all():
        return None
    return queries.signs & support.mask


#: per-thread flat XOR (uint64) and popcount (uint8) tile buffers of
#: :func:`xor_dot_rows`, grown on demand and kept across calls
_SCRATCH = threading.local()


def xor_dot_rows(
    q_signs: np.ndarray,
    c_signs,
    n_live,
    tenant_of_row: np.ndarray | None = None,
) -> np.ndarray:
    """Shared-support dots ``n_live − 2·popcount(q ^ c)``, int64.

    ``q_signs`` is ``(N, W)``; ``c_signs`` is one ``(C, W)`` store
    scored against every row, or — with ``tenant_of_row`` — a sequence
    of U ``(C, W)`` stores from which each row takes its own tenant's
    (``n_live`` then is a ``(U,)`` array).  Both sides must already be
    masked to the shared plane.  Rows run in tiles of about
    :data:`TILE_WORDS` words whose XOR and popcount reuse a per-thread
    scratch, so a warm call faults no fresh heap.
    """
    n, w = q_signs.shape
    n_classes = (c_signs if tenant_of_row is None else c_signs[0]).shape[0]
    out = np.empty((n, n_classes), dtype=np.int64)
    step = max(1, TILE_WORDS // (n_classes * w))
    words = min(step, n) * n_classes * w
    if getattr(_SCRATCH, "words", -1) < words:
        _SCRATCH.words = words
        _SCRATCH.xor = np.empty(words, dtype=np.uint64)
        _SCRATCH.pop = np.empty(words, dtype=np.uint8)
    xor_buf, pop_buf = _SCRATCH.xor, _SCRATCH.pop
    for s in range(0, n, step):
        rows = min(step, n - s)
        size = rows * n_classes * w
        xor = xor_buf[:size].reshape(rows, n_classes, w)
        if tenant_of_row is None:
            np.bitwise_xor(q_signs[s : s + rows, None, :], c_signs, out=xor)
        else:
            for i in range(rows):
                np.bitwise_xor(
                    q_signs[s + i], c_signs[tenant_of_row[s + i]], out=xor[i]
                )
        counts = popcount(xor, out=pop_buf[:size].reshape(xor.shape))
        counts.sum(axis=2, dtype=np.int64, out=out[s : s + rows])
    live = n_live if tenant_of_row is None else n_live[tenant_of_row][:, None]
    return live - 2 * out


def packed_dot_matrix(a: PackedHV, b: PackedHV) -> np.ndarray:
    """Exact pairwise dot products, shape ``(a.n, b.n)``, int64.

    Shared-support path (``b`` is the class store in
    :func:`packed_class_scores`): when every row of ``a`` and ``b`` has
    the same magnitude plane ``M`` — every bipolar pair, and every
    §III-C masked query against its masked store — one row-tiled
    :func:`xor_dot_rows` pass.  Otherwise the general ternary path
    masks the sign disagreements with the common-support plane, looping
    over the smaller batch so the inner work stays in whole-array NumPy
    ops.
    """
    _check_pair(a, b)
    support = b.shared_support
    q_signs = shared_support_signs(a, support)
    if q_signs is not None:
        return xor_dot_rows(q_signs, support.signs, support.n_live)
    if b.n <= a.n:
        return _dot_loop(a, b)
    return _dot_loop(b, a).T


def _dot_loop(a: PackedHV, b: PackedHV) -> np.ndarray:
    out = np.empty((a.n, b.n), dtype=np.int64)
    for j in range(b.n):
        common = a.mags & b.mags[j]
        disagree = (a.signs ^ b.signs[j]) & common
        out[:, j] = popcount(common).sum(
            axis=1, dtype=np.int64
        ) - 2 * popcount(disagree).sum(axis=1, dtype=np.int64)
    return out


def packed_class_scores(
    queries: PackedHV,
    class_store: PackedHV,
    class_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Eq. (4) class scores on packed operands, shape ``(n, n_classes)``.

    Matches :func:`repro.hd.similarity.class_scores` bit-for-bit on the
    same (ternary) operands: integer dot products divided by the class
    norms.  Query norms are dropped exactly as in the dense path.

    When the store's rows share one magnitude plane ``M`` (cached on
    the store, see :attr:`PackedHV.shared_support`) and every query
    row's magnitude plane is ``M`` as well — bipolar traffic, and
    §III-C masked traffic against its masked store — the dots are
    ``n_live − 2·popcount((Sq & M) ^ (Sc & M))``: one XOR and one
    popcount per word.  Any other batch takes the general ternary
    formula; the two agree exactly wherever both apply.
    """
    if class_norms is None:
        class_norms = packed_norms(class_store)
    class_norms = np.asarray(class_norms, dtype=np.float64)
    if class_norms.shape != (class_store.n,):
        raise ValueError(
            f"class_norms must have shape ({class_store.n},), "
            f"got {class_norms.shape}"
        )
    dots = packed_dot_matrix(queries, class_store).astype(np.float64)
    return dots / class_norms


def packed_hamming_matrix(a: PackedHV, b: PackedHV) -> np.ndarray:
    """Pairwise normalized Hamming distance, shape ``(a.n, b.n)``.

    A dimension "differs" when the unpacked values differ — sign
    disagreement on common support, or zero vs non-zero::

        differs = ((Sa ^ Sb) & Ma & Mb) | (Ma ^ Mb)

    matching ``np.mean(a != b)`` on the dense arrays.
    """
    _check_pair(a, b)
    small_in_b = b.n <= a.n
    x, y = (a, b) if small_in_b else (b, a)
    out = np.empty((x.n, y.n), dtype=np.int64)
    bipolar = x.is_bipolar and y.is_bipolar
    for j in range(y.n):
        if bipolar:
            differs = x.signs ^ y.signs[j]
        else:
            differs = ((x.signs ^ y.signs[j]) & x.mags & y.mags[j]) | (
                x.mags ^ y.mags[j]
            )
        out[:, j] = popcount(differs).sum(axis=1, dtype=np.int64)
    out = out if small_in_b else out.T
    return out / float(a.d)


# ----------------------------------------------------------------------
# backend adapter
# ----------------------------------------------------------------------
from repro.backend.base import (  # noqa: E402  (kernels first, adapter last)
    Backend,
    PreparedClassStore,
    register_backend,
)


@register_backend
class PackedBackend(Backend):
    """XOR+popcount kernels over :class:`PackedHV` operands.

    Requires bipolar/ternary values (pack them with
    :func:`pack_hypervectors` or a packable quantizer's ``.pack``);
    produces class scores numerically identical to the dense backend on
    the same operands, at 64 dimensions per machine word.
    """

    name = "packed"

    # ------------------------------------------------------------------
    def prepare_class_store(self, class_hvs) -> PreparedClassStore:
        packed = hold_shared_support(pack_hypervectors(class_hvs))
        return PreparedClassStore(
            store=packed,
            norms=packed_norms(packed),
            n_classes=packed.n,
            d_hv=packed.d,
            backend_name=self.name,
        )

    def prepare_queries(self, queries) -> PackedHV:
        return pack_hypervectors(queries)

    def supports(self, values) -> bool:
        return isinstance(values, PackedHV) or is_packable(values)

    # ------------------------------------------------------------------
    def dot_matrix(self, queries, references) -> np.ndarray:
        return packed_dot_matrix(
            self.prepare_queries(queries), self.prepare_queries(references)
        ).astype(np.float64)

    def class_scores(self, queries, prepared: PreparedClassStore) -> np.ndarray:
        self._check_prepared(prepared)
        q = self.prepare_queries(queries)
        if q.d != prepared.d_hv:
            raise ValueError(
                f"queries have {q.d} dims, class store has {prepared.d_hv}"
            )
        return packed_class_scores(q, prepared.store, prepared.norms)

    def hamming_matrix(self, a, b) -> np.ndarray:
        return packed_hamming_matrix(
            self.prepare_queries(a), self.prepare_queries(b)
        )
