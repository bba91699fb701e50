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

**Live words.**  §III-C masks the same dimensions on both sides of
the offload, so every obfuscated query and every stored class of a
masked deployment carry one and the same magnitude plane ``M``.  Only
the sign bits at ``M``'s set positions carry information: packed
densely in ascending order they are the *live words*, ``n_live =
popcount(M)`` bits per row.  A class store whose rows share ``M`` is
held that way (:class:`LiveStore`; a bipolar store's live words are its
sign plane), and a query on ``M`` scores with one XOR and one popcount
per live word::

    dot(q, c)  = n_live − 2·popcount(live(q) ^ live(c))

Queries arrive as a :class:`LiveHV` (the protocol-v5 payload, named by
the :func:`support_digest` of its ``M``), as a :class:`PackedHV`
carrying one, or as plane rows whose magnitude plane is ``M``;
:meth:`LiveStore.live_of` turns all three into one :class:`LiveHV`,
gathering plane rows once (the serving API does it at submit, so a
flush only ever meets live words).  Gathering drops sign bits outside
``M``, which a plane off the wire may carry and which must never
count.  Rows off the support take the general formula above, with
identical results.

**Core words.**  On a level-base encoder's dimensions that no level
flips, every query carries the same public sign ``s_j``.  Only the
*core* ``C = M ∧ varying`` depends on the input, and the dot splits
exactly into a per-class constant and a core term::

    dot(q, c)  = offset_c + n_core − 2·popcount(core(q) ^ core(c))
    offset_c   = Σ_{j ∈ M ∖ C} s_j·c_j

A store can hold its classes on ``C`` as well (:attr:`LiveStore.core`,
whose :attr:`~LiveStore.offsets` are the ``offset_c``), so a query
shipped as core words costs half the bits and half the XOR width.

Tail dimensions beyond ``d`` (when ``d`` is not a multiple of 64) are
zero in **both** planes, so they never contribute to any kernel.

This module is the bottom of the backend layer: it imports nothing from
:mod:`repro.hd`, so both layers can build on it without cycles.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.utils.validation import check_2d

__all__ = [
    "WORD_BITS",
    "PackedHV",
    "LiveHV",
    "LiveStore",
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
    "compact_store",
    "expand_live",
    "support_digest",
    "support_of",
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


def support_digest(support: np.ndarray) -> int:
    """The 64-bit digest of a support plane ``M`` (its little-endian words).

    What a live payload names its support by: the server compares it
    with the digest of the support it serves, so live bits are never
    placed on the wrong dimensions.
    """
    raw = np.ascontiguousarray(support, dtype="<u8").tobytes()
    return int.from_bytes(
        hashlib.blake2b(raw, digest_size=8).digest(), "little"
    )


def support_of(keep: np.ndarray) -> tuple[np.ndarray, int]:
    """A keep mask's support plane ``M`` and its :func:`support_digest`.

    The one derivation of where live words sit, shared by the client's
    obfuscator and encoder, the serving engine and the wire attacks, so
    their digests cannot drift apart.  ``keep`` is ``(d,)`` bool,
    ``True`` on the live dimensions.
    """
    support = pack_sign_planes(np.asarray(keep, dtype=bool))[0]
    return support, support_digest(support)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """An aligned, C-contiguous, read-only copy of ``arr``."""
    out = np.array(arr, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class LiveHV:
    """A batch's sign bits at the set positions of one support plane.

    Row ``r``'s bit ``i`` (word ``i // 64``, little-endian) is the sign
    of its ``i``-th live dimension in ascending order; the dimensions
    off the support are zero.  The protocol-v5 query payload.

    Attributes
    ----------
    words:
        ``(n, ⌈n_live/64⌉)`` uint64; bits past ``n_live`` must be zero
        (the wire decoder refuses any; producers write none).
    d:
        The full dimensionality ``Dhv``.
    n_live:
        ``popcount(M)``: the live dimensions per row.
    digest:
        :func:`support_digest` of the support plane ``M``.
    """

    words: np.ndarray
    d: int
    n_live: int
    digest: int

    def __post_init__(self):
        if not 0 <= self.n_live <= self.d:
            raise ValueError(
                f"n_live={self.n_live} must lie in [0, d={self.d}]"
            )
        width = n_words(self.n_live)
        if self.words.ndim != 2 or self.words.shape[1] != width:
            raise ValueError(
                f"live words must have shape (n, {width}) for "
                f"n_live={self.n_live}, got {self.words.shape}"
            )

    @property
    def n(self) -> int:
        """Number of hypervectors in the batch."""
        return self.words.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(n, d)`` shape of the unpacked batch."""
        return (self.n, self.d)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows) -> "LiveHV":
        """Row-sliced view (slices/arrays of row indices)."""
        return LiveHV(
            np.atleast_2d(self.words[rows]), self.d, self.n_live, self.digest
        )


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
    live:
        The same rows' :class:`LiveHV` on their shared magnitude plane,
        when the producer wrote it alongside the planes (the §III-C
        client does), else ``None``.  Row slicing keeps it; protocol v5
        ships it instead of the planes.
    core:
        The same rows' :class:`LiveHV` on the core support (the live
        dimensions some level flips, see :attr:`LiveStore.core`), when
        a level-base encoder wrote it in the same pass, else ``None``.
        Row slicing keeps it; a client ships it to a server that holds
        that core.
    """

    signs: np.ndarray
    mags: np.ndarray
    d: int
    live: LiveHV | None = None
    core: LiveHV | None = None

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
        for live in (self.live, self.core):
            if live is not None and live.shape != self.shape:
                raise ValueError(
                    f"live words of shape {live.shape} do not match "
                    f"planes of shape {self.shape}"
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

    @property
    def nbytes(self) -> int:
        """Bytes held by both planes."""
        return self.signs.nbytes + self.mags.nbytes

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows) -> "PackedHV":
        """Row-sliced view (slices/arrays of row indices)."""
        signs = np.atleast_2d(self.signs[rows])
        mags = np.atleast_2d(self.mags[rows])
        live = None if self.live is None else self.live[rows]
        core = None if self.core is None else self.core[rows]
        return PackedHV(signs, mags, self.d, live=live, core=core)

    # ------------------------------------------------------------------
    def unpack(self, dtype=np.float32) -> np.ndarray:
        """The dense ``(n, d)`` array this batch packs (exact round-trip)."""
        sign_bits = unpack_bit_planes(self.signs, self.d)
        mag_bits = unpack_bit_planes(self.mags, self.d)
        # Integer arithmetic: avoids float -0.0 on masked dimensions.
        out = (2 * sign_bits.astype(np.int8) - 1) * mag_bits
        return out.astype(dtype)


@dataclass(frozen=True, eq=False)
class LiveStore:
    """A class store whose rows share one support, held as live words.

    Every bipolar and every §III-C masked class store has one magnitude
    plane ``M`` for all its rows; held this way it is 17,688 B for 26
    classes at d_hv=10,000 with 5,000 live, against 65,312 B of planes.
    :func:`compact_store` builds it; :meth:`expand` gives the planes
    back bit for bit.

    Attributes
    ----------
    words:
        ``(n_classes, ⌈n_live/64⌉)`` uint64 live words, read-only.
    support:
        ``(⌈d/64⌉,)`` uint64 — the shared magnitude plane ``M``,
        read-only.
    d:
        The full dimensionality ``Dhv``.
    offsets:
        ``(n_classes,)`` int64 added to every dot, or ``None`` (zero):
        a core store's score on the dimensions it leaves out.
    core:
        The same classes on the core support (a sub-plane of ``M``)
        with their :attr:`offsets`, when the store was built with the
        encoder that fixes the other dimensions' query signs; ``None``
        otherwise.
    """

    words: np.ndarray
    support: np.ndarray
    d: int
    offsets: np.ndarray | None = None
    core: "LiveStore | None" = None

    @cached_property
    def n_live(self) -> int:
        """``popcount(M)``: the dimensions every class is non-zero on."""
        return int(popcount(self.support).sum())

    @cached_property
    def digest(self) -> int:
        """:func:`support_digest` of ``M``."""
        return support_digest(self.support)

    @cached_property
    def base(self) -> np.ndarray:
        """``(n_classes,)`` int64 ``n_live + offsets``: each class's dot
        with a query that agrees on every live bit."""
        base = np.full(self.n, self.n_live, dtype=np.int64)
        return base if self.offsets is None else base + self.offsets

    @property
    def n(self) -> int:
        """Number of classes."""
        return self.words.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(n_classes, d)`` shape of the store."""
        return (self.n, self.d)

    @property
    def nbytes(self) -> int:
        """Bytes held: the live words, one support row and the core."""
        own = self.words.nbytes + self.support.nbytes
        if self.offsets is not None:
            own += self.offsets.nbytes
        return own + (0 if self.core is None else self.core.nbytes)

    def gather(self, planes: np.ndarray) -> np.ndarray:
        """The bits of ``(n, ⌈d/64⌉)`` planes at ``M``'s positions, packed.

        Bits outside ``M`` are dropped, so stray sign bits never count.
        """
        if self.n_live == self.d:  # M covers every dimension: same layout
            return planes & self.support
        dims = np.flatnonzero(unpack_bit_planes(self.support[None], self.d)[0])
        bits = np.take(unpack_bit_planes(planes, self.d), dims, 1)
        return _pack_bits(bits, n_words(self.n_live))

    def expand(self) -> PackedHV:
        """The store's sign/magnitude planes, bit for bit as compacted."""
        mags = np.repeat(self.support[None, :], self.n, axis=0)
        signs = self.words
        if self.n_live != self.d:
            bits = np.zeros((self.n, self.d), dtype=bool)
            dims = np.flatnonzero(unpack_bit_planes(mags[:1], self.d)[0])
            bits[:, dims] = unpack_bit_planes(self.words, self.n_live)
            signs = _pack_bits(bits, n_words(self.d))
        return PackedHV(signs=signs, mags=mags, d=self.d)

    def unpack(self, dtype=np.float32) -> np.ndarray:
        """The dense ``(n_classes, d)`` store (see :meth:`PackedHV.unpack`)."""
        return self.expand().unpack(dtype)

    def held_on(self, digest: int, n_live: int) -> "LiveStore | None":
        """The store live words on that support score against: this one
        or :attr:`core`, whichever it names; ``None`` for neither."""
        for store in (self, self.core):
            if store is not None and (digest, n_live) == (
                store.digest, store.n_live
            ):
                return store
        return None

    def live_of(self, queries) -> LiveHV | None:
        """``queries`` as live words on this store's ``M`` or its core.

        The one normaliser of query shapes: live words on either
        support pass through (``ValueError`` for live words on another
        support); a :class:`PackedHV` gives its :attr:`~PackedHV.core`
        or :attr:`~PackedHV.live` words when they name one, else its
        sign plane gathered once when every row's magnitude plane is
        ``M``.  ``None`` when a plane row is off the support: the
        caller takes the general formula.
        """
        if isinstance(queries, PackedHV):
            for live in (queries.core, queries.live):
                if live is not None and self.held_on(
                    live.digest, live.n_live
                ) is not None:
                    return live
            if not (queries.mags == self.support).all():
                return None
            words = self.gather(queries.signs)
            return LiveHV(words, self.d, self.n_live, self.digest)
        if self.held_on(queries.digest, queries.n_live) is None:
            raise ValueError(
                f"live queries name support {queries.digest:#018x} "
                f"(n_live={queries.n_live}) but the class store is held on "
                f"{self.digest:#018x} (n_live={self.n_live})"
            )
        return queries


def _core_store(held: LiveStore, signs, plane, offsets) -> LiveStore:
    """:func:`compact_store`'s core: ``signs`` on ``plane`` with ``offsets``.

    ``ValueError`` unless ``plane`` is a uint64 sub-plane of ``held``'s
    support and each int64 offset is a possible score on the rest.
    """
    plane, offsets = np.asarray(plane), np.asarray(offsets)
    fits = (
        plane.dtype == np.uint64
        and plane.shape == held.support.shape
        and offsets.dtype == np.int64
        and offsets.shape == (len(signs),)
    )
    if fits:
        core = LiveStore(held.words, _frozen(plane), held.d, _frozen(offsets))
        free = held.n_live - core.n_live
        fits = (
            not (plane & ~held.support).any()
            and (np.abs(offsets) <= free).all()
            and ((offsets - free) % 2 == 0).all()
        )
    if not fits:
        raise ValueError("the core plane and offsets do not fit the store")
    return replace(core, words=_frozen(core.gather(signs)))


def compact_store(store, core=None):
    """``store`` held as a :class:`LiveStore` when its rows share one support.

    Every row of a bipolar class store, and of a §III-C masked one,
    carries the same ``mags`` plane: such a store comes back as its
    live words plus that plane once.  A store whose rows differ, an
    empty one, or one already compacted comes back as it is.  Values,
    kernel results and saved bytes (through :meth:`LiveStore.expand`)
    do not change.

    ``core`` is ``(plane, offsets)``: a sub-plane of the support and
    the per-class offsets of the dimensions it leaves out, held as
    :attr:`LiveStore.core`.  ``ValueError`` when the plane is not
    inside the support, the offsets do not fit it, or the rows do not
    share one support.

    Meant for class stores, which are made once and scored many times.
    """
    if not isinstance(store, PackedHV) or store.n == 0:
        return store
    shared = (store.mags == store.mags[0]).all()
    if not shared and core is None:
        return store
    held = LiveStore(
        words=np.empty((0, 0), dtype=np.uint64),
        support=_frozen(store.mags[0]),
        d=store.d,
    )
    if core is not None:
        if not shared:
            raise ValueError("a core needs rows that share one support")
        core = _core_store(held, store.signs, *core)
    words = _frozen(held.gather(store.signs))
    return LiveStore(words=words, support=held.support, d=store.d, core=core)


def expand_live(queries: LiveHV, support: np.ndarray) -> PackedHV:
    """A :class:`LiveHV` placed on its support plane: the full planes.

    ``support`` must be the plane ``queries.digest`` names; raises
    ``ValueError`` otherwise.  The result keeps ``queries`` as its
    :attr:`PackedHV.live`.
    """
    held = LiveStore(queries.words, np.asarray(support, np.uint64), queries.d)
    if held.digest != queries.digest or held.n_live != queries.n_live:
        raise ValueError("live queries do not lie on the given support")
    planes = held.expand()
    return PackedHV(planes.signs, planes.mags, planes.d, live=queries)


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


def packed_norms(p: PackedHV) -> np.ndarray:
    """ℓ2 norm of each packed row: √(non-zero count), zeros guarded to 1.

    For ternary values the squared magnitudes are all 1, so the norm is
    the square root of the population count of the magnitude plane —
    no unpacking required.  Every row of a :class:`LiveStore` has
    ``n_live`` of them.
    """
    if isinstance(p, LiveStore):
        return np.full(p.n, np.sqrt(p.n_live) if p.n_live else 1.0)
    nnz = popcount(p.mags).sum(axis=1, dtype=np.int64).astype(np.float64)
    return np.sqrt(np.where(nnz == 0, 1.0, nnz))


#: per-thread flat XOR (uint64) and popcount (uint8) tile buffers of
#: :func:`xor_dot_rows`, grown on demand and kept across calls
_SCRATCH = threading.local()


def xor_dot_rows(
    q_signs: np.ndarray,
    c_signs,
    base,
    tenant_of_row: np.ndarray | None = None,
) -> np.ndarray:
    """Shared-support dots ``base − 2·popcount(q ^ c)``, int64.

    ``q_signs`` is ``(N, W)``; ``c_signs`` is one ``(C, W)`` store
    scored against every row, with ``base`` its ``(C,)``
    :attr:`LiveStore.base`, or — with ``tenant_of_row`` — a sequence
    of U ``(C, W)`` stores from which each row takes its own tenant's
    (``base`` then is ``(U, C)``).  Both sides are live words on the
    same support (:class:`LiveStore`).  Rows run in tiles of about
    :data:`TILE_WORDS` words whose XOR and popcount reuse a per-thread
    scratch, so a warm call faults no fresh heap.  Per-word popcounts
    sum in ``uint16`` while a row's ``64·W`` bits fit it, else int64.
    """
    n, w = q_signs.shape
    n_classes = (c_signs if tenant_of_row is None else c_signs[0]).shape[0]
    acc = np.uint16 if w * WORD_BITS < 1 << 16 else np.int64
    out = np.empty((n, n_classes), dtype=acc)
    step = max(1, TILE_WORDS // max(1, n_classes * w))
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
        counts.sum(axis=2, dtype=acc, out=out[s : s + rows])
    dots = np.multiply(out, -2, dtype=np.int64)
    dots += base if tenant_of_row is None else base[tenant_of_row]
    return dots


def _dot_operands(a, b):
    """``(a, b)`` ready for one dot pass: live words and their store, or planes.

    When ``b``'s rows share one magnitude plane ``M`` (a
    :class:`LiveStore`, or planes :func:`compact_store` compacts) and
    ``a`` is on it or on its core, ``(LiveHV, LiveStore)`` — the store
    that support holds (:meth:`LiveStore.live_of`,
    :meth:`LiveStore.held_on`);
    otherwise both as planes, for the general ternary formula.  The
    prologue :func:`packed_dot_matrix` and its compiled twin share.
    """
    _check_pair(a, b)
    store = compact_store(b)
    if isinstance(store, LiveStore):
        live = store.live_of(a)
        if live is not None:
            return live, store.held_on(live.digest, live.n_live)
        b = store.expand() if b is store else b
    if isinstance(a, LiveHV):
        raise ValueError(
            "live queries need a class store held on their support"
        )
    return a, b


def packed_dot_matrix(a, b) -> np.ndarray:
    """Exact pairwise dot products, shape ``(a.n, b.n)``, int64.

    Live-word path (``b`` is the class store in
    :func:`packed_class_scores`): when ``a`` is on the magnitude plane
    ``M`` every row of ``b`` shares (:func:`_dot_operands`), one
    row-tiled :func:`xor_dot_rows` pass over the live words.  Otherwise
    the general ternary path masks the sign disagreements with the
    common-support plane, looping over the smaller batch so the inner
    work stays in whole-array NumPy ops.
    """
    a, b = _dot_operands(a, b)
    if isinstance(a, LiveHV):
        return xor_dot_rows(a.words, b.words, b.base)
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
    *,
    dot=packed_dot_matrix,
) -> np.ndarray:
    """Eq. (4) class scores on packed operands, shape ``(n, n_classes)``.

    Matches :func:`repro.hd.similarity.class_scores` bit-for-bit on the
    same (ternary) operands: integer dot products divided by the class
    norms.  Query norms are dropped exactly as in the dense path.

    When the store's rows share one magnitude plane ``M`` (a
    :class:`LiveStore`) and the queries are on ``M`` as well — bipolar
    traffic, and §III-C masked traffic against its masked store — the
    dots are ``n_live − 2·popcount(live(q) ^ live(c))``: one XOR and
    one popcount per live word.  Any other batch takes the general
    ternary formula; the two agree exactly wherever both apply.
    ``dot`` computes the integer dots (the compiled backend passes its
    own).
    """
    if class_norms is None:
        class_norms = packed_norms(class_store)
    class_norms = np.asarray(class_norms, dtype=np.float64)
    if class_norms.shape != (class_store.n,):
        raise ValueError(
            f"class_norms must have shape ({class_store.n},), "
            f"got {class_norms.shape}"
        )
    return dot(queries, class_store).astype(np.float64) / class_norms


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
        packed = class_hvs
        if not isinstance(packed, LiveStore):
            packed = compact_store(pack_hypervectors(class_hvs))
        return PreparedClassStore(
            store=packed,
            norms=packed_norms(packed),
            n_classes=packed.n,
            d_hv=packed.d,
            backend_name=self.name,
        )

    def prepare_queries(self, queries) -> PackedHV | LiveHV:
        if isinstance(queries, LiveHV):
            return queries
        return pack_hypervectors(queries)

    def supports(self, values) -> bool:
        return isinstance(values, (PackedHV, LiveStore)) or is_packable(values)

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
