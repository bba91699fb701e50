"""The versioned, length-prefixed binary wire format of the serving API.

Every byte that crosses the client/cloud boundary of §III-C goes through
this module.  A frame is::

    +----------+---------+-----------+--------------+-----------------+
    | magic 2B | ver 1B  | type 1B   | length 4B BE | payload (length)|
    +----------+---------+-----------+--------------+-----------------+

* ``magic`` — ``b"HD"``; anything else is rejected immediately (a peer
  speaking the wrong protocol never gets to allocate payload buffers);
* ``ver`` — the protocol version of this frame.  Clients open with a
  :class:`~repro.proto.messages.Hello` listing every version they speak;
  the server answers :class:`~repro.proto.messages.Welcome` with the
  highest common one, and both sides stamp it on every later frame;
* ``type`` — one :data:`FrameType` per message dataclass;
* ``length`` — payload bytes to follow, capped at ``max_frame_bytes``
  so a corrupt or hostile length field cannot make the server allocate
  gigabytes.  The cap is enforced from the *header*, before a single
  payload byte is buffered.

Scalar fields are big-endian (network order); bulk arrays are raw
little-endian buffers with their dtype fixed by the message schema
(``<u8`` bit planes, ``<f4`` dense hypervectors, ``<i8`` predictions,
``<f8`` scores) — the natural layout on every platform we serve from,
and 16× smaller than float32 for packed queries.

Zero-copy discipline
--------------------
The codec is sans-io and avoids materializing payload bytes wherever it
can:

* :class:`FrameDecoder` yields frames whose ``payload`` is a read-only
  :class:`memoryview`.  A frame contained entirely in one fed ``bytes``
  chunk is a *view into that chunk* — no copy at all; a frame spanning
  chunks is assembled once into a dedicated per-frame buffer.  Emitted
  views are backed by buffers the decoder never writes again, so they
  stay valid for as long as the caller (or a ``np.frombuffer`` array
  over them) holds on — there is no reuse point to escape past.
* :class:`VectoredWriter` builds a frame as an iovec-style list of
  buffers (the scalar scratch plus one :class:`memoryview` per large
  array plane) for ``socket.sendmsg`` / ``writelines``, instead of
  concatenating everything into one bytes object.
* ``bytes()`` copies happen only at fail-closed edges: string decoding
  and header parsing (a fixed 8-byte scratch).

**The privacy boundary is structural.**  The payload schemas below are
the *only* things this module can serialize, and none of them has a
field for raw ``(d_in,)`` feature vectors, codebooks, or encoder
configs: :func:`encode_message` dispatches on exact message type and
raises for anything else, and every array a
:class:`~repro.proto.messages.ScoreRequest` carries is validated to be a
``d_hv``-wide hypervector batch.  A client simply has no way to put
features on the wire — see ``tests/client/test_privacy_boundary.py``,
which sniffs real frames for feature and codebook bytes.

Malformed input (bad magic, oversize length, truncated payload,
trailing garbage, unknown frame type, undecodable strings) raises
:class:`ProtocolError`, never an arbitrary exception: the fuzz tests in
``tests/proto/test_wire.py`` feed mutated and truncated frames and
assert the decoder fails closed.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from array import array
from enum import IntEnum

import numpy as np

from repro.backend.packed import WORD_BITS, LiveHV, PackedHV, n_words

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "HEADER_SIZE",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameType",
    "FRAME_MIN_VERSION",
    "Frame",
    "ProtocolError",
    "encode_frame",
    "decode_header",
    "FrameDecoder",
    "negotiate_version",
    "MAX_STRING_BYTES",
    "VectoredWriter",
    "PayloadReader",
]

#: first two bytes of every frame
MAGIC = b"HD"

#: the version this build speaks natively.
#:
#: * **v1** — the original conversation: ``ScoreRequest``/``ScoreResponse``
#:   plus model metadata and the handshake.
#: * **v2** — adds the batched scoring frames (the ``counts`` form of
#:   ``ScoreRequest``/``ScoreResponse``, carrying N logical
#:   sub-requests in one frame/one scheduler submit) and extends
#:   ``ModelInfo`` with the deployment mask seed of pruned models.
#: * **v3** — extends the scoring requests with an optional
#:   ``deadline_ms`` budget (the server drops a request unscored when
#:   its budget expires in the queue).  The overload error codes
#:   (``"overloaded"``/``"deadline-exceeded"``) ride the *existing*
#:   error frame as new code strings, so they are version-independent.
#: * **v4** — extends ``ScoreRequest`` and ``ModelInfoRequest`` with
#:   an optional ``tenant`` key (u16 length-prefixed UTF-8, the
#:   standard optional-string encoding) addressing one namespace of a
#:   multi-tenant model fleet.  Absent means the default tenant, so a
#:   v3 peer that negotiates down is served exactly as before; an
#:   unknown key is refused with the typed ``"unknown-tenant"`` error
#:   code (non-retryable).
#: * **v5** — adds the ``live`` query payload kind to ``ScoreRequest``:
#:   only the sign bits at the set positions of the support plane ``M``
#:   (the §III-C keep mask), packed densely and named by a 64-bit
#:   digest of ``M``, so the masked dimensions never leave the client
#:   (632 B instead of 2,512 B per row with 5,000 of 10,000 dimensions
#:   live).  The planes and dense kinds are unchanged; a live payload
#:   stamped below v5 is a :class:`ProtocolError`.
#: * **v6** — extends ``ModelInfo`` with the digest of the model's
#:   *core* support, when it holds one: the live dimensions some level
#:   of the flip chain flips, whose bits are all that depend on the
#:   query.  A client whose rows carry core words on that digest ships
#:   them as an ordinary ``live`` payload (312 B instead of 632 B per
#:   row at 2,484 of 5,000 live dimensions); frame layouts are
#:   unchanged.
PROTOCOL_VERSION = 6

#: every version this build can decode (negotiation picks the highest
#: common entry)
SUPPORTED_VERSIONS = (1, 2, 3, 4, 5, 6)

#: magic(2) + version(1) + frame type(1) + payload length(4, big-endian)
HEADER_SIZE = 8

_HEADER = struct.Struct("!2sBBI")

#: default cap on a single frame's payload (64 MiB) — a hostile length
#: field must not turn into an allocation
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A frame or payload violates the wire format.

    Raised for bad magic, oversize or truncated frames, unknown frame
    types, undecodable payloads, and version mismatches — every way a
    peer can deviate from the protocol maps to this one exception, so
    transports fail closed instead of leaking :mod:`struct` internals.
    """


class FrameType(IntEnum):
    """One wire type byte per message dataclass."""

    HELLO = 1
    WELCOME = 2
    SCORE_REQUEST = 3
    SCORE_RESPONSE = 4
    MODEL_INFO_REQUEST = 5
    MODEL_INFO = 6
    ERROR = 7
    SCORE_BATCH_REQUEST = 8
    SCORE_BATCH_RESPONSE = 9


#: lowest protocol version at which each frame type exists.  Encoding a
#: frame for (or decoding one stamped with) an older version raises
#: :class:`ProtocolError` — a v1 peer must never see a v2-only frame.
FRAME_MIN_VERSION = {
    FrameType.SCORE_BATCH_REQUEST: 2,
    FrameType.SCORE_BATCH_RESPONSE: 2,
}


class Frame:
    """A decoded frame: its protocol version, type byte, and payload.

    ``payload`` is bytes-like — a read-only :class:`memoryview` when it
    comes off a :class:`FrameDecoder` (zero-copy into the receive
    buffer), plain ``bytes`` when constructed by hand.  Either way it
    compares equal to the same bytes and feeds straight into
    ``np.frombuffer``.
    """

    __slots__ = ("version", "frame_type", "payload")

    def __init__(self, version: int, frame_type: int, payload):
        self.version = version
        self.frame_type = frame_type
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        try:
            kind = FrameType(self.frame_type).name
        except ValueError:
            kind = f"0x{self.frame_type:02x}"
        return f"Frame(v{self.version}, {kind}, {len(self.payload)}B)"


def encode_frame(
    frame_type: int, payload: bytes, *, version: int = PROTOCOL_VERSION
) -> bytes:
    """Wrap a payload in the 8-byte header."""
    return _HEADER.pack(MAGIC, version, int(frame_type), len(payload)) + payload


def decode_header(
    header: bytes, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> tuple[int, int, int]:
    """Parse an 8-byte header into ``(version, frame_type, length)``.

    Rejects bad magic and hostile lengths before any payload is read.
    """
    if len(header) != HEADER_SIZE:
        raise ProtocolError(
            f"frame header must be {HEADER_SIZE} bytes, got {len(header)}"
        )
    return _checked_header(header, 0, max_frame_bytes)


def _checked_header(buf, pos: int, max_frame_bytes: int) -> tuple:
    """The header at ``buf[pos:pos + 8]`` as ``(version, frame_type,
    length)``, refusing bad magic and oversize lengths."""
    magic, version, frame_type, length = _HEADER.unpack_from(buf, pos)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    return version, frame_type, length


def negotiate_version(offered, *, supported=None) -> int | None:
    """The highest version both sides speak, or ``None`` if disjoint.

    ``supported`` overrides this build's :data:`SUPPORTED_VERSIONS` —
    how a server pins itself to an older dialect (and how the
    cross-version tests simulate one) without patching the module.
    """
    if supported is None:
        supported = SUPPORTED_VERSIONS
    common = set(int(v) for v in offered) & set(int(v) for v in supported)
    return max(common) if common else None


_EMPTY_PAYLOAD = memoryview(b"")


class FrameDecoder:
    """Incremental zero-copy frame splitter for stream transports.

    Feed arbitrary byte chunks; complete frames come back in order with
    read-only :class:`memoryview` payloads.  A frame lying entirely
    inside one fed ``bytes`` chunk is a view into that chunk (no copy);
    a frame spanning chunks is assembled once into its own buffer.
    Both backing buffers are immutable-after-emit, so payload views —
    and ``np.frombuffer`` arrays over them — stay valid indefinitely.

    The header is parsed the moment its 8 bytes exist, so an oversize
    length field is rejected *before* any payload is buffered: a
    hostile peer cannot make the receiver accumulate ``max_frame_bytes``
    of garbage ahead of the typed error.

    Errors (bad magic, oversize length) are raised on the ``feed`` that
    makes them detectable — after a framing error the stream cannot be
    resynchronized, so transports must close the connection.

    Pull mode (``recv_buffer``/``commit``) inverts the flow for
    blocking sockets: the decoder hands out a writable buffer for
    ``recv_into`` and parses whatever landed — mid-payload the buffer
    *is* the frame's final assembly buffer, so large payloads stream
    from the kernel straight to their resting place with zero
    userspace copies.
    """

    def __init__(self, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._header = bytearray(HEADER_SIZE)
        self._header_fill = 0
        self._version = 0
        self._frame_type = 0
        self._length = -1  # -1: header incomplete
        self._assembly: bytearray | None = None
        self._payload_fill = 0
        self._pull_chunk: bytearray | None = None
        self._pull_direct = False
        #: frames emitted over this decoder's lifetime
        self.frames_decoded = 0
        #: payload bytes that had to be copied (chunk-spanning assembly);
        #: the wire-profile's bytes-copied-per-frame numerator
        self.copied_payload_bytes = 0

    # -- push mode -----------------------------------------------------
    def feed(self, data) -> list[Frame]:
        """Absorb ``data``; return every frame it completes.

        ``bytes`` input is the zero-copy fast path (payload views alias
        the chunk).  Mutable input (``bytearray``/``memoryview``) is
        copied defensively first — the caller may reuse its buffer.
        """
        if isinstance(data, bytes):
            return self._feed(memoryview(data))
        copy = bytes(data)
        self.copied_payload_bytes += len(copy)
        return self._feed(memoryview(copy))

    def _feed(self, mv: memoryview) -> list[Frame]:
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        frames: list[Frame] = []
        pos, end = 0, mv.nbytes
        while pos < end:
            if self._length < 0:
                if self._header_fill == 0 and end - pos >= HEADER_SIZE:
                    header, at = mv, pos  # the whole header in this chunk
                    pos += HEADER_SIZE
                else:
                    take = min(HEADER_SIZE - self._header_fill, end - pos)
                    self._header[
                        self._header_fill : self._header_fill + take
                    ] = mv[pos : pos + take]
                    self._header_fill += take
                    pos += take
                    if self._header_fill < HEADER_SIZE:
                        break
                    header, at = self._header, 0
                self._version, self._frame_type, self._length = (
                    _checked_header(header, at, self.max_frame_bytes)
                )
                if self._length == 0:
                    frames.append(self._emit(_EMPTY_PAYLOAD))
                continue
            length = self._length
            avail = end - pos
            if (
                self._assembly is None
                and self._payload_fill == 0
                and avail >= length
            ):
                # Whole payload inside this chunk: emit a view, no copy.
                frames.append(self._emit(mv[pos : pos + length]))
                pos += length
                continue
            if self._assembly is None:
                self._assembly = bytearray(length)
            take = min(length - self._payload_fill, avail)
            self._assembly[
                self._payload_fill : self._payload_fill + take
            ] = mv[pos : pos + take]
            self.copied_payload_bytes += take
            self._payload_fill += take
            pos += take
            if self._payload_fill == length:
                done = self._assembly
                self._assembly = None
                frames.append(self._emit(memoryview(done).toreadonly()))
        return frames

    def _emit(self, payload: memoryview) -> Frame:
        frame = Frame(self._version, self._frame_type, payload)
        self._length = -1
        self._header_fill = 0
        self._payload_fill = 0
        self.frames_decoded += 1
        return frame

    # -- pull mode (recv_into) -----------------------------------------
    def recv_buffer(self, hint: int = 65536) -> memoryview:
        """A writable buffer to ``recv_into``; commit what landed after.

        Mid-payload this is the tail of the frame's own assembly buffer
        — received bytes go straight to their final resting place.
        Between frames it is a fresh chunk the decoder will parse (and
        alias payload views into) on :meth:`commit`; chunks are never
        reused, so emitted views cannot be invalidated.
        """
        if self._length >= 0:
            if self._assembly is None:
                self._assembly = bytearray(self._length)
            self._pull_direct = True
            return memoryview(self._assembly)[self._payload_fill :]
        self._pull_direct = False
        self._pull_chunk = bytearray(max(int(hint), HEADER_SIZE))
        return memoryview(self._pull_chunk)

    def commit(self, nbytes: int) -> list[Frame]:
        """Account ``nbytes`` received into the last :meth:`recv_buffer`."""
        if nbytes < 0:
            raise ValueError(f"committed byte count must be >= 0: {nbytes}")
        if nbytes == 0:
            return []
        if self._pull_direct:
            self._payload_fill += nbytes
            if self._payload_fill < self._length:
                return []
            done = self._assembly
            self._assembly = None
            return [self._emit(memoryview(done).toreadonly())]
        chunk = self._pull_chunk
        self._pull_chunk = None
        if chunk is None or nbytes > len(chunk):
            raise ValueError(
                "commit() without a matching recv_buffer(), or more bytes "
                "than the buffer holds"
            )
        # The chunk was freshly allocated and is never written again —
        # views into it are as stable as views into bytes.
        return self._feed(memoryview(chunk)[:nbytes])

    # -- state ---------------------------------------------------------
    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        if self._length < 0:
            return self._header_fill
        return HEADER_SIZE + self._payload_fill

    @property
    def awaiting_header(self) -> bool:
        """True between frames or mid-header (no length parsed yet)."""
        return self._length < 0

    @property
    def header_fill(self) -> int:
        """Header bytes received toward the current frame (0..8)."""
        return HEADER_SIZE if self._length >= 0 else self._header_fill

    @property
    def payload_expected(self) -> int:
        """Payload length of the in-progress frame (0 mid-header)."""
        return self._length if self._length >= 0 else 0

    @property
    def payload_received(self) -> int:
        """Payload bytes received toward the in-progress frame."""
        return self._payload_fill


# ----------------------------------------------------------------------
# payload primitives
# ----------------------------------------------------------------------
#: the compiled :class:`struct.Struct` of a field-run format, cached so a
#: run costs one C call per frame however many fields it packs.  Every
#: format the codecs use is fixed; variable-length runs (a batch frame's
#: counts) travel as arrays, so no peer can grow this cache.
_layout = functools.lru_cache(maxsize=256)(struct.Struct)

#: u16 sentinel marking an absent optional string
_NONE_STR = 0xFFFF

#: the longest string a u16-length-prefixed field can carry (0xFFFF is
#: the absent sentinel)
MAX_STRING_BYTES = _NONE_STR - 1

#: wire dtypes of the bulk arrays
U64 = np.dtype("<u8")
I64 = np.dtype("<i8")
F32 = np.dtype("<f4")
F64 = np.dtype("<f8")
#: the :mod:`array` type code of a counts run's entries (u32, sent in
#: network order like the scalar fields) on this platform
_U32_CODE = next(code for code in "IL" if array(code).itemsize == 4)


def unchecked(cls, **fields):
    """A frozen dataclass ``cls`` built without its ``__post_init__``.

    For values a decoder already checked against the wire, so no check
    runs twice: every field must be given, already in its final type.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _utf8(value: str | None) -> tuple[int, bytes]:
    """A string field's u16 length (the sentinel for ``None``) and bytes."""
    if value is None:
        return _NONE_STR, b""
    raw = str(value).encode("utf-8")
    if len(raw) > MAX_STRING_BYTES:
        raise ProtocolError(
            f"string field of {len(raw)} bytes exceeds the wire limit"
        )
    return len(raw), raw


#: arrays at or below this many bytes are staged into the scalar
#: scratch instead of getting their own iovec entry — below it the
#: copy is cheaper than another sendmsg vector slot
_INLINE_ARRAY_BYTES = 1024


class VectoredWriter:
    """Build one frame as an iovec-style buffer list — no concatenation.

    The writing half of the payload vocabulary :class:`PayloadReader`
    reads: fixed-width field runs (:meth:`pack`), optional strings and
    raw arrays.  Instead of joining everything into one ``bytes`` it
    stages the header and scalar fields in a scratch ``bytearray`` and
    keeps each large array plane as a :class:`memoryview` over the
    (contiguous) array itself.
    :meth:`frame_parts` back-fills the header with the final payload
    length and returns the buffer list, ready for ``socket.sendmsg`` or
    ``writelines`` — the transport is the only place payload bytes are
    copied.

    A reusable ``scratch`` makes the scalar staging allocation-free
    across frames (the per-connection write scratch of the serving
    path).  Scratch-backed parts are valid until the scratch is next
    written or cleared — consume them (send/join) before encoding the
    next frame into the same scratch.
    """

    def __init__(self, scratch: bytearray | None = None):
        self._buf = bytearray() if scratch is None else scratch
        self._base = len(self._buf)
        self._buf += b"\x00" * HEADER_SIZE  # header, back-filled at the end
        self._open = self._base
        self._parts: list = []  # (start, end) scratch spans | array views
        self._array_bytes = 0
        #: array bytes copied into the scratch (small inlined arrays) —
        #: the write-side bytes-copied-per-frame numerator
        self.copied_bytes = 0

    def pack(self, fmt: str, *values) -> "VectoredWriter":
        """Append one fixed-width field run: a single ``struct`` call.

        ``fmt`` is a network-order :mod:`struct` format (``"!BBI"``);
        values outside their field's range raise :class:`ProtocolError`
        instead of wrapping.
        """
        try:
            self._buf += _layout(fmt).pack(*values)
        except struct.error as exc:
            raise ProtocolError(f"{fmt} field out of range: {exc}") from exc
        return self

    def pack_text(self, fmt: str, *values) -> "VectoredWriter":
        """A field run whose last value is a string, then its UTF-8 bytes.

        ``fmt`` ends with the string's u16 length field (``H``); ``None``
        writes the absent sentinel.  One ``struct`` call for the run and
        the length together.
        """
        length, raw = _utf8(values[-1])
        self.pack(fmt, *values[:-1], length)
        self._buf += raw
        return self

    def string(self, value: str | None) -> "VectoredWriter":
        """A length-prefixed UTF-8 string; ``None`` is a u16 sentinel."""
        return self.pack_text("!H", value)

    def counts(self, counts) -> "VectoredWriter":
        """A counts run: u16 chunk count, then one u32 per chunk.

        Written as one array, so no ``struct`` format per chunk count.
        """
        if len(counts) > 0xFFFF:
            raise ProtocolError(
                f"{len(counts)} chunks exceed the u16 wire limit"
            )
        try:
            # From a plain tuple: array() reads a tuple subclass (the
            # messages' checked counts) item by item, ~6x slower.
            run = array(_U32_CODE, tuple(counts))
        except OverflowError as exc:
            raise ProtocolError(f"chunk count out of range: {exc}") from exc
        if sys.byteorder == "little":
            run.byteswap()  # network order, like the scalar fields
        self.pack("!H", len(counts))
        self._buf += run
        return self

    def array(self, arr: np.ndarray, dtype) -> "VectoredWriter":
        """Reference ``arr``'s buffer, as wire ``dtype``, as its own part.

        Large arrays become a zero-copy :class:`memoryview` (which
        keeps the contiguous array alive); tiny ones are inlined into
        the scratch where a copy beats an extra iovec slot.
        """
        a = np.ascontiguousarray(arr, dtype=dtype)
        if a.nbytes <= _INLINE_ARRAY_BYTES:
            self._buf += a.tobytes()
            self.copied_bytes += a.nbytes
            return self
        if len(self._buf) > self._open:
            self._parts.append((self._open, len(self._buf)))
        self._parts.append(memoryview(a).cast("B"))
        self._array_bytes += a.nbytes
        self._open = len(self._buf)
        return self

    def frame_parts(self, frame_type: int, version: int) -> list:
        """Close the frame: back-fill the header, return the iovec list.

        The first part always starts with the 8-byte header (followed
        by any scalar fields staged contiguously after it), so the list
        can go to ``sendmsg`` as-is.
        """
        if len(self._buf) > self._open:
            self._parts.append((self._open, len(self._buf)))
            self._open = len(self._buf)
        length = (len(self._buf) - self._base - HEADER_SIZE) + self._array_bytes
        _HEADER.pack_into(
            self._buf, self._base, MAGIC, version, frame_type, length
        )
        scratch = memoryview(self._buf)
        if len(self._parts) == 1:  # header and fields only
            return [scratch[self._base :]]
        return [
            scratch[p[0] : p[1]] if type(p) is tuple else p
            for p in self._parts
        ]


class PayloadReader:
    """Sequential payload parser; every read is bounds-checked.

    Accepts ``bytes`` or a :class:`memoryview` (what
    :class:`FrameDecoder` emits) and never copies payload bytes except
    at the fail-closed edges (string decoding).  Arrays come back as
    ``np.frombuffer`` views over the payload itself.

    :meth:`done` asserts full consumption — trailing garbage after a
    well-formed prefix is a protocol violation, not padding.
    """

    def __init__(self, payload):
        buf = memoryview(payload)
        if buf.ndim != 1 or buf.itemsize != 1:
            buf = buf.cast("B")
        self._buf = buf
        self._pos = 0

    def _advance(self, n: int) -> int:
        """Claim the next ``n`` bytes; return their offset."""
        pos = self._pos
        if pos + n > self._buf.nbytes:
            raise ProtocolError(
                f"payload truncated: needed {n} bytes at offset "
                f"{pos}, only {self._buf.nbytes - pos} left"
            )
        self._pos = pos + n
        return pos

    def peek(self, offset: int = 0) -> int:
        """The byte ``offset`` past the read position, not consumed.

        How a codec picks a run's format from a flag inside it; a
        payload too short to hold the byte is truncated.
        """
        pos = self._pos + offset
        if pos >= self._buf.nbytes:
            raise ProtocolError(
                f"payload truncated: needed a byte at offset {pos}, "
                f"only {self._buf.nbytes} bytes"
            )
        return self._buf[pos]

    def unpack(self, fmt: str) -> tuple:
        """Read one fixed-width field run: one bounds check, one call.

        ``fmt`` is a network-order :mod:`struct` format (``"!BBI"``);
        the run's values come back as a tuple.
        """
        layout = _layout(fmt)
        return layout.unpack_from(self._buf, self._advance(layout.size))

    def unpack_text(self, fmt: str) -> tuple:
        """Read a field run ending in a string's u16 length, then the string.

        The inverse of :meth:`VectoredWriter.pack_text`: the run's
        values, the last one the decoded string (``None`` for the
        absent sentinel).
        """
        *values, length = self.unpack(fmt)
        if length == _NONE_STR:
            values.append(None)
            return values
        pos = self._advance(length)
        try:
            values.append(str(self._buf[pos : pos + length], "utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable string field: {exc}") from exc
        return values

    def string(self) -> str | None:
        """Read a length-prefixed UTF-8 string (``None`` sentinel aware)."""
        return self.unpack_text("!H")[0]

    def counts(self) -> list[int]:
        """Read a counts run (see :meth:`VectoredWriter.counts`): the
        per-chunk u32s, read as one array, not one format per size."""
        (n_chunks,) = self.unpack("!H")
        pos = self._advance(4 * n_chunks)
        run = array(_U32_CODE)
        run.frombytes(self._buf[pos : pos + 4 * n_chunks])
        if sys.byteorder == "little":
            run.byteswap()
        return run.tolist()

    def array(self, shape, dtype) -> np.ndarray:
        """A typed view over the payload bytes — zero-copy, read-only.

        ``shape`` is an element count or a tuple of dimensions.
        Consumers that need to mutate (none on the serving path: the
        scheduler concatenates, the kernels only read) must copy
        themselves; skipping the copy here keeps large query frames off
        the decoder's profile.
        """
        dt = np.dtype(dtype)
        count = math.prod(shape) if type(shape) is tuple else shape
        pos = self._advance(count * dt.itemsize)
        return np.ndarray(shape, dt, self._buf, pos)

    def done(self) -> None:
        """Assert the payload was fully consumed (no trailing bytes)."""
        if self._pos != self._buf.nbytes:
            raise ProtocolError(
                f"{self._buf.nbytes - self._pos} trailing bytes after a "
                "well-formed payload"
            )


# ----------------------------------------------------------------------
# hypervector payload codec (shared by ScoreRequest)
# ----------------------------------------------------------------------
#: query payload kinds (live: protocol v5 and later)
QUERY_DENSE = 0
QUERY_PACKED = 1
QUERY_LIVE = 2


def write_queries(w, queries, version: int) -> None:
    """Serialize a hypervector batch: live words, bit planes or dense f32.

    This is the *only* array-of-hypervectors writer in the protocol.  It
    accepts exactly three shapes of data — a :class:`LiveHV` (v5: the
    sign bits at the support's set positions), a :class:`PackedHV`
    batch (two ``(n, n_words)`` uint64 planes, the §III-C offload
    payload; at v5 its :attr:`~PackedHV.live` words when it has them) or
    a dense 2-D ``(n, d)`` batch — and refuses everything else, which is
    what makes "raw features cannot be framed" a property of the
    encoder rather than a convention: feature matrices are ``(n, d_in)``
    with ``d_in`` unequal to any served ``d_hv``, and 1-D/ragged/object
    inputs never reach a buffer.
    """
    if isinstance(queries, PackedHV) and queries.live is not None:
        if version >= 5:
            queries = queries.live
    if isinstance(queries, LiveHV):
        if version < 5:
            raise ProtocolError(
                f"live query payloads require protocol v5; this "
                f"connection negotiated v{version}"
            )
        w.pack(
            "!BIIIQ", QUERY_LIVE, queries.n, queries.d, queries.n_live,
            queries.digest,
        )
        w.array(queries.words, U64)
        return
    if isinstance(queries, PackedHV):
        w.pack("!BII", QUERY_PACKED, queries.n, queries.d)
        w.array(queries.signs, U64)
        w.array(queries.mags, U64)
        return
    arr = np.asarray(queries)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ProtocolError(
            "queries must be a PackedHV batch or a non-empty 2-D array, "
            f"got shape {getattr(arr, 'shape', None)}"
        )
    if arr.dtype == object:
        raise ProtocolError("object arrays cannot be framed")
    w.pack("!BII", QUERY_DENSE, *arr.shape)
    w.array(arr, F32)


#: the field run that opens each query payload kind (a live header is
#: one run), picked by the kind byte
_QUERY_RUNS = {QUERY_LIVE: "!BIIIQ", QUERY_PACKED: "!BII", QUERY_DENSE: "!BII"}


def read_queries(r: PayloadReader, version: int):
    """Inverse of :func:`write_queries`: a LiveHV, PackedHV or f32 array.

    Each check of the peer's bytes runs once, here; the batch is then
    built without its constructor's (equal) checks.
    """
    kind = r.peek()
    if kind not in _QUERY_RUNS:
        raise ProtocolError(f"unknown query payload kind {kind}")
    if kind == QUERY_LIVE and version < 5:
        raise ProtocolError(
            f"live query payloads require protocol v5, got a "
            f"v{version} frame"
        )
    _, n, d, *live = r.unpack(_QUERY_RUNS[kind])
    if n == 0 or d == 0:
        raise ProtocolError(f"empty query batch on the wire (n={n}, d={d})")
    if kind == QUERY_DENSE:
        return r.array((n, d), F32)
    if kind == QUERY_PACKED:
        shape = (n, n_words(d))
        return unchecked(
            PackedHV, signs=r.array(shape, U64), mags=r.array(shape, U64),
            d=d, live=None, core=None,
        )
    n_live, digest = live
    if n_live > d:
        raise ProtocolError(f"n_live={n_live} exceeds d={d}")
    words = r.array((n, n_words(n_live)), U64)
    tail = n_live % WORD_BITS
    # A list max: cheaper than a NumPy reduce on batches this size.
    if tail and max(words[:, -1].tolist()) >> tail:
        raise ProtocolError(f"live words have bits set past n_live={n_live}")
    return unchecked(LiveHV, words=words, d=d, n_live=n_live, digest=digest)
