"""Sans-io protocol sessions: handshake + framed steady state, no sockets.

:class:`WireSession` is the one protocol state machine both transports
run on — the asyncio :class:`~repro.serve.ServingFrontend` and the
blocking :class:`~repro.client.PriveHDClient` used to each own a copy
of the framing loop (readexactly-per-frame on one side, recv-and-split
on the other); now both ``recv_into`` a session's buffer and pull
:class:`~repro.proto.wire.Frame` objects out, and the session owns

* receive buffering (the zero-copy :class:`~repro.proto.wire.FrameDecoder`
  in its ``recv_into`` pull mode),
* version negotiation state (handshake → steady, with the negotiated
  version enforced on every steady-state frame),
* frame emission (vectored buffer lists staged in a reusable
  per-session scratch — the per-connection write scratch of the reply
  path).

Being sans-io, the same core serves any transport: a blocking socket
calls :func:`sendmsg_all` on :meth:`WireSession.send_parts` output, an
asyncio handler hands :meth:`WireSession.render_frame` to
``transport.write`` (one immutable ``bytes`` per frame — asyncio and
uvloop transports may retain write buffers, so scratch-backed views
must not reach them), and a future thread-per-core acceptor can do
either.

The session screens frames, it does not decode them: message decoding
(and the typed-reply-on-healthy-connection semantics for application
errors) stays with the caller, which is why a malformed *payload* gets
an :class:`~repro.proto.ErrorReply` while a malformed *frame* poisons
the stream.
"""

from __future__ import annotations

from collections import deque

from repro.proto.messages import encode_message_parts
from repro.proto.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    ProtocolError,
    SUPPORTED_VERSIONS,
    FrameDecoder,
    negotiate_version,
)

__all__ = ["WireSession", "parse_address", "sendmsg_all"]

#: scratch bigger than this after a send is released rather than kept
#: (one huge dense frame must not pin its buffer for the connection's
#: lifetime)
_SCRATCH_KEEP_BYTES = 1 << 16


class WireSession:
    """One connection's protocol state: buffering, version, framing.

    Parameters
    ----------
    role:
        ``"server"`` or ``"client"``.  A server session enforces that
        the peer's opening frame is a :class:`~repro.proto.Hello`; a
        client session leaves handshake-reply screening to the caller
        (the reply may legitimately be a typed
        :class:`~repro.proto.ErrorReply`).
    max_frame_bytes:
        Per-frame payload cap, enforced from the header before any
        payload is buffered.
    supported_versions:
        Versions this side negotiates (default: everything this build
        speaks).

    Receive flow: :meth:`recv_buffer`/:meth:`commit` (pull, for
    ``recv_into``) buffer incoming bytes; :meth:`next_frame` pops one
    screened frame at a time — screening happens at *pop* time, so a
    frame pipelined behind the handshake is judged against the
    negotiated version, not the pre-handshake state.  Send flow:
    :meth:`send_parts` (vectored, for synchronous transports) or
    :meth:`render_frame` (one ``bytes``, for buffering transports),
    both stamping the negotiated version unless overridden.
    """

    def __init__(
        self,
        role: str,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        supported_versions: tuple[int, ...] | None = None,
    ):
        if role not in ("server", "client"):
            raise ValueError(
                f"role must be 'server' or 'client', got {role!r}"
            )
        self.role = role
        self.supported_versions = (
            tuple(SUPPORTED_VERSIONS)
            if supported_versions is None
            else tuple(sorted(int(v) for v in supported_versions))
        )
        #: the version both sides stamp on steady-state frames;
        #: ``None`` until the handshake completes
        self.negotiated: int | None = None
        self._decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self._queue: deque[Frame] = deque()
        self._scratch = bytearray()
        #: frames sent through this session
        self.tx_frames = 0
        #: payload bytes staged through the scratch per send (scalar
        #: fields + inlined small arrays) — the write-side copy count;
        #: large array planes go by reference and never appear here
        self.tx_copied_bytes = 0

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def recv_buffer(self, hint: int = 65536) -> memoryview:
        """A writable buffer for ``recv_into`` (zero-copy pull mode)."""
        return self._decoder.recv_buffer(hint)

    def commit(self, nbytes: int) -> int:
        """Account bytes received into :meth:`recv_buffer`.

        Returns how many frames they completed; completed frames queue
        internally — drain them one at a time with :meth:`next_frame`.
        Framing violations (bad magic, oversize length) raise here and
        poison the stream.
        """
        frames = self._decoder.commit(nbytes)
        self._queue.extend(frames)
        return len(frames)

    def next_frame(self) -> Frame | None:
        """Pop the next buffered frame (screened), or ``None``.

        Screening: before the handshake a server session requires the
        opening frame to be a :class:`~repro.proto.Hello`; after it,
        both roles require every frame to carry the negotiated version.
        Violations raise :class:`~repro.proto.ProtocolError` with the
        stream poisoned — the transport should send a best-effort
        ``bad-frame`` reply and close.
        """
        if not self._queue:
            return None
        frame = self._queue.popleft()
        if self.negotiated is not None:
            if frame.version != self.negotiated:
                raise ProtocolError(
                    f"frame version {frame.version} after "
                    f"negotiating {self.negotiated}"
                )
        elif (
            self.role == "server"
            and frame.frame_type != FrameType.HELLO
        ):
            raise ProtocolError("connection must open with a Hello frame")
        return frame

    def receive_eof(self) -> None:
        """Validate an EOF: clean between frames, an error mid-frame.

        Raises :class:`~repro.proto.ProtocolError` when the peer hung
        up mid-header or mid-payload (with queued complete frames still
        drainable first — call after :meth:`next_frame` returns None).
        """
        d = self._decoder
        if self._queue:
            return
        if d.awaiting_header:
            if d.header_fill == 0:
                return
            raise ProtocolError(
                f"connection closed mid-header ({d.header_fill} bytes)"
            )
        raise ProtocolError(
            f"connection closed mid-payload "
            f"({d.payload_received}/{d.payload_expected} bytes)"
        )

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return self._decoder.pending_bytes

    @property
    def has_frames(self) -> bool:
        """Whether buffered complete frames await :meth:`next_frame`."""
        return bool(self._queue)

    # ------------------------------------------------------------------
    # handshake
    # ------------------------------------------------------------------
    def accept_hello(self, versions) -> int | None:
        """Server side: negotiate against the client's offered versions.

        Returns the agreed version (now enforced on every later frame)
        or ``None`` when the offers are disjoint — the caller sends the
        typed ``unsupported-version`` reply and closes.
        """
        version = negotiate_version(
            versions, supported=self.supported_versions
        )
        if version is not None:
            self.negotiated = version
        return version

    def adopt_version(self, version: int) -> None:
        """Client side: enter steady state at the server's version."""
        self.negotiated = int(version)

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def send_parts(self, message, *, version: int | None = None) -> list:
        """Encode one message as a vectored buffer list (iovec-style).

        Staged in the session's reusable scratch: the returned parts
        are valid until the *next* ``send_parts``/``render_frame`` call
        — consume them synchronously (``sendmsg``) before encoding
        again.  Stamps the negotiated version unless overridden.
        """
        v = version if version is not None else self.version
        self._reset_scratch()
        w_before = len(self._scratch)
        parts = encode_message_parts(
            message, version=v, scratch=self._scratch
        )
        self.tx_frames += 1
        self.tx_copied_bytes += max(0, len(self._scratch) - w_before - 8)
        return parts

    def render_frame(self, message, *, version: int | None = None) -> bytes:
        """Encode one message as a single immutable ``bytes`` frame.

        For buffering transports (asyncio/uvloop may retain write
        buffers, so scratch views must not reach them): the one
        explicit copy point of the reply path, reusing the session
        scratch for staging instead of allocating a builder per frame.
        """
        parts = self.send_parts(message, version=version)
        if len(parts) == 1:
            return bytes(parts[0])
        return b"".join(parts)

    @property
    def version(self) -> int:
        """The version to stamp: negotiated, else this build's native."""
        return (
            self.negotiated
            if self.negotiated is not None
            else PROTOCOL_VERSION
        )

    def _reset_scratch(self) -> None:
        # Exports from the previous send normally died when its parts
        # were consumed; if something still holds one, leave that
        # buffer intact and start fresh rather than corrupt it.
        if len(self._scratch) > _SCRATCH_KEEP_BYTES:
            self._scratch = bytearray()
            return
        try:
            self._scratch.clear()
        except BufferError:
            self._scratch = bytearray()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Copy/throughput counters for the wire profile."""
        d = self._decoder
        return {
            "rx_frames": d.frames_decoded,
            "rx_copied_bytes": d.copied_payload_bytes,
            "tx_frames": self.tx_frames,
            "tx_copied_bytes": self.tx_copied_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WireSession({self.role}, negotiated={self.negotiated}, "
            f"pending={self.pending_bytes}B)"
        )


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` (or an already-split tuple) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"address must look like 'host:port', got {address!r}"
        )
    return host, int(port)


def sendmsg_all(sock, parts) -> int:
    """Send a vectored buffer list fully over a blocking socket.

    ``socket.sendmsg`` gathers the whole frame — header, scalar
    scratch, array planes — in one syscall with zero userspace
    concatenation; short writes continue from the exact byte where the
    kernel stopped.  Falls back to ``sendall`` over a join where
    ``sendmsg`` does not exist.  Returns the bytes sent.
    """
    bufs = []
    for p in parts:
        m = p if isinstance(p, memoryview) else memoryview(p)
        if m.ndim != 1 or m.itemsize != 1:
            m = m.cast("B")
        if m.nbytes:
            bufs.append(m)
    total = sum(m.nbytes for m in bufs)
    if not bufs:
        return 0
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX
        sock.sendall(b"".join(bufs))
        return total
    sent = 0
    while bufs:
        n = sock.sendmsg(bufs)
        sent += n
        while bufs and n >= bufs[0].nbytes:
            n -= bufs[0].nbytes
            bufs.pop(0)
        if bufs and n:
            bufs[0] = bufs[0][n:]
    return sent
