"""Unit tests for the sans-io :class:`repro.proto.WireSession` core.

Covers the receive state machine (``recv_buffer``/``commit``, pop-time
screening, EOF classification), the handshake transitions, the
scratch-staged vectored send path with its copy counters, the
``sendmsg_all`` gather-write loop against fake sockets, and the
no-escape property: payload memoryviews emitted by the decoder must
stay valid and unchanged no matter what the session buffers next.
"""

import numpy as np
import pytest

from repro.proto import (
    FrameType,
    ProtocolError,
    WireSession,
    decode_message,
    encode_message,
)
from repro.proto.messages import Hello, ModelInfoRequest, ScoreRequest, Welcome
from repro.proto.session import _SCRATCH_KEEP_BYTES, sendmsg_all


def _hello_bytes(versions=(1, 2, 3)):
    return encode_message(Hello(versions=versions, client="t"), version=min(versions))


def _feed(session, data) -> None:
    """Copy ``data`` into ``session`` as ``recv_into`` would: through
    ``recv_buffer``/``commit``.

    Mid-payload ``recv_buffer`` offers only the frame's remaining
    bytes, so one chunk may take several copies.
    """
    data = memoryview(data)
    while data:
        buf = session.recv_buffer(len(data))
        take = min(len(buf), len(data))
        buf[:take] = data[:take]
        session.commit(take)
        data = data[take:]


def _info_bytes(version):
    return encode_message(
        ModelInfoRequest(model=None, request_id=1), version=version
    )


class TestScreening:
    def test_role_is_validated(self):
        with pytest.raises(ValueError, match="role must be"):
            WireSession("peer")

    def test_server_rejects_non_hello_opening(self):
        s = WireSession("server")
        _feed(s, _info_bytes(3))
        with pytest.raises(
            ProtocolError, match="connection must open with a Hello frame"
        ):
            s.next_frame()

    def test_server_accepts_hello_opening(self):
        s = WireSession("server")
        _feed(s, _hello_bytes())
        frame = s.next_frame()
        assert frame.frame_type == FrameType.HELLO

    def test_version_enforced_after_negotiation(self):
        s = WireSession("server")
        _feed(s, _hello_bytes())
        s.next_frame()
        assert s.accept_hello((1, 2, 3)) == 3
        _feed(s, _info_bytes(1))
        with pytest.raises(
            ProtocolError, match="frame version 1 after negotiating 3"
        ):
            s.next_frame()

    def test_screening_happens_at_pop_time(self):
        """A frame pipelined behind the Hello is judged post-handshake.

        Both frames are buffered before the handshake runs; the second
        must be screened against the *negotiated* version, not the
        pre-handshake state (where a server would reject any non-Hello).
        """
        s = WireSession("server")
        _feed(s, _hello_bytes() + _info_bytes(3))
        assert s.next_frame().frame_type == FrameType.HELLO
        s.accept_hello((3,))
        frame = s.next_frame()
        assert frame.frame_type == FrameType.MODEL_INFO_REQUEST
        assert s.next_frame() is None

    def test_client_does_not_screen_handshake_reply(self):
        # The server's reply may be Welcome or a typed ErrorReply; the
        # client session leaves that judgement to the caller.
        s = WireSession("client")
        _feed(s, _info_bytes(2))
        assert s.next_frame() is not None

    def test_disjoint_offers_do_not_negotiate(self):
        s = WireSession("server", supported_versions=(2, 3))
        assert s.accept_hello((99,)) is None
        assert s.negotiated is None

    def test_adopt_version_enters_steady_state(self):
        s = WireSession("client")
        assert s.version == max(s.supported_versions)
        s.adopt_version(2)
        assert s.version == 2
        _feed(s, _info_bytes(3))
        with pytest.raises(ProtocolError, match="after negotiating 2"):
            s.next_frame()


class TestEofClassification:
    def test_clean_eof_between_frames(self):
        s = WireSession("client")
        _feed(s, _info_bytes(3))
        s.next_frame()
        s.receive_eof()  # no exception

    def test_eof_mid_header(self):
        s = WireSession("client")
        _feed(s, b"HD\x03")
        with pytest.raises(
            ProtocolError, match=r"closed mid-header \(3 bytes\)"
        ):
            s.receive_eof()

    def test_eof_mid_payload(self):
        s = WireSession("client")
        data = _info_bytes(3)
        _feed(s, data[:-2])
        with pytest.raises(ProtocolError, match=r"closed mid-payload"):
            s.receive_eof()

    def test_eof_with_drainable_frames_is_silent(self):
        # Complete frames must be drainable before the EOF verdict.
        s = WireSession("client")
        _feed(s, _info_bytes(3))
        s.receive_eof()
        assert s.has_frames


class TestPullMode:
    def test_recv_into_cycle_decodes_frames(self):
        s = WireSession("client")
        wire = _info_bytes(3) + _info_bytes(3)
        pos = 0
        frames = []
        while pos < len(wire):
            buf = s.recv_buffer(16)
            take = min(len(buf), len(wire) - pos, 5)
            buf[:take] = wire[pos : pos + take]
            pos += take
            s.commit(take)
            while (f := s.next_frame()) is not None:
                frames.append(f)
        assert len(frames) == 2
        assert s.pending_bytes == 0
        for f in frames:
            msg = decode_message(f)
            assert isinstance(msg, ModelInfoRequest)

    def test_pending_bytes_tracks_partial_frame(self):
        s = WireSession("client")
        assert s.pending_bytes == 0
        _feed(s, _info_bytes(3)[:11])
        assert s.pending_bytes == 11


class TestSendSide:
    def test_send_parts_counts_frames_and_staged_bytes(self):
        s = WireSession("client")
        msg = ModelInfoRequest(model="isolet", request_id=5)
        parts = s.send_parts(msg, version=3)
        wire = b"".join(bytes(p) for p in parts)
        assert wire == encode_message(msg, version=3)
        st = s.stats()
        assert st["tx_frames"] == 1
        # Everything in this small frame beyond the 8-byte header was
        # staged through the scratch.
        assert st["tx_copied_bytes"] == len(wire) - 8

    def test_array_planes_bypass_the_scratch(self):
        s = WireSession("client")
        q = np.random.default_rng(1).standard_normal((4, 256)).astype(np.float32)
        msg = ScoreRequest(queries=q, model=None, want_scores=False, request_id=1)
        parts = s.send_parts(msg, version=3)
        wire = b"".join(bytes(p) for p in parts)
        assert wire == encode_message(msg, version=3)
        # The 4 KiB of query payload goes by reference, not through the
        # scratch: staged bytes stay far below the frame size.
        assert s.stats()["tx_copied_bytes"] < len(wire) - q.nbytes

    def test_scratch_reuse_is_correct_across_sends(self):
        s = WireSession("client")
        m1 = ModelInfoRequest(model="a" * 200, request_id=1)
        m2 = ModelInfoRequest(model="b", request_id=2)
        assert b"".join(
            bytes(p) for p in s.send_parts(m1, version=3)
        ) == encode_message(m1, version=3)
        assert b"".join(
            bytes(p) for p in s.send_parts(m2, version=3)
        ) == encode_message(m2, version=3)

    def test_pinned_scratch_does_not_corrupt_next_send(self):
        """A leaked export forces a fresh scratch, never corruption."""
        s = WireSession("client")
        m1 = ModelInfoRequest(model="pinned", request_id=1)
        parts1 = s.send_parts(m1, version=3)
        before = b"".join(bytes(p) for p in parts1)
        pinned = parts1  # still exporting views of the scratch
        m2 = ModelInfoRequest(model="next", request_id=2)
        parts2 = s.send_parts(m2, version=3)
        assert b"".join(bytes(p) for p in parts2) == encode_message(
            m2, version=3
        )
        # The pinned views from the first send are untouched.
        assert b"".join(bytes(p) for p in pinned) == before

    def test_oversized_scratch_is_released(self):
        s = WireSession("client")
        s._scratch = bytearray(_SCRATCH_KEEP_BYTES + 1)
        s.send_parts(ModelInfoRequest(model=None, request_id=1), version=3)
        assert len(s._scratch) <= _SCRATCH_KEEP_BYTES

    def test_render_frame_equals_joined_parts(self):
        s = WireSession("server")
        msg = Welcome(version=3, server="s", models=("m",))
        assert s.render_frame(msg, version=3) == encode_message(msg, version=3)

    def test_send_stamps_negotiated_version(self):
        s = WireSession("client")
        s.adopt_version(1)
        wire = s.render_frame(ModelInfoRequest(model=None, request_id=1))
        assert wire[2] == 1  # header version byte


class _GatherSocket:
    """Fake socket whose sendmsg accepts at most ``cap`` bytes per call."""

    def __init__(self, cap=None):
        self.cap = cap
        self.received = bytearray()
        self.calls = 0

    def sendmsg(self, buffers):
        self.calls += 1
        budget = self.cap if self.cap is not None else sum(
            b.nbytes for b in buffers
        )
        sent = 0
        for b in buffers:
            take = min(b.nbytes, budget - sent)
            self.received += bytes(b[:take])
            sent += take
            if sent == budget:
                break
        return sent


class _SendallSocket:
    def __init__(self):
        self.received = bytearray()

    def sendall(self, data):
        self.received += data


class TestSendmsgAll:
    def test_single_syscall_gathers_all_parts(self):
        sock = _GatherSocket()
        n = sendmsg_all(sock, [b"head", b"", memoryview(b"tail")])
        assert n == 8
        assert bytes(sock.received) == b"headtail"
        assert sock.calls == 1

    def test_partial_sends_resume_mid_buffer(self):
        sock = _GatherSocket(cap=3)
        parts = [b"abcd", b"efg", b"hijkl"]
        n = sendmsg_all(sock, parts)
        assert n == 12
        assert bytes(sock.received) == b"abcdefghijkl"
        assert sock.calls == 4  # ceil(12 / 3)

    def test_empty_parts_send_nothing(self):
        sock = _GatherSocket()
        assert sendmsg_all(sock, [b"", memoryview(b"")]) == 0
        assert sock.calls == 0

    def test_multibyte_itemsize_views_are_cast(self):
        arr = np.arange(4, dtype=np.uint64)
        sock = _GatherSocket(cap=7)
        n = sendmsg_all(sock, [memoryview(arr)])
        assert n == 32
        assert bytes(sock.received) == arr.tobytes()

    def test_sendall_fallback_without_sendmsg(self):
        sock = _SendallSocket()
        n = sendmsg_all(sock, [b"ab", b"cd"])
        assert n == 4
        assert bytes(sock.received) == b"abcd"

    def test_real_frame_over_fake_socket_is_byte_identical(self):
        s = WireSession("client")
        q = np.random.default_rng(2).standard_normal((2, 64)).astype(np.float32)
        msg = ScoreRequest(queries=q, model=None, want_scores=True, request_id=9)
        sock = _GatherSocket(cap=129)  # force awkward split points
        sendmsg_all(sock, s.send_parts(msg, version=3))
        assert bytes(sock.received) == encode_message(msg, version=3)


class TestNoEscape:
    """Emitted payload views survive any subsequent buffer activity."""

    def test_copied_chunk_views_survive_later_feeds(self):
        s = WireSession("client")
        reference = _info_bytes(3)
        _feed(s, reference)
        frame = s.next_frame()
        view = frame.payload
        snapshot = bytes(view)
        # Hammer the session with more traffic, including partial
        # frames that exercise the assembly buffer.
        for _ in range(50):
            data = _info_bytes(3)
            _feed(s, data[:5])
            _feed(s, data[5:])
            s.next_frame()
        assert bytes(view) == snapshot
        assert decode_message(frame).request_id == 1

    def test_pull_mode_views_survive_buffer_recycling(self):
        s = WireSession("client")
        held = []
        wire = b"".join(_info_bytes(3) for _ in range(20))
        pos = 0
        while pos < len(wire):
            buf = s.recv_buffer(32)
            take = min(len(buf), len(wire) - pos)
            buf[:take] = wire[pos : pos + take]
            pos += take
            s.commit(take)
            while (f := s.next_frame()) is not None:
                held.append((f, bytes(f.payload)))
        assert len(held) == 20
        for frame, snapshot in held:
            assert bytes(frame.payload) == snapshot
            assert decode_message(frame).request_id == 1

    def test_numpy_arrays_over_payload_views_stay_valid(self):
        s = WireSession("client")
        q = np.random.default_rng(3).standard_normal((8, 130)).astype(np.float32)
        msg = ScoreRequest(queries=q, model=None, want_scores=False, request_id=4)
        _feed(s, encode_message(msg, version=3))
        decoded = decode_message(s.next_frame())
        arr = decoded.queries  # np.frombuffer over the payload view
        # Keep receiving; the decoded array must not shift underneath.
        for _ in range(10):
            _feed(s, _info_bytes(3))
            s.next_frame()
        np.testing.assert_array_equal(arr, q)

    def test_payload_views_are_read_only_when_assembled(self):
        s = WireSession("client")
        data = _info_bytes(3)
        _feed(s, data[:9])
        _feed(s, data[9:])  # spans chunks -> assembly buffer
        frame = s.next_frame()
        assert frame.payload.readonly
