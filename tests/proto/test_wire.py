"""Wire format: framing, negotiation, and fail-closed decoding.

The fuzz classes feed truncated, mutated, and hostile byte streams to
the decoder and assert every failure is a :class:`ProtocolError` —
never a stray struct/unicode/numpy exception, and never silent
acceptance of garbage.
"""

import struct

import numpy as np
import pytest

from repro.backend.packed import PackedHV, pack_hypervectors
from repro.proto import (
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Frame,
    FrameDecoder,
    FrameType,
    Hello,
    ProtocolError,
    ScoreRequest,
    decode_header,
    decode_message,
    encode_frame,
    encode_message,
    negotiate_version,
)
from repro.proto.wire import MAX_STRING_BYTES, PayloadReader, VectoredWriter
from repro.utils import spawn


def _payload(w: VectoredWriter) -> bytes:
    """The payload bytes ``w`` staged, without the frame header."""
    return b"".join(w.frame_parts(0, PROTOCOL_VERSION))[HEADER_SIZE:]


def _packed(n=3, d=130, seed=0):
    rng = spawn(seed, "wire-tests")
    return pack_hypervectors(
        np.where(rng.normal(size=(n, d)) >= 0, 1.0, -1.0)
    )


class TestFraming:
    def test_header_layout(self):
        frame = encode_frame(FrameType.HELLO, b"abc")
        assert frame[:2] == MAGIC
        assert frame[2] == PROTOCOL_VERSION
        assert frame[3] == FrameType.HELLO
        assert struct.unpack("!I", frame[4:8])[0] == 3
        assert frame[8:] == b"abc"

    def test_decode_header_round_trip(self):
        frame = encode_frame(FrameType.ERROR, b"x" * 17, version=1)
        version, frame_type, length = decode_header(frame[:HEADER_SIZE])
        assert (version, frame_type, length) == (1, FrameType.ERROR, 17)

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(FrameType.HELLO, b""))
        frame[0] = 0x58
        with pytest.raises(ProtocolError, match="magic"):
            decode_header(bytes(frame[:HEADER_SIZE]))

    def test_hostile_length_rejected_before_allocation(self):
        header = struct.pack("!2sBBI", MAGIC, 1, 1, 1 << 31)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_header(header)

    def test_short_header_rejected(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_header(b"HD\x01")

    def test_incremental_decoder_reassembles_split_frames(self):
        msgs = [encode_message(Hello()), encode_message(Hello(client="b"))]
        stream = b"".join(msgs)
        decoder = FrameDecoder()
        frames = []
        for i in range(0, len(stream), 3):  # drip-feed 3 bytes at a time
            frames.extend(decoder.feed(stream[i : i + 3]))
        assert len(frames) == 2
        assert decoder.pending_bytes == 0
        assert decode_message(frames[1]).client == "b"

    def test_truncated_stream_yields_nothing(self):
        frame = encode_message(Hello())
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes == len(frame) - 1

    def test_negotiation_picks_highest_common(self):
        assert negotiate_version((1,)) == 1
        assert negotiate_version(SUPPORTED_VERSIONS + (7, 200)) == max(
            SUPPORTED_VERSIONS
        )
        assert negotiate_version((99,)) is None
        assert negotiate_version(()) is None

    def test_negotiation_respects_pinned_supported_set(self):
        # A server pinned to v1 downgrades a v1+v2 client to v1.
        assert negotiate_version(SUPPORTED_VERSIONS, supported=(1,)) == 1
        assert negotiate_version((2,), supported=(1,)) is None


class TestPayloadPrimitives:
    def test_scalars_round_trip(self):
        w = VectoredWriter()
        w.pack("!BHI", 7, 515, 1 << 30).pack("!d", -2.5)
        w.string("héllo").string(None)
        r = PayloadReader(_payload(w))
        assert r.unpack("!BHI") == (7, 515, 1 << 30)
        assert r.unpack("!d") == (-2.5,)
        assert r.string() == "héllo"
        assert r.string() is None
        r.done()

    def test_truncated_payload_raises(self):
        r = PayloadReader(b"\x00")
        with pytest.raises(ProtocolError, match="truncated"):
            r.unpack("!I")

    def test_field_run_out_of_range_raises(self):
        with pytest.raises(ProtocolError, match="out of range"):
            VectoredWriter().pack("!BI", 1, 1 << 32)

    def test_trailing_garbage_raises(self):
        r = PayloadReader(_payload(VectoredWriter().pack("!B", 1)) + b"zz")
        r.unpack("!B")
        with pytest.raises(ProtocolError, match="trailing"):
            r.done()

    def test_undecodable_string_raises(self):
        payload = struct.pack("!H", 2) + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="undecodable"):
            PayloadReader(payload).string()

    def test_oversize_string_rejected_at_write(self):
        VectoredWriter().string("x" * MAX_STRING_BYTES)
        with pytest.raises(ProtocolError, match="limit"):
            VectoredWriter().string("x" * (MAX_STRING_BYTES + 1))


class TestFuzz:
    """Mutated and truncated frames must fail closed."""

    def _score_frame(self):
        return encode_message(
            ScoreRequest(queries=_packed(), model="m", request_id=3)
        )

    def test_every_truncation_point_fails_closed(self):
        frame = self._score_frame()
        for cut in range(HEADER_SIZE, len(frame)):
            truncated = frame[:cut]
            decoder = FrameDecoder()
            frames = decoder.feed(truncated)
            if not frames:
                continue  # incomplete frame: decoder just waits
            with pytest.raises(ProtocolError):
                decode_message(frames[0])

    def test_random_byte_mutations_never_crash(self):
        rng = spawn(7, "fuzz-mutate")
        frame = bytearray(self._score_frame())
        survived = 0
        for _ in range(300):
            mutated = bytearray(frame)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(mutated)))
                mutated[pos] = int(rng.integers(0, 256))
            decoder = FrameDecoder()
            try:
                for f in decoder.feed(bytes(mutated)):
                    decode_message(f)
                survived += 1
            except ProtocolError:
                pass  # the only acceptable failure mode
        # Some mutations (payload bit flips) still parse — that's fine;
        # the point is nothing ever escapes as a non-ProtocolError.
        assert survived >= 0

    def test_random_garbage_never_crashes(self):
        rng = spawn(8, "fuzz-garbage")
        for _ in range(200):
            blob = rng.integers(0, 256, int(rng.integers(1, 200))).astype(
                np.uint8
            ).tobytes()
            decoder = FrameDecoder()
            try:
                for f in decoder.feed(blob):
                    decode_message(f)
            except ProtocolError:
                pass

    def test_unknown_frame_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_message(Frame(1, 0x63, b""))

    def test_version_skew_is_visible_in_header(self):
        # A frame stamped with a future version still frames correctly —
        # version policy is the transport's job, so the header must
        # surface it faithfully.
        frame = encode_message(Hello(versions=(1,)), version=3)
        version, _, _ = decode_header(frame[:HEADER_SIZE])
        assert version == 3
