"""Wire format: framing, negotiation, and fail-closed decoding.

The fuzz classes feed truncated, mutated, and hostile byte streams to
the decoder and assert every failure is a :class:`ProtocolError` —
never a stray struct/unicode/numpy exception, and never silent
acceptance of garbage.
"""

import struct

import numpy as np
import pytest

from repro.backend.packed import (
    LiveHV,
    PackedHV,
    compact_store,
    pack_hypervectors,
)
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import LevelBaseEncoder
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


def _live_rows(n, d=130, n_live=70, seed=1):
    """``n`` rows as live words on one random ``n_live``-dim support."""
    rng = spawn(seed, "wire-tests-live")
    keep = np.zeros(d, dtype=bool)
    keep[rng.permutation(d)[:n_live]] = True
    planes = pack_hypervectors(rng.choice([-1.0, 1.0], size=(n, d)) * keep)
    held = compact_store(planes)
    return LiveHV(held.gather(planes.signs), d, held.n_live, held.digest)


def _core_rows(n, seed=2):
    """``n`` level-base client rows as their v6 core words."""
    encoder = LevelBaseEncoder(8, 200, seed=seed)
    obfuscator = InferenceObfuscator(
        encoder, ObfuscationConfig(n_masked=80, mask_seed=seed)
    )
    X = spawn(seed, "wire-tests-core").uniform(0, 1, (n, 8))
    return obfuscator.prepare_packed(X, words="core")


#: the frames the fuzz tests mutate: id -> (message, protocol version)
_FUZZ_FRAMES = {
    "v6_planes": lambda: (
        ScoreRequest(queries=_packed(), model="m", request_id=3), 6
    ),
    "v6_live_tenant_deadline": lambda: (
        ScoreRequest(
            queries=_live_rows(1), tenant="t0042", deadline_ms=250,
            request_id=9,
        ),
        6,
    ),
    "v6_core": lambda: (
        ScoreRequest(queries=_core_rows(3), model="m", request_id=4), 6
    ),
    "v2_batch_counts": lambda: (
        ScoreRequest(
            queries=_packed(n=5), counts=(2, 1, 2), want_scores=True,
            request_id=5,
        ),
        2,
    ),
}


class TestFuzz:
    """Mutated and truncated frames must fail closed."""

    @pytest.fixture(params=sorted(_FUZZ_FRAMES))
    def score_frame(self, request):
        msg, version = _FUZZ_FRAMES[request.param]()
        frame = encode_message(msg, version=version)
        # The frame is what it says: it decodes back to its message.
        assert decode_message(FrameDecoder().feed(frame)[0]) == msg
        return frame

    def test_every_truncation_point_fails_closed(self, score_frame):
        frame = score_frame
        for cut in range(HEADER_SIZE, len(frame)):
            truncated = frame[:cut]
            decoder = FrameDecoder()
            frames = decoder.feed(truncated)
            if not frames:
                continue  # incomplete frame: decoder just waits
            with pytest.raises(ProtocolError):
                decode_message(frames[0])

    def test_every_payload_truncation_fails_closed(self, score_frame):
        """The header re-stamped with each shorter payload length, so
        every field boundary is cut inside a complete frame."""
        version, frame_type, length = decode_header(score_frame[:HEADER_SIZE])
        payload = score_frame[HEADER_SIZE:]
        for cut in range(length):
            with pytest.raises(ProtocolError):
                decode_message(Frame(version, frame_type, payload[:cut]))

    def test_trailing_bytes_fail_closed(self, score_frame):
        version, frame_type, _ = decode_header(score_frame[:HEADER_SIZE])
        payload = score_frame[HEADER_SIZE:]
        for extra in (b"\x00", b"\x00" * 8):
            with pytest.raises(ProtocolError, match="trailing"):
                decode_message(Frame(version, frame_type, payload + extra))

    def test_random_byte_mutations_never_crash(self, score_frame):
        rng = spawn(7, "fuzz-mutate")
        frame = bytearray(score_frame)
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
