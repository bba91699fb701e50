"""Typed messages: validation and exact wire round-trips.

Every message must survive encode → frame-split → decode bit-exactly,
including packed bit planes with non-multiple-of-64 dimensionalities
(the tail-word path) and the optional-field combinations.
"""

import numpy as np
import pytest

from repro.backend.packed import PackedHV, pack_hypervectors
from repro.proto import (
    ERROR_CODES,
    HEADER_SIZE,
    ErrorReply,
    FrameDecoder,
    Hello,
    ModelInfo,
    ModelInfoRequest,
    ProtocolError,
    ScoreRequest,
    ScoreResponse,
    Welcome,
    decode_message,
    VectoredWriter,
    encode_message,
)
from repro.utils import spawn


def _payload(w: VectoredWriter) -> bytes:
    """The payload bytes ``w`` staged, without the frame header."""
    return b"".join(w.frame_parts(0, 1))[HEADER_SIZE:]


def _round_trip(msg):
    frames = FrameDecoder().feed(encode_message(msg))
    assert len(frames) == 1
    return decode_message(frames[0])


def _bipolar(n, d, seed=0):
    rng = spawn(seed, "msg-tests")
    return np.where(rng.normal(size=(n, d)) >= 0, 1.0, -1.0).astype(
        np.float32
    )


class TestRoundTrips:
    @pytest.mark.parametrize("d", [64, 100, 128, 130, 1])
    def test_packed_score_request(self, d):
        packed = pack_hypervectors(_bipolar(3, d))
        msg = ScoreRequest(
            queries=packed, model="isolet", want_scores=True, request_id=41
        )
        out = _round_trip(msg)
        assert out == msg
        assert isinstance(out.queries, PackedHV)
        assert out.queries.d == d
        np.testing.assert_array_equal(
            out.queries.unpack(), packed.unpack()
        )

    def test_dense_score_request(self):
        msg = ScoreRequest(queries=_bipolar(2, 77), model=None)
        out = _round_trip(msg)
        assert out == msg
        assert out.queries.dtype == np.float32

    def test_masked_ternary_packed_round_trip(self):
        rng = spawn(3, "msg-ternary")
        dense = _bipolar(4, 130, seed=3)
        dense[:, rng.permutation(130)[:50]] = 0.0  # obfuscator masking
        packed = pack_hypervectors(dense)
        out = _round_trip(ScoreRequest(queries=packed))
        np.testing.assert_array_equal(out.queries.unpack(), dense)

    @pytest.mark.parametrize("with_scores", [False, True])
    def test_score_response(self, with_scores):
        msg = ScoreResponse(
            predictions=np.array([2, 0, 5]),
            scores=np.arange(18, dtype=np.float64).reshape(3, 6)
            if with_scores
            else None,
            model="m",
            version=4,
            request_id=9,
        )
        assert _round_trip(msg) == msg

    def test_handshake_messages(self):
        assert _round_trip(Hello(versions=(1,), client="edge-7")) == Hello(
            versions=(1,), client="edge-7"
        )
        welcome = Welcome(version=1, server="s", models=("a", "b"))
        assert _round_trip(welcome) == welcome

    def test_model_info(self):
        msg = ModelInfo(
            name="isolet",
            version=3,
            n_classes=26,
            d_hv=10000,
            n_live_dims=5000,
            backend="packed",
            query_quantizer="bipolar",
            epsilon=1.25,
            request_id=2,
        )
        out = _round_trip(msg)
        assert out == msg
        assert out.is_pruned

    def test_model_info_optional_fields(self):
        msg = ModelInfo(
            name="m",
            version=1,
            n_classes=2,
            d_hv=64,
            n_live_dims=64,
            backend="dense",
            query_quantizer=None,
            epsilon=float("inf"),
        )
        out = _round_trip(msg)
        assert out.query_quantizer is None
        assert np.isinf(out.epsilon)
        assert not out.is_pruned

    def test_model_info_request_and_error(self):
        assert _round_trip(ModelInfoRequest(model=None)) == ModelInfoRequest()
        for code in ERROR_CODES:
            err = ErrorReply(code=code, message="why", request_id=7)
            assert _round_trip(err) == err


class TestValidation:
    def test_score_request_rejects_1d_feature_vectors(self):
        with pytest.raises(ValueError, match="raw feature"):
            ScoreRequest(queries=np.zeros(617))

    def test_score_response_shape_checks(self):
        with pytest.raises(ValueError, match="1-D"):
            ScoreResponse(predictions=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="n_classes"):
            ScoreResponse(
                predictions=np.zeros(3), scores=np.zeros((2, 4))
            )

    def test_error_reply_rejects_unknown_codes(self):
        with pytest.raises(ValueError, match="unknown error code"):
            ErrorReply(code="whoops")

    @pytest.mark.parametrize("char", ["x", "é", "\u20ac", "\U0001f600"])
    def test_error_message_capped_to_the_wire_limit(self, char):
        from repro.proto.wire import MAX_STRING_BYTES

        long = char * 70_000
        err = ErrorReply(code="bad-frame", message=long)
        raw = err.message.encode("utf-8")
        assert MAX_STRING_BYTES - 4 < len(raw) <= MAX_STRING_BYTES
        assert long.startswith(err.message)
        assert _round_trip(err) == err
        short = ErrorReply(code="bad-frame", message=char * 10)
        assert short.message == char * 10

    def test_hello_requires_versions(self):
        with pytest.raises(ValueError, match="at least one"):
            Hello(versions=())

    def test_non_message_cannot_be_framed(self):
        with pytest.raises(ProtocolError, match="not a wire message"):
            encode_message(np.zeros((2, 3)))
        with pytest.raises(ProtocolError, match="not a wire message"):
            encode_message({"features": [1, 2, 3]})

    def test_empty_query_batch_rejected_on_decode(self):
        # Hand-craft an empty batch (the dataclass itself refuses, so a
        # hostile peer is the only source).
        from repro.proto.wire import FrameType, Frame

        w = VectoredWriter()
        w.pack("!I", 1)         # request id
        w.string(None)          # model
        w.pack("!B", 0)         # want_scores
        w.pack("!BII", 0, 0, 0)  # dense kind, n = d = 0
        frame = Frame(1, FrameType.SCORE_REQUEST, _payload(w))
        with pytest.raises(ProtocolError, match="empty query batch"):
            decode_message(frame)

    def test_inconsistent_packed_planes_rejected(self):
        from repro.proto.wire import Frame, FrameType

        w = VectoredWriter()
        w.pack("!I", 1)
        w.string(None)
        w.pack("!B", 0)
        w.pack("!BII", 1, 2, 130)  # packed kind, n=2, d=130 -> 3 words/row
        w.array(np.zeros((2, 3), dtype=np.uint64), "<u8")  # signs ok
        w.array(np.zeros((2, 2), dtype=np.uint64), "<u8")  # mags short
        frame = Frame(1, FrameType.SCORE_REQUEST, _payload(w))
        with pytest.raises(ProtocolError):
            decode_message(frame)
