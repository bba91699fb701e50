"""Byte-level golden-frame parity for the zero-copy codec rewrite.

``fixtures/golden_frames.json`` holds hex dumps of every message type
at every applicable protocol version, captured from the codec *before*
the sans-io/vectored rework (deterministic rng, d_hv=130 — deliberately
not a multiple of 64 so the packed tail path is on the wire).  These
tests pin the rewritten encoder — both the single-``bytes``
:func:`encode_message` and the vectored :func:`encode_message_parts`
(with and without a reused scratch) — to those exact bytes, and prove
the zero-copy decoder round-trips them.  A parity failure here means a
wire format break: old clients and new servers would disagree.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.backend.packed import PackedHV, n_words
from repro.proto import (
    Frame,
    FrameDecoder,
    WireSession,
    decode_message,
    encode_message,
    encode_message_parts,
)
from repro.proto.messages import (
    ErrorReply,
    Hello,
    ModelInfo,
    ModelInfoRequest,
    ScoreRequest,
    ScoreResponse,
    Welcome,
)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_frames.json"

D = 130
WORDS = n_words(D)
TAIL = np.uint64((1 << (D - (WORDS - 1) * 64)) - 1)


def _build_messages():
    """The exact message sequence the fixture generator encoded.

    The rng draw order must match the generator verbatim — every
    message's arrays come from one deterministic stream.
    """
    rng = np.random.default_rng(0xC0FFEE)

    def packed(n):
        signs = rng.integers(0, 2**63, size=(n, WORDS), dtype=np.uint64)
        mags = rng.integers(0, 2**63, size=(n, WORDS), dtype=np.uint64)
        signs[:, -1] &= TAIL
        mags[:, -1] &= TAIL
        signs = signs & mags
        return PackedHV(signs=signs, mags=mags, d=D)

    def dense(n):
        return rng.standard_normal((n, D)).astype(np.float32)

    return {
        "hello": Hello(versions=(1, 2, 3), client="golden-client"),
        "hello_single": Hello(versions=(2,), client="x"),
        "welcome": Welcome(
            version=3, server="golden-server", models=("isolet", "ucihar")
        ),
        "welcome_nomodels": Welcome(version=1, server="s", models=()),
        "score_request_packed": ScoreRequest(
            queries=packed(1), model="isolet", want_scores=False, request_id=7
        ),
        "score_request_dense": ScoreRequest(
            queries=dense(1),
            model=None,
            want_scores=True,
            request_id=8,
            deadline_ms=1500,
        ),
        "score_response": ScoreResponse(
            predictions=rng.integers(0, 26, size=1).astype(np.int64),
            scores=rng.standard_normal((1, 26)).astype(np.float64),
            model="isolet",
            version=3,
            request_id=7,
        ),
        "score_response_noscores": ScoreResponse(
            predictions=rng.integers(0, 26, size=4).astype(np.int64),
            model="isolet",
            version=1,
            request_id=8,
        ),
        "score_batch_request_packed": ScoreRequest(
            queries=packed(5),
            counts=(2, 1, 2),
            model="isolet",
            request_id=9,
            deadline_ms=250,
        ),
        "score_batch_request_dense": ScoreRequest(
            queries=dense(3),
            counts=(3,),
            model=None,
            want_scores=True,
            request_id=10,
        ),
        "score_batch_response": ScoreResponse(
            predictions=rng.integers(0, 26, size=5).astype(np.int64),
            counts=(2, 1, 2),
            scores=rng.standard_normal((5, 26)).astype(np.float64),
            model="isolet",
            version=2,
            request_id=9,
        ),
        "model_info_request": ModelInfoRequest(model="isolet", request_id=11),
        "model_info_request_default": ModelInfoRequest(
            model=None, request_id=12
        ),
        "model_info": ModelInfo(
            name="isolet",
            version=3,
            n_classes=26,
            d_hv=D,
            n_live_dims=117,
            backend="packed",
            query_quantizer="bipolar",
            epsilon=1.25,
            mask_seed=0xDEADBEEF,
            request_id=11,
        ),
        "model_info_nomask": ModelInfo(
            name="ucihar",
            version=1,
            n_classes=12,
            d_hv=D,
            n_live_dims=D,
            backend="dense",
            query_quantizer=None,
            request_id=12,
        ),
        "error_reply": ErrorReply(
            code="overloaded",
            message="retry_after_ms=40; queue full",
            request_id=13,
        ),
        "error_reply_plain": ErrorReply(
            code="bad-frame",
            message="connection must open with a Hello frame",
            request_id=0,
        ),
    }


def _cases():
    fixture = json.loads(FIXTURE.read_text())
    assert fixture["d_hv"] == D
    return fixture["cases"]


@pytest.fixture(scope="module")
def messages():
    return _build_messages()


@pytest.mark.parametrize(
    "case", _cases(), ids=lambda c: f"{c['name']}-v{c['version']}"
)
class TestGoldenParity:
    def test_encode_message_is_byte_identical(self, case, messages):
        msg = messages[case["name"]]
        got = encode_message(msg, version=case["version"])
        assert got.hex() == case["hex"]

    def test_vectored_parts_join_byte_identical(self, case, messages):
        msg = messages[case["name"]]
        parts = encode_message_parts(msg, version=case["version"])
        assert b"".join(bytes(p) for p in parts).hex() == case["hex"]

    def test_decoder_roundtrips_golden_bytes(self, case, messages):
        decoder = FrameDecoder()
        frames = decoder.feed(bytes.fromhex(case["hex"]))
        assert len(frames) == 1
        assert frames[0].version == case["version"]
        decoded = decode_message(frames[0])
        # Round-trip closure: re-encoding the decoded message restores
        # the golden bytes exactly.
        assert encode_message(
            decoded, version=case["version"]
        ).hex() == case["hex"]


class TestGoldenScratchReuse:
    def test_session_scratch_reuse_stays_byte_identical(self, messages):
        """One reused scratch across all 48 encodes changes nothing."""
        session = WireSession("client")
        for case in _cases():
            parts = session.send_parts(
                messages[case["name"]], version=case["version"]
            )
            assert b"".join(bytes(p) for p in parts).hex() == case["hex"]

    def test_render_frame_matches_golden(self, messages):
        session = WireSession("client")
        for case in _cases():
            frame = session.render_frame(
                messages[case["name"]], version=case["version"]
            )
            assert frame.hex() == case["hex"]

    def test_one_decoder_swallows_the_whole_golden_stream(self, messages):
        """All 48 frames concatenated, fed in 7-byte shreds."""
        stream = b"".join(bytes.fromhex(c["hex"]) for c in _cases())
        decoder = FrameDecoder()
        frames: list[Frame] = []
        for lo in range(0, len(stream), 7):
            frames.extend(decoder.feed(stream[lo : lo + 7]))
        assert len(frames) == len(_cases())
        assert decoder.pending_bytes == 0
        for frame, case in zip(frames, _cases()):
            assert frame.version == case["version"]
            assert encode_message(
                decode_message(frame), version=case["version"]
            ).hex() == case["hex"]
