"""Protocol v5: the ``live`` query payload, byte for byte.

``fixtures/golden_frames_v5.json`` pins the v5 frames (d_hv=130 and
n_live=70, neither a multiple of 64, so both tail paths are on the
wire).  The layout is also rebuilt by hand from the documented fields,
so a codec change cannot move the bytes and the fixture together.
"""

import json
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.packed import (
    LiveHV,
    PackedHV,
    compact_store,
    expand_live,
    n_words,
    pack_hypervectors,
)
from repro.proto import (
    HEADER_SIZE,
    FrameDecoder,
    ProtocolError,
    decode_message,
    encode_message,
)
from repro.proto.messages import ScoreRequest
from repro.proto.wire import Frame, FrameType

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_frames_v5.json"

D, N_LIVE = 130, 70


def _rows(n, d, n_live, seed):
    """``n`` bipolar rows on one random ``n_live``-dimension support,
    as planes carrying their live words."""
    rng = np.random.default_rng(seed)
    keep = np.zeros(d, dtype=bool)
    keep[rng.permutation(d)[:n_live]] = True
    planes = pack_hypervectors(rng.choice([-1.0, 1.0], size=(n, d)) * keep)
    if n_live == 0:
        planes = PackedHV(
            signs=planes.signs, mags=np.zeros_like(planes.mags), d=d
        )
    held = compact_store(planes)
    live = LiveHV(held.gather(planes.signs), d, held.n_live, held.digest)
    return PackedHV(planes.signs, planes.mags, d, live=live), held.support


def _build_messages():
    one, _ = _rows(1, D, N_LIVE, 0xC0FFEE)
    five, _ = _rows(5, D, N_LIVE, 0xC0FFEE + 1)
    return {
        "score_request_live": ScoreRequest(
            queries=one.live, model="isolet", request_id=7, tenant="alice"
        ),
        "score_batch_request_live": ScoreRequest(
            queries=five.live,
            counts=(2, 1, 2),
            model="isolet",
            request_id=9,
            deadline_ms=250,
        ),
        "score_request_planes_v5": ScoreRequest(
            queries=PackedHV(one.signs, one.mags, D), request_id=3
        ),
    }


def _cases():
    return json.loads(FIXTURE.read_text())["cases"]


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c["name"])
def test_golden_v5_frames(case):
    msg = _build_messages()[case["name"]]
    assert encode_message(msg, version=5).hex() == case["hex"]
    frames = FrameDecoder().feed(bytes.fromhex(case["hex"]))
    assert len(frames) == 1 and frames[0].version == 5
    decoded = decode_message(frames[0])
    assert decoded == msg
    assert encode_message(decoded, version=5).hex() == case["hex"]


def test_live_layout_by_hand():
    """``kind=2, n, d, n_live`` (u8, u32 x3), a u64 digest, then the
    rows' live words as little-endian u64, after the request head."""
    msg = _build_messages()["score_request_live"]
    live = msg.queries
    head = (
        struct.pack("!I", 7)
        + struct.pack("!H", 6) + b"isolet"
        + struct.pack("!BB", 0, 0)
        + struct.pack("!H", 5) + b"alice"
    )
    body = struct.pack("!BIIIQ", 2, 1, D, N_LIVE, live.digest)
    body += live.words.astype("<u8").tobytes()
    payload = head + body
    expect = struct.pack("!2sBBI", b"HD", 5, FrameType.SCORE_REQUEST, len(payload))
    assert encode_message(msg, version=5) == expect + payload
    assert len(live.words[0]) * 8 == 16  # 70 live bits in 2 words


def test_packed_rows_with_live_words_ship_them_only_at_v5():
    rows, _ = _rows(3, D, N_LIVE, 5)
    bare = PackedHV(rows.signs, rows.mags, D)
    for version in (1, 2, 3, 4):
        # v1-v4 bytes do not change when the rows carry live words
        assert encode_message(
            ScoreRequest(queries=rows), version=version
        ) == encode_message(ScoreRequest(queries=bare), version=version)
    at_v5 = decode_message(
        FrameDecoder().feed(encode_message(ScoreRequest(queries=rows), version=5))[0]
    )
    assert isinstance(at_v5.queries, LiveHV)
    np.testing.assert_array_equal(at_v5.queries.words, rows.live.words)
    # rows without live words ship as planes at v5 too
    planes = decode_message(
        FrameDecoder().feed(encode_message(ScoreRequest(queries=bare), version=5))[0]
    )
    assert isinstance(planes.queries, PackedHV)


def test_live_payload_below_v5_is_a_protocol_error():
    msg = _build_messages()["score_request_live"]
    for version in (1, 2, 3, 4):
        with pytest.raises(ProtocolError, match="v5"):
            encode_message(msg, version=version)
    # a v5 payload forged into a v4 frame fails closed on decode
    payload = encode_message(msg, version=5)[HEADER_SIZE:]
    # the v4 request head is the same bytes as v5's
    with pytest.raises(ProtocolError, match="v5"):
        decode_message(Frame(4, FrameType.SCORE_REQUEST, payload))


def test_bits_past_n_live_are_refused():
    msg = _build_messages()["score_request_live"]
    frame = bytearray(encode_message(msg, version=5))
    frame[-1] |= 0x80  # the top bit of the last live word: bit 127 >= 70
    with pytest.raises(ProtocolError, match="past n_live"):
        decode_message(FrameDecoder().feed(bytes(frame))[0])


def test_n_live_beyond_d_is_refused():
    payload = (
        struct.pack("!IHBB", 1, 0xFFFF, 0, 0) + struct.pack("!H", 0xFFFF)
        + struct.pack("!BIIIQ", 2, 1, 64, 65, 0) + bytes(16)
    )
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_message(Frame(5, FrameType.SCORE_REQUEST, payload))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 300),
    n=st.integers(1, 6),
    frac=st.sampled_from([0.0, 1.0, None]),
    seed=st.integers(0, 2**31),
)
def test_live_words_round_trip_to_the_planes(d, n, frac, seed):
    """Live words → wire → placed on their support = the planes, for
    ``d``/``n_live`` off multiples of 64, ``n_live`` = 0 and = ``d``."""
    n_live = (
        int(frac * d)
        if frac is not None
        else int(np.random.default_rng(seed).integers(1, d + 1))
    )
    rows, support = _rows(n, d, n_live, seed)
    batch = ScoreRequest(queries=rows, counts=(n,))
    decoded = decode_message(FrameDecoder().feed(encode_message(batch, version=5))[0])
    live = decoded.queries
    assert isinstance(live, LiveHV) and live.n_live == n_live
    assert live.words.shape == (n, n_words(n_live))
    placed = expand_live(live, support)
    np.testing.assert_array_equal(placed.signs, rows.signs)
    np.testing.assert_array_equal(placed.mags, rows.mags)


# ----------------------------------------------------------------------
# protocol v6: ModelInfo names the core support
# ----------------------------------------------------------------------
FIXTURE_V6 = pathlib.Path(__file__).parent / "fixtures" / "golden_frames_v6.json"


def _v6_messages():
    from repro.proto.messages import ModelInfo

    base = dict(
        name="isolet", version=3, n_classes=26, d_hv=D, n_live_dims=N_LIVE,
        backend="packed", query_quantizer="bipolar", epsilon=1.25,
        mask_seed=0xDEADBEEF, request_id=11,
    )
    return {
        "model_info_core": ModelInfo(**base, core_digest=0x0123456789ABCDEF),
        "model_info_nocore": ModelInfo(**base),
    }


@pytest.mark.parametrize(
    "case", json.loads(FIXTURE_V6.read_text())["cases"], ids=lambda c: c["name"]
)
def test_golden_v6_frames(case):
    msg = _v6_messages()[case["name"]]
    assert encode_message(msg, version=6).hex() == case["hex"]
    frames = FrameDecoder().feed(bytes.fromhex(case["hex"]))
    assert len(frames) == 1 and frames[0].version == 6
    assert decode_message(frames[0]) == msg


def test_core_digest_is_a_u8_flag_and_u64_after_the_v5_fields():
    """v6 appends ``has_core`` (u8) and the digest (u64); v1-v5 bytes of
    a ModelInfo do not change when it names a core."""
    core, bare = _v6_messages().values()
    for version in (1, 2, 3, 4, 5):
        assert encode_message(core, version=version) == encode_message(
            bare, version=version
        )
    at_v5 = encode_message(bare, version=5)[HEADER_SIZE:]
    assert encode_message(bare, version=6)[HEADER_SIZE:] == at_v5 + b"\x00"
    assert encode_message(core, version=6)[HEADER_SIZE:] == (
        at_v5 + struct.pack("!BQ", 1, core.core_digest)
    )
