"""Protocol v2 batch frames: round-trips, version gating, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.packed import PackedHV, pack_hypervectors
from repro.proto import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ModelInfo,
    ProtocolError,
    ScoreRequest,
    ScoreResponse,
    decode_message,
    encode_message,
)
from repro.utils import spawn


def _roundtrip(msg, version=2):
    frames = FrameDecoder().feed(encode_message(msg, version=version))
    assert len(frames) == 1
    return decode_message(frames[0])


class TestScoreBatchRequest:
    @pytest.mark.parametrize("d", [64, 130, 1000])  # incl. non-mult-64
    def test_packed_roundtrip(self, d):
        rng = spawn(1, "batch-packed")
        block = pack_hypervectors(np.sign(rng.normal(size=(9, d))))
        msg = ScoreRequest(
            queries=block, counts=(4, 3, 2), model="m", request_id=7
        )
        assert _roundtrip(msg) == msg

    def test_dense_roundtrip(self):
        rng = spawn(2, "batch-dense")
        msg = ScoreRequest(
            queries=rng.normal(size=(6, 120)).astype(np.float32),
            counts=(1, 1, 1, 3),
            want_scores=True,
        )
        assert _roundtrip(msg) == msg

    def test_counts_must_sum_to_rows(self):
        with pytest.raises(ValueError, match="sum"):
            ScoreRequest(queries=np.zeros((4, 8)), counts=(2, 3))

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            ScoreRequest(queries=np.zeros((2, 8)), counts=(2, 0))

    def test_counts_must_be_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            ScoreRequest(queries=np.zeros((2, 8)), counts=())

    def test_raw_1d_features_refused(self):
        with pytest.raises(ValueError, match="2-D"):
            ScoreRequest(queries=np.zeros(40), counts=(1,))


class TestScoreBatchResponse:
    def test_roundtrip_and_split(self):
        msg = ScoreResponse(
            predictions=np.arange(7),
            counts=(3, 2, 2),
            model="m",
            version=4,
            request_id=11,
        )
        back = _roundtrip(msg)
        assert back == msg
        parts = back.split()
        assert [p.tolist() for p in parts] == [[0, 1, 2], [3, 4], [5, 6]]

    def test_scores_roundtrip_and_split(self):
        rng = spawn(3, "batch-scores")
        scores = rng.normal(size=(5, 4))
        msg = ScoreResponse(
            predictions=np.argmax(scores, axis=1),
            counts=(2, 3),
            scores=scores,
        )
        back = _roundtrip(msg)
        assert back == msg
        a, b = back.split_scores()
        np.testing.assert_allclose(np.vstack([a, b]), scores)

    def test_split_scores_requires_scores(self):
        msg = ScoreResponse(predictions=np.arange(3), counts=(3,))
        with pytest.raises(ValueError, match="no scores"):
            msg.split_scores()


class TestVersionGating:
    """v2-only frames must never reach (or leave) a v1 peer."""

    def _batch(self):
        return ScoreRequest(queries=np.zeros((2, 16)), counts=(1, 1))

    def test_encode_refuses_v1(self):
        with pytest.raises(ProtocolError, match="requires protocol v2"):
            encode_message(self._batch(), version=1)

    def test_decode_refuses_v1_stamped_batch_frame(self):
        # A hostile/buggy peer stamping v1 on a batch frame fails closed.
        frame = FrameDecoder().feed(encode_message(self._batch()))[0]
        frame.version = 1
        with pytest.raises(ProtocolError, match="require protocol v2"):
            decode_message(frame)

    def test_truncated_counts_fail_closed(self):
        raw = encode_message(self._batch())
        frame = FrameDecoder().feed(raw)[0]
        frame.payload = frame.payload[: len(frame.payload) - 3]
        with pytest.raises(ProtocolError):
            decode_message(frame)


class TestModelInfoMaskSeed:
    def _info(self, seed):
        return ModelInfo(
            name="m",
            version=1,
            n_classes=5,
            d_hv=1000,
            n_live_dims=600,
            backend="packed",
            mask_seed=seed,
        )

    def test_v2_carries_the_seed(self):
        back = _roundtrip(self._info(42), version=2)
        assert back.mask_seed == 42
        assert back.n_masked == 400

    def test_v1_layout_has_no_seed_field(self):
        # The v1 payload is byte-identical to the pre-v2 layout, so the
        # seed never reaches a v1 peer.
        back = _roundtrip(self._info(42), version=1)
        assert back.mask_seed is None

    def test_absent_seed_roundtrips_as_none(self):
        assert _roundtrip(self._info(None), version=2).mask_seed is None

    def test_seed_zero_is_carried(self):
        # 0 is a valid seed, distinct from "no seed recorded".
        assert _roundtrip(self._info(0), version=2).mask_seed == 0


class TestCountsCodec:
    """``counts`` travel as one u32[n_chunks] run behind a u16 length."""

    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 3), min_size=1, max_size=2000),
        want_scores=st.booleans(),
        version=st.integers(2, PROTOCOL_VERSION),
    )
    def test_round_trip_and_split_match_np_split(
        self, counts, want_scores, version
    ):
        n = sum(counts)
        bounds = np.cumsum(counts[:-1])
        request = ScoreRequest(
            queries=np.arange(2 * n, dtype=np.float32).reshape(n, 2),
            counts=counts,
            want_scores=want_scores,
            request_id=3,
        )
        assert _roundtrip(request, version=version) == request
        scores = np.arange(3 * n, dtype=np.float64).reshape(n, 3)
        response = ScoreResponse(
            predictions=np.argmax(scores, axis=1) + np.arange(n),
            counts=counts,
            scores=scores if want_scores else None,
            request_id=3,
        )
        back = _roundtrip(response, version=version)
        assert back == response
        assert back.counts == tuple(counts)
        for got, want in zip(
            back.split(), np.split(back.predictions, bounds), strict=True
        ):
            np.testing.assert_array_equal(got, want)
        if want_scores:
            for got, want in zip(
                back.split_scores(),
                np.split(back.scores, bounds, axis=0),
                strict=True,
            ):
                np.testing.assert_array_equal(got, want)

    def test_chunk_counts_compile_no_struct_format(self):
        """A peer cycling the chunk count over hundreds of values leaves
        the codec's field-run format cache at its fixed set of formats:
        counts runs travel as arrays, not as one format per size."""
        from repro.proto.wire import _layout

        def batch_frames(n_chunks):
            counts = (1,) * n_chunks
            return [
                encode_message(message, version=version)
                for message in (
                    ScoreRequest(
                        queries=np.zeros((n_chunks, 2), dtype=np.float32),
                        counts=counts, tenant="t",
                    ),
                    ScoreResponse(
                        predictions=np.zeros(n_chunks, dtype=np.int64),
                        counts=counts,
                    ),
                )
                for version in (2, PROTOCOL_VERSION)
            ]

        def decode_all(frames):
            for frame in FrameDecoder().feed(b"".join(frames)):
                decode_message(frame)

        decode_all(batch_frames(1))
        fixed = _layout.cache_info().currsize
        for n_chunks in range(2, 302):
            decode_all(batch_frames(n_chunks))
        assert _layout.cache_info().currsize == fixed

    def test_u16_chunk_limit(self):
        limit = 0xFFFF
        at = ScoreResponse(
            predictions=np.zeros(limit, dtype=np.int64), counts=(1,) * limit
        )
        assert _roundtrip(at).counts == (1,) * limit
        over = ScoreResponse(
            predictions=np.zeros(limit + 1, dtype=np.int64),
            counts=(1,) * (limit + 1),
        )
        with pytest.raises(ProtocolError, match="u16 wire limit"):
            encode_message(over)
        with pytest.raises(ProtocolError, match="u16 wire limit"):
            encode_message(
                ScoreRequest(
                    queries=np.zeros((limit + 1, 1), dtype=np.float32),
                    counts=(1,) * (limit + 1),
                )
            )

    def test_counts_truncated_mid_array_fail_closed(self):
        counts = (2, 1, 3, 1, 1)
        msg = ScoreResponse(
            predictions=np.arange(sum(counts)), counts=counts, model=""
        )
        frame = FrameDecoder().feed(encode_message(msg))[0]
        # request_id u32, empty model (u16 length), version u32, n_chunks u16
        start = 4 + 2 + 4 + 2
        for cut in range(start, start + 4 * len(counts)):
            frame.payload = bytes(frame.payload)[:cut]
            with pytest.raises(ProtocolError, match="truncated"):
                decode_message(frame)

    def test_count_above_u32_is_refused_not_wrapped(self):
        # 2**32 + 1 rows without allocating them: stride-0 planes.
        n = 2**32 + 1
        plane = np.broadcast_to(np.zeros((1, 1), dtype=np.uint64), (n, 1))
        request = ScoreRequest(
            queries=PackedHV(signs=plane, mags=plane, d=64), counts=(n,)
        )
        with pytest.raises(ProtocolError, match="out of range"):
            encode_message(request)
        response = ScoreResponse(
            predictions=np.broadcast_to(np.int64(0), (n,)), counts=(n - 1, 1)
        )
        with pytest.raises(ProtocolError, match="out of range"):
            encode_message(response)

    def test_bad_chunk_is_named_not_echoed(self):
        counts = [1] * 30_000
        counts[12_345] = 0
        with pytest.raises(ValueError, match="chunk 12345 of 30000") as err:
            ScoreRequest(
                queries=np.zeros((sum(counts), 1)), counts=counts
            )
        assert len(str(err.value)) < 200
