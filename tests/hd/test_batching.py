"""Tests for memory-bounded batched encoding/training."""

import numpy as np
import pytest

from repro.hd import EncodePipeline, HDModel, ScalarBaseEncoder
from repro.hd.batching import fit_classes_batched
from repro.utils import spawn


@pytest.fixture(scope="module")
def setup():
    rng = spawn(0, "batch")
    X = rng.uniform(0, 1, (37, 12))
    y = rng.integers(0, 3, 37)
    enc = ScalarBaseEncoder(12, 256, seed=1)
    return enc, X, y


class TestPipelineChunks:
    def test_chunks_cover_everything(self, setup):
        enc, X, _ = setup
        chunks = list(EncodePipeline(enc, chunk_size=10).stream(X))
        assert [c[1].shape[0] for c in chunks] == [10, 10, 10, 7]
        stitched = np.vstack([c[1] for c in chunks])
        np.testing.assert_allclose(stitched, enc.encode(X), rtol=1e-6)

    def test_slices_are_correct(self, setup):
        enc, X, _ = setup
        for rows, H in EncodePipeline(enc, chunk_size=8).stream(X):
            np.testing.assert_allclose(H, enc.encode(X[rows]), rtol=1e-6)

    def test_batch_larger_than_data(self, setup):
        enc, X, _ = setup
        chunks = list(EncodePipeline(enc, chunk_size=1000).stream(X))
        assert len(chunks) == 1

    def test_invalid_batch_size(self, setup):
        enc, X, _ = setup
        with pytest.raises(ValueError):
            list(EncodePipeline(enc, chunk_size=0).stream(X))


class TestFitClassesBatched:
    def test_matches_monolithic_fit(self, setup):
        enc, X, y = setup
        batched = fit_classes_batched(enc, X, y, 3, batch_size=5)
        mono = HDModel.from_encodings(enc.encode(X), y, 3)
        np.testing.assert_allclose(
            batched.class_hvs, mono.class_hvs, rtol=1e-5, atol=1e-3
        )

    def test_quantized_matches_monolithic(self, setup):
        enc, X, y = setup
        from repro.hd import get_quantizer

        q = get_quantizer("bipolar")
        batched = fit_classes_batched(
            enc, X, y, 3, quantizer="bipolar", batch_size=7
        )
        mono = HDModel.from_encodings(q(enc.encode(X)), y, 3)
        np.testing.assert_allclose(batched.class_hvs, mono.class_hvs)

    def test_length_mismatch(self, setup):
        enc, X, y = setup
        with pytest.raises(ValueError):
            fit_classes_batched(enc, X, y[:5], 3)


class TestPackedStream:
    """fit_classes_batched over a pre-quantized bit-packed stream."""

    def test_packed_stream_matches_quantized_fit(self, setup):
        from repro.hd import get_quantizer

        enc, X, y = setup
        q = get_quantizer("bipolar")

        def stream():
            for rows, H in EncodePipeline(enc, chunk_size=8).stream(X):
                yield rows, q.pack(H)

        from_stream = fit_classes_batched(
            None, None, y, 3, stream=stream(), d_hv=enc.d_hv
        )
        mono = HDModel.from_encodings(q(enc.encode(X)), y, 3)
        np.testing.assert_allclose(from_stream.class_hvs, mono.class_hvs)

    def test_dense_stream_applies_quantizer(self, setup):
        from repro.hd import get_quantizer

        enc, X, y = setup
        q = get_quantizer("ternary")
        stream = EncodePipeline(enc, chunk_size=8).stream(X)
        from_stream = fit_classes_batched(
            None, None, y, 3, quantizer="ternary", stream=stream, d_hv=enc.d_hv
        )
        mono = HDModel.from_encodings(q(enc.encode(X)), y, 3)
        np.testing.assert_allclose(from_stream.class_hvs, mono.class_hvs)

    def test_stream_with_encoder_infers_d_hv(self, setup):
        enc, X, y = setup
        stream = EncodePipeline(enc, chunk_size=16).stream(X)
        model = fit_classes_batched(enc, None, y, 3, stream=stream)
        assert model.d_hv == enc.d_hv

    def test_stream_and_X_are_mutually_exclusive(self, setup):
        enc, X, y = setup
        with pytest.raises(ValueError, match="exactly one"):
            fit_classes_batched(
                enc, X, y, 3, stream=EncodePipeline(enc).stream(X)
            )
        with pytest.raises(ValueError, match="exactly one"):
            fit_classes_batched(enc, None, y, 3)

    def test_stream_without_d_hv_raises(self, setup):
        enc, X, y = setup
        stream = EncodePipeline(enc, chunk_size=16).stream(X)
        with pytest.raises(ValueError, match="d_hv"):
            fit_classes_batched(None, None, y, 3, stream=stream)

    def test_incomplete_stream_raises(self, setup):
        enc, X, y = setup

        def stream():
            yield slice(0, 10), enc.encode(X[:10])

        with pytest.raises(ValueError, match="uncovered"):
            fit_classes_batched(None, None, y, 3, stream=stream(), d_hv=enc.d_hv)

    def test_duplicated_slice_raises(self, setup):
        """A restarting producer must not silently double-bundle rows."""
        enc, X, y = setup

        def stream():
            yield slice(0, 10), enc.encode(X[:10])
            yield slice(0, 10), enc.encode(X[:10])

        with pytest.raises(ValueError, match="more than once"):
            fit_classes_batched(None, None, y, 3, stream=stream(), d_hv=enc.d_hv)

    def test_chunk_slice_length_mismatch_raises(self, setup):
        enc, X, y = setup

        def stream():
            yield slice(0, 10), enc.encode(X[:5])  # wrong chunk for slice

        with pytest.raises(ValueError, match="selects 10"):
            fit_classes_batched(None, None, y, 3, stream=stream(), d_hv=enc.d_hv)

    def test_intra_chunk_duplicate_rows_raise(self, setup):
        enc, X, y = setup

        def stream():
            yield np.array([0, 0]), enc.encode(X[[0, 0]])

        with pytest.raises(ValueError, match="more than once"):
            fit_classes_batched(None, None, y, 3, stream=stream(), d_hv=enc.d_hv)
