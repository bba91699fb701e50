"""InferenceEngine: prepared serving, batching, backend interchangeability."""

import numpy as np
import pytest

from repro.backend import pack_hypervectors
from repro.hd import HDModel, ScalarBaseEncoder, get_quantizer
from repro.serve import InferenceEngine
from repro.utils import spawn


@pytest.fixture(scope="module")
def trained():
    """A model trained on bipolar encodings + its quantized queries."""
    rng = spawn(0, "engine-tests")
    X = rng.uniform(0, 1, (300, 24))
    y = rng.integers(0, 4, 300)
    enc = ScalarBaseEncoder(24, 900, seed=1)  # 900: not a multiple of 64
    q = get_quantizer("bipolar")
    H = q(enc.encode(X))
    model = HDModel.from_encodings(H, y, 4)
    return model, H, y


class TestConstruction:
    def test_snapshot_is_independent_of_model(self, trained):
        model, H, _ = trained
        model = model.copy()  # keep the shared fixture pristine
        engine = InferenceEngine(model)
        before = engine.scores(H[:5])
        model.bundle(H[:10], np.zeros(10, dtype=int))
        np.testing.assert_array_equal(engine.scores(H[:5]), before)

    def test_packed_requires_quantized_store(self, trained):
        model, _, _ = trained
        with pytest.raises(ValueError, match="quantizer='bipolar'"):
            InferenceEngine(model, backend="packed")

    def test_quantizer_quantizes_class_store(self, trained):
        model, _, _ = trained
        engine = InferenceEngine(model, quantizer="bipolar")
        np.testing.assert_array_equal(
            engine.prepared.store, get_quantizer("bipolar")(model.class_hvs)
        )

    def test_store_nbytes_16x_smaller_packed(self, trained):
        model, _, _ = trained
        dense = InferenceEngine(model, backend="dense", quantizer="bipolar")
        packed = InferenceEngine(model, backend="packed", quantizer="bipolar")
        assert packed.store_nbytes < dense.store_nbytes / 16


class TestServing:
    def test_dense_and_packed_predict_identically(self, trained):
        model, H, _ = trained
        dense = InferenceEngine(model, backend="dense", quantizer="bipolar")
        packed = InferenceEngine(model, backend="packed", quantizer="bipolar")
        np.testing.assert_array_equal(dense.predict(H), packed.predict(H))

    def test_packed_wire_format_matches_dense_floats(self, trained):
        model, H, _ = trained
        dense = InferenceEngine(model, backend="dense", quantizer="bipolar")
        packed = InferenceEngine(model, backend="packed", quantizer="bipolar")
        np.testing.assert_array_equal(
            packed.predict(pack_hypervectors(H)), dense.predict(H)
        )

    def test_batching_is_transparent(self, trained):
        model, H, _ = trained
        one = InferenceEngine(model, batch_size=10_000)
        many = InferenceEngine(model, batch_size=7)
        np.testing.assert_array_equal(one.scores(H), many.scores(H))
        assert many.batches_served == -(-H.shape[0] // 7)

    def test_batching_packed_queries(self, trained):
        model, H, _ = trained
        packed = pack_hypervectors(H)
        engine = InferenceEngine(
            model, backend="packed", quantizer="bipolar", batch_size=32
        )
        np.testing.assert_array_equal(
            engine.predict(packed),
            InferenceEngine(
                model, backend="packed", quantizer="bipolar"
            ).predict(H),
        )

    def test_serving_counters(self, trained):
        model, H, _ = trained
        engine = InferenceEngine(model, batch_size=64)
        engine.predict(H[:100])
        assert engine.queries_served == 100
        assert engine.batches_served == 2
        engine.predict(H[:10])
        assert engine.queries_served == 110

    def test_accuracy_matches_model(self, trained):
        model, H, y = trained
        engine = InferenceEngine(model)
        assert engine.accuracy(H, y) == model.accuracy(H, y)

    def test_single_query_row(self, trained):
        model, H, _ = trained
        assert InferenceEngine(model).predict(H[0]).shape == (1,)

    def test_empty_batch_raises(self, trained):
        model, H, _ = trained
        with pytest.raises(ValueError, match="empty"):
            InferenceEngine(model).predict(H[:0])

    def test_mismatched_labels_raise(self, trained):
        model, H, y = trained
        with pytest.raises(ValueError, match="queries but"):
            InferenceEngine(model).accuracy(H[:5], y[:4])


class TestRawFeatureServing:
    """The engine's fused encode -> quantize (-> pack) feature path."""

    @pytest.fixture(scope="class")
    def system(self):
        rng = spawn(3, "engine-features")
        X = rng.uniform(0, 1, (120, 24))
        y = rng.integers(0, 4, 120)
        enc = ScalarBaseEncoder(24, 900, seed=1)
        q = get_quantizer("bipolar")
        model = HDModel.from_encodings(q(enc.encode(X)), y, 4)
        return enc, model, X, y

    def test_features_match_manual_encode(self, system):
        enc, model, X, y = system
        engine = InferenceEngine(
            model, quantizer="bipolar", encoder=enc, chunk_size=50
        )
        q = get_quantizer("bipolar")
        np.testing.assert_array_equal(
            engine.predict_features(X), engine.predict(q(enc.encode(X)))
        )
        assert engine.accuracy_features(X, y) == pytest.approx(
            engine.accuracy(q(enc.encode(X)), y)
        )

    def test_packed_and_dense_backends_agree_on_features(self, system):
        enc, model, X, _ = system
        kwargs = dict(quantizer="bipolar", encoder=enc, chunk_size=33)
        dense = InferenceEngine(model, backend="dense", **kwargs)
        packed = InferenceEngine(model, backend="packed", **kwargs)
        np.testing.assert_array_equal(
            dense.predict_features(X), packed.predict_features(X)
        )

    def test_features_without_encoder_rejected(self, system):
        _, model, X, _ = system
        with pytest.raises(ValueError, match="no encoder"):
            InferenceEngine(model).predict_features(X)

    def test_packed_backend_needs_packable_quantizer_for_features(self, system):
        enc, model, X, _ = system
        engine = InferenceEngine(
            model, backend="packed", quantizer="bipolar", encoder=enc
        )
        engine.quantizer = None  # simulate an unquantized packed setup
        with pytest.raises(ValueError, match="packable"):
            engine.predict_features(X)

    def test_mismatched_encoder_dims_rejected(self, system):
        enc, model, _, _ = system
        with pytest.raises(ValueError, match="-dim"):
            InferenceEngine(model, encoder=ScalarBaseEncoder(24, 64, seed=1))
