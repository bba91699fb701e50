"""Tests for the HDModel classifier."""

import numpy as np
import pytest

from repro.hd.model import HDModel
from repro.utils import spawn


class TestConstruction:
    def test_zero_init(self):
        m = HDModel(3, 64)
        assert m.class_hvs.shape == (3, 64)
        assert np.all(m.class_hvs == 0)

    def test_initial_array_copied(self):
        arr = np.ones((2, 8))
        m = HDModel(2, 8, arr)
        arr[0, 0] = 99.0
        assert m.class_hvs[0, 0] == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HDModel(2, 8, np.ones((3, 8)))

    def test_from_encodings_bundles_by_class(self):
        H = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        y = np.array([0, 1, 0])
        m = HDModel.from_encodings(H, y, 2)
        np.testing.assert_allclose(m.class_hvs[0], [6.0, 8.0])
        np.testing.assert_allclose(m.class_hvs[1], [3.0, 4.0])

    def test_from_encodings_length_mismatch(self):
        with pytest.raises(ValueError):
            HDModel.from_encodings(np.ones((3, 4)), np.array([0, 1]), 2)

    def test_repeated_label_accumulates(self):
        """np.add.at semantics: duplicate labels in one batch must all land."""
        H = np.ones((4, 2))
        m = HDModel(1, 2)
        m.bundle(H, np.zeros(4, dtype=int))
        np.testing.assert_allclose(m.class_hvs[0], [4.0, 4.0])


class TestBundleUnbundle:
    def test_unbundle_inverts_bundle(self):
        rng = spawn(0, "model")
        H = rng.normal(size=(5, 16))
        y = rng.integers(0, 3, 5)
        m = HDModel(3, 16)
        m.bundle(H, y)
        m.unbundle(H, y)
        np.testing.assert_allclose(m.class_hvs, 0.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_bit_identical_to_the_scatter(self, dtype):
        """Row-order adds equal ``np.add.at``/``np.subtract.at`` bit for
        bit: non-integer encodings, repeated labels, a non-empty store."""
        rng = spawn(3, "model-scatter")
        H = (rng.normal(size=(40, 33)) * 1e3).astype(dtype)
        y = rng.integers(0, 4, 40)
        start = rng.normal(size=(4, 33)) * 1e-3
        for method, scatter in (("bundle", np.add), ("unbundle", np.subtract)):
            m = HDModel(4, 33, start)
            getattr(m, method)(H, y)
            ref = start.copy()
            scatter.at(ref, y, H.astype(np.float64))
            assert m.class_hvs.tobytes() == ref.tobytes(), method

    def test_norm_cache_invalidated(self):
        m = HDModel(2, 4)
        m.bundle(np.ones((1, 4)), np.array([0]))
        n1 = m.class_norms.copy()
        m.bundle(np.ones((1, 4)), np.array([0]))
        assert not np.allclose(m.class_norms, n1)


class TestInference:
    def _simple_model(self):
        classes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        return HDModel(2, 3, classes)

    def test_predict_nearest_class(self):
        m = self._simple_model()
        q = np.array([[0.9, 0.1, 0.0], [0.2, 5.0, 0.0]])
        np.testing.assert_array_equal(m.predict(q), [0, 1])

    def test_scores_shape(self):
        m = self._simple_model()
        assert m.scores(np.ones((4, 3))).shape == (4, 2)

    def test_similarities_normalized(self):
        m = self._simple_model()
        s = m.similarities(np.array([[2.0, 0.0, 0.0]]))
        assert s[0, 0] == pytest.approx(1.0)
        assert s[0, 1] == pytest.approx(0.0)

    def test_accuracy(self):
        m = self._simple_model()
        q = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.2, 0.0]])
        assert m.accuracy(q, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_empty_raises(self):
        m = self._simple_model()
        with pytest.raises(ValueError):
            m.accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_accuracy_length_mismatch(self):
        m = self._simple_model()
        with pytest.raises(ValueError):
            m.accuracy(np.ones((2, 3)), np.array([0]))

    def test_trained_model_high_accuracy(self, trained):
        model, H, y = trained
        assert model.accuracy(H, y) > 0.95


class TestTransforms:
    def test_with_noise_zero_is_identity(self, trained):
        model, _, _ = trained
        noisy = model.with_noise(0.0, rng=0)
        np.testing.assert_allclose(noisy.class_hvs, model.class_hvs)

    def test_with_noise_perturbs(self, trained):
        model, _, _ = trained
        noisy = model.with_noise(1.0, rng=0)
        assert not np.allclose(noisy.class_hvs, model.class_hvs)

    def test_with_noise_deterministic_given_rng(self, trained):
        model, _, _ = trained
        a = model.with_noise(1.0, rng=spawn(5, "n"))
        b = model.with_noise(1.0, rng=spawn(5, "n"))
        np.testing.assert_allclose(a.class_hvs, b.class_hvs)

    def test_with_noise_does_not_mutate(self, trained):
        model, _, _ = trained
        before = model.class_hvs.copy()
        model.with_noise(10.0, rng=1)
        np.testing.assert_array_equal(model.class_hvs, before)

    def test_negative_noise_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(ValueError):
            model.with_noise(-0.1)

    def test_noise_std_scales(self, trained):
        model, _, _ = trained
        small = model.with_noise(0.1, rng=spawn(6, "n"))
        large = model.with_noise(100.0, rng=spawn(6, "n"))
        d_small = np.abs(small.class_hvs - model.class_hvs).mean()
        d_large = np.abs(large.class_hvs - model.class_hvs).mean()
        assert d_large > 100 * d_small

    def test_masked_zeros_dimensions(self):
        m = HDModel(2, 4, np.ones((2, 4)))
        keep = np.array([True, False, True, False])
        out = m.masked(keep)
        np.testing.assert_allclose(out.class_hvs, [[1, 0, 1, 0]] * 2)

    def test_masked_shape_check(self):
        m = HDModel(2, 4)
        with pytest.raises(ValueError):
            m.masked(np.ones(3, dtype=bool))

    def test_truncated(self):
        m = HDModel(2, 4, np.arange(8.0).reshape(2, 4))
        t = m.truncated(2)
        assert t.d_hv == 2
        np.testing.assert_allclose(t.class_hvs, [[0, 1], [4, 5]])

    def test_copy_is_deep(self):
        m = HDModel(1, 2, np.ones((1, 2)))
        c = m.copy()
        c.class_hvs[0, 0] = 9.0
        assert m.class_hvs[0, 0] == 1.0


class TestBundlePacked:
    """Bit-packed bundling must match the dense bundle bit-for-bit."""

    @pytest.mark.parametrize("ternary", [False, True])
    def test_matches_dense_bundle(self, ternary):
        from repro.backend import pack_hypervectors

        rng = spawn(7, "model-packed")
        if ternary:
            H = rng.choice([0.0, -1.0, 1.0], size=(23, 130))
        else:
            H = rng.choice([-1.0, 1.0], size=(23, 130))
        y = rng.integers(0, 4, 23)
        dense = HDModel(4, 130)
        dense.bundle(H, y)
        packed = HDModel(4, 130)
        packed.bundle_packed(pack_hypervectors(H), y)
        np.testing.assert_array_equal(packed.class_hvs, dense.class_hvs)

    def test_accumulates_onto_existing_store(self):
        from repro.backend import pack_hypervectors

        rng = spawn(8, "model-packed-2")
        H = rng.choice([-1.0, 1.0], size=(10, 70))
        y = rng.integers(0, 2, 10)
        a = HDModel(2, 70)
        a.bundle(H, y)
        a.bundle(H, y)
        b = HDModel(2, 70)
        b.bundle(H, y)
        b.bundle_packed(pack_hypervectors(H), y)
        np.testing.assert_array_equal(a.class_hvs, b.class_hvs)

    def test_dimension_mismatch_rejected(self):
        from repro.backend import pack_hypervectors

        m = HDModel(2, 70)
        with pytest.raises(ValueError, match="dims"):
            m.bundle_packed(pack_hypervectors(np.ones((2, 64))), np.zeros(2, dtype=int))

    def test_label_count_mismatch_rejected(self):
        from repro.backend import pack_hypervectors

        m = HDModel(2, 70)
        with pytest.raises(ValueError, match="labels"):
            m.bundle_packed(pack_hypervectors(np.ones((2, 70))), np.zeros(3, dtype=int))

    def test_invalidates_norm_cache(self):
        from repro.backend import pack_hypervectors

        m = HDModel(2, 70)
        m.bundle(np.ones((1, 70)), np.array([0]))
        n1 = m.class_norms.copy()
        m.bundle_packed(pack_hypervectors(np.ones((1, 70))), np.array([0]))
        assert not np.allclose(m.class_norms, n1)


class TestBackendRouting:
    """HDModel score/predict paths across compute backends."""

    def _served_model(self):
        from repro.hd.quantize import get_quantizer
        from repro.utils import spawn

        rng = spawn(4, "model-backend")
        H = rng.choice([-1.0, 1.0], size=(40, 200))
        y = rng.integers(0, 3, 40)
        model = HDModel.from_encodings(H, y, 3)
        # serving snapshot: bipolar-quantized class store
        served = HDModel(3, 200, get_quantizer("bipolar")(model.class_hvs))
        return served, H

    def test_packed_backend_scores_match_dense(self):
        served, H = self._served_model()
        np.testing.assert_array_equal(
            served.scores(H, backend="packed"), served.scores(H)
        )

    def test_packed_queries_auto_route(self):
        from repro.backend import pack_hypervectors

        served, H = self._served_model()
        np.testing.assert_array_equal(
            served.predict(pack_hypervectors(H)), served.predict(H)
        )

    def test_packed_queries_against_float_store_fall_back_to_dense(self):
        from repro.backend import pack_hypervectors
        from repro.utils import spawn

        rng = spawn(5, "model-backend-f")
        H = rng.choice([-1.0, 1.0], size=(30, 200))
        y = rng.integers(0, 3, 30)
        model = HDModel.from_encodings(H, y, 3)  # float count store
        np.testing.assert_array_equal(
            model.predict(pack_hypervectors(H)), model.predict(H)
        )

    def test_explicit_packed_on_float_store_raises(self):
        from repro.utils import spawn

        rng = spawn(6, "model-backend-g")
        H = rng.choice([-1.0, 1.0], size=(30, 200))
        model = HDModel.from_encodings(H, rng.integers(0, 3, 30), 3)
        with pytest.raises(ValueError, match="bit-packed"):
            model.scores(H, backend="packed")

    def test_direct_store_mutation_is_honored(self):
        """class_hvs is a documented plain array: in-place edits must be
        visible to every score path, packed included."""
        served, H = self._served_model()
        before = served.scores(H, backend="packed")
        served.class_hvs[:] = -served.class_hvs  # direct mutation
        after = served.scores(H, backend="packed")
        np.testing.assert_array_equal(after, -before)
        np.testing.assert_array_equal(after, served.scores(H))

    def test_accuracy_accepts_backend(self):
        from repro.utils import spawn

        served, H = self._served_model()
        y = spawn(7, "model-backend-y").integers(0, 3, 40)
        assert served.accuracy(H, y, backend="packed") == served.accuracy(H, y)
