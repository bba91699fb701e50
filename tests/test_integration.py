"""Cross-module integration tests: the full Prive-HD lifecycle.

Each test exercises a chain the unit tests cover only piecewise:
dataset → encoder → DP trainer → audit → serialization → serving →
hardware, asserting the joints line up (shared codebooks, consistent
query pipelines, bit-identical reloads).
"""

import numpy as np
import pytest

from repro.attacks import HDDecoder, ModelDifferenceAttack
from repro.core import (
    PriveHD,
    audit_inference_privacy,
    audit_training_privacy,
)
from repro.data import load_dataset
from repro.hardware import EncoderAccelerator, generate_rtl_bundle
from repro.hd import HDModel, LevelBaseEncoder, to_bipolar
from repro.serve import ModelArtifact


@pytest.mark.slow
class TestTrainingLifecycle:
    @pytest.fixture(scope="class")
    def setup(self):
        ds = load_dataset("face", n_train=1500, n_test=400, seed=21)
        system = PriveHD(
            d_in=ds.d_in, n_classes=ds.n_classes, d_hv=2048,
            lo=ds.lo, hi=ds.hi, seed=22,
        )
        result = system.fit_private(
            ds.X_train, ds.y_train, epsilon=1.0, effective_dims=1024
        )
        return ds, system, result

    def test_private_model_useful(self, setup):
        ds, _, result = setup
        assert result.accuracy(ds.X_test, ds.y_test) > 0.85

    def test_artifact_roundtrip_preserves_behaviour(self, setup, tmp_path):
        ds, _, result = setup
        served = ModelArtifact.load(
            result.to_artifact().save(tmp_path / "artifact")
        ).engine()
        np.testing.assert_array_equal(
            served.predict_features(ds.X_test),
            result.private.model.predict(result.encode_queries(ds.X_test)),
        )

    def test_served_artifact_resists_attack(self, setup, tmp_path):
        """The attack must fail against the *serialized* artifact too."""
        ds, system, result = setup
        art = ModelArtifact.load(result.to_artifact().save(tmp_path / "a"))
        adjacent = system.fit_private(
            ds.X_train[1:], ds.y_train[1:], epsilon=1.0,
            effective_dims=1024, noise_seed=777,
        )
        attack = ModelDifferenceAttack(art.encoder())
        score = attack.membership_score(
            ds.X_train[0],
            HDModel(art.n_classes, art.d_hv, art.class_hvs),
            adjacent.private.model,
        )
        assert abs(score) < 0.5

    def test_audit_agrees_with_attack(self, setup):
        ds, _, _ = setup
        plain = audit_training_privacy(
            ds.X_train[:400], ds.y_train[:400], ds.n_classes,
            d_hv=1024, n_probes=1, seed=23,
        )
        private = audit_training_privacy(
            ds.X_train[:400], ds.y_train[:400], ds.n_classes,
            epsilon=1.0, d_hv=1024, n_probes=1, seed=23,
        )
        assert plain.extraction_succeeds
        assert not private.extraction_succeeds


@pytest.mark.slow
class TestInferenceLifecycle:
    @pytest.fixture(scope="class")
    def setup(self):
        ds = load_dataset("isolet", n_train=1500, n_test=400, seed=31)
        system = PriveHD(
            d_in=ds.d_in, n_classes=ds.n_classes, d_hv=2048,
            lo=ds.lo, hi=ds.hi, seed=32,
        )
        model = system.fit(ds.X_train, ds.y_train)
        return ds, system, model

    def test_obfuscated_pipeline_consistency(self, setup):
        """prepare() == obfuscate(encode()) — the client/host contract."""
        ds, system, _ = setup
        obf = system.obfuscator(n_masked=512)
        a = obf.prepare(ds.X_test[:10])
        b = obf.obfuscate_encodings(system.encode(ds.X_test[:10]))
        np.testing.assert_allclose(a, b)

    def test_utility_privacy_joint(self, setup):
        ds, system, model = setup
        obf = system.obfuscator(n_masked=1024)
        acc = obf.evaluate_accuracy(model, ds.X_test, ds.y_test)
        audit = audit_inference_privacy(obf, ds.X_test[:40])
        plain_acc = model.accuracy(system.encode(ds.X_test), ds.y_test)
        assert acc > plain_acc - 0.1
        assert audit.protection_factor > 1.2

    def test_decoder_and_encoder_share_codebooks(self, setup):
        ds, system, _ = setup
        dec = HDDecoder(system.encoder)
        X = ds.X_test[:5]
        X_hat = dec.decode(system.encode(X))
        assert np.abs(X_hat - X).mean() < 0.3


@pytest.mark.slow
class TestHardwareLifecycle:
    def test_rtl_matches_accelerator_sim(self):
        """The generated RTL's golden vectors equal the accelerator path.

        generate_rtl_bundle's expectations come from approximate_majority;
        the accelerator wraps the same function — one source of truth for
        software sim, hardware sim, and emitted RTL.
        """
        enc = LevelBaseEncoder(36, 64, n_levels=4, seed=41)
        hw = EncoderAccelerator(enc, stages=1, tie_seed=5)
        rng = np.random.default_rng(42)
        X = rng.uniform(0, 1, (4, 36))
        sim_out = hw.encode_approximate(X)
        # Feed the same addends through the RTL golden path, dimension 0.
        from repro.hardware.majority import approximate_majority

        for i in range(X.shape[0]):
            addends = enc.encode_addends(X[i])
            golden = approximate_majority(addends, stages=1, tie_seed=5)
            np.testing.assert_array_equal(golden, sim_out[i])

    def test_bipolar_software_vs_hardware_model_agreement(self):
        """Software sign(Eq. 2b) and the exact hardware path agree, so a
        model trained in software serves hardware-encoded queries."""
        from repro.hd import HDModel

        enc = LevelBaseEncoder(48, 512, n_levels=8, seed=43)
        rng = np.random.default_rng(44)
        X = rng.uniform(0, 1, (60, 48))
        y = rng.integers(0, 3, 60)
        H_sw = to_bipolar(enc.encode(X)).astype(np.float64)
        model = HDModel.from_encodings(H_sw, y, 3)
        hw = EncoderAccelerator(enc, stages=0)
        H_hw = hw.encode_exact(X).astype(np.float64)
        np.testing.assert_array_equal(
            model.predict(H_sw), model.predict(H_hw)
        )

    def test_rtl_bundle_for_paper_workloads(self):
        for div in (617, 608, 784):
            bundle = generate_rtl_bundle(div, n_vectors=4)
            assert f"[{div - 1}:0] addends" in bundle.module
            assert bundle.n_luts_stage1 == div // 6
