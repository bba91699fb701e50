"""ModelArtifact: round-trips, manifests, checksums, engine rebuilds."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp_trainer import DPTrainer, DPTrainingConfig
from repro.core.privacy import laplace_noise_scale
from repro.hd import (
    HDModel,
    LevelBaseEncoder,
    ScalarBaseEncoder,
    get_quantizer,
)
from repro.serve import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    InferenceEngine,
    ModelArtifact,
    load_artifact,
)
from repro.serve.artifact import MANIFEST_FILENAME, TENSORS_FILENAME
from tests.conftest import make_cluster_task
from repro.utils import spawn


def _trained_system(d_hv=900, quantizer="bipolar", encoder_kind="scalar-base"):
    """Encoder + model trained on quantized encodings + raw data."""
    X, y = make_cluster_task(n=160, d_in=24, n_classes=4, seed=11)
    if encoder_kind == "level-base":
        enc = LevelBaseEncoder(24, d_hv, n_levels=8, seed=3)
    else:
        enc = ScalarBaseEncoder(24, d_hv, seed=3)
    q = get_quantizer(quantizer)
    model = HDModel.from_encodings(q(enc.encode(X)), y, 4)
    return enc, model, X, y


class TestRoundTrip:
    """Bit-identical predictions before and after save/load, over the
    backend × quantizer × pruned × dimensionality grid."""

    # 900 and 1000 are deliberately not multiples of 64 (packed tail).
    @pytest.mark.parametrize("backend", ["dense", "packed", "native"])
    @pytest.mark.parametrize(
        "quantizer", ["bipolar", "ternary", "ternary-biased"]
    )
    @pytest.mark.parametrize("d_hv", [900, 128])
    def test_packable_grid(self, tmp_path, backend, quantizer, d_hv):
        enc, model, X, _ = _trained_system(d_hv=d_hv, quantizer=quantizer)
        art = ModelArtifact.build(
            model, quantizer=quantizer, backend=backend, encoder=enc
        )
        loaded = ModelArtifact.load(art.save(tmp_path / "a"))
        before, after = art.engine(), loaded.engine()
        np.testing.assert_array_equal(
            before.predict_features(X), after.predict_features(X)
        )
        H = get_quantizer(quantizer)(enc.encode(X))
        np.testing.assert_array_equal(before.predict(H), after.predict(H))

    @pytest.mark.parametrize("quantizer", ["identity", "2bit"])
    def test_unpackable_quantizers_round_trip_dense(self, tmp_path, quantizer):
        enc, model, X, _ = _trained_system(d_hv=257, quantizer=quantizer)
        art = ModelArtifact.build(
            model, quantizer=quantizer, backend="dense", encoder=enc
        )
        loaded = ModelArtifact.load(art.save(tmp_path / "a"))
        np.testing.assert_array_equal(
            art.engine().predict_features(X),
            loaded.engine().predict_features(X),
        )

    def test_store_quantized_exactly_once(self, tmp_path):
        """The loaded engine must serve the saved store as-is — never
        re-quantize it (quantile quantizers are not idempotent)."""
        enc, model, X, _ = _trained_system(quantizer="ternary-biased")
        art = ModelArtifact.build(
            model, quantizer="ternary-biased", encoder=enc
        )
        loaded = ModelArtifact.load(art.save(tmp_path / "a"))
        np.testing.assert_array_equal(loaded.class_hvs, art.class_hvs)
        engine = loaded.engine()
        assert engine.store_is_quantized
        np.testing.assert_array_equal(
            np.asarray(engine.prepared.store), art.class_hvs
        )

    def test_matches_legacy_engine_construction(self, tmp_path):
        """artifact.engine() == InferenceEngine(model, quantizer=...)."""
        enc, model, X, _ = _trained_system(quantizer="bipolar")
        legacy = InferenceEngine(
            model, backend="packed", quantizer="bipolar", encoder=enc
        )
        art = ModelArtifact.build(
            model, quantizer="bipolar", backend="packed", encoder=enc
        )
        loaded = ModelArtifact.load(art.save(tmp_path / "a"))
        np.testing.assert_array_equal(
            loaded.engine().predict_features(X), legacy.predict_features(X)
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        d_hv=st.sampled_from([64, 100, 129, 640, 900]),
        quantizer=st.sampled_from(["bipolar", "ternary", "ternary-biased"]),
    )
    def test_roundtrip_property(self, tmp_path_factory, seed, d_hv, quantizer):
        """Random stores round-trip with identical packed/dense scores."""
        rng = spawn(seed, "artifact-prop")
        store = get_quantizer(quantizer)(rng.normal(size=(5, d_hv)))
        model = HDModel(5, d_hv, store)
        queries = get_quantizer(quantizer)(rng.normal(size=(16, d_hv)))
        art = ModelArtifact.build(model, quantizer=quantizer, backend="packed")
        path = art.save(tmp_path_factory.mktemp("artifact") / "a")
        loaded = ModelArtifact.load(path)
        for backend in ("dense", "packed"):
            np.testing.assert_array_equal(
                art.engine(backend=backend).predict(queries),
                loaded.engine(backend=backend).predict(queries),
            )


class TestPrunedModels:
    @pytest.fixture(scope="class")
    def dp_result(self):
        X, y = make_cluster_task(n=300, d_in=24, n_classes=3, seed=81)
        cfg = DPTrainingConfig(
            epsilon=4.0, d_hv=1000, effective_dims=600, seed=5
        )
        return DPTrainer(cfg).fit(X, y, n_classes=3), X, y

    def test_dp_artifact_round_trip(self, tmp_path, dp_result):
        result, X, y = dp_result
        art = result.to_artifact()
        loaded = ModelArtifact.load(art.save(tmp_path / "dp"))
        engine = loaded.engine()
        np.testing.assert_array_equal(
            engine.predict_features(X),
            result.private.model.predict(result.encode_queries(X)),
        )
        assert engine.accuracy_features(X, y) == pytest.approx(
            result.accuracy(X, y)
        )

    def test_dp_artifact_privacy_certificate(self, tmp_path, dp_result):
        result, _, _ = dp_result
        loaded = ModelArtifact.load(result.to_artifact().save(tmp_path / "dp"))
        assert loaded.is_private
        assert loaded.epsilon == 4.0
        assert loaded.privacy["delta"] == 1e-5
        assert loaded.privacy["noise_std"] == pytest.approx(
            result.private.noise_std
        )
        assert loaded.privacy["analytic_l2"] == pytest.approx(
            result.sensitivity.analytic_l2
        )
        assert loaded.n_live_dims == 600

    def test_certificate_that_does_not_rederive_is_refused(
        self, tmp_path, dp_result
    ):
        """σ must re-derive from (Δf, ε, δ), as checksums must match."""
        result, _, _ = dp_result
        path = result.to_artifact().save(tmp_path / "dp")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["privacy"]["noise_std"] /= 2
        manifest_path.write_text(json.dumps(manifest))
        for verify in (True, False):
            with pytest.raises(ArtifactError, match="re-derive"):
                ModelArtifact.load(path, verify=verify)
        with pytest.raises(ArtifactError, match="re-derive"):
            ModelArtifact.build(
                result.private.model,
                store_quantizer=None,
                privacy=manifest["privacy"],
            )

    @pytest.mark.parametrize(
        "privacy",
        [
            {"epsilon": 1.0},
            # pure-ε Laplace (δ = 0): certificates are Gaussian-only
            {"epsilon": 1.0, "delta": 0.0, "sensitivity": 2.0,
             "noise_std": laplace_noise_scale(2.0, 1.0)},
        ],
    )
    def test_incomplete_finite_certificate_is_refused(
        self, tmp_path, dp_result, privacy
    ):
        """Refused at build, and at load of a manifest rewritten to it."""
        result, _, _ = dp_result
        with pytest.raises(ArtifactError, match="malformed privacy"):
            ModelArtifact.build(result.private.model, privacy=privacy)
        path = result.to_artifact().save(tmp_path / "dp")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["privacy"] = privacy
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="malformed privacy"):
            ModelArtifact.load(path)

    @pytest.mark.parametrize(
        "privacy",
        [
            None,
            {"epsilon": float("inf")},
            {"epsilon": float("inf"), "delta": 1e-5, "noise_std": 0.0},
        ],
    )
    def test_claimless_certificates_still_load(
        self, tmp_path, dp_result, privacy
    ):
        result, _, _ = dp_result
        art = ModelArtifact.build(
            result.private.model, store_quantizer=None, privacy=privacy
        )
        loaded = ModelArtifact.load(art.save(tmp_path / "a"))
        assert not loaded.is_private
        assert loaded.privacy == privacy

    def test_dp_artifact_never_ships_baseline(self, tmp_path, dp_result):
        result, _, _ = dp_result
        path = result.to_artifact().save(tmp_path / "dp")
        with np.load(path / TENSORS_FILENAME) as data:
            stored = data["class_hvs"]
        assert not np.allclose(stored, result.baseline.class_hvs)
        np.testing.assert_array_equal(
            stored, result.private.model.class_hvs
        )

    def test_masked_queries_stay_zero(self, tmp_path, dp_result):
        result, X, _ = dp_result
        loaded = ModelArtifact.load(result.to_artifact().save(tmp_path / "dp"))
        engine = loaded.engine()
        tile = next(iter(engine._feature_stream(X[:8])))[1]
        assert np.all(np.asarray(tile)[:, ~loaded.keep_mask] == 0.0)


class TestManifest:
    def test_manifest_is_self_describing(self, tmp_path):
        enc, model, _, _ = _trained_system(quantizer="bipolar")
        art = ModelArtifact.build(
            model,
            quantizer="bipolar",
            backend="packed",
            encoder=enc,
            metadata={"dataset": "unit-test"},
        )
        path = art.save(tmp_path / "a")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        assert manifest["format"] == "prive-hd-model-artifact"
        assert manifest["format_version"] == ARTIFACT_FORMAT_VERSION
        assert manifest["n_classes"] == 4
        assert manifest["backend"] == "packed"
        assert manifest["query_quantizer"] == "bipolar"
        assert manifest["encoder"]["kind"] == "scalar-base"
        assert manifest["metadata"]["dataset"] == "unit-test"
        # A packed artifact stores the served planes, not a dense store.
        assert set(manifest["tensors"]) == {"signs", "mags"}
        for spec in manifest["tensors"].values():
            assert spec["shape"] == [4, 15]  # 900 dims -> 15 words
            assert spec["dtype"] == "uint64"
            assert "sha256" in spec
        assert manifest["store_dtype"] == str(art.class_hvs.dtype)

    def test_checksum_corruption_detected(self, tmp_path):
        _, model, _, _ = _trained_system(d_hv=128)
        art = ModelArtifact.build(model, quantizer="bipolar")
        path = art.save(tmp_path / "a")
        corrupt = art.class_hvs.copy()
        corrupt[0, 0] = -corrupt[0, 0]
        np.savez_compressed(path / TENSORS_FILENAME, class_hvs=corrupt)
        with pytest.raises(ArtifactError, match="checksum"):
            ModelArtifact.load(path)

    def test_shape_mismatch_detected(self, tmp_path):
        _, model, _, _ = _trained_system(d_hv=128)
        path = ModelArtifact.build(model, quantizer="bipolar").save(
            tmp_path / "a"
        )
        np.savez_compressed(
            path / TENSORS_FILENAME, class_hvs=np.ones((2, 64), np.float32)
        )
        with pytest.raises(ArtifactError, match="manifest"):
            ModelArtifact.load(path)

    def test_future_version_rejected(self, tmp_path):
        _, model, _, _ = _trained_system(d_hv=128)
        path = ModelArtifact.build(model, quantizer="bipolar").save(
            tmp_path / "a"
        )
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="newer"):
            load_artifact(path)

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="not a model artifact"):
            load_artifact(tmp_path / "nope")

    def test_unsupported_store_backend_rejected_at_build(self):
        _, model, _, _ = _trained_system(d_hv=128, quantizer="identity")
        with pytest.raises(ArtifactError, match="backend"):
            ModelArtifact.build(model, quantizer=None, backend="packed")


class TestEncoderRebuild:
    @pytest.mark.parametrize("kind", ["scalar-base", "level-base"])
    def test_codebooks_bit_identical(self, tmp_path, kind):
        enc, model, _, _ = _trained_system(encoder_kind=kind)
        art = ModelArtifact.build(model, quantizer="bipolar", encoder=enc)
        rebuilt = ModelArtifact.load(art.save(tmp_path / "a")).encoder()
        np.testing.assert_array_equal(
            rebuilt.base.vectors, enc.base.vectors
        )
        if kind == "level-base":
            np.testing.assert_array_equal(
                rebuilt.levels.vectors, enc.levels.vectors
            )

    def test_truncated_encoder_round_trips(self, tmp_path):
        """Truncated codebooks differ from fresh draws at the small size;
        the artifact must record and replay the truncation."""
        parent = ScalarBaseEncoder(24, 1024, seed=9)
        enc = parent.truncated(700)
        fresh = ScalarBaseEncoder(24, 700, seed=9)
        assert not np.array_equal(enc.base.vectors, fresh.base.vectors)
        X, y = make_cluster_task(n=80, d_in=24, n_classes=3, seed=2)
        q = get_quantizer("bipolar")
        model = HDModel.from_encodings(q(enc.encode(X)), y, 3)
        art = ModelArtifact.build(model, quantizer="bipolar", encoder=enc)
        rebuilt = ModelArtifact.load(art.save(tmp_path / "a")).encoder()
        np.testing.assert_array_equal(rebuilt.base.vectors, enc.base.vectors)

    def test_engine_without_encoder_serves_hypervectors_only(self, tmp_path):
        _, model, X, _ = _trained_system(d_hv=128)
        art = ModelArtifact.build(model, quantizer="bipolar")
        engine = ModelArtifact.load(art.save(tmp_path / "a")).engine()
        with pytest.raises(ValueError, match="no encoder"):
            engine.predict_features(X)


GOLDEN_V2 = Path(__file__).parent / "fixtures" / "golden_v2_packed"


class TestGoldenV2:
    """A v2 packed artifact (dense float32 ``class_hvs`` on disk), as
    the v2 writer saved it, keeps loading, verifying and serving."""

    @pytest.fixture(scope="class")
    def queries(self):
        rng = spawn(5, "golden-v2-queries")
        art = ModelArtifact.load(GOLDEN_V2)
        features = rng.uniform(-1.0, 1.0, size=(40, art.encoder_config["d_in"]))
        encoded = np.sign(rng.normal(size=(40, art.d_hv)))
        return features, encoded

    @pytest.mark.parametrize("mmap", [False, True])
    def test_loads_verified_and_predicts_like_its_v3_resave(
        self, tmp_path, queries, mmap
    ):
        manifest = json.loads((GOLDEN_V2 / MANIFEST_FILENAME).read_text())
        assert manifest["format_version"] == 2
        assert set(manifest["tensors"]) == {"class_hvs"}
        v2 = ModelArtifact.load(GOLDEN_V2, mmap=mmap, verify=True)
        assert v2.format_version == 2 and v2.is_packed
        assert v2.class_hvs.dtype == np.float32

        v3 = ModelArtifact.load(v2.save(tmp_path / "v3"), mmap=mmap)
        resaved = json.loads((tmp_path / "v3" / MANIFEST_FILENAME).read_text())
        assert resaved["format_version"] == 3 == v3.format_version
        assert set(resaved["tensors"]) == {"signs", "mags"}
        np.testing.assert_array_equal(v3.class_hvs, v2.class_hvs)
        assert v3.class_hvs.dtype == v2.class_hvs.dtype

        features, encoded = queries
        for backend in ("packed", "dense"):
            a, b = v2.engine(backend=backend), v3.engine(backend=backend)
            np.testing.assert_array_equal(a.scores(encoded), b.scores(encoded))
            np.testing.assert_array_equal(
                a.predict_features(features), b.predict_features(features)
            )

    @pytest.mark.parametrize("mmap", [False, True])
    def test_flipped_payload_byte_is_refused(self, tmp_path, mmap):
        path = tmp_path / "golden"
        path.mkdir()
        for name in (MANIFEST_FILENAME, TENSORS_FILENAME):
            (path / name).write_bytes((GOLDEN_V2 / name).read_bytes())
        blob = bytearray((path / TENSORS_FILENAME).read_bytes())
        # The 20.8 KB float32 store is nearly the whole file.
        blob[len(blob) // 2] ^= 0x01
        (path / TENSORS_FILENAME).write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            ModelArtifact.load(path, mmap=mmap)


def _rewrite_tensor(path, name, fn):
    """Rewrite one npz member of a saved artifact through ``fn``."""
    with np.load(path / TENSORS_FILENAME) as data:
        arrays = {key: data[key] for key in data.files}
    arrays[name] = fn(arrays[name])
    np.savez(path / TENSORS_FILENAME, **arrays)


class TestV3Tensors:
    """The v3 packed layout: every served tensor is checksummed and
    structurally checked against the manifest."""

    @pytest.fixture()
    def saved(self, tmp_path):
        _, model, _, _ = _trained_system(d_hv=700)
        keep = np.ones(700, dtype=bool)
        keep[::3] = False
        art = ModelArtifact.build(
            model, quantizer="bipolar", backend="packed", keep_mask=keep
        )
        return art.save(tmp_path / "a")

    def test_manifest_lists_the_served_tensors(self, saved):
        manifest = json.loads((saved / MANIFEST_FILENAME).read_text())
        assert set(manifest["tensors"]) == {"signs", "mags", "keep_mask"}
        with np.load(saved / TENSORS_FILENAME) as data:
            assert set(data.files) == {"signs", "mags", "keep_mask"}

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("name", ["signs", "mags", "keep_mask"])
    def test_corrupted_tensor_is_refused(self, saved, name, mmap):
        def flip(arr):
            arr = arr.copy()
            if arr.dtype == bool:
                arr[5] = not arr[5]
            else:
                arr[1, 2] ^= np.uint64(1 << 7)
            return arr

        _rewrite_tensor(saved, name, flip)
        with pytest.raises(ArtifactError, match="checksum"):
            ModelArtifact.load(saved, mmap=mmap)
        # verify=False trusts the bytes but still loads them as stored.
        ModelArtifact.load(saved, mmap=mmap, verify=False)

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize(
        "name, fn",
        [
            ("signs", lambda a: a[:, :-1].copy()),
            ("mags", lambda a: a.view(np.int64)),
            ("signs", lambda a: a[:-1].copy()),
            ("keep_mask", lambda a: a.astype(np.uint8)),
            ("keep_mask", lambda a: a[:-1].copy()),
        ],
    )
    def test_shape_or_dtype_mismatch_is_refused(self, saved, name, fn, mmap):
        _rewrite_tensor(saved, name, fn)
        for verify in (True, False):
            with pytest.raises(ArtifactError, match="manifest"):
                ModelArtifact.load(saved, mmap=mmap, verify=verify)

    def test_planes_disagreeing_with_d_hv_are_refused(self, saved):
        """Planes that match their own tensor entries but not the
        manifest's ``d_hv`` never reach the kernels."""
        manifest_path = saved / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["d_hv"] = 64 * 20
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="manifest"):
            ModelArtifact.load(saved)

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("name", ["signs", "mags"])
    def test_bits_past_d_hv_are_refused(self, saved, name, mmap):
        """A tail bit with a recomputed checksum passes the hash but
        would make packed norms disagree with the dense view."""
        tail_bit = np.uint64(1 << (700 % 64))

        def set_tail(arr):
            arr = arr.copy()
            arr[1, -1] |= tail_bit
            return arr

        _rewrite_tensor(saved, name, set_tail)
        with np.load(saved / TENSORS_FILENAME) as data:
            rehashed = hashlib.sha256(data[name]).hexdigest()
        manifest_path = saved / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["tensors"][name]["sha256"] = rehashed
        manifest_path.write_text(json.dumps(manifest))
        for verify in (True, False):
            with pytest.raises(ArtifactError, match="past d_hv"):
                ModelArtifact.load(saved, mmap=mmap, verify=verify)

    @pytest.mark.parametrize("store_dtype", ["<U8", "object", "no-such-type"])
    def test_non_numeric_store_dtype_is_refused(self, saved, store_dtype):
        manifest_path = saved / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["store_dtype"] = store_dtype
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="store_dtype"):
            ModelArtifact.load(saved)

    def test_missing_plane_is_refused(self, saved):
        with np.load(saved / TENSORS_FILENAME) as data:
            arrays = {key: data[key] for key in data.files if key != "mags"}
        np.savez(saved / TENSORS_FILENAME, **arrays)
        with pytest.raises(ArtifactError, match="missing"):
            ModelArtifact.load(saved)


class TestCorruptBytes:
    """Any single damaged byte either fails as ``ArtifactError`` or
    leaves the served planes and keep mask exactly as saved."""

    def test_every_flipped_byte_is_refused_or_harmless(self, tmp_path):
        rng = spawn(7, "corrupt-bytes")
        keep = np.ones(70, dtype=bool)
        keep[::4] = False
        art = ModelArtifact(
            store=rng.choice([-1.0, 1.0], size=(2, 70)) * keep,
            backend="packed",
            keep_mask=keep,
        )
        path = art.save(tmp_path / "a")
        planes = art.store.expand()
        escaped = []
        for name in (MANIFEST_FILENAME, TENSORS_FILENAME):
            blob = (path / name).read_bytes()
            with open(path / name, "r+b", buffering=0) as f:
                for i, byte in enumerate(blob):
                    for flip in (0xFF, 0x01):
                        f.seek(i)
                        f.write(bytes([byte ^ flip]))
                        for mmap in (False, True):
                            try:
                                got = ModelArtifact.load(path, mmap=mmap)
                            except ArtifactError:
                                continue
                            except Exception as exc:  # noqa: BLE001
                                escaped.append((name, i, flip, mmap, exc))
                                continue
                            same = got.is_packed and all(
                                np.array_equal(x, y)
                                for x, y in (
                                    (got.store.expand().signs, planes.signs),
                                    (got.store.expand().mags, planes.mags),
                                    (got.keep_mask, art.keep_mask),
                                )
                            )
                            if not same:
                                escaped.append((name, i, flip, mmap, got))
                    f.seek(i)
                    f.write(bytes([byte]))
        assert not escaped, escaped[:5]


class TestDenseView:
    """``class_hvs`` of a packed artifact: the built dtype and values."""

    # 64/640 are whole words; 1, 63, 65 and 1000 leave a partial tail.
    @pytest.mark.parametrize("backend", ["dense", "packed", "native"])
    @pytest.mark.parametrize(
        "quantizer", ["bipolar", "ternary", "ternary-biased"]
    )
    @pytest.mark.parametrize("d_hv", [1, 63, 64, 65, 640, 1000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int8])
    def test_round_trip_keeps_dtype_and_values(
        self, tmp_path, backend, quantizer, d_hv, dtype
    ):
        rng = spawn(d_hv, "dense-view")
        built = get_quantizer(quantizer)(rng.normal(size=(3, d_hv))).astype(dtype)
        art = ModelArtifact(
            store=built,
            query_quantizer=quantizer,
            store_quantizer=quantizer,
            backend=backend,
        )
        assert art.is_packed == (backend != "dense")
        for mmap in (False, True):
            loaded = ModelArtifact.load(art.save(tmp_path / "a"), mmap=mmap)
            assert loaded.class_hvs.dtype == np.dtype(dtype)
            assert loaded.class_hvs.shape == (3, d_hv)
            np.testing.assert_array_equal(loaded.class_hvs, built)
            assert not loaded.class_hvs.flags.writeable or backend == "dense"
            assert loaded.store_nbytes == art.store_nbytes
