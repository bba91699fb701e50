"""Tests for inference obfuscation (quantize + mask, §III-C)."""

import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.inference_privacy import (
    InferenceObfuscator,
    ObfuscationConfig,
)
from repro.backend.packed import pack_hypervectors
from repro.hd import HDModel, LevelBaseEncoder, ScalarBaseEncoder
from repro.hd.item_memory import BaseMemory
from repro.utils import spawn
from tests.conftest import (
    LEVEL_GRID_D_HV,
    LEVEL_GRID_D_IN,
    LEVEL_GRID_N,
    level_grid_case,
    make_cluster_task,
)
from tests.level_base_reference import reference_level_encode


@pytest.fixture(scope="module")
def setup():
    X, y = make_cluster_task(n=400, d_in=32, n_classes=4, noise=0.1, seed=51)
    X = 2.0 * X - 1.0  # centered features, as the real datasets use
    enc = ScalarBaseEncoder(32, 2048, lo=-1.0, hi=1.0, seed=5)
    H = enc.encode(X)
    model = HDModel.from_encodings(H, y, 4)
    return enc, model, X, y


class TestConfig:
    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            ObfuscationConfig(n_masked=-1)

    def test_mask_covering_everything_rejected(self, setup):
        enc, *_ = setup
        with pytest.raises(ValueError):
            InferenceObfuscator(enc, ObfuscationConfig(n_masked=2048))

    def test_defaults(self, setup):
        enc, *_ = setup
        obf = InferenceObfuscator(enc)
        assert obf.quantizer.name == "bipolar"
        assert obf.n_unmasked == 2048


class TestPrepare:
    def test_output_is_quantized_and_masked(self, setup):
        enc, _, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=500))
        Q = obf.prepare(X[:6])
        assert Q.shape == (6, 2048)
        assert np.all(Q[:, ~obf.keep_mask] == 0.0)
        assert set(np.unique(Q[:, obf.keep_mask])) <= {-1.0, 1.0}

    def test_mask_is_fixed_across_queries(self, setup):
        enc, _, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=700))
        Q1 = obf.prepare(X[:3])
        Q2 = obf.prepare(X[3:6])
        zeros1 = np.all(Q1 == 0, axis=0)
        zeros2 = np.all(Q2 == 0, axis=0)
        np.testing.assert_array_equal(
            zeros1 & ~obf.keep_mask, zeros2 & ~obf.keep_mask
        )

    def test_mask_deterministic_by_seed(self, setup):
        enc, *_ = setup
        a = InferenceObfuscator(enc, ObfuscationConfig(n_masked=100, mask_seed=1))
        b = InferenceObfuscator(enc, ObfuscationConfig(n_masked=100, mask_seed=1))
        c = InferenceObfuscator(enc, ObfuscationConfig(n_masked=100, mask_seed=2))
        np.testing.assert_array_equal(a.keep_mask, b.keep_mask)
        assert not np.array_equal(a.keep_mask, c.keep_mask)

    def test_identity_quantizer_masks_only(self, setup):
        enc, _, X, _ = setup
        obf = InferenceObfuscator(
            enc, ObfuscationConfig(quantizer="identity", n_masked=100)
        )
        Q = obf.prepare(X[:2])
        H = enc.encode(X[:2])
        np.testing.assert_allclose(
            Q[:, obf.keep_mask], H[:, obf.keep_mask], rtol=1e-6
        )


class TestAccuracy:
    def test_quantization_costs_little(self, setup):
        """Fig. 6: 1-bit query quantization ≈ baseline accuracy."""
        enc, model, X, y = setup
        plain = model.accuracy(enc.encode(X), y)
        obf = InferenceObfuscator(enc)
        assert obf.evaluate_accuracy(model, X, y) >= plain - 0.03

    def test_moderate_masking_tolerable(self, setup):
        enc, model, X, y = setup
        plain = model.accuracy(enc.encode(X), y)
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=1024))
        assert obf.evaluate_accuracy(model, X, y) >= plain - 0.1

    def test_extreme_masking_degrades(self, setup):
        enc, model, X, y = setup
        gentle = InferenceObfuscator(enc, ObfuscationConfig(n_masked=256))
        brutal = InferenceObfuscator(enc, ObfuscationConfig(n_masked=2040))
        assert brutal.evaluate_accuracy(model, X, y) <= gentle.evaluate_accuracy(
            model, X, y
        )


class TestLeakage:
    def test_obfuscation_raises_reconstruction_error(self, setup):
        enc, _, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=1024))
        rep = obf.leakage_report(X[:40])
        assert rep.normalized_mse > 1.0
        assert rep.mse_obfuscated > rep.mse_plain

    def test_psnr_drops(self, setup):
        enc, _, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=1024))
        rep = obf.leakage_report(X[:40])
        assert rep.psnr_obfuscated < rep.psnr_plain

    def test_more_masking_more_protection(self, setup):
        enc, _, X, _ = setup
        light = InferenceObfuscator(enc, ObfuscationConfig(n_masked=128))
        heavy = InferenceObfuscator(enc, ObfuscationConfig(n_masked=1800))
        assert (
            heavy.leakage_report(X[:40]).normalized_mse
            > light.leakage_report(X[:40]).normalized_mse
        )

    def test_quantization_alone_leaks_less_than_nothing(self, setup):
        """Fig. 9(a)/(b): quantization alone already raises MSE ~2x."""
        enc, _, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=0))
        rep = obf.leakage_report(X[:40])
        assert rep.normalized_mse > 1.2


class TestPackedOffload:
    """§III-C offload in packed wire format (prepare_packed)."""

    def test_prepare_packed_unpacks_to_prepare(self, setup):
        enc, _, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=500))
        packed = obf.prepare_packed(X[:20])
        np.testing.assert_array_equal(
            packed.unpack(np.float64), obf.prepare(X[:20])
        )

    def test_host_decisions_identical_on_either_wire_format(self, setup):
        enc, model, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=500))
        dense_preds = model.predict(obf.prepare(X[:30]))
        packed_preds = model.predict(obf.prepare_packed(X[:30]))
        np.testing.assert_array_equal(packed_preds, dense_preds)

    def test_masked_query_is_ternary_not_bipolar(self, setup):
        enc, _, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=100))
        assert not obf.prepare_packed(X[:5]).is_bipolar
        no_mask = InferenceObfuscator(enc, ObfuscationConfig(n_masked=0))
        assert no_mask.prepare_packed(X[:5]).is_bipolar

    def test_packed_wire_is_16x_smaller(self, setup):
        enc, _, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=500))
        dense_wire = obf.prepare(X[:20])
        packed_wire = obf.prepare_packed(X[:20])
        assert packed_wire.nbytes * 16 <= dense_wire.astype(np.float32).nbytes

    def test_unpackable_quantizer_raises(self, setup):
        enc, _, X, _ = setup
        obf = InferenceObfuscator(enc, ObfuscationConfig(quantizer="2bit"))
        with pytest.raises(ValueError, match="bit-packable"):
            obf.prepare_packed(X[:5])


def _assert_same_planes(got, want):
    assert got.d == want.d
    np.testing.assert_array_equal(got.signs, want.signs)
    np.testing.assert_array_equal(got.mags, want.mags)


class TestLevelBaseFastPath:
    """Bipolar + level-base: sign planes straight off the flip-chain
    count, mask AND-ed in — plane-for-plane equal to packing the
    dense ``prepare``."""

    @pytest.mark.parametrize("keep", ("all", "half", "level-invariant"))
    @pytest.mark.parametrize("d_in", LEVEL_GRID_D_IN)
    @pytest.mark.parametrize("d_hv", LEVEL_GRID_D_HV)
    @pytest.mark.parametrize("n", LEVEL_GRID_N)
    def test_prepare_packed_matches_packed_prepare(self, n, d_hv, d_in, keep):
        # n_masked 5000 of 10000 (and 500 of 1000): half the dims dropped
        enc, X, H = level_grid_case(d_in, d_hv)
        obf = InferenceObfuscator(
            enc, ObfuscationConfig(n_masked=d_hv // 2 if keep == "half" else 0)
        )
        if keep == "level-invariant":
            # every live dimension is one no level flips: nothing to count
            L = enc.levels.vectors
            obf.keep_mask = (L == L[0]).all(axis=0)
        # prepare(X) == obfuscate_encodings(encode(X)); the dense encode
        # is the cached grid reference.
        want = pack_hypervectors(obf.obfuscate_encodings(H[:n]))
        _assert_same_planes(obf.prepare_packed(X[:n]), want)

    @pytest.mark.parametrize("d_hv", (None, 777))
    def test_prepare_packed_matches_prepare_directly(self, d_hv):
        enc = LevelBaseEncoder(617, 1000, n_levels=32, seed=4)
        if d_hv is not None:
            enc = enc.truncated(d_hv)
        X = spawn(3, "fast-path-x").uniform(0.0, 1.0, (9, 617))
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=300))
        got = obf.prepare_packed(X)
        _assert_same_planes(got, pack_hypervectors(obf.prepare(X)))
        _assert_same_planes(
            got,
            pack_hypervectors(
                obf.obfuscate_encodings(reference_level_encode(enc, X))
            ),
        )

    def test_pickle_drops_the_column_plans(self):
        enc = LevelBaseEncoder(64, 1000, n_levels=32, seed=4)
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=500))
        # built on first encode, never by construction alone
        assert obf._live_plan is None and "_plan" not in vars(enc)
        X = spawn(7, "fast-path-x").uniform(0.0, 1.0, (5, 64))
        want = obf.prepare_packed(X)
        enc.encode(X)
        assert obf._live_plan is not None and "_plan" in vars(enc)
        clone = pickle.loads(pickle.dumps(obf))
        assert clone._live_plan is None and "_plan" not in vars(clone.encoder)
        _assert_same_planes(clone.prepare_packed(X), want)

    def test_fast_path_never_builds_the_dense_tile(self, monkeypatch):
        enc = LevelBaseEncoder(64, 1000, n_levels=32, seed=4)
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=100))

        def no_dense(X):
            raise AssertionError("dense encode on the bipolar fast path")

        monkeypatch.setattr(enc, "encode", no_dense)
        X = spawn(5, "fast-path-x").uniform(0.0, 1.0, (4, 64))
        assert obf.prepare_packed(X).n == 4

    def test_threads_sharing_one_obfuscator_match_a_serial_run(self):
        """Row scratch is per thread: threads encoding different rows
        through one obfuscator (as ``serve ARTIFACT``'s client threads
        do) get the words a serial run gets, bit for bit."""
        enc = LevelBaseEncoder(617, 10_000, n_levels=32, seed=4)
        obf = InferenceObfuscator(
            enc, ObfuscationConfig(n_masked=5000, mask_seed=2)
        )
        X = spawn(8, "threads-x").uniform(-0.1, 1.1, (24, 617))
        calls = [(i, w) for i in range(len(X))
                 for w in (None, "planes", "live", "core")]

        def words(i, w):
            got = obf.prepare_packed(X[i : i + 1], words=w)
            if w in (None, "planes"):
                return np.concatenate([got.signs, got.mags], axis=1)
            return got.words

        serial = [words(i, w) for i, w in calls]
        n_threads = 4
        start = threading.Barrier(n_threads)

        def run(t):
            start.wait()
            return [words(*calls[j]) for j in range(t, len(calls), n_threads)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between most calls
        try:
            with ThreadPoolExecutor(n_threads) as pool:
                runs = list(pool.map(run, range(n_threads)))
        finally:
            sys.setswitchinterval(interval)
        for t, got in enumerate(runs):
            for k, j in enumerate(range(t, len(calls), n_threads)):
                np.testing.assert_array_equal(got[k], serial[j])

    @pytest.mark.parametrize("words", ("live", "core"))
    def test_ternary_rows_carry_no_word_sets(self, words):
        enc, X, _ = level_grid_case(64, 1000)
        obf = InferenceObfuscator(
            enc, ObfuscationConfig(quantizer="ternary", n_masked=500)
        )
        assert obf.live_digest is None and obf.core_digest is None
        planes = obf.prepare_packed(X[:3], words="planes")
        assert planes.live is None and planes.core is None
        _assert_same_planes(planes, obf.prepare_packed(X[:3]))
        with pytest.raises(ValueError, match=f"no '{words}' words"):
            obf.prepare_packed(X[:3], words=words)

    @pytest.mark.parametrize("quantizer", ("ternary", "ternary-biased"))
    def test_ternary_packs_the_quantized_encoding(self, quantizer):
        enc, X, H = level_grid_case(64, 1000)
        obf = InferenceObfuscator(
            enc, ObfuscationConfig(quantizer=quantizer, n_masked=500)
        )
        got = obf.prepare_packed(X[:129])
        _assert_same_planes(got, pack_hypervectors(obf.prepare(X[:129])))
        _assert_same_planes(
            got, pack_hypervectors(obf.obfuscate_encodings(H[:129]))
        )
        assert not got.is_bipolar

    @pytest.mark.parametrize("quantizer", ("ternary", "ternary-biased"))
    def test_ternary_never_touches_a_float_codebook(
        self, quantizer, monkeypatch
    ):
        def no_float(self):
            raise AssertionError("float codebook on a level-base path")

        monkeypatch.setattr(BaseMemory, "as_float", no_float)
        enc = LevelBaseEncoder(64, 1000, n_levels=32, seed=4)
        obf = InferenceObfuscator(
            enc, ObfuscationConfig(quantizer=quantizer, n_masked=500)
        )
        X = spawn(6, "fast-path-x").uniform(0.0, 1.0, (3, 64))
        obf.prepare(X)
        obf.prepare_packed(X)
        assert not hasattr(enc.levels, "as_float")
        assert "_float_cache" not in vars(enc.base)
        assert "_float_cache" not in vars(enc.levels)
