"""The native backend: fallback semantics, logging, and compiled kernels.

The ``repro.backend.native`` module must behave identically with and
without numba: every entry point answers bit-for-bit like the pure-NumPy
packed kernels, the fallback announces itself exactly once (INFO), and
forcing ``native=True`` / ``kernel="native"`` without numba fails with a
clear error instead of silently degrading.  The compiled-path tests are
skipif-guarded so the suite passes on a numba-free host and exercises
the JIT kernels on the CI job that installs numba.
"""

import logging
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro.backend.native as native_mod
from repro.backend import (
    pack_hypervectors,
    packed_class_scores,
    packed_dot_matrix,
    packed_hamming_matrix,
)
from repro.backend.native import (
    NUMBA_AVAILABLE,
    kernels_available,
    native_class_scores,
    native_dot_matrix,
    native_hamming_matrix,
    native_level_encode,
    native_level_encode_signs,
    native_quantize_features,
    warm_kernels,
)
from repro.hd.encoder import LevelBaseEncoder, ScalarBaseEncoder
from repro.utils import spawn

needs_numba = pytest.mark.skipif(
    not NUMBA_AVAILABLE, reason="numba is not installed"
)


def random_ternary(n, d, seed):
    rng = spawn(seed, "native-tests")
    return rng.choice([0.0, -1.0, 1.0], size=(n, d), p=(0.3, 0.35, 0.35))


@pytest.fixture()
def forced_fallback(monkeypatch):
    """Force the pure-NumPy path even when numba is installed."""
    monkeypatch.setattr(native_mod, "NUMBA_AVAILABLE", False)
    monkeypatch.setattr(native_mod, "_fallback_logged", False)


class TestFallback:
    def test_fallback_matches_packed_kernels(self, forced_fallback):
        a = pack_hypervectors(random_ternary(6, 130, 0))
        b = pack_hypervectors(random_ternary(4, 130, 1))
        np.testing.assert_array_equal(
            native_dot_matrix(a, b), packed_dot_matrix(a, b)
        )
        np.testing.assert_array_equal(
            native_class_scores(a, b), packed_class_scores(a, b)
        )
        np.testing.assert_array_equal(
            native_hamming_matrix(a, b), packed_hamming_matrix(a, b)
        )

    def test_fallback_logged_exactly_once(self, forced_fallback, caplog):
        a = pack_hypervectors(np.ones((2, 70)))
        with caplog.at_level(logging.INFO, logger="repro.backend.native"):
            native_dot_matrix(a, a)
            native_class_scores(a, a)
            native_hamming_matrix(a, a)
        notes = [
            r for r in caplog.records if "falls back" in r.getMessage()
        ]
        assert len(notes) == 1
        assert notes[0].levelno == logging.INFO

    def test_kernels_available_reports_false(self, forced_fallback):
        assert not kernels_available()
        assert warm_kernels() is False

    def test_level_encode_requires_kernels(self, forced_fallback):
        with pytest.raises(RuntimeError, match="numba"):
            native_level_encode(
                np.zeros((2, 3), dtype=np.int64),
                4,
                np.ones(1, dtype=np.int64),
                np.zeros((1, 1, 2), dtype=np.uint64),
                np.zeros((1, 2), dtype=np.int64),
                np.zeros(10, dtype=np.float32),
            )

    def test_encoder_native_flag_requires_kernels(self, forced_fallback):
        enc = LevelBaseEncoder(4, 70, seed=0)
        X = np.random.default_rng(0).uniform(0, 1, (3, 4))
        with pytest.raises(ValueError, match="numba"):
            enc.encode_packed(X, native=True)

    def test_pipeline_native_kernel_requires_kernels(self, forced_fallback):
        from repro.hd.encode_pipeline import EncodePipeline

        enc = LevelBaseEncoder(4, 70, seed=0)
        with pytest.raises(ValueError, match="numba"):
            EncodePipeline(enc, kernel="native")


class TestImportGuard:
    def test_import_without_numba_falls_back(self):
        """Blocking the numba import must leave the module fully usable.

        Run in a subprocess so the real module (and the backend
        registry) is untouched: with ``sys.modules["numba"] = None``
        the import machinery raises ImportError for numba, and the
        module must come up with ``NUMBA_AVAILABLE = False`` yet give
        bit-identical answers through the packed fallback.
        """
        script = textwrap.dedent(
            """
            import sys
            sys.modules["numba"] = None

            import numpy as np
            import repro.backend.native as native
            from repro.backend import pack_hypervectors, packed_dot_matrix

            assert native.NUMBA_AVAILABLE is False
            assert native.kernels_available() is False
            rng = np.random.default_rng(0)
            a = pack_hypervectors(rng.choice([-1.0, 1.0], size=(5, 100)))
            b = pack_hypervectors(rng.choice([-1.0, 1.0], size=(3, 100)))
            np.testing.assert_array_equal(
                native.native_dot_matrix(a, b), packed_dot_matrix(a, b)
            )
            print("fallback-ok")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout


@needs_numba
class TestCompiledKernels:
    """Bit-exactness of the JIT kernels (CI's numba job runs these)."""

    def test_warm_kernels(self):
        assert warm_kernels() is True

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 200, 1000])
    def test_dots_match_packed(self, d):
        a = pack_hypervectors(random_ternary(7, d, d))
        b = pack_hypervectors(random_ternary(5, d, d + 1))
        np.testing.assert_array_equal(
            native_dot_matrix(a, b), packed_dot_matrix(a, b)
        )
        np.testing.assert_array_equal(
            native_hamming_matrix(a, b), packed_hamming_matrix(a, b)
        )

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 200, 1000])
    def test_bipolar_dots_match_packed(self, d):
        rng = spawn(d, "native-bip")
        a = pack_hypervectors(rng.choice([-1.0, 1.0], size=(7, d)))
        b = pack_hypervectors(rng.choice([-1.0, 1.0], size=(5, d)))
        np.testing.assert_array_equal(
            native_dot_matrix(a, b), packed_dot_matrix(a, b)
        )

    @pytest.mark.parametrize(
        "d_in,d_hv",
        [
            (1, 63), (5, 64), (7, 70), (12, 128), (30, 129),
            (65, 130), (130, 200),
        ],
    )
    def test_level_encode_matches_numpy(self, d_in, d_hv):
        enc = LevelBaseEncoder(d_in, d_hv, seed=d_in)
        X = np.random.default_rng(d_hv).uniform(0, 1, (9, d_in))
        np.testing.assert_array_equal(
            enc.encode_packed(X, native=True),
            enc.encode_packed(X, native=False),
        )

    @pytest.mark.parametrize(
        "d_in,d_hv", [(1, 63), (7, 70), (12, 128), (30, 129), (65, 130)]
    )
    def test_level_encode_signs_match_numpy(self, d_in, d_hv):
        enc = LevelBaseEncoder(d_in, d_hv, seed=d_in)
        X = np.random.default_rng(d_hv + 1).uniform(0, 1, (9, d_in))
        a = enc.encode_packed_bipolar(X, native=True)
        b = enc.encode_packed_bipolar(X, native=False)
        np.testing.assert_array_equal(a.signs, b.signs)
        np.testing.assert_array_equal(a.mags, b.mags)
        plan = enc._column_plan()
        a, b = (
            enc._bipolar_planes(X, plan, native)
            for native in (True, False)
        )
        np.testing.assert_array_equal(a.core.words, b.core.words)
        np.testing.assert_array_equal(a.live.words, b.live.words)

    def test_scalar_quantize_matches_numpy(self):
        enc = ScalarBaseEncoder(6, 80, n_levels=16, seed=0)
        X = np.random.default_rng(2).uniform(-0.2, 1.2, (11, 6))
        np.testing.assert_array_equal(
            enc._quantized_features(X, True),
            enc.quantize_features(X),
        )

    def test_quantize_features_clip_only(self):
        X = np.array([[-0.5, 0.2, 1.7]], dtype=np.float64)
        got = native_quantize_features(X, 0.0, 1.0, None)
        np.testing.assert_array_equal(
            got, np.array([[0.0, 0.2, 1.0]], dtype=np.float32)
        )

    def test_level_encode_signs_shape(self):
        enc = LevelBaseEncoder(4, 70, seed=1)
        X = np.random.default_rng(3).uniform(0, 1, (5, 4))
        plan = enc._column_plan()
        signs, live, core = native_level_encode_signs(
            enc._level_indices(X), enc.n_levels, plan.flip, plan.agree,
            plan.cols, plan.fixed, plan.fixed_signs, plan.ranks,
            plan.fixed_live, plan.core_ranks, plan.n_core,
        )
        assert 0 < np.unique(plan.cols).size < enc.d_hv
        assert signs.shape == (5, -(-enc.d_hv // 64))
        assert signs.dtype == np.uint64
        assert live.shape == (5, -(-plan.n_live // 64))
        assert core.shape == (5, -(-plan.n_core // 64))
