"""The compiled kernels' logic, checked in tier-1 on a host without numba.

``repro.backend.native`` defines its kernels only when ``numba``
imports, so on a numba-free host the kernel bodies never run.  This
module loads a private copy of the module against the stand-in package
in ``tests/backend/numba_standin`` (``njit`` returns the function,
``prange`` is ``range``) and checks every kernel on small shapes against
the packed and dense references.  The real module, and the backend
registry, stay as they were for the rest of the session.

The stand-in checks the kernels' logic — indexing, word and bit
arithmetic, loop bounds — not numba's typing: interpreted, the uint64
arithmetic runs on NumPy scalars, which warn on overflow where compiled
code wraps silently, and a typing error numba would raise passes here.
The CI ``native-kernels`` job, with numba installed, stays the typing
check (its skipif-guarded tests live in ``test_native.py``).
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.backend.base as backend_base
import repro.backend.native as native_mod
import repro.hd.encoder as encoder_mod
from repro.backend import (
    pack_hypervectors,
    packed_class_scores,
    packed_dot_matrix,
    packed_hamming_matrix,
)
from repro.hd.encoder import LevelBaseEncoder, ScalarBaseEncoder
from repro.utils import spawn
from tests.level_base_reference import reference_level_encode

pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning"
)

STANDIN = Path(__file__).with_name("numba_standin") / "numba" / "__init__.py"


@pytest.fixture(scope="module")
def standin():
    """``repro.backend.native`` loaded anew with the stand-in as numba."""
    spec = importlib.util.spec_from_file_location("numba", STANDIN)
    numba = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(numba)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "numba", numba)
        # The copy's NativeBackend must not replace the registered one.
        mp.setattr(backend_base, "register_backend", lambda cls: cls)
        spec = importlib.util.spec_from_file_location(
            "repro.backend._native_standin", native_mod.__file__
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    assert module.NUMBA_AVAILABLE and module.kernels_available()
    return module


@pytest.fixture()
def encoders_on_standin(standin, monkeypatch):
    """The encoders' kernel calls go to the stand-in copy."""
    monkeypatch.setattr(encoder_mod, "native_kernels", standin)
    return standin


def ternary(n, d, seed):
    rng = spawn(seed, "native-standin")
    return rng.choice([0.0, -1.0, 1.0], size=(n, d), p=(0.3, 0.35, 0.35))


def bipolar(n, d, seed):
    return spawn(seed, "native-standin-bip").choice([-1.0, 1.0], size=(n, d))


def test_warm_kernels_runs_every_kernel(standin):
    assert standin.warm_kernels() is True


@pytest.mark.parametrize("d", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("rows", [ternary, bipolar])
def test_dots_and_hamming_match_packed_and_dense(standin, d, rows):
    A, B = rows(5, d, d), rows(3, d, d + 1)
    a, b = pack_hypervectors(A), pack_hypervectors(B)
    dots = standin.native_dot_matrix(a, b)
    np.testing.assert_array_equal(dots, packed_dot_matrix(a, b))
    np.testing.assert_array_equal(dots, (A @ B.T).astype(np.int64))
    # the smaller batch on the left runs the transposed kernel call
    np.testing.assert_array_equal(
        standin.native_dot_matrix(b, a), packed_dot_matrix(b, a)
    )
    np.testing.assert_array_equal(
        standin.native_hamming_matrix(a, b), packed_hamming_matrix(a, b)
    )


@pytest.mark.parametrize("rows", [ternary, bipolar])
def test_class_scores_match_packed(standin, rows):
    queries = pack_hypervectors(rows(4, 130, 0))
    store = pack_hypervectors(rows(3, 130, 1))
    np.testing.assert_array_equal(
        standin.native_class_scores(queries, store),
        packed_class_scores(queries, store),
    )


@pytest.mark.parametrize("d_in,d_hv", [(1, 63), (7, 70), (12, 128), (30, 129)])
def test_level_encode_matches_numpy_and_dense(encoders_on_standin, d_in, d_hv):
    enc = LevelBaseEncoder(d_in, d_hv, seed=d_in)
    X = np.random.default_rng(d_hv).uniform(0, 1, (6, d_in))
    got = enc.encode_packed(X, native=True)
    np.testing.assert_array_equal(got, enc.encode_packed(X, native=False))
    np.testing.assert_array_equal(got, reference_level_encode(enc, X))


@pytest.mark.parametrize("d_in,d_hv", [(1, 63), (7, 70), (12, 128), (30, 129)])
def test_level_sign_words_match_numpy(encoders_on_standin, d_in, d_hv):
    enc = LevelBaseEncoder(d_in, d_hv, seed=d_in)
    X = np.random.default_rng(d_hv + 1).uniform(0, 1, (6, d_in))
    plan = enc._column_plan()
    got, want = (enc._bipolar_planes(X, plan, native) for native in (True, False))
    np.testing.assert_array_equal(got.signs, want.signs)
    np.testing.assert_array_equal(got.mags, want.mags)
    np.testing.assert_array_equal(got.live.words, want.live.words)
    np.testing.assert_array_equal(got.core.words, want.core.words)
    dense_signs = pack_hypervectors(
        np.where(reference_level_encode(enc, X) >= 0, 1.0, -1.0)
    ).signs
    np.testing.assert_array_equal(got.signs, dense_signs)


@pytest.mark.parametrize("snap", [True, False])
def test_quantize_matches_numpy(standin, encoders_on_standin, snap):
    X = np.random.default_rng(2).uniform(-0.2, 1.2, (7, 6))
    if snap:
        enc = ScalarBaseEncoder(6, 80, n_levels=16, seed=0)
        np.testing.assert_array_equal(
            enc._quantized_features(X, True), enc.quantize_features(X)
        )
    else:
        np.testing.assert_array_equal(
            standin.native_quantize_features(X, 0.0, 1.0, None),
            np.clip(X, 0.0, 1.0).astype(np.float32),
        )
