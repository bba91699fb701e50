"""Shared fixtures: a small, well-separated synthetic classification task.

The fixtures are deliberately tiny (tens of features, ~2k hypervector
dimensions) so the whole suite runs in seconds while still exercising the
same code paths the paper-scale experiments use.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.hd import HDModel, LevelBaseEncoder, ScalarBaseEncoder
from repro.utils import spawn
from tests.level_base_reference import reference_level_encode


def make_cluster_task(
    n: int = 240,
    d_in: int = 32,
    n_classes: int = 4,
    noise: float = 0.1,
    seed: int = 7,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian class clusters with features clipped to [0, 1]."""
    rng = spawn(seed, "cluster-task")
    means = rng.uniform(0.2, 0.8, (n_classes, d_in))
    y = rng.integers(0, n_classes, n)
    X = np.clip(means[y] + rng.normal(0.0, noise, (n, d_in)), 0.0, 1.0)
    return X, y


#: the level-base parity grid: row counts around a power of two, d_hv
#: at paper scale and small (both leave a partial tail word), d_in a
#: power of two and an odd paper-scale value
LEVEL_GRID_N = (1, 7, 128, 129, 300)
LEVEL_GRID_D_HV = (10_000, 1000)
LEVEL_GRID_D_IN = (64, 617)


@functools.lru_cache(maxsize=None)
def level_grid_case(
    d_in: int, d_hv: int, n_levels: int = 32, rows: int = max(LEVEL_GRID_N)
):
    """``(encoder, X, reference encoding of X)`` for one parity-grid point.

    ``X`` has ``rows`` rows; encoding is row-independent,
    so every ``n`` on the grid compares against a prefix of the one
    reference.  Features sit on ``lo`` and ``hi`` and outside
    ``[lo, hi]`` as well as inside it.  The reference is the per-level
    GEMM of :func:`tests.level_base_reference.reference_level_encode`,
    never the encoder's own kernel; cached because at paper scale it is the slow
    part and several test files share it.
    """
    enc = LevelBaseEncoder(d_in, d_hv, n_levels=n_levels, seed=23)
    rng = spawn(d_in, "level-grid-x")
    X = rng.uniform(-0.25, 1.25, (rows, d_in))
    X[rng.random(X.shape) < 0.1] = 0.0
    X[rng.random(X.shape) < 0.1] = 1.0
    return enc, X, reference_level_encode(enc, X)


@pytest.fixture(scope="session")
def task():
    """(X, y) with 4 well-separated classes in [0, 1]^32."""
    return make_cluster_task()


@pytest.fixture(scope="session")
def hard_task():
    """A noisier task where pruning/quantization effects are visible."""
    return make_cluster_task(n=400, d_in=24, n_classes=6, noise=0.22, seed=11)


@pytest.fixture(scope="session")
def scalar_encoder():
    return ScalarBaseEncoder(32, 2048, seed=3)


@pytest.fixture(scope="session")
def level_encoder():
    return LevelBaseEncoder(32, 2048, n_levels=16, seed=3)


@pytest.fixture(scope="session")
def trained(task, scalar_encoder):
    """(model, H, y) trained on the easy task with the scalar encoder."""
    X, y = task
    H = scalar_encoder.encode(X)
    model = HDModel.from_encodings(H, y, 4)
    return model, H, y
