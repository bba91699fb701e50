"""Synthetic feature-vector classification generator.

The run environment has no network access, so the UCI/Caltech datasets of
the paper are substituted with a deterministic generator (see DESIGN.md §2
for the validity argument).  The generator produces Gaussian class
clusters with

* per-class mean vectors placed at a controlled pairwise distance,
* *correlated* within-class noise (a shared low-rank factor plus diagonal
  noise), which mimics the strong feature correlations of real extracted
  features (MFCC-like audio features, face descriptors), and
* features squashed to ``[0, 1]`` through a logistic map, matching the
  normalized-feature convention of the HD literature.

Class separability — and therefore the achievable HD accuracy — is set by
``class_spread`` relative to ``noise_scale``; the dataset modules
(:mod:`repro.data.isolet` etc.) pin calibrated values so the full-precision
baselines land near the paper's accuracies.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, ensure_generator
from repro.utils.validation import check_positive_int

__all__ = ["make_cluster_features", "logistic_squash"]


def logistic_squash(Z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Map unbounded features smoothly into (0, 1).

    A logistic map (rather than min-max over the realized sample) keeps
    the transform *dataset independent* — adding or removing one record
    does not move every other record, which matters for the adjacent-
    dataset constructions in the differential-privacy experiments.
    """
    z = np.asarray(Z, dtype=np.float64) / scale
    # exp(-|z|) never overflows: 1 / (1 + e^-z) for z >= 0 and
    # e^z / (1 + e^z) below, with no masked copies.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def make_cluster_features(
    n: int,
    d_in: int,
    n_classes: int,
    *,
    class_spread: float = 1.0,
    noise_scale: float = 1.0,
    correlated_rank: int = 8,
    correlated_weight: float = 0.5,
    class_balance: np.ndarray | None = None,
    rng: RngLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` labelled feature vectors in ``[0, 1]^d_in``.

    Parameters
    ----------
    n, d_in, n_classes:
        Sample count, feature count, class count.
    class_spread:
        Standard deviation of class-mean coordinates; larger ⇒ classes
        farther apart ⇒ easier task.
    noise_scale:
        Standard deviation of the within-class noise (before squashing).
    correlated_rank:
        Rank of the shared noise factor; 0 disables correlated noise.
    correlated_weight:
        Fraction of noise variance carried by the correlated factor.
    class_balance:
        Optional ``(n_classes,)`` sampling probabilities (default uniform).
    rng:
        Seed or generator; the class means depend only on this, so two
        calls with the same rng stream draw from the *same* population.

    Returns
    -------
    (X, y):
        ``X`` is ``(n, d_in)`` float64 in [0, 1]; ``y`` is ``(n,)`` int64.
    """
    check_positive_int(n, "n")
    check_positive_int(d_in, "d_in")
    check_positive_int(n_classes, "n_classes")
    if not 0.0 <= correlated_weight < 1.0:
        raise ValueError(
            f"correlated_weight must be in [0, 1), got {correlated_weight}"
        )
    if correlated_rank < 0:
        raise ValueError(f"correlated_rank must be >= 0, got {correlated_rank}")
    gen = ensure_generator(rng)

    # Population structure (means, factor loadings) is drawn first so that
    # sample count does not perturb it (important for subsample sweeps).
    means = gen.normal(0.0, class_spread, size=(n_classes, d_in))
    if correlated_rank > 0:
        loadings = gen.normal(
            0.0, 1.0 / np.sqrt(correlated_rank), size=(correlated_rank, d_in)
        )

    if class_balance is None:
        y = gen.integers(0, n_classes, size=n)
    else:
        p = np.asarray(class_balance, dtype=np.float64)
        if p.shape != (n_classes,) or np.any(p < 0) or p.sum() == 0:
            raise ValueError("class_balance must be non-negative with a positive sum")
        y = gen.choice(n_classes, size=n, p=p / p.sum())

    diag_w = np.sqrt(1.0 - correlated_weight)
    Z = means[y] + diag_w * gen.normal(0.0, noise_scale, size=(n, d_in))
    if correlated_rank > 0:
        factors = gen.normal(0.0, noise_scale, size=(n, correlated_rank))
        Z += np.sqrt(correlated_weight) * (factors @ loadings)

    X = logistic_squash(Z, scale=max(class_spread, noise_scale) * 2.0)
    return X, y.astype(np.int64)
