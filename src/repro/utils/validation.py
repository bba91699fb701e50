"""Argument validation helpers.

Small, explicit checkers used at every public API boundary.  They raise
``ValueError``/``TypeError`` with messages that name the offending argument
so failures surface at the call site rather than deep inside NumPy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "check_1d",
    "check_2d",
    "check_finite",
    "check_in_range",
    "check_labels",
    "check_positive_int",
    "check_probability",
]


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_range(
    value: float, name: str, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``)."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value}")
    return value


def check_1d(array: np.ndarray, name: str, *, length: int | None = None) -> np.ndarray:
    """Validate a 1-D array, optionally of exact ``length``."""
    array = np.asarray(array)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    if length is not None and array.shape[0] != length:
        raise ValueError(
            f"{name} must have length {length}, got {array.shape[0]}"
        )
    return array


def check_2d(
    array: np.ndarray,
    name: str,
    *,
    n_cols: int | None = None,
) -> np.ndarray:
    """Validate a 2-D array, optionally with exactly ``n_cols`` columns.

    1-D input is promoted to a single-row 2-D array, mirroring the
    scikit-learn convention for single-sample calls.
    """
    array = np.asarray(array)
    if array.ndim == 1:
        array = array[None, :]
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    if n_cols is not None and array.shape[1] != n_cols:
        raise ValueError(
            f"{name} must have {n_cols} columns, got {array.shape[1]}"
        )
    return array


def check_finite(array: np.ndarray, name: str) -> np.ndarray:
    """Reject NaN/±inf, naming the first offending column.

    Feature quantizers map values to levels with ``rint``/``clip``, which
    pass NaN through to an undefined level index; checking at the
    encoder boundary turns that into one clear error.  The column is
    the index along the last axis.
    """
    array = np.asarray(array)
    finite = np.isfinite(array)
    if not finite.all():
        where = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(
            f"{name} column {where[-1]} holds a non-finite value "
            f"({array[where]})"
        )
    return array


def check_labels(labels: Sequence[int], name: str, *, n_classes: int | None = None) -> np.ndarray:
    """Validate an integer label vector in ``[0, n_classes)``."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == arr.astype(np.int64)):
            raise ValueError(f"{name} must contain integers")
        arr = arr.astype(np.int64)
    arr = arr.astype(np.int64, copy=False)
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} must be non-negative, min is {arr.min()}")
    if n_classes is not None and arr.size and arr.max() >= n_classes:
        raise ValueError(
            f"{name} must be < {n_classes}, max is {arr.max()}"
        )
    return arr
