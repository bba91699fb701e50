"""Shared utilities: deterministic RNG streams, validation, result tables.

Every stochastic component in the library draws its randomness from a
:class:`numpy.random.Generator` produced by :func:`repro.utils.rng.spawn`,
so that any experiment is reproducible from a single integer seed.
"""

from repro.utils.rng import spawn, derive_seed, ensure_generator
from repro.utils.tables import ResultTable, format_float
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_finite,
    check_in_range,
    check_labels,
    check_positive_int,
    check_probability,
)

__all__ = [
    "spawn",
    "derive_seed",
    "ensure_generator",
    "ResultTable",
    "format_float",
    "check_1d",
    "check_2d",
    "check_finite",
    "check_in_range",
    "check_labels",
    "check_positive_int",
    "check_probability",
]
