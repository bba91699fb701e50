"""Deterministic random-stream management.

Hyperdimensional computing is built on *fixed* random projections: the base
and level hypervectors must be identical between training, inference,
attack, and hardware-simulation code paths, while noise used by the
differential-privacy mechanism must be independent of them.  We therefore
derive independent, named sub-streams from one root seed instead of passing
a single mutable generator around.

The scheme is a thin wrapper over :class:`numpy.random.SeedSequence`:
``spawn(seed, "isolet", "base-hv")`` always yields the same generator, and
generators spawned under different names are statistically independent.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

# A string: a process that never draws (the server) never loads numpy.random.
RngLike = Union[int, None, "np.random.Generator"]

__all__ = ["spawn", "derive_seed", "ensure_generator"]


def _key_to_int(key: str) -> int:
    """Map a stream name to a stable 32-bit integer.

    ``zlib.crc32`` is used (rather than ``hash``) because it is stable
    across interpreter runs and platforms, which is what makes experiment
    results byte-for-byte reproducible.
    """
    return zlib.crc32(key.encode("utf-8"))


def derive_seed(seed: int, *streams: str) -> int:
    """Derive a child seed from ``seed`` and a path of stream names.

    Parameters
    ----------
    seed:
        Root experiment seed.
    streams:
        Ordered stream names, e.g. ``("isolet", "base-hv")``.  Different
        paths give independent child seeds.

    Returns
    -------
    int
        A 63-bit seed suitable for :class:`numpy.random.default_rng`.
    """
    entropy = [int(seed)] + [_key_to_int(s) for s in streams]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def spawn(seed: int, *streams: str) -> np.random.Generator:
    """Create an independent :class:`numpy.random.Generator` for a stream.

    Examples
    --------
    >>> g1 = spawn(7, "base-hv")
    >>> g2 = spawn(7, "base-hv")
    >>> bool((g1.integers(0, 100, 5) == g2.integers(0, 100, 5)).all())
    True
    """
    return np.random.default_rng(derive_seed(seed, *streams))


def ensure_generator(rng: RngLike) -> np.random.Generator:
    """Coerce ``rng`` (seed, ``None`` or generator) into a generator.

    Accepting all three forms at public API boundaries keeps call sites
    short, while the internals always work with a concrete generator.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
