"""An independent oracle for level-base encoding: Eq. (2b) as float GEMMs.

:meth:`repro.hd.LevelBaseEncoder.encode` runs the flip-chain popcount,
so a parity check against ``encode`` would compare that kernel with
itself.  This module keeps the formula the dense encoder used to run,
which shares nothing with the kernel but the codebooks and the level
indices.  Binding distributes over bundling::

    Σ_k L[q_k] ⊙ B_k = Σ_l L_l ⊙ (Σ_{k : q_k = l} B_k)

so one ``(n, d_in) @ (d_in, d_hv)`` float32 matmul per level gives the
encoding.  Every partial sum is an integer below 2²⁴, so the float32
result is exact and must equal the kernel bit for bit.

Imports only NumPy, so ``benchmarks/bench_encode.py`` uses it as its
single-shot baseline and in-run parity reference without pytest.
"""

from __future__ import annotations

import numpy as np


def reference_level_encode(encoder, X) -> np.ndarray:
    """``(n, d_hv)`` float32 Eq. (2b) encoding, one GEMM per level."""
    idx = encoder.levels.indices(np.atleast_2d(X))
    base = encoder.base.vectors.astype(np.float32)
    levels = encoder.levels.vectors.astype(np.float32)
    out = np.zeros((idx.shape[0], encoder.d_hv), dtype=np.float32)
    for level in range(encoder.n_levels):
        mask = idx == level
        if mask.any():
            out += (mask.astype(np.float32) @ base) * levels[level]
    return out
