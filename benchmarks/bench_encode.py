"""Encoding-throughput benchmark: the chunked/parallel/packed pipeline.

Sweeps ``{scalar-base, level-base} × kernels × {1, N workers} × chunk
sizes`` through :class:`repro.hd.EncodePipeline`, times each
configuration against a single-shot dense baseline, **asserts parity in
the same run** (bit-identical for the packed and native level-base
kernels, tight allclose for the chunked float matmul), and writes the
results to ``BENCH_encode.json`` — the baseline format for the encode
bench trajectory.  The scalar-base baseline is ``encoder.encode(X)``.
The level-base baseline is the per-level GEMM formula of
``tests/level_base_reference.py``: ``encoder.encode`` itself runs the
flip-chain popcount, so it cannot serve as its reference.  The kernel
axis is the backend sweep: ``dense`` (NumPy matmul; scalar-base only,
since a level-base ``dense`` tile is ``encoder.encode``, i.e. ``auto``),
``packed`` (pure-NumPy flip-chain popcount), ``native`` (numba-compiled
kernels; skipped with a note when numba is absent)::

    PYTHONPATH=src python benchmarks/bench_encode.py             # paper scale
    PYTHONPATH=src python benchmarks/bench_encode.py --smoke     # CI seconds
    PYTHONPATH=src python benchmarks/bench_encode.py --backend all \
        --assert-native-speedup 2

Both modes end with the client leg: one masked row through
``InferenceObfuscator.prepare_packed`` at the edge-device shape, as the
core words a v6 client ships and as planes, hot and after an idle gap,
both asserted equal to the dense ``prepare``.

``--assert-speedup X`` exits non-zero unless the best level-base
configuration reaches ``X``× the single-shot baseline;
``--assert-native-speedup X`` exits non-zero unless the native
level-base kernel reaches ``X``× the packed kernel at ``workers=1``
(requires numba); parity failures always exit non-zero.
"""

import argparse
import json
import os
import pathlib
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # script mode works without an installed package
    sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))  # the level-base reference lives in tests/

import numpy as np

from repro.backend.native import kernels_available, warm_kernels
from repro.hd import EncodePipeline, LevelBaseEncoder, ScalarBaseEncoder
from repro.hd.encode_pipeline import default_workers
from repro.utils import spawn
from tests.level_base_reference import reference_level_encode


def _kernel_sweep(kind: str, backend: str) -> list[str]:
    """The kernels to measure for one encoder kind.

    Scalar-base has no bit-plane kernel, so "packed" does not apply;
    its native kernel is the fused quantize→matmul.  A level-base
    "dense" tile is ``encoder.encode``, the same kernel as "auto", so
    it is not measured twice.  Native entries are
    dropped (with a note printed by the caller) when numba is absent —
    the fallback would just re-measure the packed numbers.
    """
    if backend == "all":
        wanted = ["dense", "packed", "native"]
    else:
        wanted = [backend]
    skip = "packed" if kind == "scalar-base" else "dense"
    wanted = [k for k in wanted if k != skip]
    if not kernels_available():
        wanted = [k for k in wanted if k != "native"]
    return wanted


def _build_encoder(kind: str, d_in: int, d_hv: int, n_levels: int, seed: int):
    if kind == "level-base":
        return LevelBaseEncoder(d_in, d_hv, n_levels=n_levels, seed=seed)
    return ScalarBaseEncoder(d_in, d_hv, seed=seed)


def _time_best_of(fn, repeats: int) -> tuple[float, np.ndarray]:
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
        out = result
    return best, out


def _check_parity(kind: str, H_ref: np.ndarray, H: np.ndarray) -> bool:
    """True when results are bit-identical; raises when out of tolerance.

    Level-base sums ±1 addends — integer-exact in float32 — so the
    packed/chunked paths must match bit-for-bit.  Scalar-base is a float
    matmul whose chunked accumulation order may differ from single-shot
    by BLAS rounding only.
    """
    exact = bool(np.array_equal(H_ref, H))
    if kind == "level-base" and not exact:
        raise AssertionError("level-base pipeline diverged from single-shot")
    if not exact:
        np.testing.assert_allclose(H, H_ref, rtol=1e-5, atol=1e-3)
    return exact


def run_bench(args) -> dict:
    workers_sweep = sorted({1, args.workers})
    chunk_sweep = args.chunk_sizes
    rng = spawn(args.seed, "bench-encode-x")
    X = rng.uniform(0.0, 1.0, (args.n, args.d_in))

    report = {
        "bench": "encode",
        "config": {
            "d_in": args.d_in,
            "d_hv": args.dhv,
            "n_rows": args.n,
            "n_levels": args.n_levels,
            "repeats": args.repeats,
            "seed": args.seed,
            "workers_sweep": workers_sweep,
            "chunk_sweep": chunk_sweep,
            "backend": args.backend,
            "numba_available": kernels_available(),
            "cpu_count": os.cpu_count(),
        },
        "baselines": {},
        "results": [],
    }
    if kernels_available():
        warm_kernels()  # JIT compilation must not count against the timings
    elif args.backend in ("native", "all"):
        print("numba not installed: native kernel entries skipped")

    for kind in ("scalar-base", "level-base"):
        encoder = _build_encoder(kind, args.d_in, args.dhv, args.n_levels, args.seed)
        # The single-shot dense baseline: scalar-base's own GEMM, or the
        # per-level GEMM reference for level-base.
        single_shot = (
            encoder.encode
            if kind == "scalar-base"
            else lambda rows: reference_level_encode(encoder, rows)
        )
        # Warm the codebook caches (float, sign planes) out of the timings.
        encoder.encode(X[:8])
        base_s, H_ref = _time_best_of(lambda: single_shot(X), args.repeats)
        report["baselines"][kind] = {
            "path": "single-shot dense encode",
            "seconds": base_s,
            "rows_per_s": args.n / base_s,
        }
        print(
            f"{kind:<12} single-shot: {base_s:8.3f}s "
            f"({args.n / base_s:8.0f} rows/s)  [baseline]"
        )
        for kernel in _kernel_sweep(kind, args.backend):
            for workers in workers_sweep:
                for chunk_size in chunk_sweep:
                    pipeline = EncodePipeline(
                        encoder,
                        chunk_size=chunk_size,
                        workers=workers,
                        kernel=kernel,
                    )
                    secs, H = _time_best_of(
                        lambda: pipeline.encode(X), args.repeats
                    )
                    exact = _check_parity(kind, H_ref, H)
                    speedup = base_s / secs
                    report["results"].append(
                        {
                            "kind": kind,
                            "kernel": kernel,
                            "workers": workers,
                            "chunk_size": chunk_size,
                            "seconds": secs,
                            "rows_per_s": args.n / secs,
                            "speedup_vs_single_shot": speedup,
                            "bit_identical": exact,
                        }
                    )
                    print(
                        f"{kind:<12} kernel={kernel:<6} workers={workers} "
                        f"chunk={chunk_size:<6}"
                        f" {secs:8.3f}s ({args.n / secs:8.0f} rows/s)"
                        f"  {speedup:5.2f}x  "
                        f"{'bit-identical' if exact else 'allclose'}"
                    )

    best = {}
    for row in report["results"]:
        cur = best.get(row["kind"])
        if cur is None or row["speedup_vs_single_shot"] > cur:
            best[row["kind"]] = row["speedup_vs_single_shot"]
    report["headline"] = {
        f"{kind}_best_speedup": round(value, 3) for kind, value in best.items()
    }
    # The single-core native-vs-packed bar: best rows/s at workers=1 per
    # kernel (prange scaling inside the kernel is recorded, not gated).
    single = {}
    for row in report["results"]:
        if row["kind"] == "level-base" and row["workers"] == 1:
            cur = single.get(row["kernel"], 0.0)
            single[row["kernel"]] = max(cur, row["rows_per_s"])
    if "native" in single and "packed" in single:
        report["headline"]["level-base_native_vs_packed"] = round(
            single["native"] / single["packed"], 3
        )
    return report


#: the edge device of ``perfbench/``: ISOLET-shaped, half the dims masked
CLIENT_D_IN, CLIENT_D_HV = 617, 10_000


def _client_gap_us(call, X, gap_s: float, n: int) -> np.ndarray:
    """µs of each of ``n`` single-row calls, each after ``gap_s`` idle."""
    out = np.empty(n)
    for i in range(n):
        time.sleep(gap_s)
        t0 = time.perf_counter()
        call(X[i % len(X)][None, :])
        out[i] = (time.perf_counter() - t0) * 1e6
    return out


def run_client_leg(repeats: int, seed: int, gap_calls: int = 200) -> dict:
    """One row through the client's masked ``prepare_packed``, timed.

    The §III-C edge path at the edge-device shape (``d_in = 617``,
    ``d_hv = 10,000``, ``n_masked = d_hv / 2``, bipolar): encode →
    quantize → mask → pack on bit planes.  Times the call a v6 client
    makes per ``predict`` (``words="core"``, the core words alone) next
    to the planes call (``words="planes"``), hot (best of ``repeats``
    interleaved batches of 20 each) and, for the core call, after a
    0.5 ms idle gap per call, as the edge loop pays it between replies.
    Asserts first that the planes equal packing the dense ``prepare(X)``
    and the core words equal its sign bits on the core support (the
    kept dimensions some level flips); raises on a mismatch.
    """
    from repro.backend.packed import pack_hypervectors, pack_sign_planes
    from repro.core.inference_privacy import (
        InferenceObfuscator,
        ObfuscationConfig,
    )

    encoder = LevelBaseEncoder(CLIENT_D_IN, CLIENT_D_HV, seed=seed)
    obf = InferenceObfuscator(
        encoder,
        ObfuscationConfig(n_masked=CLIENT_D_HV // 2, mask_seed=seed),
    )
    X = spawn(seed, "bench-encode-client").uniform(0.0, 1.0, (64, CLIENT_D_IN))
    dense = obf.prepare(X)
    planes = obf.prepare_packed(X, words="planes")
    want = pack_hypervectors(dense)
    if not (
        np.array_equal(planes.signs, want.signs)
        and np.array_equal(planes.mags, want.mags)
    ):
        raise AssertionError("masked prepare_packed diverged from prepare")
    L = encoder.levels.vectors
    core = obf.keep_mask & (L[-1] != L[0])  # a flip chain ends flipped
    got = obf.prepare_packed(X, words="core").words
    if not np.array_equal(got, pack_sign_planes(dense[:, core])):
        raise AssertionError("core words diverged from prepare's core bits")
    one = X[:1]
    hot = {"core": float("inf"), "planes": float("inf")}
    for _ in range(repeats):  # interleaved, so host drift hits both
        for words in hot:
            t0 = time.perf_counter()
            for _ in range(20):
                obf.prepare_packed(one, words=words)
            us = (time.perf_counter() - t0) / 20 * 1e6
            hot[words] = min(hot[words], us)
    gap = _client_gap_us(
        lambda x: obf.prepare_packed(x, words="core"), X, 0.0005, gap_calls
    )
    p25, p50, p75 = np.percentile(gap, [25, 50, 75])
    leg = {
        "path": "InferenceObfuscator.prepare_packed, 1 row, bipolar",
        "d_in": CLIENT_D_IN,
        "d_hv": CLIENT_D_HV,
        "n_masked": CLIENT_D_HV // 2,
        "core_us_per_row": hot["core"],
        "planes_us_per_row": hot["planes"],
        "core_after_gap": {
            "gap_ms": 0.5,
            "calls": gap_calls,
            "p25_us": p25,
            "median_us": p50,
            "p75_us": p75,
        },
        "planes_equal_prepare": True,
        "core_equal_prepare": True,
    }
    print(
        f"client prepare_packed (d_in={CLIENT_D_IN}, d_hv={CLIENT_D_HV}, "
        f"n_masked={CLIENT_D_HV // 2}): core {hot['core']:5.0f} us/row, "
        f"planes {hot['planes']:5.0f} us/row hot; core after a 0.5 ms gap "
        f"median {p50:5.0f} us (p25 {p25:.0f}, p75 {p75:.0f})  "
        "planes and core words equal prepare"
    )
    return leg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--d-in", type=int, default=617, dest="d_in")
    parser.add_argument("--dhv", type=int, default=10000)
    parser.add_argument("--n", type=int, default=2048, help="rows to encode")
    parser.add_argument("--n-levels", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help="parallel worker count for the sweep (always paired with 1)",
    )
    parser.add_argument(
        "--chunk-sizes",
        type=lambda s: [int(v) for v in s.split(",")],
        default=[128, 512, 1024],
        help="comma-separated chunk sizes to sweep",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "tiny sizes for CI: still sweeps every axis and asserts "
            "parity, completes in seconds"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("dense", "packed", "native", "all"),
        default="all",
        help=(
            "kernel(s) to sweep; 'native' is the numba-compiled backend "
            "(skipped with a note when numba is absent)"
        ),
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="exit non-zero unless level-base best speedup reaches this",
    )
    parser.add_argument(
        "--assert-native-speedup",
        type=float,
        default=None,
        help=(
            "exit non-zero unless the native level-base kernel reaches "
            "this multiple of the packed kernel at workers=1 (the ISSUE "
            "bar is 2; requires numba)"
        ),
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_encode.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        # d_in % 64 != 0 and d_hv % 64 != 0 on purpose: the last feature
        # word and the last dimension word are both partial
        args.d_in, args.dhv, args.n = 65, 1000, 512
        args.chunk_sizes, args.repeats = [100, 256], 1

    report = run_bench(args)
    report["client_prepare"] = run_client_leg(
        max(args.repeats, 30), args.seed, gap_calls=50 if args.smoke else 200
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    for kind, value in report["headline"].items():
        print(f"  {kind}: {value}x")

    if args.assert_speedup is not None:
        got = report["headline"].get("level-base_best_speedup", 0.0)
        if got < args.assert_speedup:
            print(
                f"FAIL: level-base best speedup {got}x < "
                f"required {args.assert_speedup}x",
                file=sys.stderr,
            )
            return 1
    if args.assert_native_speedup is not None:
        got = report["headline"].get("level-base_native_vs_packed")
        if got is None:
            print(
                "FAIL: --assert-native-speedup needs numba and both the "
                "native and packed kernels in the sweep (--backend all)",
                file=sys.stderr,
            )
            return 1
        if got < args.assert_native_speedup:
            print(
                f"FAIL: native level-base kernel {got}x the packed "
                f"kernel, required {args.assert_native_speedup}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
