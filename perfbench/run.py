#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload edge_features --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it serves ``src/`` as is; there
is nothing to build).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the workload untraced and then traced and prints the
per-layer metrics (see ``layers.py``).  Every line but the last is a
human-readable report; the last is the JSON result.  Exits non-zero,
without a result, on a failed set-up, a run over its time budget, or a
checkout without the program's source, and with ``"correct": false`` on
any wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402  (stdlib + numpy only at import)

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: a run that has not finished its timed phases by then fails (exit != 0)
RUN_BUDGET_S = 150.0


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="work per run is this times a per-workload constant")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def ensure_environment() -> None:
    """Re-exec under the pinned environment; refuse a checkout without ``src``."""
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        raise harness.BenchError(
            f"program source not found under {harness.SRC}; run from a "
            "checkout of the repository")
    if any(os.environ.get(k) != v for k, v in harness.PINNED_ENV.items()):
        env = harness.child_env()
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    sys.path.insert(0, str(harness.SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (harness.SRC / "repro").resolve():
        raise harness.BenchError(f"imported repro from {repro.__file__}, not {harness.SRC}")


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(phase, setup_totals) -> dict:
    rows = phase.attempted
    lat = phase.latencies_ms
    m = phase.meter
    return {
        "setup_s": metric(statistics.median(setup_totals), "s"),
        "rows_per_s": metric(phase.rows_ok / m.wall_s, "rows/s"),
        "latency_p50_ms": metric(harness.percentile(lat, 50), "ms"),
        "server_cpu_us_per_row": metric(m.server_cpu_s * 1e6 / rows, "us"),
        "client_cpu_us_per_row": metric(m.client_cpu_s * 1e6 / rows, "us"),
        "server_rss_mib": metric(m.server_rss_mib, "MiB"),
    }


def timed_phase(workload, setup, recorder=None):
    workload.prelude(setup)
    stats_before = setup.server.stats() if recorder is not None else None
    phase = workload.run(setup, recorder)
    return phase, stats_before


def run_untraced(workload):
    setups = []
    for k in range(SETUP_REPEATS):
        setup = workload.set_up()
        setups.append(setup)
        if k < SETUP_REPEATS - 1:
            workload.tear_down(setup)
    try:
        workload.reference()
        phase, _ = timed_phase(workload, setup)
    finally:
        workload.tear_down(setup)
    totals = [s.total_s for s in setups]
    report = {"setup_s_each": totals,
              "setup_phases": [s.phases for s in setups],
              "samples": len(phase.latencies_ms),
              "latency_p95_ms": harness.percentile(phase.latencies_ms, 95)}
    return phase, end_to_end(phase, totals), report


def run_traced(workload):
    import layers
    from spans import SpanRecorder, install

    base_setup = workload.set_up()
    try:
        workload.reference()
        base, _ = timed_phase(workload, base_setup)
    finally:
        workload.tear_down(base_setup)

    recorder = SpanRecorder()
    absent = install(recorder)
    # the latest traced run's spans are kept for inspection
    span_dir = harness.TMP_ROOT / f"trace-{workload.name}"
    span_dir.mkdir(parents=True, exist_ok=True)
    server_spans_path = span_dir / "server.json"
    setup = workload.set_up(
        launcher=[str(BENCH_DIR / "serve_traced.py"), str(server_spans_path)])
    try:
        phase, stats_before = timed_phase(workload, setup, recorder)
        stats_after = setup.server.stats()
        counters = workload.client_counters(setup.client)
    finally:
        workload.tear_down(setup)
    with open(server_spans_path) as fh:
        server = json.load(fh)
    recorder.dump(span_dir / "client.json")
    metrics, report = layers.per_layer(
        base, base_setup, phase, recorder, server,
        stats_before, stats_after, counters)
    report["absent_targets"] = absent
    report["span_files"] = str(span_dir.relative_to(harness.ROOT))
    return phase, metrics, report


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        ensure_environment()
        harness.pin_client()
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](
            args.seed, args.seconds, time.perf_counter() + RUN_BUDGET_S)
        workload.make_inputs()
        if args.trace:
            phase, metrics, report = run_traced(workload)
        else:
            phase, metrics, report = run_untraced(workload)
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if harness.TMP_ROOT.is_dir() and not any(harness.TMP_ROOT.iterdir()):
            harness.TMP_ROOT.rmdir()
    correct = phase.failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host": harness.host_info(), **report}, default=float))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed requests: {phase.failed} of {phase.attempted}")
    if not correct:
        print(f"error: {phase.failed} of {phase.attempted} requests failed "
              "or answered differently from the offline reference", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
