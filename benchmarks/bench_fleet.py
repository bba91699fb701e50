"""Million-model fleet benchmark: tenant sweep, LRU cache, coalescing.

Prive-HD's packed class stores are tiny (two 32.7 KB bit planes for 26
classes x 10,000 dims, ~34 KB held once a shared magnitude plane is kept
as one row), so one host can plausibly serve 10^4-10^5 per-user
models.  This benchmark measures whether the :mod:`repro.serve.fleet`
subsystem actually delivers that:

1. **Tenant sweep** — build a fleet of N tenants (N from 1 to 10,000;
   the tenants round-robin over a handful of on-disk prototype
   artifacts, so the sweep is bounded by registry/engine state, not by
   artifact construction) and drive a round-robin single-query workload
   through :class:`~repro.serve.ServingAPI`, recording q/s, p50/p99
   latency, cache hit rate, resident bytes, and process RSS per tier.
   Hits, misses and evictions are counted over the measured window
   only (the difference of two :class:`~repro.serve.FleetStats`
   snapshots), so the warm-up admissions do not dilute the hit rate.
2. **Eviction under budget** — rerun the top tier with ``cache_bytes``
   sized for an eighth of the fleet (just above the hot set) and a
   hot/cold access skew (90% of traffic to 10% of tenants): the LRU
   must keep the hot set resident (high hit rate) while cold tenants
   page through the budget, re-verified lazily on each reload.
3. **Cross-tenant coalescing** — the same workload over 1,000 tenants
   sharing one encoder config, scored once with coalescing on (one
   fused kernel call per scheduler flush, stacked across tenants) and
   once with it off (per-tenant flushes).  The
   ``--assert-coalesce-speedup X`` gate (ISSUE bar: X = 1.5 at 1k
   tenants) fails the run if coalesced throughput is below X times the
   per-tenant baseline.
4. **Admission of encoder manifests** — ISOLET-shaped §III-C masked
   prototypes (d_in 617, d_hv 10,000, 26 classes, 5,000 live
   dimensions) built once without and once with a level-base
   ``encoder=``: admission p50/p99 and the bytes each resident tenant
   holds under :mod:`tracemalloc`, next to what it is charged.  A
   serving engine holds no codebooks, so recording an encoder must not
   make admission slow or tenants heavier than their charge.  The
   ``--assert-admission-ratio X`` gate fails the run if an encoder
   manifest's p50 admission is above X times the encoder-free one.

Writes ``BENCH_fleet.json``::

    PYTHONPATH=src python benchmarks/bench_fleet.py              # full sweep
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke      # CI seconds
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke \
        --assert-coalesce-speedup 1.5 --assert-admission-ratio 2
"""

import argparse
import gc
import json
import pathlib
import sys
import tempfile
import time
import tracemalloc

if __name__ == "__main__":  # script mode works without an installed package
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.backend.packed import pack_hypervectors
from repro.hd import HDModel, LevelBaseEncoder
from repro.hd.prune import mask_from_seed
from repro.proto import ScoreRequest
from repro.serve import MicroBatchConfig, ModelArtifact, ModelFleet, ServingAPI
from repro.utils import spawn

N_PROTOTYPES = 8  # distinct on-disk artifacts the tenants round-robin over
#: the admission leg's tenant shape: ISOLET-shaped, masked as in §III-C
ADMIT_D_IN, ADMIT_D_HV, ADMIT_CLASSES, ADMIT_LIVE = 617, 10_000, 26, 5_000


def _rss_mib() -> float:
    """Resident set size in MiB (VmRSS; ru_maxrss high-water fallback)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_prototypes(root, *, d_hv, n_classes, seed):
    """Save ``N_PROTOTYPES`` tiny packed artifacts; return their paths.

    All prototypes share one encoder shape (same ``d_hv`` / quantizer /
    class count), so every tenant lands in one coalescing group — the
    regime the fused cross-tenant kernel is built for.
    """
    rng = spawn(seed, "fleet-bench-protos")
    paths = []
    for i in range(N_PROTOTYPES):
        class_hvs = rng.choice(
            np.array([-1.0, 1.0], dtype=np.float32), size=(n_classes, d_hv)
        )
        artifact = ModelArtifact(
            store=class_hvs,
            query_quantizer="bipolar",
            store_quantizer="bipolar",
            backend="packed",
        )
        paths.append(artifact.save(root / f"proto{i:02d}"))
    return paths


def build_admission_prototypes(root, *, seed):
    """Masked prototypes built without and with a level-base ``encoder=``.

    Both kinds hold the same class stores on the same keep mask; the
    encoder kind records the encoder config in its manifest and the
    core tensors a level-base store carries.
    """
    rng = spawn(seed, "fleet-bench-admission")
    encoder = LevelBaseEncoder(ADMIT_D_IN, ADMIT_D_HV, seed=seed)
    mask_seed = seed + 1
    keep = mask_from_seed(ADMIT_D_HV, ADMIT_D_HV - ADMIT_LIVE, mask_seed)
    paths = {"encoder_free": [], "encoder": []}
    for i in range(N_PROTOTYPES):
        model = HDModel(
            ADMIT_CLASSES,
            ADMIT_D_HV,
            rng.choice([-1.0, 1.0], size=(ADMIT_CLASSES, ADMIT_D_HV)),
        )
        for label, recorded in (("encoder_free", None), ("encoder", encoder)):
            artifact = ModelArtifact.build(
                model, quantizer="bipolar", backend="packed",
                encoder=recorded, keep_mask=keep, mask_seed=mask_seed,
            )
            paths[label].append(artifact.save(root / label / f"proto{i:02d}"))
    return paths


def admission_comparison(paths, n_tenants):
    """Admission latency and held bytes per tenant, by prototype kind.

    Each kind admits ``n_tenants`` tenants twice from disk: once timed
    (p50/p99 of one :meth:`~repro.serve.ModelFleet.resolve` each) and
    once under :mod:`tracemalloc`, whose growth over the admissions is
    what the resident tenants hold.
    """
    out = {"tenants": n_tenants}
    for label, protos in paths.items():
        fleet = make_fleet(protos, n_tenants)
        times = []
        for tenant in fleet.tenants():
            t0 = time.perf_counter()
            fleet.resolve(tenant)
            times.append(time.perf_counter() - t0)
        traced = make_fleet(protos, n_tenants)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for tenant in traced.tenants():
                traced.resolve(tenant)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        ms = np.asarray(times) * 1e3
        out[label] = {
            "p50_ms": round(float(np.percentile(ms, 50)), 3),
            "p99_ms": round(float(np.percentile(ms, 99)), 3),
            "traced_bytes_per_tenant": held // n_tenants,
            "charged_bytes_per_tenant": (
                traced.stats().resident_bytes // n_tenants
            ),
        }
    out["ratio"] = round(
        out["encoder"]["p50_ms"] / max(out["encoder_free"]["p50_ms"], 1e-9), 2
    )
    return out


def make_fleet(paths, n_tenants, *, cache_bytes=None):
    """A fleet of ``n_tenants`` lazy tenants over the prototype paths."""
    fleet = ModelFleet(cache_bytes=cache_bytes)
    for i in range(n_tenants):
        fleet.add_tenant(f"t{i:05d}", paths[i % len(paths)])
    return fleet


def query_pool(*, d_hv, seed, size=64):
    """Pre-packed single-query hypervectors, reused round-robin."""
    rng = spawn(seed, "fleet-bench-queries")
    return [
        pack_hypervectors(
            rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=(1, d_hv))
        )
        for _ in range(size)
    ]


def run_workload(api, tenant_of, n_requests, pool):
    """Submit ``n_requests`` async single-query scores; measure latency.

    ``tenant_of(i)`` names the tenant for request ``i`` (round-robin or
    skewed).  Per-request latency is taken submit-to-done via future
    callbacks, so queueing and flush time are both counted.  The cache
    counters are the window's own: hits, misses and evictions that
    happened between the first submit and the last answer.
    """
    before = api.fleet.stats()
    latencies = []
    futures = []
    t_start = time.perf_counter()
    for i in range(n_requests):
        request = ScoreRequest(
            queries=pool[i % len(pool)], tenant=tenant_of(i), request_id=i
        )
        t0 = time.perf_counter()
        fut = api.submit_score(request)
        fut.add_done_callback(
            lambda f, t0=t0: latencies.append(time.perf_counter() - t0)
        )
        futures.append(fut)
    for fut in futures:
        fut.result()
    elapsed = time.perf_counter() - t_start
    after = api.fleet.stats()
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    lat = np.sort(np.asarray(latencies))
    return {
        "requests": n_requests,
        "elapsed_s": round(elapsed, 4),
        "qps": round(n_requests / max(elapsed, 1e-9), 1),
        "p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(lat, 99)) * 1e3, 3),
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / max(hits + misses, 1), 4),
        "evictions": after.evictions - before.evictions,
    }


def sweep_tier(paths, n_tenants, n_requests, pool, config):
    """One resident-tenant tier: warm every tenant, then measure."""
    fleet = make_fleet(paths, n_tenants)
    with ServingAPI(fleet, config=config) as api:
        tenants = fleet.tenants()
        # Warm: one query per tenant, submitted as one async burst so
        # admission happens inside coalesced flushes, not N round trips.
        warm = [
            api.submit_score(
                ScoreRequest(queries=pool[i % len(pool)], tenant=t)
            )
            for i, t in enumerate(tenants)
        ]
        for fut in warm:
            fut.result()
        result = run_workload(
            api, lambda i: tenants[i % n_tenants], n_requests, pool
        )
        stats = fleet.stats()
        result.update(
            tenants=n_tenants,
            resident_models=stats.resident_models,
            resident_bytes=stats.resident_bytes,
            rss_mib=round(_rss_mib(), 1),
        )
    return result


def eviction_scenario(paths, n_tenants, n_requests, pool, config, seed):
    """Budget just above the hot set + 90/10 skew: LRU must win.

    An eighth of the fleet fits the budget while a tenth of it takes
    90% of the traffic, so the hot set stays resident and the cold
    tail (the other 10% of requests, spread fleet-wide) churns through
    the remaining slots — evictions with a high hit rate is the pass.
    """
    probe = make_fleet(paths, 1)
    probe.resolve()  # force one admission to price a tenant
    per_tenant_bytes = probe.stats().resident_bytes
    del probe

    budget = per_tenant_bytes * max(n_tenants // 8, 2)
    fleet = make_fleet(paths, n_tenants, cache_bytes=budget)
    rng = spawn(seed, "fleet-bench-skew")
    n_hot = max(n_tenants // 10, 1)
    hot = rng.integers(0, n_hot, size=n_requests)
    cold = rng.integers(0, n_tenants, size=n_requests)
    pick_hot = rng.uniform(size=n_requests) < 0.9
    choice = np.where(pick_hot, hot, cold)
    with ServingAPI(fleet, config=config) as api:
        tenants = fleet.tenants()
        result = run_workload(
            api, lambda i: tenants[int(choice[i])], n_requests, pool
        )
        stats = fleet.stats()
        result.update(
            tenants=n_tenants,
            cache_bytes=budget,
            per_tenant_bytes=per_tenant_bytes,
            hot_tenants=n_hot,
            resident_models=stats.resident_models,
            rss_mib=round(_rss_mib(), 1),
        )
    return result


def coalesce_comparison(paths, n_tenants, n_requests, pool, config):
    """Same workload, coalescing on vs off (per-tenant flushes)."""
    out = {"tenants": n_tenants, "requests": n_requests}
    for label, coalesce in (("coalesced", True), ("per_tenant", False)):
        fleet = make_fleet(paths, n_tenants)
        with ServingAPI(fleet, config=config, coalesce=coalesce) as api:
            tenants = fleet.tenants()
            warm = [
                api.submit_score(
                    ScoreRequest(queries=pool[i % len(pool)], tenant=t)
                )
                for i, t in enumerate(tenants)
            ]
            for fut in warm:
                fut.result()
            out[label] = run_workload(
                api, lambda i: tenants[i % n_tenants], n_requests, pool
            )
    out["speedup"] = round(
        out["coalesced"]["qps"] / max(out["per_tenant"]["qps"], 1e-9), 2
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dhv", type=int, default=1024)
    parser.add_argument("--n-classes", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tiers",
        type=int,
        nargs="+",
        default=None,
        help="resident-tenant tiers to sweep (default 1 10 100 1000 10000)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=256, help="scheduler flush size"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: tiers 1 and 8, small d_hv, few requests",
    )
    parser.add_argument(
        "--assert-coalesce-speedup",
        type=float,
        default=None,
        metavar="X",
        help=(
            "fail (exit 1) unless coalesced throughput is at least X times "
            "the per-tenant-flush baseline (ISSUE bar: 1.5 at 1k tenants)"
        ),
    )
    parser.add_argument(
        "--assert-admission-ratio",
        type=float,
        default=None,
        metavar="X",
        help=(
            "fail (exit 1) if an encoder manifest's p50 admission is above "
            "X times an encoder-free one's"
        ),
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("BENCH_fleet.json")
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.dhv = min(args.dhv, 256)
        tiers = args.tiers or [1, 8]
    else:
        tiers = args.tiers or [1, 10, 100, 1000, 10000]
    # The coalescing win grows with tenants-per-flush; 8 tenants barely
    # amortize anything, so the smoke comparison uses 64 to keep the
    # 1.5x CI gate away from the noise floor (full runs use 1k).
    coalesce_tenants = 64 if args.smoke else min(max(tiers), 1000)
    requests_for = lambda n: min(max(512, 2 * n), 20000)  # noqa: E731
    if args.smoke:
        requests_for = lambda n: max(64, 2 * n)  # noqa: E731

    config = MicroBatchConfig(max_batch=args.max_batch, eager=True)
    report = {
        "benchmark": "fleet",
        "config": {
            "d_hv": args.dhv,
            "n_classes": args.n_classes,
            "prototypes": N_PROTOTYPES,
            "max_batch": args.max_batch,
            "smoke": args.smoke,
            "seed": args.seed,
        },
    }
    with tempfile.TemporaryDirectory(prefix="fleet-bench-") as tmp:
        root = pathlib.Path(tmp)
        paths = build_prototypes(
            root, d_hv=args.dhv, n_classes=args.n_classes, seed=args.seed
        )
        pool = query_pool(d_hv=args.dhv, seed=args.seed)

        print(f"tenant sweep (d_hv={args.dhv}, {args.n_classes} classes):")
        report["sweep"] = []
        for n in tiers:
            tier = sweep_tier(paths, n, requests_for(n), pool, config)
            report["sweep"].append(tier)
            print(
                f"  {n:>6} tenants: {tier['qps']:>9,.0f} q/s, "
                f"p99 {tier['p99_ms']:.2f} ms, hit rate {tier['hit_rate']}, "
                f"RSS {tier['rss_mib']} MiB"
            )

        top = max(tiers)
        report["eviction"] = eviction_scenario(
            paths, top, requests_for(top), pool, config, args.seed
        )
        ev = report["eviction"]
        print(
            f"eviction (budget = {ev['cache_bytes']} B = fleet/8, "
            f"90/10 skew): hit rate {ev['hit_rate']}, "
            f"{ev['evictions']} evictions, {ev['qps']:,.0f} q/s"
        )

        report["coalesce"] = coalesce_comparison(
            paths, coalesce_tenants, requests_for(coalesce_tenants), pool,
            config,
        )
        co = report["coalesce"]
        print(
            f"coalescing @ {co['tenants']} tenants: "
            f"{co['coalesced']['qps']:,.0f} q/s fused vs "
            f"{co['per_tenant']['qps']:,.0f} q/s per-tenant "
            f"({co['speedup']}x)"
        )

        report["admission"] = admission_comparison(
            build_admission_prototypes(root / "admission", seed=args.seed),
            16 if args.smoke else 64,
        )
        ad = report["admission"]
        for label in ("encoder_free", "encoder"):
            leg = ad[label]
            print(
                f"admission ({label}, {ad['tenants']} tenants): "
                f"p50 {leg['p50_ms']:.2f} ms, p99 {leg['p99_ms']:.2f} ms, "
                f"holds {leg['traced_bytes_per_tenant']:,} B per tenant, "
                f"charged {leg['charged_bytes_per_tenant']:,} B"
            )

    failed = False
    if args.assert_coalesce_speedup is not None:
        co["threshold"] = args.assert_coalesce_speedup
        co["passed"] = co["speedup"] >= args.assert_coalesce_speedup
        if not co["passed"]:
            print(
                f"ERROR: coalesce speedup {co['speedup']}x below the "
                f"{args.assert_coalesce_speedup}x bar",
                file=sys.stderr,
            )
            failed = True

    if args.assert_admission_ratio is not None:
        ad["threshold"] = args.assert_admission_ratio
        ad["passed"] = ad["ratio"] <= args.assert_admission_ratio
        if not ad["passed"]:
            print(
                f"ERROR: encoder manifests admit {ad['ratio']}x slower than "
                f"encoder-free ones, above the "
                f"{args.assert_admission_ratio}x bar",
                file=sys.stderr,
            )
            failed = True

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
