"""``prive-hd`` command-line interface.

Runs any of the paper's experiments from a shell and prints the
paper-style tables:

    prive-hd list                 # what can I run?
    prive-hd fig5                 # regenerate Fig. 5 (reduced scale)
    prive-hd table1               # Table I platform comparison
    prive-hd all                  # everything (minutes)

Every experiment accepts ``--seed``; the heavier ones accept ``--dhv``
to trade fidelity for speed (paper scale is ``--dhv 10000``).

Beyond the paper artifacts, workload commands exercise the serving
stack and the model lifecycle end-to-end:

    prive-hd train isolet --batch-size 512 --backend packed \
        --save artifacts/isolet            # train -> on-disk artifact
    prive-hd eval artifacts/isolet        # load -> accuracy
    prive-hd serve artifacts/isolet --clients 8   # self-test over a socket
    prive-hd serve artifacts/isolet --listen 127.0.0.1:7411 \
        --http-port 7412                  # network frontend (binary + ops)
    prive-hd client artifacts/isolet --connect 127.0.0.1:7411 \
        # encode+obfuscate locally, ship bit planes, verify vs offline

Every command returns a non-zero exit code on failure (2 for bad
arguments, 1 for runtime errors) instead of a bare traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Sequence

__all__ = ["main", "EXPERIMENTS"]


def _run_fig2(args) -> None:
    from repro.experiments import fig2_reconstruction
    result = fig2_reconstruction.run(d_hv=args.dhv, seed=args.seed)
    result.to_table().print()


def _run_fig3(args) -> None:
    from repro.experiments import fig3_information
    result = fig3_information.run(d_hv=args.dhv, seed=args.seed)
    for table in result.to_tables():
        table.print()
    print(f"\nrank of classes A/B retained: {result.rank_retained}")


def _run_fig4(args) -> None:
    from repro.experiments import fig4_retraining
    result = fig4_retraining.run(
        d_hv_base=args.dhv,
        configs=(
            fig4_retraining.Fig4Config(args.dhv, 100),
            fig4_retraining.Fig4Config(1000, 50),
            fig4_retraining.Fig4Config(1000, 100),
            fig4_retraining.Fig4Config(500, 50),
            fig4_retraining.Fig4Config(500, 100),
        ),
        seed=args.seed,
    )
    result.to_table().print()


def _run_fig5(args) -> None:
    from repro.experiments import fig5_quantization
    dims = tuple(
        sorted({max(256, args.dhv // 4), args.dhv // 2, args.dhv})
    )
    result = fig5_quantization.run(
        dims_list=dims, d_hv=args.dhv, seed=args.seed
    )
    for table in result.to_tables():
        table.print()
    print(f"\nfull-precision baseline: {result.full_precision_accuracy:.3f}")


def _run_fig6(args) -> None:
    from repro.experiments import fig6_obfuscation
    result = fig6_obfuscation.run(d_hv=args.dhv, seed=args.seed)
    result.to_table().print()
    result.psnr_table().print()


def _run_fig8(args) -> None:
    from repro.experiments import fig8_dp_training
    for name in ("isolet", "face", "mnist"):
        dims = tuple(
            sorted({max(256, args.dhv // 8), args.dhv // 4, args.dhv // 2, args.dhv})
        )
        result = fig8_dp_training.run_dims_sweep(
            dataset=name, dims_list=dims, d_hv=args.dhv, seed=args.seed
        )
        result.to_table().print()
    fig8_dp_training.run_datasize_sweep(
        d_hv=args.dhv, seed=args.seed
    ).to_table().print()


def _run_fig9(args) -> None:
    from repro.experiments import fig9_inference_privacy
    masked = tuple(
        sorted({0, args.dhv // 4, args.dhv // 2, 3 * args.dhv // 4})
    )
    result = fig9_inference_privacy.run(
        masked_list=masked, d_hv=args.dhv, seed=args.seed
    )
    for table in result.to_tables():
        table.print()


def _run_table1(args) -> None:
    from repro.experiments import table1_platforms
    result = table1_platforms.run()
    result.to_table().print()
    result.factors_table().print()


def _run_hw(args) -> None:
    from repro.experiments import hw_approx
    result = hw_approx.run(seed=args.seed)
    result.to_table().print()
    print(
        f"\nLUT savings: bipolar {result.lut_saving_bipolar:.1%}, "
        f"ternary {result.lut_saving_ternary:.1%}"
    )


# ----------------------------------------------------------------------
# workload commands (serving stack, not paper artifacts)
# ----------------------------------------------------------------------
def _run_train(args) -> int:
    import numpy as np

    from repro.data import load_dataset
    from repro.hd import get_quantizer
    from repro.hd.batching import fit_classes_batched
    from repro.serve import InferenceEngine

    # Reject impossible flag combinations before any work is done.
    quantizer = get_quantizer(args.quantizer)
    if args.backend in ("packed", "native") and not quantizer.packable:
        print(
            f"error: --backend {args.backend} requires a packable quantizer "
            f"(bipolar/ternary/ternary-biased), not {args.quantizer!r}",
            file=sys.stderr,
        )
        return 2

    chunk_size = args.batch_size if args.chunk_size is None else args.chunk_size
    data = load_dataset(args.dataset, seed=args.seed)
    lo, hi = data.feature_range
    encoder = _build_encoder(
        args.encoder, data.d_in, args.dhv, lo=lo, hi=hi, seed=args.seed
    )
    t0 = time.perf_counter()
    model = fit_classes_batched(
        encoder,
        data.X_train,
        data.y_train,
        data.n_classes,
        quantizer=args.quantizer,
        batch_size=chunk_size,
        workers=args.encode_workers,
    )
    train_s = time.perf_counter() - t0

    # Serve the SAME model whichever backend is chosen, so --backend only
    # changes the compute path, never the answers: a packable quantizer
    # is applied to the class store for both backends; unpackable ones
    # (identity/2bit) serve the raw full-precision store (dense only,
    # enforced above).
    serve_quantizer = args.quantizer if quantizer.packable else None
    engine = InferenceEngine(
        model,
        backend=args.backend,
        quantizer=serve_quantizer,
        batch_size=args.batch_size,
    )

    # Evaluation streams through a fused encode -> quantize (-> pack)
    # pipeline — the whole point of --chunk-size is that the (n, d_hv)
    # encoding matrix never materializes at once.  Test queries get the
    # *training* quantizer (even unpackable ones like 2bit), so encoded
    # queries always match the representation the model was bundled from.
    from repro.hd import EncodePipeline

    pipeline = EncodePipeline(
        encoder, chunk_size=chunk_size, workers=args.encode_workers
    )
    t0 = time.perf_counter()
    preds = np.concatenate(
        [
            engine.predict(H)
            for _, H in pipeline.stream_quantized(
                data.X_test, quantizer, pack=args.backend in ("packed", "native")
            )
        ]
    )
    infer_s = time.perf_counter() - t0
    acc = float(np.mean(preds == data.y_test))
    print(
        f"dataset={data.name} d_in={data.d_in} n_classes={data.n_classes} "
        f"d_hv={args.dhv} encoder={args.encoder} quantizer={args.quantizer}"
    )
    print(
        f"trained {len(data.y_train)} rows in {train_s:.2f}s "
        f"(batch_size={args.batch_size}, chunk_size={chunk_size}, "
        f"encode_workers={args.encode_workers})"
    )
    print(
        f"backend={args.backend}: test accuracy {acc:.3f} "
        f"({len(data.y_test)} queries in {infer_s * 1e3:.1f} ms, "
        f"{len(data.y_test) / max(infer_s, 1e-9):,.0f} q/s)"
    )

    if args.save is not None:
        from repro.serve import ModelArtifact

        artifact = ModelArtifact.build(
            model,
            quantizer=args.quantizer,
            store_quantizer=serve_quantizer,
            backend=args.backend,
            encoder=encoder,
            metadata={
                "dataset": data.name,
                "dataset_seed": args.seed,
                "encoder": args.encoder,
                "test_accuracy": round(acc, 4),
                "n_train": int(len(data.y_train)),
            },
        )
        path = artifact.save(args.save)
        print(
            f"saved artifact to {path} "
            f"(backend={artifact.backend}, "
            f"query_quantizer={artifact.query_quantizer}, "
            f"store={artifact.store_nbytes:,} bytes)"
        )
    return 0


def _build_encoder(kind: str, d_in: int, d_hv: int, *, lo: float, hi: float, seed: int):
    from repro.hd import LevelBaseEncoder, ScalarBaseEncoder

    if kind == "level-base":
        return LevelBaseEncoder(d_in, d_hv, lo=lo, hi=hi, seed=seed)
    return ScalarBaseEncoder(d_in, d_hv, lo=lo, hi=hi, seed=seed)


def _load_artifact_for_dataset(args):
    """Shared ``eval``/``serve`` plumbing: artifact + its evaluation data."""
    from repro.data import load_dataset
    from repro.serve import load_artifact

    artifact = load_artifact(args.artifact)
    dataset = args.dataset or artifact.metadata.get("dataset")
    if dataset is None:
        raise ValueError(
            "the artifact records no dataset; pass --dataset explicitly"
        )
    if artifact.encoder_config is None:
        raise ValueError(
            "the artifact has no encoder config and cannot serve raw "
            "features; re-save it with an encoder"
        )
    seed = args.seed
    if seed is None:
        seed = int(artifact.metadata.get("dataset_seed", 0))
    data = load_dataset(dataset, seed=seed)
    if data.d_in != artifact.encoder_config["d_in"]:
        raise ValueError(
            f"dataset {dataset!r} has {data.d_in} features but the "
            f"artifact's encoder expects {artifact.encoder_config['d_in']}"
        )
    return artifact, data


def _describe(
    n_classes, d_hv, n_live_dims, backend, query_quantizer, privacy
) -> str:
    import math

    privacy_line = "none (no DP claim)"
    if privacy:
        eps = privacy.get("epsilon")
        privacy_line = (
            f"epsilon={eps} delta={privacy.get('delta')} "
            f"noise_std={privacy.get('noise_std'):.4g}"
            if eps is not None and math.isfinite(float(eps))
            else "explicitly non-private"
        )
    return (
        f"artifact: {n_classes} classes x {d_hv} dims "
        f"({n_live_dims} live), backend={backend}, "
        f"query_quantizer={query_quantizer}\n"
        f"privacy: {privacy_line}"
    )


def _describe_artifact(artifact) -> str:
    return _describe(
        artifact.n_classes,
        artifact.d_hv,
        artifact.n_live_dims,
        artifact.backend,
        artifact.query_quantizer,
        artifact.privacy,
    )


def _describe_manifest(path) -> str:
    """The artifact banner from ``manifest.json`` alone.

    The multi-worker serve path uses this: the parent never serves, so
    it should not pay a full tensor load + checksum just to print two
    lines (each worker verifies the artifact itself at mmap-load).
    """
    import json
    import pathlib

    manifest = json.loads(
        (pathlib.Path(path) / "manifest.json").read_text()
    )
    return _describe(
        manifest.get("n_classes"),
        manifest.get("d_hv"),
        manifest.get("n_live_dims"),
        manifest.get("backend"),
        manifest.get("query_quantizer"),
        manifest.get("privacy"),
    )


def _run_eval(args) -> int:
    artifact, data = _load_artifact_for_dataset(args)
    engine = artifact.engine(batch_size=args.batch_size)
    t0 = time.perf_counter()
    acc = engine.accuracy_features(data.X_test, data.y_test)
    elapsed = time.perf_counter() - t0
    print(_describe_artifact(artifact))
    print(
        f"dataset={data.name}: accuracy {acc:.3f} "
        f"({len(data.y_test)} queries in {elapsed * 1e3:.1f} ms)"
    )
    recorded = artifact.metadata.get("test_accuracy")
    if recorded is not None:
        print(f"recorded at save time: {recorded}")
    return 0


def _batch_config(args):
    """The ``serve`` flags' :class:`~repro.serve.MicroBatchConfig`."""
    from repro.serve import MicroBatchConfig

    return MicroBatchConfig(
        max_batch=args.max_batch,
        eager=not args.paced,
        max_delay_s=args.max_delay_ms / 1e3,
        max_queue_rows=args.max_queue_rows,
        max_queue_age_s=(
            None
            if args.max_queue_age_ms is None
            else args.max_queue_age_ms / 1e3
        ),
    )


def _edge_client(artifact, address, **kwargs):
    """A :class:`~repro.client.PriveHDClient` encoding as ``artifact`` does."""
    from repro.client import PriveHDClient
    from repro.core.inference_privacy import ObfuscationConfig

    quantizer = artifact.query_quantizer or "identity"
    return PriveHDClient(
        address, obfuscation=ObfuscationConfig(quantizer=quantizer), **kwargs
    )


def _run_serve(args) -> int:
    """``serve ARTIFACT``: edge clients that encode on their side, over an
    in-process socket; exits 1 unless every answer is the offline one."""
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from repro.serve import FrontendHandle, ServingAPI

    if args.listen is not None:
        return _run_serve_listen(args)
    if args.fleet_dir is not None:
        raise ValueError(
            "--fleet-dir serves over the network; add --listen HOST:PORT"
        )
    if args.artifact is None:
        raise ValueError("serve needs an artifact directory (or --fleet-dir)")

    artifact, data = _load_artifact_for_dataset(args)
    print(_describe_artifact(artifact))

    n = min(args.requests, len(data.y_test))
    X = data.X_test[:n]
    # Offline reference: the artifact's own engine, one batch.
    t0 = time.perf_counter()
    direct = artifact.engine().predict_features(X)
    offline_s = time.perf_counter() - t0

    results = np.full(n, -1, dtype=np.int64)
    failures: list[Exception] = []
    encoder = artifact.encoder()  # one set of codebooks for every client

    def client(worker: int) -> None:
        try:
            with _edge_client(artifact, address, encoder=encoder) as edge:
                for i in range(worker, n, args.clients):
                    results[i] = edge.predict(X[i])[0]
        except Exception as exc:  # noqa: BLE001 — counted, reported
            failures.append(exc)

    api = ServingAPI.from_artifact(
        artifact, name="model", config=_batch_config(args)
    )
    with api as server, FrontendHandle(server) as handle:
        address = handle.address
        perf = time.perf_counter()
        with ThreadPoolExecutor(args.clients) as pool:
            list(pool.map(client, range(args.clients)))
        served_s = time.perf_counter() - perf
        (stats,) = server.stats()["schedulers"].values()

    identical = bool(np.array_equal(results, direct))
    acc = float(np.mean(results == data.y_test[:n]))
    print(
        f"served {n} single-query requests from {args.clients} clients "
        f"in {served_s * 1e3:.1f} ms ({n / max(served_s, 1e-9):,.0f} q/s; "
        f"offline batch: {n / max(offline_s, 1e-9):,.0f} q/s)"
    )
    print(
        f"micro-batching: {stats['flushes']} flushes, "
        f"mean batch {stats['mean_batch_rows']:.1f} rows "
        f"(max {stats['max_batch_rows']}), "
        f"triggers {stats['flushes_by_trigger']}"
    )
    print(
        f"accuracy {acc:.3f}; predictions identical to offline batch: "
        f"{identical}; failed requests: {len(failures)}"
    )
    if failures or not identical:
        print("ERROR: serving diverged from the offline engine", file=sys.stderr)
        return 1
    return 0


def _run_serve_listen(args) -> int:
    """``serve ARTIFACT --listen host:port``: the network frontend.

    Binds the versioned binary protocol (plus the optional HTTP ops
    port), prints the bound addresses, and serves until interrupted.
    Remote clients (``prive-hd client``) get the same micro-batched
    packed scoring and zero-drop hot-swap as in-process callers — and
    can only ever send encoded hypervectors, never raw features.

    ``--workers K`` (K > 1) serves through a
    :class:`~repro.serve.WorkerPool` instead: K acceptor processes
    share the listen address via ``SO_REUSEPORT``, each memory-mapping
    the same checksum-verified artifact read-only.

    ``--fleet-dir DIR`` (instead of an artifact) serves every tenant
    subdirectory through a :class:`~repro.serve.ModelFleet` with an
    LRU artifact cache bounded by ``--cache-bytes``; clients address
    tenants with ``client --tenant NAME`` (protocol v4).
    """
    from repro.client import parse_address
    from repro.serve import (
        FrontendConfig,
        ModelFleet,
        ServingAPI,
        ServingFrontend,
        WorkerPool,
        load_artifact,
    )

    if (args.artifact is None) == (args.fleet_dir is None):
        raise ValueError(
            "serve --listen needs exactly one of an artifact directory "
            "or --fleet-dir"
        )
    host, port = parse_address(args.listen)
    config = _batch_config(args)
    frontend_config = FrontendConfig(
        handshake_timeout_s=args.handshake_timeout_s,
        idle_timeout_s=args.idle_timeout_s,
        write_high_water_bytes=(
            None
            if args.write_high_water_kib is None
            else args.write_high_water_kib * 1024
        ),
    )
    if args.workers > 1:
        if args.http_port is not None:
            raise ValueError(
                "--http-port is per-process and not available with "
                "--workers > 1; run a single worker for the ops port"
            )
        # Banner from the manifest only — the parent never serves the
        # tensors itself; the pool constructor checksum-verifies the
        # artifact once and the workers mmap-load without re-hashing.
        # Fleet pools skip even that: tenants are listed, then verified
        # lazily at first admission so startup stays O(1) in fleet size.
        if args.artifact is not None:
            print(_describe_manifest(args.artifact))
        else:
            print(f"fleet dir {args.fleet_dir}")
        with WorkerPool(
            args.artifact,
            fleet_dir=args.fleet_dir,
            cache_bytes=args.cache_bytes,
            name=args.model_name,
            workers=args.workers,
            host=host,
            port=port,
            config=config,
            frontend_config=frontend_config,
            loop=args.loop,
            supervise=True,
        ) as pool:
            print(
                f"{args.workers} workers listening on "
                f"{pool.address[0]}:{pool.address[1]} (SO_REUSEPORT)",
                flush=True,
            )
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
        return 0
    if args.fleet_dir is not None:
        fleet = ModelFleet.from_dir(args.fleet_dir, cache_bytes=args.cache_bytes)
        print(
            f"fleet of {len(fleet)} tenants (default {fleet.default_tenant!r}, "
            f"cache budget "
            f"{'unbounded' if args.cache_bytes is None else args.cache_bytes})"
        )
        api = ServingAPI(fleet, config=config)
    else:
        artifact = load_artifact(args.artifact)
        print(_describe_artifact(artifact))
        api = ServingAPI.from_artifact(
            artifact, name=args.model_name, config=config
        )
    with api:
        frontend = ServingFrontend(
            api,
            host=host,
            port=port,
            http_port=args.http_port,
            config=frontend_config,
            loop=args.loop,
        )
        frontend.run()
    return 0


def _run_client(args) -> int:
    """``client ARTIFACT --connect host:port``: remote inference.

    The artifact directory is read *locally* for the encoder config and
    quantizer (the codebooks live with the client in the split
    deployment); features are encoded + obfuscated on this side and
    only hypervector bit planes cross the wire.  Exits non-zero if the
    remote predictions diverge from the local offline engine.
    """
    import numpy as np

    artifact, data = _load_artifact_for_dataset(args)
    print(_describe_artifact(artifact))

    n = min(args.requests, len(data.y_test))
    X, y = data.X_test[:n], data.y_test[:n]
    with _edge_client(
        artifact, args.connect, encoder=artifact.encoder_config,
        tenant=args.tenant, connect_retries=args.retries,
    ) as client:
        info = client.info
        tenant_note = "" if args.tenant is None else f", tenant={args.tenant}"
        print(
            f"connected to {args.connect} (protocol v"
            f"{client.protocol_version}): model={info.name} v{info.version}, "
            f"backend={info.backend}, d_hv={info.d_hv}{tenant_note}"
        )
        # Batched wire scoring: each chunk ships as one ScoreRequest
        # frame (with counts, as a v2 batch frame, when the server
        # speaks v2; plain on a v1 downgrade), pipelined so client-side
        # encoding overlaps server-side scoring.
        t0 = time.perf_counter()
        preds = client.predict_many(X, chunk_size=args.batch_size)
        elapsed = time.perf_counter() - t0

    acc = float(np.mean(preds == y))
    print(
        f"remote accuracy {acc:.3f} ({n} queries in {elapsed * 1e3:.1f} ms, "
        f"{n / max(elapsed, 1e-9):,.0f} q/s over the socket)"
    )

    # Offline reference: the same artifact served in-process.  The wire
    # must change the transport, never the answers.
    offline = artifact.engine().predict_features(X)
    identical = bool(np.array_equal(preds, offline))
    print(f"predictions identical to offline eval: {identical}")
    if not identical:
        print(
            "ERROR: remote predictions diverged from the offline engine",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_privacy_gate(args) -> int:
    """``privacy-gate``: attack a live socket server over captured bytes.

    Starts a real fleet frontend, tees every connection through a
    capturing proxy, drives one client session per protocol version
    (v1–v4) and per quantizer (bipolar/ternary/ternary-biased/masked,
    plus the obfuscation-bypassed identity foil), and replays the
    paper's reconstruction and membership attacks against the captured
    frames.  Fails (exit 1) when a protected leg leaks more than the
    thresholds allow, when the built-in self-test cannot make the
    bypassed leg fail (the gate would be toothless), or when leakage
    regresses beyond the committed baseline's tolerance band.
    """
    import json
    import pathlib

    from repro.attacks.wire import (
        GateConfig,
        compare_to_baseline,
        run_privacy_gate,
    )

    config = GateConfig(
        d_hv=args.dhv,
        n_queries=args.queries,
        seed=args.seed,
        n_membership_trials=args.membership_trials,
    )
    t0 = time.perf_counter()
    report = run_privacy_gate(config, log=lambda line: print(f"  {line}"))
    elapsed = time.perf_counter() - t0
    doc = report.to_dict()

    print(
        f"\n{'leg':<18} {'ver':>3} {'quant':<15} {'psnr dB':>8} "
        f"{'plain':>7} {'drop':>6} {'nmse':>7} {'member':>6}"
    )
    for row in report.rows:
        print(
            f"{row.leg:<18} {row.protocol_version:>3} "
            f"{row.quantizer:<15} {row.psnr_db:>8.2f} "
            f"{row.psnr_plain_db:>7.2f} {row.psnr_drop_db:>6.2f} "
            f"{row.nmse:>7.3f} {row.membership_top1:>6.2f}"
        )
    print(
        f"\nattacked {len(report.rows)} live sessions in {elapsed:.1f}s; "
        f"self-test (obfuscation bypassed must fail): "
        f"{'ok' if report.self_test.get('failed_as_expected') else 'BROKEN'}"
    )
    for violation in report.violations:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    if not report.self_test.get("failed_as_expected"):
        print(
            "SELF-TEST FAILED: the bypassed (identity) leg passed the "
            "protected criteria — the gate has no teeth",
            file=sys.stderr,
        )

    if args.out is not None:
        pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote report to {args.out}")

    baseline_path = pathlib.Path(args.baseline)
    if args.update_baseline:
        baseline_path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"baseline updated: {baseline_path}")
        return 0 if report.passed else 1
    regressions: list[str] = []
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        regressions = compare_to_baseline(doc, baseline)
        for problem in regressions:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if not regressions:
            print(f"no leakage regression vs {baseline_path}")
    elif not args.no_baseline:
        print(
            f"error: baseline {baseline_path} not found; run with "
            "--update-baseline to create it or --no-baseline to skip "
            "the comparison",
            file=sys.stderr,
        )
        return 2
    return 0 if report.passed and not regressions else 1


#: experiment name -> (description, runner)
EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig2": ("reconstruct digits from encodings (Fig. 2)", _run_fig2),
    "fig3": ("information across dimensions (Fig. 3)", _run_fig3),
    "fig4": ("retraining recovers pruning loss (Fig. 4)", _run_fig4),
    "fig5": ("encoding quantization trade-off (Fig. 5)", _run_fig5),
    "fig6": ("inference quantization + masking (Fig. 6)", _run_fig6),
    "fig8": ("differentially private training (Fig. 8)", _run_fig8),
    "fig9": ("inference privacy, all datasets (Fig. 9)", _run_fig9),
    "table1": ("FPGA/GPU/RPi platform comparison (Table I)", _run_table1),
    "hw": ("approximate-datapath ablation (§III-D)", _run_hw),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prive-hd",
        description="Reproduce the Prive-HD (DAC 2020) experiments.",
    )
    parser.add_argument(
        "--traceback",
        action="store_true",
        help="re-raise command errors with a full traceback (debugging)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    for name, (desc, _) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument(
            "--dhv",
            type=int,
            default=4000,
            help="hypervector dimensionality (paper: 10000)",
        )
        p.add_argument("--seed", type=int, default=0, help="root seed")
    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--dhv", type=int, default=4000)
    p_all.add_argument("--seed", type=int, default=0)

    p_train = sub.add_parser(
        "train", help="train on a benchmark dataset with batched encoding"
    )
    p_train.add_argument(
        "dataset", choices=("isolet", "mnist", "face"), help="dataset name"
    )
    p_train.add_argument("--dhv", type=int, default=4000)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument(
        "--encoder",
        choices=("scalar-base", "level-base"),
        default="scalar-base",
        help="Eq. 2a (scalar-base) or Eq. 2b (level-base) encoding",
    )
    p_train.add_argument(
        "--quantizer",
        default="bipolar",
        help="encoding quantizer (bipolar/ternary/ternary-biased/2bit/identity)",
    )
    p_train.add_argument(
        "--batch-size",
        type=int,
        default=1024,
        help=(
            "queries scored per serving batch, and the default "
            "--chunk-size (bounds peak memory)"
        ),
    )
    p_train.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "rows per encode-pipeline tile (bounds peak encoding memory); "
            "defaults to --batch-size"
        ),
    )
    p_train.add_argument(
        "--encode-workers",
        type=int,
        default=1,
        help=(
            "concurrent encode tiles on a thread pool (the NumPy "
            "kernels release the GIL)"
        ),
    )
    p_train.add_argument(
        "--backend",
        choices=("dense", "packed", "native"),
        default="dense",
        help=(
            "compute path for test-set inference; with a packable "
            "quantizer all backends serve the same quantized model and "
            "give identical answers ('native' = numba-compiled packed "
            "kernels, falls back to pure NumPy when numba is absent)"
        ),
    )
    p_train.add_argument(
        "--save",
        default=None,
        metavar="PATH",
        help=(
            "write the trained model as a versioned artifact directory "
            "(manifest.json + tensors.npz) loadable by 'serve' and 'eval'"
        ),
    )

    p_eval = sub.add_parser(
        "eval", help="load a saved artifact and report its test accuracy"
    )
    p_eval.add_argument("artifact", help="artifact directory (from train --save)")
    p_eval.add_argument(
        "--dataset",
        default=None,
        help="dataset to evaluate on (default: the one recorded at save time)",
    )
    p_eval.add_argument(
        "--seed",
        type=int,
        default=None,
        help="dataset seed (default: recorded at save time)",
    )
    p_eval.add_argument("--batch-size", type=int, default=8192)

    p_serve = sub.add_parser(
        "serve",
        help=(
            "serve a saved artifact to concurrent edge clients over an "
            "in-process socket and report latency/throughput"
        ),
    )
    p_serve.add_argument(
        "artifact",
        nargs="?",
        default=None,
        help=(
            "artifact directory (from train --save); omit when serving "
            "a multi-tenant fleet with --fleet-dir"
        ),
    )
    p_serve.add_argument(
        "--fleet-dir",
        default=None,
        metavar="DIR",
        help=(
            "with --listen: serve every tenant subdirectory of DIR "
            "(each a saved artifact) as a multi-tenant fleet instead of "
            "a single artifact; clients pick tenants with "
            "'client --tenant NAME'"
        ),
    )
    p_serve.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help=(
            "with --fleet-dir: LRU budget for the bytes resident class "
            "stores hold; least-recently-scored tenants are evicted and "
            "reloaded (checksum re-verified) on demand "
            "(default: unbounded)"
        ),
    )
    p_serve.add_argument("--dataset", default=None)
    p_serve.add_argument("--seed", type=int, default=None)
    p_serve.add_argument(
        "--clients", type=int, default=8,
        help="concurrent client threads, each encoding on its own side",
    )
    p_serve.add_argument(
        "--requests",
        type=int,
        default=512,
        help="total single-query requests across all clients",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="micro-batch flush size (rows)",
    )
    p_serve.add_argument(
        "--paced",
        action="store_true",
        help=(
            "hold batches for --max-delay-ms instead of eager "
            "backpressure batching"
        ),
    )
    p_serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="paced-mode flush deadline (tail-latency bound)",
    )
    p_serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve the artifact over the network instead of running the "
            "self-driving benchmark: binds the binary serving protocol "
            "and runs until interrupted (clients: 'prive-hd client')"
        ),
    )
    p_serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        help=(
            "with --listen: also bind a JSON ops port "
            "(/healthz, /models, /stats, /tenants); 0 picks a free port"
        ),
    )
    p_serve.add_argument(
        "--model-name",
        default="model",
        help="registry name the artifact is served under (default: model)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "with --listen: acceptor processes sharing the address via "
            "SO_REUSEPORT, each mmap-loading the artifact read-only "
            "(1 = single in-process frontend)"
        ),
    )
    p_serve.add_argument(
        "--loop",
        choices=("asyncio", "uvloop"),
        default="asyncio",
        help=(
            "with --listen: event-loop implementation for the "
            "frontend/acceptors; 'uvloop' falls back to asyncio (with "
            "a log line) when the package is not installed"
        ),
    )
    p_serve.add_argument(
        "--max-queue-rows",
        type=int,
        default=None,
        help=(
            "admission control: reject new submissions (typed "
            "'overloaded' errors with a retry-after hint) once this "
            "many rows are queued (default: unbounded)"
        ),
    )
    p_serve.add_argument(
        "--max-queue-age-ms",
        type=float,
        default=None,
        help=(
            "admission control: reject new submissions while the oldest "
            "queued request has waited longer than this "
            "(default: unbounded)"
        ),
    )
    p_serve.add_argument(
        "--handshake-timeout-s",
        type=float,
        default=None,
        help=(
            "with --listen: close connections that do not complete the "
            "Hello handshake within this many seconds (default: never)"
        ),
    )
    p_serve.add_argument(
        "--idle-timeout-s",
        type=float,
        default=None,
        help=(
            "with --listen: close negotiated connections idle for this "
            "many seconds between frames (default: never)"
        ),
    )
    p_serve.add_argument(
        "--write-high-water-kib",
        type=int,
        default=None,
        help=(
            "with --listen: per-connection write-buffer high-water mark "
            "in KiB; a slow-reading client past it stops being read "
            "(default: asyncio's 64 KiB)"
        ),
    )

    p_client = sub.add_parser(
        "client",
        help=(
            "run remote inference against a 'serve --listen' frontend; "
            "encodes + obfuscates locally so only hypervector bit planes "
            "cross the wire, and verifies predictions against the "
            "offline engine"
        ),
    )
    p_client.add_argument(
        "artifact",
        help=(
            "local artifact directory providing the client-side encoder "
            "config and quantizer (codebooks never cross the wire)"
        ),
    )
    p_client.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the serving frontend",
    )
    p_client.add_argument(
        "--tenant",
        default=None,
        help=(
            "tenant to address on a fleet server (protocol v4); the "
            "client refuses to run against pre-v4 servers rather than "
            "silently hitting the default tenant"
        ),
    )
    p_client.add_argument("--dataset", default=None)
    p_client.add_argument("--seed", type=int, default=None)
    p_client.add_argument(
        "--requests",
        type=int,
        default=256,
        help="test queries to send",
    )
    p_client.add_argument(
        "--batch-size",
        type=int,
        default=32,
        help="queries per ScoreRequest frame",
    )
    p_client.add_argument(
        "--retries",
        type=int,
        default=20,
        help="connect retries while the server is still binding",
    )


    p_gate = sub.add_parser(
        "privacy-gate",
        help=(
            "attack a live serving session over captured wire bytes and "
            "fail on leakage regression"
        ),
    )
    p_gate.add_argument("--dhv", type=int, default=2048)
    p_gate.add_argument("--queries", type=int, default=48)
    p_gate.add_argument("--seed", type=int, default=0)
    p_gate.add_argument(
        "--membership-trials",
        type=int,
        default=8,
        help="model-difference linkage trials per leg",
    )
    p_gate.add_argument(
        "--out",
        default=None,
        help="write the full gate report JSON here (e.g. BENCH_privacy.json)",
    )
    p_gate.add_argument(
        "--baseline",
        default="BENCH_privacy.json",
        help="committed baseline to diff leakage against",
    )
    p_gate.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run instead of diffing",
    )
    p_gate.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the baseline comparison (thresholds still enforced)",
    )
    return parser


def _dispatch(args) -> int:
    if args.command == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name, (desc, _) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {desc}")
        return 0
    if args.command == "all":
        for name, (desc, runner) in EXPERIMENTS.items():
            print(f"\n##### {name}: {desc} #####")
            runner(args)
        return 0
    if args.command == "train":
        return _run_train(args)
    if args.command == "eval":
        return _run_eval(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "client":
        return _run_client(args)
    if args.command == "privacy-gate":
        return _run_privacy_gate(args)
    EXPERIMENTS[args.command][1](args)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Runtime failures (missing artifact, corrupt checksum, mismatched
    dataset, …) exit 1 with a one-line error on stderr instead of a
    traceback; ``--traceback`` on any command re-raises for debugging.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (KeyboardInterrupt, SystemExit, BrokenPipeError):
        raise
    except Exception as exc:  # noqa: BLE001 — the CLI's error boundary
        if getattr(args, "traceback", False):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
