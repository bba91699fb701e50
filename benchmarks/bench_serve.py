"""Serving-stack benchmark: micro-batched concurrency vs offline batches.

Exercises the full model lifecycle the way a deployment would:

1. build a paper-scale serving fixture, package it as an on-disk
   :class:`~repro.serve.ModelArtifact`, **save and re-load it**, and
   assert the loaded engine predicts bit-identically to the in-memory
   one;
2. measure the *offline* packed batch path (one ``engine.predict`` over
   the whole query set) — the throughput ceiling;
3. drive a :class:`~repro.serve.ServingAPI` with N concurrent
   single-query client threads through the micro-batching scheduler and
   measure served throughput + latency percentiles — the acceptance
   bar is served throughput within 2x of the offline batch;
4. hot-swap: publish and promote a second artifact version *while*
   clients hammer the server, asserting **zero failed requests** and
   that every answer matches one of the two versions exactly;
5. with ``--transport socket`` (or ``both``), run the same workload as
   N *real* TCP clients against a :class:`~repro.serve.ServingFrontend`
   — every query leaves as packed bit planes over the versioned wire
   protocol — in **both framings**: one v1 ``ScoreRequest`` frame per
   query (the per-frame event-loop regime, the PR-4 baseline) and the
   protocol-v2 **batched wire** (``--wire-batch N`` logical requests
   stacked per batch frame, one scheduler submit each),
   so ``BENCH_serve.json`` tracks the v1/v2 gap over time (the
   acceptance bars: single-query within 2x of in-process, batched ≥ 2x
   the single-query rate);
6. with ``--workers K``, serve the saved artifact through a
   :class:`~repro.serve.WorkerPool` — K ``SO_REUSEPORT`` acceptor
   processes mmap-loading one artifact — and record the K-worker
   aggregate vs a single worker (with ``cpu_count``: the ≥1.5x bar
   needs ≥ K cores; a 1-core host time-shares and stays near 1x);
7. micro-benchmark the scheduler's per-flush result scatter (the
   pre-vectorization per-future Python loop vs the shipped
   ``split_rows`` outcomes, finishes and resolves), the flush-overhead
   fix for small ``d_hv``;
8. sweep the offline scoring backends (``--backend``, default ``all``:
   dense / packed / native) on the same workload and record per-backend
   q/s plus ``numba_available``/``cpu_count`` — the
   ``--assert-native-speedup`` bar (native ≥ Nx packed, ISSUE bar 3)
   is enforced when numba is present;
9. with ``--wire-profile``, profile the zero-copy wire core: the v1
   single-query socket path (client pinned to ``versions=(1,)``) and
   the batched wire, each reporting frames/s and counter-based
   bytes-copied-per-frame from the shared
   :class:`~repro.proto.session.WireSession` — the
   ``--assert-wire-ratio`` bar (v1 single-query ≥ 0.8x in-process) is
   the sans-io rework's acceptance gate.  It also times the codec per
   frame (encode, decode and ``split``) for a single-row v4
   ``ScoreRequest``/``ScoreResponse`` pair and a 32-chunk pair of the
   same classes with ``counts`` (the batch frames), and the same two
   requests as v5 live words on a half-masked support, after asserting
   each message round-trips to itself, and the same two requests at v6
   as core words of level-base encodings; records the request bytes per
   row of v4 planes against v5 live words and v6 core words; times one
   256-row flush of live words and of the same rows as planes against a
   store held as live words, and of core and live words against a store
   that holds a core (no bar on any of these); and asserts that a
   level-base masked tenant gives identical decisions to v4 plane, v5
   live-word and v6 core-word clients over sockets;
10. with ``--latency``, read the server's latency ledger (``/stats``
    ``"stages"``, :mod:`repro.obs`) after one-row v6 core-word traffic,
    32-row v2 batch traffic and one-row v6 live-word traffic to 16
    tenants of one fleet coalesce group (8 in flight) over sockets,
    assert that each leg's stages add up to its server-side request
    time (decode start → reply written) within 10%, and write
    per-stage p50/p99, each stage's share of the request time, the
    inline share, the fleet leg's rows per flush and the ledger's own
    in-process cost per request to ``--latency-out``
    (``BENCH_latency.json``).

Writes ``BENCH_serve.json``::

    PYTHONPATH=src python benchmarks/bench_serve.py              # paper scale
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke      # CI seconds
    PYTHONPATH=src python benchmarks/bench_serve.py --assert-within 2 \
        --transport both --assert-socket-within 2 \
        --wire-batch 32 --assert-wire-batch-speedup 2
"""

import argparse
import json
import pathlib
import socket
import sys
import tempfile
import threading
import time
import timeit

if __name__ == "__main__":  # script mode works without an installed package
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.backend.packed import (
    LiveHV,
    PackedHV,
    compact_store,
    pack_hypervectors,
)
from repro.client import PriveHDClient
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import LevelBaseEncoder
from repro.hd.model import HDModel
from repro.hd.prune import mask_from_seed
from repro.obs import Ledger, RequestRecord
from repro.proto import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameType,
    Hello,
    ScoreRequest,
    ScoreResponse,
    WireSession,
    decode_message,
    encode_message,
    encode_message_parts,
)
from repro.serve import (
    FrontendHandle,
    InferenceEngine,
    MicroBatchConfig,
    ModelArtifact,
    ModelFleet,
    ServingAPI,
)
from repro.utils.rng import spawn


def make_serving_fixture(d_hv=10000, n_queries=2000, n_classes=26, seed=0):
    """A bipolar model plus bipolar query hypervectors (every dimension live).

    Queries correlate with a random class so predictions are
    non-trivial.  Values are ±1 floats so the dense backend runs its
    usual path untouched.
    """
    rng = spawn(seed, "serving-fixture")
    class_hvs = np.where(rng.normal(size=(n_classes, d_hv)) >= 0, 1.0, -1.0)
    owner = rng.integers(0, n_classes, n_queries)
    noise = rng.normal(size=(n_queries, d_hv))
    queries = np.where(class_hvs[owner] + 1.5 * noise >= 0, 1.0, -1.0)
    return HDModel(n_classes, d_hv, class_hvs), queries.astype(np.float32)


def _build_artifact(d_hv, n_classes, n_queries, seed, directory):
    """Fixture model -> artifact -> disk -> loaded artifact + queries."""
    model, queries = make_serving_fixture(
        d_hv=d_hv, n_queries=n_queries, n_classes=n_classes, seed=seed
    )
    artifact = ModelArtifact.build(
        model,
        quantizer="bipolar",
        backend="packed",
        metadata={"bench": "serve", "seed": seed},
    )
    path = artifact.save(directory)
    return ModelArtifact.load(path), queries


def _scheduler_stats(api, method: str) -> dict:
    """Counters of the scheduler serving ``method`` on a one-model API."""
    return next(
        (
            stats
            for key, stats in api.stats()["schedulers"].items()
            if key.endswith("." + method)
        ),
        {},
    )


def _drive_clients(server, queries, n_clients, *, on_request=None):
    """N threads, each serving its stripe of single queries; returns
    (predictions, per-request latencies, failure list, elapsed seconds).

    ``on_request`` is invoked (from the client thread) after every
    completed request — the hot-swap scenario uses it to promote a new
    version mid-traffic.
    """
    n = queries.shape[0]
    results = np.full(n, -1, dtype=np.int64)
    latencies = np.zeros(n, dtype=np.float64)
    failures: list[Exception] = []

    def client(worker: int) -> None:
        for i in range(worker, n, n_clients):
            t0 = time.perf_counter()
            try:
                results[i] = server.predict(queries[i])
            except Exception as exc:  # noqa: BLE001 — counted, reported
                failures.append(exc)
            latencies[i] = time.perf_counter() - t0
            if on_request is not None:
                on_request(i)

    threads = [
        threading.Thread(target=client, args=(w,)) for w in range(n_clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    return results, latencies, failures, elapsed


def run_hot_swap(artifact_v1, artifact_v2, queries, args) -> dict:
    """Promote v2 mid-traffic; every request must succeed and match a
    version-consistent answer."""
    direct_v1 = artifact_v1.engine().predict(queries)
    direct_v2 = artifact_v2.engine().predict(queries)
    n = queries.shape[0]
    swap_at = n // 2
    swapped = threading.Event()
    served = 0
    served_lock = threading.Lock()

    def maybe_swap(_i: int) -> None:
        nonlocal served
        with served_lock:
            served += 1
            if served >= swap_at and not swapped.is_set():
                swapped.set()
                # Publish + promote while requests are in flight: the
                # registry swap is atomic, so no request may fail or
                # see a half-prepared model.
                registry.publish("bench", artifact_v2)

    config = MicroBatchConfig(max_batch=args.max_batch)
    with ServingAPI.from_artifact(
        artifact_v1, name="bench", config=config
    ) as server:
        registry = server.registry
        results, _, failures, _ = _drive_clients(
            server, queries, args.clients, on_request=maybe_swap
        )
        # After the swap, fresh traffic must see v2.
        post_swap = server.predict(queries[:8])

    matches_v1 = results == direct_v1
    matches_v2 = results == direct_v2
    consistent = bool(np.all(matches_v1 | matches_v2))
    return {
        "requests": int(n),
        "failed_requests": len(failures),
        "zero_dropped": len(failures) == 0,
        "answers_version_consistent": consistent,
        "served_by_v1_only": int(np.sum(matches_v1 & ~matches_v2)),
        "served_by_v2_only": int(np.sum(matches_v2 & ~matches_v1)),
        "post_swap_is_v2": bool(np.array_equal(post_swap, direct_v2[:8])),
        "current_version": registry.current_version("bench"),
    }


def _drive_socket_clients(
    address, queries, n_clients, window, wire_batch,
    *, versions=None, wire_stats=None,
) -> tuple[np.ndarray, float]:
    """N TCP clients, each shipping its stripe of single-query requests.

    Each client owns a :class:`~repro.client.PriveHDClient` connection,
    bit-packs every query row (the §III-C edge-side cost), and ships its
    requests over the versioned wire protocol with a small pipelining
    window.  ``wire_batch=1`` sends one :class:`ScoreRequest` frame per
    query (the v1 regime, bounded by per-frame event-loop work);
    ``wire_batch=N`` stacks N logical requests into one v2 batch frame
    and one scheduler submit.  Packing and connecting run before the
    barrier — the timed region is pure request traffic.  ``versions``
    pins the protocol offer (the wire profile forces the v1 dialect
    with ``(1,)``); ``wire_stats``, when a list, collects each client's
    session copy counters.  Returns (predictions, elapsed seconds);
    raises if any client failed.
    """
    n = queries.shape[0]
    results = np.full(n, -1, dtype=np.int64)
    failures: list[Exception] = []
    ready = threading.Barrier(n_clients + 1)

    def client_worker(worker: int) -> None:
        try:
            indices = list(range(worker, n, n_clients))
            packed = [
                pack_hypervectors(queries[i], validate=False)
                for i in indices
            ]
            with PriveHDClient(address, versions=versions) as client:
                ready.wait()
                preds = client.predict_encoded_many(
                    packed, window=window, wire_batch=wire_batch
                )
                if wire_stats is not None:
                    wire_stats.append(client.wire_stats())
            for i, p in zip(indices, preds):
                results[i] = p[0]
        except Exception as exc:  # noqa: BLE001 — counted, reported
            failures.append(exc)
            # A client that dies before the barrier must not leave
            # everyone else waiting forever.
            ready.abort()

    threads = [
        threading.Thread(target=client_worker, args=(w,))
        for w in range(n_clients)
    ]
    for t in threads:
        t.start()
    try:
        ready.wait()
    except threading.BrokenBarrierError:
        pass  # a client failed early; join + report via `failures`
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if failures:
        raise AssertionError(
            f"{len(failures)} socket clients failed: {failures[0]!r}"
        )
    return results, elapsed


def run_socket_bench(artifact, queries, direct, args, wire_batch) -> dict:
    """N real TCP clients vs the same workload served in-process.

    All connections coalesce in the frontend's shared micro-batcher;
    predictions must match the offline engine exactly.  ``wire_batch``
    picks the framing: 1 = the v1 single-query regime (the PR-4
    baseline), >1 = the v2 batched wire.
    """
    n = queries.shape[0]
    n_clients = args.socket_clients
    config = MicroBatchConfig(max_batch=args.max_batch)
    with ServingAPI.from_artifact(
        artifact, name="bench", config=config
    ) as api, FrontendHandle(api) as handle:
        results, elapsed = _drive_socket_clients(
            handle.address, queries, n_clients,
            args.socket_window, wire_batch,
        )
        stats = _scheduler_stats(api, "predict_live")

    if not np.array_equal(results, direct):
        raise AssertionError("socket predictions diverged from offline")
    return {
        "clients": n_clients,
        "pipeline_window": args.socket_window,
        "wire_batch": wire_batch,
        "requests": int(n),
        "seconds": elapsed,
        "queries_per_s": n / elapsed,
        "identical_to_offline": True,
        "failed_requests": 0,
        "flushes": stats.get("flushes"),
        "mean_batch_rows": stats.get("mean_batch_rows"),
    }


def _us_per_call(fn, number: int) -> float:
    """Best-of-5 microseconds per ``fn()`` call."""
    return min(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6


def _masked_block(d_hv: int, n: int, seed: int = 0):
    """``n`` seeded bipolar rows on one half-masked support: planes, live words."""
    rng = np.random.default_rng(seed)
    keep = mask_from_seed(d_hv, d_hv // 2, 0)
    block = pack_hypervectors(np.where(rng.random((n, d_hv)) < 0.5, -1.0, 1.0) * keep)
    held = compact_store(block)
    return block, LiveHV(held.gather(block.signs), d_hv, held.n_live, held.digest)


def _core_block(d_hv: int, n: int, *, n_classes: int = 26, d_in: int = 64):
    """A half-masked level-base artifact holding a core, and ``n`` of its
    clients' rows (planes carrying live and core words)."""
    encoder = LevelBaseEncoder(d_in, d_hv, seed=5)
    rng = np.random.default_rng(5)
    X = rng.random((4 * n_classes + n, d_in))
    y = np.arange(4 * n_classes) % n_classes
    keep = mask_from_seed(d_hv, d_hv // 2, 0)
    artifact = ModelArtifact.build(
        HDModel.from_encodings(encoder.encode(X[: len(y)]), y, n_classes),
        quantizer="bipolar", backend="packed", encoder=encoder,
        keep_mask=keep, mask_seed=0,
    )
    obfuscator = InferenceObfuscator(
        encoder, ObfuscationConfig(n_masked=d_hv // 2, mask_seed=0)
    )
    return artifact, obfuscator.prepare_packed(X[len(y):])


def run_core_parity(d_hv: int, *, rows: int = 48) -> dict:
    """Decisions of v4 plane, v5 live-word and v6 core-word clients of
    one core-holding tenant over sockets: identical to each other and
    to the offline engine, or ``AssertionError``."""
    artifact, block = _core_block(d_hv, rows)
    want = artifact.engine().predict(
        PackedHV(block.signs, block.mags, block.d)
    )
    out = {"rows": rows}
    with ServingAPI.from_artifact(artifact, name="core") as api, FrontendHandle(
        api
    ) as handle:
        for label, versions in (
            ("v4_planes", (1, 2, 3, 4)),
            ("v5_live", (1, 2, 3, 4, 5)),
            ("v6_core", None),
        ):
            with PriveHDClient(handle.address, versions=versions) as client:
                got = np.concatenate(client.predict_encoded_many(
                    [block[i : i + 1] for i in range(rows)], wire_batch=8
                ))
            if not np.array_equal(got, want):
                raise AssertionError(f"core parity: {label} decisions diverged")
            out[label] = "identical"
    return out


def _ledger_leg(stages: dict) -> dict:
    """One traffic leg's ledger: per-stage p50/p99 and share of the
    request time; ``AssertionError`` unless the stages add up to it
    within 10%."""
    request = stages["request"]
    total_us = request["mean_us"] * request["count"]
    per_stage = {
        name: row for name, row in stages.items()
        if name not in ("inline", "queued", "request")
    }
    summed_us = sum(row["mean_us"] * row["count"] for row in per_stage.values())
    if not total_us or abs(summed_us - total_us) > 0.1 * total_us:
        raise AssertionError(
            f"ledger stages sum to {summed_us:.0f} us against "
            f"{total_us:.0f} us of request time"
        )
    return {
        "requests": request["count"],
        "inline_share": stages["inline"] / max(request["count"], 1),
        "request_us": {k: request[k] for k in ("mean_us", "p50_us", "p99_us")},
        "stages_over_request": summed_us / total_us,
        "stages": {
            name: {
                "count": row["count"],
                "p50_us": row["p50_us"],
                "p99_us": row["p99_us"],
                "share": row["mean_us"] * row["count"] / total_us,
            }
            for name, row in per_stage.items()
        },
    }


def _ledger_us_per_request(number: int = 20_000) -> float:
    """In-process cost of one request's ledger work: open, the
    scheduler's stamps, close (histogram folds amortized)."""
    ledger = Ledger()
    now = time.monotonic_ns

    def one():
        record = RequestRecord(1, now(), True)
        record.started = record.scored = now()
        record.resolved = now()
        ledger.close([record])

    return _us_per_call(one, number)


def _send_bursts(address, frames: list[bytes], window: int) -> list:
    """Pipeline pre-encoded v2 frames over one raw connection, ``window``
    per ``sendall``, and read every reply: the gateway's traffic shape,
    without a client encode between frames."""
    session = WireSession("client")
    with socket.create_connection(address, timeout=30.0) as sock:

        def read():
            while (frame := session.next_frame()) is None:
                n = sock.recv_into(session.recv_buffer())
                if not n:
                    raise ConnectionError("the server closed the connection")
                session.commit(n)
            return decode_message(frame)

        sock.sendall(encode_message(Hello(versions=(1, 2))))
        session.adopt_version(read().version)
        replies = []
        for start in range(0, len(frames), window):
            burst = frames[start : start + window]
            sock.sendall(b"".join(burst))
            replies += [read() for _ in burst]
    return replies


def _send_window(address, frames: list[bytes], window: int) -> list:
    """Send pre-encoded frames over one raw v6 connection with
    ``window`` unanswered at a time, and read every reply: the fleet
    gateway's traffic shape."""
    session = WireSession("client")
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def read():
            while (frame := session.next_frame()) is None:
                n = sock.recv_into(session.recv_buffer())
                if not n:
                    raise ConnectionError("the server closed the connection")
                session.commit(n)
            return decode_message(frame)

        sock.sendall(encode_message(Hello()))
        session.adopt_version(read().version)
        replies, sent = [], 0
        while len(replies) < len(frames):
            while sent < len(frames) and sent - len(replies) < window:
                sock.sendall(frames[sent])
                sent += 1
            replies.append(read())
    return replies


#: the fleet leg: tenants of one coalesce group, requests in flight
FLEET_LEDGER_TENANTS = 16
FLEET_LEDGER_WINDOW = 8


def _fleet_ledger_leg(d_hv: int, rows: int):
    """``(fleet, frames, answers)``: tenants sharing one keep mask (so
    one coalesce group), and one single-row v6 live-word frame per row,
    to tenant ``row % FLEET_LEDGER_TENANTS``, with that tenant's offline
    answer."""
    rng = np.random.default_rng(11)
    keep = mask_from_seed(d_hv, d_hv // 2, 0)
    artifacts = [
        ModelArtifact(
            store=rng.choice(
                np.array([-1.0, 1.0], dtype=np.float32), size=(26, d_hv)
            ) * keep,
            query_quantizer="bipolar", store_quantizer="bipolar",
            backend="packed", keep_mask=keep,
        )
        for _ in range(FLEET_LEDGER_TENANTS)
    ]
    fleet = ModelFleet()
    for t, artifact in enumerate(artifacts):
        fleet.add_tenant(f"t{t:02d}", artifact)
    block, live = _masked_block(d_hv, rows, seed=12)
    tenant_of = np.arange(rows) % FLEET_LEDGER_TENANTS
    frames = [
        encode_message(ScoreRequest(
            queries=live[i : i + 1], tenant=f"t{t:02d}", request_id=i + 1,
        ))
        for i, t in enumerate(tenant_of)
    ]
    want = np.empty(rows, dtype=np.int64)
    for t, artifact in enumerate(artifacts):
        mine = tenant_of == t
        want[mine] = artifact.engine().predict(
            PackedHV(block.signs[mine], block.mags[mine], d_hv)
        )
    return fleet, frames, want


def _counted_stats(api, sent: int, label: str, timeout_s: float = 5.0) -> dict:
    """``api.stats()`` once its ledger counts the ``sent`` requests of a leg.

    The frontend closes a reply's record after its write returns, so a
    client can hold its last reply before the ledger counts it.  Raises
    when the count overshoots, or falls short after ``timeout_s``.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        stats = api.stats()
        counted = stats["stages"]["request"]["count"]
        if counted == sent:
            return stats
        if counted > sent or time.monotonic() > deadline:
            raise AssertionError(
                f"ledger leg {label}: counted {counted} of {sent} requests"
            )
        time.sleep(0.001)


def run_latency_ledger(d_hv: int, *, rows: int, batch_frames: int) -> dict:
    """The server's per-stage latency, read from its own ledger.

    One-row v6 core-word requests, one in flight (the edge client's
    shape); ``batch_frames`` 32-row v2 batch frames of planes, sent 8
    at a time (the gateway's); and one-row v6 live-word requests to the
    :data:`FLEET_LEDGER_TENANTS` tenants of one coalesce group,
    :data:`FLEET_LEDGER_WINDOW` in flight (the fleet's, scored by the
    fused kernel); each against a fresh server.  Raises unless every
    answer equals its tenant's offline engine's and each leg's ledger
    counts the requests it sent.
    """
    artifact, block = _core_block(d_hv, rows)
    want = artifact.engine().predict(PackedHV(block.signs, block.mags, block.d))
    singles = [block[i : i + 1] for i in range(rows)]
    starts = [32 * i % (rows - 31) for i in range(batch_frames)]
    frames = [
        encode_message(ScoreRequest(
            queries=PackedHV(
                block.signs[s : s + 32], block.mags[s : s + 32], block.d
            ),
            counts=(1,) * 32, request_id=i + 1,
        ), version=2)
        for i, s in enumerate(starts)
    ]

    def single(address):
        with PriveHDClient(address) as client:
            return np.concatenate([client.predict_encoded(q) for q in singles])

    def batched(address):
        replies = sorted(_send_bursts(address, frames, 8),
                         key=lambda r: r.request_id)
        return np.concatenate([r.predictions for r in replies])

    fleet, fleet_frames, fleet_want = _fleet_ledger_leg(d_hv, rows)

    def fleet_group(address):
        replies = sorted(
            _send_window(address, fleet_frames, FLEET_LEDGER_WINDOW),
            key=lambda r: r.request_id,
        )
        return np.concatenate([r.predictions for r in replies])

    legs = {
        "v6_core_single": (single, want, None, rows),
        "v2_batch_32": (
            batched, np.concatenate([want[s : s + 32] for s in starts]), None,
            batch_frames,
        ),
        "v6_fleet_single": (fleet_group, fleet_want, fleet, len(fleet_frames)),
    }
    out = {"d_hv": d_hv}
    for label, (drive, expected, served, sent) in legs.items():
        api = (
            ServingAPI.from_artifact(artifact, name="ledger")
            if served is None else ServingAPI(served)
        )
        with api, FrontendHandle(api) as handle:
            got = drive(handle.address)
            if not np.array_equal(got, expected):
                raise AssertionError(f"ledger leg {label}: answers diverged")
            stats = _counted_stats(api, sent, label)
            out[label] = _ledger_leg(stats["stages"])
        if served is not None:
            flushes = sum(s["flushes"] for s in stats["schedulers"].values())
            out[label]["rows_per_flush"] = rows / max(flushes, 1)
    out["ledger_us_per_request"] = _ledger_us_per_request()
    return out


_BATCH_FRAME_TYPES = (
    FrameType.SCORE_BATCH_REQUEST, FrameType.SCORE_BATCH_RESPONSE
)


def run_codec_profile(d_hv: int, *, chunks: int = 32, number: int = 2000) -> dict:
    """Codec microseconds per frame on the wire edge, at ``d_hv``.

    Two v4 ``ScoreRequest``/``ScoreResponse`` pairs of packed
    one-row-per-chunk traffic: a single row and ``chunks`` chunks
    carried as ``counts`` (the ``gateway_batched`` batch-frame shape);
    the same two requests at v5 as live words of rows masked to half
    the dimensions (``*_live``); and at v6 as the core words of
    level-base rows masked alike (``*_core``).  Every message must
    travel as the frame type its ``counts`` select (the batch frames
    with them) and decode back to itself, and the batch response's
    ``split`` must equal ``np.split`` on its counts, before anything is
    timed.
    ``split_us`` exists for the batch response only: a single-row
    response has nothing to split.  ``bytes_per_row`` is the
    ``chunks``-row request frame's length per row, v4 planes against
    v5 live words of the same masked rows, and v6 core words.
    """
    rng = np.random.default_rng(0)
    block = pack_hypervectors(
        np.where(rng.random((chunks, d_hv)) < 0.5, -1.0, 1.0)
    )
    masked, live = _masked_block(d_hv, chunks)
    core = _core_block(d_hv, chunks)[1].core
    counts = (1,) * chunks
    single_response = ScoreResponse(
        predictions=[3], model="m", version=1, request_id=7
    )
    batch_response = ScoreResponse(
        predictions=np.arange(chunks), counts=counts, model="m",
        version=1, request_id=7,
    )

    def batch(queries):
        return ScoreRequest(
            queries=queries, counts=counts, request_id=7, tenant="t"
        )

    pairs = {
        "single_row": (
            4,
            ScoreRequest(queries=block[:1], request_id=7, tenant="t"),
            single_response,
        ),
        f"batch_{chunks}_chunks": (4, batch(block), batch_response),
        "single_row_live": (
            5,
            ScoreRequest(queries=live[:1], request_id=7, tenant="t"),
            single_response,
        ),
        f"batch_{chunks}_chunks_live": (5, batch(live), batch_response),
        "single_row_core": (
            6,
            ScoreRequest(queries=core[:1], request_id=7, tenant="t"),
            single_response,
        ),
        f"batch_{chunks}_chunks_core": (6, batch(core), batch_response),
    }
    out: dict = {"d_hv": d_hv, "protocol_version": PROTOCOL_VERSION}
    for label, (version, request, response) in pairs.items():
        row = {}
        for kind, msg in (("request", request), ("response", response)):
            frame = FrameDecoder().feed(encode_message(msg, version=version))[0]
            batched = frame.frame_type in _BATCH_FRAME_TYPES
            if batched != (msg.counts is not None):
                raise AssertionError(
                    f"codec profile {label} {kind} travelled as frame "
                    f"type {frame.frame_type}"
                )
            back = decode_message(frame)
            if back != msg:
                raise AssertionError(f"codec profile {label} {kind} diverged")
            row[f"{kind}_encode_us"] = _us_per_call(
                lambda: encode_message_parts(msg, version=version), number
            )
            row[f"{kind}_decode_us"] = _us_per_call(
                lambda: decode_message(frame), number
            )
        if back.counts is not None:
            want = np.split(back.predictions, np.cumsum(back.counts[:-1]))
            if not all(map(np.array_equal, back.split(), want)):
                raise AssertionError(f"codec profile {label} split diverged")
            row["split_us"] = _us_per_call(back.split, number)
        out[label] = row
    out["bytes_per_row"] = {
        "v4_planes": len(encode_message(batch(masked), version=4)) / chunks,
        "v5_live": len(encode_message(batch(live), version=5)) / chunks,
        "v6_core": len(encode_message(batch(core), version=6)) / chunks,
    }
    return out


def run_live_flush_profile(d_hv: int, *, rows: int = 256, n_classes: int = 26) -> dict:
    """Microseconds per row of one ``rows``-row flush on a live-word store.

    The same masked rows scored as v5 live words and as v4 planes on
    the store's support (gathered into live words once per call)
    against a ``n_classes`` store held as live words, after asserting
    both give the same scores; and unmasked bipolar planes against an
    unmasked store, whose live words are its sign plane, after
    asserting they score like the dense backend; and level-base rows
    as v6 core words and as v5 live words against a store that holds a
    core, after asserting both score like their planes.  No bar: it
    records what v4 traffic costs a server whose stores are compacted,
    and what the core saves.
    """
    from repro.backend import get_backend

    store, _ = _masked_block(d_hv, n_classes, seed=1)
    prepared = get_backend("packed").prepare_class_store(store)
    planes, live = _masked_block(d_hv, rows, seed=2)
    backend = get_backend("packed")
    if not np.array_equal(
        backend.class_scores(live, prepared), backend.class_scores(planes, prepared)
    ):
        raise AssertionError("live-word and plane flushes diverged")
    rng = np.random.default_rng(3)
    full = pack_hypervectors(
        np.where(rng.random((n_classes + rows, d_hv)) < 0.5, -1.0, 1.0)
    )
    full_store = backend.prepare_class_store(full[:n_classes])
    full_rows = full[n_classes:]
    dense = get_backend("dense")
    if not np.allclose(
        backend.class_scores(full_rows, full_store),
        dense.class_scores(
            full_rows.unpack(np.float64),
            dense.prepare_class_store(full[:n_classes].unpack(np.float64)),
        ),
        rtol=1e-12,
        atol=0,
    ):
        raise AssertionError("unmasked plane flush diverged from dense")
    artifact, block = _core_block(d_hv, rows, n_classes=n_classes)
    core_store = backend.prepare_class_store(artifact.store)
    want = backend.class_scores(PackedHV(block.signs, block.mags, d_hv), core_store)
    for shipped in (block.core, block.live):
        if not np.array_equal(backend.class_scores(shipped, core_store), want):
            raise AssertionError("core-word flush diverged from planes")
    return {
        "core_words_us_per_row": _us_per_call(
            lambda: backend.class_scores(block.core, core_store), 20
        ) / rows,
        "core_store_live_words_us_per_row": _us_per_call(
            lambda: backend.class_scores(block.live, core_store), 20
        ) / rows,
        "unmasked_planes_us_per_row": _us_per_call(
            lambda: backend.class_scores(full_rows, full_store), 20
        ) / rows,
        "rows": rows,
        "live_words_us_per_row": _us_per_call(
            lambda: backend.class_scores(live, prepared), 20
        ) / rows,
        "planes_us_per_row": _us_per_call(
            lambda: backend.class_scores(planes, prepared), 20
        ) / rows,
    }


def run_wire_profile(artifact, queries, direct, args, in_process_qps) -> dict:
    """Frames/s and bytes-copied-per-frame of the zero-copy wire core.

    The tentpole gate of the sans-io rework: drives the same workload
    through the socket path in the **v1 single-query** dialect (client
    pinned to ``versions=(1,)`` — one ``ScoreRequest`` frame per query,
    the per-frame-overhead regime the rework targets) and, when
    ``--wire-batch`` > 1, the batched v2+ wire; reports throughput
    relative to the in-process micro-batched server alongside the
    *counter-based* copy profile from every client's
    :class:`~repro.proto.session.WireSession` — ``tx`` copies are the
    scalar/header staging bytes (array planes go by reference via
    ``sendmsg``), ``rx`` copies are decoder reassembly of frames that
    straddled ``recv_into`` chunks.  The acceptance bar
    (``--assert-wire-ratio``): v1 single-query socket throughput ≥ that
    fraction of in-process.
    """
    n = queries.shape[0]
    config = MicroBatchConfig(max_batch=args.max_batch)
    modes = [("v1_single_query", (1,), 1)]
    if args.wire_batch > 1:
        modes.append(("batched_wire", None, args.wire_batch))
    out = {
        "clients": args.socket_clients,
        "pipeline_window": args.socket_window,
        "in_process_queries_per_s": in_process_qps,
        "modes": {},
    }
    with ServingAPI.from_artifact(
        artifact, name="bench", config=config
    ) as api, FrontendHandle(api) as handle:
        for label, versions, wire_batch in modes:
            stats: list[dict] = []
            results, elapsed = _drive_socket_clients(
                handle.address, queries, args.socket_clients,
                args.socket_window, wire_batch,
                versions=versions, wire_stats=stats,
            )
            if not np.array_equal(results, direct):
                raise AssertionError(
                    f"wire-profile {label} predictions diverged"
                )
            tx_frames = sum(s["tx_frames"] for s in stats)
            rx_frames = sum(s["rx_frames"] for s in stats)
            frames = tx_frames + rx_frames
            tx_copied = sum(s["tx_copied_bytes"] for s in stats)
            rx_copied = sum(s["rx_copied_bytes"] for s in stats)
            qps = n / elapsed
            out["modes"][label] = {
                "wire_batch": wire_batch,
                "versions_offered": list(versions) if versions else None,
                "queries_per_s": qps,
                "vs_in_process": qps / in_process_qps,
                "seconds": elapsed,
                "frames": frames,
                "frames_per_s": frames / elapsed,
                "tx_copied_bytes_per_frame": tx_copied / max(tx_frames, 1),
                "rx_copied_bytes_per_frame": rx_copied / max(rx_frames, 1),
                "identical_to_offline": True,
            }
    out["v1_single_query_vs_in_process"] = (
        out["modes"]["v1_single_query"]["vs_in_process"]
    )
    out["codec_us_per_frame"] = run_codec_profile(
        args.dhv, number=200 if args.smoke else 2000
    )
    out["live_store_flush"] = run_live_flush_profile(args.dhv)
    out["core_parity"] = run_core_parity(args.dhv)
    return out


def run_worker_pool_bench(artifact_dir, queries, direct, args) -> dict:
    """Aggregate throughput of 1 vs K SO_REUSEPORT acceptor processes.

    Runs the *single-query* (wire_batch=1) workload — the event-loop-
    bound regime multi-worker serving exists to scale — against a
    :class:`~repro.serve.WorkerPool` of 1 worker and of ``--workers``
    workers on the same saved artifact (each worker mmap-loads it
    read-only).  Predictions must match the offline engine in both
    configurations.  The aggregate speedup is gated by available cores:
    on a single-core host the workers time-share one CPU and the ratio
    hovers near 1x (recorded as ``cpu_count`` so readers can judge).
    """
    import os

    from repro.serve import WorkerPool

    n = queries.shape[0]
    config = MicroBatchConfig(max_batch=args.max_batch)
    # More clients than the single-frontend bench: K acceptors need
    # enough concurrent connections for the kernel to spread.
    n_clients = max(args.socket_clients, 2 * args.workers)
    out = {
        "workers_max": args.workers,
        "clients": n_clients,
        "cpu_count": os.cpu_count(),
        "by_workers": {},
    }
    for n_workers in sorted({1, args.workers}):
        with WorkerPool(
            artifact_dir, name="bench", workers=n_workers, config=config
        ) as pool:
            results, elapsed = _drive_socket_clients(
                pool.address, queries, n_clients, args.socket_window, 1
            )
            conns = [s["connections_served"] for s in pool.stats()]
        if not np.array_equal(results, direct):
            raise AssertionError(
                f"{n_workers}-worker predictions diverged from offline"
            )
        out["by_workers"][str(n_workers)] = {
            "queries_per_s": n / elapsed,
            "seconds": elapsed,
            "connections_per_worker": conns,
            "identical_to_offline": True,
        }
    single = out["by_workers"]["1"]["queries_per_s"]
    multi = out["by_workers"][str(args.workers)]["queries_per_s"]
    out["aggregate_speedup"] = multi / single
    return out


def _paced_open_loop(api, queries, *, rate_rows_s, duration_s, rows_per_req):
    """Offer ``rate_rows_s`` of scoring work for ``duration_s``, open loop.

    Unlike the closed-loop client drivers above, the pacer never waits
    for answers: it submits ``rows_per_req``-row requests on a fixed
    schedule whether or not the server is keeping up — which is what an
    overload actually looks like.  Returns
    (completed, shed, latencies, achieved_rate, elapsed_total).
    """
    from repro.proto import ScoreRequest
    from repro.serve.errors import Overloaded

    n = queries.shape[0]
    futures = []
    latencies: list[float] = []
    lock = threading.Lock()
    shed = 0
    sent_rows = 0
    t_start = time.perf_counter()
    while True:
        now = time.perf_counter() - t_start
        if now >= duration_s:
            break
        target_rows = int(now * rate_rows_s)
        while sent_rows < target_rows:
            lo = sent_rows % max(n - rows_per_req, 1)
            block = queries[lo : lo + rows_per_req]
            t0 = time.perf_counter()
            try:
                f = api.submit_score(ScoreRequest(queries=block))
            except Overloaded:
                shed += 1
            else:
                def _done(fut, t0=t0):
                    with lock:
                        latencies.append(time.perf_counter() - t0)

                f.add_done_callback(_done)
                futures.append(f)
            sent_rows += rows_per_req
        time.sleep(0.001)
    offered_elapsed = time.perf_counter() - t_start
    for f in futures:
        f.result(timeout=120.0)
    elapsed_total = time.perf_counter() - t_start
    achieved = sent_rows / offered_elapsed
    return len(futures), shed, latencies, achieved, elapsed_total


def run_overload_sweep(artifact, queries, args) -> dict:
    """Goodput / shed rate / p99 from 0.5x to 4x capacity, with and
    without admission control.

    Capacity is measured first (a saturating burst through the same
    micro-batched path), then each multiplier of it is *offered* open
    loop.  With ``max_queue_rows`` bounded, the excess comes back as
    typed ``Overloaded`` rejections and the latency of accepted
    requests stays pinned to the queue bound; with admission control
    off, nothing is shed — the queue absorbs the whole burst and p99
    grows with it.  That contrast is the point of the table.
    """
    from repro.proto import ScoreRequest

    rows_per_req = args.overload_rows
    queue_rows = 4 * args.max_batch

    def fresh_api(bounded: bool) -> ServingAPI:
        return ServingAPI.from_artifact(
            artifact,
            name="bench",
            config=MicroBatchConfig(
                max_batch=args.max_batch,
                max_queue_rows=queue_rows if bounded else None,
            ),
        )

    # Capacity: saturate the unbounded path and time the drain.
    with fresh_api(bounded=False) as api:
        n_burst = max(64, 4096 // rows_per_req)
        t0 = time.perf_counter()
        futs = [
            api.submit_score(
                ScoreRequest(
                    queries=queries[
                        (i * rows_per_req)
                        % max(queries.shape[0] - rows_per_req, 1) :
                    ][:rows_per_req]
                )
            )
            for i in range(n_burst)
        ]
        for f in futs:
            f.result(timeout=120.0)
        capacity_rows_s = n_burst * rows_per_req / (time.perf_counter() - t0)

    sweep = []
    for multiplier in args.overload_multipliers:
        entry = {"offered_x_capacity": multiplier}
        for label, bounded in (("admission", True), ("unbounded", False)):
            with fresh_api(bounded) as api:
                completed, shed, lats, achieved, elapsed = _paced_open_loop(
                    api,
                    queries,
                    rate_rows_s=multiplier * capacity_rows_s,
                    duration_s=args.overload_duration,
                    rows_per_req=rows_per_req,
                )
                rejected = sum(
                    e["rejected"]
                    for e in api.stats()["schedulers"].values()
                )
            lats.sort()
            entry[label] = {
                "offered_rows_s": multiplier * capacity_rows_s,
                "achieved_offer_rows_s": achieved,
                "completed_requests": completed,
                "shed_requests": shed,
                "shed_rate": shed / max(completed + shed, 1),
                "goodput_rows_s": completed * rows_per_req / elapsed,
                "p50_ms": 1e3 * lats[len(lats) // 2] if lats else None,
                "p99_ms": (
                    1e3 * lats[int(0.99 * len(lats))] if lats else None
                ),
                "rejected_by_scheduler": rejected,
            }
        sweep.append(entry)
    return {
        "rows_per_request": rows_per_req,
        "duration_s": args.overload_duration,
        "max_queue_rows": queue_rows,
        "capacity_rows_s": capacity_rows_s,
        "sweep": sweep,
    }


def run_chaos_pool(artifact_dir, queries, direct, args) -> dict:
    """Kill one of two live workers under retrying client traffic.

    The recovery-time report CI uploads: clients with bounded retries
    hammer a two-worker pool; worker 0 is SIGKILLed mid-traffic; one
    supervision pass replaces it (replaying the registry log).  The
    run *asserts* zero wrong answers and zero client failures — the
    chaos outcome is a correctness bar, not just a timing.
    """
    from repro.serve import WorkerPool

    n_probe = min(64, queries.shape[0])
    packed = [
        pack_hypervectors(queries[i], validate=False) for i in range(n_probe)
    ]
    config = MicroBatchConfig(max_batch=args.max_batch)
    out = {"workers": 2, "clients": 4}
    with WorkerPool(
        artifact_dir, name="bench", workers=2, config=config
    ) as pool:
        stop = threading.Event()
        failures: list[Exception] = []
        wrong = [0]
        count = [0]
        retries = [0]
        reconnects = [0]
        lock = threading.Lock()

        def hammer(worker: int) -> None:
            try:
                with PriveHDClient(
                    pool.address,
                    max_retries=8,
                    backoff_base_s=0.02,
                    timeout=10.0,
                ) as client:
                    i = 0
                    while not stop.is_set():
                        idx = (worker + i) % n_probe
                        i += 1
                        pred = client.predict_encoded(packed[idx])
                        with lock:
                            count[0] += 1
                            if pred[0] != direct[idx]:
                                wrong[0] += 1
                    with lock:
                        retries[0] += client.retries
                        reconnects[0] += client.reconnects
            except Exception as exc:  # noqa: BLE001 — counted, reported
                failures.append(exc)

        def wait_for(n: int, deadline_s: float = 60.0) -> None:
            deadline = time.perf_counter() + deadline_s
            while time.perf_counter() < deadline:
                with lock:
                    if count[0] >= n:
                        return
                time.sleep(0.002)
            raise AssertionError(f"chaos traffic stalled before {n} answers")

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(out["clients"])
        ]
        for t in threads:
            t.start()
        wait_for(50)  # traffic established on both workers
        t_kill = time.perf_counter()
        killed_pid = pool.kill_worker(0)
        at_kill = count[0]
        respawned = pool.supervise_once()
        pool.ping()  # the whole fleet acks again
        recovery_s = time.perf_counter() - t_kill
        wait_for(at_kill + 200)  # traffic flowed on through the kill
        stop.set()
        for t in threads:
            t.join()
        out.update(
            {
                "requests": count[0],
                "answers_before_kill": at_kill,
                "killed_pid": killed_pid,
                "respawned_workers": respawned,
                "recovery_s": recovery_s,
                "restarts": pool.restarts,
                "client_retries": retries[0],
                "client_reconnects": reconnects[0],
                "failed_clients": len(failures),
                "wrong_answers": wrong[0],
            }
        )
    if failures:
        raise AssertionError(f"chaos client gave up: {failures[0]!r}")
    if wrong[0]:
        raise AssertionError(f"{wrong[0]} wrong answers under chaos")
    if respawned != [0]:
        raise AssertionError(f"supervisor respawned {respawned}, not [0]")
    return out


def run_scatter_microbench(n_requests: int = 256, repeats: int = 30) -> dict:
    """Per-flush result-scatter cost: PR 3's per-future Python loop
    (the "before") vs the shipped scatter (the "after"):
    :func:`~repro.serve.split_rows` into per-request outcomes, then each
    request's finish (the squeeze of a 1-D submission).

    Measures exactly the code that runs between the kernel returning
    and the clients' futures resolving, on the dominant serving shape
    (every pending request a single squeezed query) — the overhead that
    dominates flushes below ``d_hv`` ≈ 4k.
    """
    from repro.serve.scheduler import (
        MicroBatchScheduler,
        _Pending,
        _squeeze,
        split_rows,
    )

    result = np.arange(n_requests, dtype=np.int64)
    rows = np.zeros((1, 8))
    counts = np.ones(n_requests, dtype=np.intp)

    def make_batch():
        batch = []
        for _ in range(n_requests):
            p = _Pending(rows, 0.0, None, _squeeze)
            p.future.set_running_or_notify_cancel()
            batch.append(p)
        return batch

    def scatter_before(batch):
        start = 0
        for p in batch:
            k = p.rows.shape[0]
            out = result[start : start + k]
            start += k
            p.future.set_result(out[0] if p.finish is not None else out)

    def scatter_after(batch):
        outcomes = split_rows(result, counts)
        MicroBatchScheduler._finish(batch, outcomes)
        for p, out in zip(batch, outcomes):
            p.future.set_result(out)

    timings = {}
    for name, scatter in (("before", scatter_before), ("after", scatter_after)):
        batches = [make_batch() for _ in range(repeats)]
        best = float("inf")
        for batch in batches:
            t0 = time.perf_counter()
            scatter(batch)
            best = min(best, time.perf_counter() - t0)
        timings[name] = best * 1e6
    return {
        "n_requests": n_requests,
        "per_flush_us": timings,
        "speedup": timings["before"] / timings["after"],
    }


def run_backend_sweep(args) -> dict:
    """Per-backend offline scoring throughput on the serving workload.

    The same fixture and seed for every backend: each serves the query
    batch in its own wire format (floats for dense, bit planes for the
    packed-operand backends, the §III-C split) through an
    :class:`~repro.serve.InferenceEngine`, best of ``--repeats``, and
    predictions are checked identical across backends.  Native kernels
    are warmed before timing; when numba is absent the native entry is
    skipped (its fallback would re-measure packed) and
    ``numba_available`` records why.
    """
    import os

    from repro.backend.native import kernels_available, warm_kernels

    wanted = {
        "all": ["dense", "packed", "native"],
        "dense": ["dense"],
        "packed": ["packed"],
        "native": ["native"],
    }[args.backend]
    if not kernels_available() and "native" in wanted:
        wanted.remove("native")
    out = {
        "numba_available": kernels_available(),
        "cpu_count": os.cpu_count(),
        "by_backend": {},
    }
    identical = True
    reference = None
    model, queries = make_serving_fixture(
        args.dhv, args.n_queries, args.n_classes, args.seed
    )
    packed = pack_hypervectors(queries)
    if "native" in wanted:
        warm_kernels()  # JIT compilation must not count against the timings
    for name in wanted:
        wire = queries if name == "dense" else packed
        engine = InferenceEngine(model, backend=name)
        preds = engine.predict(wire)  # warm-up + correctness
        best = min(_timed(engine.predict, wire) for _ in range(args.repeats))
        out["by_backend"][name] = {
            "queries_per_s": args.n_queries / best,
            "seconds": best,
        }
        if reference is None:
            reference = preds
        elif not np.array_equal(reference, preds):
            identical = False
    out["identical_predictions"] = identical
    by = out["by_backend"]
    if "native" in by and "packed" in by:
        out["native_vs_packed"] = (
            by["native"]["queries_per_s"] / by["packed"]["queries_per_s"]
        )
    return out


def run_bench(args, workdir) -> dict:
    artifact, queries = _build_artifact(
        args.dhv, args.n_classes, args.n_queries, args.seed,
        pathlib.Path(workdir) / "v1",
    )
    engine = artifact.engine()

    # Round-trip guard: the loaded artifact must serve bit-identically
    # to an engine built from the in-memory model.
    model, _ = make_serving_fixture(
        d_hv=args.dhv, n_queries=args.n_queries,
        n_classes=args.n_classes, seed=args.seed,
    )
    from repro.serve import InferenceEngine

    direct = InferenceEngine(
        model, backend="packed", quantizer="bipolar"
    ).predict(queries)
    loaded_preds = engine.predict(queries)
    if not np.array_equal(loaded_preds, direct):
        raise AssertionError("artifact round-trip changed predictions")

    # Offline ceiling: one packed batch, best of repeats.
    offline_s = min(
        _timed(engine.predict, queries) for _ in range(args.repeats)
    )

    # Micro-batched concurrent serving.
    config = MicroBatchConfig(max_batch=args.max_batch)
    with ServingAPI.from_artifact(
        artifact, name="bench", config=config
    ) as server:
        results, latencies, failures, served_s = _drive_clients(
            server, queries, args.clients
        )
        stats = _scheduler_stats(server, "predict")

    if failures:
        raise AssertionError(f"{len(failures)} serving requests failed")
    if not np.array_equal(results, direct):
        raise AssertionError("micro-batched predictions diverged from offline")

    offline_qps = args.n_queries / offline_s
    served_qps = args.n_queries / served_s
    slowdown = offline_qps / served_qps

    # Hot swap under traffic, with a distinguishable second version.
    artifact_v2, _ = _build_artifact(
        args.dhv, args.n_classes, args.n_queries, args.seed + 1,
        pathlib.Path(workdir) / "v2",
    )
    hot_swap = run_hot_swap(artifact, artifact_v2, queries, args)

    lat_ms = latencies * 1e3
    report = {
        "bench": "serve",
        "config": {
            "d_hv": args.dhv,
            "n_classes": args.n_classes,
            "n_queries": args.n_queries,
            "clients": args.clients,
            "max_batch": args.max_batch,
            "repeats": args.repeats,
            "seed": args.seed,
            "transport": args.transport,
            "backend": args.backend,
        },
        "roundtrip_identical": True,
        "offline": {
            "seconds": offline_s,
            "queries_per_s": offline_qps,
        },
        "served": {
            "seconds": served_s,
            "queries_per_s": served_qps,
            "slowdown_vs_offline": slowdown,
            "within_2x_of_offline": slowdown <= 2.0,
            "latency_ms": {
                "p50": float(np.percentile(lat_ms, 50)),
                "p95": float(np.percentile(lat_ms, 95)),
                "max": float(lat_ms.max()),
            },
            "flushes": stats["flushes"],
            "mean_batch_rows": stats["mean_batch_rows"],
            "max_batch_rows": stats["max_batch_rows"],
            "flushes_by_trigger": stats["flushes_by_trigger"],
        },
        "hot_swap": hot_swap,
        "scatter": run_scatter_microbench(),
        "backends": run_backend_sweep(args),
    }
    if args.transport in ("socket", "both"):
        # Single-query frames: the v1 regime, the PR-4 baseline number.
        socket_report = run_socket_bench(artifact, queries, direct, args, 1)
        socket_report["vs_in_process"] = (
            socket_report["queries_per_s"] / served_qps
        )
        report["socket"] = socket_report
        # Batched wire: same logical workload, N queries per v2 frame.
        if args.wire_batch > 1:
            batched = run_socket_bench(
                artifact, queries, direct, args, args.wire_batch
            )
            batched["vs_in_process"] = batched["queries_per_s"] / served_qps
            batched["vs_single_query_wire"] = (
                batched["queries_per_s"] / socket_report["queries_per_s"]
            )
            report["socket_batched"] = batched
        if args.workers > 1:
            report["workers"] = run_worker_pool_bench(
                str(pathlib.Path(workdir) / "v1"), queries, direct, args
            )
    if args.wire_profile:
        report["wire_profile"] = run_wire_profile(
            artifact, queries, direct, args, served_qps
        )
    if args.overload:
        report["overload"] = run_overload_sweep(artifact, queries, args)
    if args.latency:
        report["latency"] = run_latency_ledger(
            args.dhv,
            rows=200 if args.smoke else 2000,
            batch_frames=16 if args.smoke else 256,
        )
    if args.chaos:
        import socket as _socket

        if hasattr(_socket, "SO_REUSEPORT"):
            report["chaos"] = run_chaos_pool(
                str(pathlib.Path(workdir) / "v1"), queries, direct, args
            )
        else:  # pragma: no cover - non-Linux
            report["chaos"] = {"skipped": "no SO_REUSEPORT on this host"}
    return report


def _timed(fn, arg) -> float:
    t0 = time.perf_counter()
    fn(arg)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dhv", type=int, default=10000)
    parser.add_argument("--n-classes", type=int, default=26)
    parser.add_argument("--n-queries", type=int, default=2000)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--transport",
        choices=("thread", "socket", "both"),
        default="thread",
        help=(
            "in-process client threads (thread), real TCP clients "
            "through the ServingFrontend (socket), or both"
        ),
    )
    parser.add_argument(
        "--socket-clients",
        type=int,
        default=8,
        help="concurrent TCP client connections in socket mode",
    )
    parser.add_argument(
        "--socket-window",
        type=int,
        default=4,
        help="pipelined in-flight requests per TCP connection",
    )
    parser.add_argument(
        "--wire-batch",
        type=int,
        default=32,
        help=(
            "logical requests stacked per v2 batch frame in "
            "the batched socket run (1 disables the batched run; the "
            "single-query v1-regime run always happens in socket mode)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help=(
            "SO_REUSEPORT acceptor processes in the WorkerPool run "
            "(1 disables it); aggregate vs single-worker throughput is "
            "recorded alongside the machine's cpu_count"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("dense", "packed", "native", "all"),
        default="all",
        help=(
            "offline scoring backend(s) to sweep; 'native' is the "
            "numba-compiled backend (skipped with a note when numba is "
            "absent)"
        ),
    )
    parser.add_argument(
        "--assert-native-speedup",
        type=float,
        default=None,
        help=(
            "exit non-zero unless native scoring reaches this multiple "
            "of the packed backend (the ISSUE bar is 3; requires numba)"
        ),
    )
    parser.add_argument(
        "--assert-wire-batch-speedup",
        type=float,
        default=None,
        help=(
            "exit non-zero unless the batched wire reaches this "
            "multiple of the single-query socket rate (the ISSUE bar "
            "is 2)"
        ),
    )
    parser.add_argument(
        "--assert-workers-speedup",
        type=float,
        default=None,
        help=(
            "exit non-zero unless the K-worker aggregate reaches this "
            "multiple of one worker (the ISSUE bar is 1.5 — only "
            "meaningful with >= workers cores; the report records "
            "cpu_count)"
        ),
    )
    parser.add_argument(
        "--assert-socket-within",
        type=float,
        default=None,
        help=(
            "exit non-zero unless socket throughput is within this "
            "factor of the in-process ServingAPI (2 = at least 0.5x)"
        ),
    )
    parser.add_argument(
        "--wire-profile",
        action="store_true",
        help=(
            "measure the zero-copy wire core: frames/s and "
            "bytes-copied-per-frame (from WireSession counters) for "
            "the v1 single-query socket path and the batched wire, "
            "each relative to the in-process server"
        ),
    )
    parser.add_argument(
        "--assert-wire-ratio",
        type=float,
        default=None,
        help=(
            "exit non-zero unless the v1 single-query socket path "
            "reaches this fraction of in-process throughput (the "
            "zero-copy rework bar is 0.8; needs --wire-profile)"
        ),
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help=(
            "sweep offered load from 0.5x to 4x of measured capacity "
            "and record goodput, shed rate, and p99 latency with and "
            "without admission control"
        ),
    )
    parser.add_argument(
        "--overload-multipliers",
        type=lambda s: tuple(float(x) for x in s.split(",")),
        default=(0.5, 1.0, 2.0, 4.0),
        help="offered-load multiples of capacity to sweep",
    )
    parser.add_argument(
        "--overload-duration",
        type=float,
        default=1.0,
        help="seconds of offered load per sweep point",
    )
    parser.add_argument(
        "--overload-rows",
        type=int,
        default=64,
        help="rows per request in the overload sweep",
    )
    parser.add_argument(
        "--latency",
        action="store_true",
        help=(
            "read the server's per-stage latency ledger after one-row "
            "v6 core and 32-row v2 batch socket traffic, assert the "
            "stages add up to the request time within 10%%, and write "
            "--latency-out"
        ),
    )
    parser.add_argument(
        "--latency-out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_latency.json"),
        help="where --latency writes its JSON report",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "kill one of two live pool workers under retrying client "
            "traffic and record the recovery-time report (asserts zero "
            "wrong answers and zero failed clients)"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: same assertions, completes in seconds",
    )
    parser.add_argument(
        "--assert-within",
        type=float,
        default=None,
        help=(
            "exit non-zero unless served throughput is within this "
            "factor of the offline packed batch"
        ),
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_serve.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        # d_hv % 64 != 0 on purpose: exercises the packed tail path.
        args.dhv, args.n_queries, args.clients = 1000, 512, 8
        args.repeats = 1
        args.socket_clients = min(args.socket_clients, 4)
        args.workers = min(args.workers, 2)
        args.overload_duration = min(args.overload_duration, 0.4)

    with tempfile.TemporaryDirectory() as workdir:
        report = run_bench(args, workdir)

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    if "latency" in report:
        args.latency_out.write_text(
            json.dumps({"bench": "latency", **report["latency"]}, indent=2)
            + "\n"
        )
    served = report["served"]
    print(
        f"offline packed batch: "
        f"{report['offline']['queries_per_s']:12,.0f} q/s"
    )
    print(
        f"micro-batched x{report['config']['clients']} clients: "
        f"{served['queries_per_s']:12,.0f} q/s "
        f"({served['slowdown_vs_offline']:.2f}x off the offline batch; "
        f"mean batch {served['mean_batch_rows']:.1f} rows)"
    )
    print(
        f"latency p50/p95/max: {served['latency_ms']['p50']:.2f}/"
        f"{served['latency_ms']['p95']:.2f}/"
        f"{served['latency_ms']['max']:.2f} ms"
    )
    hs = report["hot_swap"]
    print(
        f"hot swap: {hs['requests']} requests, "
        f"{hs['failed_requests']} failed, "
        f"v1-only {hs['served_by_v1_only']} / v2-only "
        f"{hs['served_by_v2_only']}, post-swap on v2: "
        f"{hs['post_swap_is_v2']}"
    )
    scatter = report["scatter"]
    print(
        f"result scatter ({scatter['n_requests']} single-row requests): "
        f"{scatter['per_flush_us']['before']:.1f} -> "
        f"{scatter['per_flush_us']['after']:.1f} us/flush "
        f"({scatter['speedup']:.2f}x)"
    )
    backends = report["backends"]
    for name, row in backends["by_backend"].items():
        print(
            f"offline backend {name:>6}: {row['queries_per_s']:12,.0f} q/s"
        )
    if "native_vs_packed" in backends:
        print(
            f"native speedup over packed: "
            f"{backends['native_vs_packed']:.2f}x (identical predictions: "
            f"{backends['identical_predictions']})"
        )
    elif not backends["numba_available"]:
        print("numba not installed: native backend entry skipped")
    if "socket" in report:
        sk = report["socket"]
        print(
            f"socket x{sk['clients']} TCP clients (single-query frames): "
            f"{sk['queries_per_s']:12,.0f} q/s "
            f"({sk['vs_in_process']:.2f}x the in-process server; "
            f"identical: {sk['identical_to_offline']})"
        )
    if "socket_batched" in report:
        sb = report["socket_batched"]
        print(
            f"socket batched wire (x{sb['wire_batch']} per frame):   "
            f"{sb['queries_per_s']:12,.0f} q/s "
            f"({sb['vs_single_query_wire']:.2f}x the single-query wire, "
            f"{sb['vs_in_process']:.2f}x in-process)"
        )
    if "wire_profile" in report:
        wp = report["wire_profile"]
        for label, mode in wp["modes"].items():
            print(
                f"wire profile {label}: {mode['queries_per_s']:12,.0f} q/s "
                f"({mode['vs_in_process']:.2f}x in-process), "
                f"{mode['frames_per_s']:,.0f} frames/s, copies/frame "
                f"tx {mode['tx_copied_bytes_per_frame']:.0f} B / "
                f"rx {mode['rx_copied_bytes_per_frame']:.0f} B"
            )
        for label, row in wp["codec_us_per_frame"].items():
            if isinstance(row, dict) and label != "bytes_per_row":
                print(f"codec {label} (us/frame): " + ", ".join(
                    f"{k[:-3]} {v:.1f}" for k, v in row.items()
                ))
        per_row = wp["codec_us_per_frame"]["bytes_per_row"]
        print(
            f"request bytes/row: v4 planes {per_row['v4_planes']:.0f}, "
            f"v5 live words {per_row['v5_live']:.0f}, "
            f"v6 core words {per_row['v6_core']:.0f}"
        )
        flush = wp["live_store_flush"]
        print(
            f"{flush['rows']}-row flush on a live-word store (us/row): "
            f"live words {flush['live_words_us_per_row']:.2f}, "
            f"planes {flush['planes_us_per_row']:.2f}, unmasked planes "
            f"{flush['unmasked_planes_us_per_row']:.2f}; on a core store: "
            f"core words {flush['core_words_us_per_row']:.2f}, live words "
            f"{flush['core_store_live_words_us_per_row']:.2f}"
        )
        print(
            "core parity over sockets: " + ", ".join(
                f"{k} {v}" for k, v in wp["core_parity"].items()
            )
        )
    if "workers" in report:
        wk = report["workers"]
        single = wk["by_workers"]["1"]["queries_per_s"]
        multi = wk["by_workers"][str(wk["workers_max"])]["queries_per_s"]
        print(
            f"worker pool: 1 worker {single:,.0f} q/s -> "
            f"{wk['workers_max']} workers {multi:,.0f} q/s "
            f"({wk['aggregate_speedup']:.2f}x aggregate on "
            f"{wk['cpu_count']} core(s))"
        )
    if "latency" in report:
        lat = report["latency"]
        for label in ("v6_core_single", "v2_batch_32", "v6_fleet_single"):
            leg = lat[label]
            print(
                f"ledger {label}: {leg['requests']} requests, p50 "
                f"{leg['request_us']['p50_us']:.0f} us, inline "
                f"{leg['inline_share']:.0%}, stages/request "
                f"{leg['stages_over_request']:.3f}; " + ", ".join(
                    f"{name} {row['p50_us']:.0f}"
                    for name, row in leg["stages"].items() if row["count"]
                )
            )
        print(
            f"ledger cost: {lat['ledger_us_per_request']:.2f} us/request "
            "in process"
        )
    if "overload" in report:
        ov = report["overload"]
        print(
            f"overload sweep (capacity {ov['capacity_rows_s']:,.0f} "
            f"rows/s, queue bound {ov['max_queue_rows']} rows):"
        )
        for entry in ov["sweep"]:
            adm, unb = entry["admission"], entry["unbounded"]
            print(
                f"  {entry['offered_x_capacity']:>4}x offered: "
                f"goodput {adm['goodput_rows_s']:,.0f} rows/s, "
                f"shed {adm['shed_rate']:.0%}, "
                f"p99 {adm['p99_ms']:.1f} ms with admission | "
                f"p99 {unb['p99_ms']:.1f} ms unbounded"
            )
    if "chaos" in report and "skipped" not in report["chaos"]:
        ch = report["chaos"]
        print(
            f"chaos: killed pid {ch['killed_pid']} under "
            f"{ch['clients']} retrying clients — fleet restored in "
            f"{ch['recovery_s'] * 1e3:.0f} ms, {ch['requests']} answers, "
            f"{ch['wrong_answers']} wrong, {ch['failed_clients']} failed "
            f"clients, {ch['client_retries']} retries / "
            f"{ch['client_reconnects']} reconnects"
        )
    print(f"wrote {args.out}")

    ok = (
        hs["zero_dropped"]
        and hs["answers_version_consistent"]
        and hs["post_swap_is_v2"]
    )
    if not ok:
        print("FAIL: hot swap dropped or corrupted requests", file=sys.stderr)
        return 1
    if not backends["identical_predictions"]:
        print("FAIL: backend predictions diverged", file=sys.stderr)
        return 1
    if args.assert_native_speedup is not None:
        got = backends.get("native_vs_packed")
        if got is None:
            print(
                "FAIL: --assert-native-speedup needs numba and both the "
                "native and packed backends in the sweep (--backend all)",
                file=sys.stderr,
            )
            return 1
        if got < args.assert_native_speedup:
            print(
                f"FAIL: native scoring {got:.2f}x the packed backend, "
                f"required {args.assert_native_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    if (
        args.assert_within is not None
        and served["slowdown_vs_offline"] > args.assert_within
    ):
        print(
            f"FAIL: served throughput {served['slowdown_vs_offline']:.2f}x "
            f"off offline, required within {args.assert_within}x",
            file=sys.stderr,
        )
        return 1
    if args.assert_socket_within is not None:
        if "socket" not in report:
            print(
                "FAIL: --assert-socket-within needs --transport "
                "socket/both",
                file=sys.stderr,
            )
            return 1
        if report["socket"]["vs_in_process"] < 1.0 / args.assert_socket_within:
            print(
                f"FAIL: socket throughput "
                f"{report['socket']['vs_in_process']:.2f}x the in-process "
                f"server, required at least "
                f"{1.0 / args.assert_socket_within:.2f}x",
                file=sys.stderr,
            )
            return 1
    if args.assert_wire_ratio is not None:
        if "wire_profile" not in report:
            print(
                "FAIL: --assert-wire-ratio needs --wire-profile",
                file=sys.stderr,
            )
            return 1
        got = report["wire_profile"]["v1_single_query_vs_in_process"]
        if got < args.assert_wire_ratio:
            print(
                f"FAIL: v1 single-query socket path {got:.2f}x the "
                f"in-process server, required {args.assert_wire_ratio:.2f}x",
                file=sys.stderr,
            )
            return 1
    if args.assert_wire_batch_speedup is not None:
        if "socket_batched" not in report:
            print(
                "FAIL: --assert-wire-batch-speedup needs --transport "
                "socket/both and --wire-batch > 1",
                file=sys.stderr,
            )
            return 1
        got = report["socket_batched"]["vs_single_query_wire"]
        if got < args.assert_wire_batch_speedup:
            print(
                f"FAIL: batched wire {got:.2f}x the single-query wire, "
                f"required {args.assert_wire_batch_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    if args.assert_workers_speedup is not None:
        if "workers" not in report:
            print(
                "FAIL: --assert-workers-speedup needs --transport "
                "socket/both and --workers > 1",
                file=sys.stderr,
            )
            return 1
        got = report["workers"]["aggregate_speedup"]
        if got < args.assert_workers_speedup:
            print(
                f"FAIL: {report['workers']['workers_max']}-worker "
                f"aggregate {got:.2f}x one worker, required "
                f"{args.assert_workers_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
