"""The three workloads: set-up, seeded inputs, offline reference, timed phase.

``edge_features``
    One edge device calls ``PriveHDClient.predict(x)`` in a closed loop,
    one row per call, on one connection.  Client-side encode → quantize
    /mask → pack dominates while the server idles, so client encoder
    work shows here and server-side work should move nothing.
``gateway_batched``
    An aggregator streams already-obfuscated packed rows with
    ``predict_encoded_many(window=8, wire_batch=32)`` in a closed loop on
    one connection.  Encoding is bypassed; the server's frame decode,
    micro-batcher, packed kernel and reply path are the bottleneck.
``fleet_zipf``
    Closed loop: calls of 16 single-row v4 frames, 8 in flight on one
    connection, to a Zipf-skewed tenant population served by ``serve
    --fleet-dir --cache-bytes`` with a budget below the working set.
    The only workload that runs the fleet cache (admit, evict, verified
    reload) and the fused cross-tenant kernel; calls queue behind reloads.
    (An open loop was tried first: at the same offered load its p95 read
    2-4x apart between identical runs on a 2-vCPU VM, far past any bound.)

Every run does a fixed amount of work, ``--seconds`` times a
per-workload constant, so both commits of a comparison compute every
percentile from the same number of samples.
"""

from __future__ import annotations

import contextlib
import socket
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import harness
from harness import BenchError, PhaseMeter, ServerProcess

#: latency samples per run = --seconds × this (edge requests, gateway
#: and fleet calls).  45 × 20 = 900: p95 is the highest percentile with
#: at least 10 samples beyond it, and the reported tail.
SAMPLES_PER_S = 45
#: gateway: one call = one fixed group of WINDOW frames of WIRE_BATCH rows
WINDOW = 8
WIRE_BATCH = 32
GROUP_ROWS = WINDOW * WIRE_BATCH
#: distinct obfuscated rows the gateway and fleet draw their queries from
POOL_ROWS = 64
#: fleet: one call = FLEET_GROUP single-row frames to Zipf tenants with
#: FLEET_WINDOW in flight; population, skew and a cache budget of about
#: half the tenants (~12% of frames miss: calls queue behind reloads)
FLEET_GROUP = 16
FLEET_WINDOW = 8
FLEET_TENANTS = 256
FLEET_PROTOTYPES = 4
FLEET_ZIPF_S = 1.1
FLEET_CACHE_BYTES = 8_400_000
REPLY_TIMEOUT_S = 30.0


@dataclass
class Setup:
    """One set-up, from an empty directory to the first correct reply."""

    tmp: Path
    server: ServerProcess
    client: object
    phases: dict

    @property
    def total_s(self) -> float:
        return sum(self.phases.values())


@dataclass
class Phase:
    """What one timed phase measured (every request is one row)."""

    latencies_ms: list
    rows_ok: int
    attempted: int
    meter: PhaseMeter

    @property
    def failed(self) -> int:
        return self.attempted - self.rows_ok


class Workload:
    name = ""
    n_models = 1

    def __init__(self, seed: int, seconds: int, deadline: float):
        self.seconds = seconds
        #: perf_counter time past which a run gives up (exit != 0)
        self.deadline = deadline
        self.rng = np.random.default_rng(seed)
        self.artifacts = None

    def make_inputs(self) -> None:
        """Seeded queries, made once per run before any set-up is timed.

        The query-side encoder is rebuilt from the same seeds as the one
        inside the artifacts, as an edge device would from the manifest.
        """
        self.data = harness.load_data()
        self.encoder = harness.make_encoder(self.data)

    # -- set-up -----------------------------------------------------------
    def build(self, tmp: Path) -> list[str]:
        """Train + save the artifact(s); return the ``serve`` arguments."""
        self.artifacts = harness.build_artifacts(self.n_models)
        path = self.artifacts[0].save(tmp / "model")
        return [str(path)]

    def set_up(self, launcher=None) -> Setup:
        tmp = harness.make_tmp_dir(f"{self.name}-")
        t0 = time.perf_counter()
        serve_args = self.build(tmp)
        t1 = time.perf_counter()
        server = ServerProcess(serve_args, launcher=launcher)
        try:
            server.wait_listening()
            t2 = time.perf_counter()
            client = self.connect(server.address)
            t3 = time.perf_counter()
            reply = self.warmup(client)
            t4 = time.perf_counter()
            self.check_warmup(reply)
        except BaseException:
            server.stop()
            raise
        return Setup(tmp, server, client, {
            "build_s": t1 - t0,
            "spawn_to_listen_s": t2 - t1,
            "connect_s": t3 - t2,
            "warmup_s": t4 - t3,
        })

    def tear_down(self, setup: Setup) -> None:
        try:
            self.close_client(setup.client)
        finally:
            setup.server.stop()
            harness.remove_tree(setup.tmp)

    def connect(self, address):
        from repro.client import PriveHDClient

        return PriveHDClient(address, timeout=REPLY_TIMEOUT_S)

    def close_client(self, client) -> None:
        client.close()

    def client_counters(self, client) -> dict:
        return {"retries": client.retries, "reconnects": client.reconnects}

    # -- reference, timed phase -------------------------------------------
    def reference(self) -> None:
        """Offline answers for every query, from the served artifact(s)."""
        raise NotImplementedError

    def warmup(self, client):
        raise NotImplementedError

    def check_warmup(self, reply) -> None:
        raise NotImplementedError

    def prelude(self, setup: Setup) -> None:
        """Untimed preparation right before the timed phase."""

    def run(self, setup: Setup, recorder=None) -> Phase:
        raise NotImplementedError

    def check_deadline(self, now: float) -> None:
        if now > self.deadline:
            raise BenchError("the run exceeded its time budget")

    def make_pool(self) -> None:
        """POOL_ROWS seeded, obfuscated (quantized, masked, packed) rows."""
        X = harness.query_rows(self.data, self.rng, POOL_ROWS)
        self.pool = harness.obfuscator_for(self.encoder).prepare_packed(X)
        self.rows = [self.pool[j:j + 1] for j in range(POOL_ROWS)]


def _span(recorder, name):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


class EdgeFeatures(Workload):
    name = "edge_features"

    def connect(self, address):
        from repro.client import PriveHDClient
        from repro.core.inference_privacy import ObfuscationConfig

        # The edge device holds the encoder config from the deployment's
        # manifest; the mask comes from the server's ModelInfo mask_seed.
        return PriveHDClient(
            address,
            encoder=self.artifacts[0].encoder_config,
            obfuscation=ObfuscationConfig(quantizer="bipolar"),
            timeout=REPLY_TIMEOUT_S,
        )

    def make_inputs(self) -> None:
        super().make_inputs()
        self.warm_x = harness.query_rows(self.data, self.rng, 1)
        self.X = harness.query_rows(self.data, self.rng,
                                    self.seconds * SAMPLES_PER_S)

    def warmup(self, client):
        return client.predict(self.warm_x)

    def check_warmup(self, reply) -> None:
        want = self.artifacts[0].engine().predict_features(self.warm_x)
        if not np.array_equal(np.asarray(reply), want):
            raise BenchError(f"warm-up reply {reply} != offline {want}")

    def reference(self) -> None:
        self.ref = self.artifacts[0].engine().predict_features(self.X)

    def run(self, setup: Setup, recorder=None) -> Phase:
        client, X, ref = setup.client, self.X, self.ref
        n = len(X)
        lat = np.zeros(n)
        ok = np.zeros(n, dtype=bool)
        with PhaseMeter(setup.server) as meter:
            for i in range(n):
                t0 = time.perf_counter()
                self.check_deadline(t0)
                try:
                    with _span(recorder, "request"):
                        pred = client.predict(X[i:i + 1])
                    ok[i] = pred.shape == (1,) and pred[0] == ref[i]
                except Exception:  # noqa: BLE001 — a failed request, counted
                    ok[i] = False
                lat[i] = (time.perf_counter() - t0) * 1e3
        n_ok = int(ok.sum())
        return Phase(lat.tolist(), n_ok, n, meter)


class GatewayBatched(Workload):
    name = "gateway_batched"

    def make_inputs(self) -> None:
        super().make_inputs()
        self.make_pool()
        n_calls = self.seconds * SAMPLES_PER_S
        self.groups = self.rng.integers(0, POOL_ROWS, size=(n_calls, GROUP_ROWS))

    def warmup(self, client):
        return client.predict_encoded_many(self.rows[:1], window=WINDOW,
                                           wire_batch=WIRE_BATCH)

    def check_warmup(self, reply) -> None:
        want = self.artifacts[0].engine().predict(self.rows[0])
        if len(reply) != 1 or not np.array_equal(reply[0], want):
            raise BenchError(f"warm-up reply {reply} != offline {want}")

    def reference(self) -> None:
        self.pool_ref = self.artifacts[0].engine().predict(self.pool)

    def run(self, setup: Setup, recorder=None) -> Phase:
        client, rows, ref = setup.client, self.rows, self.pool_ref
        n_calls = len(self.groups)
        lat = np.zeros(n_calls)
        n_ok = 0
        with PhaseMeter(setup.server) as meter:
            for c in range(n_calls):
                idx = self.groups[c]
                batch = [rows[j] for j in idx]
                t0 = time.perf_counter()
                self.check_deadline(t0)
                try:
                    with _span(recorder, "request"):
                        preds = client.predict_encoded_many(
                            batch, window=WINDOW, wire_batch=WIRE_BATCH)
                    got = np.concatenate(preds)
                    if got.shape == idx.shape:
                        n_ok += int(np.sum(got == ref[idx]))
                except Exception:  # noqa: BLE001 — the call's rows failed
                    pass
                lat[c] = (time.perf_counter() - t0) * 1e3
        return Phase(lat.tolist(), n_ok, n_calls * GROUP_ROWS, meter)


class FleetConnection:
    """A v4 protocol connection built from the public ``repro.proto`` classes."""

    def __init__(self, address):
        import repro.proto as proto

        self.proto = proto
        self.sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.session = proto.WireSession("client")
        versions = tuple(proto.SUPPORTED_VERSIONS)
        self.send(proto.Hello(versions=versions), version=min(versions))
        welcome = self.read()
        if not isinstance(welcome, proto.Welcome) or welcome.version < 4:
            raise BenchError(f"expected a v4 Welcome, got {welcome!r}")
        self.session.adopt_version(welcome.version)

    def send(self, message, *, version=None) -> None:
        self.proto.sendmsg_all(self.sock, self.session.send_parts(message, version=version))

    def read(self):
        while True:
            frame = self.session.next_frame()
            if frame is not None:
                return self.proto.decode_message(frame)
            n = self.sock.recv_into(self.session.recv_buffer())
            if n == 0:
                raise ConnectionError("server closed the connection")
            self.session.commit(n)

    def close(self) -> None:
        self.sock.close()


class FleetZipf(Workload):
    name = "fleet_zipf"
    n_models = FLEET_PROTOTYPES

    def build(self, tmp: Path) -> list[str]:
        """Save a few prototypes; tenants are symlinks to them.

        The manifests carry no encoder config: a fleet host scores
        pre-encoded queries only, and with one each admission would
        rebuild the tenant's level-base codebooks (~30 ms, ~6 MB each).
        """
        self.artifacts = harness.build_artifacts(self.n_models, with_encoder=False)
        protos = [a.save(tmp / "prototypes" / f"p{k}")
                  for k, a in enumerate(self.artifacts)]
        fleet = tmp / "fleet"
        fleet.mkdir()
        self.tenants = [f"t{i:04d}" for i in range(FLEET_TENANTS)]
        for i, name in enumerate(self.tenants):
            (fleet / name).symlink_to(protos[i % FLEET_PROTOTYPES].resolve(),
                                      target_is_directory=True)
        return ["--fleet-dir", str(fleet), "--cache-bytes", str(FLEET_CACHE_BYTES)]

    def connect(self, address):
        return FleetConnection(address)

    def client_counters(self, client) -> dict:
        return {"retries": 0, "reconnects": 0}

    def warmup(self, conn):
        from repro.proto import ScoreRequest

        conn.send(ScoreRequest(queries=self.rows[0], tenant=self.tenants[0],
                               request_id=1))
        return conn.read()

    def check_warmup(self, reply) -> None:
        want = self.artifacts[0].engine().predict(self.rows[0])
        got = getattr(reply, "predictions", None)
        if got is None or not np.array_equal(got, want):
            raise BenchError(f"warm-up reply {reply!r} != offline {want}")

    def reference(self) -> None:
        self.proto_ref = np.stack([a.engine().predict(self.pool) for a in self.artifacts])

    def make_inputs(self) -> None:
        super().make_inputs()
        self.make_pool()
        n = self.seconds * SAMPLES_PER_S * FLEET_GROUP
        # Every run sends each tenant its exact Zipf quota of frames, in
        # seeded order: the cache sees the same popularity on every seed,
        # so miss counts vary with the order only, not with sampling noise.
        p = np.arange(1, FLEET_TENANTS + 1, dtype=float) ** -FLEET_ZIPF_S
        quota = np.floor(p / p.sum() * n).astype(int)
        quota[: n - quota.sum()] += 1
        self.by_rank = self.rng.permutation(FLEET_TENANTS)
        self.tenant_of = self.rng.permutation(np.repeat(self.by_rank, quota))
        self.row_of = self.rng.integers(0, POOL_ROWS, size=n)

    def prelude(self, setup: Setup) -> None:
        """Score every tenant once, least popular first (untimed).

        Leaves the most popular tenants resident, close to the cache's
        steady state, so the timed phase measures steady-state misses
        rather than a cold start.
        """
        from repro.proto import ScoreRequest

        conn = setup.client
        rid = 2  # the set-up warm-up used request id 1
        for k, tenant in enumerate(self.by_rank[::-1]):
            conn.send(ScoreRequest(queries=self.rows[k % POOL_ROWS],
                                   tenant=self.tenants[tenant], request_id=rid))
            reply = conn.read()
            want = self.proto_ref[tenant % FLEET_PROTOTYPES, k % POOL_ROWS]
            got = getattr(reply, "predictions", None)
            if getattr(reply, "request_id", None) != rid or got is None or list(got) != [want]:
                raise BenchError(f"cache-fill reply {reply!r} != offline {want}")
            rid += 1
        self.next_rid = rid

    def score_group(self, conn, frames: np.ndarray, rid0: int) -> dict:
        """One call: single-row v4 frames, FLEET_WINDOW in flight."""
        from repro.proto import ScoreRequest

        replies: dict = {}
        sent = 0
        while len(replies) < len(frames):
            while sent < len(frames) and sent - len(replies) < FLEET_WINDOW:
                f = frames[sent]
                conn.send(ScoreRequest(queries=self.rows[self.row_of[f]],
                                       tenant=self.tenants[self.tenant_of[f]],
                                       request_id=rid0 + sent))
                sent += 1
            msg = conn.read()
            replies[msg.request_id - rid0] = msg
        return replies

    def run(self, setup: Setup, recorder=None) -> Phase:
        from repro.proto import ScoreResponse

        conn = setup.client
        groups = np.arange(len(self.tenant_of)).reshape(-1, FLEET_GROUP)
        want = self.proto_ref[self.tenant_of % FLEET_PROTOTYPES, self.row_of]
        rid = self.next_rid
        lat = np.zeros(len(groups))
        n_ok = 0
        with PhaseMeter(setup.server) as meter:
            for c, frames in enumerate(groups):
                t0 = time.perf_counter()
                self.check_deadline(t0)
                try:
                    with _span(recorder, "request"):
                        replies = self.score_group(conn, frames, rid)
                except OSError as exc:
                    raise BenchError(f"fleet connection failed: {exc!r}") from exc
                lat[c] = (time.perf_counter() - t0) * 1e3
                for k, f in enumerate(frames):
                    msg = replies.get(k)
                    n_ok += (isinstance(msg, ScoreResponse)
                             and list(msg.predictions) == [want[f]])
                rid += FLEET_GROUP
        n = len(self.tenant_of)
        return Phase(lat.tolist(), n_ok, n, meter)

    def close_client(self, conn) -> None:
        conn.close()


WORKLOADS = {w.name: w for w in (EdgeFeatures, GatewayBatched, FleetZipf)}
