"""Fault-injection chaos suite: overload, dropped replies, worker death.

The acceptance bar for the robustness work: a 4x overload burst sheds
with typed errors while accepted traffic keeps bounded latency and
near-capacity goodput; a killed worker under live traffic produces zero
wrong answers and a supervisor-restored fleet.  Faults come from
:mod:`repro.serve.faults` (counter-based, deterministic) — not from
random sleeps.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.client import PriveHDClient, ServerError
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import HDModel, LevelBaseEncoder, ScalarBaseEncoder, get_quantizer
from repro.proto import ScoreRequest
from repro.serve import (
    FrontendHandle,
    MicroBatchConfig,
    MicroBatchScheduler,
    ModelArtifact,
    Overloaded,
    ServingAPI,
    WorkerLost,
    WorkerPool,
    faults,
)
from repro.serve.faults import InjectedFault
from repro.utils import spawn
from tests.serve.runners import per_request

D_IN, D_HV, N_CLASSES = 16, 500, 4


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def encoder():
    return ScalarBaseEncoder(D_IN, D_HV, seed=11)


@pytest.fixture(scope="module")
def task(encoder):
    rng = spawn(0, "chaos-tests")
    X = rng.uniform(0, 1, (40, D_IN))
    y = rng.integers(0, N_CLASSES, 40)
    model = HDModel.from_encodings(encoder.encode(X), y, N_CLASSES)
    return X, y, model


@pytest.fixture(scope="module")
def artifact(task, encoder):
    _, _, model = task
    return ModelArtifact.build(
        model, quantizer="bipolar", backend="packed", encoder=encoder
    )


@pytest.fixture(scope="module")
def artifact_v2(encoder):
    rng = spawn(5, "chaos-v2")
    store = get_quantizer("bipolar")(rng.normal(size=(N_CLASSES, D_HV)))
    return ModelArtifact.build(
        HDModel(N_CLASSES, D_HV, store),
        quantizer="bipolar",
        backend="packed",
        encoder=encoder,
    )


@pytest.fixture(scope="module")
def packed_queries(task, encoder):
    X, _, _ = task
    obf = InferenceObfuscator(encoder, ObfuscationConfig())
    return obf.prepare_packed(X[:4])


@pytest.fixture(scope="module")
def packed_one(task, encoder):
    obf = InferenceObfuscator(encoder, ObfuscationConfig())
    return obf.prepare_packed(task[0][:1])


class TestOverloadBurst:
    """The core SLO: shed typed, keep accepted traffic fast and flowing."""

    S_PER_ROW = 0.0005  # the runner's simulated cost: 2000 rows/s capacity

    def test_burst_sheds_typed_keeps_goodput_and_p99(self):
        capacity_rows_s = 1.0 / self.S_PER_ROW

        @per_request
        def runner(batch):
            batch = np.asarray(batch)
            time.sleep(self.S_PER_ROW * batch.shape[0])
            return batch

        config = MicroBatchConfig(max_batch=16, max_queue_rows=16)
        clients, per_client = 8, 100  # 800 rows ≈ 0.4 s at capacity,
        # offered by 8 unpaced clients — a sustained >4x burst
        latencies: list[float] = []
        rejections = [0]
        lock = threading.Lock()
        start = threading.Event()

        def reap(inflight, budget):
            """Wait out queued futures until at most ``budget`` remain."""
            while len(inflight) > budget:
                t0, row, f = inflight.pop(0)
                out = f.result(timeout=30.0)
                with lock:
                    latencies.append(time.monotonic() - t0)
                np.testing.assert_array_equal(out, row)

        def client(worker):
            # Open-loop burst: each client keeps a window of requests in
            # flight, so the 8 clients together offer ~4x the queue
            # bound continuously.
            start.wait()
            inflight = []
            for i in range(per_client):
                row = np.full((1, 2), float(worker * per_client + i))
                while True:
                    try:
                        t0 = time.monotonic()  # accepted-request latency
                        f = sched.submit(row)
                    except Overloaded as exc:
                        with lock:
                            rejections[0] += 1
                        time.sleep(exc.retry_after_ms / 1e3)
                        continue
                    break
                inflight.append((t0, row, f))
                reap(inflight, budget=8)
            reap(inflight, budget=0)

        with MicroBatchScheduler(runner, config) as sched:
            threads = [
                threading.Thread(target=client, args=(w,))
                for w in range(clients)
            ]
            for t in threads:
                t.start()
            t0 = time.monotonic()
            start.set()
            for t in threads:
                t.join()
            elapsed = time.monotonic() - t0
            stats = sched.stats

        total_rows = clients * per_client
        goodput = total_rows / elapsed
        # The burst actually overloaded the scheduler, and every
        # rejection was the typed kind (counted by both sides).
        assert rejections[0] > 0
        assert stats.rejected == rejections[0]
        assert stats.completed == total_rows
        # Goodput within 20% of nominal capacity: admission control
        # sheds the excess instead of melting down.
        assert goodput >= 0.8 * capacity_rows_s, (
            f"goodput {goodput:.0f} rows/s vs capacity "
            f"{capacity_rows_s:.0f}"
        )
        # Accepted-request latency stays bounded by the queue bound
        # (16 rows at 0.5 ms/row ≈ 8 ms drain) — not by the burst size.
        # The p99 bound below is ~20x that drain time; without
        # admission control the queue would grow to seconds.
        latencies.sort()
        p99 = latencies[int(0.99 * len(latencies))]
        assert p99 < 0.25, f"p99 {p99 * 1e3:.1f} ms"


class TestWireFaults:
    """Typed overload/deadline codes and client self-healing, on sockets."""

    @pytest.fixture()
    def served(self, artifact):
        # max_batch=1 serializes flushes so a stalled flush provably
        # leaves later requests in the (tightly bounded) queue.
        api = ServingAPI.from_artifact(
            artifact,
            name="demo",
            config=MicroBatchConfig(max_batch=1, max_queue_rows=2),
        )
        with FrontendHandle(api) as handle:
            yield api, handle
        api.close()

    def test_overload_surfaces_with_retry_after(
        self, served, packed_queries
    ):
        _, handle = served
        faults.arm("scheduler.flush:stall,delay_ms=700,times=1")
        with PriveHDClient(handle.address) as client:
            with pytest.raises(ServerError) as excinfo:
                # 6 pipelined requests: one stalls in-flush, two fit the
                # queue bound, the rest must be shed.
                client.predict_encoded_many([packed_queries] * 6, window=6)
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retryable
            assert excinfo.value.reply.retry_after_ms >= 1

    def test_client_retries_through_overload(self, served, packed_queries):
        _, handle = served
        faults.arm("scheduler.flush:stall,delay_ms=400,times=1")
        with PriveHDClient(
            handle.address, max_retries=8, backoff_jitter=0.0
        ) as client:
            outs = client.predict_encoded_many([packed_queries] * 6, window=6)
        assert len(outs) == 6
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])
        assert client.retries > 0  # the overload really happened

    def test_deadline_exceeded_surfaces_typed(self, served, packed_one):
        _, handle = served
        faults.arm("scheduler.flush:stall,delay_ms=400,times=1")
        with PriveHDClient(handle.address, deadline_ms=50) as client:
            with pytest.raises(ServerError) as excinfo:
                # Request 1 rides the stalled flush; request 2 (one
                # row, well inside the queue bound) sits queued past
                # its 50 ms deadline and must be dropped, not scored
                # late.
                client.predict_encoded_many([packed_one] * 2, window=2)
            assert excinfo.value.code == "deadline-exceeded"
            assert not excinfo.value.retryable

    def test_dropped_reply_heals_by_reconnect(
        self, served, artifact, packed_queries
    ):
        _, handle = served
        expected = artifact.engine().predict(
            packed_queries.unpack(np.float32)
        )
        faults.arm("frontend.reply:drop,times=1")
        with PriveHDClient(
            handle.address, timeout=0.5, max_retries=2, backoff_base_s=0.01
        ) as client:
            out = client.predict_encoded(packed_queries)
        np.testing.assert_array_equal(out, expected)
        assert client.reconnects == 1  # healed a genuinely eaten reply


class TestStallOffTheLoop:
    def test_stalled_lone_request_leaves_the_loop_serving(
        self, artifact, packed_one
    ):
        """A lone request is offered to the loop, but its flush stalls:
        the stall goes to the flusher with the request, so another
        connection's ModelInfoRequest is answered meanwhile."""
        expected = artifact.engine().predict(packed_one.unpack(np.float32))
        faults.arm("scheduler.flush:stall,delay_ms=700,times=1")
        api = ServingAPI.from_artifact(artifact, name="demo")
        try:
            with FrontendHandle(api) as handle:
                out = {}

                def stalled():
                    with PriveHDClient(handle.address) as client:
                        out["predictions"] = client.predict_encoded(packed_one)

                waiter = threading.Thread(target=stalled)
                waiter.start()
                deadline = time.monotonic() + 10.0
                while not api.stats()["schedulers"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                with PriveHDClient(handle.address) as client:
                    t0 = time.monotonic()
                    info = client.model_info()
                    elapsed = time.monotonic() - t0
                assert waiter.is_alive()  # still held by the stall
                waiter.join(timeout=10.0)
            stages = api.stats()["stages"]
        finally:
            api.close()
        assert info.name == "demo"
        assert elapsed < 0.5
        np.testing.assert_array_equal(out["predictions"], expected)
        assert (stages["inline"], stages["queued"]) == (0, 1)
        assert stages["queue_wait"]["p50_us"] >= 600_000


class TestFlushErrorFault:
    def test_an_error_fails_its_batch_and_the_flusher_serves_on(
        self, artifact, packed_queries
    ):
        """An ``error`` rule at ``scheduler.flush`` fails the batch it
        hits; the API's flusher lives on and serves its other queue."""
        expected = artifact.engine().predict(
            packed_queries.unpack(np.float32)
        )
        before = {t for t in threading.enumerate() if "flusher" in t.name}
        faults.arm("scheduler.flush:error,times=1")
        with ServingAPI.from_artifact(artifact, name="demo") as api:
            doomed = api.submit_score(ScoreRequest(queries=packed_queries))
            with pytest.raises(InjectedFault):
                doomed.result(timeout=10.0)
            scored = api.submit_score(
                ScoreRequest(queries=packed_queries, want_scores=True)
            )
            np.testing.assert_array_equal(
                scored.result(timeout=10.0).predictions, expected
            )
            (flusher,) = {
                t for t in threading.enumerate() if "flusher" in t.name
            } - before
            assert flusher.is_alive()
            stats = api.stats()["schedulers"]
        assert len(stats) == 2
        assert [s["failed"] for s in stats.values()] == [len(expected), 0]


class _LosesTheReRead(PriveHDClient):
    """Loses its connection once, inside the ModelInfo re-read that
    follows a core refusal, once ``lose_reread`` is set."""

    lose_reread = False

    def model_info(self, model=None):
        if self.lose_reread:
            self.lose_reread = False
            self._sock.shutdown(socket.SHUT_RDWR)
        return super().model_info(model)


class TestCoreRefusalRetryBudget:
    """The ModelInfo re-read after a core refusal is its own exchange
    with its own attempt budget: a connection lost there is final at
    ``max_retries=0`` on every entry point, never a silent reconnect."""

    @pytest.fixture()
    def republished(self, task):
        X, y, _ = task
        encoder = LevelBaseEncoder(D_IN, D_HV, seed=4)
        model = HDModel.from_encodings(encoder.encode(X), y, N_CLASSES)
        api = ServingAPI.from_artifact(
            ModelArtifact.build(
                model, quantizer="bipolar", backend="packed", encoder=encoder
            ),
            name="demo",
        )
        with FrontendHandle(api) as handle:
            client = _LosesTheReRead(handle.address, encoder=encoder)
            with client:
                assert client._wire_words() == "core"
                # The same store, republished without the core.
                api.registry.publish("demo", ModelArtifact.build(
                    model, quantizer="bipolar", backend="packed"
                ))
                client.lose_reread = True
                yield client, X[:4]
        api.close()

    @pytest.mark.parametrize("call", [
        lambda client, X: client.predict(X),
        lambda client, X: client.predict_encoded_many(
            [client.obfuscator.prepare_packed(X)], wire_batch=2
        ),
        lambda client, X: client.predict_many(X, chunk_size=2),
    ], ids=["predict", "predict_encoded_many", "predict_many"])
    def test_a_lost_reread_is_final(self, republished, call):
        client, X = republished
        with pytest.raises(ConnectionError):
            call(client, X)
        assert client.reconnects == 0


@pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="WorkerPool needs SO_REUSEPORT",
)
class TestFleetChaos:
    """Worker death: typed, bounded, supervised, and invisible to answers."""

    @pytest.fixture()
    def saved(self, tmp_path_factory, artifact, artifact_v2):
        root = tmp_path_factory.mktemp("chaos-artifacts")
        return artifact.save(root / "v1"), artifact_v2.save(root / "v2")

    def test_dead_worker_is_typed_not_a_hang(self, saved):
        v1_dir, _ = saved
        with WorkerPool(v1_dir, name="chaos", workers=2) as pool:
            pool.kill_worker(0)
            t0 = time.monotonic()
            with pytest.raises(WorkerLost) as excinfo:
                pool.ping(timeout_s=2.0)
            assert time.monotonic() - t0 < 10.0  # bounded, not forever
            assert excinfo.value.workers == (0,)
            assert pool.supervise_once() == [0]
            assert pool.restarts == 1
            pids = pool.ping()
            assert len(pids) == 2 and len(set(pids)) == 2

    def test_hung_worker_detected_and_replaced(self, saved):
        v1_dir, _ = saved
        with WorkerPool(
            v1_dir, name="hung", workers=2, ping_timeout_s=0.3
        ) as pool:
            # Worker 0's next control command wedges its event loop for
            # 3 s — alive by exit code, dead by ping.
            pool.inject("worker.control:stall,delay_ms=3000,times=1", worker=0)
            assert pool.supervise_once(ping=True) == [0]
            assert pool.restarts == 1
            assert len(pool.ping()) == 2

    def test_crash_mid_swap_converges_after_respawn(self, saved):
        v1_dir, v2_dir = saved
        with WorkerPool(v1_dir, name="midswap", workers=2) as pool:
            # Worker 0 dies the instant the load broadcast reaches it —
            # a crash mid-hot-swap.
            pool.inject("worker.control:crash", worker=0)
            with pytest.raises(WorkerLost):
                pool.load(v2_dir)
            assert pool.supervise_once() == [0]
            # The respawned worker replayed the recorded load: the whole
            # fleet owns version 2, so a fleet-wide promote(2) succeeds
            # (a fresh, un-replayed worker would only have version 1).
            pool.promote(2)
            pool.promote(1)  # and the original version is intact fleet-wide

    def test_kill_under_live_traffic_zero_wrong_answers(
        self, saved, artifact, packed_queries
    ):
        v1_dir, _ = saved
        expected = artifact.engine().predict(
            packed_queries.unpack(np.float32)
        )
        with WorkerPool(v1_dir, name="livekill", workers=2) as pool:
            stop = threading.Event()
            failures: list[Exception] = []
            answers: list[np.ndarray] = []
            count = [0]
            lock = threading.Lock()

            def hammer():
                try:
                    with PriveHDClient(
                        pool.address,
                        max_retries=6,
                        backoff_base_s=0.02,
                        timeout=10.0,
                    ) as client:
                        while not stop.is_set():
                            preds = client.predict_encoded(packed_queries)
                            with lock:
                                answers.append(preds)
                                count[0] += 1
                except Exception as exc:  # noqa: BLE001 — collected
                    failures.append(exc)

            def wait_for(n, deadline_s=30.0):
                deadline = time.monotonic() + deadline_s
                while time.monotonic() < deadline:
                    with lock:
                        if count[0] >= n:
                            return
                    time.sleep(0.005)
                pytest.fail(f"traffic stalled before reaching {n} answers")

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for t in threads:
                t.start()
            wait_for(10)  # live traffic established on both workers
            pool.kill_worker(0)
            killed_at = count[0]
            assert pool.supervise_once() == [0]
            wait_for(killed_at + 30)  # traffic flowed on through the kill
            stop.set()
            for t in threads:
                t.join()
            assert pool.restarts == 1
            assert len(pool.ping()) == 2

        assert not failures, f"a client gave up: {failures[0]!r}"
        for preds in answers:  # zero wrong answers, ever
            np.testing.assert_array_equal(preds, expected)
