"""WorkerPool: SO_REUSEPORT fleet parity, hot swap under load, control ops.

These tests spawn real acceptor processes, so they keep the worker and
request counts small; the paper-scale numbers live in
``benchmarks/bench_serve.py --workers``.
"""

import socket
import threading

import numpy as np
import pytest

from repro.client import PriveHDClient
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import HDModel, ScalarBaseEncoder, get_quantizer
from repro.proto import PROTOCOL_VERSION
from repro.serve import ModelArtifact, WorkerPool
from repro.utils import spawn

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="WorkerPool needs SO_REUSEPORT",
)

D_IN, D_HV, N_CLASSES = 16, 500, 4


@pytest.fixture(scope="module")
def encoder():
    return ScalarBaseEncoder(D_IN, D_HV, seed=7)


@pytest.fixture(scope="module")
def task(encoder):
    rng = spawn(0, "pool-tests")
    X = rng.uniform(0, 1, (60, D_IN))
    y = rng.integers(0, N_CLASSES, 60)
    model = HDModel.from_encodings(encoder.encode(X), y, N_CLASSES)
    return X, y, model


@pytest.fixture(scope="module")
def artifact_v1(task, encoder):
    _, _, model = task
    return ModelArtifact.build(
        model, quantizer="bipolar", backend="packed", encoder=encoder
    )


@pytest.fixture(scope="module")
def artifact_v2(encoder):
    rng = spawn(9, "pool-v2")
    store = get_quantizer("bipolar")(rng.normal(size=(N_CLASSES, D_HV)))
    return ModelArtifact.build(
        HDModel(N_CLASSES, D_HV, store),
        quantizer="bipolar",
        backend="packed",
        encoder=encoder,
    )


@pytest.fixture(scope="module")
def saved(tmp_path_factory, artifact_v1, artifact_v2):
    root = tmp_path_factory.mktemp("pool-artifacts")
    return (
        artifact_v1.save(root / "v1"),
        artifact_v2.save(root / "v2"),
    )


@pytest.fixture(scope="module")
def pool(saved):
    v1_dir, _ = saved
    with WorkerPool(v1_dir, name="pool", workers=2) as pool:
        yield pool


class TestFleetServing:
    def test_ping_reports_distinct_pids(self, pool):
        pids = pool.ping()
        assert len(pids) == 2 and len(set(pids)) == 2

    def test_predictions_match_offline(self, pool, task, encoder, artifact_v1):
        X, _, _ = task
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        offline = artifact_v1.engine().predict(
            obf.prepare_packed(X).unpack(np.float32)
        )
        with PriveHDClient(pool.address, encoder=encoder) as client:
            np.testing.assert_array_equal(
                client.predict_many(X, chunk_size=16), offline
            )

    def test_many_connections_spread_and_agree(
        self, pool, task, encoder, artifact_v1
    ):
        """Several concurrent connections all get correct answers; the
        kernel is free to place them on either worker."""
        X, _, _ = task
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        offline = artifact_v1.engine().predict(
            obf.prepare_packed(X).unpack(np.float32)
        )
        failures = []

        def worker():
            try:
                with PriveHDClient(pool.address, encoder=encoder) as client:
                    preds = client.predict_many(X, chunk_size=8)
                if not np.array_equal(preds, offline):
                    raise AssertionError("fleet answer diverged")
            except Exception as exc:  # noqa: BLE001 — collected
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures[0]

    def test_stats_cover_every_worker(self, pool):
        stats = pool.stats()
        assert len(stats) == 2
        assert all("connections_served" in s for s in stats)


class TestFleetHotSwap:
    def test_hot_swap_under_load_zero_drops(
        self, saved, task, encoder, artifact_v1, artifact_v2
    ):
        """Broadcast-promote a new version while clients hammer every
        worker: zero failed requests, every answer version-consistent,
        all post-swap answers from v2."""
        v1_dir, v2_dir = saved
        X, _, _ = task
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        packed = obf.prepare_packed(X)
        dense = packed.unpack(np.float32)
        v1_preds = artifact_v1.engine().predict(dense)
        v2_preds = artifact_v2.engine().predict(dense)
        assert not np.array_equal(v1_preds, v2_preds)  # distinguishable

        with WorkerPool(v1_dir, name="swap", workers=2) as pool:
            stop = threading.Event()
            failures: list[Exception] = []
            answers: list[np.ndarray] = []

            def hammer():
                try:
                    with PriveHDClient(pool.address) as client:
                        while not stop.is_set():
                            answers.append(client.predict_encoded(packed))
                except Exception as exc:  # noqa: BLE001 — collected
                    failures.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            version = pool.load(v2_dir)  # fleet-wide swap mid-traffic
            assert version == 2
            # After the broadcast returns, every worker has promoted:
            # all *new* requests must answer from v2.
            with PriveHDClient(pool.address) as client:
                post_swap = client.predict_encoded(packed)
            stop.set()
            for t in threads:
                t.join()

        assert not failures, f"requests dropped during swap: {failures[0]!r}"
        assert len(answers) > 0
        for preds in answers:
            assert np.array_equal(preds, v1_preds) or np.array_equal(
                preds, v2_preds
            ), "a batch mixed versions"
        np.testing.assert_array_equal(post_swap, v2_preds)

    def test_rollback_promote(self, saved, task, encoder, artifact_v1):
        v1_dir, v2_dir = saved
        X, _, _ = task
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        packed = obf.prepare_packed(X[:8])
        v1_preds = artifact_v1.engine().predict(packed.unpack(np.float32))
        with WorkerPool(v1_dir, name="rb", workers=2) as pool:
            pool.load(v2_dir)
            pool.promote(1)  # roll the whole fleet back
            with PriveHDClient(pool.address) as client:
                np.testing.assert_array_equal(
                    client.predict_encoded(packed), v1_preds
                )
                assert client.model_info().version == 1

    def test_partial_failure_is_loud(self, pool):
        with pytest.raises(RuntimeError, match="load failed|failed on"):
            pool.load("/nonexistent/artifact-dir")


class TestPoolLifecycle:
    def test_stop_is_idempotent_and_releases_port(self, saved):
        v1_dir, _ = saved
        pool = WorkerPool(v1_dir, name="lc", workers=1)
        address = pool.address
        pool.stop()
        pool.stop()  # idempotent
        with pytest.raises(RuntimeError, match="stopped"):
            pool.ping()
        # The port is free again.
        probe = socket.socket()
        try:
            probe.bind(address)
        finally:
            probe.close()

    def test_bad_artifact_fails_fast(self, tmp_path):
        with pytest.raises(RuntimeError, match="failed to start"):
            WorkerPool(tmp_path / "missing", workers=1, start_timeout_s=30)

    def test_workers_must_be_positive(self, saved):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(saved[0], workers=0)


class TestMultiTenantPool:
    """A WorkerPool serving a fleet directory: every worker runs its
    own :class:`~repro.serve.ModelFleet` over the same artifact subdirs
    (one page-cache copy via mmap), and tenant-scoped control ops
    broadcast over the existing pipe."""

    @pytest.fixture(scope="class")
    def fleet_dir(self, tmp_path_factory, artifact_v1, artifact_v2):
        root = tmp_path_factory.mktemp("pool-fleet")
        artifact_v1.save(root / "alice")
        artifact_v2.save(root / "bob")
        return root

    @pytest.fixture(scope="class")
    def fleet_pool(self, fleet_dir):
        with WorkerPool(fleet_dir=fleet_dir, workers=2) as pool:
            yield pool

    def test_exactly_one_of_artifact_or_fleet_dir(self, saved, fleet_dir):
        with pytest.raises(ValueError, match="exactly one"):
            WorkerPool(saved[0], fleet_dir=fleet_dir)
        with pytest.raises(ValueError, match="exactly one"):
            WorkerPool()

    def test_tenants_answer_from_their_own_models(
        self, fleet_pool, task, encoder, artifact_v1, artifact_v2
    ):
        X, _, _ = task
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        dense = obf.prepare_packed(X).unpack(np.float32)
        for tenant, artifact in (("alice", artifact_v1), ("bob", artifact_v2)):
            offline = artifact.engine().predict(dense)
            with PriveHDClient(
                fleet_pool.address, encoder=encoder, tenant=tenant
            ) as client:
                assert client.protocol_version == PROTOCOL_VERSION
                np.testing.assert_array_equal(client.predict(X), offline)

    def test_add_tenant_broadcasts_to_every_worker(
        self, fleet_pool, fleet_dir, task, encoder, artifact_v2
    ):
        X, _, _ = task
        carol_dir = artifact_v2.save(fleet_dir / "carol")
        fleet_pool.add_tenant("carol", carol_dir)
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        offline = artifact_v2.engine().predict(
            obf.prepare_packed(X).unpack(np.float32)
        )
        # Several connections so the kernel spreads them over workers:
        # every worker must know the new tenant.
        for _ in range(4):
            with PriveHDClient(
                fleet_pool.address, encoder=encoder, tenant="carol"
            ) as client:
                np.testing.assert_array_equal(client.predict(X), offline)

    def test_single_artifact_pool_takes_new_tenants(
        self, saved, task, encoder, artifact_v2
    ):
        """A single-artifact pool serves a fleet of one, so add_tenant
        works there too."""
        X, _, _ = task
        v1_dir, v2_dir = saved
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        offline = artifact_v2.engine().predict(
            obf.prepare_packed(X).unpack(np.float32)
        )
        with WorkerPool(v1_dir, name="solo", workers=1) as pool:
            pool.add_tenant("carol", v2_dir)
            with PriveHDClient(
                pool.address, encoder=encoder, tenant="carol"
            ) as client:
                np.testing.assert_array_equal(client.predict(X), offline)

    def test_tenant_scoped_hot_swap(
        self, fleet_pool, saved, task, encoder, artifact_v2
    ):
        """load/promote with tenant= swaps one namespace fleet-wide and
        leaves the other tenants untouched."""
        X, _, _ = task
        _, v2_dir = saved
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        dense = obf.prepare_packed(X).unpack(np.float32)
        before_bob = artifact_v2.engine().predict(dense)

        fleet_pool.load(v2_dir, tenant="alice")
        swapped = artifact_v2.engine().predict(dense)
        with PriveHDClient(
            fleet_pool.address, encoder=encoder, tenant="alice"
        ) as client:
            np.testing.assert_array_equal(client.predict(X), swapped)
        with PriveHDClient(
            fleet_pool.address, encoder=encoder, tenant="bob"
        ) as client:
            np.testing.assert_array_equal(client.predict(X), before_bob)

    def test_unknown_tenant_refused_on_every_worker(
        self, fleet_pool, encoder
    ):
        from repro.serve import TenantNotFound

        for _ in range(3):
            with pytest.raises(TenantNotFound):
                PriveHDClient(
                    fleet_pool.address, encoder=encoder, tenant="mallory"
                )
