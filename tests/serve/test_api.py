"""ServingAPI: the one typed surface over registry + micro-batcher."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.backend.native import NativeBackend
from repro.backend.packed import LiveHV, PackedHV, pack_hypervectors
from repro.obs import RequestRecord
from repro.hd import HDModel, get_quantizer
from repro.proto import ModelInfo, ScoreRequest, ScoreResponse
from repro.serve import (
    MicroBatchConfig,
    ModelArtifact,
    ModelFleet,
    ModelRegistry,
    DeadlineExceeded,
    ServingAPI,
)
from repro.utils import spawn


def _artifact(seed=0, d_hv=300, n_classes=4, backend="packed", **kwargs):
    rng = spawn(seed, "api-tests")
    store = get_quantizer("bipolar")(rng.normal(size=(n_classes, d_hv)))
    model = HDModel(n_classes, d_hv, store)
    return ModelArtifact.build(
        model, quantizer="bipolar", backend=backend, **kwargs
    )


def _queries(n=16, d_hv=300, seed=1):
    rng = spawn(seed, "api-queries")
    return get_quantizer("bipolar")(rng.normal(size=(n, d_hv))).astype(
        np.float32
    )


class TestConstruction:
    def test_from_artifact_object(self):
        with ServingAPI.from_artifact(_artifact(), name="m") as api:
            assert api.default_model == "m"
            assert api.registry.names() == ("m",)

    def test_from_artifact_path(self, tmp_path):
        _artifact().save(tmp_path / "a")
        with ServingAPI.from_artifact(tmp_path / "a") as api:
            assert api.predict(_queries()[0:1]).shape == (1,)

    def test_wraps_existing_registry(self):
        registry = ModelRegistry()
        registry.publish("x", _artifact())
        fleet = ModelFleet()
        fleet.add_tenant("x", registry, model="x")
        with ServingAPI(fleet) as api:
            assert api.registry is registry


class TestTypedScoring:
    def test_score_matches_engine_predict(self):
        artifact = _artifact()
        queries = _queries()
        direct = artifact.engine().predict(queries)
        with ServingAPI.from_artifact(artifact, name="m") as api:
            resp = api.score(ScoreRequest(queries=queries, request_id=5))
            assert isinstance(resp, ScoreResponse)
            assert resp.request_id == 5
            assert resp.model == "m"
            assert resp.version == 1
            assert resp.scores is None
            np.testing.assert_array_equal(resp.predictions, direct)

    def test_score_packed_queries_identical_to_dense(self):
        artifact = _artifact()
        queries = _queries()
        with ServingAPI.from_artifact(artifact, name="m") as api:
            dense = api.score(ScoreRequest(queries=queries))
            packed = api.score(
                ScoreRequest(queries=pack_hypervectors(queries))
            )
            np.testing.assert_array_equal(
                dense.predictions, packed.predictions
            )

    def test_packed_queries_against_dense_backend(self):
        artifact = _artifact(backend="dense")
        queries = _queries()
        direct = artifact.engine().predict(queries)
        with ServingAPI.from_artifact(artifact, name="m") as api:
            resp = api.score(
                ScoreRequest(queries=pack_hypervectors(queries))
            )
            np.testing.assert_array_equal(resp.predictions, direct)

    def test_want_scores_returns_full_matrix(self):
        artifact = _artifact()
        queries = _queries()
        expected = artifact.engine().scores(queries)
        with ServingAPI.from_artifact(artifact, name="m") as api:
            resp = api.score(
                ScoreRequest(queries=queries, want_scores=True)
            )
            np.testing.assert_array_equal(resp.scores, expected)
            np.testing.assert_array_equal(
                resp.predictions, np.argmax(expected, axis=1)
            )

    def test_dimension_mismatch_raises_value_error(self):
        with ServingAPI.from_artifact(_artifact(), name="m") as api:
            with pytest.raises(ValueError, match="dimensions"):
                api.score(ScoreRequest(queries=np.zeros((2, 17))))

    def test_unknown_model_raises_key_error(self):
        with ServingAPI.from_artifact(_artifact(), name="m") as api:
            with pytest.raises(KeyError):
                api.score(
                    ScoreRequest(queries=_queries(), model="ghost")
                )

    def test_response_version_tracks_hot_swap(self):
        with ServingAPI.from_artifact(_artifact(0), name="m") as api:
            assert api.score(ScoreRequest(queries=_queries())).version == 1
            api.registry.publish("m", _artifact(1))
            assert api.score(ScoreRequest(queries=_queries())).version == 2

    def test_response_version_is_the_flushing_version(self):
        """A promote landing between submit and flush must be reflected
        in the response's version label — the label names the version
        that actually scored, not the one current at submit."""
        import threading

        artifact_v1, artifact_v2 = _artifact(0), _artifact(1)
        with ServingAPI.from_artifact(artifact_v1, name="m") as api:
            release = threading.Event()
            blocked = threading.Event()
            # Stall the flusher inside its registry resolution so
            # requests queue up while we promote a new version.
            original_describe = api.registry.describe

            def slow_describe(name, version=None):
                # Stall only the flusher's resolution — submit_score's
                # own validation describe must stay fast.
                if "flusher" in threading.current_thread().name:
                    blocked.set()
                    release.wait(timeout=10.0)
                return original_describe(name, version)

            api.registry.describe = slow_describe
            try:
                first = api.submit_score(ScoreRequest(queries=_queries()))
                assert blocked.wait(timeout=10.0)
                second = api.submit_score(ScoreRequest(queries=_queries()))
                api.registry.publish("m", artifact_v2)
                release.set()
                # Both flushes resolve after the promote, so both are
                # scored by — and must be labeled with — version 2.
                assert first.result(timeout=10.0).version == 2
                assert second.result(timeout=10.0).version == 2
            finally:
                api.registry.describe = original_describe
                release.set()


class TestPackedFlushes:
    @pytest.mark.parametrize(
        "support,shape", [("on", LiveHV), ("off", PackedHV)]
    )
    def test_native_tenant_flush_stays_packed(
        self, monkeypatch, support, shape
    ):
        """A native-backend tenant is a packed-operand engine too: its
        flush hands the kernel live words (rows on its support) or the
        rebuilt planes (rows off it), never floats."""
        seen = []
        original = NativeBackend.prepare_queries

        def spy(self, queries):
            seen.append(type(queries))
            return original(self, queries)

        monkeypatch.setattr(NativeBackend, "prepare_queries", spy)
        keep = np.ones(300, dtype=bool)
        keep[spawn(6, "api-native-mask").permutation(300)[:120]] = False
        artifact = _artifact(backend="native", keep_mask=keep)
        queries = pack_hypervectors(_queries() * (keep if support == "on" else 1))
        with ServingAPI.from_artifact(artifact, name="m") as api:
            got = api.score(ScoreRequest(queries=queries, want_scores=True))
        assert seen and set(seen) == {shape}
        offline = artifact.engine()
        np.testing.assert_array_equal(got.scores, offline.scores(queries))
        np.testing.assert_array_equal(
            got.predictions,
            offline.predict(queries.unpack(np.float32)),
        )


class TestInfoAndOps:
    def test_info_reflects_artifact(self):
        rng = spawn(5, "api-mask")
        keep = np.ones(300, dtype=bool)
        keep[rng.permutation(300)[:100]] = False
        artifact = _artifact(keep_mask=keep)
        with ServingAPI.from_artifact(artifact, name="m") as api:
            info = api.info()
            assert isinstance(info, ModelInfo)
            assert info.name == "m"
            assert (info.n_classes, info.d_hv) == (4, 300)
            assert info.n_live_dims == 200
            assert info.is_pruned
            assert info.backend == "packed"
            assert info.query_quantizer == "bipolar"
            assert np.isinf(info.epsilon)

    def test_health_and_models_and_stats_are_json_safe(self):
        import json

        with ServingAPI.from_artifact(_artifact(), name="m") as api:
            api.predict(_queries()[0])
            health = api.health()
            assert health["status"] == "ok"
            models = api.models()
            assert models["m"]["current_version"] == 1
            stats = api.stats()
            assert stats["schedulers"]["tenant.m.m.predict"]["completed"] == 1
            json.dumps([health, models, stats])  # must not raise


class TestMicroBatchingPreserved:
    def test_concurrent_callers_coalesce(self):
        import threading

        artifact = _artifact()
        queries = _queries(n=64)
        direct = artifact.engine().predict(queries)
        config = MicroBatchConfig(max_batch=64)
        with ServingAPI.from_artifact(
            artifact, name="m", config=config
        ) as api:
            out = np.full(64, -1, dtype=np.int64)

            def worker(w):
                for i in range(w, 64, 8):
                    out[i] = api.predict(queries[i])

            threads = [
                threading.Thread(target=worker, args=(w,)) for w in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            np.testing.assert_array_equal(out, direct)
            stats = api.stats()["schedulers"]["tenant.m.m.predict"]
            assert stats["completed"] == 64
            assert stats["flushes"] <= 64


def _lone(request_id=1):
    """A ledger record the frontend opens for a request found alone."""
    return RequestRecord(request_id, time.monotonic_ns(), True)


class TestRunToCompletion:
    """``submit_score`` with the frontend's record runs an idle
    scheduler's request on the calling thread."""

    def test_lone_request_resolves_before_submit_returns(self):
        artifact = _artifact()
        packed = pack_hypervectors(_queries(n=1))
        with ServingAPI.from_artifact(artifact, name="m") as api:
            future = api.submit_score(
                ScoreRequest(queries=packed), _record=_lone()
            )
            assert future.done()
            np.testing.assert_array_equal(
                future.result().predictions, artifact.engine().predict(packed)
            )
            (stats,) = api.stats()["schedulers"].values()
            (sched,) = api._schedulers.values()
            assert stats["flushes_by_trigger"]["eager"] == 1
            assert stats["submitted"] == stats["completed"] == 1
            assert not sched._started
            # without the record, the same request queues as before
            queued = api.submit_score(ScoreRequest(queries=packed))
            assert queued.result(timeout=10.0).version == 1
            assert sched._started

    def test_expired_deadline_still_raises_at_submit(self):
        packed = pack_hypervectors(_queries(n=1))
        with ServingAPI.from_artifact(_artifact(), name="m") as api:
            with pytest.raises(DeadlineExceeded):
                api.submit_score(
                    ScoreRequest(queries=packed),
                    deadline=time.monotonic() - 1.0,
                    _record=_lone(),
                )
            (stats,) = api.stats()["schedulers"].values()
            assert stats["expired"] == 1 and stats["flushes"] == 0

    def test_publish_racing_inline_requests_answers_one_version_each(self):
        """Every answer names a version the registry served and equals
        that version's engine, inline or queued."""
        artifacts = [_artifact(seed) for seed in range(3)]
        queries = _queries(n=8)
        packed = [pack_hypervectors(queries[i : i + 1]) for i in range(8)]
        engines = {1: artifacts[0].engine()}
        swaps = [artifacts[n % 3].engine() for n in range(1, 13)]
        answers, errors = [], []
        go = threading.Event()
        with ServingAPI.from_artifact(artifacts[0], name="m") as api:

            def submitter(k):
                try:
                    go.wait()
                    for i in range(k, 240, 3):
                        future = api.submit_score(
                            ScoreRequest(queries=packed[i % 8]),
                            _record=_lone(i),
                        )
                        answers.append((i % 8, future.result(timeout=10.0)))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=submitter, args=(k,))
                for k in range(3)
            ]
            for t in threads:
                t.start()
            old_interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                go.set()
                for n, engine in enumerate(swaps):  # one every ~20 answers
                    while len(answers) < 20 * n and not errors:
                        time.sleep(0.001)
                    engines[api.registry.publish("m", engine)] = engine
                for t in threads:
                    t.join(timeout=30.0)
            finally:
                sys.setswitchinterval(old_interval)
            assert not any(t.is_alive() for t in threads)
            stages = api.ledger.snapshot()
            (stats,) = api.stats()["schedulers"].values()
        assert not errors, errors
        assert len(answers) == 240
        # inline and queued runs share one accounting step: no lost update
        assert stats["submitted"] == stats["completed"] == 240
        assert sum(stats["flushes_by_trigger"].values()) == stats["flushes"]
        assert len({r.version for _, r in answers}) > 1
        for i, response in answers:
            assert response.version in engines
            np.testing.assert_array_equal(
                response.predictions,
                engines[response.version].predict(packed[i]),
            )
        # no reply was written, so nothing reached the ledger
        assert stages["request"]["count"] == 0
