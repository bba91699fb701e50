"""ServingAPI over one artifact: micro-batched serving + hot swap."""

import threading

import numpy as np
import pytest

from repro.client import PriveHDClient
from repro.core.inference_privacy import ObfuscationConfig
from repro.hd import HDModel, ScalarBaseEncoder, get_quantizer
from repro.serve import (
    FrontendHandle,
    MicroBatchConfig,
    ModelArtifact,
    ModelFleet,
    ModelRegistry,
    ServingAPI,
)
from tests.conftest import make_cluster_task
from repro.utils import spawn


@pytest.fixture(scope="module")
def system():
    X, y = make_cluster_task(n=160, d_in=24, n_classes=4, seed=21)
    enc = ScalarBaseEncoder(24, 900, seed=2)  # 900: packed tail exercised
    q = get_quantizer("bipolar")
    model = HDModel.from_encodings(q(enc.encode(X)), y, 4)
    art = ModelArtifact.build(
        model, quantizer="bipolar", backend="packed", encoder=enc
    )
    H = q(enc.encode(X))
    return art, X, H


def _over_registry(registry, **kwargs):
    """A ServingAPI over one tenant wrapping ``registry``, no default model."""
    fleet = ModelFleet()
    fleet.add_tenant("t", registry, model=None)
    return ServingAPI(fleet, **kwargs)


class TestServing:
    def test_predictions_match_direct_engine(self, system):
        art, X, H = system
        direct = art.engine().predict(H)
        with ServingAPI.from_artifact(art, name="m") as server:
            single = np.array([server.predict(H[i]) for i in range(20)])
            batch = server.predict(H[:20])
        np.testing.assert_array_equal(single, direct[:20])
        np.testing.assert_array_equal(batch, direct[:20])

    def test_client_encoded_features_match_offline(self, system):
        """Raw features are encoded on the client; the server, which
        holds no codebooks, answers what the offline engine does."""
        art, X, _ = system
        direct = art.engine().predict_features(X[:30])
        with ServingAPI.from_artifact(art, name="m") as server, \
                FrontendHandle(server) as handle, PriveHDClient(
                    handle.address, encoder=art.encoder_config,
                    obfuscation=ObfuscationConfig(quantizer="bipolar"),
                ) as client:
            single = np.concatenate([client.predict(X[i]) for i in range(10)])
            batch = client.predict(X[:30])
            assert server.registry.resolve("m").encode_pipeline is None
        np.testing.assert_array_equal(single, direct[:10])
        np.testing.assert_array_equal(batch, direct)

    def test_scores_entry_point(self, system):
        art, _, H = system
        with ServingAPI.from_artifact(art, name="m") as server:
            np.testing.assert_array_equal(
                server.scores(H[:5]), art.engine().scores(H[:5])
            )

    def test_concurrent_clients_identical_to_offline(self, system):
        art, _, H = system
        n = H.shape[0]
        direct = art.engine().predict(H)
        results = np.full(n, -1, dtype=np.int64)
        config = MicroBatchConfig(max_batch=32)
        with ServingAPI.from_artifact(art, name="m", config=config) as server:

            def client(w):
                for i in range(w, n, 8):
                    results[i] = server.predict(H[i])

            threads = [
                threading.Thread(target=client, args=(w,)) for w in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()["schedulers"]["tenant.m.m.predict"]
        np.testing.assert_array_equal(results, direct)
        assert stats["completed"] == n
        assert stats["failed"] == 0

    def test_single_model_is_implicit_default(self, system):
        art, _, H = system
        with _over_registry(ModelRegistry()) as server:
            server.registry.publish("only", art)
            assert server.predict(H[0]) == art.engine().predict(H[:1])[0]

    def test_ambiguous_default_raises(self, system):
        art, _, H = system
        with _over_registry(ModelRegistry()) as server:
            server.registry.publish("a", art)
            server.registry.publish("b", art)
            with pytest.raises(ValueError, match="no default"):
                server.predict(H[0])


class TestHotSwap:
    def test_zero_dropped_requests_during_promotion(self, system):
        art, X, H = system
        rng = spawn(9, "swap-v2")
        store2 = get_quantizer("bipolar")(rng.normal(size=(4, 900)))
        art2 = ModelArtifact.build(
            HDModel(4, 900, store2), quantizer="bipolar", backend="packed"
        )
        d1 = art.engine().predict(H)
        d2 = art2.engine().predict(H)

        n = H.shape[0]
        results = np.full(n, -1, dtype=np.int64)
        failures = []
        swapped = threading.Event()

        with ServingAPI.from_artifact(art, name="m") as server:
            registry = server.registry

            def client(w):
                for i in range(w, n, 8):
                    try:
                        results[i] = server.predict(H[i])
                    except Exception as exc:  # noqa: BLE001
                        failures.append(exc)
                    if i > n // 2 and not swapped.is_set():
                        swapped.set()
                        registry.publish("m", art2)

            threads = [
                threading.Thread(target=client, args=(w,)) for w in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            post = server.predict(H[:4])

        assert not failures
        assert np.all((results == d1) | (results == d2))
        np.testing.assert_array_equal(post, d2[:4])

    def test_current_artifact_tracks_promotion(self, system):
        art, _, _ = system
        with ServingAPI.from_artifact(art, name="m") as server:
            assert server.registry.describe("m").artifact is art

    def test_closed_server_rejects_requests(self, system):
        art, _, H = system
        server = ServingAPI.from_artifact(art, name="m")
        server.predict(H[0])
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.predict(H[0])
