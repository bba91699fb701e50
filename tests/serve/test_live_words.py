"""Protocol v5 live words, end to end: sockets, engines, fleet, files.

A §III-C client ships only the sign bits of the live dimensions and the
server scores them against a class store compacted to the same words.
Every answer must equal the v4 planes answer on the same queries, old
peers must keep talking planes, and a live payload the server cannot
place must be refused with a typed error, never scored.
"""

import hashlib
import json
import socket

import numpy as np
import pytest

from repro.attacks.wire import CaptureProxy, WireTrace
from repro.backend.packed import (
    LiveHV,
    LiveStore,
    PackedHV,
    pack_hypervectors,
    packed_norms,
)
from repro.client import PriveHDClient
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import HDModel, LevelBaseEncoder
from repro.hd.prune import mask_from_seed
from repro.proto import (
    HEADER_SIZE,
    ErrorReply,
    Hello,
    ScoreRequest,
    ScoreResponse,
    Welcome,
    decode_header,
    decode_message,
    encode_message,
)
from repro.proto.wire import FrameType, encode_frame
from repro.serve import (
    FrontendHandle,
    MicroBatchConfig,
    ModelArtifact,
    ModelFleet,
    ModelRegistry,
    ServingAPI,
    fused_tenant_scores,
)
from repro.utils import spawn

D_IN, D_HV, N_CLASSES, N_MASKED = 12, 700, 5, 300


@pytest.fixture(scope="module")
def encoder():
    return LevelBaseEncoder(D_IN, D_HV, seed=4)


def _artifact(encoder, mask_seed, *, seed=0, backend="packed"):
    rng = spawn(seed, "live-words-model")
    X = rng.uniform(0, 1, (40, D_IN))
    y = rng.integers(0, N_CLASSES, 40)
    model = HDModel.from_encodings(encoder.encode(X), y, N_CLASSES)
    keep = None if mask_seed is None else mask_from_seed(D_HV, N_MASKED, mask_seed)
    return ModelArtifact.build(
        model, quantizer="bipolar", backend=backend, encoder=encoder,
        keep_mask=keep, mask_seed=mask_seed,
    )


def _obfuscator(encoder, mask_seed):
    n_masked = 0 if mask_seed is None else N_MASKED
    return InferenceObfuscator(
        encoder,
        ObfuscationConfig(n_masked=n_masked, mask_seed=mask_seed or 0),
    )


def _X(n=24, seed=1):
    return spawn(seed, "live-words-x").uniform(0, 1, (n, D_IN))


def _planes(rows: PackedHV) -> PackedHV:
    return PackedHV(signs=rows.signs, mags=rows.mags, d=rows.d)


class TestStores:
    @pytest.mark.parametrize("mask_seed", [None, 7])
    def test_build_and_load_hold_live_words_with_unchanged_files(
        self, encoder, tmp_path, mask_seed
    ):
        art = _artifact(encoder, mask_seed)
        assert isinstance(art.store, LiveStore)
        n_live = D_HV - (0 if mask_seed is None else N_MASKED)
        assert art.store.n_live == n_live
        core = art.store.core  # built with the encoder: it holds a core
        assert core.nbytes == N_CLASSES * (-(-core.n_live // 64) + 1) * 8 + 11 * 8
        assert art.store_nbytes == (
            N_CLASSES * (-(-n_live // 64)) * 8 + 11 * 8 + core.nbytes
        )
        # The files hold the planes, hashed as before.
        planes = pack_hypervectors(art.class_hvs)
        path = art.save(tmp_path / "a")
        tensors = json.loads((path / "manifest.json").read_text())["tensors"]
        for name in ("signs", "mags"):
            want = hashlib.sha256(getattr(planes, name).tobytes()).hexdigest()
            assert tensors[name]["sha256"] == want
        loaded = ModelArtifact.load(path)
        assert isinstance(loaded.store, LiveStore)
        np.testing.assert_array_equal(loaded.store.words, art.store.words)
        np.testing.assert_array_equal(loaded.class_hvs, art.class_hvs)


class TestEngineParity:
    @pytest.mark.parametrize("backend", ["packed", "native", "dense"])
    @pytest.mark.parametrize("mask_seed", [None, 7])
    def test_live_words_score_like_planes(self, encoder, backend, mask_seed):
        art = _artifact(encoder, mask_seed)
        engine = art.engine(backend=backend)
        rows = _obfuscator(encoder, mask_seed).prepare_packed(_X())
        want = engine.scores(_planes(rows))
        np.testing.assert_array_equal(engine.scores(rows.live), want)
        np.testing.assert_array_equal(engine.scores(rows), want)
        np.testing.assert_array_equal(
            engine.predict(rows.live), art.engine().predict_features(_X())
        )

    def test_live_words_on_another_support_are_refused(self, encoder):
        engine = _artifact(encoder, 7).engine()
        rows = _obfuscator(encoder, 8).prepare_packed(_X(3))
        with pytest.raises(ValueError, match="keep mask"):
            engine.scores(rows.live)

    def test_a_store_off_the_support_places_live_words(self, encoder):
        """A ternary store has no shared support: live words are placed
        on the model's keep mask and take the general formula."""
        rng = spawn(3, "ternary-store")
        keep = mask_from_seed(D_HV, N_MASKED, 7)
        store = rng.choice([-1.0, 0.0, 1.0], size=(N_CLASSES, D_HV)) * keep
        art = ModelArtifact(store=store, backend="packed", keep_mask=keep, mask_seed=7)
        assert isinstance(art.store, PackedHV)
        engine = art.engine()
        rows = _obfuscator(encoder, 7).prepare_packed(_X())
        np.testing.assert_array_equal(
            engine.scores(rows.live), engine.scores(_planes(rows))
        )


class TestFusedFleet:
    SEEDS = (7, 8, 9)  # one n_live, three different keep masks

    def test_fused_live_words_match_per_tenant_planes(self, encoder):
        arts = [_artifact(encoder, s, seed=i) for i, s in enumerate(self.SEEDS)]
        rows = [_obfuscator(encoder, s).prepare_packed(_X(6, seed=i))
                for i, s in enumerate(self.SEEDS)]
        t = np.repeat(np.arange(3), 6)
        words = np.concatenate([r.live.words for r in rows])
        stores = [a.store for a in arts]
        norms = np.stack([packed_norms(s) for s in stores])
        live = fused_tenant_scores(words, stores, norms, t)
        for u, (art, r) in enumerate(zip(arts, rows)):
            np.testing.assert_array_equal(
                live[t == u], art.engine().scores(_planes(r))
            )

    @pytest.mark.parametrize("kind", ["live", "planes", "mixed"])
    def test_mixed_tenant_flush_through_the_api(self, encoder, kind):
        """Every tenant's rows meet in one flush, whether they arrive as
        v5 live words, v4 planes, or (``mixed``) one request of each."""
        fleet = ModelFleet()
        arts = {}
        for i, s in enumerate(self.SEEDS):
            arts[f"t{i}"] = _artifact(encoder, s, seed=i)
            fleet.add_tenant(f"t{i}", arts[f"t{i}"])
        n = 4
        shapes = {"live": ["live"], "planes": ["planes"]}.get(
            kind, ["planes", "live"]
        )
        config = MicroBatchConfig(
            max_batch=3 * n * len(shapes), eager=False, max_delay_s=5.0
        )
        with ServingAPI(fleet, config=config) as api:
            futures, want = [], []
            for i, s in enumerate(self.SEEDS):
                for j, shape in enumerate(shapes):
                    X = _X(n, seed=10 * i + j)
                    rows = _obfuscator(encoder, s).prepare_packed(X)
                    queries = rows.live if shape == "live" else _planes(rows)
                    futures.append(api.submit_score(ScoreRequest(
                        queries=queries, tenant=f"t{i}", want_scores=True
                    )))
                    want.append(arts[f"t{i}"].engine().scores(_planes(rows)))
            for future, expect in zip(futures, want):
                np.testing.assert_array_equal(future.result(10).scores, expect)
            stats = api.stats()["schedulers"]
            assert [s["flushes"] for s in stats.values()] == [1]

    def test_hot_swap_to_another_mask_fails_the_flush_typed(self, encoder):
        api = ServingAPI.from_artifact(
            _artifact(encoder, 7),
            config=MicroBatchConfig(max_batch=1000, eager=False, max_delay_s=0.3),
        )
        with api:
            rows = _obfuscator(encoder, 7).prepare_packed(_X(2))
            future = api.submit_score(ScoreRequest(queries=rows.live))
            api.registry.publish("model", _artifact(encoder, 8))
            with pytest.raises(ValueError, match="keep mask changed"):
                future.result(10)

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_hot_swap_to_another_live_width_keeps_serving(
        self, encoder, coalesce
    ):
        # Masked (400 live) rows are queued, then the model is swapped
        # for an unmasked one (700 live): the stale rows get their typed
        # refusal and the new, wider rows are still scored.
        registry = ModelRegistry()
        registry.publish("model", _artifact(encoder, 7))
        fleet = ModelFleet()
        fleet.add_tenant("model", registry, model="model")
        config = MicroBatchConfig(max_batch=1000, eager=False, max_delay_s=0.3)
        with ServingAPI(fleet, config=config, coalesce=coalesce) as api:
            stale = _obfuscator(encoder, 7).prepare_packed(_X(2))
            future = api.submit_score(ScoreRequest(queries=stale.live))
            swapped = _artifact(encoder, None)
            api.registry.publish("model", swapped)
            fresh = _obfuscator(encoder, None).prepare_packed(_X(3))
            assert fresh.live.n_live != stale.live.n_live
            answer = api.submit_score(ScoreRequest(queries=fresh.live))
            with pytest.raises(ValueError, match="keep mask changed"):
                future.result(10)
            np.testing.assert_array_equal(
                answer.result(10).predictions,
                swapped.engine().predict(_planes(fresh)),
            )
            assert all(
                s["failed"] == 0 or s["completed"] == 0
                for s in api.stats()["schedulers"].values()
            )


# ----------------------------------------------------------------------
# cross-version, over real sockets
# ----------------------------------------------------------------------
def _serve(artifact, **kwargs):
    api = ServingAPI.from_artifact(artifact, name="model")
    return api, FrontendHandle(api, **kwargs)


@pytest.mark.parametrize(
    "server_versions,client_versions,payload",
    [
        ((1, 2, 3, 4), None, "planes"),  # v6 client, v4 server
        (None, (1, 2, 3, 4), "planes"),  # v4 client, v6 server: unchanged
        ((1, 2, 3, 4, 5), None, "live"),  # v6 client, v5 server: live words
        (None, (1, 2, 3, 4, 5), "live"),  # v5 client, core-holding server
        (None, None, "core"),  # both v6: core words
    ],
)
def test_cross_version_answers_are_identical(
    encoder, server_versions, client_versions, payload
):
    art = _artifact(encoder, 7)
    X = _X()
    offline = art.engine().predict_features(X)
    api, handle = _serve(art, supported_versions=server_versions)
    try:
        with CaptureProxy(handle.address) as proxy:
            with PriveHDClient(
                proxy.address, encoder=encoder, versions=client_versions
            ) as client:
                expect_version = {"planes": 4, "live": 5, "core": 6}[payload]
                assert client.protocol_version == expect_version
                np.testing.assert_array_equal(client.predict(X[:1]), offline[:1])
                np.testing.assert_array_equal(
                    client.predict_many(X, chunk_size=8), offline
                )
                pool = client.obfuscator.prepare_packed(X)
                many = client.predict_encoded_many(
                    [pool[i : i + 1] for i in range(len(X))], wire_batch=8
                )
                np.testing.assert_array_equal(np.concatenate(many), offline)
            conn = proxy.connections[0]
            conn.wait_closed()
        batches = WireTrace.from_connection(conn).query_batches()
        shipped = {"planes": pool, "live": pool.live, "core": pool.core}[payload]
        assert batches and all(
            type(q) is type(shipped)
            and getattr(q, "digest", None) == getattr(shipped, "digest", None)
            for q in batches
        )
    finally:
        handle.close()
        api.close()


def test_client_masking_on_its_own_ships_planes(encoder):
    """Live words on a support the server does not serve stay home: an
    explicitly masked client against an unpruned model ships planes."""
    art = _artifact(encoder, None)
    api, handle = _serve(art)
    try:
        with PriveHDClient(
            handle.address,
            encoder=encoder,
            obfuscation=ObfuscationConfig(n_masked=N_MASKED, mask_seed=3),
        ) as client:
            assert client.protocol_version == 6
            rows = client.obfuscator.prepare_packed(_X(4))
            want = art.engine().predict(_planes(rows))
            np.testing.assert_array_equal(client.predict(_X(4)), want)
            np.testing.assert_array_equal(client.predict_encoded(rows), want)
    finally:
        handle.close()
        api.close()


@pytest.mark.parametrize("words", ["live", "core"])
def test_encoded_entry_points_refuse_a_live_hv_up_front(encoder, words):
    """A ``LiveHV`` (``prepare_packed(X, words=...)``) is the client's own
    wire format, not an input: each encoded entry point refuses it with a
    ValueError naming what it takes, and the connection keeps serving."""
    art = _artifact(encoder, 7)
    api, handle = _serve(art)
    try:
        with PriveHDClient(handle.address, encoder=encoder) as client:
            live = client.obfuscator.prepare_packed(_X(4), words=words)
            assert isinstance(live, LiveHV)
            calls = (
                client.predict_encoded,
                client.scores_encoded,
                lambda q: client.predict_encoded_many([q, q], wire_batch=2),
            )
            for call in calls:
                with pytest.raises(ValueError, match="dense rows or a PackedHV"):
                    call(live)
            rows = client.obfuscator.prepare_packed(_X(4))
            np.testing.assert_array_equal(
                client.predict_encoded(rows), art.engine().predict(_planes(rows))
            )
    finally:
        handle.close()
        api.close()


def _raw(address, versions):
    sock = socket.create_connection(address, timeout=10)
    sock.sendall(encode_message(Hello(versions=versions), version=1))
    return sock


def _read(sock):
    header = b""
    while len(header) < HEADER_SIZE:
        header += sock.recv(HEADER_SIZE - len(header))
    version, kind, length = decode_header(header)
    payload = b""
    while len(payload) < length:
        payload += sock.recv(length - len(payload))
    from repro.proto import Frame

    return decode_message(Frame(version, kind, payload))


class TestRawLiveFrames:
    def test_live_payload_forged_onto_v4_gets_bad_frame(self, encoder):
        art = _artifact(encoder, 7)
        rows = _obfuscator(encoder, 7).prepare_packed(_X(2))
        api, handle = _serve(art)
        try:
            sock = _raw(handle.address, (1, 2, 3, 4))
            try:
                assert _read(sock) == Welcome(version=4, models=("model",))
                payload = encode_message(
                    ScoreRequest(queries=rows.live, request_id=5), version=5
                )[HEADER_SIZE:]
                sock.sendall(encode_frame(FrameType.SCORE_REQUEST, payload, version=4))
                reply = _read(sock)
                assert isinstance(reply, ErrorReply) and reply.code == "bad-frame"
            finally:
                sock.close()
        finally:
            handle.close()
            api.close()

    def test_wrong_digest_gets_bad_request_and_the_connection_lives(
        self, encoder
    ):
        art = _artifact(encoder, 7)
        rows = _obfuscator(encoder, 7).prepare_packed(_X(2))
        live = rows.live
        forged = LiveHV(live.words, live.d, live.n_live, live.digest ^ 1)
        api, handle = _serve(art)
        try:
            sock = _raw(handle.address, (1, 2, 3, 4, 5))
            try:
                assert _read(sock).version == 5
                sock.sendall(encode_message(
                    ScoreRequest(queries=forged, request_id=1), version=5
                ))
                reply = _read(sock)
                assert isinstance(reply, ErrorReply)
                assert (reply.code, reply.request_id) == ("bad-request", 1)
                sock.sendall(encode_message(
                    ScoreRequest(queries=live, request_id=2), version=5
                ))
                reply = _read(sock)
                assert isinstance(reply, ScoreResponse)
                np.testing.assert_array_equal(
                    reply.predictions, art.engine().predict(_planes(rows))
                )
            finally:
                sock.close()
        finally:
            handle.close()
            api.close()
