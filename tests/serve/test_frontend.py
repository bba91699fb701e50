"""The socket frontend: negotiation, parity, errors, ops endpoints.

These tests run a real :class:`ServingFrontend` on a loopback port and
talk to it with real sockets — both through :class:`PriveHDClient` and
with hand-crafted (including malformed) raw frames.
"""

import json
import socket
import struct
import urllib.request
from concurrent.futures import Future

import numpy as np
import pytest

from repro.backend.packed import n_words, pack_hypervectors
from repro.client import PriveHDClient, ServerError
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import HDModel, ScalarBaseEncoder, get_quantizer
from repro.proto import PROTOCOL_VERSION
from repro.proto import (
    HEADER_SIZE,
    MAGIC,
    Hello,
    ProtocolError,
    ScoreRequest,
    ScoreResponse,
    Welcome,
    decode_header,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.proto.wire import MAX_STRING_BYTES, Frame, FrameType
from repro.serve import FrontendHandle, ModelArtifact, ServingAPI
from repro.utils import spawn

D_IN, D_HV, N_CLASSES = 24, 1000, 5


@pytest.fixture(scope="module")
def encoder():
    return ScalarBaseEncoder(D_IN, D_HV, seed=3)


@pytest.fixture(scope="module")
def fixture_task(encoder):
    rng = spawn(0, "frontend-tests")
    X = rng.uniform(0, 1, (100, D_IN))
    y = rng.integers(0, N_CLASSES, 100)
    model = HDModel.from_encodings(encoder.encode(X), y, N_CLASSES)
    return X, y, model


@pytest.fixture(scope="module")
def artifact(fixture_task, encoder):
    _, _, model = fixture_task
    return ModelArtifact.build(
        model, quantizer="bipolar", backend="packed", encoder=encoder
    )


@pytest.fixture()
def served(artifact):
    api = ServingAPI.from_artifact(artifact, name="demo")
    with FrontendHandle(api, http_port=0) as handle:
        yield api, handle
    api.close()


def _raw_connection(address):
    sock = socket.create_connection(address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_frame(sock):
    header = b""
    while len(header) < HEADER_SIZE:
        chunk = sock.recv(HEADER_SIZE - len(header))
        if not chunk:
            return None
        header += chunk
    version, frame_type, length = decode_header(header)
    payload = b""
    while len(payload) < length:
        payload += sock.recv(length - len(payload))
    return Frame(version, frame_type, payload)


class TestHandshake:
    def test_welcome_carries_negotiated_version_and_models(self, served):
        from repro.proto import PROTOCOL_VERSION

        _, handle = served
        with PriveHDClient(handle.address) as client:
            assert client.protocol_version == PROTOCOL_VERSION
            assert "demo" in client.server_info.models

    def test_version_skew_rejected_with_typed_error(self, served):
        _, handle = served
        sock = _raw_connection(handle.address)
        try:
            sock.sendall(encode_message(Hello(versions=(99, 200))))
            reply = decode_message(_read_frame(sock))
            assert reply.code == "unsupported-version"
            assert _read_frame(sock) is None  # connection closed
        finally:
            sock.close()

    def test_connection_must_open_with_hello(self, served):
        artifact_queries = np.zeros((1, D_HV), dtype=np.float32)
        _, handle = served
        sock = _raw_connection(handle.address)
        try:
            sock.sendall(
                encode_message(ScoreRequest(queries=artifact_queries))
            )
            reply = decode_message(_read_frame(sock))
            assert reply.code == "bad-frame"
            assert "Hello" in reply.message
        finally:
            sock.close()

    def test_post_negotiation_version_must_match(self, served):
        _, handle = served
        sock = _raw_connection(handle.address)
        try:
            sock.sendall(encode_message(Hello(versions=(1,))))
            welcome = decode_message(_read_frame(sock))
            assert isinstance(welcome, Welcome)
            sock.sendall(
                encode_message(
                    ScoreRequest(queries=np.zeros((1, D_HV))), version=2
                )
            )
            reply = decode_message(_read_frame(sock))
            assert reply.code == "bad-frame"
            assert "version" in reply.message
        finally:
            sock.close()


class TestParity:
    """The wire changes the transport, never the answers."""

    def test_feature_predictions_match_offline_obfuscated(
        self, served, fixture_task, encoder, artifact
    ):
        X, _, _ = fixture_task
        _, handle = served
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        offline = artifact.engine().predict(
            obf.prepare_packed(X).unpack(np.float32)
        )
        with PriveHDClient(handle.address, encoder=encoder) as client:
            remote = client.predict(X)
        np.testing.assert_array_equal(remote, offline)

    def test_encoded_packed_and_dense_agree(
        self, served, fixture_task, encoder
    ):
        X, _, _ = fixture_task
        _, handle = served
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        encoded = obf.prepare(X[:32])
        with PriveHDClient(handle.address) as client:
            dense = client.predict_encoded(encoded.astype(np.float32))
            packed = client.predict_encoded(pack_hypervectors(encoded))
        np.testing.assert_array_equal(dense, packed)

    def test_scores_match_offline(self, served, fixture_task, encoder, artifact):
        X, _, _ = fixture_task
        _, handle = served
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        queries = obf.prepare(X[:16]).astype(np.float32)
        expected = artifact.engine().scores(queries)
        with PriveHDClient(handle.address) as client:
            remote = client.scores_encoded(queries)
        np.testing.assert_allclose(remote, expected)

    def test_pipelined_many_matches_sequential(
        self, served, fixture_task, encoder
    ):
        X, _, _ = fixture_task
        _, handle = served
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        batches = [
            pack_hypervectors(obf.prepare(X[i : i + 4]))
            for i in range(0, 40, 4)
        ]
        with PriveHDClient(handle.address) as client:
            sequential = [client.predict_encoded(b) for b in batches]
            pipelined = client.predict_encoded_many(batches, window=5)
        for a, b in zip(sequential, pipelined):
            np.testing.assert_array_equal(a, b)

    def test_pruned_model_parity(self, fixture_task, encoder):
        """A §III-B pruned model served remotely: the client masks with
        the deployment's shared mask and answers match offline."""
        X, _, model = fixture_task
        config = ObfuscationConfig(n_masked=D_HV // 2, mask_seed=11)
        obf = InferenceObfuscator(encoder, config)
        pruned = ModelArtifact.build(
            model,
            quantizer="bipolar",
            backend="packed",
            encoder=encoder,
            keep_mask=obf.keep_mask,
        )
        offline = pruned.engine().predict(
            obf.prepare_packed(X).unpack(np.float32)
        )
        api = ServingAPI.from_artifact(pruned, name="pruned")
        with FrontendHandle(api) as handle:
            with PriveHDClient(
                handle.address, encoder=encoder, obfuscation=config
            ) as client:
                assert client.info.is_pruned
                assert client.info.n_live_dims == D_HV - D_HV // 2
                remote = client.predict(X)
        api.close()
        np.testing.assert_array_equal(remote, offline)

    def test_dense_backend_parity(self, fixture_task, encoder):
        X, _, model = fixture_task
        artifact = ModelArtifact.build(
            model, quantizer="bipolar", backend="dense", encoder=encoder
        )
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        offline = artifact.engine().predict(obf.prepare(X))
        api = ServingAPI.from_artifact(artifact, name="dense")
        with FrontendHandle(api) as handle:
            with PriveHDClient(handle.address, encoder=encoder) as client:
                assert client.info.backend == "dense"
                remote = client.predict(X)
        api.close()
        np.testing.assert_array_equal(remote, offline)


class TestApplicationErrors:
    def test_unknown_model_keeps_connection_alive(self, served, encoder):
        _, handle = served
        with PriveHDClient(handle.address) as client:
            with pytest.raises(ServerError) as err:
                client.model_info("ghost")
            assert err.value.code == "unknown-model"
            # The connection survives a typed application error.
            assert client.model_info("demo").name == "demo"

    def test_wrong_dimensionality_is_bad_request(self, served):
        _, handle = served
        sock = _raw_connection(handle.address)
        try:
            sock.sendall(encode_message(Hello()))
            decode_message(_read_frame(sock))
            sock.sendall(
                encode_message(
                    ScoreRequest(queries=np.zeros((1, 64)), request_id=5)
                )
            )
            reply = decode_message(_read_frame(sock))
            assert reply.code == "bad-request"
            assert reply.request_id == 5
        finally:
            sock.close()

    def test_client_refuses_wrong_d_hv_before_the_wire(self, served, encoder):
        _, handle = served
        with PriveHDClient(handle.address) as client:
            with pytest.raises(ValueError, match="d_hv"):
                client.predict_encoded(np.zeros((1, 64)))


class TestMalformedFrames:
    def test_bad_magic_closes_connection(self, served):
        _, handle = served
        sock = _raw_connection(handle.address)
        try:
            sock.sendall(b"XX" + b"\x00" * (HEADER_SIZE - 2))
            reply = decode_message(_read_frame(sock))
            assert reply.code == "bad-frame"
            assert _read_frame(sock) is None
        finally:
            sock.close()

    def test_oversize_length_rejected(self, served):
        _, handle = served
        sock = _raw_connection(handle.address)
        try:
            sock.sendall(
                struct.pack("!2sBBI", MAGIC, 1, FrameType.HELLO, 1 << 30)
            )
            reply = decode_message(_read_frame(sock))
            assert reply.code == "bad-frame"
        finally:
            sock.close()

    def test_truncated_payload_mid_stream(self, served):
        _, handle = served
        sock = _raw_connection(handle.address)
        try:
            frame = encode_message(Hello())
            sock.sendall(frame[: len(frame) - 2])
            sock.shutdown(socket.SHUT_WR)
            reply = decode_message(_read_frame(sock))
            assert reply.code == "bad-frame"
        finally:
            sock.close()

    def test_frontend_counts_rejected_frames(self, served):
        api, handle = served
        before = handle.frontend.frames_rejected
        sock = _raw_connection(handle.address)
        try:
            sock.sendall(b"?" * HEADER_SIZE)
            _read_frame(sock)
        finally:
            sock.close()
        assert handle.frontend.frames_rejected >= before + 1


class TestOversizeErrorReplies:
    """An error whose detail outgrows a wire string is still a typed
    reply on an open connection, never a closed one."""

    def test_batch_frame_with_a_zero_count_among_30000(
        self, served, fixture_task, encoder
    ):
        X, _, _ = fixture_task
        _, handle = served
        counts = [1] * 30_000
        counts[12_345] = 0
        payload = b"".join([
            # request id, no model, no scores, no deadline, no tenant
            struct.pack("!IHBBH", 9, 0xFFFF, 0, 0, 0xFFFF),
            struct.pack(f"!H{len(counts)}I", len(counts), *counts),
            struct.pack("!BII", 1, 1, D_HV),  # one packed row
            bytes(2 * 8 * n_words(D_HV)),
        ])
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        packed = pack_hypervectors(obf.prepare(X[:1]), validate=False)
        sock = _raw_connection(handle.address)
        try:
            sock.sendall(encode_message(Hello()))
            assert decode_message(_read_frame(sock)).version == PROTOCOL_VERSION
            sock.sendall(
                encode_frame(
                    FrameType.SCORE_BATCH_REQUEST, payload,
                    version=PROTOCOL_VERSION,
                )
            )
            reply = decode_message(_read_frame(sock))
            assert reply.code == "bad-frame"
            assert "chunk 12345" in reply.message
            sock.sendall(
                encode_message(ScoreRequest(queries=packed, request_id=10))
            )
            reply = decode_message(_read_frame(sock))
            assert isinstance(reply, ScoreResponse)
            assert reply.request_id == 10
        finally:
            sock.close()

    def test_unknown_model_name_near_the_string_limit(self, served):
        # The name fits a wire string; the error detail quoting it does not.
        _, handle = served
        with PriveHDClient(handle.address) as client:
            with pytest.raises(ServerError) as err:
                client.model_info("m" * 65_520)
            assert err.value.code == "unknown-model"
            assert len(err.value.reply.message) == MAX_STRING_BYTES
            assert client.model_info("demo").name == "demo"


class TestHttpOps:
    def _get(self, handle, route):
        host, port = handle.http_address
        with urllib.request.urlopen(
            f"http://{host}:{port}{route}", timeout=10
        ) as resp:
            return resp.status, json.load(resp)

    def test_healthz(self, served):
        _, handle = served
        status, body = self._get(handle, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"] == 1

    def test_models_and_stats(self, served, encoder, fixture_task):
        X, _, _ = fixture_task
        _, handle = served
        with PriveHDClient(handle.address, encoder=encoder) as client:
            client.predict(X[:4])
        status, models = self._get(handle, "/models")
        assert status == 200
        assert models["demo"]["d_hv"] == D_HV
        status, stats = self._get(handle, "/stats")
        assert status == 200
        assert stats["fleet"]["tenants"] == 1
        assert any(s["completed"] for s in stats["schedulers"].values())

    def test_unknown_route_404s(self, served):
        _, handle = served
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(handle, "/score")
        assert err.value.code == 404

    def test_http_port_cannot_score(self, served):
        # The ops adapter is metadata-only by construction: no POST, no
        # scoring route.
        _, handle = served
        host, port = handle.http_address
        req = urllib.request.Request(
            f"http://{host}:{port}/healthz", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 405


class TestBatchedWire:
    """Protocol v2 batch frames end-to-end over real sockets."""

    def test_predict_many_matches_offline(
        self, served, fixture_task, encoder, artifact
    ):
        X, _, _ = fixture_task
        _, handle = served
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        offline = artifact.engine().predict(
            obf.prepare_packed(X).unpack(np.float32)
        )
        with PriveHDClient(handle.address, encoder=encoder) as client:
            np.testing.assert_array_equal(
                client.predict_many(X, chunk_size=16), offline
            )

    def test_wire_batch_matches_single_frames(
        self, served, fixture_task, encoder
    ):
        X, _, _ = fixture_task
        _, handle = served
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        singles = [
            pack_hypervectors(obf.prepare(X[i : i + 1]), validate=False)
            for i in range(30)
        ]
        with PriveHDClient(handle.address) as client:
            plain = client.predict_encoded_many(singles, window=4)
            batched = client.predict_encoded_many(
                singles, window=4, wire_batch=8
            )
        for a, b in zip(plain, batched):
            np.testing.assert_array_equal(a, b)

    def test_wire_batch_mixed_sizes(self, served, fixture_task, encoder):
        X, _, _ = fixture_task
        _, handle = served
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        sizes = [1, 3, 2, 5, 1, 4]
        batches, start = [], 0
        for size in sizes:
            batches.append(
                pack_hypervectors(
                    obf.prepare(X[start : start + size]), validate=False
                )
            )
            start += size
        with PriveHDClient(handle.address) as client:
            plain = client.predict_encoded_many(batches, window=2)
            batched = client.predict_encoded_many(
                batches, window=2, wire_batch=4
            )
        for a, b in zip(plain, batched):
            np.testing.assert_array_equal(a, b)

    def test_mixing_packed_and_dense_in_one_group_refused(
        self, served, fixture_task, encoder
    ):
        X, _, _ = fixture_task
        _, handle = served
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        dense = obf.prepare(X[:2]).astype(np.float32)
        packed = pack_hypervectors(obf.prepare(X[2:4]), validate=False)
        with PriveHDClient(handle.address) as client:
            with pytest.raises(ValueError, match="mix"):
                client.predict_encoded_many(
                    [dense, packed], wire_batch=2
                )

    def test_batch_request_version_stamped(self, served, fixture_task, encoder):
        """Every row of a batch frame is answered by one version — the
        response's version field says which."""
        X, _, _ = fixture_task
        api, handle = served
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        block = pack_hypervectors(obf.prepare(X[:6]), validate=False)
        response = api.score(
            ScoreRequest(queries=block, counts=(2, 2, 2), model="demo")
        )
        assert response.version == api.registry.current_version("demo")
        assert sum(len(p) for p in response.split()) == 6

    @pytest.mark.parametrize(
        "misshape, batched",
        [
            (lambda counts, n: (n,), False),
            (lambda counts, n: None, True),
            (
                lambda counts, n: (counts[0] + counts[1], *counts[2:])
                if len(counts) > 1
                else (1, n - 1),
                True,
            ),
        ],
        ids=["single-with-counts", "batch-without", "batch-other-counts"],
    )
    def test_reply_must_echo_the_request_counts(
        self, artifact, fixture_task, encoder, misshape, batched
    ):
        """A scoring reply whose ``counts`` are not its request's fails
        the stream, whichever entry point sent the request.  Single
        requests come from ``predict_encoded_many`` at ``wire_batch=1``
        and from ``predict``: ``predict_many`` sends batch frames
        whenever a reply could carry counts."""
        X, _, _ = fixture_task
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        singles = [
            pack_hypervectors(obf.prepare(X[i : i + 1]), validate=False)
            for i in range(8)
        ]
        if batched:
            calls = [
                lambda c: c.predict_encoded_many(
                    singles, window=2, wire_batch=4
                ),
                lambda c: c.predict_many(X[:32], chunk_size=16),
            ]
        else:
            calls = [
                lambda c: c.predict_encoded_many(singles, window=2),
                lambda c: c.predict(X[:2]),
            ]
        api = ServingAPI.from_artifact(artifact, name="demo")
        try:
            with FrontendHandle(_MisshapenAPI(api, misshape)) as handle:
                for call in calls:
                    with PriveHDClient(
                        handle.address, encoder=encoder
                    ) as client:
                        with pytest.raises(ProtocolError, match="counts"):
                            call(client)
        finally:
            api.close()


class _MisshapenAPI:
    """A :class:`ServingAPI` whose scoring replies carry
    ``misshape(request.counts, n_rows)`` as their counts."""

    def __init__(self, api, misshape):
        self._api, self._misshape = api, misshape

    def __getattr__(self, name):
        return getattr(self._api, name)

    def submit_score(self, request, **kwargs):
        future = Future()
        future.set_result(ScoreResponse(
            predictions=np.zeros(request.n_queries, dtype=np.int64),
            request_id=request.request_id,
            counts=self._misshape(request.counts, request.n_queries),
        ))
        return future


class TestMaskSeedOverTheWire:
    def test_pruned_client_needs_no_out_of_band_mask(
        self, fixture_task, encoder
    ):
        """The ROADMAP gap, closed: the artifact records its mask seed,
        ModelInfo (v2) carries it, and a client constructed with *only*
        the encoder regenerates the deployment mask locally."""
        from repro.hd.prune import mask_from_seed

        X, _, model = fixture_task
        seed, n_masked = 11, D_HV // 2
        keep = mask_from_seed(D_HV, n_masked, seed)
        obf = InferenceObfuscator(
            encoder, ObfuscationConfig(n_masked=n_masked, mask_seed=seed)
        )
        pruned = ModelArtifact.build(
            model,
            quantizer="bipolar",
            backend="packed",
            encoder=encoder,
            keep_mask=keep,
            mask_seed=seed,
        )
        offline = pruned.engine().predict(
            obf.prepare_packed(X).unpack(np.float32)
        )
        api = ServingAPI.from_artifact(pruned, name="pruned")
        with FrontendHandle(api) as handle:
            # No ObfuscationConfig passed: the mask comes off the wire.
            with PriveHDClient(handle.address, encoder=encoder) as client:
                assert client.info.mask_seed == seed
                assert client.obfuscator.config.n_masked == n_masked
                np.testing.assert_array_equal(
                    client.obfuscator.keep_mask, keep
                )
                remote = client.predict(X)
        api.close()
        np.testing.assert_array_equal(remote, offline)

    def test_v1_connection_still_needs_the_out_of_band_mask(
        self, fixture_task, encoder
    ):
        """On a v1 downgrade ModelInfo cannot carry the seed, so an
        unmasked client stays unmasked (and must be configured
        explicitly, as before)."""
        from repro.hd.prune import mask_from_seed

        _, _, model = fixture_task
        seed, n_masked = 11, D_HV // 2
        keep = mask_from_seed(D_HV, n_masked, seed)
        pruned = ModelArtifact.build(
            model,
            quantizer="bipolar",
            backend="packed",
            encoder=encoder,
            keep_mask=keep,
            mask_seed=seed,
        )
        api = ServingAPI.from_artifact(pruned, name="pruned")
        with FrontendHandle(api) as handle:
            with PriveHDClient(
                handle.address, encoder=encoder, versions=(1,)
            ) as client:
                assert client.info.mask_seed is None
                assert client.obfuscator.config.n_masked == 0
        api.close()


class TestHotSwapOverTheWire:
    def test_promote_mid_connection(self, fixture_task, encoder):
        X, y, model = fixture_task
        art_v1 = ModelArtifact.build(
            model, quantizer="bipolar", backend="packed", encoder=encoder
        )
        rng = spawn(9, "swap-v2")
        store2 = get_quantizer("bipolar")(
            rng.normal(size=(N_CLASSES, D_HV))
        )
        art_v2 = ModelArtifact.build(
            HDModel(N_CLASSES, D_HV, store2),
            quantizer="bipolar",
            backend="packed",
            encoder=encoder,
        )
        obf = InferenceObfuscator(encoder, ObfuscationConfig())
        queries = obf.prepare_packed(X[:8])
        v1_preds = art_v1.engine().predict(queries.unpack(np.float32))
        v2_preds = art_v2.engine().predict(queries.unpack(np.float32))
        api = ServingAPI.from_artifact(art_v1, name="m")
        with FrontendHandle(api) as handle:
            with PriveHDClient(handle.address) as client:
                np.testing.assert_array_equal(
                    client.predict_encoded(queries), v1_preds
                )
                api.registry.publish("m", art_v2)  # hot swap, same conn
                np.testing.assert_array_equal(
                    client.predict_encoded(queries), v2_preds
                )
                assert client.model_info().version == 2
        api.close()


class TestFleetHttpOps:
    """The fleet additions to the ops port: /tenants and fleet /stats."""

    def _get(self, handle, route):
        host, port = handle.http_address
        with urllib.request.urlopen(
            f"http://{host}:{port}{route}", timeout=10
        ) as resp:
            return resp.status, json.load(resp)

    @pytest.fixture()
    def fleet_served(self, artifact):
        from repro.serve import ModelFleet

        fleet = ModelFleet()
        fleet.add_tenant("alice", artifact)
        fleet.add_tenant("bob", artifact)
        api = ServingAPI(fleet)
        with FrontendHandle(api, http_port=0) as handle:
            yield api, handle
        api.close()

    def test_tenants_route_reports_count_and_top_talkers(
        self, fleet_served, encoder, fixture_task
    ):
        X, _, _ = fixture_task
        api, handle = fleet_served
        with PriveHDClient(
            handle.address, encoder=encoder, tenant="bob"
        ) as client:
            client.predict(X[:4])
        status, body = self._get(handle, "/tenants")
        assert status == 200
        assert body["count"] == 2
        assert body["default_tenant"] == "alice"
        assert any(t["tenant"] == "bob" for t in body["top"])

    def test_stats_route_carries_fleet_counters(self, fleet_served):
        _, handle = fleet_served
        status, stats = self._get(handle, "/stats")
        assert status == 200
        assert stats["fleet"]["tenants"] == 2
        assert "hit_rate" in stats["fleet"]
        # The budget sits next to the bytes it bounds: unbounded here.
        assert stats["fleet"]["resident_bytes"] > 0
        assert stats["fleet"]["cache_bytes"] is None

    def test_tenants_route_on_a_single_model_server(self, served):
        _, handle = served
        status, body = self._get(handle, "/tenants")
        assert status == 200
        assert body["count"] == 1
        assert body["default_tenant"] == "demo"
