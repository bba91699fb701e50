"""Protocol cross-version matrix over real sockets.

A v2 client must interoperate with a v1 server (and vice versa) by
negotiating down to v1 — correct answers, graceful feature fallback,
never a hang.  "v1 server" is a :class:`ServingFrontend` pinned with
``supported_versions=(1,)``; "v1 client" is a :class:`PriveHDClient`
offering ``versions=(1,)`` — the same code paths an actual old build
would take, because the codecs dispatch on the negotiated version.
"""

import socket

import numpy as np
import pytest

from repro.backend.packed import pack_hypervectors
from repro.client import PriveHDClient
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import HDModel, ScalarBaseEncoder
from repro.proto import (
    HEADER_SIZE,
    PROTOCOL_VERSION,
    Hello,
    ScoreRequest,
    Welcome,
    decode_header,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.proto.wire import Frame, FrameType
from repro.serve import FrontendHandle, ModelArtifact, ServingAPI
from repro.utils import spawn

D_IN, D_HV, N_CLASSES = 20, 500, 4


@pytest.fixture(scope="module")
def encoder():
    return ScalarBaseEncoder(D_IN, D_HV, seed=5)


@pytest.fixture(scope="module")
def task(encoder):
    rng = spawn(0, "cross-version")
    X = rng.uniform(0, 1, (60, D_IN))
    y = rng.integers(0, N_CLASSES, 60)
    model = HDModel.from_encodings(encoder.encode(X), y, N_CLASSES)
    artifact = ModelArtifact.build(
        model, quantizer="bipolar", backend="packed", encoder=encoder
    )
    obf = InferenceObfuscator(encoder, ObfuscationConfig())
    offline = artifact.engine().predict(
        obf.prepare_packed(X).unpack(np.float32)
    )
    return X, artifact, obf, offline


def _serve(artifact, **frontend_kwargs):
    api = ServingAPI.from_artifact(artifact, name="xver")
    handle = FrontendHandle(api, **frontend_kwargs)
    return api, handle


@pytest.mark.parametrize(
    "server_versions,client_versions,expect",
    [
        ((1, 2), (1, 2), 2),  # both current
        ((1,), (1, 2), 1),    # v2 client, v1 server: downgrade
        ((1, 2), (1,), 1),    # v1 client, v2 server: downgrade
        ((1,), (1,), 1),      # both old
    ],
)
def test_negotiation_matrix_scores_correctly(
    task, encoder, server_versions, client_versions, expect
):
    X, artifact, obf, offline = task
    api, handle = _serve(artifact, supported_versions=server_versions)
    try:
        with PriveHDClient(
            handle.address, encoder=encoder, versions=client_versions
        ) as client:
            assert client.protocol_version == expect
            # The bulk entry point picks the right framing per version.
            np.testing.assert_array_equal(
                client.predict_many(X, chunk_size=16), offline
            )
            # And wire_batch degrades gracefully on v1 connections.
            singles = [
                pack_hypervectors(obf.prepare(X[i : i + 1]), validate=False)
                for i in range(10)
            ]
            many = client.predict_encoded_many(
                singles, window=3, wire_batch=4
            )
            np.testing.assert_array_equal(
                np.concatenate(many), offline[:10]
            )
    finally:
        handle.close()
        api.close()


def test_disjoint_versions_refused_not_hung(task):
    _, artifact, _, _ = task
    api, handle = _serve(artifact, supported_versions=(2,))
    try:
        with pytest.raises(Exception, match="unsupported-version"):
            PriveHDClient(handle.address, versions=(1,), timeout=10.0)
    finally:
        handle.close()
        api.close()


def test_client_refuses_to_offer_unknown_versions(task):
    with pytest.raises(ValueError, match="only speaks"):
        PriveHDClient(("127.0.0.1", 1), versions=(1, 99))


class TestRawV1Connection:
    """Hand-rolled frames: the server must answer (or refuse) promptly."""

    def _read_frame(self, sock):
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

    def test_batch_frame_on_v1_connection_is_typed_error_not_hang(
        self, task
    ):
        """A peer that negotiated v1 but ships a batch frame anyway gets
        a prompt ``bad-frame`` reply on a live connection — the
        fail-closed path, not a stall."""
        _, artifact, obf, _ = task
        api, handle = _serve(artifact)
        sock = socket.create_connection(handle.address, timeout=10.0)
        try:
            sock.sendall(encode_message(Hello(versions=(1,)), version=1))
            welcome = decode_message(self._read_frame(sock))
            assert isinstance(welcome, Welcome) and welcome.version == 1
            # Forge the v2-only frame type under a v1 stamp (the real
            # codec refuses to do this, so craft the frame by hand).
            batch = ScoreRequest(
                queries=np.zeros((2, D_HV), dtype=np.float32),
                counts=(1, 1),
            )
            v2_frame = encode_message(batch, version=2)
            sock.sendall(
                encode_frame(
                    FrameType.SCORE_BATCH_REQUEST,
                    v2_frame[HEADER_SIZE:],
                    version=1,
                )
            )
            reply = decode_message(self._read_frame(sock))
            assert reply.code == "bad-frame"
            assert "v2" in reply.message
        finally:
            sock.close()
            handle.close()
            api.close()

    def test_v2_stamped_frame_after_v1_negotiation_closes(self, task):
        _, artifact, _, _ = task
        api, handle = _serve(artifact)
        sock = socket.create_connection(handle.address, timeout=10.0)
        try:
            sock.sendall(encode_message(Hello(versions=(1,)), version=1))
            decode_message(self._read_frame(sock))
            sock.sendall(
                encode_message(
                    ScoreRequest(
                        queries=np.zeros((1, D_HV), dtype=np.float32),
                        counts=(1,),
                    ),
                    version=2,
                )
            )
            reply = decode_message(self._read_frame(sock))
            assert reply.code == "bad-frame"
            assert self._read_frame(sock) is None  # connection closed
        finally:
            sock.close()
            handle.close()
            api.close()


class TestTenantCrossVersion:
    """Protocol v4 tenant addressing across versions, on real sockets.

    Three guarantees: pre-v4 clients keep working against a fleet
    (served by the default tenant, unmodified); a tenant-addressed
    client against a pre-v4 server fails *typed at connect*, never
    silently downgrading to someone else's model; an unknown tenant is
    a typed refusal on a connection that stays usable.
    """

    @pytest.fixture(scope="class")
    def fleet_task(self):
        from repro.serve import ModelFleet, ServingAPI

        rng = spawn(3, "tenant-xver")
        artifacts = {}
        for i, name in enumerate(("alice", "bob")):
            class_hvs = rng.choice(
                np.array([-1.0, 1.0], dtype=np.float32),
                size=(N_CLASSES, D_HV),
            )
            artifacts[name] = ModelArtifact(
                store=class_hvs,
                query_quantizer="bipolar",
                store_quantizer="bipolar",
                backend="packed",
            )
        queries = pack_hypervectors(
            rng.choice(
                np.array([-1.0, 1.0], dtype=np.float32), size=(12, D_HV)
            )
        )
        offline = {
            name: artifact.engine().predict(queries.unpack(np.float32))
            for name, artifact in artifacts.items()
        }
        fleet = ModelFleet()
        for name, artifact in artifacts.items():
            fleet.add_tenant(name, artifact)
        api = ServingAPI(fleet)
        handle = FrontendHandle(api)
        yield handle, queries, offline
        handle.close()
        api.close()

    def test_v4_clients_reach_their_own_tenant(self, fleet_task):
        handle, queries, offline = fleet_task
        for name in ("alice", "bob"):
            with PriveHDClient(handle.address, tenant=name) as client:
                assert client.protocol_version == PROTOCOL_VERSION
                np.testing.assert_array_equal(
                    client.predict_encoded(queries), offline[name]
                )

    @pytest.mark.parametrize("versions", [(1,), (1, 2), (1, 2, 3)])
    def test_pre_v4_clients_get_the_default_tenant(
        self, fleet_task, versions
    ):
        handle, queries, offline = fleet_task
        with PriveHDClient(handle.address, versions=versions) as client:
            assert client.protocol_version == max(versions)
            np.testing.assert_array_equal(
                client.predict_encoded(queries), offline["alice"]
            )

    def test_tenant_client_refuses_a_pre_v4_server(self, task):
        """The codec *could* silently drop the tenant on a v3 wire —
        which would answer from the default tenant's model.  The client
        must refuse at connect instead."""
        _, artifact, _, _ = task
        api, handle = _serve(artifact, supported_versions=(1, 2, 3))
        try:
            with pytest.raises(Exception, match="v4"):
                PriveHDClient(handle.address, tenant="alice", timeout=10.0)
        finally:
            handle.close()
            api.close()

    def test_unknown_tenant_is_typed_and_nonfatal(self, fleet_task):
        from repro.serve import TenantNotFound

        handle, queries, offline = fleet_task
        # The client fetches ModelInfo at connect, so a bad tenant key
        # fails fast at construction — typed, with the key attached.
        with pytest.raises(TenantNotFound) as exc_info:
            PriveHDClient(handle.address, tenant="mallory")
        assert exc_info.value.tenant == "mallory"
        # The refusal left the server serving: a valid tenant still works.
        with PriveHDClient(handle.address, tenant="bob") as client:
            np.testing.assert_array_equal(
                client.predict_encoded(queries), offline["bob"]
            )

    def test_model_info_resolves_in_the_tenants_namespace(self, fleet_task):
        handle, _, _ = fleet_task
        with PriveHDClient(handle.address, tenant="bob") as client:
            assert client.info.d_hv == D_HV
            assert client.info.name == "model"
