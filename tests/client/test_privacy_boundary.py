"""The privacy boundary, proven on real bytes.

Prive-HD's §III-C split promises the untrusted serving side only ever
sees obfuscated query hypervectors.  These tests make that promise
empirical: they capture every byte a :class:`PriveHDClient` puts on the
wire during full feature-prediction sessions and assert that

* no serialized representation of any raw feature vector appears in
  any frame (checked as f64/f32, little- and big-endian, per row and
  whole-matrix);
* no codebook representation appears (base/level memories as float64,
  float32, int8 sign values, or packed sign planes);
* what *does* cross the wire is exactly the obfuscated payload the
  client intended (the packed quantize→mask planes) — proving the
  sniffer sees the real traffic;
* the protocol is structurally incapable of framing features: every
  attempt to score a ``(n, d_in)`` batch dies at the API boundary
  before any byte is produced.
"""

import numpy as np
import pytest

from repro.backend.packed import pack_hypervectors
from repro.client import PriveHDClient
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import HDModel, LevelBaseEncoder, ScalarBaseEncoder
from repro.proto import (
    PROTOCOL_VERSION,
    ProtocolError,
    ScoreRequest,
    encode_message,
)
from repro.serve import FrontendHandle, ModelArtifact, ServingAPI
from repro.utils import spawn

D_IN, D_HV, N_CLASSES = 24, 1000, 5


class SniffingClient(PriveHDClient):
    """A client that records every frame it puts on the wire."""

    def __init__(self, *args, **kwargs):
        self.sent: list[bytes] = []
        super().__init__(*args, **kwargs)

    def _send_frame(self, data: bytes) -> None:
        self.sent.append(bytes(data))
        super()._send_frame(data)

    @property
    def wire_bytes(self) -> bytes:
        return b"".join(self.sent)


@pytest.fixture(scope="module", params=["scalar-base", "level-base"])
def encoder(request):
    if request.param == "scalar-base":
        return ScalarBaseEncoder(D_IN, D_HV, seed=3)
    return LevelBaseEncoder(D_IN, D_HV, n_levels=16, seed=3)


@pytest.fixture(scope="module")
def features():
    rng = spawn(0, "privacy-tests")
    return rng.uniform(0, 1, (40, D_IN))


@pytest.fixture(scope="module")
def served(encoder, features):
    rng = spawn(1, "privacy-model")
    y = rng.integers(0, N_CLASSES, len(features))
    model = HDModel.from_encodings(
        encoder.encode(features), y, N_CLASSES
    )
    artifact = ModelArtifact.build(
        model, quantizer="bipolar", backend="packed", encoder=encoder
    )
    api = ServingAPI.from_artifact(artifact, name="m")
    with FrontendHandle(api) as handle:
        yield handle
    api.close()


def _forbidden_feature_bytes(X):
    """Every byte encoding of the features a leak could take."""
    out = []
    for dtype in ("<f8", ">f8", "<f4", ">f4"):
        arr = np.ascontiguousarray(X, dtype=dtype)
        out.append(arr.tobytes())
        out.extend(np.ascontiguousarray(row).tobytes() for row in arr)
    return out

def _forbidden_codebook_bytes(encoder):
    """Codebooks in every plausible serialization."""
    books = [encoder.base.vectors]
    if hasattr(encoder, "levels"):
        books.append(encoder.levels.vectors)
    out = []
    for book in books:
        for dtype in ("<f8", "<f4", "i1"):
            out.append(np.ascontiguousarray(book, dtype=dtype).tobytes())
        out.append(pack_hypervectors(book).signs.tobytes())
        out.extend(
            pack_hypervectors(book[i : i + 1]).signs.tobytes()
            for i in range(min(4, len(book)))
        )
    return out


class TestFrameSniffing:
    def test_packed_session_leaks_no_features_or_codebooks(
        self, served, encoder, features
    ):
        with SniffingClient(served.address, encoder=encoder) as client:
            client.predict(features)
            client.scores(features[:4])
            client.model_info()
            wire = client.wire_bytes
            obf = client.obfuscator

        assert len(wire) > 0
        for blob in _forbidden_feature_bytes(features):
            assert blob not in wire
        for blob in _forbidden_codebook_bytes(encoder):
            assert blob not in wire
        # Sanity: the sniffer sees real traffic — the intended payload
        # (the obfuscated bits that vary with the input) IS on the wire.
        intended = obf.prepare_packed(features)
        core = intended.core  # level-base rows ship their core words
        assert (intended.signs if core is None else core.words).tobytes() in wire

    def test_masked_session_leaks_nothing_either(
        self, served, encoder, features
    ):
        config = ObfuscationConfig(n_masked=D_HV // 2, mask_seed=5)
        with SniffingClient(
            served.address, encoder=encoder, obfuscation=config
        ) as client:
            client.predict(features[:16])
            wire = client.wire_bytes
        for blob in _forbidden_feature_bytes(features[:16]):
            assert blob not in wire
        for blob in _forbidden_codebook_bytes(encoder):
            assert blob not in wire

    def test_dense_identity_session_ships_encodings_not_features(
        self, encoder, features
    ):
        """Even the explicitly unprotected mode (identity quantizer,
        dense frames against a full-precision dense store) ships
        *encodings* — the features themselves never appear."""
        rng = spawn(2, "privacy-dense")
        y = rng.integers(0, N_CLASSES, len(features))
        model = HDModel.from_encodings(
            encoder.encode(features), y, N_CLASSES
        )
        artifact = ModelArtifact.build(
            model, quantizer=None, backend="dense", encoder=encoder
        )
        config = ObfuscationConfig(quantizer="identity")
        api = ServingAPI.from_artifact(artifact, name="m")
        with FrontendHandle(api) as handle:
            with SniffingClient(
                handle.address, encoder=encoder, obfuscation=config
            ) as client:
                client.predict(features[:8])
                wire = client.wire_bytes
        api.close()
        for blob in _forbidden_feature_bytes(features[:8]):
            assert blob not in wire
        for blob in _forbidden_codebook_bytes(encoder):
            assert blob not in wire
        encoded = np.ascontiguousarray(
            encoder.encode(features[:8]), dtype="<f4"
        )
        assert encoded.tobytes() in wire  # what actually shipped


class TestStructuralEnforcement:
    def test_feature_shaped_arrays_cannot_reach_a_frame(
        self, served, encoder, features
    ):
        with SniffingClient(served.address, encoder=encoder) as client:
            sent_before = len(client.sent)
            # predict_encoded refuses feature-dimensioned input...
            with pytest.raises(ValueError, match="d_hv"):
                client.predict_encoded(features)
            # ...and predict refuses hypervector-dimensioned input.
            with pytest.raises(ValueError, match="d_in"):
                client.predict(np.zeros((2, D_HV)))
            assert len(client.sent) == sent_before  # nothing was framed

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_features_fail_before_any_frame(
        self, served, encoder, features, bad
    ):
        X = features[:3].copy()
        X[2, 5] = bad
        with SniffingClient(
            served.address,
            encoder=encoder,
            obfuscation=ObfuscationConfig(n_masked=100),
        ) as client:
            sent_before = len(client.sent)
            with pytest.raises(ValueError, match="column 5"):
                client.predict(X)
            assert len(client.sent) == sent_before  # nothing was framed

    def test_score_request_refuses_1d_vectors(self):
        with pytest.raises(ValueError, match="raw feature"):
            ScoreRequest(queries=np.zeros(D_IN))

    def test_encoder_objects_cannot_be_framed(self, encoder):
        for contraband in (
            encoder,
            encoder.base,
            encoder.base.vectors,
            {"codebook": encoder.base.vectors},
            encoder.config(),
        ):
            with pytest.raises(ProtocolError, match="not a wire message"):
                encode_message(contraband)

    def test_client_without_encoder_cannot_send_features(self, served):
        with SniffingClient(served.address) as client:
            with pytest.raises(ValueError, match="no encoder"):
                client.predict(np.zeros((2, D_IN)))

    def test_obfuscation_without_encoder_is_rejected(self, served):
        with pytest.raises(ValueError, match="encoder"):
            PriveHDClient(
                served.address, obfuscation=ObfuscationConfig()
            )

    def test_server_never_receives_an_encoder_config(self, served, encoder):
        """ModelInfo — the only metadata the server sends — carries no
        encoder config, seed, or codebook field.  (``mask_seed`` is the
        *deployment mask* seed, deliberately public: it regenerates only
        which server-side dimensions are dead — information the server
        holds anyway — never the encoder codebooks.  ``core_digest`` is
        a 64-bit digest of which of those dimensions vary with the
        input: it names a support the client already derives from its
        own codebooks, and gives no codebook back.)"""
        with PriveHDClient(served.address) as client:
            info = client.model_info()
        fields = set(vars(info))
        assert fields == {
            "name",
            "version",
            "n_classes",
            "d_hv",
            "n_live_dims",
            "backend",
            "query_quantizer",
            "epsilon",
            "mask_seed",
            "request_id",
            "core_digest",
        }


class TestFleetTenantSniffing:
    """Protocol v4: the tenant key is a routing label, nothing more.

    Tenant-addressed sessions must leak exactly as little as
    single-model sessions — the key itself is plaintext (documented in
    privacy-model.md: isolation is routing-level, not cryptographic),
    but it never smuggles features or codebooks, and per-tenant
    metadata (the deployment mask seed) flows through v4 ModelInfo
    exactly as it did through v2.
    """

    @pytest.fixture()
    def fleet_served(self, encoder, features):
        from repro.serve import ModelFleet, ServingAPI
        from repro.hd.prune import mask_from_seed

        rng = spawn(9, "privacy-fleet")
        y = rng.integers(0, N_CLASSES, len(features))
        model = HDModel.from_encodings(
            encoder.encode(features), y, N_CLASSES
        )
        plain = ModelArtifact.build(
            model, quantizer="bipolar", backend="packed", encoder=encoder
        )
        seed, n_masked = 21, D_HV // 2
        pruned = ModelArtifact.build(
            model,
            quantizer="bipolar",
            backend="packed",
            encoder=encoder,
            keep_mask=mask_from_seed(D_HV, n_masked, seed),
            mask_seed=seed,
        )
        fleet = ModelFleet()
        fleet.add_tenant("alice", plain)
        fleet.add_tenant("bob", plain)
        fleet.add_tenant("pruned", pruned)
        api = ServingAPI(fleet)
        with FrontendHandle(api) as handle:
            yield handle, seed, n_masked
        api.close()

    def test_tenant_session_leaks_no_features_or_codebooks(
        self, fleet_served, encoder, features
    ):
        handle, _, _ = fleet_served
        with SniffingClient(
            handle.address, encoder=encoder, tenant="bob"
        ) as client:
            client.predict(features)
            client.scores(features[:4])
            client.model_info()
            wire = client.wire_bytes
            obf = client.obfuscator

        assert len(wire) > 0
        for blob in _forbidden_feature_bytes(features):
            assert blob not in wire
        for blob in _forbidden_codebook_bytes(encoder):
            assert blob not in wire
        # What the v4 frames add is the routing label, in the clear —
        # and the payload is still exactly the obfuscated bits.
        assert b"bob" in wire
        intended = obf.prepare_packed(features)
        core = intended.core  # level-base rows ship their core words
        assert (intended.signs if core is None else core.words).tobytes() in wire

    def test_per_tenant_mask_seed_flows_through_v4_model_info(
        self, fleet_served, encoder, monkeypatch
    ):
        import repro.client.client as client_module

        handle, seed, n_masked = fleet_served
        built = []

        def counting(*args):
            built.append(args)
            return InferenceObfuscator(*args)

        monkeypatch.setattr(client_module, "InferenceObfuscator", counting)
        with PriveHDClient(
            handle.address, encoder=encoder, tenant="pruned"
        ) as client:
            assert client.protocol_version == PROTOCOL_VERSION
            assert client.info.mask_seed == seed
            # The client built its obfuscator once, from the wire-shared
            # seed — the same v2 behavior, now per-tenant.
            assert len(built) == 1
            assert client.obfuscator.config.n_masked == n_masked
        with PriveHDClient(
            handle.address, encoder=encoder, tenant="alice"
        ) as client:
            assert client.info.mask_seed is None  # her model is unpruned
