"""Protocol v4 tenant addressing: round-trips, version gating, errors.

The tenant key is an appended optional ``string`` on both scoring
requests and on ``ModelInfoRequest`` — on the wire only when the
frame's negotiated version is >= 4, absent-encoded (the 0xFFFF string
sentinel) for the default tenant.  These tests pin the codec side of
the contract; socket-level behavior lives in
``tests/serve/test_cross_version.py``.
"""

import numpy as np
import pytest

from repro.backend.packed import pack_hypervectors
from repro.proto import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameDecoder,
    ModelInfoRequest,
    ScoreRequest,
    decode_message,
    encode_message,
)
from repro.proto.messages import RETRYABLE_ERROR_CODES
from repro.utils import spawn


def _roundtrip(msg, version=PROTOCOL_VERSION):
    frames = FrameDecoder().feed(encode_message(msg, version=version))
    assert len(frames) == 1
    return decode_message(frames[0])


def _queries(n=3, d=128, seed=0):
    rng = spawn(seed, "tenant-proto")
    return pack_hypervectors(np.sign(rng.normal(size=(n, d))))


class TestVersionConstants:
    def test_v6_is_current_and_all_versions_supported(self):
        assert PROTOCOL_VERSION == 6
        assert SUPPORTED_VERSIONS == (1, 2, 3, 4, 5, 6)


class TestTenantRoundTrip:
    def test_score_request_carries_tenant_at_v4(self):
        msg = ScoreRequest(
            queries=_queries(), tenant="alice", request_id=9
        )
        assert _roundtrip(msg) == msg
        assert _roundtrip(msg).tenant == "alice"

    def test_score_batch_request_carries_tenant_at_v4(self):
        msg = ScoreRequest(
            queries=_queries(6), counts=(4, 2), tenant="bob",
            deadline_ms=50, request_id=3,
        )
        got = _roundtrip(msg)
        assert got == msg
        assert (got.tenant, got.deadline_ms) == ("bob", 50)

    def test_model_info_request_carries_tenant_at_v4(self):
        msg = ModelInfoRequest(tenant="carol", request_id=2)
        assert _roundtrip(msg).tenant == "carol"

    def test_absent_tenant_roundtrips_as_none(self):
        for msg in (
            ScoreRequest(queries=_queries()),
            ScoreRequest(queries=_queries(4), counts=(2, 2)),
            ModelInfoRequest(),
        ):
            assert _roundtrip(msg).tenant is None

    def test_unicode_tenant_keys_survive(self):
        msg = ScoreRequest(queries=_queries(), tenant="пользователь-7")
        assert _roundtrip(msg).tenant == "пользователь-7"


class TestVersionGating:
    """Below v4 the tenant field is simply not on the wire."""

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_tenant_dropped_when_encoding_for_old_peers(self, version):
        if version == 1:
            msg = ScoreRequest(queries=_queries(), tenant="alice")
        else:
            msg = ScoreRequest(
                queries=_queries(4), counts=(2, 2), tenant="alice"
            )
        got = _roundtrip(msg, version=version)
        assert got.tenant is None
        assert np.array_equal(
            got.queries.signs, msg.queries.signs
        )  # only the tenant suffix differs

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_model_info_request_decodes_with_no_tenant(self, version):
        got = _roundtrip(
            ModelInfoRequest(model="m", tenant="alice"), version=version
        )
        assert got.model == "m"
        assert got.tenant is None

    def test_v4_frame_is_longer_by_exactly_the_tenant_suffix(self):
        msg = ScoreRequest(queries=_queries(), tenant="ab")
        v3 = encode_message(msg, version=3)
        v4 = encode_message(msg, version=4)
        # u16 length + 2 UTF-8 bytes.
        assert len(v4) - len(v3) == 4

    def test_default_tenant_costs_two_bytes_at_v4(self):
        msg = ScoreRequest(queries=_queries())
        v3 = encode_message(msg, version=3)
        v4 = encode_message(msg, version=4)
        assert len(v4) - len(v3) == 2  # the 0xFFFF absent sentinel


class TestUnknownTenantError:
    def test_registered_and_not_retryable(self):
        assert "unknown-tenant" in ERROR_CODES
        assert "unknown-tenant" not in RETRYABLE_ERROR_CODES
