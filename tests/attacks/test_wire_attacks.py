"""Tests for the wire-level adversarial harness (repro.attacks.wire)."""

import json

import numpy as np
import pytest

from repro.attacks.fixtures import attack_workload
from repro.attacks.wire import (
    CaptureProxy,
    GateConfig,
    GateThresholds,
    WireAttackReport,
    attack_trace,
    compare_to_baseline,
    evaluate_gate,
    loopback_trace,
    parse_stream,
    run_privacy_gate,
)
from repro.attacks.wire import self_test_gate
from repro.proto.messages import (
    Hello,
    ScoreRequest,
    Welcome,
    encode_message,
)
from repro.proto.wire import ProtocolError


def _frames(version=4):
    hello = encode_message(Hello(versions=(1, 2, 3, 4)), version=1)
    welcome = encode_message(Welcome(version=version), version=version)
    return hello, welcome


class TestParseStream:
    def test_reassembles_across_arbitrary_boundaries(self):
        hello, welcome = _frames()
        blob = hello + welcome
        # Drip-feed one byte at a time: worst-case segmentation.
        parsed = parse_stream([blob[i : i + 1] for i in range(len(blob))])
        assert [type(m).__name__ for _, m in parsed] == ["Hello", "Welcome"]

    def test_strict_raises_on_truncated_capture(self):
        hello, _ = _frames()
        with pytest.raises(ProtocolError):
            parse_stream([hello[:-3]])

    def test_non_strict_drops_trailing_partial(self):
        hello, welcome = _frames()
        parsed = parse_stream([hello, welcome[:-3]], strict=False)
        assert len(parsed) == 1
        assert isinstance(parsed[0][1], Hello)


class TestLoopbackTrace:
    def test_versions_and_payload_kind(self):
        wl = attack_workload(d_in=8, d_hv=256, n=8, n_classes=3, seed=1)
        trace = loopback_trace(wl, quantizer="bipolar", version=4)
        assert trace.negotiated_version == 4
        assert trace.offered_versions == (1, 2, 3, 4)
        assert trace.packed_on_wire
        assert trace.query_rows().shape == (8, 256)

    def test_identity_ships_dense(self):
        wl = attack_workload(d_in=8, d_hv=256, n=8, n_classes=3, seed=1)
        trace = loopback_trace(wl, quantizer="identity", version=4)
        assert not trace.packed_on_wire
        # Dense float32 on the wire carries genuine amplitudes.
        rows = trace.query_rows()
        expected = wl.encoder.encode(wl.X).astype(np.float32)
        np.testing.assert_allclose(rows, expected.astype(np.float64))

    def test_v1_uses_single_score_requests(self):
        wl = attack_workload(d_in=8, d_hv=256, n=8, n_classes=3, seed=1)
        trace = loopback_trace(wl, version=1, chunk_size=4)
        assert trace.negotiated_version == 1
        assert all(f.version == 1 for f in trace.client_frames)
        assert trace.query_rows().shape == (8, 256)

    def test_v4_carries_tenant(self):
        wl = attack_workload(d_in=8, d_hv=256, n=8, n_classes=3, seed=1)
        trace = loopback_trace(wl, version=4, tenant="edge-7")
        batches = [
            m
            for m in trace.client_messages
            if isinstance(m, ScoreRequest) and m.counts is not None
        ]
        assert batches and all(m.tenant == "edge-7" for m in batches)

    def test_non_multiple_of_64_dhv_round_trips(self):
        # d_hv=770: the tail bits of the last uint64 word must not bleed
        # into the attacker's densified rows.
        wl = attack_workload(d_in=8, d_hv=770, n=6, n_classes=3, seed=2)
        trace = loopback_trace(wl, quantizer="bipolar")
        rows = trace.query_rows()
        assert rows.shape == (6, 770)
        assert set(np.unique(rows)) <= {-1.0, 1.0}


class TestAttackTrace:
    def test_bipolar_leaks_less_than_plain(self):
        wl = attack_workload(d_in=12, d_hv=1024, n=16, n_classes=4, seed=3)
        report = attack_trace(
            loopback_trace(wl, quantizer="bipolar"), wl, quantizer="bipolar"
        )
        assert report.packed
        assert report.psnr_drop_db > 1.0
        assert report.nmse > 1.0
        assert report.n_live_dims == 1024

    def test_identity_reconstructs_at_plain_quality(self):
        # The bypassed leg: dense genuine amplitudes on the wire, so the
        # eavesdropper reconstructs exactly as well as the in-process
        # baseline — this is what the gate's self-test relies on.
        wl = attack_workload(d_in=12, d_hv=1024, n=16, n_classes=4, seed=3)
        report = attack_trace(
            loopback_trace(wl, quantizer="identity"),
            wl,
            quantizer="identity",
            protected=False,
        )
        assert not report.packed
        assert report.psnr_drop_db == pytest.approx(0.0, abs=1e-6)
        assert report.nmse == pytest.approx(1.0, abs=1e-6)

    def test_eavesdropper_infers_mask_empirically(self):
        wl = attack_workload(d_in=12, d_hv=1024, n=16, n_classes=4, seed=4)
        report = attack_trace(
            loopback_trace(wl, quantizer="bipolar", n_masked=400),
            wl,
            n_masked=400,
        )
        # Exactly the masked dims read zero in every captured row.
        assert report.n_live_dims == 1024 - 400
        assert report.nmse > 1.0

    def test_deterministic_rows(self):
        wl = attack_workload(d_in=12, d_hv=512, n=12, n_classes=4, seed=5)
        a = attack_trace(loopback_trace(wl), wl)
        b = attack_trace(loopback_trace(wl), wl)
        assert a == b

    def test_rejects_misaligned_workload(self):
        wl = attack_workload(d_in=12, d_hv=512, n=12, n_classes=4, seed=5)
        other = attack_workload(d_in=12, d_hv=512, n=8, n_classes=4, seed=5)
        with pytest.raises(ValueError, match="ground-truth"):
            attack_trace(loopback_trace(wl), other)

    def test_rejects_wrong_dhv(self):
        wl = attack_workload(d_in=12, d_hv=512, n=12, n_classes=4, seed=5)
        other = attack_workload(d_in=12, d_hv=256, n=12, n_classes=4, seed=5)
        with pytest.raises(ValueError, match="d_hv"):
            attack_trace(loopback_trace(wl), other)


def _row(leg="x", *, drop=5.0, nmse=3.0, protected=True, member=1.0):
    return WireAttackReport(
        leg=leg,
        quantizer="bipolar",
        n_masked=0,
        protocol_version=4,
        n_queries=8,
        n_frames=3,
        client_bytes=1000,
        packed=True,
        n_live_dims=512,
        psnr_plain_db=20.0,
        psnr_db=20.0 - drop,
        psnr_drop_db=drop,
        mse=0.01,
        nmse=nmse,
        membership_top1=member,
        protected=protected,
    )


class TestGateEvaluation:
    def test_clean_rows_pass(self):
        assert evaluate_gate([_row(), _row("y", drop=9.0, nmse=8.0)]) == []

    def test_small_psnr_drop_flagged(self):
        violations = evaluate_gate([_row(drop=1.0)])
        assert len(violations) == 1 and "PSNR drop" in violations[0]

    def test_low_nmse_flagged(self):
        violations = evaluate_gate([_row(nmse=1.01)])
        assert len(violations) == 1 and "MSE" in violations[0]

    def test_unprotected_rows_exempt(self):
        assert evaluate_gate([_row(drop=0.0, nmse=1.0, protected=False)]) == []

    def test_self_test_requires_bypassed_leg_to_fail(self):
        good = self_test_gate([_row(drop=0.0, nmse=1.0, protected=False)])
        assert good["failed_as_expected"]
        # A bypassed leg that still clears the bar means the criteria
        # are vacuous — the self-test must fail the run.
        bad = self_test_gate([_row(drop=9.0, nmse=8.0, protected=False)])
        assert not bad["failed_as_expected"]
        # No bypassed leg at all: nothing proven.
        none = self_test_gate([_row()])
        assert not none["failed_as_expected"]

    def test_custom_thresholds(self):
        strict = GateThresholds(min_psnr_drop_db=10.0)
        assert evaluate_gate([_row(drop=5.0)], strict)


class TestCompareToBaseline:
    def _doc(self, psnr=15.0, nmse=4.0, member=1.0, protected=True):
        cfg = GateConfig()
        row = _row(
            "v4-bipolar", drop=20.0 - psnr, nmse=nmse, protected=protected,
            member=member,
        )
        from repro.attacks.wire import GateReport

        return GateReport(config=cfg, rows=[row]).to_dict()

    def test_identical_documents_clean(self):
        doc = self._doc()
        assert compare_to_baseline(doc, json.loads(json.dumps(doc))) == []

    def test_config_mismatch_is_terminal(self):
        doc = self._doc()
        other = self._doc()
        other["config"]["d_hv"] = 4096
        problems = compare_to_baseline(doc, other)
        assert len(problems) == 1 and "config" in problems[0]

    def test_more_leakage_flagged(self):
        base = self._doc(psnr=15.0, nmse=4.0)
        worse = self._doc(psnr=17.0, nmse=4.0)  # +2 dB > 1.0 tolerance
        assert any("more leakage" in p for p in compare_to_baseline(worse, base))

    def test_nmse_drop_flagged(self):
        base = self._doc(nmse=4.0)
        worse = self._doc(nmse=3.0)  # -25% > 15% tolerance
        assert any("destroys less" in p for p in compare_to_baseline(worse, base))

    def test_membership_rise_flagged(self):
        base = self._doc(member=0.5)
        worse = self._doc(member=0.9)
        assert any("linkage" in p for p in compare_to_baseline(worse, base))

    def test_improvement_never_fails(self):
        base = self._doc(psnr=15.0, nmse=4.0, member=1.0)
        better = self._doc(psnr=12.0, nmse=6.0, member=0.5)
        assert compare_to_baseline(better, base) == []

    def test_missing_leg_flagged(self):
        base = self._doc()
        cur = json.loads(json.dumps(base))
        cur["rows"] = []
        assert any("not attacked" in p for p in compare_to_baseline(cur, base))

    def test_unprotected_rows_exempt_from_regression(self):
        base = self._doc(psnr=15.0, protected=False)
        worse = self._doc(psnr=19.0, protected=False)
        assert compare_to_baseline(worse, base) == []


class TestCaptureProxyTransparency:
    def test_tee_is_invisible_and_captures_everything(self):
        serve = pytest.importorskip("repro.serve")
        from repro.client import PriveHDClient
        from repro.core.inference_privacy import ObfuscationConfig

        wl = attack_workload(d_in=8, d_hv=256, n=12, n_classes=3, seed=6)
        artifact = serve.ModelArtifact.build(
            wl.model(), quantizer="bipolar", backend="packed",
            encoder=wl.encoder,
        )
        fleet = serve.ModelFleet(default_tenant="t")
        fleet.add_tenant("t", artifact)
        api = serve.ServingAPI(fleet)
        try:
            with serve.FrontendHandle(api) as handle:
                with PriveHDClient(
                    handle.address,
                    encoder=wl.encoder,
                    obfuscation=ObfuscationConfig(quantizer="bipolar"),
                ) as direct_client:
                    direct = direct_client.predict_many(wl.X, chunk_size=4)
                with CaptureProxy(handle.address) as proxy:
                    with PriveHDClient(
                        proxy.address,
                        encoder=wl.encoder,
                        obfuscation=ObfuscationConfig(quantizer="bipolar"),
                    ) as client:
                        teed = client.predict_many(wl.X, chunk_size=4)
                    conn = proxy.connections[0]
                    conn.wait_closed()
        finally:
            api.close()
        # Same answers through the tee as direct: the proxy is invisible.
        np.testing.assert_array_equal(direct, teed)
        # And the capture reassembles into the full session.
        from repro.attacks.wire import WireTrace

        trace = WireTrace.from_connection(conn)
        assert trace.query_rows().shape == (12, 256)
        assert trace.packed_on_wire
        assert trace.client_bytes == conn.client_bytes


class TestLiveGate:
    def test_gate_passes_and_self_test_has_teeth(self):
        report = run_privacy_gate(
            GateConfig(
                d_hv=512,
                n_queries=16,
                chunk_size=8,
                window=2,
                n_membership_trials=4,
            )
        )
        assert report.passed, report.violations
        legs = [r.leg for r in report.rows]
        assert legs == [
            "v1-bipolar",
            "v2-bipolar",
            "v3-bipolar",
            "v4-bipolar",
            "v4-ternary",
            "v4-ternary-biased",
            "v4-masked",
            "v4-identity",
            "v5-masked",
            "v5-level-masked",
            "v6-level-core",
        ]
        by_leg = {r.leg: r for r in report.rows}
        # Every protocol version really negotiated on the wire.
        for version in (1, 2, 3, 4):
            assert by_leg[f"v{version}-bipolar"].protocol_version == version
        # The masked leg's live-dimension count was inferred off the
        # capture, not read from client state.
        assert by_leg["v4-masked"].n_live_dims == 256
        # v5 ships the same masked rows as live words: fewer bytes, and
        # an eavesdropper placing them with the captured mask_seed
        # recovers exactly what it recovers from the v4 planes.
        v4, v5 = by_leg["v4-masked"], by_leg["v5-masked"]
        assert v5.protocol_version == 5 and v5.packed
        assert v5.n_live_dims == 256
        assert v5.client_bytes < v4.client_bytes / 3
        for metric in ("psnr_db", "nmse", "membership_top1"):
            assert getattr(v5, metric) == getattr(v4, metric)
        # v6 ships only the core words of the level-base twin's masked
        # rows; an eavesdropper placing them on the core the public
        # codebooks give, and refilling the signs those codebooks fix,
        # recovers exactly what it recovers from the same rows' v5
        # live words.
        live, core = by_leg["v5-level-masked"], by_leg["v6-level-core"]
        assert live.protocol_version == 5 and core.protocol_version == 6
        assert core.packed and core.n_live_dims == live.n_live_dims == 256
        assert core.client_bytes < live.client_bytes
        for metric in ("psnr_db", "nmse", "membership_top1"):
            assert getattr(core, metric) == getattr(live, metric)
        # The bypassed leg ships dense and fails both criteria.
        identity = by_leg["v4-identity"]
        assert not identity.packed and not identity.protected
        assert report.self_test["failed_as_expected"]
        assert len(report.self_test["violations"]) == 2
        # The committed-document round-trip stays comparable to itself.
        doc = report.to_dict()
        assert compare_to_baseline(doc, json.loads(json.dumps(doc))) == []
