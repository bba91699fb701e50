"""The frontend's connection discipline, pinned over real sockets.

Each test drives a live :class:`ServingFrontend` with raw sockets and
observes only what a peer (or the ``ServingAPI`` counters) can see:
handshake and idle timeouts, the per-connection in-flight bound, write
backpressure (``write_high_water_bytes``), the ``frontend.read`` and
``frontend.reply`` fault points, ``stop()``'s grace period, and which
requests run to completion on the loop (the ``/stats`` ledger and
thread counters).  Every test runs on each event loop the frontend
supports; uvloop legs skip where it is not installed.
"""

import socket
import sys
import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.backend.packed import PackedHV, pack_hypervectors
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import HDModel, LevelBaseEncoder, get_quantizer
from repro.hd.prune import mask_from_seed
from repro.proto import (
    ErrorReply,
    Hello,
    ModelInfo,
    ModelInfoRequest,
    ScoreRequest,
    ScoreResponse,
    Welcome,
    WireSession,
    decode_message,
    encode_message,
)
from repro.serve import (
    FrontendConfig,
    FrontendHandle,
    MicroBatchConfig,
    ModelArtifact,
    ModelFleet,
    ServingAPI,
    faults,
)
from repro.serve.loops import UVLOOP_AVAILABLE
from repro.utils import spawn

D_HV, N_CLASSES = 64, 128


@pytest.fixture(
    params=[
        "asyncio",
        pytest.param(
            "uvloop",
            marks=pytest.mark.skipif(
                not UVLOOP_AVAILABLE, reason="uvloop is not installed"
            ),
        ),
    ]
)
def loop(request):
    return request.param


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def artifact():
    rng = spawn(0, "frontend-discipline")
    store = get_quantizer("bipolar")(rng.normal(size=(N_CLASSES, D_HV)))
    return ModelArtifact.build(
        HDModel(N_CLASSES, D_HV, store), quantizer="bipolar", backend="packed"
    )


def _queries(n, seed=1):
    rng = spawn(seed, "frontend-discipline-queries")
    return pack_hypervectors(np.where(rng.random((n, D_HV)) < 0.5, -1, 1))


def _serve(artifact, loop, *, api_config=None, **frontend_kwargs):
    api = ServingAPI.from_artifact(artifact, name="m", config=api_config)
    return api, FrontendHandle(api, loop=loop, **frontend_kwargs)


def _submitted(api) -> int:
    return sum(s["submitted"] for s in api.stats()["schedulers"].values())


def _core_artifact(n_rows):
    """A half-masked level-base artifact holding a core, and ``n_rows``
    one-row client batches (planes carrying live and core words)."""
    encoder = LevelBaseEncoder(12, 700, seed=4)
    X = spawn(2, "frontend-discipline-core").uniform(0, 1, (40 + n_rows, 12))
    artifact = ModelArtifact.build(
        HDModel.from_encodings(encoder.encode(X[:40]), np.arange(40) % 5, 5),
        quantizer="bipolar", backend="packed", encoder=encoder,
        keep_mask=mask_from_seed(700, 300, 3), mask_seed=3,
    )
    obfuscator = InferenceObfuscator(
        encoder, ObfuscationConfig(n_masked=300, mask_seed=3)
    )
    rows = [obfuscator.prepare_packed(X[i : i + 1]) for i in range(40, 40 + n_rows)]
    return artifact, rows


def _stages(api, n_requests, timeout=5.0) -> dict:
    """The ledger once ``n_requests`` replies were counted.

    A peer can read a reply before the loop, right after writing it,
    hands its record to the ledger.
    """
    deadline = time.monotonic() + timeout
    while True:
        stages = api.stats()["stages"]
        if stages["request"]["count"] >= n_requests:
            return stages
        assert time.monotonic() < deadline, stages
        time.sleep(0.01)


class _Peer:
    """A raw-socket protocol peer: send frames, read typed replies."""

    def __init__(self, address, *, rcvbuf=None, hello=True):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(10.0)
        self.sock.connect(address)
        self.session = WireSession("client")
        if hello:
            self.sock.sendall(encode_message(Hello()))
            welcome = self.read()
            assert isinstance(welcome, Welcome)
            self.session.adopt_version(welcome.version)

    def frame(self, message) -> bytes:
        return encode_message(message, version=self.session.version)

    def send(self, *messages) -> None:
        self.sock.sendall(b"".join(self.frame(m) for m in messages))

    def read(self, timeout=10.0):
        """The next reply; ``None`` once the server closed the socket."""
        self.sock.settimeout(timeout)
        while True:
            frame = self.session.next_frame()
            if frame is not None:
                return decode_message(frame)
            try:
                n = self.sock.recv_into(self.session.recv_buffer())
            except ConnectionResetError:
                return None
            if not n:
                return None
            self.session.commit(n)

    def closed_within(self, seconds) -> bool:
        """Whether the server closes the socket within ``seconds``."""
        try:
            return self.read(timeout=seconds) is None
        except socket.timeout:
            return False

    def close(self):
        self.sock.close()


def _score(request_id, n=1, **kwargs):
    return ScoreRequest(
        queries=_queries(n, seed=request_id), request_id=request_id, **kwargs
    )


class TestTimeouts:
    def test_silent_socket_closed_after_handshake_timeout(
        self, artifact, loop
    ):
        api, handle = _serve(
            artifact, loop, config=FrontendConfig(handshake_timeout_s=0.3)
        )
        with api, handle:
            peer = _Peer(handle.address, hello=False)
            t0 = time.monotonic()
            assert peer.closed_within(5.0)
            assert time.monotonic() - t0 >= 0.25
            peer.close()

    def test_handshake_timeout_does_not_cut_a_negotiated_connection(
        self, artifact, loop
    ):
        api, handle = _serve(
            artifact, loop, config=FrontendConfig(handshake_timeout_s=0.2)
        )
        with api, handle:
            peer = _Peer(handle.address)
            time.sleep(0.5)
            peer.send(_score(1))
            assert isinstance(peer.read(), ScoreResponse)
            peer.close()

    def test_idle_connection_closed_but_not_mid_frame(self, artifact, loop):
        api, handle = _serve(
            artifact, loop, config=FrontendConfig(idle_timeout_s=0.4)
        )
        with api, handle:
            peer = _Peer(handle.address)
            # Steady traffic with gaps under the timeout keeps it open.
            for rid in range(1, 4):
                peer.send(_score(rid))
                assert peer.read().request_id == rid
                time.sleep(0.15)
            # A frame trickling in across more than the timeout is a
            # peer actively sending: it is not timed.
            frame = peer.frame(_score(7))
            peer.sock.sendall(frame[:12])
            time.sleep(1.0)
            peer.sock.sendall(frame[12:])
            reply = peer.read()
            assert isinstance(reply, ScoreResponse)
            assert reply.request_id == 7
            # Then silence: closed after the idle timeout.
            t0 = time.monotonic()
            assert peer.closed_within(5.0)
            assert time.monotonic() - t0 >= 0.3
            peer.close()


class TestFlowControl:
    def test_pipelining_past_max_inflight_gets_every_reply(
        self, artifact, loop
    ):
        max_inflight = 4
        api, handle = _serve(artifact, loop, max_inflight=max_inflight)
        with api, handle:
            peer = _Peer(handle.address)
            ids = list(range(1, 3 * max_inflight + 1))
            # Metadata requests answered on the spot share the bound.
            peer.send(
                *(
                    ModelInfoRequest(request_id=rid) if rid % 3 == 0
                    else _score(rid)
                    for rid in ids
                )
            )
            time.sleep(0.3)  # not reading while the server works
            replies = [peer.read() for _ in ids]
            assert sorted(r.request_id for r in replies) == ids
            for r in replies:
                kind = ModelInfo if r.request_id % 3 == 0 else ScoreResponse
                assert isinstance(r, kind)
            peer.close()

    def test_slow_reader_stops_being_read_then_recovers(self, artifact, loop):
        api, handle = _serve(
            artifact,
            loop,
            max_inflight=1000,  # only write backpressure may stop reads
            config=FrontendConfig(write_high_water_bytes=16 * 1024),
        )
        rows, n_requests = 32, 400  # ~33 KB per reply, ~13 MB in all
        with api, handle:
            peer = _Peer(handle.address, rcvbuf=8192)
            frames = [
                peer.frame(_score(rid, n=rows, want_scores=True))
                for rid in range(1, n_requests + 1)
            ]

            def send_paced():
                # One frame per read: replies pile up while requests
                # are still arriving.
                for frame in frames:
                    peer.sock.sendall(frame)
                    time.sleep(0.002)

            sender = threading.Thread(target=send_paced, daemon=True)
            sender.start()
            # Wait for the server to stop taking requests in.
            seen, stable_since = -1, time.monotonic()
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                now = _submitted(api)
                if now != seen:
                    seen, stable_since = now, time.monotonic()
                elif time.monotonic() - stable_since > 0.5:
                    break
                time.sleep(0.05)
            assert 0 < seen < rows * n_requests
            # Reading again drains the backlog and every reply arrives.
            replies = [peer.read() for _ in range(n_requests)]
            sender.join(timeout=10.0)
            assert not sender.is_alive()
            assert sorted(r.request_id for r in replies) == list(
                range(1, n_requests + 1)
            )
            assert all(r.scores.shape == (rows, N_CLASSES) for r in replies)
            assert _submitted(api) == rows * n_requests
            peer.send(_score(999))
            assert peer.read().request_id == 999
            peer.close()


class TestReadFaults:
    def test_read_drop_eats_one_request(self, artifact, loop):
        api, handle = _serve(artifact, loop)
        with api, handle:
            peer = _Peer(handle.address)
            faults.arm("frontend.read:drop,times=1")
            peer.send(_score(1), _score(2))
            assert peer.read().request_id == 2
            with pytest.raises(socket.timeout):
                peer.read(timeout=0.3)
            peer.send(_score(3))
            assert peer.read().request_id == 3
            peer.close()

    def test_read_delay_holds_the_connection(self, artifact, loop):
        api, handle = _serve(artifact, loop)
        with api, handle:
            peer = _Peer(handle.address)
            faults.arm("frontend.read:delay,delay_ms=400,times=1")
            t0 = time.monotonic()
            peer.send(_score(1), _score(2))
            replies = [peer.read(), peer.read()]
            elapsed = time.monotonic() - t0
            assert sorted(r.request_id for r in replies) == [1, 2]
            # The delayed frame is dispatched late, and the frame behind
            # it is not read before it.
            assert elapsed >= 0.35
            peer.close()


class TestReplyFaults:
    DELAY_S = 1.0

    def _wait_submitted(self, api, n):
        """Wait until ``n`` rows were taken in; they stay ``n`` meanwhile."""
        deadline = time.monotonic() + self.DELAY_S / 2
        while _submitted(api) < n and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)
        return _submitted(api)

    def test_delayed_replies_keep_their_inflight_slots(self, artifact, loop):
        api, handle = _serve(artifact, loop, max_inflight=2)
        with api, handle:
            peer = _Peer(handle.address)
            faults.arm(f"frontend.reply:delay,delay_ms={self.DELAY_S * 1e3:g}")
            t0 = time.monotonic()
            peer.send(*(_score(rid) for rid in range(1, 7)))
            # Two requests are pending a delayed reply: no third one is
            # taken in before one of those replies is written.
            assert self._wait_submitted(api, 2) == 2
            replies = [peer.read() for _ in range(6)]
            # three waves of two
            assert time.monotonic() - t0 >= 3 * self.DELAY_S - 0.1
            assert sorted(r.request_id for r in replies) == list(range(1, 7))
            peer.close()

    def test_dropped_replies_release_their_slots_once(self, artifact, loop):
        api, handle = _serve(artifact, loop, max_inflight=2)
        with api, handle:
            peer = _Peer(handle.address)
            faults.arm("frontend.reply:drop,times=2")
            peer.send(*(_score(rid) for rid in range(1, 5)))
            replies = [peer.read(), peer.read()]
            assert sorted(r.request_id for r in replies) == [3, 4]
            # A slot released twice would let a third request in here.
            faults.arm(f"frontend.reply:delay,delay_ms={self.DELAY_S * 1e3:g}")
            peer.send(*(_score(rid) for rid in range(5, 9)))
            assert self._wait_submitted(api, 6) == 6
            replies = [peer.read() for _ in range(4)]
            assert sorted(r.request_id for r in replies) == [5, 6, 7, 8]
            peer.close()


class TestResponseHook:
    def test_failed_response_build_fails_that_request_only(
        self, artifact, loop, monkeypatch
    ):
        import repro.serve.api as api_module

        def flaky(**fields):
            if fields["request_id"] == 2:
                raise RuntimeError("cannot build this response")
            return ScoreResponse(**fields)

        monkeypatch.setattr(api_module, "ScoreResponse", flaky)
        # Paced flushes: the three requests land in one flush.
        api, handle = _serve(
            artifact,
            loop,
            api_config=MicroBatchConfig(eager=False, max_delay_s=0.3),
        )
        with api, handle:
            peer = _Peer(handle.address)
            peer.send(_score(1), _score(2, n=3), _score(3))
            replies = {r.request_id: r for r in [peer.read() for _ in "abc"]}
            assert sorted(replies) == [1, 2, 3]
            assert isinstance(replies[2], ErrorReply)
            assert replies[2].code == "internal"
            assert "cannot build" in replies[2].message
            engine = artifact.engine()
            for rid in (1, 3):
                assert isinstance(replies[rid], ScoreResponse)
                np.testing.assert_array_equal(
                    replies[rid].predictions,
                    engine.predict(_queries(1, seed=rid)),
                )
            with pytest.raises(socket.timeout):
                peer.read(timeout=0.2)  # nothing is answered twice
            (stats,) = api.stats()["schedulers"].values()
            assert stats["flushes"] == 1
            assert stats["submitted"] == 5
            assert stats["completed"] + stats["failed"] == 5
            peer.close()

    def test_every_future_resolves_once(self, artifact, monkeypatch):
        import repro.serve.api as api_module

        def flaky(**fields):
            if fields["request_id"] % 2:
                raise RuntimeError("odd request")
            return ScoreResponse(**fields)

        monkeypatch.setattr(api_module, "ScoreResponse", flaky)
        config = MicroBatchConfig(eager=False, max_delay_s=0.3)
        with ServingAPI.from_artifact(artifact, config=config) as api:
            futures = [
                api.submit_score(_score(rid)) for rid in range(1, 9)
            ]
            calls = [0] * len(futures)
            for i, f in enumerate(futures):
                f.add_done_callback(
                    lambda _f, i=i: calls.__setitem__(i, calls[i] + 1)
                )
            for rid, f in enumerate(futures, start=1):
                if rid % 2:
                    with pytest.raises(RuntimeError, match="odd request"):
                        f.result(timeout=10.0)
                else:
                    assert f.result(timeout=10.0).request_id == rid
            assert calls == [1] * len(futures)
            (stats,) = api.stats()["schedulers"].values()
            assert stats["submitted"] == 8
            assert stats["completed"] + stats["failed"] == 8


class TestCompletionInbox:
    def test_racing_flushers_answer_every_request_once(self, artifact, loop):
        # Four tenants on their own schedulers: four flusher threads
        # complete into one inbox while four connections pipeline.
        fleet = ModelFleet()
        for t in range(4):
            fleet.add_tenant(f"t{t}", artifact)
        api = ServingAPI(fleet, coalesce=False)
        block = _queries(64, seed=5)
        expected = artifact.engine().predict(block)
        queries = [block[i : i + 1] for i in range(64)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with api, FrontendHandle(api, loop=loop) as handle:
                peers = [_Peer(handle.address) for _ in range(4)]
                errors = []

                def drive(k, peer):
                    try:
                        ids = range(k * 1000, k * 1000 + 200)
                        peer.send(*(
                            ScoreRequest(
                                queries=queries[rid % 64],
                                tenant=f"t{rid % 4}",
                                request_id=rid,
                            )
                            for rid in ids
                        ))
                        got = {}
                        for _ in ids:
                            r = peer.read()
                            assert r.request_id not in got
                            got[r.request_id] = r
                        assert sorted(got) == list(ids)
                        for rid, r in got.items():
                            assert r.predictions[0] == expected[rid % 64]
                        with pytest.raises(socket.timeout):
                            peer.read(timeout=0.1)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=drive, args=(k, p))
                    for k, p in enumerate(peers)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert not errors, errors
                for peer in peers:
                    peer.close()
        finally:
            sys.setswitchinterval(old_interval)


class TestRunToCompletion:
    """A request alone on its connection and its scheduler is scored on
    the loop; anything else queues for the flusher."""

    @pytest.mark.parametrize("words", ["live", "core"])
    def test_lone_requests_run_inline_and_match_offline(self, loop, words):
        art, rows = _core_artifact(6)
        offline = art.engine()
        api = ServingAPI.from_artifact(art, name="m")
        with api, FrontendHandle(api, loop=loop) as handle:
            peer = _Peer(handle.address)
            for rid, row in enumerate(rows, start=1):
                peer.send(
                    ScoreRequest(queries=getattr(row, words), request_id=rid)
                )
                reply = peer.read()
                assert isinstance(reply, ScoreResponse), reply
                assert reply.request_id == rid
                np.testing.assert_array_equal(
                    reply.predictions,
                    offline.predict(PackedHV(row.signs, row.mags, row.d)),
                )
            peer.close()
            stages = _stages(api, len(rows))
            (stats,) = api.stats()["schedulers"].values()
            (sched,) = api._schedulers.values()
        assert (stages["inline"], stages["queued"]) == (len(rows), 0)
        for stage in ("queue_wait", "wakeup", "handoff"):
            assert stages[stage]["count"] == 0
        for stage in ("decode", "submit", "kernel", "respond", "reply"):
            assert stages[stage]["count"] == len(rows)
        assert stats["submitted"] == stats["completed"] == len(rows)
        assert stats["flushes_by_trigger"]["eager"] == len(rows)
        assert not sched._started  # its flusher thread never started

    def test_pipelined_window_still_batches(self, artifact, loop):
        api, handle = _serve(artifact, loop)
        with api, handle:
            peer = _Peer(handle.address)
            for burst in range(5):
                ids = range(burst * 8 + 1, burst * 8 + 9)
                peer.send(*(_score(rid) for rid in ids))
                assert sorted(peer.read().request_id for _ in ids) == list(ids)
            peer.close()
            stages = _stages(api, 40)
            (stats,) = api.stats()["schedulers"].values()
        assert stages["queued"] >= 35  # a burst's first frame may be alone
        assert stages["queue_wait"]["count"] == stages["queued"]
        assert stats["max_batch_rows"] > 1
        assert stats["submitted"] == stats["completed"] == 40


class TestServerThreads:
    def test_stats_carry_each_threads_cpu(self, artifact, loop):
        api, handle = _serve(artifact, loop)
        with api, handle:
            peer = _Peer(handle.address)
            for rid in range(1, 201):
                peer.send(_score(rid % 16 + 1))
                assert isinstance(peer.read(), ScoreResponse)
            peer.close()
            threads = api.stats()["threads"]
        assert threads["serving-frontend"] > 0

    def test_no_threads_key_without_proc(self, artifact, monkeypatch, tmp_path):
        monkeypatch.setattr(obs, "_PROC_TASKS", str(tmp_path / "missing"))
        with ServingAPI.from_artifact(artifact) as api:
            assert "threads" not in api.stats()


class TestStop:
    def test_stop_closes_live_connections_within_grace(self, artifact, loop):
        api, handle = _serve(
            artifact, loop, config=FrontendConfig(stop_grace_s=1.0)
        )
        with api:
            idle = _Peer(handle.address)
            mid_frame = _Peer(handle.address)
            mid_frame.sock.sendall(mid_frame.frame(_score(1))[:10])
            fresh = _Peer(handle.address, hello=False)
            time.sleep(0.1)
            t0 = time.monotonic()
            handle.close()
            assert time.monotonic() - t0 < 1.0 + 2.0
            for peer in (idle, mid_frame, fresh):
                assert peer.closed_within(2.0)
                peer.close()
