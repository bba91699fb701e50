"""The privacy boundary holds through faults: retry never re-leaks.

The pipelined client self-heals a severed connection by reconnecting
and replaying every unacknowledged request
(:meth:`PriveHDClient._pipelined_requests`).  That replay path builds
frames a *second* time — a fresh opportunity to leak something the
happy path never framed.  These tests sever a live connection
mid-window with :meth:`CaptureProxy.cut` (the eavesdropper turned
saboteur) and assert, on the real bytes of both the original and the
replayed frames:

* the session completes with correct predictions (the fault really
  exercised the replay machinery — ``reconnects >= 1``);
* no serialized feature or codebook representation appears in *any*
  frame the client ever sent, replays included;
* the replayed frames reuse the byte-identical obfuscated payloads —
  obfuscation is deterministic per deployment, so a retry gives the
  eavesdropper zero fresh information (no second quantization draw, no
  new mask);
* the severed connection's capture still parses (``strict=False``) —
  what the eavesdropper kept is every frame up to the cut.
"""

import numpy as np
import pytest

from repro.attacks.wire import CaptureProxy, WireTrace
from repro.backend.packed import LiveHV, PackedHV
from repro.client import PriveHDClient
from repro.core.inference_privacy import ObfuscationConfig
from repro.hd import HDModel, ScalarBaseEncoder
from repro.proto import ScoreRequest
from repro.proto.wire import FrameDecoder
from repro.proto.messages import decode_message
from repro.serve import FrontendHandle, ModelArtifact, ServingAPI
from repro.utils import spawn

from test_privacy_boundary import (
    _forbidden_codebook_bytes,
    _forbidden_feature_bytes,
)

D_IN, D_HV, N_CLASSES, N = 16, 512, 4, 32


class SabotagedClient(PriveHDClient):
    """Records every frame it sends; cuts the wire after ``cut_after``.

    The cut happens through the proxy (the network, not the client), so
    the client experiences exactly what a real mid-window connection
    loss looks like: frames already handed to the kernel, then a dead
    socket on the next read.
    """

    def __init__(self, *args, proxy=None, cut_after=None, **kwargs):
        self.sent: list[bytes] = []
        self._proxy = proxy
        self._cut_after = cut_after
        self._armed = False
        super().__init__(*args, **kwargs)
        self._armed = True

    def _send_frame(self, data: bytes) -> None:
        self.sent.append(bytes(data))
        super()._send_frame(data)
        if (
            self._armed
            and self._cut_after is not None
            and len(self.sent) == self._cut_after
        ):
            self._cut_after = None
            self._proxy.cut()


@pytest.fixture(scope="module")
def encoder():
    return ScalarBaseEncoder(D_IN, D_HV, seed=7)


@pytest.fixture(scope="module")
def features():
    return spawn(11, "retry-privacy").uniform(0, 1, (N, D_IN))


@pytest.fixture(scope="module")
def served(encoder, features):
    y = spawn(12, "retry-privacy-y").integers(0, N_CLASSES, N)
    model = HDModel.from_encodings(encoder.encode(features), y, N_CLASSES)
    artifact = ModelArtifact.build(
        model, quantizer="bipolar", backend="packed", encoder=encoder
    )
    api = ServingAPI.from_artifact(artifact, name="m")
    with FrontendHandle(api) as handle:
        yield handle
    api.close()


def _sent_query_payloads(sent_frames):
    """The obfuscated payload bytes of every scoring frame, in order."""
    payloads = []
    for blob in sent_frames:
        decoder = FrameDecoder()
        for frame in decoder.feed(blob):
            msg = decode_message(frame)
            if isinstance(msg, ScoreRequest):
                q = msg.queries
                if isinstance(q, PackedHV):
                    payloads.append(q.signs.tobytes() + q.mags.tobytes())
                elif isinstance(q, LiveHV):
                    payloads.append(q.words.tobytes())
                else:
                    payloads.append(np.ascontiguousarray(q).tobytes())
    return payloads


class TestRetryReplayPrivacy:
    def test_severed_window_replays_without_releaking(
        self, served, encoder, features
    ):
        chunk_size, window = 4, 4
        n_chunks = N // chunk_size
        with PriveHDClient(served.address, encoder=encoder) as ref:
            expected = ref.predict_many(
                features, chunk_size=chunk_size, window=window
            )
        with CaptureProxy(served.address) as proxy:
            with SabotagedClient(
                proxy.address,
                encoder=encoder,
                proxy=proxy,
                cut_after=4,  # hello + 3 score frames, mid-window
                max_retries=2,
                connect_retries=10,
            ) as client:
                got = client.predict_many(
                    features, chunk_size=chunk_size, window=window
                )
                reconnects = client.reconnects
                retries = client.retries
                sent = list(client.sent)
            first = proxy.connections[0]
            first.wait_closed()

        # The fault was real and the answers survived it.
        assert reconnects >= 1
        assert retries >= 1
        np.testing.assert_array_equal(got, expected)

        # Not one frame — original or replayed — carries features or
        # codebooks in any byte encoding.
        wire = b"".join(sent)
        for blob in _forbidden_feature_bytes(features):
            assert blob not in wire
        for blob in _forbidden_codebook_bytes(encoder):
            assert blob not in wire

        # The replay re-framed some chunks (more scoring frames than
        # chunks) but shipped byte-identical obfuscated payloads: the
        # distinct-payload set is exactly one per chunk.  A retry that
        # re-quantized or re-masked would mint new payload bytes and
        # hand a correlating eavesdropper fresh signal.
        payloads = _sent_query_payloads(sent)
        assert len(payloads) > n_chunks
        assert len(set(payloads)) == n_chunks

    def test_severed_capture_still_parses_for_the_eavesdropper(
        self, served, encoder, features
    ):
        with CaptureProxy(served.address) as proxy:
            with SabotagedClient(
                proxy.address,
                encoder=encoder,
                proxy=proxy,
                cut_after=3,
                max_retries=2,
                connect_retries=10,
            ) as client:
                client.predict_many(features, chunk_size=4, window=4)
            for conn in proxy.connections:
                conn.wait_closed()
            captures = list(proxy.connections)

        assert len(captures) >= 2  # the cut forced a second connection
        # The severed capture may end inside a frame; strict=False
        # recovers every complete frame before the cut.
        severed = WireTrace.from_chunks(
            captures[0].to_server, captures[0].to_client, strict=False
        )
        assert severed.offered_versions  # the Hello got through
        replay = WireTrace.from_chunks(
            captures[1].to_server, captures[1].to_client, strict=False
        )
        # Across both captures the eavesdropper saw every chunk at
        # least once, yet only ever the same obfuscated bytes: the
        # distinct payloads cover exactly the chunk count.
        def payloads(trace):
            out = []
            for q in trace.query_batches():
                if isinstance(q, PackedHV):
                    out.append(q.signs.tobytes() + q.mags.tobytes())
                elif isinstance(q, LiveHV):
                    out.append(q.words.tobytes())
                else:
                    out.append(np.ascontiguousarray(q).tobytes())
            return out

        seen = payloads(severed) + payloads(replay)
        assert len(set(seen)) == N // 4
        for blob in _forbidden_feature_bytes(features):
            for chunk in captures[0].to_server + captures[1].to_server:
                assert blob not in chunk
