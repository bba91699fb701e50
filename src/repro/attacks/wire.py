"""Wire-level adversarial privacy gate: attack the bytes, not the arrays.

Everything in :mod:`repro.attacks` up to now scored leakage from
in-process arrays the attacker was politely handed.  This module closes
that gap (ROADMAP item 5): it captures the *actual byte stream* of a
live serving session and runs the paper's attacks against what a
passive eavesdropper on the edge→cloud link really sees.

Three layers:

* :class:`CaptureProxy` — a TCP tee.  A client connects to the proxy,
  the proxy connects onward to the real
  :class:`~repro.serve.ServingFrontend`, and every chunk in either
  direction is recorded *as received* (realistic segment boundaries, so
  frame reassembly is genuinely exercised) before being forwarded.
  :meth:`CaptureProxy.cut` severs a live connection mid-session — the
  eavesdropper turned saboteur, for the client-retry privacy tests.
* :class:`WireTrace` — the eavesdropper's parse of a capture: chunks are
  replayed through the same :class:`~repro.proto.wire.FrameDecoder` the
  server runs, every frame is decoded to its typed message, and the
  query payloads (packed bit planes, dense float32, or v5 live words,
  placed on the support the captured ``ModelInfo`` ``mask_seed``
  regenerates, or v6 core words, placed on the core the public
  codebooks give that support and completed with the signs they fix)
  are lifted back out exactly as an attacker would lift them.
* :func:`attack_trace` — the paper's attacks pointed at the capture:
  Eq. (10) reconstruction via :class:`~repro.attacks.decoder.HDDecoder`
  (with the eavesdropper's own mask inference and amplitude
  restoration — nothing is read from client-side state), plus the
  HDLock-style linkage attack that extracts a training record from two
  adjacent model versions (:class:`ModelDifferenceAttack`) and tries to
  match it to a captured query row.

On top sits :func:`run_privacy_gate`: one live fleet server, one
capturing proxy, and a client leg per negotiated protocol version
(v1 single / v2 batched / v3 deadline / v4 tenant / v5 live words /
v6 core words) and
per quantizer (bipolar / ternary / ternary-biased / masked), plus an
obfuscation-bypassed identity leg.  :func:`evaluate_gate` turns the
rows into pass/fail, the built-in self-test asserts the bypassed leg
*fails* the same criteria (the gate has teeth), and
:func:`compare_to_baseline` enforces the regression tolerance against
the committed ``BENCH_privacy.json``.

Determinism: every number here traces to the
:class:`~repro.attacks.fixtures.AttackWorkload` seed — the harness
draws its own randomness (surrogate probes, membership trial choice)
from named :func:`repro.utils.spawn` streams, never from module-level
generators, so the gate produces identical rows run after run.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.attacks.decoder import HDDecoder
from repro.attacks.fixtures import AttackWorkload, attack_workload
from repro.attacks.membership import ModelDifferenceAttack
from repro.attacks.metrics import mse, normalized_mse, psnr
from repro.backend.packed import (
    LiveHV,
    PackedHV,
    expand_live,
    support_of,
)
from repro.proto.messages import (
    Hello,
    ModelInfo,
    ScoreRequest,
    Welcome,
    decode_message,
    encode_message,
)
from repro.proto.wire import Frame, FrameDecoder, ProtocolError
from repro.utils import spawn

__all__ = [
    "CaptureProxy",
    "CapturedConnection",
    "WireTrace",
    "WireAttackReport",
    "GateThresholds",
    "GateConfig",
    "GateReport",
    "parse_stream",
    "attack_trace",
    "loopback_trace",
    "run_privacy_gate",
    "evaluate_gate",
    "self_test_gate",
    "compare_to_baseline",
]


# ----------------------------------------------------------------------
# the tee
# ----------------------------------------------------------------------
class CapturedConnection:
    """One proxied connection's capture: raw chunks, both directions.

    ``to_server`` / ``to_client`` hold the byte chunks exactly as the
    proxy received them — TCP segment boundaries preserved, so parsing
    a capture exercises real frame reassembly, not a convenient
    one-frame-per-chunk fiction.
    """

    def __init__(self, index: int):
        self.index = index
        self.to_server: list[bytes] = []
        self.to_client: list[bytes] = []
        self.closed = threading.Event()
        self._pumps_left = 2
        self._lock = threading.Lock()

    def _pump_done(self) -> None:
        with self._lock:
            self._pumps_left -= 1
            if self._pumps_left == 0:
                self.closed.set()

    def wait_closed(self, timeout: float = 10.0) -> None:
        """Block until both directions drained (capture is complete)."""
        if not self.closed.wait(timeout):
            raise TimeoutError(
                f"connection {self.index} still live after {timeout:g}s"
            )

    @property
    def client_bytes(self) -> int:
        """Total bytes the client put on the wire."""
        return sum(len(c) for c in self.to_server)

    @property
    def server_bytes(self) -> int:
        """Total bytes the server put on the wire."""
        return sum(len(c) for c in self.to_client)


class CaptureProxy:
    """A passive-eavesdropper TCP tee in front of a live frontend.

    Listens on an ephemeral local port; each accepted connection is
    paired with a fresh upstream connection and two pump threads copy
    bytes between them, appending every chunk to the connection's
    :class:`CapturedConnection` before forwarding it.  The proxy is
    invisible to both ends — same frames, same ordering, same
    connection lifecycle — which is exactly the position a network
    eavesdropper holds.

        with FrontendHandle(api) as handle:
            with CaptureProxy(handle.address) as proxy:
                client = PriveHDClient(proxy.address, ...)
                ...
                trace = WireTrace.from_connection(proxy.connections[-1])
    """

    def __init__(
        self, upstream: tuple[str, int], *, host: str = "127.0.0.1"
    ):
        self.upstream = (str(upstream[0]), int(upstream[1]))
        self.connections: list[CapturedConnection] = []
        self._lock = threading.Lock()
        self._live: list[tuple[socket.socket, socket.socket]] = []
        self._closed = False
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((host, 0))
        self._listen.listen(32)
        self.address: tuple[str, int] = self._listen.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="capture-proxy", daemon=True
        )
        self._accept_thread.start()

    # -- plumbing ------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                downstream, _ = self._listen.accept()
            except OSError:
                return  # listener closed
            try:
                upstream = socket.create_connection(self.upstream, timeout=10)
            except OSError:
                downstream.close()
                continue
            for sock in (downstream, upstream):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                conn = CapturedConnection(len(self.connections))
                self.connections.append(conn)
                self._live.append((downstream, upstream))
            for src, dst, chunks in (
                (downstream, upstream, conn.to_server),
                (upstream, downstream, conn.to_client),
            ):
                threading.Thread(
                    target=self._pump,
                    args=(src, dst, chunks, conn),
                    name=f"capture-pump-{conn.index}",
                    daemon=True,
                ).start()

    @staticmethod
    def _pump(src, dst, chunks: list[bytes], conn: CapturedConnection):
        try:
            while True:
                try:
                    data = src.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                chunks.append(data)
                try:
                    dst.sendall(data)
                except OSError:
                    break
            # Propagate the half-close so the other end sees EOF.
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        finally:
            conn._pump_done()

    # -- the saboteur switch -------------------------------------------
    def cut(self, index: int | None = None) -> None:
        """Sever a proxied connection (default: the newest live one).

        Both sockets are torn down immediately: the client sees a reset
        or EOF mid-conversation, which is exactly the failure the
        retry/replay path recovers from — and the capture up to the cut
        stays intact for the eavesdropper.
        """
        with self._lock:
            candidates = (
                [self._live[index]]
                if index is not None
                else [
                    pair
                    for pair, conn in zip(self._live, self.connections)
                    if not conn.closed.is_set()
                ][-1:]
            )
        if not candidates:
            raise RuntimeError("no live connection to cut")
        for pair in candidates:
            for sock in pair:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop accepting and tear down every proxied connection."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pairs = list(self._live)
        # shutdown() before close(): closing alone does not wake a
        # thread blocked in accept(), which would stall the join below.
        try:
            self._listen.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listen.close()
        except OSError:
            pass
        for pair in pairs:
            for sock in pair:
                try:
                    sock.close()
                except OSError:
                    pass
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "CaptureProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# the eavesdropper's parser
# ----------------------------------------------------------------------
def parse_stream(
    chunks, *, strict: bool = True
) -> list[tuple[Frame, object]]:
    """Reassemble one direction of a capture into typed messages.

    Runs the captured chunks through the very
    :class:`~repro.proto.wire.FrameDecoder` the server uses — arbitrary
    segment boundaries, zero-copy payload views — and decodes every
    completed frame.  ``strict`` (the default) raises
    :class:`~repro.proto.ProtocolError` if the capture ends inside a
    frame; a severed-connection capture parses with ``strict=False``
    and simply drops the trailing partial frame.
    """
    decoder = FrameDecoder()
    out: list[tuple[Frame, object]] = []
    for chunk in chunks:
        for frame in decoder.feed(bytes(chunk)):
            out.append((frame, decode_message(frame)))
    if strict and decoder.pending_bytes:
        raise ProtocolError(
            f"capture ends inside a frame ({decoder.pending_bytes} bytes "
            "buffered); pass strict=False for severed-connection traces"
        )
    return out


@dataclass
class WireTrace:
    """Everything an eavesdropper reassembles from one connection.

    Attributes
    ----------
    client_frames, server_frames:
        The raw :class:`~repro.proto.wire.Frame` sequence per direction.
    client_messages, server_messages:
        The decoded typed messages, index-aligned with the frames.
    client_bytes, server_bytes:
        Total captured payload+header bytes per direction.
    """

    client_frames: list[Frame]
    client_messages: list
    server_frames: list[Frame]
    server_messages: list
    client_bytes: int
    server_bytes: int

    @classmethod
    def from_chunks(
        cls, to_server, to_client, *, strict: bool = True
    ) -> "WireTrace":
        """Parse captured chunk lists (both directions) into a trace."""
        up = parse_stream(to_server, strict=strict)
        down = parse_stream(to_client, strict=strict)
        return cls(
            client_frames=[f for f, _ in up],
            client_messages=[m for _, m in up],
            server_frames=[f for f, _ in down],
            server_messages=[m for _, m in down],
            client_bytes=sum(len(c) for c in to_server),
            server_bytes=sum(len(c) for c in to_client),
        )

    @classmethod
    def from_connection(
        cls, conn: CapturedConnection, *, strict: bool = True
    ) -> "WireTrace":
        """Parse one :class:`CaptureProxy` connection's capture."""
        return cls.from_chunks(
            conn.to_server, conn.to_client, strict=strict
        )

    # -- what the attacker reads off the trace -------------------------
    @property
    def negotiated_version(self) -> int:
        """The protocol version the captured ``Welcome`` granted."""
        for msg in self.server_messages:
            if isinstance(msg, Welcome):
                return msg.version
        raise ValueError("no Welcome frame in this trace")

    @property
    def offered_versions(self) -> tuple[int, ...]:
        """The versions the captured ``Hello`` offered."""
        for msg in self.client_messages:
            if isinstance(msg, Hello):
                return msg.versions
        raise ValueError("no Hello frame in this trace")

    def model_info(self) -> ModelInfo | None:
        """The first captured :class:`~repro.proto.ModelInfo`, if any."""
        for msg in self.server_messages:
            if isinstance(msg, ModelInfo):
                return msg
        return None

    def query_batches(self) -> list[PackedHV | LiveHV | np.ndarray]:
        """Every scoring payload the client shipped, in wire order."""
        return [
            msg.queries
            for msg in self.client_messages
            if isinstance(msg, ScoreRequest)
        ]

    def place_live(self, queries: LiveHV, encoder=None) -> PackedHV:
        """Put captured v5 live words or v6 core words back on their
        dimensions.

        The support is public: all dimensions unless the captured
        :class:`~repro.proto.ModelInfo` carries a ``mask_seed``, else
        the keep mask that seed regenerates.  Core words lie on the
        support's dimensions some level flips, which the public
        ``encoder``'s codebooks give along with the signs every query
        carries on the other ones.  The payload's digest confirms the
        placement.
        """
        from repro.hd.prune import mask_from_seed

        info = self.model_info()
        seed = None if info is None else info.mask_seed
        n_masked = 0 if seed is None else info.n_masked
        keep = mask_from_seed(queries.d, n_masked, seed or 0)
        support, digest = support_of(keep)
        if digest == queries.digest:
            return expand_live(queries, support)
        plan = None
        if hasattr(encoder, "_column_plan"):
            plan = encoder._column_plan(keep)
        if plan is None or plan.core_digest != queries.digest:
            raise ValueError(
                "the captured live words lie on no support the captured "
                "ModelInfo and the public codebooks give"
            )
        signs = expand_live(queries, plan.core).signs | plan.fixed_signs
        mags = np.repeat(support[None, :], queries.n, axis=0)
        return PackedHV(signs, mags, queries.d)

    def query_rows(self, encoder=None) -> np.ndarray:
        """All captured query hypervectors as one dense float64 block.

        Packed payloads are unpacked exactly (bit planes round-trip,
        live and core words are placed by :meth:`place_live`, core
        words with the public ``encoder``); dense payloads are widened
        from their wire float32.  Row order is wire order — for a
        pipelined client, request-send order.
        """
        batches = self.query_batches()
        if not batches:
            raise ValueError("no scoring frames in this trace")
        blocks = [
            self.place_live(q, encoder).unpack(np.float64)
            if isinstance(q, LiveHV)
            else q.unpack(np.float64)
            if isinstance(q, PackedHV)
            else np.asarray(q, dtype=np.float64)
            for q in batches
        ]
        return np.concatenate(blocks, axis=0)

    @property
    def packed_on_wire(self) -> bool:
        """Whether the captured scoring payloads were bit-packed."""
        batches = self.query_batches()
        return bool(batches) and all(
            isinstance(q, (PackedHV, LiveHV)) for q in batches
        )


# ----------------------------------------------------------------------
# attacks on the capture
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WireAttackReport:
    """Leakage measured from one captured session (one gate row).

    ``psnr_db`` / ``nmse`` score the Eq. (10) reconstruction from the
    captured payloads against the ground-truth features;
    ``psnr_plain_db`` is the same attacker on unprotected in-process
    encodings (the paper's baseline), so ``psnr_drop_db`` is how many
    dB the obfuscation actually cost the attacker *on the wire*.
    ``membership_top1`` is the HDLock-style linkage rate: how often the
    record extracted from two adjacent model versions is correctly
    matched to its captured wire row (cosine argmax).
    """

    leg: str
    quantizer: str
    n_masked: int
    protocol_version: int
    n_queries: int
    n_frames: int
    client_bytes: int
    packed: bool
    n_live_dims: int
    psnr_plain_db: float
    psnr_db: float
    psnr_drop_db: float
    mse: float
    nmse: float
    membership_top1: float
    protected: bool

    def to_row(self) -> dict:
        """The JSON row committed to ``BENCH_privacy.json``."""
        return asdict(self)


def _infer_keep_mask(rows: np.ndarray) -> np.ndarray:
    """The eavesdropper's mask inference: dims that are *always* zero.

    The deployment mask is fixed per client (the paper's §III-C design,
    so the host cannot average it out) — which also means a masked
    dimension is zero in every captured query, and the attacker finds
    the live set empirically without ever seeing the mask seed.
    """
    return np.any(rows != 0.0, axis=0)


def _surrogate_gain(
    encoder, rows: np.ndarray, keep: np.ndarray, rng
) -> np.ndarray:
    """The eavesdropper's amplitude restoration, per captured row.

    Quantization destroys magnitudes; an informed attacker restores the
    typical encoding RMS before decoding (cf.
    ``InferenceObfuscator._attack_rescale``, which uses the *true*
    per-row RMS it holds in-process).  The eavesdropper has no truth,
    only the public encoder — so it pushes surrogate probe inputs
    through the codebooks, takes their live-dimension RMS as the
    target, and rescales each captured row to it.
    """
    probes = rng.uniform(encoder.lo, encoder.hi, (64, encoder.d_in))
    surrogate = encoder.encode(probes)
    target = float(np.sqrt(np.mean(surrogate[:, keep] ** 2)))
    live = rows[:, keep]
    row_rms = np.sqrt(np.mean(live**2, axis=1, keepdims=True))
    row_rms[row_rms == 0.0] = 1.0
    return target / row_rms


def _membership_linkage(
    rows: np.ndarray,
    workload: AttackWorkload,
    n_trials: int,
    rng,
) -> float:
    """Top-1 rate of linking extracted training records to wire rows.

    The HDLock-adjacent threat: an adversary holding two adjacent model
    versions extracts the missing record's encoding
    (:class:`ModelDifferenceAttack`), then asks *which captured query
    was that user* by cosine against every captured row.  Quantization
    preserves direction, so this stays near 1.0 even when
    reconstruction is destroyed — the honest negative result the gate
    documents (see ``docs/privacy-model.md``).
    """
    attack = ModelDifferenceAttack(workload.encoder)
    full = workload.model()
    n = workload.n
    trials = rng.choice(n, size=min(int(n_trials), n), replace=False)
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0
    hits = 0
    for target in trials:
        extracted = attack.extract(full, workload.model_without(int(target)))
        sims = rows @ extracted.encoding
        scale = np.linalg.norm(extracted.encoding)
        if scale > 0:
            sims = sims / (norms * scale)
        if int(np.argmax(sims)) == int(target):
            hits += 1
    return hits / len(trials)


def attack_trace(
    trace: WireTrace,
    workload: AttackWorkload,
    *,
    leg: str = "wire",
    quantizer: str = "bipolar",
    n_masked: int = 0,
    protected: bool = True,
    n_membership_trials: int = 8,
    rng: np.random.Generator | None = None,
) -> WireAttackReport:
    """Run the paper's attacks against one captured session.

    ``workload`` supplies the ground truth (the features the client
    actually sent, for scoring the attacker) and the public encoder
    (which the threat model concedes to the attacker).  Everything the
    attack *operates on* comes from ``trace``: the query rows, the
    empirically inferred mask, the surrogate-restored amplitudes.

    ``rng`` seeds the attacker's own randomness (surrogate probes,
    membership trial choice); defaults to the workload's
    ``wire-attack`` stream, so repeated runs are bit-identical.
    """
    if rng is None:
        rng = spawn(workload.seed, "wire-attack")
    rows = trace.query_rows(workload.encoder)
    X = workload.X
    if rows.shape[0] != X.shape[0]:
        raise ValueError(
            f"captured {rows.shape[0]} query rows but the workload has "
            f"{X.shape[0]} ground-truth records — drive the session with "
            "workload.X so rows align 1:1"
        )
    encoder = workload.encoder
    if rows.shape[1] != encoder.d_hv:
        raise ValueError(
            f"captured d_hv={rows.shape[1]} != encoder d_hv={encoder.d_hv}"
        )
    keep = _infer_keep_mask(rows)
    n_live = int(keep.sum())
    decoder = HDDecoder(encoder)
    H_plain = encoder.encode(X)
    X_plain_hat = decoder.decode(H_plain)
    # The wire tells the attacker whether amplitudes survived: packed
    # bit-plane payloads are quantized by construction (restore the RMS
    # from surrogate probes); dense float payloads carry genuine
    # magnitudes (rescaling would only add error).
    if trace.packed_on_wire:
        gain = _surrogate_gain(encoder, rows, keep, rng)
    else:
        gain = np.ones((rows.shape[0], 1))
    X_hat = decoder.decode(rows * gain, effective_d_hv=n_live)
    data_range = encoder.hi - encoder.lo
    psnr_plain = psnr(X, X_plain_hat, data_range)
    psnr_obf = psnr(X, X_hat, data_range)
    return WireAttackReport(
        leg=leg,
        quantizer=quantizer,
        n_masked=int(n_masked),
        protocol_version=trace.negotiated_version,
        n_queries=int(rows.shape[0]),
        n_frames=len(trace.client_frames),
        client_bytes=trace.client_bytes,
        packed=trace.packed_on_wire,
        n_live_dims=n_live,
        psnr_plain_db=psnr_plain,
        psnr_db=psnr_obf,
        psnr_drop_db=psnr_plain - psnr_obf,
        mse=mse(X, X_hat),
        nmse=normalized_mse(X, X_hat, X_plain_hat),
        membership_top1=_membership_linkage(
            rows, workload, n_membership_trials, rng
        ),
        protected=bool(protected),
    )


def loopback_trace(
    workload: AttackWorkload,
    *,
    quantizer: str = "bipolar",
    n_masked: int = 0,
    mask_seed: int = 0,
    version: int = 4,
    chunk_size: int = 16,
    tenant: str | None = None,
) -> WireTrace:
    """A socketless capture: the exact frames a client would ship.

    Builds the same obfuscate→pack→frame pipeline a
    :class:`~repro.client.PriveHDClient` runs and encodes the resulting
    messages with the real wire codec — then parses them back as a
    capture.  No server, no timing, no threads: the deterministic path
    the golden-leakage fixtures pin (the live gate covers the sockets).
    """
    from repro.core.inference_privacy import (
        InferenceObfuscator,
        ObfuscationConfig,
    )

    obf = InferenceObfuscator(
        workload.encoder,
        ObfuscationConfig(
            quantizer=quantizer, n_masked=n_masked, mask_seed=mask_seed
        ),
    )
    chunks = [
        encode_message(
            Hello(versions=tuple(range(1, version + 1))), version=1
        )
    ]
    X = workload.X
    for start in range(0, X.shape[0], int(chunk_size)):
        block = X[start : start + int(chunk_size)]
        queries = (
            obf.prepare_packed(block)
            if obf.quantizer.packable
            else obf.prepare(block).astype(np.float32)
        )
        msg = ScoreRequest(
            queries=queries,
            counts=(len(queries),) if version >= 2 else None,
            tenant=tenant if version >= 4 else None,
        )
        chunks.append(encode_message(msg, version=version))
    replies = [encode_message(Welcome(version=version), version=version)]
    return WireTrace.from_chunks(chunks, replies)


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GateThresholds:
    """What "still private on the wire" means, quantitatively.

    ``min_psnr_drop_db`` / ``min_nmse`` are the floor every *protected*
    leg must clear (obfuscation must demonstrably cost the attacker);
    the ``tol_*`` fields are the regression band
    :func:`compare_to_baseline` allows against the committed numbers.
    """

    min_psnr_drop_db: float = 3.0
    min_nmse: float = 1.25
    tol_psnr_db: float = 1.0
    tol_nmse_frac: float = 0.15
    tol_membership: float = 0.15


@dataclass(frozen=True)
class GateConfig:
    """The gate's workload shape and pass criteria (all seeded)."""

    d_in: int = 24
    d_hv: int = 2048
    n_queries: int = 48
    n_classes: int = 6
    seed: int = 0
    chunk_size: int = 16
    window: int = 4
    n_masked: int | None = None  # None -> d_hv // 2 on the masked leg
    n_membership_trials: int = 8
    thresholds: GateThresholds = GateThresholds()

    @property
    def mask_seed(self) -> int:
        """The masked legs' deployment mask seed."""
        return self.seed + 101

    @property
    def resolved_n_masked(self) -> int:
        """The masked leg's zeroed-dimension count."""
        return self.d_hv // 2 if self.n_masked is None else int(self.n_masked)

    def workload(self, encoder: str = "scalar-base") -> AttackWorkload:
        """The seeded ground-truth scenario the legs drive (the core
        legs drive its level-base twin: only a flip chain fixes signs)."""
        return attack_workload(
            d_in=self.d_in,
            d_hv=self.d_hv,
            n=self.n_queries,
            n_classes=self.n_classes,
            encoder=encoder,
            seed=self.seed,
        )

    def identity_dict(self) -> dict:
        """The fields a baseline must match exactly to be comparable."""
        return {
            "d_in": self.d_in,
            "d_hv": self.d_hv,
            "n_queries": self.n_queries,
            "n_classes": self.n_classes,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "n_membership_trials": self.n_membership_trials,
        }


_V4 = (1, 2, 3, 4)
_V5 = (*_V4, 5)

#: one client session per row: (leg, offered versions [None = all],
#: quantizer, masked?, tenant [None = server default], deadline_ms,
#: protected?).  v1–v3 address the default tenant (the protected
#: bipolar artifact); v4 legs address tenants explicitly, including the
#: obfuscation-bypassed identity leg against the dense full-precision
#: tenant — the self-test's foil.  The v5 leg masks like the pruned
#: tenant it addresses, so its queries ship as live words.  The
#: ``level`` legs drive the level-base twin workload against its pruned
#: tenant, which holds a core: at v5 the rows ship as live words, at
#: v6 as core words only — the same rows, so the same leakage.
_LEG_SPECS: tuple = (
    ("v1-bipolar", (1,), "bipolar", False, None, None, True),
    ("v2-bipolar", (1, 2), "bipolar", False, None, None, True),
    ("v3-bipolar", (1, 2, 3), "bipolar", False, None, 10_000, True),
    ("v4-bipolar", _V4, "bipolar", False, "protected", None, True),
    ("v4-ternary", _V4, "ternary", False, "protected", None, True),
    (
        "v4-ternary-biased",
        _V4,
        "ternary-biased",
        False,
        "protected",
        None,
        True,
    ),
    ("v4-masked", _V4, "bipolar", True, "protected", None, True),
    ("v4-identity", _V4, "identity", False, "plain", None, False),
    ("v5-masked", _V5, "bipolar", True, "masked", None, True),
    ("v5-level-masked", _V5, "bipolar", True, "level", None, True),
    ("v6-level-core", None, "bipolar", True, "level", None, True),
)


@dataclass
class GateReport:
    """The gate's full verdict: rows, violations, and the teeth proof."""

    config: GateConfig
    rows: list[WireAttackReport]
    violations: list[str] = field(default_factory=list)
    self_test: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Protected legs clear the floor AND the bypassed leg fails it."""
        return not self.violations and bool(
            self.self_test.get("failed_as_expected")
        )

    def to_dict(self) -> dict:
        """The committed ``BENCH_privacy.json`` document."""
        return {
            "schema": 1,
            "config": self.config.identity_dict(),
            "thresholds": asdict(self.config.thresholds),
            "rows": [row.to_row() for row in self.rows],
            "violations": list(self.violations),
            "self_test": dict(self.self_test),
            "passed": self.passed,
        }


def _row_violations(row: WireAttackReport, t: GateThresholds) -> list[str]:
    out = []
    if row.psnr_drop_db < t.min_psnr_drop_db:
        out.append(
            f"{row.leg}: PSNR drop {row.psnr_drop_db:.2f} dB on the wire "
            f"< required {t.min_psnr_drop_db:.2f} dB (attacker reconstructs "
            f"at {row.psnr_db:.2f} dB vs {row.psnr_plain_db:.2f} dB plain)"
        )
    if row.nmse < t.min_nmse:
        out.append(
            f"{row.leg}: normalized MSE {row.nmse:.3f} < required "
            f"{t.min_nmse:.3f} (obfuscation destroyed too little)"
        )
    return out


def evaluate_gate(
    rows, thresholds: GateThresholds | None = None
) -> list[str]:
    """Violations across every *protected* row (empty = gate passes)."""
    t = thresholds or GateThresholds()
    return [
        v
        for row in rows
        if row.protected
        for v in _row_violations(row, t)
    ]


def self_test_gate(
    rows, thresholds: GateThresholds | None = None
) -> dict:
    """Prove the gate has teeth on the obfuscation-bypassed rows.

    Judges every unprotected row *as if it were protected*; if none
    violates, the gate's criteria are vacuous and the self-test fails
    the whole run.
    """
    t = thresholds or GateThresholds()
    bypassed = [row for row in rows if not row.protected]
    found = [v for row in bypassed for v in _row_violations(row, t)]
    return {
        "bypassed_legs": [row.leg for row in bypassed],
        "violations": found,
        "failed_as_expected": bool(bypassed) and bool(found),
    }


def run_privacy_gate(config: GateConfig | None = None, *, log=None) -> GateReport:
    """The whole tentpole: live server, capturing proxy, all-version attack.

    Starts one real :class:`~repro.serve.ServingAPI` fleet frontend with
    a protected (bipolar/packed) tenant and an unprotected
    (dense/full-precision) tenant, puts a :class:`CaptureProxy` in
    front of it, then drives one :class:`~repro.client.PriveHDClient`
    session per leg of :data:`_LEG_SPECS` — every negotiated protocol
    version v1–v6, every packable quantizer, the masked deployment, and
    the obfuscation-bypassed identity foil, a v5 leg whose masked
    queries travel as live words to a tenant pruned to the same mask,
    and a v5/v6 pair on the level-base twin workload whose v6 rows
    travel as core words.
    Each session's capture is
    parsed and attacked by :func:`attack_trace`; the rows feed
    :func:`evaluate_gate` and the built-in self-test.

    ``log`` (optional callable) receives one progress line per leg.
    """
    from repro.serve import (
        FrontendHandle,
        ModelArtifact,
        ModelFleet,
        ServingAPI,
    )

    cfg = config or GateConfig()
    workload = cfg.workload()
    model = workload.model()
    protected_artifact = ModelArtifact.build(
        model, quantizer="bipolar", backend="packed", encoder=workload.encoder
    )
    plain_artifact = ModelArtifact.build(
        model, quantizer=None, backend="dense", encoder=workload.encoder
    )
    from repro.hd.prune import mask_from_seed

    keep = mask_from_seed(cfg.d_hv, cfg.resolved_n_masked, cfg.mask_seed)
    masked_artifact = ModelArtifact.build(
        model,
        quantizer="bipolar",
        backend="packed",
        encoder=workload.encoder,
        keep_mask=keep,
        mask_seed=cfg.mask_seed,
    )
    level = cfg.workload("level-base")
    level_artifact = ModelArtifact.build(
        level.model(),
        quantizer="bipolar",
        backend="packed",
        encoder=level.encoder,
        keep_mask=keep,
        mask_seed=cfg.mask_seed,
    )
    fleet = ModelFleet(default_tenant="protected")
    fleet.add_tenant("protected", protected_artifact)
    fleet.add_tenant("plain", plain_artifact)
    fleet.add_tenant("masked", masked_artifact)
    fleet.add_tenant("level", level_artifact)
    api = ServingAPI(fleet)
    rows: list[WireAttackReport] = []
    try:
        with FrontendHandle(api) as handle:
            with CaptureProxy(handle.address) as proxy:
                for spec in _LEG_SPECS:
                    leg_workload = level if spec[4] == "level" else workload
                    rows.append(_run_leg(proxy, leg_workload, cfg, spec))
                    if log is not None:
                        r = rows[-1]
                        log(
                            f"{r.leg}: v{r.protocol_version} "
                            f"{r.n_frames} frames / {r.client_bytes} B, "
                            f"psnr {r.psnr_db:.2f} dB "
                            f"(plain {r.psnr_plain_db:.2f}), "
                            f"nmse {r.nmse:.2f}, "
                            f"membership {r.membership_top1:.2f}"
                        )
    finally:
        api.close()
    return GateReport(
        config=cfg,
        rows=rows,
        violations=evaluate_gate(rows, cfg.thresholds),
        self_test=self_test_gate(rows, cfg.thresholds),
    )


def _run_leg(proxy, workload, cfg: GateConfig, spec) -> WireAttackReport:
    """One client session through the tee, attacked from its capture."""
    from repro.client import PriveHDClient
    from repro.core.inference_privacy import ObfuscationConfig

    leg, versions, quantizer, masked, tenant, deadline_ms, protected = spec
    n_masked = cfg.resolved_n_masked if masked else 0
    obfuscation = ObfuscationConfig(
        quantizer=quantizer, n_masked=n_masked, mask_seed=cfg.mask_seed
    )
    before = len(proxy.connections)
    with PriveHDClient(
        proxy.address,
        encoder=workload.encoder,
        obfuscation=obfuscation,
        tenant=tenant,
        versions=versions,
        deadline_ms=deadline_ms,
        connect_retries=3,
    ) as client:
        negotiated = client.protocol_version
        predictions = client.predict_many(
            workload.X, chunk_size=cfg.chunk_size, window=cfg.window
        )
    if predictions.shape[0] != workload.n:
        raise RuntimeError(
            f"leg {leg}: served {predictions.shape[0]} predictions for "
            f"{workload.n} queries"
        )
    conn = proxy.connections[before]
    conn.wait_closed()
    trace = WireTrace.from_connection(conn)
    if trace.negotiated_version != negotiated:
        raise RuntimeError(
            f"leg {leg}: capture shows v{trace.negotiated_version} but the "
            f"client negotiated v{negotiated} — the tee is not transparent"
        )
    return attack_trace(
        trace,
        workload,
        leg=leg,
        quantizer=quantizer,
        n_masked=n_masked,
        protected=protected,
        n_membership_trials=cfg.n_membership_trials,
    )


# ----------------------------------------------------------------------
# regression against the committed baseline
# ----------------------------------------------------------------------
def compare_to_baseline(current: dict, baseline: dict) -> list[str]:
    """Leakage regressions of ``current`` vs the committed baseline.

    Both arguments are :meth:`GateReport.to_dict` documents.  The
    tolerance band comes from the *baseline* (the committed contract,
    not whatever the current build says).  A regression is leakage
    moving toward the attacker beyond tolerance: PSNR up, normalized
    MSE down, membership linkage up.  Improvements never fail; refresh
    the baseline deliberately with ``prive-hd privacy-gate
    --update-baseline``.
    """
    problems: list[str] = []
    base_cfg = baseline.get("config", {})
    cur_cfg = current.get("config", {})
    if base_cfg != cur_cfg:
        return [
            "gate config does not match the baseline "
            f"(baseline {base_cfg} vs current {cur_cfg}); regenerate with "
            "--update-baseline"
        ]
    t = baseline.get("thresholds", {})
    tol_psnr = float(t.get("tol_psnr_db", 1.0))
    tol_nmse = float(t.get("tol_nmse_frac", 0.15))
    tol_member = float(t.get("tol_membership", 0.15))
    base_rows = {row["leg"]: row for row in baseline.get("rows", [])}
    cur_rows = {row["leg"]: row for row in current.get("rows", [])}
    for leg, base in base_rows.items():
        cur = cur_rows.get(leg)
        if cur is None:
            problems.append(f"{leg}: present in baseline but not attacked now")
            continue
        if not base.get("protected", True):
            continue
        if cur["psnr_db"] > base["psnr_db"] + tol_psnr:
            problems.append(
                f"{leg}: wire reconstruction improved to "
                f"{cur['psnr_db']:.2f} dB (baseline {base['psnr_db']:.2f} "
                f"+ {tol_psnr:g} tolerance) — more leakage"
            )
        if cur["nmse"] < base["nmse"] * (1.0 - tol_nmse):
            problems.append(
                f"{leg}: normalized MSE fell to {cur['nmse']:.3f} "
                f"(baseline {base['nmse']:.3f} - {tol_nmse:.0%}) — "
                "obfuscation destroys less"
            )
        if cur["membership_top1"] > base["membership_top1"] + tol_member:
            problems.append(
                f"{leg}: membership linkage rose to "
                f"{cur['membership_top1']:.2f} (baseline "
                f"{base['membership_top1']:.2f} + {tol_member:g})"
            )
    return problems
