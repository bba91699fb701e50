"""The edge-side client: encode + obfuscate locally, ship bit planes.

:class:`PriveHDClient` is the trusted half of the §III-C split.  It owns
the encoder (codebooks never leave this process) and an
:class:`~repro.core.InferenceObfuscator` (quantize + mask, the paper's
turnkey inference defense), talks the versioned binary protocol of
:mod:`repro.proto` to a remote :class:`~repro.serve.ServingFrontend`,
and — **by construction** — cannot put raw features on the wire:

* :meth:`predict` runs features through encode → quantize → mask →
  bit-pack *before* anything touches a frame; the only array the frame
  encoder ever receives is a ``d_hv``-dimensional hypervector batch;
* the protocol itself has no message that could carry a ``(d_in,)``
  feature vector, a codebook, or an encoder config —
  :func:`repro.proto.encode_message` serializes its closed vocabulary
  and nothing else;
* the client validates every encoded batch against the server's
  negotiated ``d_hv`` at the API boundary, so features passed to the
  wrong method fail loudly instead of leaking quietly.

``tests/client/test_privacy_boundary.py`` sniffs the actual bytes this
class emits and asserts neither the feature values nor any codebook
plane appears in any frame.

    >>> enc = encoder_from_config(manifest["encoder"])   # client-side
    >>> with PriveHDClient("127.0.0.1:7411", encoder=enc) as client:
    ...     client.model_info().backend
    'packed'
    ...     client.predict(X)                  # ships packed bit planes
"""

from __future__ import annotations

import random
import socket
import time
from collections import deque
from dataclasses import replace as dataclass_replace

import numpy as np

from repro.backend.packed import (
    LiveHV,
    PackedHV,
    support_of,
)
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd.encoder import Encoder, encoder_from_config
from repro.proto.messages import (
    ErrorReply,
    Hello,
    ModelInfo,
    ModelInfoRequest,
    ScoreRequest,
    ScoreResponse,
    Welcome,
    decode_message,
)
from repro.proto.session import WireSession, parse_address, sendmsg_all
from repro.proto.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    SUPPORTED_VERSIONS,
    ProtocolError,
)
from repro.serve.errors import TenantNotFound
from repro.utils.validation import check_2d

__all__ = ["PriveHDClient", "ServerError", "parse_address"]


class ServerError(RuntimeError):
    """A typed :class:`~repro.proto.ErrorReply` from the server.

    Attributes
    ----------
    code:
        The machine-readable error code
        (one of :data:`repro.proto.ERROR_CODES`).
    retryable:
        Whether backing off and resending the same request can succeed
        (today: ``overloaded`` — the server shed load, it did not fail).
        A client constructed with ``max_retries > 0`` handles these
        itself; this surfaces only when retries are exhausted or
        disabled.
    """

    def __init__(self, reply: ErrorReply):
        super().__init__(f"[{reply.code}] {reply.message}")
        self.code = reply.code
        self.reply = reply

    @property
    def retryable(self) -> bool:
        """True when backing off and retrying the request can succeed."""
        return self.reply.retryable


class PriveHDClient:
    """Synchronous protocol client bound to a local encoder + obfuscator.

    Parameters
    ----------
    address:
        ``"host:port"`` or ``(host, port)`` of a
        :class:`~repro.serve.ServingFrontend`.
    encoder:
        The client-side encoder (or an
        :meth:`~repro.hd.encoder.Encoder.config` dict to rebuild one —
        e.g. read from the artifact manifest the *deployment* shared
        with this edge device; the server never transmits it).  Without
        an encoder only the ``*_encoded`` methods work.
    obfuscation:
        Quantize/mask parameters of the client-side defense; the
        default quantizes to bipolar with no masking.  For a pruned
        (§III-B) model the deployment shares ``mask_seed``/``n_masked``
        so the client masks exactly the server's dead dimensions.
    model:
        Registry model name to score against (``None`` = the server's
        default).
    tenant:
        Fleet tenant to address (protocol v4; ``None`` = the server's
        default tenant, which is also what every pre-v4 request
        implicitly asks for).  A tenant-addressed client refuses to
        operate on a connection negotiated below v4 — silently falling
        back to the default tenant would answer from the *wrong
        model*, so the mismatch raises a typed
        :class:`~repro.proto.ProtocolError` at connect instead.  A
        server that does not host the key answers the non-retryable
        ``"unknown-tenant"`` code, re-raised here as
        :class:`~repro.serve.TenantNotFound`.
    timeout:
        Socket timeout (seconds) for connect and each reply.
    connect_retries, retry_delay_s:
        Reconnect attempts while the server is still binding — what a
        CLI racing a just-started frontend needs.
    max_retries:
        In-band resilience budget *per request*: how many times one
        logical request may be resent after a retryable failure.  Two
        failure classes retry; nothing else does:

        * a typed ``overloaded`` reply — the server shed load; the
          client honors its ``retry_after_ms`` hint (never sleeping
          less), layered with exponential backoff;
        * a lost connection — the client reconnects, re-handshakes, and
          resends every request it never got an answer for.  This is
          safe because every message this client sends is an
          idempotent, stateless read (score/metadata) — resending a
          request whose reply was lost cannot double-apply anything.

        ``0`` (the default) keeps the historical fail-fast behavior.
    backoff_base_s, backoff_max_s, backoff_jitter:
        Retry pacing: attempt ``k`` waits
        ``min(base * 2**(k-1), max)`` plus a uniform jitter of up to
        ``backoff_jitter`` of that (decorrelates a thundering herd of
        clients all told to retry at once).  ``retry_after_ms`` from
        the server acts as a floor on the wait.
    deadline_ms:
        Default end-to-end deadline stamped on every scoring request
        (protocol v3+).  The server drops a request still queued past
        its deadline and answers ``deadline-exceeded`` instead of
        scoring stale work; older servers ignore it.
    versions:
        Protocol versions to offer in the ``Hello`` (default: every
        version this build speaks).  Pinning ``(1,)`` forces the v1
        dialect against any server — the cross-version tests' knob.

    Attributes
    ----------
    protocol_version:
        The negotiated wire version (from the server's ``Welcome``).
    info:
        The served model's :class:`~repro.proto.ModelInfo`, fetched at
        connect; ``d_hv``/backend checks run against it.  On a v2
        connection to a pruned model whose artifact recorded its
        deployment ``mask_seed``, a default-masked obfuscator is
        upgraded automatically to mask exactly the server's dead
        dimensions — no out-of-band mask channel needed.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        encoder: Encoder | dict | None = None,
        obfuscation: ObfuscationConfig | None = None,
        model: str | None = None,
        tenant: str | None = None,
        timeout: float = 30.0,
        connect_retries: int = 0,
        retry_delay_s: float = 0.25,
        max_retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        backoff_jitter: float = 0.1,
        deadline_ms: int | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        versions: tuple[int, ...] | None = None,
    ):
        self.host, self.port = parse_address(address)
        self.model = model
        self.tenant = tenant
        self.timeout = timeout
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base_s <= 0 or backoff_max_s <= 0 or backoff_jitter < 0:
            raise ValueError(
                "backoff_base_s/backoff_max_s must be > 0 and "
                "backoff_jitter >= 0"
            )
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.backoff_jitter = backoff_jitter
        self.deadline_ms = deadline_ms
        self.reconnects = 0
        self.retries = 0
        self._rng = random.Random()
        self.max_frame_bytes = max_frame_bytes
        self.versions = (
            tuple(SUPPORTED_VERSIONS)
            if versions is None
            else tuple(sorted(int(v) for v in versions))
        )
        if not set(self.versions) <= set(SUPPORTED_VERSIONS):
            raise ValueError(
                f"this build only speaks versions {SUPPORTED_VERSIONS}, "
                f"cannot offer {self.versions}"
            )
        self._request_id = 0
        self._session = WireSession(
            "client", max_frame_bytes=max_frame_bytes
        )
        if isinstance(encoder, dict):
            encoder = encoder_from_config(encoder)
        self.encoder = encoder
        self.obfuscator: InferenceObfuscator | None = None
        if encoder is None and obfuscation is not None:
            raise ValueError(
                "obfuscation parameters need an encoder to apply to"
            )

        self._connect_retries = connect_retries
        self._retry_delay_s = retry_delay_s
        self._sock = self._connect(connect_retries, retry_delay_s)
        try:
            self.protocol_version, self.server_info = self._handshake()
            self._check_tenant_capability()
            self.info = self.model_info(model)
        except BaseException:
            self._sock.close()
            raise
        self._live_digest = self._served_support_digest()
        if encoder is not None:
            try:
                if encoder.d_hv != self.info.d_hv:
                    raise ValueError(
                        f"client encoder produces {encoder.d_hv}-dim "
                        f"hypervectors but the server serves "
                        f"d_hv={self.info.d_hv}"
                    )
                self.obfuscator = InferenceObfuscator(
                    encoder,
                    self._served_obfuscation(obfuscation or ObfuscationConfig()),
                )
            except BaseException:
                self.close()
                raise

    def _served_obfuscation(self, config: ObfuscationConfig) -> ObfuscationConfig:
        """Mask like the server, from the wire-shared seed (v2).

        A pruned (§III-B) model only answers correctly when the client
        zeroes exactly the server's dead dimensions.  When the served
        artifact recorded its deployment ``mask_seed`` (and the
        connection speaks v2, so :class:`~repro.proto.ModelInfo`
        carries it), a config left at the default *unmasked* setting
        takes that mask, regenerated locally — closing the ROADMAP's
        out-of-band-channel gap.  An explicitly configured mask
        (``n_masked > 0``) is always respected as given.
        """
        if (
            not self.info.is_pruned
            or self.info.mask_seed is None
            or config.n_masked != 0
        ):
            return config
        return dataclass_replace(
            config, n_masked=self.info.n_masked, mask_seed=self.info.mask_seed
        )

    # ------------------------------------------------------------------
    # transport
    def _served_support_digest(self) -> int | None:
        """Digest of the support the server places live words on.

        All dimensions for an unpruned model, the keep mask its
        ``mask_seed`` regenerates for a pruned one; ``None`` when
        :class:`~repro.proto.ModelInfo` does not determine it (a pruned
        model without a seed), in which case queries ship as planes.
        """
        from repro.hd.prune import mask_from_seed

        info = self.info
        if not info.is_pruned:
            keep = mask_from_seed(info.d_hv, 0, 0)
        elif info.mask_seed is not None:
            keep = mask_from_seed(info.d_hv, info.n_masked, info.mask_seed)
        else:
            return None
        return support_of(keep)[1]

    def _is_core(self, queries) -> bool:
        """Whether ``queries`` are core words on the core the server
        named last (:attr:`~repro.proto.ModelInfo.core_digest`)."""
        return isinstance(queries, LiveHV) and (
            queries.digest == self.info.core_digest
        )

    def _core_dropped(self) -> bool:
        """Re-read the model after it refused core words (:meth:`_is_core`).

        A model republished without that core (an artifact built
        without the encoder, say) answers them with ``bad-request``.
        Returns whether the fresh :class:`~repro.proto.ModelInfo` no
        longer names it: then the same rows can go again, as live
        words or planes (:meth:`_on_wire`).  Needs no request in flight.
        """
        digest = self.info.core_digest
        self.info = self.model_info()
        self._live_digest = self._served_support_digest()
        return self.info.core_digest != digest

    def _on_wire(self, queries):
        """What of encoded ``queries`` ships: the fewest bits the server
        places (rows this client encodes pick theirs before packing,
        :meth:`_wire_words`).

        Core words on the core the server holds (protocol v6
        :attr:`~repro.proto.ModelInfo.core_digest`) ship alone; live
        words on another support (a client masking on its own against
        an unpruned model, say) ship as the planes instead.
        """
        if not isinstance(queries, PackedHV):
            return queries
        core = queries.core
        if core is not None and core.digest == self.info.core_digest:
            return core
        live = queries.live
        if live is not None and live.digest != self._live_digest:
            return PackedHV(queries.signs, queries.mags, queries.d)
        return queries

    # ------------------------------------------------------------------
    def _connect(self, retries: int, delay_s: float) -> socket.socket:
        last: Exception | None = None
        for attempt in range(retries + 1):
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                # Request/response frames are small; Nagle + delayed ACK
                # would serialize them at ~25 q/s per connection.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError as exc:
                last = exc
                if attempt < retries:
                    time.sleep(delay_s)
        raise ConnectionError(
            f"could not connect to {self.host}:{self.port} after "
            f"{retries + 1} attempt(s): {last}"
        ) from last

    def _send_frame(self, data) -> None:
        """The single point where bytes leave the client (tests hook it)."""
        self._sock.sendall(data)

    def _send_message(self, message, *, version: int | None = None) -> None:
        """Encode + send one message, vectored (zero-copy fast path).

        The session stages header + scalars in its reusable scratch and
        hands back an iovec-style parts list; ``sendmsg`` gathers it —
        packed bit planes leave by reference, never concatenated in
        userspace.  A subclass that hooks :meth:`_send_frame` (the
        privacy tests sniff every frame there) still sees each frame
        whole: the vectored path steps aside whenever the hook is
        overridden.
        """
        parts = self._session.send_parts(message, version=version)
        if type(self)._send_frame is not PriveHDClient._send_frame:
            self._send_frame(b"".join(parts))
            return
        sendmsg_all(self._sock, parts)

    def _read_message(self):
        """The next message off the stream, via the shared WireSession.

        Pull-mode zero-copy reads: the session hands out the buffer to
        ``recv_into`` — between frames a fresh 64 KiB chunk (one recv
        usually captures a whole response frame, and payload views
        alias it with no copy), mid-payload the frame's own assembly
        buffer (large replies stream from the kernel straight to their
        final resting place).  Framing errors surface as
        :class:`ProtocolError` exactly as they do server-side, because
        both ends run the same sans-io core.
        """
        while True:
            frame = self._session.next_frame()
            if frame is not None:
                return decode_message(frame)
            buf = self._session.recv_buffer(65536)
            n = self._sock.recv_into(buf)
            if not n:
                raise ConnectionError(
                    "server closed the connection mid-frame"
                )
            self._session.commit(n)

    def _backoff(
        self, attempt: int, *, retry_after_ms: int | None = None
    ) -> None:
        """Sleep before retry ``attempt`` (1-based).

        Exponential in the attempt number, capped, jittered, and
        floored by the server's ``retry_after_ms`` hint when present —
        the server knows its drain rate better than we do.
        """
        delay = min(
            self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_max_s
        )
        if self.backoff_jitter:
            delay += self._rng.uniform(0, delay * self.backoff_jitter)
        if retry_after_ms is not None:
            delay = max(delay, retry_after_ms / 1e3)
        time.sleep(delay)

    def _reconnect(self) -> None:
        """Re-establish the connection and re-handshake.

        The wire session — buffered bytes, half-read frames, negotiated
        version — is discarded with the dead socket: replies can only
        be trusted within the connection that produced them, and the
        new connection negotiates from scratch.
        """
        self.close()
        self._session = WireSession(
            "client", max_frame_bytes=self.max_frame_bytes
        )
        self._sock = self._connect(
            self._connect_retries, self._retry_delay_s
        )
        self.protocol_version, self.server_info = self._handshake()
        self._check_tenant_capability()
        self.reconnects += 1

    def _check_tenant_capability(self) -> None:
        """Fail typed, not wrong, when a tenant needs a v4 connection.

        The v4 codec *drops* the tenant key when writing at an older
        version (so hand-built frames stay valid), which means a
        tenant-addressed request sent over a v3 connection would be
        answered by the server's default tenant — the wrong model,
        silently.  This client refuses that outcome up front.
        """
        if self.tenant is not None and self.protocol_version < 4:
            raise ProtocolError(
                f"tenant {self.tenant!r} needs protocol v4 but the "
                f"server negotiated v{self.protocol_version}; a pre-v4 "
                "server would silently answer from its default tenant"
            )

    def _deadline_ms(self) -> int | None:
        """The deadline to stamp on scoring requests (v3+ only)."""
        if self.protocol_version < 3:
            return None
        return self.deadline_ms

    def _handshake(self) -> tuple[int, Welcome]:
        # The Hello itself is a v1-layout frame stamped with the lowest
        # offered version, so even a v1-only server can parse the offer.
        self._send_message(
            Hello(versions=self.versions), version=min(self.versions)
        )
        reply = self._read_message()
        if isinstance(reply, ErrorReply):
            raise ServerError(reply)
        if not isinstance(reply, Welcome):
            raise ProtocolError(
                f"expected Welcome after Hello, got {type(reply).__name__}"
            )
        if reply.version not in self.versions:
            raise ProtocolError(
                f"server negotiated unsupported version {reply.version}"
            )
        self._session.adopt_version(reply.version)
        return reply.version, reply

    def _typed_error(self, reply: ErrorReply) -> Exception:
        """The exception a non-retryable error reply raises.

        ``unknown-tenant`` becomes the same
        :class:`~repro.serve.TenantNotFound` the server raised — typed
        and non-retryable, so a caller can tell "this tenant does not
        exist" from every other server error without string matching.
        """
        if reply.code == "unknown-tenant":
            return TenantNotFound(reply.message, tenant=self.tenant)
        return ServerError(reply)

    def _next_id(self) -> int:
        self._request_id = (self._request_id + 1) % (1 << 32)
        return self._request_id

    # ------------------------------------------------------------------
    # feature entry points (encode + obfuscate locally)
    # ------------------------------------------------------------------
    def _prepare_wire_queries(self, X: np.ndarray):
        """Features → the obfuscated hypervector batch that ships.

        Packable quantizers (the paper's default) ship bits: two uint64
        bit planes — the 16×-smaller payload — or, when the server
        places them, live or core words (:meth:`_wire_words`), and only
        that word set is packed.  Non-packable ones (e.g. ``identity``
        for an explicitly unprotected run) ship dense float32
        encodings.  Raw ``X`` never reaches a frame either way.
        """
        if self.obfuscator is None:
            raise ValueError(
                "this client has no encoder; construct it with "
                "PriveHDClient(..., encoder=...) to send raw features, or "
                "use predict_encoded() with pre-encoded hypervectors"
            )
        X = check_2d(X, "features")
        if X.shape[1] != self.encoder.d_in:
            raise ValueError(
                f"features have {X.shape[1]} columns but the encoder "
                f"expects d_in={self.encoder.d_in}"
            )
        if self.obfuscator.quantizer.packable:
            return self.obfuscator.prepare_packed(X, words=self._wire_words())
        return self.obfuscator.prepare(X).astype(np.float32)

    def _wire_words(self) -> str:
        """What this client's rows ship as, the fewest bits the server
        places: core words to a server holding the core they are packed
        on (v6), live words on the support the server serves (v5), else
        the planes.  Read at each send, so a fresh
        :class:`~repro.proto.ModelInfo` changes it."""
        obf = self.obfuscator
        core = self.info.core_digest
        if core is not None and core == obf.core_digest:
            return "core"
        live = obf.live_digest
        if self.protocol_version >= 5 and live is not None and (
            live == self._live_digest
        ):
            return "live"
        return "planes"

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels for raw features; only obfuscated bits cross the wire."""
        return self._score(lambda: self._prepare_wire_queries(X)).predictions

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Eq. (4) score matrix for raw features (obfuscated on-wire)."""
        return self._score(
            lambda: self._prepare_wire_queries(X), want_scores=True
        ).scores

    # ------------------------------------------------------------------
    # encoded entry points (caller already holds hypervectors)
    # ------------------------------------------------------------------
    def _check_d_hv(self, widths: set) -> None:
        if widths != {self.info.d_hv}:
            raise ValueError(
                f"encoded queries must have d_hv={self.info.d_hv} "
                f"dimensions, got {sorted(widths)} — raw features do not "
                "belong here"
            )

    def predict_encoded(self, queries) -> np.ndarray:
        """Labels for already-encoded queries (dense or ``PackedHV``).

        The caller is responsible for having quantized/masked to match
        the served model (e.g. via an
        :class:`~repro.core.InferenceObfuscator`); dimensionality is
        validated against the server's ``d_hv``.
        """
        return self._score(lambda: self._stack_group([queries])[0]).predictions

    def scores_encoded(self, queries) -> np.ndarray:
        """Score matrix for already-encoded queries."""
        return self._score(
            lambda: self._stack_group([queries])[0], want_scores=True
        ).scores

    # ------------------------------------------------------------------
    # the request loop every call rides
    # ------------------------------------------------------------------
    def _score(
        self, make_queries, *, want_scores: bool = False
    ) -> ScoreResponse:
        """One request of ``make_queries()``, built at each send — so
        after a core refusal it is built again under the fresh
        :class:`~repro.proto.ModelInfo` (:meth:`_pipelined_requests`)."""
        [reply] = self._pipelined_requests(
            1, 1,
            lambda _, rid: self._score_message(
                make_queries(), rid, want_scores=want_scores
            ),
            ScoreResponse,
        )
        return reply

    def _score_message(
        self, queries, rid: int, *, want_scores: bool = False, counts=None
    ) -> ScoreRequest:
        """Every scoring frame this client sends.

        With ``counts`` (the rows of each stacked sub-batch) it travels
        as a protocol-v2 batch frame.
        """
        return ScoreRequest(
            queries,
            counts,
            model=self.model,
            want_scores=want_scores,
            request_id=rid,
            deadline_ms=self._deadline_ms(),
            tenant=self.tenant,
        )

    def _pipelined_requests(
        self, n_items: int, window: int, build_message, expected: type,
        restack=None,
    ) -> list:
        """The one send/receive/recover loop every request rides.

        Single calls (:meth:`predict`, :meth:`model_info`, ...) are one
        item at window 1; bulk calls keep up to ``window`` frames in
        flight over this one connection and match replies to requests
        by correlation id (the server may reorder).
        ``build_message(index, request_id)`` produces the item's request
        lazily at each send — so e.g. client-side encoding of chunk
        ``i+window`` overlaps the server scoring chunk ``i``.  A reply
        that is not an ``expected`` instance (beyond the always-raised
        :class:`ServerError`), or does not echo its request's
        ``counts``, fails the stream as a protocol violation.
        Returns the reply messages in item order.

        With ``max_retries > 0`` the window self-heals: an
        ``overloaded`` reply re-queues just that item after its
        ``retry_after_ms``; a dead connection reconnects and replays
        every unacknowledged item (safe — all idempotent reads), each
        with a per-item attempt budget.

        Core words refused with ``bad-request`` (the model was
        republished without that core) hold further sends until the
        window drains; then :meth:`_core_dropped` re-reads the model,
        ``restack()`` (when given) rebuilds what ``build_message``
        reads, and the refused items go again as live words or planes.
        The re-read is its own one-item exchange with its own budget,
        so a connection lost there is final.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        out: list = [None] * n_items
        index_of: dict[int, int] = {}
        attempts = [0] * n_items
        to_send: deque[int] = deque(range(n_items))
        completed = 0
        core_ids: set[int] = set()  # in-flight requests of core words
        counts_of: dict[int, tuple | None] = {}  # what each reply echoes
        refused = None  # a bad-request refusing core words

        def recover(idx_attempt: int, *, retry_after_ms=None):
            # One more attempt for item idx_attempt, or give up loudly.
            if attempts[idx_attempt] >= self.max_retries:
                return False
            attempts[idx_attempt] += 1
            self.retries += 1
            self._backoff(
                attempts[idx_attempt], retry_after_ms=retry_after_ms
            )
            return True

        while completed < n_items:
            if refused is not None and not index_of:
                if not self._core_dropped():
                    raise self._typed_error(refused)
                refused = None
                if restack is not None:
                    restack()
            try:
                while to_send and len(index_of) < window and refused is None:
                    idx = to_send[0]
                    rid = self._next_id()
                    # Building may raise (user data); only after it
                    # succeeds is the item claimed from the queue.
                    msg = build_message(idx, rid)
                    index_of[rid] = idx
                    if self._is_core(getattr(msg, "queries", None)):
                        core_ids.add(rid)
                    counts_of[rid] = getattr(msg, "counts", None)
                    to_send.popleft()
                    self._send_message(msg, version=self.protocol_version)
                reply = self._read_message()
            except (ConnectionError, TimeoutError, OSError):
                # The connection died with up to `window` unanswered
                # requests in flight.  Every one of them is an
                # idempotent read, so the correlation window is safe to
                # replay wholesale: reconnect, then resend each
                # unacknowledged item (budgeted per item, so a
                # poison-pill request cannot retry forever).
                survivors = sorted(index_of.values())
                if any(attempts[i] >= self.max_retries for i in survivors):
                    raise
                for i in survivors:
                    attempts[i] += 1
                self.retries += len(survivors) or 1
                self._backoff(max((attempts[i] for i in survivors), default=1))
                self._reconnect()
                index_of.clear()
                core_ids.clear()
                counts_of.clear()
                to_send.extendleft(reversed(survivors))
                continue
            core = reply.request_id in core_ids
            core_ids.discard(reply.request_id)
            counts = counts_of.pop(reply.request_id, None)
            if isinstance(reply, ErrorReply):
                idx = index_of.pop(reply.request_id, None)
                if (
                    idx is not None
                    and reply.retryable
                    and recover(idx, retry_after_ms=reply.retry_after_ms)
                ):
                    to_send.append(idx)  # resend after the backoff
                    continue
                if idx is not None and core and reply.code == "bad-request":
                    refused = reply
                    to_send.appendleft(idx)  # again once the window drains
                    continue
                raise self._typed_error(reply)
            if not isinstance(reply, expected):
                raise ProtocolError(
                    f"expected {expected.__name__}, "
                    f"got {type(reply).__name__}"
                )
            idx = index_of.pop(reply.request_id, None)
            if idx is None:
                raise ProtocolError(
                    f"unmatched correlation id {reply.request_id}"
                )
            echoed = getattr(reply, "counts", None)
            if echoed != counts:
                raise ProtocolError(
                    f"reply {reply.request_id} carries counts {echoed}; "
                    f"its request sent {counts}"
                )
            out[idx] = reply
            completed += 1
        return out

    def _stack_group(self, items: list) -> tuple[PackedHV | np.ndarray, tuple]:
        """Check one wire group and stack it: ``(block, counts)``.

        A group is all :class:`PackedHV` or all dense.  However many
        sub-batches it holds, it gets one ``d_hv`` check and one
        concatenate per plane — at v6, when every sub-batch carries core
        words on the core the server holds, one concatenate of those
        instead, and at v5 of live words on the served support.
        """
        if any(isinstance(b, LiveHV) for b in items):
            raise ValueError(
                "encoded queries must be dense rows or a PackedHV (such as "
                "InferenceObfuscator.prepare_packed(X)), not a LiveHV; the "
                "client derives live or core words itself"
            )
        if all(isinstance(b, PackedHV) for b in items):
            self._check_d_hv({b.d for b in items})
            counts = tuple(len(b.signs) for b in items)
            if len(items) == 1:
                return self._on_wire(items[0]), counts
            for kind, digest in (
                ("core", self.info.core_digest),
                ("live", self._live_digest if self.protocol_version >= 5
                 else None),
            ):
                parts = [getattr(b, kind) for b in items]
                if digest is not None and all(
                    p is not None and p.digest == digest for p in parts
                ):
                    block = LiveHV(
                        np.concatenate([p.words for p in parts]),
                        parts[0].d, parts[0].n_live, digest,
                    )
                    return block, counts
            block = PackedHV(
                signs=np.concatenate([b.signs for b in items]),
                mags=np.concatenate([b.mags for b in items]),
                d=self.info.d_hv,
            )
            return block, counts
        if any(isinstance(b, PackedHV) for b in items):
            raise ValueError(
                "cannot mix PackedHV and dense sub-batches in one "
                "wire batch"
            )
        items = [np.atleast_2d(np.asarray(b)) for b in items]
        self._check_d_hv({b.shape[1] for b in items})
        counts = tuple(len(b) for b in items)
        return (items[0] if len(items) == 1 else np.concatenate(items)), counts

    def predict_encoded_many(
        self, batches, *, window: int = 8, wire_batch: int = 1
    ) -> list[np.ndarray]:
        """Pipeline many encoded batches over this one connection.

        Keeps up to ``window`` frames in flight and matches replies by
        correlation id (the server may reorder).  Pipelining is how a
        single connection approaches the server's batch throughput: the
        micro-batcher coalesces this client's in-flight requests with
        everyone else's instead of paying a full round trip per request.
        Returns one prediction array per input batch, in input order.

        ``wire_batch`` is the protocol-v2 amplifier: that many
        consecutive input batches are stacked into a single batch frame
        (a :class:`~repro.proto.ScoreRequest` with ``counts``), so the
        server pays one frame decode and one scheduler submit per
        ``wire_batch`` logical requests instead of one per request (the
        per-frame event-loop cost is what caps single-query socket
        throughput).  On a connection negotiated at v1 — an older server
        — ``wire_batch`` degrades gracefully to the per-request v1
        framing; results are identical either way.  All batches in one
        group must share a representation (all
        :class:`~repro.backend.PackedHV` or all dense).
        """
        if wire_batch < 1:
            raise ValueError(f"wire_batch must be >= 1, got {wire_batch}")
        batches = list(batches)
        step = wire_batch if self.protocol_version >= 2 else 1
        # Each group is checked and stacked before the first frame
        # leaves, and again if the server drops its core.
        groups: list = []

        def restack():
            groups[:] = [
                self._stack_group(batches[start : start + step])
                for start in range(0, len(batches), step)
            ]

        restack()
        replies = self._pipelined_requests(
            len(groups),
            window,
            lambda i, rid: self._score_message(
                groups[i][0], rid, counts=groups[i][1] if step > 1 else None
            ),
            ScoreResponse,
            restack,
        )
        return [chunk for reply in replies for chunk in reply.split()]

    def predict_many(
        self, X: np.ndarray, *, chunk_size: int = 256, window: int = 4
    ) -> np.ndarray:
        """Labels for a large feature set, streamed in batched frames.

        The bulk-scoring entry point: features are encoded + obfuscated
        locally in ``chunk_size``-row chunks, each chunk ships as *one*
        frame (a v2 batch frame of one chunk, or a plain
        :class:`~repro.proto.ScoreRequest` when the server only speaks
        v1), and up to ``window`` chunks stay in flight so client-side
        encoding overlaps server-side scoring.  Exactly as
        with :meth:`predict`, only obfuscated hypervector bits ever
        reach a frame.  Returns the ``(n,)`` prediction vector in row
        order.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        X = np.atleast_2d(np.asarray(X))
        starts = range(0, X.shape[0], chunk_size)
        if not starts:
            return np.zeros(0, dtype=np.int64)

        def build(i: int, rid: int):
            # Encoding happens here, at send time, so preparing chunk
            # i+window overlaps the server scoring chunk i.
            queries = self._prepare_wire_queries(
                X[starts[i] : starts[i] + chunk_size]
            )
            counts = (len(queries),) if self.protocol_version >= 2 else None
            return self._score_message(queries, rid, counts=counts)

        replies = self._pipelined_requests(
            len(starts), window, build, ScoreResponse
        )
        return np.concatenate([reply.predictions for reply in replies])

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def model_info(self, model: str | None = None) -> ModelInfo:
        """Describe a served model (``None`` = this client's target)."""
        [reply] = self._pipelined_requests(
            1, 1,
            lambda _, rid: ModelInfoRequest(
                model=model if model is not None else self.model,
                tenant=self.tenant,
                request_id=rid,
            ),
            ModelInfo,
        )
        return reply

    def wire_stats(self) -> dict:
        """Copy/throughput counters of this connection's wire session.

        ``rx_frames``/``tx_frames`` count frames through the session;
        ``rx_copied_bytes``/``tx_copied_bytes`` count payload bytes
        that crossed a userspace copy (decoder reassembly, scalar
        staging) — array planes moving by reference never appear here.
        The wire-profile benchmark divides these to report
        bytes-copied-per-frame.
        """
        return self._session.stats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - platform-dependent
            pass

    def __enter__(self) -> "PriveHDClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        quantizer = (
            self.obfuscator.quantizer.name if self.obfuscator else None
        )
        return (
            f"PriveHDClient({self.host}:{self.port}, "
            f"model={self.model or self.info.name!r}, "
            f"quantizer={quantizer!r}, v{self.protocol_version})"
        )
