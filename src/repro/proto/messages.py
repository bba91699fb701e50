"""Typed request/response messages of the serving protocol.

Each dataclass here is one frame type on the wire, and each scoring
message one with and one without ``counts`` (see
:mod:`repro.proto.wire` for the framing itself).  The conversation is
deliberately small — score encoded hypervectors, describe models,
report errors — because the remote surface *is* the privacy boundary:
there is no message that could carry raw features, codebooks, or
encoder seeds, so the untrusted serving side can only ever see what the
paper's §III-C client chooses to ship (quantized, masked, bit-packed
query hypervectors).

Handshake
---------
A connection opens with :class:`Hello` (client → server, listing every
protocol version the client speaks) answered by :class:`Welcome`
(server → client, the negotiated version plus the served model names).
Everything after that is :class:`ScoreRequest`/:class:`ScoreResponse`
and :class:`ModelInfoRequest`/:class:`ModelInfo`, with
:class:`ErrorReply` for anything the server refuses.  Protocol **v2**
adds the ``counts`` form of :class:`ScoreRequest`/:class:`ScoreResponse`
— N logical sub-requests stacked into one frame and one scheduler
submit, travelling as the batch frame types — and extends
:class:`ModelInfo` with the deployment mask seed of pruned models; a
connection negotiated at v1 never sees either (the codecs refuse to
encode or decode v2-only frames for a v1 peer).  Protocol **v4** adds
an optional ``tenant`` key to the request messages, addressing one
namespace of a multi-tenant model fleet; absent means the default
tenant, so downgraded peers are served exactly as before.
Protocol **v5** adds the ``live`` query payload: a
:class:`~repro.backend.packed.LiveHV` of the sign bits at the support
plane's set positions, which the codec ships in place of the planes of
any :class:`~repro.backend.PackedHV` that carries them.  Protocol **v6**
extends :class:`ModelInfo` with the digest of the model's core support,
whose live words a client may ship instead.

>>> req = ScoreRequest(queries=packed_queries, request_id=7)
>>> frame = encode_message(req)                    # bytes for the wire
>>> decode_message(decode_frame(frame)) == req     # round-trips exactly
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from repro.backend.packed import LiveHV, PackedHV
from repro.proto.wire import (
    FRAME_MIN_VERSION,
    Frame,
    FrameType,
    MAX_STRING_BYTES,
    PayloadReader,
    ProtocolError,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    VectoredWriter,
    read_queries,
    write_queries,
)

__all__ = [
    "Hello",
    "Welcome",
    "ScoreRequest",
    "ScoreResponse",
    "ModelInfoRequest",
    "ModelInfo",
    "ErrorReply",
    "ERROR_CODES",
    "RETRYABLE_ERROR_CODES",
    "encode_message",
    "encode_message_parts",
    "decode_message",
]

#: machine-readable :class:`ErrorReply` codes
ERROR_CODES = (
    "bad-frame",            # unparseable frame or payload; connection closes
    "unsupported-version",  # no common protocol version
    "unknown-model",        # model name not in the registry
    "bad-request",          # well-formed frame, unservable content
    "overloaded",           # admission control shed the request; retry later
    "deadline-exceeded",    # the request's deadline_ms expired unscored
    "unknown-tenant",       # v4 tenant key not hosted by this fleet
    "internal",             # server-side failure answering a valid request
)

#: :class:`ErrorReply` codes a client may safely retry (the request was
#: never scored; scoring is idempotent, so a repeat cannot double-apply)
RETRYABLE_ERROR_CODES = ("overloaded",)


def _check_deadline_ms(deadline_ms) -> int | None:
    if deadline_ms is None:
        return None
    out = int(deadline_ms)
    if out < 1 or out > 0xFFFFFFFF:
        raise ValueError(
            f"deadline_ms must be in [1, 2**32 - 1], got {deadline_ms}"
        )
    return out


def _queries_d(q) -> int:
    """Hypervector dimensionality of a query payload."""
    return q.d if isinstance(q, (PackedHV, LiveHV)) else int(q.shape[1])


def _same_queries(a, b) -> bool:
    """Whether two query payloads hold the same kind and the same bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, LiveHV):
        return (
            (a.d, a.n_live, a.digest) == (b.d, b.n_live, b.digest)
            and np.array_equal(a.words, b.words)
        )
    if isinstance(a, PackedHV):
        return (
            a.d == b.d
            and np.array_equal(a.signs, b.signs)
            and np.array_equal(a.mags, b.mags)
        )
    return np.array_equal(a, b)


@dataclass(frozen=True)
class Hello:
    """Client's opening frame: the protocol versions it speaks.

    Attributes
    ----------
    versions:
        Every protocol version the client can use, ascending.
    client:
        Free-form client identification (logged, never trusted).
    """

    versions: tuple[int, ...] = SUPPORTED_VERSIONS
    client: str = "prive-hd"

    def __post_init__(self):
        if not self.versions:
            raise ValueError("Hello must offer at least one version")
        object.__setattr__(
            self, "versions", tuple(sorted(int(v) for v in self.versions))
        )


@dataclass(frozen=True)
class Welcome:
    """Server's handshake reply: the negotiated protocol version.

    Attributes
    ----------
    version:
        The version both sides will stamp on every subsequent frame.
    server:
        Server identification string.
    models:
        Names the registry currently serves (descriptive — the set can
        change; :class:`ModelInfoRequest` gives authoritative answers).
    """

    version: int = PROTOCOL_VERSION
    server: str = "prive-hd"
    models: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))


@dataclass(frozen=True)
class ScoreRequest:
    """Score a batch of *encoded* query hypervectors.

    With ``counts`` (protocol v2) the batch is N logical requests
    stacked into one frame.  Where a v1 client ships one frame per
    request and pays a frame decode + scheduler submit for each, a v2
    client stacks the rows of N requests into a single block, records
    the per-request row counts, and ships *one* frame — the server
    decodes once and submits the whole block to the micro-batcher once,
    so frame parsing, syscalls, and future wakeups amortize over N.

    Attributes
    ----------
    queries:
        A :class:`~repro.backend.PackedHV` batch (bit-plane payload, 16×
        smaller than float32 — what an obfuscating client ships) or a
        dense ``(n, d_hv)`` array of encoded hypervectors.  There is no
        raw-feature variant: encoding happens on the client, always.
    counts:
        Protocol v2: rows belonging to each logical sub-request, in
        block order; must sum to the block's row count.  The response
        echoes them so the client can scatter results back per
        sub-request (:meth:`ScoreResponse.split`).  ``None`` (the
        default) frames the message as a v1 ``SCORE_REQUEST``; with
        counts it travels as a ``SCORE_BATCH_REQUEST`` frame, which a v1
        connection refuses to encode.
    model:
        Registry model name; ``None`` uses the server's default.
    want_scores:
        Also return the full Eq. (4) score matrix (predictions alone are
        the default — smaller frames, and all a classifier client needs).
    request_id:
        Caller-chosen correlation id echoed in the response, so clients
        may pipeline requests over one connection.
    deadline_ms:
        Protocol v3: optional latency budget in milliseconds for the
        whole block, counted from the moment the server receives the
        frame.  A request whose budget expires while queued is dropped
        unscored with a typed ``"deadline-exceeded"`` error — shed work
        instead of late answers.  Silently omitted on the wire for v1/v2
        peers.
    tenant:
        Protocol v4: optional fleet tenant key addressing one namespace
        of a multi-tenant :class:`~repro.serve.fleet.ModelFleet`;
        ``None`` means the default tenant.  A key the fleet does not
        host is refused with the typed ``"unknown-tenant"`` error.
    """

    queries: PackedHV | np.ndarray
    counts: tuple[int, ...] | None = None
    model: str | None = None
    want_scores: bool = False
    request_id: int = 0
    deadline_ms: int | None = None
    tenant: str | None = None

    def __post_init__(self):
        if not isinstance(self.queries, (PackedHV, LiveHV)):
            arr = np.asarray(self.queries)
            if arr.ndim != 2:
                raise ValueError(
                    "ScoreRequest queries must be a PackedHV or a 2-D "
                    f"(n, d_hv) array, got shape {arr.shape} — raw feature "
                    "vectors do not belong on the wire; encode them first"
                )
            object.__setattr__(self, "queries", arr)
        if self.counts is not None:
            object.__setattr__(
                self, "counts", _check_counts(self.counts, self.n_queries)
            )
        object.__setattr__(
            self, "deadline_ms", _check_deadline_ms(self.deadline_ms)
        )

    @property
    def n_queries(self) -> int:
        """Rows in the query batch (all sub-requests together)."""
        return len(self.queries)

    @property
    def d_hv(self) -> int:
        """Hypervector dimensionality of the queries."""
        return _queries_d(self.queries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreRequest):
            return NotImplemented
        if (
            self.model != other.model
            or self.want_scores != other.want_scores
            or self.request_id != other.request_id
            or self.counts != other.counts
            or self.deadline_ms != other.deadline_ms
            or self.tenant != other.tenant
        ):
            return False
        return _same_queries(self.queries, other.queries)


@dataclass(frozen=True)
class ScoreResponse:
    """The server's answer to one :class:`ScoreRequest`.

    Attributes
    ----------
    predictions:
        ``(n,)`` int64 argmax labels, one per query row, in block order.
    scores:
        ``(n, n_classes)`` float64 Eq. (4) scores when the request set
        ``want_scores``, else ``None``.
    model, version:
        Which registry entry (and which hot-swappable version of it)
        answered — every row of one response is answered by a single
        consistent version.
    request_id:
        Echo of the request's correlation id.
    counts:
        Echo of the request's per-sub-request row counts (``None`` when
        the request had none; the response then travels as the frame
        type its request did); :meth:`split` scatters the block back
        into per-request arrays.
    """

    predictions: np.ndarray
    scores: np.ndarray | None = None
    model: str = ""
    version: int = 0
    request_id: int = 0
    counts: tuple[int, ...] | None = None

    def __post_init__(self):
        preds = np.asarray(self.predictions, dtype=np.int64)
        if preds.ndim != 1:
            raise ValueError(
                f"predictions must be 1-D, got shape {preds.shape}"
            )
        object.__setattr__(self, "predictions", preds)
        if self.counts is not None:
            object.__setattr__(
                self, "counts", _check_counts(self.counts, preds.shape[0])
            )
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=np.float64)
            if scores.ndim != 2 or scores.shape[0] != preds.shape[0]:
                raise ValueError(
                    f"scores must be (n={preds.shape[0]}, n_classes), "
                    f"got shape {scores.shape}"
                )
            object.__setattr__(self, "scores", scores)

    def split(self) -> list[np.ndarray]:
        """Per-sub-request prediction views, in request order.

        A response without ``counts`` splits into one chunk.
        """
        return _chunks(self.predictions, self.counts)

    def split_scores(self) -> list[np.ndarray]:
        """Per-sub-request score-matrix views (requires ``want_scores``)."""
        if self.scores is None:
            raise ValueError("this response carries no scores")
        return _chunks(self.scores, self.counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreResponse):
            return NotImplemented
        if (
            self.model != other.model
            or self.version != other.version
            or self.request_id != other.request_id
            or self.counts != other.counts
        ):
            return False
        if not np.array_equal(self.predictions, other.predictions):
            return False
        if (self.scores is None) != (other.scores is None):
            return False
        return self.scores is None or np.array_equal(self.scores, other.scores)


class _Counts(tuple):
    """Chunk counts :func:`_check_counts` already accepted.

    A plain tuple to every reader; the type alone tells a later message
    built from the same counts (the server's response echoing its
    request) that only their total is left to check.
    """

    __slots__ = ()


def _check_counts(counts, n_rows: int) -> _Counts:
    """Validate chunk boundaries against a stacked query/result block."""
    if type(counts) is not _Counts:
        counts = _Counts(map(operator.index, counts))
        if not counts:
            raise ValueError("counts must name at least one chunk")
        if min(counts) < 1:
            first = next(i for i, c in enumerate(counts) if c < 1)
            raise ValueError(
                f"chunk {first} of {len(counts)} has {counts[first]} rows; "
                "every chunk count must be >= 1"
            )
    total = sum(counts)
    if total != n_rows:
        raise ValueError(
            f"chunk counts sum to {total} but the block has {n_rows} rows"
        )
    return counts


def _chunks(block: np.ndarray, counts: tuple[int, ...] | None) -> list:
    """``block`` cut into per-chunk row views at the counts' offsets."""
    if counts is None:
        return [block]
    return [
        block[end - count : end]
        for count, end in zip(counts, accumulate(counts))
    ]


@dataclass(frozen=True)
class ModelInfoRequest:
    """Ask the server to describe a served model (``None`` = default).

    Protocol v4 adds the optional ``tenant`` key: the description is
    resolved inside that fleet tenant's namespace (``None`` = the
    default tenant), so a pruned per-tenant model's ``mask_seed``
    travels exactly as it does on single-tenant connections.
    """

    model: str | None = None
    request_id: int = 0
    tenant: str | None = None


@dataclass(frozen=True)
class ModelInfo:
    """What a client may know about a hosted model.

    Deliberately excludes the encoder config: codebooks live with the
    *client* in the split deployment, and the manifest travels by an
    out-of-band channel (the artifact directory), never this wire.

    Attributes
    ----------
    name, version:
        Registry coordinates of the answering version.
    n_classes, d_hv, n_live_dims:
        Served shape; ``n_live_dims < d_hv`` marks a pruned (§III-B)
        model, whose clients must mask their queries to the same
        dimensions.
    backend:
        The serving compute layout (``"dense"``/``"packed"``).
    query_quantizer:
        Name of the quantizer queries are expected to have gone
        through (``None`` = full precision).
    epsilon:
        The certified DP ε of the served store (``inf`` = no claim).
    mask_seed:
        Protocol v2: the deployment seed of a pruned model's keep-mask
        (the :class:`~repro.core.inference_privacy.ObfuscationConfig`
        ``mask_seed``), when the artifact recorded one.  With it, a
        client regenerates exactly the server's live dimensions
        (``n_masked = d_hv - n_live_dims``) and needs no out-of-band
        mask channel.  The seed reveals only *which* dimensions are
        dead server-side — information the server already holds —
        never anything about the client's features.  ``None`` on v1
        connections and for unpruned or seedless artifacts.
    core_digest:
        Protocol v6: the :func:`~repro.backend.packed.support_digest` of
        the model's core support
        (:attr:`~repro.backend.packed.LiveStore.core`), when it holds
        one.  A client cannot derive it without the encoder, and a
        client with the encoder could not tell whether the server holds
        the core; rows whose :attr:`~repro.backend.PackedHV.core` words
        name this digest ship those words.  ``None`` below v6 and for
        models without a core.
    """

    name: str
    version: int
    n_classes: int
    d_hv: int
    n_live_dims: int
    backend: str
    query_quantizer: str | None = None
    epsilon: float = float("inf")
    mask_seed: int | None = None
    request_id: int = 0
    core_digest: int | None = None

    @property
    def is_pruned(self) -> bool:
        """Whether some served dimensions are dead (``n_live_dims < d_hv``)."""
        return self.n_live_dims < self.d_hv

    @property
    def n_masked(self) -> int:
        """Dimensions a matching client must zero before shipping."""
        return self.d_hv - self.n_live_dims


@dataclass(frozen=True)
class ErrorReply:
    """A machine-readable refusal.

    Attributes
    ----------
    code:
        One of :data:`ERROR_CODES`.
    message:
        Human-readable detail (safe to show; never includes payload
        bytes), cut to the wire's :data:`~repro.proto.wire.MAX_STRING_BYTES`
        of UTF-8 when constructed, so every reply can be rendered.  An
        ``"overloaded"`` reply conventionally starts with
        ``retry_after_ms=N;`` — a structured backoff hint inside the
        existing message field, so older peers that only know the v2
        error frame layout still parse the frame (they just skip the
        hint).  Use :attr:`retry_after_ms` to read it.
    request_id:
        Correlation id of the failed request when known, else 0.
    """

    code: str
    message: str = ""
    request_id: int = 0

    def __post_init__(self):
        if self.code not in ERROR_CODES:
            raise ValueError(
                f"unknown error code {self.code!r}; use one of {ERROR_CODES}"
            )
        raw = str(self.message).encode("utf-8")
        if len(raw) > MAX_STRING_BYTES:
            cut = raw[:MAX_STRING_BYTES].decode("utf-8", "ignore")
            object.__setattr__(self, "message", cut)

    @classmethod
    def overloaded(
        cls, detail: str, *, retry_after_ms: int, request_id: int = 0
    ) -> "ErrorReply":
        """Build an ``"overloaded"`` reply carrying the backoff hint."""
        return cls(
            code="overloaded",
            message=f"retry_after_ms={max(1, int(retry_after_ms))}; {detail}",
            request_id=request_id,
        )

    @property
    def retry_after_ms(self) -> int | None:
        """The backoff hint parsed from the message, if present."""
        prefix = "retry_after_ms="
        if not self.message.startswith(prefix):
            return None
        head = self.message[len(prefix):].split(";", 1)[0].strip()
        return int(head) if head.isdigit() else None

    @property
    def retryable(self) -> bool:
        """Whether a client may safely resend the failed request."""
        return self.code in RETRYABLE_ERROR_CODES


# ----------------------------------------------------------------------
# per-message payload codecs
# ----------------------------------------------------------------------
# Every codec takes the frame's negotiated protocol version so a field
# added in v2 is written/read only when both sides speak v2 — a v1 peer
# sees byte-identical v1 payloads.  Adjacent fixed-width fields travel
# as one field run: one ``struct`` call per run, not one per field.
def _write_hello(msg: Hello, w: VectoredWriter, version: int) -> None:
    w.string(msg.client)
    w.pack(f"!B{len(msg.versions)}B", len(msg.versions), *msg.versions)


def _read_hello(r: PayloadReader, version: int) -> Hello:
    client = r.string() or ""
    (count,) = r.unpack("!B")
    if count == 0:
        raise ProtocolError("Hello offered zero protocol versions")
    return Hello(versions=r.unpack(f"!{count}B"), client=client)


def _write_welcome(msg: Welcome, w: VectoredWriter, version: int) -> None:
    w.pack("!B", msg.version).string(msg.server)
    w.pack("!H", len(msg.models))
    for name in msg.models:
        w.string(name)


def _read_welcome(r: PayloadReader, version: int) -> Welcome:
    (version_field,) = r.unpack("!B")
    server = r.string() or ""
    (count,) = r.unpack("!H")
    models = tuple(r.string() or "" for _ in range(count))
    return Welcome(version=version_field, server=server, models=models)


def _write_scores(w: VectoredWriter, scores: np.ndarray | None) -> None:
    """A response's optional score matrix: u8 flag, u32 width, f64 block."""
    if scores is None:
        w.pack("!B", 0)
    else:
        w.pack("!BI", 1, scores.shape[1]).array(scores, "<f8")


def _read_scores(r: PayloadReader, n: int) -> np.ndarray | None:
    (has_scores,) = r.unpack("!B")
    if not has_scores:
        return None
    (n_classes,) = r.unpack("!I")
    return r.array(n * n_classes, "<f8").reshape(n, n_classes)


def _counts_run(counts: tuple[int, ...]) -> str:
    """The struct format of a counts run: u16 n_chunks, u32[n_chunks]."""
    if len(counts) > 0xFFFF:
        raise ProtocolError(
            f"{len(counts)} chunks exceed the u16 wire limit"
        )
    return f"H{len(counts)}I"


def _write_score_request(
    msg: ScoreRequest, w: VectoredWriter, version: int
) -> None:
    """``request_id``, ``model``, ``want_scores``, the v3 optional
    deadline (a u8 flag and a u32), the v4 optional tenant, the v2
    counts run of a batch frame, then the queries.

    Fields newer than ``version`` are silently dropped.  (The *client*
    refuses to build tenant-addressed requests on a < v4 connection —
    silently falling back to the default tenant would answer from the
    wrong model.  The drop here only matters for hand-built frames.)
    """
    want_scores = 1 if msg.want_scores else 0
    w.pack("!I", msg.request_id).string(msg.model)
    if version < 3:
        w.pack("!B", want_scores)
    elif msg.deadline_ms is None:
        w.pack("!BB", want_scores, 0)
    else:
        w.pack("!BBI", want_scores, 1, msg.deadline_ms)
    if version >= 4:
        w.string(msg.tenant)
    counts = msg.counts
    if counts is not None:
        w.pack("!" + _counts_run(counts), len(counts), *counts)
    write_queries(w, msg.queries, version)


def _read_score_request(
    r: PayloadReader, version: int, batched: bool = False
) -> ScoreRequest:
    (request_id,) = r.unpack("!I")
    model = r.string()
    deadline_ms = counts = None
    if version < 3:
        (want_scores,) = r.unpack("!B")
    else:
        want_scores, has_deadline = r.unpack("!BB")
        if has_deadline:
            (deadline_ms,) = r.unpack("!I")
    tenant = r.string() if version >= 4 else None
    if batched:
        (n_chunks,) = r.unpack("!H")
        counts = r.unpack(f"!{n_chunks}I")
    return ScoreRequest(
        queries=read_queries(r, version),
        counts=counts,
        model=model,
        want_scores=bool(want_scores),
        request_id=request_id,
        deadline_ms=deadline_ms,
        tenant=tenant,
    )


def _write_score_response(
    msg: ScoreResponse, w: VectoredWriter, version: int
) -> None:
    counts, n = msg.counts, msg.predictions.shape[0]
    w.pack("!I", msg.request_id).string(msg.model)
    if counts is None:
        w.pack("!II", msg.version, n)
    else:
        w.pack(
            f"!I{_counts_run(counts)}I", msg.version, len(counts), *counts, n
        )
    w.array(msg.predictions, "<i8")
    _write_scores(w, msg.scores)


def _read_score_response(
    r: PayloadReader, version: int, batched: bool = False
) -> ScoreResponse:
    (request_id,) = r.unpack("!I")
    model = r.string() or ""
    counts = None
    if batched:
        version_field, n_chunks = r.unpack("!IH")
        *counts, n = r.unpack(f"!{n_chunks}II")
    else:
        version_field, n = r.unpack("!II")
    predictions = r.array(n, "<i8")
    return ScoreResponse(
        predictions=predictions,
        scores=_read_scores(r, n),
        model=model,
        version=version_field,
        request_id=request_id,
        counts=counts,
    )


def _write_model_info_request(
    msg: ModelInfoRequest, w: VectoredWriter, version: int
) -> None:
    w.pack("!I", msg.request_id).string(msg.model)
    if version >= 4:
        w.string(msg.tenant)


def _read_model_info_request(
    r: PayloadReader, version: int
) -> ModelInfoRequest:
    (request_id,) = r.unpack("!I")
    model = r.string()
    tenant = r.string() if version >= 4 else None
    return ModelInfoRequest(model=model, request_id=request_id, tenant=tenant)


def _write_model_info(msg: ModelInfo, w: VectoredWriter, version: int) -> None:
    w.pack("!I", msg.request_id).string(msg.name)
    w.pack("!IIII", msg.version, msg.n_classes, msg.d_hv, msg.n_live_dims)
    w.string(msg.backend).string(msg.query_quantizer)
    if version < 2:
        w.pack("!d", msg.epsilon)
    elif msg.mask_seed is None:
        w.pack("!dB", msg.epsilon, 0)
    else:
        w.pack("!dBQ", msg.epsilon, 1, msg.mask_seed)
    if version < 6:
        return
    if msg.core_digest is None:
        w.pack("!B", 0)
    else:
        w.pack("!BQ", 1, msg.core_digest)


def _read_model_info(r: PayloadReader, version: int) -> ModelInfo:
    (request_id,) = r.unpack("!I")
    name = r.string() or ""
    version_field, n_classes, d_hv, n_live_dims = r.unpack("!IIII")
    backend = r.string() or ""
    query_quantizer = r.string()
    mask_seed = core_digest = None
    if version < 2:
        (epsilon,) = r.unpack("!d")
    else:
        epsilon, has_seed = r.unpack("!dB")
        if has_seed:
            (mask_seed,) = r.unpack("!Q")
    if version >= 6 and r.unpack("!B")[0]:
        (core_digest,) = r.unpack("!Q")
    return ModelInfo(
        name=name,
        version=version_field,
        n_classes=n_classes,
        d_hv=d_hv,
        n_live_dims=n_live_dims,
        backend=backend,
        query_quantizer=query_quantizer,
        epsilon=epsilon,
        mask_seed=mask_seed,
        request_id=request_id,
        core_digest=core_digest,
    )


def _write_error(msg: ErrorReply, w: VectoredWriter, version: int) -> None:
    w.pack("!I", msg.request_id).string(msg.code).string(msg.message)


def _read_error(r: PayloadReader, version: int) -> ErrorReply:
    (request_id,) = r.unpack("!I")
    code = r.string() or ""
    message = r.string() or ""
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r} on the wire")
    return ErrorReply(code=code, message=message, request_id=request_id)


#: exact message type -> (frame type, writer); the closed world of the
#: wire — anything not in this table cannot be serialized at all
_CODECS = {
    Hello: (FrameType.HELLO, _write_hello),
    Welcome: (FrameType.WELCOME, _write_welcome),
    ScoreRequest: (FrameType.SCORE_REQUEST, _write_score_request),
    ScoreResponse: (FrameType.SCORE_RESPONSE, _write_score_response),
    ModelInfoRequest: (FrameType.MODEL_INFO_REQUEST, _write_model_info_request),
    ModelInfo: (FrameType.MODEL_INFO, _write_model_info),
    ErrorReply: (FrameType.ERROR, _write_error),
}

_DECODERS = {
    FrameType.HELLO: _read_hello,
    FrameType.WELCOME: _read_welcome,
    FrameType.SCORE_REQUEST: _read_score_request,
    FrameType.SCORE_RESPONSE: _read_score_response,
    FrameType.SCORE_BATCH_REQUEST: partial(
        _read_score_request, batched=True
    ),
    FrameType.SCORE_BATCH_RESPONSE: partial(
        _read_score_response, batched=True
    ),
    FrameType.MODEL_INFO_REQUEST: _read_model_info_request,
    FrameType.MODEL_INFO: _read_model_info,
    FrameType.ERROR: _read_error,
}

#: the protocol-v2 frame a scoring message with ``counts`` travels as
_BATCH_FRAMES = {
    FrameType.SCORE_REQUEST: FrameType.SCORE_BATCH_REQUEST,
    FrameType.SCORE_RESPONSE: FrameType.SCORE_BATCH_RESPONSE,
}


def encode_message_parts(
    msg, *, version: int = PROTOCOL_VERSION, scratch: bytearray | None = None
) -> list:
    """One message dataclass → an iovec-style buffer list for the wire.

    The zero-copy encoder: the 8-byte header and every scalar field are
    staged contiguously in ``scratch`` (reused across frames by the
    transports — no per-frame builder allocation), while each large
    array plane stays a :class:`memoryview` over the array itself.  The
    concatenation the old single-``bytes`` encoder paid per frame moves
    into the transport (``socket.sendmsg`` gathers the list in one
    syscall; asyncio joins once on write).

    Scratch-backed parts are valid until ``scratch`` is next written or
    cleared; send (or join) them before encoding another frame into the
    same scratch.  With ``scratch=None`` the parts own a private buffer
    and stay valid indefinitely.

    Dispatch is on *exact* type: the codec table above is the entire
    vocabulary of the protocol, so nothing outside it — raw arrays,
    feature batches, encoder objects — can be framed, by construction.
    A scoring message with ``counts`` travels as its v2 batch frame.
    ``version`` is the connection's negotiated protocol version; frames
    introduced after it (the v2 batch frames on a v1 connection) refuse
    to encode rather than confuse an older peer.
    """
    codec = _CODECS.get(type(msg))
    if codec is None:
        raise ProtocolError(
            f"{type(msg).__name__} is not a wire message; only "
            f"{sorted(c.__name__ for c in _CODECS)} cross the boundary"
        )
    frame_type, writer = codec
    if frame_type in _BATCH_FRAMES and msg.counts is not None:
        frame_type = _BATCH_FRAMES[frame_type]
    min_version = FRAME_MIN_VERSION.get(frame_type, 1)
    if version < min_version:
        raise ProtocolError(
            f"{type(msg).__name__} requires protocol v{min_version}; "
            f"this connection negotiated v{version}"
        )
    w = VectoredWriter(scratch)
    writer(msg, w, version)
    return w.frame_parts(frame_type, version)


def encode_message(msg, *, version: int = PROTOCOL_VERSION) -> bytes:
    """One message dataclass → one complete wire frame as ``bytes``.

    The materializing convenience over :func:`encode_message_parts`
    (byte-identical output — the golden-frame suite pins this); the
    performance paths hand the parts list to the transport instead.
    """
    return b"".join(encode_message_parts(msg, version=version))


def decode_message(frame: Frame):
    """One decoded :class:`~repro.proto.wire.Frame` → its message.

    Raises :class:`~repro.proto.wire.ProtocolError` for unknown frame
    types, frame types newer than the frame's stamped version,
    truncated payloads, and trailing garbage.
    """
    try:
        kind = FrameType(frame.frame_type)
    except ValueError:
        raise ProtocolError(
            f"unknown frame type 0x{frame.frame_type:02x}"
        ) from None
    min_version = FRAME_MIN_VERSION.get(kind, 1)
    if frame.version < min_version:
        raise ProtocolError(
            f"{kind.name} frames require protocol v{min_version}, "
            f"got a v{frame.version} frame"
        )
    reader = PayloadReader(frame.payload)
    try:
        msg = _DECODERS[kind](reader, frame.version)
    except ProtocolError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed {kind.name} payload: {exc}") from exc
    reader.done()
    return msg
