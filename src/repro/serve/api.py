"""The one typed serving surface every entry point goes through.

:class:`ServingAPI` is the narrow waist of the serving stack: the CLI,
the benchmarks, the worker pool and the socket frontend all speak
*this* class, and this class speaks the typed :mod:`repro.proto`
vocabulary (:class:`~repro.proto.ScoreRequest` in,
:class:`~repro.proto.ScoreResponse` out), so engine construction
details stay behind :meth:`~repro.serve.ModelArtifact.engine` where
they belong.

It serves a :class:`~repro.serve.ModelFleet`; a single served model is
a fleet of one tenant (:meth:`ServingAPI.from_artifact`), so one code
path answers both.

    >>> api = ServingAPI.from_artifact("artifacts/isolet-v1")
    >>> api.predict(encoded_queries)             # micro-batched labels
    >>> api.score(ScoreRequest(queries=packed))  # the wire entry point
    >>> api.info()                               # typed ModelInfo
    >>> api.health(), api.stats()                # ops endpoints (JSON-safe)

Every query path is micro-batched through a
:class:`~repro.serve.MicroBatchScheduler` whose runner resolves the
tenant's registry *per flush*, so registry mutations (publish / promote
/ rollback) hot-swap between flushes with zero dropped requests.
Bit-packed queries have one coalescing shape: protocol-v5 live words,
plane rows on the support of a store held as live words (gathered
once at submit), and v6 core words ride the scheduler as ``[words |
support digest | tenant_index]`` rows; tenants sharing an encoder
config share one scheduler per row width, and a flush that mixes
tenants is scored by one fused kernel
(:func:`~repro.serve.fleet.fused_tenant_scores`).  Plane rows
off the support ride their tenant's own scheduler as ``[signs | mags]``
and take the engine's general formula.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from repro.backend.packed import LiveHV, PackedHV, n_words
from repro.proto.messages import (
    ModelInfo,
    ScoreBatchRequest,
    ScoreBatchResponse,
    ScoreRequest,
    ScoreResponse,
)
from repro.serve.artifact import ModelArtifact
from repro.serve.fleet import ModelFleet, fused_tenant_scores
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import MicroBatchConfig, MicroBatchScheduler

__all__ = ["ServingAPI"]

#: Welcome-frame listing cap; the ``/tenants`` HTTP endpoint serves the
#: full count.
NAMES_CAP = 32

_STALE_SUPPORT = (
    "queued rows name a support their tenant no longer serves: "
    "the keep mask changed between submit and flush"
)


class ServingAPI:
    """Typed, micro-batched, hot-swappable serving over a model fleet.

    Requests route by their protocol-v4 ``tenant`` key (absent = the
    fleet's default tenant); unknown keys raise
    :class:`~repro.serve.TenantNotFound`.  Within a tenant, ``model=``
    picks a registry name (absent = the tenant's default model).

    Parameters
    ----------
    fleet:
        The tenant store (and LRU cache) to serve.
    config:
        Micro-batching flush policy shared by every scheduler.
    coalesce:
        ``False`` gives every tenant its own packed scheduler even when
        tenants share an encoder config — the fleet benchmark's
        baseline.
    """

    def __init__(
        self,
        fleet: ModelFleet,
        *,
        config: MicroBatchConfig | None = None,
        coalesce: bool = True,
    ):
        self.fleet = fleet
        self.config = config or MicroBatchConfig()
        self.coalesce = coalesce
        self._lock = threading.Lock()
        self._schedulers: dict[tuple, MicroBatchScheduler] = {}
        # (scheduler key, tenant) -> (version, n_classes) of the engine
        # that answered the latest flush, ``None`` if the tenant's rows
        # were stale; written by the runner in the flusher thread,
        # read by the response hooks, which the scheduler runs in that
        # same thread before the next flush starts — so a reader always
        # sees the version of its own batch.
        self._flush_versions: dict[tuple, tuple[int, int] | None] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # construction sugar
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(
        cls,
        artifact: ModelArtifact | str | Path,
        *,
        name: str = "model",
        config: MicroBatchConfig | None = None,
        engine_kwargs: dict | None = None,
        mmap: bool = False,
        verify: bool = True,
    ) -> "ServingAPI":
        """Serve one artifact (object or directory path) under ``name``.

        The artifact becomes a fleet of one: a resident, never-evicted
        tenant ``name`` whose registry serves the model ``name``.  All
        engine construction happens inside
        :meth:`~repro.serve.ModelArtifact.engine` — callers never touch
        ``store_is_quantized``, ``keep_mask``, or backend plumbing.
        ``mmap=True`` (paths only) maps the tensors read-only instead of
        copying them, so co-hosted processes share pages.
        ``verify=False`` skips the checksum pass when a supervising
        parent already verified the directory (see
        :meth:`~repro.serve.ModelArtifact.load`).
        """
        registry = ModelRegistry()
        if isinstance(artifact, (str, Path)):
            registry.load(
                name,
                artifact,
                engine_kwargs=engine_kwargs,
                mmap=mmap,
                verify=verify,
            )
        else:
            registry.publish(name, artifact, engine_kwargs=engine_kwargs)
        fleet = ModelFleet()
        fleet.add_tenant(name, registry, model=name)
        return cls(fleet, config=config)

    @property
    def registry(self) -> ModelRegistry:
        """The default tenant's live registry — publish/promote to hot-swap."""
        return self.fleet.registry_for(None)

    @property
    def default_model(self) -> str | None:
        """The default tenant's name (served when a call names none)."""
        return self.fleet.default_tenant

    def names(self) -> tuple[str, ...]:
        """Up to :data:`NAMES_CAP` tenant names, default tenant first.

        What the frontend's ``Welcome`` lists: capped so a
        million-tenant fleet does not turn the handshake frame into a
        directory dump.
        """
        tenants = self.fleet.tenants()
        default = self.fleet.default_tenant
        if default in tenants:
            tenants = (default, *(t for t in tenants if t != default))
        return tenants[:NAMES_CAP]

    # ------------------------------------------------------------------
    # array entry points (thread-safe, micro-batched)
    # ------------------------------------------------------------------
    def predict(self, queries, *, model: str | None = None,
                tenant: str | None = None) -> np.ndarray:
        """Labels for encoded query hypervectors (dense rows or packed).

        A single ``(d_hv,)`` dense query returns a single label.
        """
        return self._submit(
            queries, tenant, model, "predict", respond=self._checked
        ).result()

    def scores(self, queries, *, model: str | None = None,
               tenant: str | None = None) -> np.ndarray:
        """Eq. (4) class scores for encoded query hypervectors."""
        return self._submit(
            queries, tenant, model, "scores", respond=self._trimmed
        ).result()

    def predict_features(self, X, *, model: str | None = None,
                         tenant: str | None = None) -> np.ndarray:
        """Labels for raw features — **in-process callers only**.

        The artifact must carry an encoder config; the whole coalesced
        batch streams through the engine's fused encode → quantize
        (→ pack) pipeline once per flush.  This entry point deliberately
        has no wire equivalent: the network protocol cannot express raw
        features, so remote callers encode client-side
        (:class:`~repro.client.PriveHDClient`) and use :meth:`score`.
        """
        return self._submit(X, tenant, model, "predict_features").result()

    # ------------------------------------------------------------------
    # submission plumbing
    # ------------------------------------------------------------------
    def _submit(self, queries, tenant, model, method, *, d_hv=None,
                deadline=None, respond=None):
        """Resolve tenant + model, shape-check, enqueue once.

        Returns the future: the runner's rows or, with ``respond``,
        ``respond(rows, name, version_key)``, built in the flusher
        thread right after the flush.  Bit-packed queries stay packed
        through the micro-batcher in one of two shapes.  Live words
        (:class:`~repro.backend.packed.LiveHV`, checked here against the
        model's support or its core) ride as ``[words | support digest
        | tenant_index]`` rows, and so do plane rows on the support of a
        store held as live words, gathered once here
        (:meth:`~repro.backend.packed.LiveStore.live_of`); only these
        rows coalesce across tenants, queued by their live-dimension
        count.  Plane rows left over (off the support, or a store not
        held as live words) ride their tenant's own scheduler as
        ``[signs | mags]``, 16x smaller than dense.
        Raises :class:`~repro.serve.TenantNotFound` for unknown tenants,
        ``KeyError`` for unknown models within a hosted tenant,
        ``ValueError`` for shape mismatches, and the scheduler's
        :class:`~repro.serve.Overloaded` /
        :class:`~repro.serve.DeadlineExceeded` — the frontend maps each
        to its typed wire code.
        """
        packed = isinstance(queries, (LiveHV, PackedHV))
        if packed:
            d_hv = queries.d
        record, registry = self.fleet.lookup(tenant)
        name = record.model_name(model)
        engine = registry.describe(name).engine
        self.fleet.recharge(record, registry, model, engine)
        if d_hv is not None and d_hv != engine.d_hv:
            raise ValueError(
                f"queries have {d_hv} dimensions but tenant "
                f"{record.name!r} model {name!r} serves {engine.d_hv}"
            )
        if packed and not isinstance(queries, LiveHV) and engine.live_in_place:
            on_support = engine.prepared.store.live_of(queries)
            if on_support is not None:
                queries = on_support
        if isinstance(queries, LiveHV):
            engine.check_live(queries)
            method += "_live"
            # Live rows are n_words(n_live) + 2 wide, and keep and core
            # words (or a hot-swap) differ in n_live: the count keys the
            # queue, so rows of different widths never meet in one flush.
            if self.coalesce and engine.coalesce_key and name == record.model:
                key = ("group", *engine.coalesce_key, queries.n_live, method)
            else:
                key = ("tenant", record.name, name, queries.n_live, method)
            index = np.full((queries.n, 1), record.index, dtype=np.uint64)
            queries = np.concatenate(
                [queries.words, np.full_like(index, queries.digest), index],
                axis=1,
            )
            run = self._run_live
        elif packed:
            method += "_packed"
            queries = np.concatenate([queries.signs, queries.mags], axis=1)
            run, key = self._run_packed, ("tenant", record.name, name, method)
        else:
            run, key = self._run_dense, ("tenant", record.name, name, method)
        version_key = (key, record.name)
        finish = None if respond is None else (
            lambda rows: respond(rows, name, version_key)
        )
        return self._scheduler(key, run)._enqueue(queries, deadline, finish)

    def _scheduler(self, key: tuple, run) -> MicroBatchScheduler:
        with self._lock:
            if self._closed:
                raise RuntimeError("serving API is closed")
            sched = self._schedulers.get(key)
            if sched is None:
                sched = MicroBatchScheduler(
                    lambda rows: run(rows, key),
                    self.config,
                    name=".".join(map(str, key)),
                )
                self._schedulers[key] = sched
            return sched

    def _flush_engine(self, key: tuple, tenant: str, model: str | None):
        """The engine that scores ``tenant``'s rows in this flush.

        Resolved *at flush time* — an eviction between submit and flush
        re-admits here (joining the tenant's in-flight load if a request
        is already admitting it), a hot-swap lands here — and its
        version is recorded for the responses of this flush (and a
        swapped default model recharged, :meth:`ModelFleet.recharge`).
        """
        record, registry = self.fleet.lookup(tenant, count=False)
        described = registry.describe(record.model_name(model))
        engine = described.engine
        self.fleet.recharge(record, registry, model, engine)
        self._flush_versions[(key, tenant)] = (
            described.version, engine.n_classes
        )
        return engine

    def _answered(self, version_key) -> tuple[int, int]:
        """``(version, n_classes)`` of the engine that answered a request.

        Raises for a tenant whose live rows :meth:`_run_live` found stale.
        """
        answered = self._flush_versions[version_key]
        if answered is None:
            raise ValueError(_STALE_SUPPORT)
        return answered

    def _checked(self, labels, name, version_key):
        """Labels, once :meth:`_answered` confirms they were scored."""
        self._answered(version_key)
        return labels

    def _trimmed(self, scores, name, version_key):
        """Scores cut to the class count of the engine that answered.

        Wider only after :meth:`_run_live` padded them.
        """
        return scores[..., : self._answered(version_key)[1]]

    def _run_dense(self, rows: np.ndarray, key: tuple) -> np.ndarray:
        """Flush runner for one tenant's dense rows or raw features."""
        _, tenant, model, method = key
        return getattr(self._flush_engine(key, tenant, model), method)(rows)

    def _run_packed(self, rows: np.ndarray, key: tuple) -> np.ndarray:
        """Flush runner for one tenant's ``[signs | mags]`` plane rows.

        The engine gets the rebuilt :class:`PackedHV` and its general
        formula (a dense engine unpacks it).
        """
        _, tenant, model, method = key
        engine = self._flush_engine(key, tenant, model)
        words = rows.shape[1] // 2
        if words != n_words(engine.d_hv):
            raise ValueError(
                f"plane rows have {2 * words} words but their tenant "
                f"serves d_hv={engine.d_hv}"
            )
        queries = PackedHV(
            signs=np.ascontiguousarray(rows[:, :words]),
            mags=np.ascontiguousarray(rows[:, words:]),
            d=engine.d_hv,
        )
        return getattr(engine, method.removesuffix("_packed"))(queries)

    def _run_live(self, rows: np.ndarray, key: tuple) -> np.ndarray:
        """Flush runner for ``[live words | digest | tenant_index]`` rows.

        Every row's support digest — the keep support or the core — is
        resolved again against its tenant's model *at flush time*
        (:meth:`~repro.serve.InferenceEngine.held_on`), so a hot-swap to
        another keep mask (or to a store without that core) between
        submit and flush fails that tenant's requests of the flush with
        a typed ``bad-request`` (:meth:`_answered`) instead of scoring
        bits on the wrong dimensions; the other tenants' rows are still
        scored.  A flush whose rows all belong to one tenant is scored
        by that tenant's own engine.  A mixed-tenant flush — possible
        on a shared-config ``"group"`` scheduler — stacks the tenants'
        class stores and makes one :func:`fused_tenant_scores` call,
        unless a hot-swap since submit left the engines in different
        groups or some rows stale: then each tenant's rows are scored
        by its own engine, narrower scores padded with ``-inf`` (argmax
        unchanged) and trimmed back per response.
        """
        model = key[2] if key[0] == "tenant" else None
        method, n_live = key[-1].removesuffix("_live"), key[-2]
        words, digests, index = rows[:, :-2], rows[:, -2], rows[:, -1]
        if (index == index[0]).all():
            tenants, first = index[:1], np.zeros(1, dtype=np.intp)
            inverse = np.zeros(len(rows), dtype=np.intp)
        else:
            tenants, first, inverse = np.unique(
                index, return_index=True, return_inverse=True
            )
        names = [self.fleet.record_by_index(int(i)).name for i in tenants]
        engines = [self._flush_engine(key, name, model) for name in names]
        # A tenant holds one support of each width, so its first row's
        # digest names the store that scores its rows now (None once a
        # hot-swap dropped it); a row naming another digest is stale.
        served = digests[first]
        held = [e.held_on(d, n_live) for e, d in zip(engines, served.tolist())]
        stale = digests != served[inverse]
        stale |= np.array([store is None for store in held])[inverse]
        if stale.any():
            swapped = np.unique(inverse[stale])
            if len(swapped) == len(engines):
                raise ValueError(_STALE_SUPPORT)
            for u in swapped:
                self._flush_versions[(key, names[u])] = None
            inverse = np.where(stale, -1, inverse)

        def live_rows(u, sel=slice(None)):
            return LiveHV(words[sel], engines[u].d_hv, n_live, int(served[u]))

        if len(engines) == 1:
            return getattr(engines[0], method)(live_rows(0))
        keys = {e.coalesce_key for e in engines}
        if len(keys) == 1 and None not in keys and not stale.any():
            scores = fused_tenant_scores(
                words,
                held,
                np.stack([e.prepared.norms for e in engines]),
                inverse,
            )
        else:
            width = max(e.n_classes for e in engines)
            scores = np.full((len(rows), width), -np.inf)
            for u, engine in enumerate(engines):
                sel = inverse == u
                if sel.any():
                    scores[sel, : engine.n_classes] = engine.scores(
                        live_rows(u, sel)
                    )
        return scores if method == "scores" else np.argmax(scores, axis=1)

    # ------------------------------------------------------------------
    # typed protocol entry points (what the frontend calls)
    # ------------------------------------------------------------------
    def score(self, request: ScoreRequest) -> ScoreResponse:
        """Answer one typed request synchronously."""
        return self.submit_score(request).result()

    def score_batch(self, request: ScoreBatchRequest) -> ScoreBatchResponse:
        """Answer one typed batch request synchronously."""
        return self.submit_score_batch(request).result()

    def submit_score(
        self, request: ScoreRequest, *, deadline: float | None = None
    ) -> Future:
        """Answer one typed request; resolves to a :class:`ScoreResponse`.

        The response's ``version`` is the version that actually scored
        the flush, even if a hot-swap landed between submit and flush.
        The ``d_hv`` check runs against the version current at submit;
        in the (pathological) case of a promote *changing* ``d_hv``
        mid-flight, the flush fails loudly and every affected request
        gets a typed error rather than silently wrong shapes.  Likewise
        for a hot-swap that changes the tenant's keep mask: a request
        queued as live words — v5 live words, or v1–v4 plane rows on
        the served support, which become live words at submit — fails
        with ``ValueError`` (the wire's ``bad-request``), whatever
        version it was sent at; plane rows off the support carry their
        own magnitude plane and are scored against the new model.

        ``deadline`` (absolute :func:`time.monotonic`; defaults to the
        request's own ``deadline_ms`` budget measured from now) drops
        the request unscored if it expires while queued.
        """
        return self._submit_typed(request, deadline, ScoreResponse)

    def submit_score_batch(
        self, request: ScoreBatchRequest, *, deadline: float | None = None
    ) -> Future:
        """Answer one v2 batch frame; resolves to a
        :class:`ScoreBatchResponse`.

        This is the whole point of the batched wire: the N logical
        sub-requests stacked into ``request`` cost *one* scheduler
        submit (one future, one wakeup, one flush slot) instead of N —
        the response echoes ``counts`` so the client scatters the block
        back itself.  The stacked sub-requests all belong to
        ``request.tenant`` (one client is one tenant); every row is
        scored by one consistent registry version, exactly as for
        :meth:`submit_score` (including ``deadline`` semantics).  The
        response echoes the request's already-validated ``counts``, so
        building it checks only that they cover the scored rows.
        """
        return self._submit_typed(
            request, deadline, ScoreBatchResponse, counts=request.counts
        )

    def _submit_typed(self, request, deadline, response_cls, **extra) -> Future:
        """Shared typed submit: one future, resolving to the response.

        The flusher builds it right after the flush that scored the
        rows, so the recorded flush version is the version that answered.
        """
        if deadline is None and request.deadline_ms is not None:
            deadline = time.monotonic() + request.deadline_ms / 1e3
        want_scores = request.want_scores

        def respond(result, name, version_key):
            version, n_classes = self._answered(version_key)
            if want_scores:
                scores = np.atleast_2d(result)[:, :n_classes]
                result = np.argmax(scores, axis=1)
            else:
                scores = None
            return response_cls(
                predictions=np.atleast_1d(result), scores=scores, model=name,
                version=version, request_id=request.request_id, **extra,
            )

        return self._submit(
            request.queries,
            request.tenant,
            request.model,
            "scores" if want_scores else "predict",
            d_hv=request.d_hv,
            deadline=deadline,
            respond=respond,
        )

    def info(
        self,
        model: str | None = None,
        *,
        request_id: int = 0,
        tenant: str | None = None,
    ) -> ModelInfo:
        """A typed :class:`~repro.proto.ModelInfo` for a served model.

        The per-tenant ``mask_seed`` travels here — each tenant's
        clients adopt *their* tenant's mask, nobody else's.
        """
        record, registry = self.fleet.lookup(tenant)
        return self._info(
            registry.describe(record.model_name(model)), request_id
        )

    @staticmethod
    def _info(described, request_id: int = 0) -> ModelInfo:
        engine = described.engine
        artifact = described.artifact
        if artifact is not None:
            n_live = artifact.n_live_dims
            quantizer = artifact.query_quantizer
            epsilon = artifact.epsilon
            mask_seed = artifact.mask_seed
        else:
            mask = engine.keep_mask
            n_live = engine.d_hv if mask is None else int(mask.sum())
            quantizer = (
                engine.quantizer.name if engine.quantizer is not None else None
            )
            epsilon = float("inf")
            mask_seed = None
        core = engine.prepared.store.core if engine.live_in_place else None
        return ModelInfo(
            name=described.name,
            version=described.version,
            n_classes=engine.n_classes,
            d_hv=engine.d_hv,
            n_live_dims=n_live,
            backend=engine.backend.name,
            query_quantizer=quantizer,
            epsilon=epsilon,
            mask_seed=mask_seed,
            request_id=request_id,
            core_digest=None if core is None else core.digest,
        )

    # ------------------------------------------------------------------
    # ops endpoints (JSON-safe — the HTTP adapter returns these verbatim)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness + fleet summary for load balancers and probes."""
        stats = self.fleet.stats()
        residents = self.fleet.resident_registries()
        return {
            "status": "ok" if stats.tenants else "empty",
            "models": stats.resident_models,
            "default_model": self.fleet.default_tenant,
            "tenants": stats.tenants,
            "resident_models": stats.resident_models,
            "swaps": sum(registry.swaps for _, registry in residents),
        }

    def models(self) -> dict:
        """Every *resident* tenant's default model, keyed by tenant.

        Deliberately residents-only: a 10^5-tenant fleet's ``/models``
        should describe what is serving from memory, not enumerate the
        disk.  ``/tenants`` carries the full count.
        """
        out = {}
        for record, registry in self.fleet.resident_registries():
            try:
                name = record.model_name()
            except ValueError:
                continue  # no default model to describe
            info = self._info(registry.describe(name))
            versions = registry.versions(name)
            out[record.name] = {
                "model": name,
                "current_version": info.version,
                "versions": list(versions),
                "evicted_versions": [
                    v for v in versions if registry.is_evicted(name, v)
                ],
                "n_classes": info.n_classes,
                "d_hv": info.d_hv,
                "n_live_dims": info.n_live_dims,
                "backend": info.backend,
                "query_quantizer": info.query_quantizer,
                "epsilon": None if np.isinf(info.epsilon) else info.epsilon,
                "resident_bytes": record.resident_bytes,
                "pinned": record.pin,
            }
        return out

    def stats(self) -> dict:
        """Fleet cache counters plus scheduler counters, JSON-safe.

        ``"fleet"`` carries hits, misses, evictions, resident bytes and
        models (see :meth:`~repro.serve.FleetStats.as_dict`);
        ``"schedulers"`` maps each scheduler's dotted key to its
        counters.
        """
        with self._lock:
            schedulers = list(self._schedulers.items())
        out = {"fleet": self.fleet.stats().as_dict(), "schedulers": {}}
        for key, sched in schedulers:
            stats = sched.stats
            out["schedulers"][".".join(map(str, key))] = {
                "submitted": stats.submitted,
                "completed": stats.completed,
                "failed": stats.failed,
                "cancelled": stats.cancelled,
                "rejected": stats.rejected,
                "expired": stats.expired,
                "flushes": stats.flushes,
                "mean_batch_rows": stats.mean_batch_rows,
                "max_batch_rows": stats.max_batch_rows,
                "flushes_by_trigger": dict(stats.flushes_by_trigger),
            }
        return out

    def tenants_summary(self, top: int = 10) -> dict:
        """The read-only ``/tenants`` payload: count + top-N by traffic."""
        stats = self.fleet.stats()
        return {
            "count": stats.tenants,
            "resident": stats.resident_models,
            "default_tenant": self.fleet.default_tenant,
            "top": [
                {"tenant": name, "requests": requests}
                for name, requests in self.fleet.top_tenants(top)
                if requests > 0
            ],
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and stop every scheduler; further submissions raise."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            schedulers = list(self._schedulers.values())
        for sched in schedulers:
            sched.close()

    def __enter__(self) -> "ServingAPI":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingAPI({self.fleet!r}, coalesce={self.coalesce}, "
            f"schedulers={len(self._schedulers)})"
        )
