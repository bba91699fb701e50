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
/ rollback) hot-swap between flushes with zero dropped requests.  The
API's schedulers are queues: one flusher thread runs all their flushes,
taking the due queues in turn.  A
socket request the frontend found alone may instead run to completion
on the frontend's thread, scored by the engine resolved at submit
(submit and flush are then one call, so one version answers it).
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
from repro.obs import Ledger, thread_cpu_seconds
from repro.proto.messages import (
    ModelInfo,
    ScoreRequest,
    ScoreResponse,
)
from repro.serve.artifact import ModelArtifact
from repro.serve.fleet import ModelFleet, fused_tenant_scores
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import (
    MicroBatchConfig,
    MicroBatchScheduler,
    _Flusher,
    split_rows,
)

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
        # the one thread that runs every scheduler's flushes, in turn
        self._flusher = _Flusher("serving-flusher")
        self._closed = False
        #: per-stage latency of the requests the socket frontend served
        self.ledger = Ledger()

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
        tenant ``name`` whose registry serves the model ``name``, built
        without codebooks (encoder ``engine_kwargs`` are refused) inside
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
        return self._rows(queries, tenant, model, "predict")

    def scores(self, queries, *, model: str | None = None,
               tenant: str | None = None) -> np.ndarray:
        """Eq. (4) class scores for encoded query hypervectors."""
        return self._rows(queries, tenant, model, "scores")

    def _rows(self, queries, tenant, model, method) -> np.ndarray:
        """This request's rows of the flush that scored it (blocking).

        A 1-D dense request gets its single row, squeezed.
        """
        rows, _ = self._submit(queries, tenant, model, method).result()
        packed = isinstance(queries, (LiveHV, PackedHV))
        return rows[0] if not packed and np.ndim(queries) == 1 else rows

    # ------------------------------------------------------------------
    # submission plumbing
    # ------------------------------------------------------------------
    def _submit(self, queries, tenant, model, method, *, d_hv=None,
                deadline=None, respond=None, stamps=None):
        """Resolve tenant + model, shape-check, enqueue once.

        Returns the future: the request's ``(rows, version)`` outcome
        or, with ``respond``, ``respond(rows, version, name)``, built in
        the flusher thread right after the flush.  Bit-packed queries
        stay packed through the micro-batcher in one of two shapes.
        Live words (:class:`~repro.backend.packed.LiveHV`, checked here
        against the model's support or its core) ride as ``[words |
        support digest | tenant_index]`` rows, and so do plane rows on
        the support of a store held as live words, gathered once here
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

        ``stamps`` is the frontend's :class:`~repro.obs.RequestRecord`;
        one that allows it (``may_inline``) offers the request to the
        scheduler's inline executor
        (:meth:`~repro.serve.MicroBatchScheduler._run_here`), which
        scores the queries as given, unpacked, with the engine and
        version resolved here.
        """
        packed = isinstance(queries, (LiveHV, PackedHV))
        if packed:
            d_hv = queries.d
        record, registry = self.fleet.lookup(tenant)
        name = record.model_name(model)
        described = registry.describe(name)
        engine = described.engine
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
        live = isinstance(queries, LiveHV)
        if live:
            engine.check_live(queries)
            # Live rows are n_words(n_live) + 2 wide, and keep and core
            # words (or a hot-swap) differ in n_live: the count keys the
            # queue, so rows of different widths never meet in one flush.
            suffix = "_live"
            if self.coalesce and engine.coalesce_key and name == record.model:
                key = ("group", *engine.coalesce_key, queries.n_live)
            else:
                key = ("tenant", record.name, name, queries.n_live)
            run = self._run_live
        else:
            suffix = "_packed" if packed else ""
            run, key = self._run_tenant, ("tenant", record.name, name)
        key += (method + suffix,)
        finish = None if respond is None else (
            lambda outcome: respond(*outcome, name)
        )
        sched = self._scheduler(key, run)
        if stamps is not None and stamps.may_inline:
            score = getattr(engine, method)
            version = described.version
            n = queries.n if packed else np.atleast_2d(queries).shape[0]
            future = sched._run_here(
                n, lambda: [(score(queries), version)], deadline, finish,
                stamps,
            )
            if future is not None:
                return future
        if live:
            index = np.full((queries.n, 1), record.index, dtype=np.uint64)
            queries = np.concatenate(
                [queries.words, np.full_like(index, queries.digest), index],
                axis=1,
            )
        elif packed:
            queries = np.concatenate([queries.signs, queries.mags], axis=1)
        return sched._enqueue(queries, deadline, finish, stamps)

    def _scheduler(self, key: tuple, run) -> MicroBatchScheduler:
        with self._lock:
            if self._closed:
                raise RuntimeError("serving API is closed")
            sched = self._schedulers.get(key)
            if sched is None:
                sched = MicroBatchScheduler(
                    lambda rows, counts: run(rows, counts, key),
                    self.config,
                    name=".".join(map(str, key)),
                    _flusher=self._flusher,
                )
                self._schedulers[key] = sched
            return sched

    def _flush_engine(self, tenant: str, model: str | None):
        """``(engine, version)`` that scores ``tenant``'s rows in this flush.

        Resolved *at flush time* — an eviction between submit and flush
        re-admits here (joining the tenant's in-flight load if a request
        is already admitting it), a hot-swap lands here (and a swapped
        default model is recharged, :meth:`ModelFleet.recharge`).
        """
        record, registry = self.fleet.lookup(tenant, count=False)
        described = registry.describe(record.model_name(model))
        self.fleet.recharge(record, registry, model, described.engine)
        return described.engine, described.version

    def _run_tenant(self, rows, counts, key: tuple) -> list:
        """Flush runner for one tenant's dense rows or ``[signs | mags]``
        plane rows.

        Plane rows reach the engine as the rebuilt :class:`PackedHV`
        and take its general formula (a dense engine unpacks them).
        """
        _, tenant, model, method = key
        engine, version = self._flush_engine(tenant, model)
        if method.endswith("_packed"):
            method = method.removesuffix("_packed")
            words = rows.shape[1] // 2
            if words != n_words(engine.d_hv):
                raise ValueError(
                    f"plane rows have {2 * words} words but their tenant "
                    f"serves d_hv={engine.d_hv}"
                )
            rows = PackedHV(
                signs=np.ascontiguousarray(rows[:, :words]),
                mags=np.ascontiguousarray(rows[:, words:]),
                d=engine.d_hv,
            )
        result = getattr(engine, method)(rows)
        return [(part, version) for part in split_rows(result, counts)]

    def _run_live(self, rows, counts, key: tuple) -> list:
        """Flush runner for ``[live words | digest | tenant_index]`` rows.

        A request's rows name one tenant and one support (the keep
        support or the core), resolved against the tenant's model *at
        flush time* (:meth:`~repro.serve.InferenceEngine.held_on`).  A
        request whose support the tenant no longer serves — a hot-swap
        changed its keep mask, or dropped the core, since submit — gets
        a typed ``ValueError`` (the wire's ``bad-request``) as its own
        outcome, never scores on the wrong dimensions; every other
        request, the same tenant's fresh ones included, is answered.
        A tenant whose flush-time re-admission fails (its artifact
        became unreadable after an eviction) gets that error as the
        outcome of its own requests only.
        Fresh rows of several supports are scored by one
        :func:`fused_tenant_scores` call while their engines share a
        coalesce key, otherwise by each support's own engine, at that
        engine's own class count.
        """
        model = key[2] if key[0] == "tenant" else None
        method, n_live = key[-1].removesuffix("_live"), key[-2]
        firsts = np.cumsum(counts) - counts
        supports = list(
            zip(rows[firsts, -1].tolist(), rows[firsts, -2].tolist())
        )
        requests: dict[tuple, list] = {}  # support -> its requests
        for r, support in enumerate(supports):
            requests.setdefault(support, []).append(r)
        engines, held, failed = {}, {}, {}
        for index, digest in requests:
            if index not in engines and index not in failed:
                try:
                    name = self.fleet.record_by_index(index).name
                    engines[index] = self._flush_engine(name, model)
                except Exception as exc:  # noqa: BLE001 — this tenant only
                    failed[index] = exc
            if index in engines:
                store = engines[index][0].held_on(digest, n_live)
                if store is not None:
                    held[index, digest] = store
        outcomes = [
            None if support in held
            else failed.get(support[0]) or ValueError(_STALE_SUPPORT)
            for support in supports
        ]
        groups = {engines[index][0].coalesce_key for index, _ in held}
        fuse = len(held) > 1 and len(groups) == 1 and None not in groups
        if fuse:
            units = [[r for r, s in enumerate(supports) if s in held]]
        else:
            units = [requests[support] for support in held]
        for chosen in units:
            sizes, words = counts[chosen], rows[:, :-2]
            if len(chosen) < len(supports):
                keep = np.zeros(len(supports), dtype=bool)
                keep[chosen] = True
                words = words[np.repeat(keep, counts)]
            if fuse:
                place = {support: u for u, support in enumerate(held)}
                scores = fused_tenant_scores(
                    words,
                    list(held.values()),
                    np.stack([engines[i][0].prepared.norms for i, _ in held]),
                    np.repeat([place[supports[r]] for r in chosen], sizes),
                )
                result = (
                    scores if method == "scores" else np.argmax(scores, axis=1)
                )
            else:
                index, digest = supports[chosen[0]]
                engine = engines[index][0]
                result = getattr(engine, method)(
                    LiveHV(words, engine.d_hv, n_live, digest)
                )
            for r, part in zip(chosen, split_rows(result, sizes)):
                outcomes[r] = (part, engines[supports[r][0]][1])
        return outcomes

    # ------------------------------------------------------------------
    # typed protocol entry points (what the frontend calls)
    # ------------------------------------------------------------------
    def score(self, request: ScoreRequest) -> ScoreResponse:
        """Answer one typed request synchronously."""
        return self.submit_score(request).result()

    def submit_score(self, request: ScoreRequest, *,
                     deadline: float | None = None, _record=None) -> Future:
        """Answer one typed request; resolves to its :class:`ScoreResponse`.

        A request with ``counts`` — N logical sub-requests stacked into
        one v2 frame, all of ``request.tenant`` — costs the same *one*
        scheduler submit, and its response echoes the request's
        already-validated ``counts``, so the client scatters the block
        back itself.  The flusher builds the response right after the
        flush that scored the rows.

        The response's ``version`` is the version that actually scored
        the request, even if a hot-swap landed between submit and flush.
        The ``d_hv`` check runs against the version current at submit;
        in the (pathological) case of a promote *changing* ``d_hv``
        mid-flight, the flush fails loudly and every affected request
        gets a typed error rather than silently wrong shapes.  Likewise
        for a hot-swap that changes the tenant's keep mask: a request
        queued as live words — v5 live words, or v1–v4 plane rows on
        the served support, which become live words at submit — whose
        rows name a support the tenant no longer serves fails alone
        with ``ValueError`` (the wire's ``bad-request``), whatever
        version it was sent at; the same tenant's requests in that
        flush that name the support it serves now are answered.  Plane
        rows off the support carry their own magnitude plane and are
        scored against the new model.

        ``deadline`` (absolute :func:`time.monotonic`; defaults to the
        request's own ``deadline_ms`` budget measured from now) drops
        the request unscored if it expires while queued.

        ``_record`` is the socket frontend's ledger record of this
        request (:class:`~repro.obs.RequestRecord`); only the frontend
        passes one, and only its ``may_inline`` requests may come back
        already resolved, scored on the calling thread.
        """
        if deadline is None and request.deadline_ms is not None:
            deadline = time.monotonic() + request.deadline_ms / 1e3
        want_scores = request.want_scores

        def respond(result, version, name):
            if want_scores:
                scores = np.atleast_2d(result)
                result = np.argmax(scores, axis=1)
            else:
                scores = None
            return ScoreResponse(
                predictions=np.atleast_1d(result), scores=scores, model=name,
                version=version, request_id=request.request_id,
                counts=request.counts,
            )

        return self._submit(
            request.queries,
            request.tenant,
            request.model,
            "scores" if want_scores else "predict",
            d_hv=request.d_hv,
            deadline=deadline,
            respond=respond,
            stamps=_record,
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
        """Fleet, scheduler, ledger and thread counters, JSON-safe.

        ``"fleet"`` carries hits, misses, evictions, resident bytes and
        models (see :meth:`~repro.serve.FleetStats.as_dict`);
        ``"schedulers"`` maps each scheduler's dotted key to its
        counters; ``"stages"`` is the socket requests' latency ledger
        (:meth:`~repro.obs.Ledger.snapshot`); ``"threads"`` maps each
        live thread's name to its CPU seconds, where ``/proc`` has them.
        """
        with self._lock:
            schedulers = list(self._schedulers.items())
        out = {
            "fleet": self.fleet.stats().as_dict(),
            "schedulers": {},
            "stages": self.ledger.snapshot(),
        }
        threads = thread_cpu_seconds()
        if threads is not None:
            out["threads"] = threads
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
        """Drain every scheduler and stop the flusher; further
        submissions raise."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._flusher.close()

    def __enter__(self) -> "ServingAPI":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingAPI({self.fleet!r}, coalesce={self.coalesce}, "
            f"schedulers={len(self._schedulers)})"
        )
