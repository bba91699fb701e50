"""Million-model multi-tenancy: a tenant-keyed fleet of tiny models.

Prive-HD's whole point is that the privacy-preserving model is *small* —
a packed class store for 26 classes x d_hv=10,000 is two 32.7 KB bit
planes, and a bipolar or §III-C masked store is held as its live words
plus its magnitude plane once (:class:`~repro.backend.packed.LiveStore`,
~17.7 KB resident with 5,000 live dimensions) — so one host can
plausibly keep 10^4..10^5 **per-user personalized** models warm.
Everything below :mod:`repro.serve.fleet` serves versions of one model;
this module turns that into a real fleet:

* :class:`ModelFleet` — a tenant-keyed facade over many
  :class:`~repro.serve.ModelRegistry` namespaces with a byte-budgeted
  LRU artifact cache.  Tenants are registered *lazily* (a path, not a
  load), admitted on first use with ``mmap=True`` + checksum
  verification — for a packed (v3) artifact that is: read the 65 KB of
  bit planes, hash them, compact them to live words, build no codebooks
  — and evicted oldest-first when the bytes the resident stores hold
  exceed the budget; a later request re-admits from the recorded path,
  checksums re-verified.  Racing requests for one tenant share one
  load.  Hot tenants can be pinned.  Counters live in
  :class:`FleetStats`.
* :class:`~repro.serve.ServingAPI` — the protocol surface over a fleet
  (a single served model is a fleet of one tenant), routing protocol-v4
  ``tenant`` keys.  A request without a tenant hits the fleet's default
  tenant, which is how v3 clients keep working unchanged; an unknown
  key raises :class:`~repro.serve.TenantNotFound` (the non-retryable
  ``"unknown-tenant"`` wire code).
* **Cross-tenant coalescing** — tenants whose artifacts share an
  encoder config (same ``d_hv``/quantizer/live-dimension count, store
  held as live words) share one micro-batch scheduler: each query row
  rides the queue as ``[live words | support digest | tenant_index]``
  (plane rows on the served support are gathered into live words at
  submit), and one flush scores the whole mixed-tenant batch with a
  single fused gather kernel (:func:`fused_tenant_scores`) instead of
  one kernel call per tenant.  Tenants with unique configs, and plane
  rows off the support, fall back to per-tenant flushes, exactly as
  correct, just not amortized.

    >>> fleet = ModelFleet.from_dir("artifacts/fleet", cache_bytes=64 << 20)
    >>> with ServingAPI(fleet) as api:
    ...     api.predict(packed_queries, tenant="user-1234")
    ...     api.stats()["fleet"]          # hits/misses/evictions/bytes

``prive-hd serve --fleet-dir DIR --cache-bytes N`` is the CLI spelling;
``PriveHDClient(..., tenant="user-1234")`` is the remote one.

Tenant isolation is **routing-level, not cryptographic**: every tenant's
bits are scored by the same process, and the tenant key itself is plain
UTF-8 on the wire (see ``docs/privacy-model.md``).  What stays private
is exactly what stays private for a single model: raw features and
codebooks never leave the client.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.backend.packed import LiveStore, xor_dot_rows
from repro.serve.artifact import ModelArtifact
from repro.serve.errors import TenantNotFound
from repro.serve.registry import ModelRegistry, _check_engine_kwargs

__all__ = [
    "DEFAULT_TENANT",
    "FleetStats",
    "ModelFleet",
    "fused_tenant_scores",
]

#: Tenant name a request without a ``tenant`` key resolves to — the
#: bridge that keeps protocol v1-v3 peers (which cannot spell a tenant)
#: working against a fleet-enabled server.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class FleetStats:
    """A point-in-time snapshot of the fleet's cache counters.

    ``hits``, ``misses`` and ``evictions`` are cumulative since the
    fleet was constructed; a caller measuring a window takes the
    difference of two snapshots.

    Attributes
    ----------
    tenants:
        Registered tenant count (resident or not).
    resident_models:
        Tenants whose engine is currently in memory.
    resident_bytes:
        Bytes held by the resident tenants' prepared class stores
        (:attr:`~repro.backend.packed.LiveStore.nbytes`: live words plus
        one magnitude row for a store whose rows share one, both planes
        otherwise; serving engines hold no codebooks), the quantity the
        LRU budget bounds.  Only each resident tenant's *current
        default-model* store is charged: earlier versions a
        :class:`~repro.serve.ModelRegistry` keeps in memory for rollback
        are held uncharged until :meth:`~repro.serve.ModelRegistry.retire`
        frees them.  A tenant's hot-swap is charged at its next request
        or flush.
    cache_bytes:
        The budget ``resident_bytes`` is held under, ``None`` when the
        cache is unbounded.
    pinned:
        Tenants exempt from eviction.
    hits:
        Requests that found their tenant resident.
    misses:
        Admissions from disk: one per completed load of a non-resident
        tenant, each an artifact load plus checksum pass.  Lookups that
        race for the same tenant share one load and count one miss; the
        ones that joined an in-flight load count as neither hit nor
        miss.  A refused load (e.g. a checksum mismatch) counts nothing.
        A flush-time re-admission (the tenant was evicted between submit
        and flush) counts as a miss too, although its request was
        already counted once as a hit or miss at submit.
    evictions:
        Tenants pushed out by the byte budget since the fleet started.
    """

    tenants: int
    resident_models: int
    resident_bytes: int
    cache_bytes: int | None
    pinned: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)`` — 1.0 before any traffic."""
        total = self.hits + self.misses
        if total == 0:
            return 1.0
        return self.hits / total

    def as_dict(self) -> dict:
        """JSON-safe mapping (what the HTTP ``/stats`` adapter emits)."""
        return {
            "tenants": self.tenants,
            "resident_models": self.resident_models,
            "resident_bytes": self.resident_bytes,
            "cache_bytes": self.cache_bytes,
            "pinned": self.pinned,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class _Tenant:
    """Mutable per-tenant record (internal; guarded by the fleet lock)."""

    __slots__ = (
        "name",
        "path",
        "model",
        "pin",
        "engine_kwargs",
        "registry",
        "resident_bytes",
        "requests",
        "index",
        "evictable",
        "engine",
        "loading",
    )

    def __init__(self, name, path, model, pin, engine_kwargs, index):
        self.name = name
        self.path = path
        self.model = model
        self.pin = pin
        self.engine_kwargs = engine_kwargs
        self.registry: ModelRegistry | None = None
        self.resident_bytes = 0
        self.requests = 0
        self.index = index
        # No recorded path means no way back after eviction: keep it.
        self.evictable = path is not None
        # The default model's engine the resident bytes were charged for.
        self.engine = None
        # The in-flight admission every racing lookup waits on.
        self.loading: Future | None = None

    def model_name(self, model: str | None = None) -> str:
        """The registry name a call with ``model=`` serves in this tenant.

        ``None`` falls back to the tenant's default model, then to the
        single name its registry serves.
        """
        name = model or self.model
        if name is None:
            names = self.registry.names()
            if len(names) == 1:
                return names[0]
            raise ValueError(
                "no model name given and no default set; "
                f"registry serves {list(names)}"
            )
        return name


def fused_tenant_scores(
    words: np.ndarray,
    stores: Sequence[LiveStore],
    norms: np.ndarray,
    tenant_of_row: np.ndarray,
) -> np.ndarray:
    """Score a mixed-tenant batch of live words in one fused kernel call.

    The cross-tenant coalescing kernel: instead of T calls to
    :func:`~repro.backend.packed.packed_class_scores` (one per tenant in
    the flush), every query row reads its own tenant's class store by
    index — one row-tiled XOR + popcount pass over the whole batch.
    Every store is held as live words on its own magnitude plane
    ``M_t`` (:class:`~repro.backend.packed.LiveStore`) and every row is
    live words on its tenant's ``M_t`` (protocol-v5 rows, and plane
    rows the serving API gathered at submit), so each row scores
    ``n_live_t − 2·popcount(live(q) ^ live(c))``: one XOR and one
    popcount per live word, tenants' keep masks free to differ.  Core
    stores (:attr:`~repro.backend.packed.LiveStore.core`) score core
    rows the same way, each class's offset added
    (:attr:`~repro.backend.packed.LiveStore.base`).

    Parameters
    ----------
    words:
        ``(N, W)`` uint64 live-word rows, each on its own tenant's
        support.
    stores:
        The :class:`~repro.backend.packed.LiveStore` class stores of the
        U unique tenants present in this flush, each ``C`` rows of ``W``
        live words.
    norms:
        ``(U, C)`` per-tenant class norms
        (:func:`~repro.backend.packed.packed_norms` of each store).
    tenant_of_row:
        ``(N,)`` index into the U axis for every query row.

    Returns
    -------
    ``(N, C)`` float64 scores, bit-for-bit identical to scoring each
    row against its own tenant with ``packed_class_scores`` — same
    exact integer dots, same class-norm division.
    """
    t = np.asarray(tenant_of_row, dtype=np.intp)
    dots = xor_dot_rows(
        words,
        [store.words for store in stores],
        np.array([store.base for store in stores]),
        t,
    )
    return dots.astype(np.float64) / norms[t]


class ModelFleet:
    """A tenant-keyed model fleet with a byte-budgeted LRU cache.

    Each tenant owns a private :class:`~repro.serve.ModelRegistry`
    namespace (its own versions, its own hot-swap), registered lazily:
    :meth:`add_tenant` records the artifact *path* and nothing loads
    until the first request.  Admission loads the artifact with
    ``mmap=True`` and verifies checksums once; eviction (oldest
    unpinned tenant first, whenever resident bytes exceed
    ``cache_bytes``) drops the registry outright, and the next request
    re-admits from the recorded path with checksums re-verified — disk
    is the source of truth, memory is a cache.

    Thread-safe: resolution, admission, and eviction may race freely
    across request threads and flush runners.  Admission is
    single-flight: the first lookup of a non-resident tenant loads it
    *off*-lock (a slow disk must not stall every other tenant) through
    a per-tenant future, and every lookup racing it — a flush-time
    re-admission included — waits on that future instead of loading
    again.  A refused load raises the same error in every waiter and
    leaves the tenant non-resident, so the next request retries.

    Parameters
    ----------
    cache_bytes:
        Budget for the bytes resident class stores hold (``None`` =
        unbounded); see :attr:`FleetStats.resident_bytes`.  A
        single tenant is always allowed residency even if it alone
        exceeds the budget — a budget that can serve nothing is a
        misconfiguration, not a steady state.
    default_tenant:
        Tenant served when a request carries no tenant key (what every
        pre-v4 client is).  ``None`` = the first tenant added.
    """

    def __init__(
        self,
        *,
        cache_bytes: int | None = None,
        default_tenant: str | None = None,
    ):
        if cache_bytes is not None and cache_bytes <= 0:
            raise ValueError(f"cache_bytes must be > 0, got {cache_bytes}")
        self.cache_bytes = cache_bytes
        self.default_tenant = default_tenant
        self._lock = threading.RLock()
        self._tenants: dict[str, _Tenant] = {}
        self._by_index: list[_Tenant] = []
        self._lru: OrderedDict[str, None] = OrderedDict()
        self._resident_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dir(
        cls,
        fleet_dir: str | Path,
        *,
        cache_bytes: int | None = None,
        default_tenant: str | None = None,
        model: str = "model",
    ) -> "ModelFleet":
        """A fleet from a directory of per-tenant artifact directories.

        Every subdirectory of ``fleet_dir`` containing a
        ``manifest.json`` becomes a tenant named after the subdirectory
        (sorted order).  Nothing is loaded here — registration is lazy,
        so a 10k-tenant directory costs a directory listing, not 10k
        checksum passes.  The default tenant is ``default_tenant`` if
        given, else a subdirectory literally named ``"default"``, else
        the first tenant in sorted order.
        """
        root = Path(fleet_dir)
        if not root.is_dir():
            raise FileNotFoundError(f"fleet dir {root} does not exist")
        names = sorted(
            entry.name
            for entry in root.iterdir()
            if entry.is_dir() and (entry / "manifest.json").is_file()
        )
        if not names:
            raise ValueError(
                f"fleet dir {root} holds no artifact subdirectories"
            )
        if default_tenant is None:
            default_tenant = (
                DEFAULT_TENANT if DEFAULT_TENANT in names else names[0]
            )
        fleet = cls(cache_bytes=cache_bytes, default_tenant=default_tenant)
        for name in names:
            fleet.add_tenant(name, root / name, model=model)
        return fleet

    def add_tenant(
        self,
        tenant: str,
        source: str | Path | ModelArtifact | ModelRegistry,
        *,
        model: str | None = "model",
        pin: bool = False,
        engine_kwargs: dict | None = None,
    ) -> None:
        """Register one tenant; loading is deferred to first use.

        ``source`` is normally an artifact directory path — recorded,
        not loaded, so registering a million tenants is cheap and the
        LRU cache decides what is actually resident.  An in-memory
        :class:`~repro.serve.ModelArtifact` (published as ``model``) or
        a live :class:`~repro.serve.ModelRegistry` is resident at once
        and is never evicted (there is no path to reload it from).
        ``model=None`` serves whichever single name the registry holds.
        ``pin=True`` exempts a hot tenant from eviction.
        """
        _check_engine_kwargs(engine_kwargs)
        with self._lock:
            if tenant in self._tenants:
                raise ValueError(f"tenant {tenant!r} already registered")
            path = (
                None
                if isinstance(source, (ModelArtifact, ModelRegistry))
                else Path(source)
            )
            record = _Tenant(
                tenant, path, model, pin, engine_kwargs, len(self._by_index)
            )
            if isinstance(source, ModelArtifact):
                registry = ModelRegistry()
                registry.publish(model, source, engine_kwargs=engine_kwargs)
                self._install(record, registry)
            elif isinstance(source, ModelRegistry):
                self._install(record, source)
            self._tenants[tenant] = record
            self._by_index.append(record)
            if self.default_tenant is None:
                self.default_tenant = tenant

    # ------------------------------------------------------------------
    # resolution (the hot path)
    # ------------------------------------------------------------------
    def resolve(self, tenant: str | None = None, *, count: bool = True) -> _Tenant:
        """The tenant's record with a live registry, admitting if needed.

        See :meth:`lookup`, which also returns the registry itself.
        """
        return self.lookup(tenant, count=count)[0]

    def lookup(
        self, tenant: str | None = None, *, count: bool = True
    ) -> tuple[_Tenant, ModelRegistry]:
        """``(record, registry)`` of a tenant, admitting it if needed.

        The registry is captured at resolution, so a concurrent
        eviction (which clears ``record.registry``) cannot pull it out
        from under the caller.  ``None`` resolves to the default
        tenant.  Raises :class:`~repro.serve.TenantNotFound` for keys
        the fleet does not host.  ``count=True`` (the request path)
        bumps the tenant's traffic counter and the hit/miss stats;
        flush runners re-resolve with ``count=False`` so one request is
        not counted twice (an eviction between submit and flush still
        counts its re-admission as a miss — that load was real).  A
        lookup that finds its tenant already loading waits for that
        load (see :meth:`_admit`) and counts neither a hit nor a miss.
        """
        name = self.default_tenant if tenant is None else tenant
        with self._lock:
            record = self._tenants.get(name) if name is not None else None
            if record is None:
                raise TenantNotFound(
                    f"tenant {name!r} is not hosted by this fleet "
                    f"({len(self._tenants)} tenants registered)",
                    tenant=name,
                )
            if count:
                record.requests += 1
            registry = record.registry
            if registry is not None:
                if count:
                    self._hits += 1
                if record.name in self._lru:
                    self._lru.move_to_end(record.name)
                return record, registry
        return record, self._admit(record)

    def _admit(self, record: _Tenant) -> ModelRegistry:
        """Load a non-resident tenant (off-lock, single-flight) and install it.

        ``verify=True`` on every admission: the first load checks the
        manifest checksums once, and — because eviction throws the
        whole registry away — a post-eviction reload re-verifies
        lazily, exactly when the bytes come back off disk.  The first
        caller loads; callers arriving while that load is in flight
        wait on the tenant's ``loading`` future and get its registry
        (or its exception) — one :meth:`ModelRegistry.load` per miss.
        """
        with self._lock:
            if record.registry is not None:  # installed since lookup
                return record.registry
            pending = record.loading
            if pending is None:
                pending = record.loading = Future()
                leader = True
            else:
                leader = False
        if not leader:
            return pending.result()
        try:
            registry = ModelRegistry()
            registry.load(
                record.model,
                record.path,
                engine_kwargs=record.engine_kwargs,
                mmap=True,
                verify=True,
            )
        except BaseException as exc:
            with self._lock:
                record.loading = None
            pending.set_exception(exc)
            raise
        with self._lock:
            record.loading = None
            self._misses += 1
            self._install(record, registry)
        pending.set_result(registry)
        return registry

    def _install(self, record: _Tenant, registry: ModelRegistry) -> None:
        """Make a loaded registry resident (lock held by caller).

        A registry that cannot name a default model yet (empty, or
        several names and no default) holds no bytes and coalesces
        with nobody.
        """
        record.registry = registry
        self._lru[record.name] = None
        self._lru.move_to_end(record.name)
        self._charge(record)

    def _charge(self, record: _Tenant) -> None:
        """Charge a resident tenant its default engine's store bytes, then
        evict to budget (lock held by caller)."""
        try:
            engine = record.registry.describe(record.model_name()).engine
        except (KeyError, ValueError):
            engine = None
        charge = 0 if engine is None else int(engine.store_nbytes)
        self._resident_bytes += charge - record.resident_bytes
        record.resident_bytes = charge
        record.engine = engine
        self._evict_to_budget(keep=record.name)

    def recharge(
        self, record: _Tenant, registry: ModelRegistry, model, engine
    ) -> None:
        """Re-derive a tenant's charge when its default engine changed.

        ``engine`` is what a request or a flush asking ``registry`` for
        ``model`` (``None``: the default) resolved to.  Only the default
        model is charged, so a request naming another model, like an
        unchanged engine, costs one check and no lock; after a hot-swap
        of the default model the tenant is charged its new store's
        bytes and the budget is enforced again.  A registry evicted
        since it was resolved is left alone.
        """
        if engine is record.engine or (
            model is not None and model != record.model
        ):
            return
        with self._lock:
            if record.registry is registry:
                self._charge(record)

    def _evict_to_budget(self, *, keep: str) -> None:
        """Evict oldest unpinned tenants until under budget (lock held)."""
        if self.cache_bytes is None:
            return
        while self._resident_bytes > self.cache_bytes:
            victim = next(
                (
                    name
                    for name in self._lru  # oldest-first iteration
                    if name != keep
                    and self._tenants[name].evictable
                    and not self._tenants[name].pin
                ),
                None,
            )
            if victim is None:
                return  # only pinned/unreloadable/just-admitted remain
            record = self._tenants[victim]
            del self._lru[victim]
            self._resident_bytes -= record.resident_bytes
            record.registry = None
            record.engine = None
            record.resident_bytes = 0
            self._evictions += 1

    def flush_engines(self, indices, model: str | None = None) -> list:
        """Each indexed tenant's ``(engine, version)`` for one flush.

        ``indices`` are the tenant index columns of a coalesced flush's
        rows.  One hold of the fleet lock finds every tenant's registry
        and touches its LRU entry, counting no traffic (the requests
        were counted at submit).  Then each tenant is resolved as a
        flush must: one evicted since submit is re-admitted (joining an
        in-flight load), and a hot-swapped default model is recharged
        (:meth:`recharge`).  A tenant whose re-admission or resolution
        raises gets that exception in its place, the others are
        resolved regardless.
        """
        with self._lock:
            found = []
            for index in indices:
                record = self._by_index[index]
                if record.name in self._lru:
                    self._lru.move_to_end(record.name)
                found.append((record, record.registry))
        out = []
        for record, registry in found:
            try:
                if registry is None:
                    registry = self._admit(record)
                described = registry.describe(record.model_name(model))
                self.recharge(record, registry, model, described.engine)
                out.append((described.engine, described.version))
            except Exception as exc:  # noqa: BLE001 — this tenant only
                out.append(exc)
        return out

    def registry_for(self, tenant: str | None = None) -> ModelRegistry:
        """The tenant's live registry (admitting it if evicted).

        This is the hot-swap entry point: ``load``/``promote`` on the
        returned registry swaps that one tenant's model with zero
        dropped requests, exactly as for a single-model server.
        """
        return self.lookup(tenant, count=False)[1]

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------
    def pin(self, tenant: str) -> None:
        """Exempt a (registered) tenant from LRU eviction."""
        with self._lock:
            record = self._tenants.get(tenant)
            if record is None:
                raise TenantNotFound(
                    f"cannot pin unknown tenant {tenant!r}", tenant=tenant
                )
            record.pin = True

    def unpin(self, tenant: str) -> None:
        """Make a pinned tenant evictable again (budget re-checked lazily)."""
        with self._lock:
            record = self._tenants.get(tenant)
            if record is None:
                raise TenantNotFound(
                    f"cannot unpin unknown tenant {tenant!r}", tenant=tenant
                )
            record.pin = False

    def resident_registries(self) -> list[tuple[_Tenant, ModelRegistry]]:
        """``(record, registry)`` of every resident tenant, oldest first.

        A read-only snapshot for the ops endpoints: it neither counts
        as traffic nor reorders the LRU.
        """
        with self._lock:
            return [
                (self._tenants[name], self._tenants[name].registry)
                for name in self._lru
            ]

    def tenants(self) -> tuple[str, ...]:
        """Every registered tenant name, in registration order."""
        with self._lock:
            return tuple(self._tenants)

    def resident_tenants(self) -> tuple[str, ...]:
        """Tenants currently holding memory, oldest-LRU first."""
        with self._lock:
            return tuple(self._lru)

    def is_resident(self, tenant: str) -> bool:
        """Whether the tenant's engine is in memory right now."""
        with self._lock:
            record = self._tenants.get(tenant)
            return record is not None and record.registry is not None

    def top_tenants(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` busiest tenants as ``(name, requests)``, descending."""
        with self._lock:
            ranked = sorted(
                ((r.name, r.requests) for r in self._tenants.values()),
                key=lambda item: (-item[1], item[0]),
            )
        return ranked[: max(0, int(n))]

    def stats(self) -> FleetStats:
        """A consistent :class:`FleetStats` snapshot."""
        with self._lock:
            return FleetStats(
                tenants=len(self._tenants),
                resident_models=len(self._lru),
                resident_bytes=self._resident_bytes,
                cache_bytes=self.cache_bytes,
                pinned=sum(1 for r in self._tenants.values() if r.pin),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )

    def __contains__(self, tenant: str) -> bool:
        with self._lock:
            return tenant in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"ModelFleet({s.tenants} tenants, {s.resident_models} resident, "
            f"{s.resident_bytes} bytes, default={self.default_tenant!r})"
        )
