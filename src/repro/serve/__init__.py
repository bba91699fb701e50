"""Model serving: artifacts, registry, micro-batching, prepared engines.

The serving subsystem moves models from training to traffic:

* :class:`ModelArtifact` — the versioned on-disk unit (npz tensors +
  JSON manifest) that reconstructs a ready engine without training code;
* :class:`InferenceEngine` — a prepared snapshot (quantized once,
  bit-packed once, norms precomputed once) answering batched queries
  through any :mod:`repro.backend` backend;
* :class:`ModelRegistry` — named, versioned engines with atomic
  hot-swap (promote a fresh privatized model, zero dropped requests);
* :class:`MicroBatchScheduler` — deadline- and size-triggered
  coalescing of concurrent small callers into bounded packed batches;
* :class:`ServingAPI` — the one typed, micro-batched surface (speaking
  :mod:`repro.proto` requests/responses) every entry point funnels
  through; it serves a :class:`ModelFleet`, and a single model is a
  fleet of one;
* :class:`ServingFrontend` / :class:`FrontendHandle` — the asyncio
  socket server (plus HTTP ops adapter) that exposes the API to remote
  :class:`~repro.client.PriveHDClient` connections without ever seeing
  raw features or codebooks;
* :class:`WorkerPool` — K acceptor processes sharing one listen address
  via ``SO_REUSEPORT``, each mmap-loading the same artifact read-only,
  hot-swapped fleet-wide over a control channel and kept at strength by
  a supervisor that respawns crashed workers with the registry state
  replayed;
* :class:`ModelFleet` — million-model
  multi-tenancy: a tenant-keyed facade over many registries with a
  byte-budgeted LRU artifact cache (:class:`FleetStats` counters) and
  cross-tenant coalesced scoring, addressed by the protocol-v4
  ``tenant`` key;
* :class:`Overloaded` / :class:`DeadlineExceeded` / :class:`WorkerLost`
  / :class:`TenantNotFound` — the typed overload/failure vocabulary
  (see ``docs/operations.md``);
* :data:`faults` — the deterministic fault-injection registry the chaos
  suite and ``bench_serve --chaos`` arm (a no-op in production).
"""

from repro.serve.api import ServingAPI
from repro.serve.artifact import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    ModelArtifact,
    load_artifact,
)
from repro.serve.engine import InferenceEngine
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    TenantNotFound,
    WorkerLost,
)
from repro.serve.faults import FaultRegistry, faults
from repro.serve.fleet import (
    DEFAULT_TENANT,
    FleetStats,
    ModelFleet,
    fused_tenant_scores,
)
from repro.serve.frontend import FrontendConfig, FrontendHandle, ServingFrontend
from repro.serve.loops import (
    LOOP_CHOICES,
    UVLOOP_AVAILABLE,
    loops_available,
    new_event_loop,
)
from repro.serve.pool import WorkerPool
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.scheduler import (
    MicroBatchConfig,
    MicroBatchScheduler,
    SchedulerStats,
    split_rows,
)

__all__ = [
    "InferenceEngine",
    "ModelArtifact",
    "ArtifactError",
    "load_artifact",
    "ARTIFACT_FORMAT_VERSION",
    "ModelRegistry",
    "ModelVersion",
    "MicroBatchConfig",
    "MicroBatchScheduler",
    "SchedulerStats",
    "split_rows",
    "ServingAPI",
    "ServingFrontend",
    "FrontendConfig",
    "FrontendHandle",
    "WorkerPool",
    "ModelFleet",
    "FleetStats",
    "DEFAULT_TENANT",
    "fused_tenant_scores",
    "Overloaded",
    "DeadlineExceeded",
    "WorkerLost",
    "TenantNotFound",
    "FaultRegistry",
    "faults",
    "LOOP_CHOICES",
    "UVLOOP_AVAILABLE",
    "loops_available",
    "new_event_loop",
]
