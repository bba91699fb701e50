"""The serving registry: named, versioned models with atomic hot-swap.

A Prive-HD deployment retrains and re-privatizes on a cadence — each run
produces a fresh :class:`~repro.serve.ModelArtifact` that must replace
the live model *without dropping requests*.  :class:`ModelRegistry`
holds every published version of every named model as a prepared
:class:`~repro.serve.InferenceEngine` and keeps one pointer per name to
the *current* version.

Swap semantics
--------------
``promote`` replaces the current pointer under a lock in one assignment;
``resolve`` takes the same lock for a dict read.  A request that
resolved the old engine before a promote simply finishes on the old
engine — both versions are fully constructed, so there is no window
where a name resolves to a partially-prepared model, and therefore no
dropped or errored request during a swap.  The micro-batching
:class:`~repro.serve.ServingAPI` resolves once per *flush*, so every
query in a batch is answered by a single consistent version.

    >>> reg = ModelRegistry()
    >>> v1 = reg.publish("isolet", artifact_v1)        # becomes current
    >>> v2 = reg.publish("isolet", artifact_v2, promote=False)
    >>> reg.promote("isolet", v2)                      # atomic swap
    >>> reg.resolve("isolet")                          # v2's engine
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.serve.artifact import ModelArtifact
from repro.serve.engine import InferenceEngine

__all__ = ["ModelRegistry", "ModelVersion"]


def _check_engine_kwargs(engine_kwargs: dict | None) -> dict:
    kwargs = dict(engine_kwargs or {})
    if refused := {"with_encoder", "encode_workers", "chunk_size"} & {*kwargs}:
        raise ValueError(
            f"serving engines hold no encoder, so engine_kwargs cannot set "
            f"{', '.join(sorted(refused))}; encode raw features offline "
            "with ModelArtifact.engine()"
        )
    return kwargs


@dataclass(frozen=True)
class ModelVersion:
    """One published version of a named model.

    Attributes
    ----------
    name, version:
        Registry coordinates; versions are assigned sequentially per
        name starting at 1.
    engine:
        The prepared serving engine (quantized/packed once, at publish;
        no codebooks); ``None`` while evicted (retired to disk).
    artifact:
        The source artifact when the version was published from one
        (``None`` for engines published directly, and while evicted).
    source_path:
        The on-disk artifact directory this version can be reloaded
        from; set by :meth:`ModelRegistry.load`.  Versions with a
        ``source_path`` are *evictable*: retiring them drops the
        prepared store from memory but keeps the record, and a later
        rollback lazily reloads it.
    engine_kwargs:
        Engine overrides recorded at publish, replayed on reload so an
        evicted version comes back configured exactly as published.
    """

    name: str
    version: int
    engine: InferenceEngine | None
    artifact: ModelArtifact | None = field(default=None, repr=False)
    source_path: Path | None = field(default=None, repr=False)
    engine_kwargs: dict | None = field(default=None, repr=False)

    @property
    def is_evicted(self) -> bool:
        """True while the prepared store lives only on disk."""
        return self.engine is None


class ModelRegistry:
    """Thread-safe store of named, versioned serving engines.

    All mutating and resolving operations take one internal lock; the
    critical sections are dict operations only (engine preparation
    happens *outside* the lock), so resolution stays cheap under
    concurrent serving traffic.
    """

    def __init__(self):
        # Re-entrant: resolution helpers (describe -> _require -> names)
        # compose under one lock without deadlocking.
        self._lock = threading.RLock()
        self._versions: dict[str, dict[int, ModelVersion]] = {}
        self._current: dict[str, int] = {}
        self.swaps = 0

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        name: str,
        model: ModelArtifact | InferenceEngine,
        *,
        promote: bool = True,
        engine_kwargs: dict | None = None,
        source_path: str | Path | None = None,
    ) -> int:
        """Register a new version of ``name``; returns its version number.

        ``model`` is a :class:`~repro.serve.ModelArtifact` (an engine is
        built from it, honoring its recorded backend; ``engine_kwargs``
        forwards overrides, never encoder ones) or an already-prepared
        :class:`~repro.serve.InferenceEngine`.  With ``promote=True``
        (default) the new version becomes current atomically; with
        ``promote=False`` it is staged for a later :meth:`promote` —
        e.g. after a validation pass against the live version.

        ``source_path`` records the artifact directory the version can
        be reloaded from after eviction; :meth:`load` sets it
        automatically.
        """
        if isinstance(model, ModelArtifact):
            kwargs = _check_engine_kwargs(engine_kwargs)
            engine = model.engine(with_encoder=False, **kwargs)
            artifact: ModelArtifact | None = model
        elif isinstance(model, InferenceEngine):
            if engine_kwargs:
                raise ValueError(
                    "engine_kwargs only applies when publishing an artifact"
                )
            if source_path is not None:
                raise ValueError(
                    "source_path only applies when publishing an artifact"
                )
            engine, artifact = model, None
        else:
            raise TypeError(
                "publish() takes a ModelArtifact or an InferenceEngine, "
                f"got {type(model).__name__}"
            )
        with self._lock:
            versions = self._versions.setdefault(name, {})
            version = max(versions, default=0) + 1
            versions[version] = ModelVersion(
                name=name,
                version=version,
                engine=engine,
                artifact=artifact,
                source_path=None if source_path is None else Path(source_path),
                engine_kwargs=dict(engine_kwargs) if engine_kwargs else None,
            )
            if promote or name not in self._current:
                self._current[name] = version
                self.swaps += 1
        return version

    def load(
        self,
        name: str,
        path: str | Path,
        *,
        promote: bool = True,
        engine_kwargs: dict | None = None,
        mmap: bool = False,
        verify: bool = True,
    ) -> int:
        """Load an artifact directory from disk and :meth:`publish` it.

        The path is recorded on the version, which makes it evictable:
        :meth:`retire` can drop its in-memory store and a later rollback
        reloads it from here.  ``mmap=True`` maps a dense store
        read-only instead of copying it onto the heap (packed planes
        are small heap copies either way; see
        :meth:`ModelArtifact.load`) — what each
        :class:`~repro.serve.WorkerPool` worker does so K processes
        share one page-cache copy of a dense store.  ``verify=False``
        skips the SHA-256 pass *on this load only* — sound when the
        pool parent already hashed the directory; eviction reloads
        always re-verify.
        """
        return self.publish(
            name,
            ModelArtifact.load(path, mmap=mmap, verify=verify),
            promote=promote,
            engine_kwargs=engine_kwargs,
            source_path=path,
        )

    # ------------------------------------------------------------------
    # promotion / retirement
    # ------------------------------------------------------------------
    def promote(self, name: str, version: int) -> None:
        """Atomically make ``version`` the current one for ``name``.

        In-flight requests holding the previous engine finish on it;
        every resolution after this call returns the promoted engine.
        """
        with self._lock:
            self._require(name, version)
            self._current[name] = int(version)
            self.swaps += 1

    def retire(self, name: str, version: int) -> None:
        """Free a non-current version's prepared in-memory store.

        Disk-backed versions (published via :meth:`load`) are *evicted*:
        the record stays listed, the engine and artifact are dropped —
        typically the dominant share of registry memory, a prepared
        d_hv=10,000 store per version — and the next resolution (e.g. a
        rollback :meth:`promote`) lazily reloads them from the recorded
        artifact directory, checksums re-verified.  Versions without a
        ``source_path`` cannot come back, so they are deleted outright.
        """
        with self._lock:
            self._require(name, version)
            if self._current.get(name) == version:
                raise ValueError(
                    f"cannot retire the current version {version} of "
                    f"{name!r}; promote another version first"
                )
            record = self._versions[name][version]
            if record.source_path is None:
                del self._versions[name][version]
            elif record.engine is not None:
                self._versions[name][version] = replace(
                    record, engine=None, artifact=None
                )

    def is_evicted(self, name: str, version: int) -> bool:
        """Whether a version's store currently lives only on disk."""
        with self._lock:
            self._require(name, version)
            return self._versions[name][version].is_evicted

    def _require(self, name: str, version: int) -> None:
        if name not in self._versions:
            raise KeyError(f"unknown model {name!r}; published: {self.names()}")
        if version not in self._versions[name]:
            raise KeyError(
                f"model {name!r} has no version {version}; "
                f"published: {sorted(self._versions[name])}"
            )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(self, name: str, version: int | None = None) -> InferenceEngine:
        """The engine for ``name`` (current version unless pinned)."""
        return self.describe(name, version).engine

    def describe(self, name: str, version: int | None = None) -> ModelVersion:
        """Full :class:`ModelVersion` record (engine + source artifact).

        Resolving an evicted version reloads its artifact from the
        recorded directory (checksum-verified) and re-prepares the
        engine with the kwargs it was originally published with — the
        slow path a rollback pays once.  The disk load and engine
        preparation run *outside* the registry lock (two concurrent
        first-resolvers may both load; one install wins), so serving
        traffic for other models never stalls behind a reload.
        """
        with self._lock:
            if name not in self._versions:
                raise KeyError(
                    f"unknown model {name!r}; published: {self.names()}"
                )
            if version is None:
                version = self._current[name]
            self._require(name, version)
            record = self._versions[name][version]
            if record.engine is not None:
                return record
        # Evicted: reload off-lock, then install under a double-check.
        artifact = ModelArtifact.load(record.source_path)
        kwargs = record.engine_kwargs or {}
        engine = artifact.engine(with_encoder=False, **kwargs)
        with self._lock:
            self._require(name, version)
            current = self._versions[name][version]
            if current.engine is None:
                current = replace(
                    current, engine=engine, artifact=artifact
                )
                self._versions[name][version] = current
            return current

    def current_version(self, name: str) -> int:
        """The currently-promoted version number of ``name``."""
        with self._lock:
            if name not in self._current:
                raise KeyError(f"unknown model {name!r}")
            return self._current[name]

    def versions(self, name: str) -> tuple[int, ...]:
        """All published version numbers of ``name``, ascending."""
        with self._lock:
            if name not in self._versions:
                raise KeyError(f"unknown model {name!r}")
            return tuple(sorted(self._versions[name]))

    def names(self) -> tuple[str, ...]:
        """All published model names, sorted."""
        with self._lock:
            return tuple(sorted(self._versions))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._versions

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            parts = [
                f"{name}@v{self._current[name]}"
                f"({len(self._versions[name])} versions)"
                for name in sorted(self._versions)
            ]
        return f"ModelRegistry({', '.join(parts)})"
