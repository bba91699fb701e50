"""The versioned, self-describing on-disk model format.

Prive-HD's deployment unit is not a training run — it is the *served*
model: the (possibly privatized, pruned, quantized) class store plus
everything a host needs to answer queries exactly as the trainer would.
:class:`ModelArtifact` captures that unit as a directory of two files:

``manifest.json``
    Human-readable description: format version, store shape/dtype,
    quantizer names, preferred backend layout, the encoder *config*
    (codebooks regenerate deterministically from the seed — the config
    **is** the codebook), the privacy certificate (ε, δ, σ, sensitivity
    report) and SHA-256 checksums of every tensor.
``tensors.npz``
    The arrays, already in their serving representation (quantile
    quantizers are not idempotent, so the store is quantized exactly
    once, at save time):

    * ``packed``/``native`` backend (format v3): ``signs`` and ``mags``,
      the ``(n_classes, ⌈d_hv/64⌉)`` uint64 bit planes the XOR+popcount
      kernels score — 65 KB on disk for 26 classes at d_hv=10,000,
      against 1.04 MB as a dense float32 store.  The manifest records
      the dtype the dense store had (``store_dtype``); norms are
      recomputed from ``mags`` at load, so no derived tensor can
      disagree with the planes.  The loader refuses planes with bits set past ``d_hv``
      in the last word, even when their checksums match.
    * ``dense`` backend: ``class_hvs``, the dense ``(n_classes, d_hv)``
      store (v2 wrote this tensor for every backend; v2 artifacts still
      load).
    * ``keep_mask``, the pruning keep-mask, when present.
    * ``core`` and ``core_offsets``, when a bipolar packed store was
      built with a level-base encoder: the core plane (the live
      dimensions some level flips) and each class's constant score on
      the other live dimensions, whose query signs the public codebooks
      fix (:attr:`~repro.backend.packed.LiveStore.core`).

``save``/``load`` round-trip bit-exactly, and :meth:`ModelArtifact.
engine` reconstructs a ready :class:`~repro.serve.InferenceEngine`
without touching any training code — for a packed artifact by wrapping
the loaded planes, with no dense copy and no repack:

    >>> art = ModelArtifact.build(model, quantizer="bipolar",
    ...                           backend="packed", encoder=enc)
    >>> art.save("isolet-v1")
    >>> engine = ModelArtifact.load("isolet-v1").engine()
    >>> engine.predict(queries)          # identical to pre-save engine

``load(mmap=True)`` maps a *dense* store read-only off disk.  Packed
planes are copied into aligned, read-only heap arrays before they are
hashed, so the bytes verified are the bytes served, and rewriting an
artifact in place can neither alter nor fault a model that is already
resident.  Whichever way an artifact is made (built, v3 or v2 load), a
packed store whose rows share one magnitude plane — every bipolar and
every §III-C masked store — is then held as its live words plus that
plane once (:func:`~repro.backend.packed.compact_store`): 17.7 KB per
26 x 10,000 tenant with 5,000 live dimensions instead of 65 KB.
:meth:`ModelArtifact.save` and :attr:`ModelArtifact.class_hvs` expand
it back, so the files and their checksums do not change.

The manifest makes artifacts safe to hand across trust boundaries: a
host can verify checksums and read the privacy certificate before
serving, and a newer reader always refuses an artifact from a future
format version.
"""

from __future__ import annotations

import hashlib
import json
import math
import tokenize
import zipfile
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.backend import Backend, PackedBackend, PackedHV, get_backend
from repro.backend.packed import (
    WORD_BITS,
    LiveStore,
    _frozen,
    compact_store,
    keep_of,
    keep_support,
    n_words,
    pack_hypervectors,
    popcount,
)
from repro.hd.model import HDModel
from repro.hd.quantize import get_quantizer
from repro.serve.engine import InferenceEngine

if TYPE_CHECKING:
    from repro.hd.encoder import Encoder

__all__ = [
    "ModelArtifact",
    "ArtifactError",
    "load_artifact",
    "ARTIFACT_FORMAT_VERSION",
    "MANIFEST_FILENAME",
    "TENSORS_FILENAME",
]

#: bump when the artifact layout changes incompatibly
ARTIFACT_FORMAT_VERSION = 3

MANIFEST_FILENAME = "manifest.json"
TENSORS_FILENAME = "tensors.npz"


class ArtifactError(ValueError):
    """A model artifact is missing, malformed, corrupt, or too new."""


#: What reading a damaged npz can raise besides ``OSError``/``ValueError``:
#: a truncated member, a central directory naming an unsupported
#: compression method or an encrypted member, an unparseable ``.npy``
#: header.
_NPZ_ERRORS = (
    OSError,
    ValueError,
    EOFError,
    zipfile.BadZipFile,
    NotImplementedError,
    RuntimeError,
    tokenize.TokenError,
)


def _checksum(arr: np.ndarray) -> str:
    """SHA-256 over the array's C-order bytes (dtype/shape checked apart)."""
    return hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()


def _tensor_spec(arr: np.ndarray) -> dict:
    """The manifest entry of one tensor: shape, dtype and checksum."""
    return {
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
        "sha256": _checksum(arr),
    }


def _tensor_entry(declared: dict, name: str) -> dict | None:
    """The manifest entry of tensor ``name``, checked for its keys."""
    spec = declared.get(name)
    if spec is not None and not (
        isinstance(spec, dict) and {"shape", "dtype", "sha256"} <= spec.keys()
    ):
        raise ArtifactError(
            f"malformed manifest entry for tensor {name!r}: {spec!r}"
        )
    return spec


def _manifest_int(manifest: dict, key: str, default):
    """An integer manifest field; ``null`` only where ``default`` is ``None``."""
    value = manifest.get(key, default)
    if value is None and default is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(
            f"manifest field {key!r} must be an integer, got {value!r}"
        ) from exc


def _check_certificate(privacy) -> None:
    """Refuse a finite-ε certificate whose σ does not re-derive.

    A Gaussian-mechanism release (paper §III-B) adds noise of std
    ``Δf · σ(ε, δ)``; a ``noise_std`` other than
    :func:`~repro.core.privacy.gaussian_noise_std` of the certificate's
    own (Δf, ε, δ) claims a guarantee the store does not have.
    """
    if privacy is None:
        return
    # repro.core imports this module; import its leaf lazily
    from repro.core.privacy import gaussian_noise_std

    try:
        epsilon = float(privacy.get("epsilon", math.inf))
        if math.isinf(epsilon):
            return  # no claim, nothing to re-derive
        expected = gaussian_noise_std(
            float(privacy["sensitivity"]), epsilon, float(privacy["delta"])
        )
        noise_std = float(privacy["noise_std"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed privacy certificate: {exc!r}") from exc
    if not math.isclose(noise_std, expected, rel_tol=1e-9):
        raise ArtifactError(
            f"privacy certificate does not re-derive: noise_std={noise_std:.6g} "
            f"but (sensitivity, epsilon, delta) give {expected:.6g}"
        )


#: tensors an artifact may leave out
_OPTIONAL_TENSORS = ("keep_mask", "core", "core_offsets")


def _with_core(class_hvs, encoder):
    """The bipolar store held with its core, when it has one.

    Queries of ``encoder`` masked to the store's support carry the same
    sign ``s_j`` on every live dimension no level flips, so class ``k``
    scores ``offset_k = Σ s_j·c_kj`` there whatever the input: the
    store keeps its classes on the rest (the core) and those offsets
    (:func:`~repro.backend.packed.compact_store`).  Any other store
    comes back as it was.
    """
    planes = pack_hypervectors(class_hvs)
    store = compact_store(planes)
    if not isinstance(store, LiveStore):
        return class_hvs
    plan = encoder._column_plan()  # every column; cached on the encoder
    core = plan.core & store.support
    fixed = store.support & ~core
    disagree = popcount((planes.signs ^ plan.fixed_signs) & fixed).sum(axis=1)
    offsets = int(popcount(fixed).sum()) - 2 * disagree.astype(np.int64)
    return compact_store(planes, core=(core, offsets))


def _store_dtype(spec) -> np.dtype:
    """The dense dtype a packed store unpacks to: a numeric dtype."""
    try:
        dtype = np.dtype(spec or np.float32)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"unknown store_dtype {spec!r}") from exc
    if dtype.kind not in "biuf":
        raise ArtifactError(f"store_dtype must be numeric, got {dtype}")
    return dtype


def _mmap_npz(path: Path) -> dict[str, np.ndarray] | None:
    """Read-only views of an *uncompressed* npz's arrays, over one map.

    An npz is a zip archive of ``.npy`` members; when the members are
    stored (not deflated — :meth:`ModelArtifact.save`'s default), every
    array's raw buffer sits at a fixed byte offset inside the file.
    Each entry's local zip header gives the ``.npy`` start and the
    ``.npy`` header gives dtype/shape; the file is then mapped once and
    every array is a view into that one map (at whatever alignment the
    archive left it).  Returns ``None`` whenever the layout does not
    support mapping (compressed members, Fortran order, unknown npy
    versions, a truncated file) — callers fall back to a regular load,
    so this is an optimization, never a requirement.
    """
    try:
        layout = []
        with open(path, "rb") as f:
            with zipfile.ZipFile(f) as zf:
                infos = zf.infolist()
            if any(i.compress_type != zipfile.ZIP_STORED for i in infos):
                return None
            for info in infos:
                f.seek(info.header_offset)
                local = f.read(30)
                if len(local) < 30 or local[:4] != b"PK\x03\x04":
                    return None
                name_len = int.from_bytes(local[26:28], "little")
                extra_len = int.from_bytes(local[28:30], "little")
                f.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(f)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
                else:
                    return None
                if fortran or dtype.hasobject:
                    return None
                name = info.filename.removesuffix(".npy")
                layout.append((name, dtype, tuple(shape), f.tell()))
            # Mapping through the open file skips memmap's path resolve.
            whole = np.memmap(f, mode="r", dtype=np.uint8)
        arrays = {}
        for name, dtype, shape, offset in layout:
            size = math.prod(shape) * dtype.itemsize
            if offset + size > whole.size:
                return None
            arrays[name] = (
                whole[offset : offset + size].view(dtype).reshape(shape)
            )
        return arrays
    except _NPZ_ERRORS:
        return None


def _read_npz(path: Path) -> dict[str, np.ndarray]:
    """Heap copies of every array in an npz (compressed or not).

    Reading a member checks the zip container's own CRC-32, which is
    what catches a corrupted ``.npy`` header before any manifest
    checksum can run.
    """
    try:
        # Opened here, not by np.load, so a zip directory np.load
        # cannot parse does not leave the file open.
        with open(path, "rb") as f, np.load(f) as data:
            return {name: data[name] for name in data.files}
    except _NPZ_ERRORS as exc:
        kind = "checksum mismatch" if "CRC" in str(exc) else "unreadable tensors"
        raise ArtifactError(
            f"{kind} in {path}: {exc} — the artifact is corrupt or was "
            "modified after saving"
        ) from exc


@dataclass(frozen=True)
class ModelArtifact:
    """A servable model snapshot: tensors + manifest, nothing else needed.

    Attributes
    ----------
    store:
        The serving class store in its served representation: for the
        ``packed``/``native`` backends a
        :class:`~repro.backend.packed.LiveStore` when its rows share one
        magnitude plane, else a :class:`~repro.backend.PackedHV` of
        sign/magnitude planes; a dense ``(n_classes, d_hv)`` array for
        ``dense``.  Any form may be passed in; a dense store for a
        packed backend is packed here (and must be bipolar/ternary),
        planes for the dense backend are unpacked.
        Already passed through ``store_quantizer`` (and masked, for
        pruned models).
    query_quantizer:
        Registry name of the quantizer raw-feature queries go through
        (``None`` = full precision) — the *training* quantizer, which may
        differ from the store's serving quantizer.
    store_quantizer:
        Registry name of the quantizer that produced the store
        (informational; the store is never re-quantized).
    backend:
        Preferred serving layout (``"dense"``/``"packed"``/``"native"``)
        recorded at build time; :meth:`engine` uses it unless
        overridden, and it decides the stored representation.
    keep_mask:
        Live-dimension mask of a pruned model (``(d_hv,)`` bool, or its
        packed plane), or ``None``.  Held only as :attr:`support`;
        reading ``keep_mask`` unpacks it anew.
    mask_seed:
        The deployment seed the keep-mask was drawn from
        (:func:`repro.hd.prune.mask_from_seed` /
        :class:`~repro.core.inference_privacy.ObfuscationConfig`
        ``mask_seed``), or ``None`` when the mask has no seed (e.g. an
        effectuality-pruned model) or there is no mask.  Recorded so
        the server can hand clients the mask *derivation* over the wire
        (protocol v2 :class:`~repro.proto.ModelInfo`) instead of a
        side channel; verified against ``keep_mask`` at build time.
    encoder_config:
        :meth:`~repro.hd.encoder.Encoder.config` dict, or ``None`` when
        the artifact serves pre-encoded queries only.
    privacy:
        The privacy certificate: ``epsilon``, ``delta``, ``sensitivity``,
        ``noise_std`` plus the sensitivity report's analytic/empirical
        ℓ2 values.  ``None`` marks a model with no DP claim at all;
        ``epsilon=inf`` marks an explicitly non-private release.  A
        finite-ε certificate must re-derive: ``noise_std`` is
        :func:`~repro.core.privacy.gaussian_noise_std` of its
        ``sensitivity``, ``epsilon`` and ``delta`` (relative tolerance
        1e-9), or :class:`ArtifactError` refuses it, as a checksum
        mismatch is refused.
    metadata:
        Free-form JSON-safe extras (dataset name, training notes, …).
    format_version:
        The format version the artifact was read as (:meth:`save`
        always writes :data:`ARTIFACT_FORMAT_VERSION`).
    store_dtype:
        dtype of the dense store (what :attr:`class_hvs` unpacks to);
        taken from a dense ``store``, ``float32`` when planes come
        without one.
    support:
        The keep mask's read-only ``(⌈d_hv/64⌉,)`` uint64 plane (the
        store's own when equal), ``None`` when unpruned.
    """

    store: np.ndarray | PackedHV | LiveStore
    query_quantizer: str | None = None
    store_quantizer: str | None = None
    backend: str = "dense"
    keep_mask: InitVar[np.ndarray | None] = None
    mask_seed: int | None = None
    encoder_config: dict | None = None
    privacy: dict | None = None
    metadata: dict = field(default_factory=dict)
    format_version: int = ARTIFACT_FORMAT_VERSION
    store_dtype: np.dtype | str | None = None
    support: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self, keep_mask):
        _check_certificate(self.privacy)
        try:
            packed_layout = isinstance(get_backend(self.backend), PackedBackend)
        except KeyError as exc:
            raise ArtifactError(str(exc)) from exc
        store = self.store
        if isinstance(store, (PackedHV, LiveStore)):
            dtype = _store_dtype(self.store_dtype)
            if not packed_layout:
                store = store.unpack(dtype)
        else:
            store = np.asarray(store)
            if store.ndim != 2:
                raise ArtifactError(
                    f"class store must be 2-D, got shape {store.shape}"
                )
            dtype = store.dtype
            if packed_layout:
                try:
                    store = pack_hypervectors(store)
                except ValueError as exc:
                    raise ArtifactError(
                        f"the {self.backend!r} backend serves packed bit "
                        f"planes: {exc}"
                    ) from exc
        if packed_layout:
            store = compact_store(store)
        object.__setattr__(self, "store", store)
        object.__setattr__(self, "store_dtype", dtype)
        if keep_mask is not None:
            try:
                support = keep_support(keep_mask, self.d_hv)
            except ValueError as exc:
                raise ArtifactError(str(exc)) from exc
            if np.array_equal(getattr(store, "support", None), support):
                support = store.support
            object.__setattr__(self, "support", support)
        if self.mask_seed is not None and self.support is None:
            raise ArtifactError("mask_seed makes no sense without a keep_mask")

    # ------------------------------------------------------------------
    @property
    def is_packed(self) -> bool:
        """Whether the served store is bit planes (``packed``/``native``)."""
        return isinstance(self.store, (PackedHV, LiveStore))

    @cached_property
    def class_hvs(self) -> np.ndarray:
        """The class store as a dense ``(n_classes, d_hv)`` array.

        The dense store itself for a ``dense`` artifact; for a packed
        one, the planes unpacked once (on first access) into a
        read-only array of :attr:`store_dtype` — what the dense backend,
        the attacks and the CLI read.  Serving never needs it.
        """
        if not self.is_packed:
            return self.store
        dense = self.store.unpack(self.store_dtype)
        dense.flags.writeable = False
        return dense

    @property
    def store_nbytes(self) -> int:
        """Bytes the served store holds (see :attr:`LiveStore.nbytes`)."""
        return int(self.store.nbytes)

    @property
    def n_classes(self) -> int:
        """Number of classes in the stored class store."""
        return int(self.store.shape[0])

    @property
    def d_hv(self) -> int:
        """Hypervector dimensionality of the stored class store."""
        return int(self.store.shape[1])

    @property
    def n_live_dims(self) -> int:
        """Dimensions that survived pruning (= ``d_hv`` when unpruned)."""
        if self.support is None:
            return self.d_hv
        return int(popcount(self.support).sum())

    @property
    def epsilon(self) -> float:
        """The certified ε (``inf`` when no finite certificate)."""
        if not self.privacy:
            return float("inf")
        return float(self.privacy.get("epsilon", float("inf")))

    @property
    def is_private(self) -> bool:
        """Whether the artifact carries a finite (ε, δ) certificate."""
        return bool(np.isfinite(self.epsilon))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: HDModel,
        *,
        quantizer: str | None = None,
        store_quantizer: str | None = "same",
        backend: str | Backend = "dense",
        encoder: Encoder | None = None,
        keep_mask: np.ndarray | None = None,
        mask_seed: int | None = None,
        privacy: dict | None = None,
        metadata: dict | None = None,
    ) -> "ModelArtifact":
        """Snapshot a trained model into an artifact.

        ``quantizer`` is the raw-feature *query* quantizer;
        ``store_quantizer`` (default: same as ``quantizer``) is applied
        to the class store here, once — the artifact stores the
        quantized result, exactly what an
        ``InferenceEngine(model, quantizer=...)`` would have served.
        Pass ``store_quantizer=None`` to ship the store as trained
        (e.g. the full-precision noisy store of a DP release).

        ``mask_seed`` records the deployment seed a random §III-C
        ``keep_mask`` was drawn from; it is verified here to regenerate
        exactly ``keep_mask`` (via
        :func:`repro.hd.prune.mask_from_seed`), so the seed a v2
        :class:`~repro.proto.ModelInfo` later hands to clients is
        guaranteed to reproduce the served mask.
        """
        if encoder is not None and encoder.d_hv != model.d_hv:
            raise ArtifactError(
                f"encoder produces {encoder.d_hv}-dim hypervectors but "
                f"the model is {model.d_hv}-dim"
            )
        if store_quantizer == "same":
            store_quantizer = quantizer
        class_hvs = model.class_hvs
        if store_quantizer is not None:
            class_hvs = get_quantizer(store_quantizer)(class_hvs)
            store_name = get_quantizer(store_quantizer).name
        else:
            store_name = None
        if keep_mask is not None:
            # The served store of a pruned model is zero off-mask by
            # construction; re-zero defensively (quantizers map 0 → a
            # level, e.g. bipolar sends 0 to +1).
            keep = np.asarray(keep_mask, dtype=bool)
            class_hvs = class_hvs * keep
            if mask_seed is not None:
                from repro.hd.prune import mask_from_seed

                n_masked = int(keep.size - keep.sum())
                if not np.array_equal(
                    mask_from_seed(keep.size, n_masked, mask_seed), keep
                ):
                    raise ArtifactError(
                        f"mask_seed={mask_seed} does not regenerate the "
                        "given keep_mask; clients handed this seed would "
                        "mask the wrong dimensions"
                    )
        be = get_backend(backend)
        if not be.supports(class_hvs):
            raise ArtifactError(
                f"the {be.name!r} backend cannot represent the "
                f"{store_name!r}-quantized class store; pick a packable "
                "store quantizer or backend='dense'"
            )
        q_name = None if quantizer is None else get_quantizer(quantizer).name
        dtype = class_hvs.dtype
        if (
            isinstance(be, PackedBackend)
            and q_name == "bipolar"
            and hasattr(encoder, "_column_plan")
        ):
            class_hvs = _with_core(class_hvs, encoder)
        return cls(
            store=class_hvs,
            store_dtype=dtype,
            query_quantizer=q_name,
            store_quantizer=store_name,
            backend=be.name,
            keep_mask=keep_mask,
            mask_seed=mask_seed,
            encoder_config=None if encoder is None else encoder.config(),
            privacy=privacy,
            metadata=dict(metadata or {}),
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _tensors(self) -> dict[str, np.ndarray]:
        """The arrays :meth:`save` writes, by npz member name."""
        if self.is_packed:
            store = self.store
            if isinstance(store, LiveStore):
                store = store.expand()
            arrays = {"signs": store.signs, "mags": store.mags}
        else:
            arrays = {"class_hvs": self.store}
        if self.support is not None:
            arrays["keep_mask"] = self.keep_mask
        core = getattr(self.store, "core", None)
        if core is not None:
            arrays["core"], arrays["core_offsets"] = core.support, core.offsets
        return arrays

    def manifest(self) -> dict:
        """The JSON manifest describing this artifact (checksums included).

        Always the current format (:data:`ARTIFACT_FORMAT_VERSION`): a
        v2 artifact loaded and saved again is written as v3.
        """
        manifest = {
            "format": "prive-hd-model-artifact",
            "format_version": ARTIFACT_FORMAT_VERSION,
            "n_classes": self.n_classes,
            "d_hv": self.d_hv,
            "n_live_dims": self.n_live_dims,
            "backend": self.backend,
            "query_quantizer": self.query_quantizer,
            "store_quantizer": self.store_quantizer,
            "mask_seed": self.mask_seed,
            "encoder": self.encoder_config,
            "privacy": self.privacy,
            "metadata": self.metadata,
            "tensors": {
                name: _tensor_spec(arr) for name, arr in self._tensors().items()
            },
        }
        if self.is_packed:
            manifest["store_dtype"] = str(self.store_dtype)
        return manifest

    def save(self, path: str | Path, *, compress: bool = False) -> Path:
        """Write the artifact directory (``manifest.json`` + ``tensors.npz``).

        The tensors are written first and the manifest last, so a
        directory with a readable manifest always has its tensors in
        place.  By default the npz members are *stored* uncompressed so
        :meth:`load` with ``mmap=True`` can map a dense store straight
        off disk (K serving workers then share one set of page-cache
        pages instead of K heap copies) and read packed planes without
        a decompression pass; ``compress=True`` trades that for a
        smaller file.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        writer = np.savez_compressed if compress else np.savez
        writer(path / TENSORS_FILENAME, **self._tensors())
        (path / MANIFEST_FILENAME).write_text(
            json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        mmap: bool = False,
        verify: bool = True,
    ) -> "ModelArtifact":
        """Read an artifact directory back, verifying checksums.

        A packed (v3) artifact comes back holding its ``signs``/``mags``
        planes: each is copied into an aligned, read-only heap array and
        *then* hashed, so the bytes verified are exactly the bytes
        served.  :meth:`engine` wraps them as they are.

        With ``mmap=True``, a *dense* store saved uncompressed (the
        :meth:`save` default) comes back as a read-only memory map of
        the npz file instead of a heap copy: checksum verification still
        reads every byte once, but the pages are file-backed, so any
        number of processes serving the same artifact — a
        :class:`~repro.serve.WorkerPool` — share one physical copy
        through the page cache.  The file is mapped once for all its
        tensors.  Packed planes and the keep-mask are small and always
        copied, so a later in-place rewrite of the artifact cannot
        change or fault them.  Compressed artifacts fall back to a
        regular in-memory load.

        ``verify=False`` skips the SHA-256 pass over the tensor bytes
        (shape/dtype are still checked against the manifest).  That is
        *only* sound when some other process already verified this
        exact directory — the :class:`~repro.serve.WorkerPool` parent
        hashes an artifact once and broadcasts ``verify=False`` to its
        K workers, turning K redundant full-store hash passes per
        hot-swap into one.  Anything crossing a trust boundary keeps
        the default.
        """
        path = Path(path)
        manifest_path = path / MANIFEST_FILENAME
        if not manifest_path.is_file():
            raise ArtifactError(
                f"{path} is not a model artifact (no {MANIFEST_FILENAME})"
            )
        try:
            manifest = json.loads(manifest_path.read_bytes().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(
                f"unreadable manifest {manifest_path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ArtifactError(f"manifest {manifest_path} is not an object")
        version = _manifest_int(manifest, "format_version", 0)
        if version > ARTIFACT_FORMAT_VERSION:
            raise ArtifactError(
                f"artifact format v{version} is newer than supported "
                f"v{ARTIFACT_FORMAT_VERSION}"
            )
        declared = manifest.get("tensors", {})
        if not isinstance(declared, dict):
            raise ArtifactError(
                f"manifest {manifest_path} has a malformed 'tensors' entry"
            )
        packed = "signs" in declared
        backend = manifest.get("backend", "dense")
        try:
            packed_backend = isinstance(get_backend(backend), PackedBackend)
        except KeyError as exc:
            raise ArtifactError(f"{manifest_path}: {exc}") from exc
        if packed and not packed_backend:
            raise ArtifactError(
                f"manifest {manifest_path} declares bit planes but the "
                f"{backend!r} backend, which serves a dense store"
            )
        arrays = _mmap_npz(path / TENSORS_FILENAME) if mmap else None
        if arrays is None:
            arrays = _read_npz(path / TENSORS_FILENAME)
        names = ("signs", "mags") if packed else ("class_hvs",)
        tensors = {}
        for name in (*names, *_OPTIONAL_TENSORS):
            arr = arrays.get(name)
            spec = _tensor_entry(declared, name)
            if arr is None:
                if name in _OPTIONAL_TENSORS and spec is None:
                    continue
                raise ArtifactError(
                    f"tensor {name!r} is missing from {TENSORS_FILENAME}"
                )
            if name != "class_hvs":
                arr = _frozen(arr)
            if spec is None:
                raise ArtifactError(
                    f"tensor {name!r} has no entry in the manifest"
                )
            if list(arr.shape) != spec["shape"] or str(arr.dtype) != spec["dtype"]:
                raise ArtifactError(
                    f"tensor {name!r} does not match its manifest: "
                    f"{arr.shape}/{arr.dtype} vs "
                    f"{tuple(spec['shape'])}/{spec['dtype']}"
                )
            if verify and _checksum(arr) != spec["sha256"]:
                raise ArtifactError(
                    f"checksum mismatch on tensor {name!r} — the artifact "
                    "is corrupt or was modified after saving"
                )
            tensors[name] = arr
        if packed:
            d_hv = _manifest_int(manifest, "d_hv", -1)
            planes = (_manifest_int(manifest, "n_classes", -1), n_words(d_hv))
            for name in names:
                if tensors[name].shape != planes or tensors[name].dtype != np.uint64:
                    raise ArtifactError(
                        f"tensor {name!r} does not match its manifest: "
                        f"{tensors[name].shape}/{tensors[name].dtype} vs "
                        f"{planes}/uint64 for d_hv={d_hv}"
                    )
            # PackedHV keeps the bits past d_hv zero; norms and support
            # counts would see stray ones that the dense view drops.
            tail = d_hv % WORD_BITS
            if tail and planes[0]:
                last = tensors["signs"][:, -1] | tensors["mags"][:, -1]
                if (last >> np.uint64(tail)).any():
                    raise ArtifactError(
                        f"packed planes have bits set past d_hv={d_hv} — "
                        "the artifact does not match its manifest"
                    )
            store = PackedHV(signs=tensors["signs"], mags=tensors["mags"], d=d_hv)
            if "core" in tensors:
                try:
                    store = compact_store(
                        store, core=(tensors["core"], tensors["core_offsets"])
                    )
                except (KeyError, ValueError) as exc:
                    raise ArtifactError(
                        f"core tensors of {path} do not fit its class "
                        f"store: {exc}"
                    ) from exc
        else:
            store = tensors["class_hvs"]
        return cls(
            store=store,
            query_quantizer=manifest.get("query_quantizer"),
            store_quantizer=manifest.get("store_quantizer"),
            backend=backend,
            keep_mask=tensors.get("keep_mask"),
            mask_seed=_manifest_int(manifest, "mask_seed", None),
            encoder_config=manifest.get("encoder"),
            privacy=manifest.get("privacy"),
            metadata=manifest.get("metadata", {}),
            format_version=version,
            store_dtype=manifest.get("store_dtype"),
        )

    # ------------------------------------------------------------------
    # reconstruction
    # ------------------------------------------------------------------
    def encoder(self) -> Encoder | None:
        """Rebuild the recorded encoder (codebooks bit-identical), if any."""
        if self.encoder_config is None:
            return None
        from repro.hd.encoder import encoder_from_config

        return encoder_from_config(self.encoder_config)

    def engine(
        self,
        *,
        backend: str | Backend | None = None,
        batch_size: int = 8192,
        with_encoder: bool = True,
        encode_workers: int | None = 1,
        chunk_size: int | None = None,
    ) -> InferenceEngine:
        """A ready :class:`~repro.serve.InferenceEngine` over this artifact.

        The store is served exactly as saved (never re-quantized);
        raw-feature queries stream through the recorded query quantizer,
        masked to the live dimensions for pruned models.  ``backend``
        overrides the recorded layout; predictions are identical either
        way on the same operands.  A packed store served by a packed
        backend is wrapped as is — no dense copy, no level scan, no
        repack.
        """
        be = get_backend(self.backend if backend is None else backend)
        if self.is_packed and isinstance(be, PackedBackend):
            model = self.store
        else:
            model = HDModel(self.n_classes, self.d_hv, self.class_hvs)
        return InferenceEngine(
            model,
            backend=be,
            quantizer=self.query_quantizer,
            batch_size=batch_size,
            encoder=self.encoder() if with_encoder else None,
            encode_workers=encode_workers,
            chunk_size=chunk_size,
            store_is_quantized=True,
            keep_mask=self.support,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        eps = f"{self.epsilon:.3g}" if self.is_private else "non-private"
        return (
            f"ModelArtifact(n_classes={self.n_classes}, d_hv={self.d_hv}, "
            f"backend={self.backend!r}, "
            f"query_quantizer={self.query_quantizer!r}, privacy={eps})"
        )


def _keep_mask(self) -> np.ndarray | None:
    """The read-only ``(d_hv,)`` bool keep mask, unpacked anew from
    :attr:`support` on each read (``None`` when unpruned)."""
    return None if self.support is None else keep_of(self.support, self.d_hv)


# Set after the class is made: the dataclass takes ``keep_mask`` as an
# init-only argument defaulting to ``None``.
ModelArtifact.keep_mask = property(_keep_mask)


def load_artifact(path: str | Path) -> ModelArtifact:
    """Load a :class:`ModelArtifact` directory (checksum-verified)."""
    return ModelArtifact.load(path)
