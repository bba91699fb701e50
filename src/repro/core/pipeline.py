"""High-level facade tying the Prive-HD pieces together.

:class:`PriveHD` is the entry point a downstream user reaches for first:
one object that owns the encoder and exposes plain training, the
differentially private training pipeline, the inference obfuscator, and
the attacker's decoder (for auditing one's own leakage).

    >>> from repro.core import PriveHD
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X, y = rng.uniform(0, 1, (300, 40)), rng.integers(0, 3, 300)
    >>> ph = PriveHD(d_in=40, n_classes=3, d_hv=2000, seed=1)
    >>> model = ph.fit(X, y)                      # plain (leaky) HD
    >>> result = ph.fit_private(X, y, epsilon=2)  # Prive-HD
    >>> queries = ph.obfuscator(n_masked=500).prepare(X[:5])  # for offload
"""

from __future__ import annotations

import numpy as np

from repro.attacks.decoder import HDDecoder
from repro.backend.base import Backend
from repro.core.dp_trainer import DPTrainer, DPTrainingConfig, DPTrainingResult
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd.batching import fit_classes_batched
from repro.hd.encode_pipeline import EncodePipeline
from repro.hd.encoder import Encoder, LevelBaseEncoder, ScalarBaseEncoder
from repro.hd.model import HDModel
from repro.hd.quantize import get_quantizer
from repro.hd.train import retrain, retrain_streamed
from repro.serve.artifact import ModelArtifact
from repro.serve.engine import InferenceEngine
from repro.utils.rng import spawn
from repro.utils.validation import check_2d, check_labels, check_positive_int

__all__ = ["PriveHD", "ENCODER_NAMES"]

#: encoder kinds constructible through the facade (Eq. 2a / Eq. 2b)
ENCODER_NAMES = ("scalar-base", "level-base")


class PriveHD:
    """One-stop Prive-HD system over a fixed encoder.

    Parameters
    ----------
    d_in:
        Input feature count.
    n_classes:
        Number of classes.
    d_hv:
        Hypervector dimensionality (paper default 10,000).
    encoder:
        ``"scalar-base"`` (Eq. 2a, the default and the encoding the
        paper's privacy analysis targets), ``"level-base"`` (Eq. 2b, the
        all-bipolar-addend encoding the FPGA datapath of §III-D uses),
        or a pre-built :class:`~repro.hd.encoder.Encoder` instance.
    n_feature_levels:
        Feature quantization levels: optional for ``scalar-base`` (raw
        values when ``None``), the level-hypervector count for
        ``level-base`` (default 32 when ``None``).
    lo, hi:
        Feature range.
    seed:
        Root seed for codebooks, retraining and DP noise.
    """

    def __init__(
        self,
        d_in: int,
        n_classes: int,
        *,
        d_hv: int = 10000,
        encoder: str | Encoder = "scalar-base",
        n_feature_levels: int | None = None,
        lo: float = 0.0,
        hi: float = 1.0,
        seed: int = 0,
    ):
        check_positive_int(d_in, "d_in")
        check_positive_int(n_classes, "n_classes")
        check_positive_int(d_hv, "d_hv")
        self.n_classes = n_classes
        self.seed = int(seed)
        if isinstance(encoder, Encoder):
            if encoder.d_in != d_in or encoder.d_hv != d_hv:
                raise ValueError(
                    f"encoder is ({encoder.d_in}, {encoder.d_hv}) but the "
                    f"facade was asked for ({d_in}, {d_hv})"
                )
            # A pre-built encoder already fixed these; conflicting values
            # would be silently ignored, so reject them instead.
            enc_levels = getattr(encoder, "n_levels", None)
            if n_feature_levels is not None and n_feature_levels != enc_levels:
                raise ValueError(
                    f"n_feature_levels={n_feature_levels} conflicts with the "
                    f"given encoder's n_levels={enc_levels}"
                )
            enc_lo = getattr(encoder, "lo", lo)
            enc_hi = getattr(encoder, "hi", hi)
            if (lo, hi) != (0.0, 1.0) and (lo, hi) != (enc_lo, enc_hi):
                raise ValueError(
                    f"feature range [{lo}, {hi}] conflicts with the given "
                    f"encoder's [{enc_lo}, {enc_hi}]"
                )
            self.encoder = encoder
        elif encoder == "scalar-base":
            self.encoder = ScalarBaseEncoder(
                d_in, d_hv, n_levels=n_feature_levels, lo=lo, hi=hi, seed=seed
            )
        elif encoder == "level-base":
            self.encoder = LevelBaseEncoder(
                d_in,
                d_hv,
                n_levels=32 if n_feature_levels is None else n_feature_levels,
                lo=lo,
                hi=hi,
                seed=seed,
            )
        else:
            raise ValueError(
                f"unknown encoder {encoder!r}; choose from {ENCODER_NAMES} "
                "or pass an Encoder instance"
            )

    # ------------------------------------------------------------------
    def encode(self, X: np.ndarray) -> np.ndarray:
        """Encode features with the system's (public) codebooks."""
        return self.encoder.encode(X)

    def pipeline(
        self,
        *,
        chunk_size: int = 1024,
        workers: int | None = 1,
    ) -> EncodePipeline:
        """A chunked/parallel encode pipeline over this system's encoder.

        Level-base encoders get the flip-chain popcount, compiled when
        numba is installed; see
        :class:`~repro.hd.encode_pipeline.EncodePipeline`.
        """
        return EncodePipeline(
            self.encoder, chunk_size=chunk_size, workers=workers
        )

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        quantizer: str | None = None,
        retrain_epochs: int = 0,
        chunk_size: int | None = None,
        encode_workers: int | None = 1,
    ) -> HDModel:
        """Plain, non-private HD training (Eq. 3, optional Eq. 5).

        This is the baseline whose privacy Section III-A demolishes;
        provided so users can measure the accuracy cost of going private.

        Passing ``chunk_size`` switches to the streaming path: encoding
        is fused with quantization chunk by chunk, never materializing
        the ``(n, d_hv)`` float matrix.  Retraining replays a bit-packed
        chunk cache (16× smaller than floats) when the quantizer packs,
        and re-encodes tile by tile otherwise — bounded memory either
        way.  On quantized encodings both paths produce identical
        models.  ``encode_workers`` encodes that many tiles at once on a
        thread pool.
        """
        X = check_2d(X, "X", n_cols=self.encoder.d_in)
        y = check_labels(y, "y", n_classes=self.n_classes)
        if chunk_size is not None:
            return self._fit_streamed(
                X,
                y,
                quantizer=quantizer,
                retrain_epochs=retrain_epochs,
                chunk_size=chunk_size,
                workers=encode_workers,
            )
        q = get_quantizer(quantizer)
        H = q(self.encoder.encode(X))
        model = HDModel.from_encodings(H, y, self.n_classes)
        if retrain_epochs > 0:
            model, _ = retrain(
                model,
                H,
                y,
                epochs=retrain_epochs,
                rng=spawn(self.seed, "facade-retrain"),
            )
        return model

    def _fit_streamed(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        quantizer: str | None,
        retrain_epochs: int,
        chunk_size: int,
        workers: int | None,
    ) -> HDModel:
        if retrain_epochs > 0:
            pipeline = self.pipeline(chunk_size=chunk_size, workers=workers)
            # Retraining replays the encodings: cache them once, packed
            # (16x smaller), when the quantizer allows; otherwise a dense
            # cache would cost as much as the full matrix, so re-encode
            # each epoch instead (bounded memory, more compute).
            q = get_quantizer(quantizer)
            if q.packable:
                store = pipeline.store(X, q)
            else:
                store = pipeline.lazy_store(X, q)
            model = fit_classes_batched(
                None,
                None,
                y,
                self.n_classes,
                quantizer=None,  # store chunks are already quantized
                stream=store.iter_raw(),
                d_hv=self.encoder.d_hv,
            )
            model, _ = retrain_streamed(
                model, store, y, epochs=retrain_epochs
            )
            return model
        return fit_classes_batched(
            self.encoder,
            X,
            y,
            self.n_classes,
            quantizer=quantizer,
            batch_size=chunk_size,
            workers=workers,
        )

    def fit_private(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        epsilon: float,
        delta: float = 1e-5,
        quantizer: str = "ternary-biased",
        effective_dims: int | None = None,
        retrain_epochs: int = 2,
        noise_seed: int | None = None,
    ) -> DPTrainingResult:
        """Differentially private training (the full §III-B pipeline)."""
        config = DPTrainingConfig(
            epsilon=epsilon,
            delta=delta,
            d_hv=self.encoder.d_hv,
            effective_dims=effective_dims,
            quantizer=quantizer,
            n_feature_levels=self.encoder.n_levels,
            retrain_epochs=retrain_epochs,
            seed=self.seed,
            noise_seed=noise_seed,
        )
        return DPTrainer(config).fit(
            X, y, self.n_classes, encoder=self.encoder
        )

    # ------------------------------------------------------------------
    def obfuscator(
        self,
        *,
        quantizer: str = "bipolar",
        n_masked: int = 0,
        mask_seed: int | None = None,
    ) -> InferenceObfuscator:
        """Client-side obfuscator for cloud-hosted inference (§III-C)."""
        config = ObfuscationConfig(
            quantizer=quantizer,
            n_masked=n_masked,
            mask_seed=self.seed if mask_seed is None else mask_seed,
        )
        return InferenceObfuscator(self.encoder, config)

    def engine(
        self,
        model: HDModel,
        *,
        backend: str | Backend | None = None,
        quantizer=None,
        batch_size: int = 8192,
    ) -> InferenceEngine:
        """A batched serving engine over a trained model (host side).

        ``backend="packed"`` with ``quantizer="bipolar"`` serves the
        1-bit model of §III-C/III-D from uint64 bit planes; it answers
        both dense queries and the bit-packed batches produced by
        :meth:`obfuscator`'s ``prepare_packed``.
        """
        return InferenceEngine(
            model, backend=backend, quantizer=quantizer, batch_size=batch_size
        )

    def artifact(
        self,
        model: HDModel | DPTrainingResult,
        *,
        quantizer: str | None = None,
        store_quantizer: str | None = "same",
        backend: str = "dense",
        metadata: dict | None = None,
    ) -> ModelArtifact:
        """Package a trained model as a versioned on-disk artifact.

        Accepts either a plain :class:`HDModel` from :meth:`fit` (the
        facade's encoder config rides along so the artifact can serve
        raw features) or a :class:`DPTrainingResult` from
        :meth:`fit_private` (which delegates to
        :meth:`~repro.core.dp_trainer.DPTrainingResult.to_artifact` and
        carries the privacy certificate; ``quantizer``/
        ``store_quantizer`` are fixed by the training run there).

        ``artifact.save(path)`` writes it; ``ModelArtifact.load(path)
        .engine()`` reconstructs a ready serving engine.
        """
        if isinstance(model, DPTrainingResult):
            return model.to_artifact(backend=backend, metadata=metadata)
        return ModelArtifact.build(
            model,
            quantizer=quantizer,
            store_quantizer=store_quantizer,
            backend=backend,
            encoder=self.encoder,
            metadata=metadata,
        )

    def decoder(self) -> HDDecoder:
        """The Eq. (10) attacker's decoder — audit your own leakage."""
        return HDDecoder(self.encoder)
