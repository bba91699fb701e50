"""Inference privacy: quantize + mask queries before offloading (§III-C).

In the edge/cloud split the paper targets, the light-weight encoding runs
on the edge device and the similarity search runs on an untrusted host.
Prive-HD's inference defense is a *turnkey* client-side transform — it
needs no access to, or retraining of, the hosted model:

1. **inference quantization** — the query hypervector is quantized to
   1 bit (bipolar) while the hosted class hypervectors stay full
   precision; checking a degraded query against information-rich classes
   costs almost no accuracy (~0.5% on the paper's speech model), and
2. **dimension masking** — a fixed, randomly chosen set of dimensions is
   zeroed, further starving the Eq. (10) reconstruction.

:class:`InferenceObfuscator` packages both; :meth:`leakage_report`
measures what an informed attacker still recovers (MSE / PSNR against the
plain-encoding baseline, the quantities of Fig. 6 and Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.decoder import HDDecoder
from repro.attacks.metrics import mse, normalized_mse, psnr
from repro.backend.packed import (
    LiveHV,
    PackedHV,
    pack_hypervectors,
    pack_sign_planes,
    support_of,
)
from repro.hd.encoder import WORD_SETS, Encoder
from repro.hd.model import HDModel
from repro.hd.quantize import EncodingQuantizer, get_quantizer
from repro.utils.validation import check_2d

__all__ = ["ObfuscationConfig", "InferenceObfuscator", "LeakageReport"]


@dataclass(frozen=True)
class ObfuscationConfig:
    """Client-side obfuscation parameters.

    Attributes
    ----------
    quantizer:
        Quantizer applied to the query encodings before offload
        (paper: ``"bipolar"``; ``"identity"`` disables quantization).
    n_masked:
        Number of dimensions zeroed before offload (0 disables masking);
        Fig. 6 masks 5,000 and 9,000 of 10,000.
    mask_seed:
        Seed of the random mask — fixed per deployment, not per query,
        so the host cannot average it out across queries.
    """

    quantizer: str = "bipolar"
    n_masked: int = 0
    mask_seed: int = 0

    def __post_init__(self):
        if self.n_masked < 0:
            raise ValueError(f"n_masked must be >= 0, got {self.n_masked}")


@dataclass(frozen=True)
class LeakageReport:
    """What the Eq. (10) attacker recovers from obfuscated queries.

    Attributes
    ----------
    mse_plain:
        Reconstruction MSE from unprotected encodings (the baseline).
    mse_obfuscated:
        Reconstruction MSE from obfuscated queries.
    normalized_mse:
        ``mse_obfuscated / mse_plain`` — Fig. 9(b)'s y-axis; > 1 means
        the obfuscation destroyed information.
    psnr_plain, psnr_obfuscated:
        PSNR (dB) of the two reconstructions — Fig. 6's annotation
        (23.6 dB → 13.1 dB); meaningful for image data.
    """

    mse_plain: float
    mse_obfuscated: float
    normalized_mse: float
    psnr_plain: float
    psnr_obfuscated: float


class InferenceObfuscator:
    """Client-side query obfuscation bound to an encoder.

    Parameters
    ----------
    encoder:
        The edge-side encoder (its codebooks are public).
    config:
        Quantizer + mask parameters.
    """

    def __init__(self, encoder: Encoder, config: ObfuscationConfig | None = None):
        self.encoder = encoder
        self.config = config or ObfuscationConfig()
        if self.config.n_masked >= encoder.d_hv:
            raise ValueError(
                f"n_masked ({self.config.n_masked}) must be < d_hv "
                f"({encoder.d_hv})"
            )
        self.quantizer: EncodingQuantizer = get_quantizer(self.config.quantizer)
        # One canonical seed -> mask derivation, shared with the serving
        # artifact (which records mask_seed for remote clients).
        from repro.hd.prune import mask_from_seed

        self.keep_mask = mask_from_seed(
            encoder.d_hv, self.config.n_masked, self.config.mask_seed
        )
        self._support_digest = support_of(self.keep_mask)[1]
        # Bipolar queries from an encoder with a sign-plane kernel skip
        # the dense tile and count only the kept columns (built lazily).
        self._emits_sign_planes = self.quantizer.name == "bipolar" and hasattr(
            encoder, "_bipolar_planes"
        )
        self._live_plan = None

    def __getstate__(self):
        # The column plan derives from the encoder and the mask.
        return {**self.__dict__, "_live_plan": None}

    # ------------------------------------------------------------------
    @property
    def n_unmasked(self) -> int:
        """Dimensions actually transmitted (Fig. 6's x-axis)."""
        return int(self.keep_mask.sum())

    def obfuscate_encodings(self, encodings: np.ndarray) -> np.ndarray:
        """Quantize-then-mask pre-computed encodings."""
        H = check_2d(encodings, "encodings", n_cols=self.encoder.d_hv)
        return self.quantizer(H) * self.keep_mask

    def prepare(self, X: np.ndarray) -> np.ndarray:
        """The full client-side pipeline: encode → quantize → mask.

        The returned array is what leaves the device; everything the
        remote host (or an eavesdropper) sees.
        """
        return self.obfuscate_encodings(self.encoder.encode(X))

    def obfuscate_packed(self, encodings: np.ndarray) -> PackedHV:
        """Quantize-then-mask, bit-packed for the wire.

        A bipolar-quantized query with masked (zeroed) dimensions is a
        ternary hypervector, so it packs into two uint64 bit planes —
        16× less uplink traffic than float32 and directly consumable by
        the host's packed :class:`~repro.serve.InferenceEngine`.  Only
        packable (bipolar/ternary) quantizers support this; the 2-bit
        and identity schemes raise.  Bipolar rows are non-zero exactly
        on the keep mask, so they also carry their live words
        (:class:`~repro.backend.packed.LiveHV`), packed from the kept
        columns of the same tile.
        """
        if not self.quantizer.packable:
            raise ValueError(
                f"quantizer {self.quantizer.name!r} does not produce "
                "bit-packable queries; use 'bipolar', 'ternary' or "
                "'ternary-biased'"
            )
        H = self.obfuscate_encodings(encodings)
        # quantize→mask output is ternary by construction: skip the
        # packer's validation pass.
        packed = pack_hypervectors(H, validate=False)
        if self.quantizer.name != "bipolar":
            return packed
        live = LiveHV(
            pack_sign_planes(H[:, self.keep_mask]),
            self.encoder.d_hv,
            self.n_unmasked,
            self._support_digest,
        )
        return PackedHV(packed.signs, packed.mags, packed.d, live=live)

    def prepare_packed(self, X: np.ndarray, *, words: str | None = None):
        """Encode → quantize → mask → bit-pack: the packed offload path.

        Unpacks to exactly ``prepare(X)``, so host-side decisions are
        identical whichever wire format the client chooses.  ``words``
        names what to build: ``None`` (default) the planes carrying
        every word set the rows have (their live words, and from a
        level-base encoder their core words on :attr:`core_digest`);
        ``"planes"`` the planes alone; ``"live"`` or ``"core"`` that
        :class:`~repro.backend.packed.LiveHV` alone.  A client names the
        one it ships, so the others are never packed.

        With the ``bipolar`` quantizer and a level-base encoder no dense
        ``(n, d_hv)`` tile is built: the flip-chain popcount runs only on
        the kept dimensions that some level flips (a private column plan
        of the encoder, built on first use, with per-thread row scratch,
        so one obfuscator may serve many threads), and their sign bits
        land in each requested word set over its fixed bits; the
        magnitude plane is the keep mask.  Other packable quantizers
        need the encoding's magnitudes: they quantize ``encode(X)``,
        which on a level-base encoder is the same count as float32.
        """
        if words not in (None, *WORD_SETS):
            raise ValueError(
                f"words must be one of {WORD_SETS} or None, got {words!r}"
            )
        if self._emits_sign_planes:
            return self.encoder._bipolar_planes(X, self._plan(), None, words)
        packed = self.obfuscate_packed(self.encoder.encode(X))
        if words is None:
            return packed
        if words == "planes":
            return PackedHV(packed.signs, packed.mags, packed.d)
        if getattr(packed, words) is None:
            raise ValueError(
                f"{self.quantizer.name!r} queries from a {self.encoder.kind} "
                f"encoder carry no {words!r} words"
            )
        return getattr(packed, words)

    def _plan(self):
        if self._live_plan is None:
            self._live_plan = self.encoder._column_plan(self.keep_mask)
        return self._live_plan

    @property
    def core_digest(self) -> int | None:
        """Digest of the core support :meth:`prepare_packed` rows carry
        core words on; ``None`` when they carry none."""
        return self._plan().core_digest if self._emits_sign_planes else None

    @property
    def live_digest(self) -> int | None:
        """Digest of the keep mask :meth:`prepare_packed` rows carry live
        words on; ``None`` when they carry none (a quantizer other than
        ``bipolar`` leaves zeros on the support)."""
        bipolar = self.quantizer.name == "bipolar"
        return self._support_digest if bipolar else None

    # ------------------------------------------------------------------
    def evaluate_accuracy(
        self, model: HDModel, X: np.ndarray, y: np.ndarray
    ) -> float:
        """Accuracy of obfuscated queries against a full-precision model."""
        return model.accuracy(self.prepare(X), y)

    def leakage_report(self, X: np.ndarray) -> LeakageReport:
        """Reconstruction quality an informed attacker achieves.

        The attacker knows the codebooks and the mask (worst case), so
        the masked decode uses the informed ``effective_d_hv`` rescale.
        """
        X = check_2d(X, "X", n_cols=self.encoder.d_in)
        decoder = HDDecoder(self.encoder)
        H = self.encoder.encode(X)
        X_plain = decoder.decode(H)
        X_obf = decoder.decode(
            self.obfuscate_encodings(H) * self._attack_rescale(H),
            effective_d_hv=self.n_unmasked,
        )
        data_range = self.encoder.hi - self.encoder.lo
        m_plain = mse(X, X_plain)
        m_obf = mse(X, X_obf)
        return LeakageReport(
            mse_plain=m_plain,
            mse_obfuscated=m_obf,
            normalized_mse=normalized_mse(X, X_obf, X_plain),
            psnr_plain=psnr(X, X_plain, data_range),
            psnr_obfuscated=psnr(X, X_obf, data_range),
        )

    def _attack_rescale(self, encodings: np.ndarray) -> np.ndarray:
        """Best-effort amplitude restoration available to the attacker.

        Quantization destroys the per-dimension magnitudes; the informed
        attacker rescales the quantized query to the original RMS per
        row before decoding (without this the decode error would be
        dominated by a trivial, correctable global gain).
        """
        if self.quantizer.name == "identity":
            return np.ones((encodings.shape[0], 1))
        H = np.asarray(encodings, dtype=np.float64)
        rms = np.sqrt(np.mean(H**2, axis=1, keepdims=True))
        q = self.quantizer(H)
        q_rms = np.sqrt(np.mean(q**2, axis=1, keepdims=True))
        q_rms[q_rms == 0] = 1.0
        return rms / q_rms
