"""Prive-HD's primary contribution: DP training and private inference.

* :mod:`repro.core.privacy` — (ε, δ) ↔ σ calculus (Eq. 6–8);
* :mod:`repro.core.sensitivity` — Eq. (11), (12), (14) plus empirical
  verification;
* :mod:`repro.core.mechanism` — Gaussian / Laplace mechanisms over HD
  class stores;
* :mod:`repro.core.dp_trainer` — the full quantize→prune→retrain→noise
  training pipeline (§III-B);
* :mod:`repro.core.inference_privacy` — query quantization + masking for
  untrusted-host inference (§III-C);
* :mod:`repro.core.pipeline` — the :class:`PriveHD` facade.

Each name loads its submodule on first use: a serving process that
checks a certificate's σ reaches :mod:`repro.core.privacy` alone.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.audit": (
        "InferenceAudit", "TrainingAudit", "audit_inference_privacy",
        "audit_training_privacy",
    ),
    "repro.core.dp_trainer": (
        "DPTrainer", "DPTrainingConfig", "DPTrainingResult", "quantize_masked",
    ),
    "repro.core.inference_privacy": (
        "InferenceObfuscator", "LeakageReport", "ObfuscationConfig",
    ),
    "repro.core.mechanism": (
        "GaussianMechanism", "LaplaceMechanism", "PrivatizedModel",
    ),
    "repro.core.pipeline": ("PriveHD",),
    "repro.core.privacy": (
        "PrivacyBudget", "delta_for_sigma", "epsilon_for_sigma",
        "gaussian_noise_std", "laplace_noise_scale", "sigma_for_budget",
    ),
    "repro.core.sensitivity": (
        "SensitivityReport", "empirical_l1_sensitivity",
        "empirical_l2_sensitivity", "l1_sensitivity_full",
        "l2_sensitivity_full", "l2_sensitivity_quantized", "sensitivity_report",
    ),
})
del _lazy_exports

__all__ = [
    "PriveHD",
    "TrainingAudit",
    "InferenceAudit",
    "audit_training_privacy",
    "audit_inference_privacy",
    "DPTrainer",
    "DPTrainingConfig",
    "DPTrainingResult",
    "quantize_masked",
    "InferenceObfuscator",
    "ObfuscationConfig",
    "LeakageReport",
    "GaussianMechanism",
    "LaplaceMechanism",
    "PrivatizedModel",
    "PrivacyBudget",
    "sigma_for_budget",
    "delta_for_sigma",
    "epsilon_for_sigma",
    "gaussian_noise_std",
    "laplace_noise_scale",
    "SensitivityReport",
    "sensitivity_report",
    "l1_sensitivity_full",
    "l2_sensitivity_full",
    "l2_sensitivity_quantized",
    "empirical_l1_sensitivity",
    "empirical_l2_sensitivity",
]
