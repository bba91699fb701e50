"""The hyperdimensional-computing substrate (Section II-A of the paper).

Everything Prive-HD builds on lives here: bipolar hypervector algebra,
the base/level item memories, the two encoders of Eq. (2), single-pass
training (Eq. 3), cosine inference (Eq. 4), Eq. (5) retraining, the
encoding quantizers of Eq. (13)–(14) and less-effectual-dimension pruning.
Each name loads its submodule on first use, so the serving stack, which
needs the model and the quantizers, never runs the encoders or trainers.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.hd.batching": ("fit_classes_batched",),
    "repro.hd.encode_pipeline": (
        "ENCODE_KERNELS", "EncodedChunkStore", "EncodePipeline",
        "LazyEncodedStream",
    ),
    "repro.hd.encoder": (
        "ENCODER_KINDS", "Encoder", "LevelBaseEncoder", "ScalarBaseEncoder",
        "encoder_from_config",
    ),
    "repro.hd.hypervector": (
        "bind", "bundle", "flip", "flip_chain", "permute", "random_bipolar",
        "to_bipolar",
    ),
    "repro.hd.item_memory": ("BaseMemory", "LevelMemory"),
    "repro.hd.model": ("HDModel",),
    "repro.hd.prune": (
        "SCORE_METHODS", "apply_mask", "dimension_scores", "prune_mask",
        "prune_model",
    ),
    "repro.hd.quantize": (
        "QUANTIZER_NAMES", "BiasedTernaryQuantizer", "BipolarQuantizer",
        "EncodingQuantizer", "IdentityQuantizer", "MaskedQuantizer",
        "TernaryQuantizer", "TwoBitQuantizer", "empirical_level_probabilities",
        "get_quantizer",
    ),
    "repro.hd.similarity": (
        "class_scores", "cosine", "cosine_matrix", "dot_matrix",
        "hamming_distance", "hamming_matrix", "norm_rows",
    ),
    "repro.hd.train": ("RetrainHistory", "fit_hd", "retrain", "retrain_streamed"),
})
del _lazy_exports

__all__ = [
    "Encoder",
    "ScalarBaseEncoder",
    "LevelBaseEncoder",
    "ENCODER_KINDS",
    "encoder_from_config",
    "fit_classes_batched",
    "ENCODE_KERNELS",
    "EncodePipeline",
    "EncodedChunkStore",
    "LazyEncodedStream",
    "BaseMemory",
    "LevelMemory",
    "HDModel",
    "RetrainHistory",
    "fit_hd",
    "retrain",
    "retrain_streamed",
    "random_bipolar",
    "flip",
    "flip_chain",
    "bind",
    "bundle",
    "permute",
    "to_bipolar",
    "cosine",
    "cosine_matrix",
    "dot_matrix",
    "class_scores",
    "hamming_distance",
    "hamming_matrix",
    "norm_rows",
    "EncodingQuantizer",
    "IdentityQuantizer",
    "BipolarQuantizer",
    "TernaryQuantizer",
    "BiasedTernaryQuantizer",
    "TwoBitQuantizer",
    "MaskedQuantizer",
    "get_quantizer",
    "QUANTIZER_NAMES",
    "empirical_level_probabilities",
    "SCORE_METHODS",
    "dimension_scores",
    "prune_mask",
    "prune_model",
    "apply_mask",
]
