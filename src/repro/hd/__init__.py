"""The hyperdimensional-computing substrate (Section II-A of the paper).

Everything Prive-HD builds on lives here: bipolar hypervector algebra,
the base/level item memories, the two encoders of Eq. (2), single-pass
training (Eq. 3), cosine inference (Eq. 4), Eq. (5) retraining, the
encoding quantizers of Eq. (13)–(14) and less-effectual-dimension pruning.
"""

from repro.hd.batching import fit_classes_batched
from repro.hd.encode_pipeline import (
    ENCODE_KERNELS,
    EncodedChunkStore,
    EncodePipeline,
    LazyEncodedStream,
)
from repro.hd.encoder import (
    ENCODER_KINDS,
    Encoder,
    LevelBaseEncoder,
    ScalarBaseEncoder,
    encoder_from_config,
)
from repro.hd.hypervector import (
    bind,
    bundle,
    flip,
    flip_chain,
    permute,
    random_bipolar,
    to_bipolar,
)
from repro.hd.item_memory import BaseMemory, LevelMemory
from repro.hd.model import HDModel
from repro.hd.prune import (
    SCORE_METHODS,
    apply_mask,
    dimension_scores,
    prune_mask,
    prune_model,
)
from repro.hd.quantize import (
    QUANTIZER_NAMES,
    BiasedTernaryQuantizer,
    BipolarQuantizer,
    EncodingQuantizer,
    IdentityQuantizer,
    MaskedQuantizer,
    TernaryQuantizer,
    TwoBitQuantizer,
    empirical_level_probabilities,
    get_quantizer,
)
from repro.hd.similarity import (
    class_scores,
    cosine,
    cosine_matrix,
    dot_matrix,
    hamming_distance,
    hamming_matrix,
    norm_rows,
)
from repro.hd.train import RetrainHistory, fit_hd, retrain, retrain_streamed

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
