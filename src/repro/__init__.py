"""Prive-HD reproduction: privacy-preserved hyperdimensional computing.

Reproduction of B. Khaleghi, M. Imani, T. Rosing, *"Prive-HD:
Privacy-Preserved Hyperdimensional Computing"*, DAC 2020.

The package is organized as::

    repro.hd          the HD learning substrate (encoders, model, train)
    repro.backend     pluggable similarity backends (dense, bit-packed)
    repro.serve       serving: engine, artifacts, registry, micro-batching,
                      the typed ServingAPI and the socket frontend
    repro.proto       the versioned wire protocol of the serving boundary
    repro.client      the trusted edge client (encode + obfuscate locally)
    repro.data        synthetic ISOLET / MNIST / FACE dataset substrate
    repro.attacks     reconstruction + membership attacks, quality metrics
    repro.core        the paper's contribution: DP training & private inference
    repro.hardware    bit-accurate FPGA datapath model + cost/perf models
    repro.experiments one runner per paper figure/table

The most common entry points are re-exported here, loaded on first use;
see ``README.md`` for a quickstart.
"""

__version__ = "1.1.0"

import importlib
import sys


def _lazy_exports(package: str, modules: dict) -> tuple:
    """PEP 562 ``(__getattr__, __dir__)`` for a package that loads its
    public names on first use.

    ``modules`` maps each submodule to the names it exports.  The first
    read of a name imports its submodule and caches the value in the
    package dict, so later reads are plain attribute lookups; any other
    public name is tried as a submodule.  Importing one submodule (say,
    the serving stack) then no longer runs its siblings (the trainers).
    """
    home = {name: mod for mod, names in modules.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name in home:
            value = getattr(importlib.import_module(home[name]), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.backend": ("PackedHV", "get_backend", "pack_hypervectors"),
    "repro.hd": (
        "HDModel", "LevelBaseEncoder", "ScalarBaseEncoder", "fit_hd",
        "get_quantizer", "prune_model", "retrain",
    ),
    "repro.serve": ("InferenceEngine",),
})

__all__ = [
    "__version__",
    "HDModel",
    "ScalarBaseEncoder",
    "LevelBaseEncoder",
    "InferenceEngine",
    "PackedHV",
    "fit_hd",
    "retrain",
    "prune_model",
    "get_quantizer",
    "get_backend",
    "pack_hypervectors",
]
