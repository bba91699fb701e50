"""API-surface guards: doctests, exports, and packaging consistency.

These tests protect the *documentation* contract: every usage example
embedded in a docstring executes, every ``__all__`` name resolves, and
the top-level facade re-exports what the README advertises.
"""

import doctest
import importlib

import pytest

_DOCTEST_MODULES = [
    "repro.utils.rng",
    "repro.utils.tables",
    "repro.core.privacy",
    "repro.core.sensitivity",
    "repro.core.dp_trainer",
    "repro.core.pipeline",
    "repro.hd.quantize",
    "repro.hd.prune",
    "repro.hd.batching",
    "repro.backend.packed",
    "repro.backend.native",
    "repro.attacks.decoder",
    "repro.hardware.rtl",
    "repro.data.registry",
]

_PACKAGES = [
    "repro",
    "repro.utils",
    "repro.hd",
    "repro.backend",
    "repro.serve",
    "repro.data",
    "repro.attacks",
    "repro.core",
    "repro.hardware",
    "repro.experiments",
]


class TestDoctests:
    @pytest.mark.parametrize("module_name", _DOCTEST_MODULES)
    def test_module_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, f"{result.failed} doctest failures"
        assert result.attempted > 0, "module lost its doctest examples"


class TestExports:
    @pytest.mark.parametrize("package_name", _PACKAGES)
    def test_all_names_resolve(self, package_name):
        pkg = importlib.import_module(package_name)
        assert hasattr(pkg, "__all__"), f"{package_name} lacks __all__"
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", _PACKAGES)
    def test_no_duplicate_exports(self, package_name):
        pkg = importlib.import_module(package_name)
        assert len(pkg.__all__) == len(set(pkg.__all__))

    def test_facade_advertises_readme_api(self):
        import repro

        for name in (
            "HDModel",
            "ScalarBaseEncoder",
            "LevelBaseEncoder",
            "fit_hd",
            "retrain",
            "prune_model",
            "get_quantizer",
        ):
            assert name in repro.__all__

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    @pytest.mark.parametrize("package_name", _PACKAGES)
    def test_package_docstrings_mention_their_role(self, package_name):
        pkg = importlib.import_module(package_name)
        assert pkg.__doc__ and len(pkg.__doc__.strip()) > 40
