"""Verify-once artifact loading: one parent hash pass, workers trust it.

The :class:`~repro.serve.WorkerPool` hot-swap protocol checksums an
artifact exactly once (in the parent, which also warms the page cache
for the workers' mmaps) and broadcasts ``verify=False`` down the
control channel.  These tests pin the contract at every layer:
``ModelArtifact.load`` / ``ModelRegistry.load`` /
``ServingAPI.from_artifact`` honor the flag, structural (shape/dtype)
checks are *never* skipped, and a corrupt artifact is still rejected
loudly — by the parent, before any worker sees it.
"""

import json
import socket

import numpy as np
import pytest

import repro.serve.artifact as artifact_mod
from repro.hd import HDModel, ScalarBaseEncoder, get_quantizer
from repro.serve import (
    ArtifactError,
    ModelArtifact,
    ModelRegistry,
    ServingAPI,
    WorkerPool,
)
from repro.utils import spawn

D_IN, D_HV, N_CLASSES = 8, 260, 3


@pytest.fixture(scope="module")
def artifact():
    encoder = ScalarBaseEncoder(D_IN, D_HV, seed=11)
    rng = spawn(3, "verify-once")
    store = get_quantizer("bipolar")(rng.normal(size=(N_CLASSES, D_HV)))
    return ModelArtifact.build(
        HDModel(N_CLASSES, D_HV, store),
        quantizer="bipolar",
        backend="packed",
        encoder=encoder,
    )


@pytest.fixture()
def saved(tmp_path, artifact):
    return artifact.save(tmp_path / "model")


@pytest.fixture()
def checksum_calls(monkeypatch):
    """Count ``_checksum`` invocations without changing its result."""
    calls = []
    real = artifact_mod._checksum

    def counting(arr):
        calls.append(arr.shape)
        return real(arr)

    monkeypatch.setattr(artifact_mod, "_checksum", counting)
    return calls


def _corrupt(saved_path):
    """Flip one hex digit of the sign plane's checksum in the manifest."""
    manifest_path = saved_path / artifact_mod.MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    digest = manifest["tensors"]["signs"]["sha256"]
    manifest["tensors"]["signs"]["sha256"] = (
        ("0" if digest[0] != "0" else "1") + digest[1:]
    )
    manifest_path.write_text(json.dumps(manifest))


class TestArtifactVerifyFlag:
    def test_default_load_hashes_every_tensor(self, saved, checksum_calls):
        ModelArtifact.load(saved)
        assert len(checksum_calls) >= 1

    def test_verify_false_skips_hashing(self, saved, checksum_calls):
        ModelArtifact.load(saved, verify=False)
        assert checksum_calls == []

    def test_verify_false_still_loads_identically(self, saved):
        trusted = ModelArtifact.load(saved, verify=False)
        verified = ModelArtifact.load(saved)
        np.testing.assert_array_equal(trusted.class_hvs, verified.class_hvs)

    def test_corruption_caught_by_default(self, saved):
        _corrupt(saved)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            ModelArtifact.load(saved)

    def test_verify_false_trusts_checksums_but_not_structure(self, saved):
        # verify=False skips only the hash pass; a shape/dtype mismatch
        # against the manifest is still fatal.
        _corrupt(saved)
        ModelArtifact.load(saved, verify=False)  # hash skipped: loads
        manifest_path = saved / artifact_mod.MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["tensors"]["signs"]["shape"] = [1, 1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="does not match its manifest"):
            ModelArtifact.load(saved, verify=False)


class TestRegistryAndApiPlumbing:
    def test_registry_load_honors_verify_false(self, saved, checksum_calls):
        registry = ModelRegistry()
        registry.load("m", saved, verify=False)
        assert checksum_calls == []

    def test_registry_load_verifies_by_default(self, saved, checksum_calls):
        registry = ModelRegistry()
        registry.load("m", saved)
        assert len(checksum_calls) >= 1

    def test_api_from_artifact_honors_verify_false(self, saved, checksum_calls):
        api = ServingAPI.from_artifact(saved, verify=False)
        assert checksum_calls == []
        api.close()


@pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="WorkerPool needs SO_REUSEPORT",
)
class TestPoolVerifiesOnce:
    def test_constructor_rejects_corrupt_artifact_before_spawning(
        self, saved, checksum_calls
    ):
        _corrupt(saved)
        with pytest.raises(RuntimeError, match="worker pool failed to start"):
            WorkerPool(saved, name="m", workers=2)
        # The parent's single verification pass ran; no worker was ever
        # handed the corrupt artifact.
        assert len(checksum_calls) >= 1

    def test_workers_spawn_with_verify_disabled(self, saved):
        pool = WorkerPool.__new__(WorkerPool)
        try:
            WorkerPool.__init__(pool, saved, name="m", workers=1)
            # Last spawn arg is the worker-side verify flag: the parent
            # just hashed the artifact, so workers must not re-hash.
            assert pool._spawn_args[-1] is False
        finally:
            pool.stop()

    def test_hot_swap_load_rejects_corrupt_artifact_in_parent(
        self, tmp_path, artifact, saved
    ):
        bad = artifact.save(tmp_path / "bad")
        _corrupt(bad)
        with WorkerPool(saved, name="m", workers=1) as pool:
            with pytest.raises(RuntimeError, match="load failed"):
                pool.load(bad)
            # The fleet still serves the original model.
            assert pool.ping()
