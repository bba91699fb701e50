"""Artifact v2 additions: mmap-backed loads and the recorded mask seed."""

import numpy as np
import pytest

from repro.backend.packed import n_words
from repro.hd import HDModel
from repro.hd.prune import mask_from_seed
from repro.serve import ModelArtifact
from repro.serve.artifact import ArtifactError
from repro.utils import spawn

N_CLASSES, D_HV = 5, 700


@pytest.fixture()
def model():
    rng = spawn(0, "artifact-sharing")
    return HDModel(N_CLASSES, D_HV, rng.normal(size=(N_CLASSES, D_HV)))


class TestMmapLoad:
    def test_uncompressed_save_maps_read_only(self, model, tmp_path):
        art = ModelArtifact.build(model, quantizer="bipolar", backend="dense")
        art.save(tmp_path / "a")
        loaded = ModelArtifact.load(tmp_path / "a", mmap=True)
        store = loaded.class_hvs
        # The dense store is a view of the file, not a heap copy...
        assert isinstance(store, np.memmap) or isinstance(
            getattr(store, "base", None), np.memmap
        )
        # ...and cannot be mutated by the serving process.
        assert not store.flags.writeable
        np.testing.assert_array_equal(store, art.class_hvs)

    @pytest.mark.parametrize("masked", [False, True])
    def test_packed_planes_are_aligned_read_only_heap_copies(
        self, model, tmp_path, masked
    ):
        keep = mask_from_seed(D_HV, 300, 13) if masked else None
        art = ModelArtifact.build(
            model,
            quantizer="bipolar",
            backend="packed",
            keep_mask=keep,
            mask_seed=13 if masked else None,
        )
        path = art.save(tmp_path / "a")
        loaded = ModelArtifact.load(path, mmap=True)
        # Every row shares one magnitude plane: the store is held as its
        # live words plus that plane once.
        store = loaded.store
        assert store.support.shape == (n_words(D_HV),)
        assert store.words.shape == (store.n, n_words(store.n_live))
        held = [store.words, store.support]
        if masked:
            held.append(loaded.keep_mask)
        for arr in held:
            assert arr.flags.aligned and arr.flags.c_contiguous
            assert not arr.flags.writeable
            assert not isinstance(arr, np.memmap)
            assert not isinstance(getattr(arr, "base", None), np.memmap)
        for got, want in zip(
            (store.expand().signs, store.expand().mags),
            (art.store.expand().signs, art.store.expand().mags),
        ):
            np.testing.assert_array_equal(got, want)
        # The dense view is unpacked on demand, read-only, same values.
        assert not loaded.class_hvs.flags.writeable
        np.testing.assert_array_equal(loaded.class_hvs, art.class_hvs)

        rng = spawn(2, "mmap-overwrite")
        queries = np.sign(rng.normal(size=(32, D_HV)))
        if masked:
            queries = queries * keep
        engine = loaded.engine()
        before = engine.scores(queries)
        # Rewrite the artifact in place with a different model, then
        # truncate it: the resident engine must neither change its
        # answers nor fault on vanished pages.
        other = HDModel(
            N_CLASSES, D_HV, spawn(3, "other").normal(size=(N_CLASSES, D_HV))
        )
        ModelArtifact.build(other, quantizer="bipolar", backend="packed").save(
            path
        )
        np.testing.assert_array_equal(engine.scores(queries), before)
        (path / "tensors.npz").write_bytes(b"")
        np.testing.assert_array_equal(engine.scores(queries), before)
        np.testing.assert_array_equal(
            before, art.engine().scores(queries)
        )

    def test_mmap_engine_predicts_identically(self, model, tmp_path):
        art = ModelArtifact.build(model, quantizer="bipolar", backend="packed")
        art.save(tmp_path / "a")
        rng = spawn(1, "mmap-queries")
        queries = np.sign(rng.normal(size=(16, D_HV)))
        heap = ModelArtifact.load(tmp_path / "a").engine().predict(queries)
        mapped = (
            ModelArtifact.load(tmp_path / "a", mmap=True)
            .engine()
            .predict(queries)
        )
        np.testing.assert_array_equal(heap, mapped)

    def test_compressed_save_falls_back_to_heap_load(self, model, tmp_path):
        art = ModelArtifact.build(model, quantizer="bipolar")
        art.save(tmp_path / "c", compress=True)
        loaded = ModelArtifact.load(tmp_path / "c", mmap=True)
        assert not isinstance(loaded.class_hvs, np.memmap)
        np.testing.assert_array_equal(loaded.class_hvs, art.class_hvs)

    def test_mmap_load_still_verifies_checksums(self, model, tmp_path):
        art = ModelArtifact.build(model, quantizer="bipolar")
        path = art.save(tmp_path / "t")
        tensors = path / "tensors.npz"
        blob = bytearray(tensors.read_bytes())
        # Flip a byte inside the stored array payload (past the zip +
        # npy headers), leaving the archive structurally valid.
        blob[len(blob) // 2] ^= 0xFF
        tensors.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            ModelArtifact.load(path, mmap=True)


class TestMaskSeed:
    def _pruned(self, model, seed=13, n_masked=300):
        keep = mask_from_seed(D_HV, n_masked, seed)
        return ModelArtifact.build(
            model,
            quantizer="bipolar",
            backend="packed",
            keep_mask=keep,
            mask_seed=seed,
        )

    def test_round_trips_through_disk(self, model, tmp_path):
        art = self._pruned(model)
        art.save(tmp_path / "p")
        loaded = ModelArtifact.load(tmp_path / "p")
        assert loaded.mask_seed == 13
        np.testing.assert_array_equal(loaded.keep_mask, art.keep_mask)
        # The recorded seed regenerates exactly the stored mask.
        regenerated = mask_from_seed(
            D_HV, D_HV - loaded.n_live_dims, loaded.mask_seed
        )
        np.testing.assert_array_equal(regenerated, loaded.keep_mask)

    def test_wrong_seed_is_rejected_at_build(self, model):
        keep = mask_from_seed(D_HV, 300, 13)
        with pytest.raises(ArtifactError, match="does not regenerate"):
            ModelArtifact.build(
                model, quantizer="bipolar", keep_mask=keep, mask_seed=14
            )

    def test_seed_without_mask_is_rejected(self, model):
        with pytest.raises(ArtifactError, match="keep_mask"):
            ModelArtifact.build(model, quantizer="bipolar", mask_seed=3)

    def test_seedless_mask_still_allowed(self, model):
        # Effectuality-pruned masks have no seed; that stays legal.
        keep = np.ones(D_HV, dtype=bool)
        keep[:100] = False
        art = ModelArtifact.build(model, quantizer="bipolar", keep_mask=keep)
        assert art.mask_seed is None
