"""Tests for the chunked/parallel/packed encode pipeline.

The load-bearing invariant: every pipeline path — chunked, thread
workers, packed bit-plane kernel, fused quantize/pack,
chunk store, streamed retraining — produces results identical to the
reference single-shot path.  Level-base comparisons are bit-exact
(integer-valued float32); scalar-base allows BLAS accumulation-order
rounding only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import BitPlaneAccumulator, PackedHV, pack_sign_planes
from repro.hd import (
    EncodedChunkStore,
    EncodePipeline,
    HDModel,
    LevelBaseEncoder,
    ScalarBaseEncoder,
    fit_classes_batched,
    get_quantizer,
    retrain,
    retrain_streamed,
)
from repro.utils import spawn
from tests.level_base_reference import reference_level_encode


def _inputs(n, d_in, seed=0):
    return spawn(seed, "pipe-x").uniform(0.0, 1.0, (n, d_in))


# ----------------------------------------------------------------------
# the bit-plane accumulator (backend kernel)
# ----------------------------------------------------------------------
class TestBitPlaneAccumulator:
    @settings(max_examples=25, deadline=None)
    @given(
        n_rows=st.integers(1, 40),
        d=st.integers(1, 200),
        seed=st.integers(0, 2**31),
    )
    def test_counts_match_dense_column_sums(self, n_rows, d, seed):
        rng = spawn(seed, "acc-bits")
        bits = rng.integers(0, 2, (n_rows, d), dtype=np.uint8)
        planes = pack_sign_planes(2 * bits.astype(np.int8) - 1)
        acc = BitPlaneAccumulator()
        for row in planes:
            acc.add(row[None, :])
        np.testing.assert_array_equal(
            acc.counts(d)[0], bits.sum(axis=0, dtype=np.int32)
        )

    def test_empty_accumulator_rejected(self):
        with pytest.raises(ValueError):
            BitPlaneAccumulator().counts(8)


# ----------------------------------------------------------------------
# packed level-base kernel vs the per-level GEMM reference
# ----------------------------------------------------------------------
class TestPackedLevelBaseKernel:
    @settings(max_examples=20, deadline=None)
    @given(
        d_in=st.integers(1, 140),  # sweeps partial and whole feature words
        d_hv=st.integers(1, 300),  # sweeps across non-multiple-of-64 widths
        n_levels=st.integers(1, 12),
        n=st.integers(0, 9),
        seed=st.integers(0, 2**31),
    )
    def test_bit_identical_to_dense(self, d_in, d_hv, n_levels, n, seed):
        enc = LevelBaseEncoder(d_in, d_hv, n_levels=n_levels, seed=seed % 997)
        X = _inputs(n, d_in, seed=seed)
        np.testing.assert_array_equal(
            enc.encode_packed(X), reference_level_encode(enc, X)
        )

    def test_truncated_encoder_bit_identical(self):
        enc = LevelBaseEncoder(19, 257, n_levels=7, seed=5)
        X = _inputs(11, 19, seed=2)
        for d in (257, 200, 64, 63, 1):
            t = enc.truncated(d)
            np.testing.assert_array_equal(
                t.encode_packed(X), reference_level_encode(t, X)
            )
            np.testing.assert_array_equal(
                t.encode(X), enc.encode(X)[:, :d]
            )

    def test_many_levels_few_features(self):
        enc = LevelBaseEncoder(6, 100, n_levels=64, seed=3)
        X = _inputs(7, 6, seed=4)
        np.testing.assert_array_equal(
            enc.encode_packed(X), reference_level_encode(enc, X)
        )


# ----------------------------------------------------------------------
# the pipeline driver
# ----------------------------------------------------------------------
class TestEncodePipeline:
    @settings(max_examples=15, deadline=None)
    @given(
        chunk_size=st.integers(1, 50),  # mostly does not divide n
        workers=st.integers(1, 3),
        seed=st.integers(0, 2**31),
    )
    def test_level_base_stream_bit_identical(self, chunk_size, workers, seed):
        enc = LevelBaseEncoder(13, 130, n_levels=5, seed=seed % 997)
        X = _inputs(37, 13, seed=seed)
        pipeline = EncodePipeline(
            enc, chunk_size=chunk_size, workers=workers
        )
        assert pipeline.uses_packed_kernel
        np.testing.assert_array_equal(pipeline.encode(X), enc.encode(X))

    @settings(max_examples=15, deadline=None)
    @given(
        chunk_size=st.integers(1, 50),
        workers=st.integers(1, 3),
        seed=st.integers(0, 2**31),
    )
    def test_scalar_base_stream_matches(self, chunk_size, workers, seed):
        enc = ScalarBaseEncoder(13, 130, seed=seed % 997)
        X = _inputs(37, 13, seed=seed)
        pipeline = EncodePipeline(enc, chunk_size=chunk_size, workers=workers)
        np.testing.assert_allclose(
            pipeline.encode(X), enc.encode(X), rtol=1e-5, atol=1e-4
        )

    def test_stream_slices_cover_in_order(self):
        enc = LevelBaseEncoder(8, 96, n_levels=4, seed=1)
        X = _inputs(23, 8)
        chunks = list(EncodePipeline(enc, chunk_size=10).stream(X))
        assert [(sl.start, sl.stop) for sl, _ in chunks] == [
            (0, 10), (10, 20), (20, 23)
        ]

    def test_forced_dense_kernel(self):
        enc = LevelBaseEncoder(8, 96, n_levels=4, seed=1)
        pipeline = EncodePipeline(enc, kernel="dense")
        assert not pipeline.uses_packed_kernel
        X = _inputs(5, 8)
        np.testing.assert_array_equal(pipeline.encode(X), enc.encode(X))

    def test_packed_kernel_unavailable_for_scalar_base(self):
        with pytest.raises(ValueError, match="packed"):
            EncodePipeline(ScalarBaseEncoder(4, 64, seed=0), kernel="packed")

    def test_invalid_configs_rejected(self):
        enc = ScalarBaseEncoder(4, 64, seed=0)
        with pytest.raises(ValueError):
            EncodePipeline(enc, chunk_size=0)
        with pytest.raises(ValueError):
            EncodePipeline(enc, kernel="simd")

    def test_truncated_encoder_through_pipeline(self):
        enc = LevelBaseEncoder(9, 200, n_levels=6, seed=8).truncated(70)
        X = _inputs(19, 9)
        pipeline = EncodePipeline(enc, chunk_size=4, workers=2)
        np.testing.assert_array_equal(pipeline.encode(X), enc.encode(X))


# ----------------------------------------------------------------------
# direct packed-bipolar emission: no dense tile, no unpack round-trip
# ----------------------------------------------------------------------
class TestDirectPackedEmission:
    def _reference(self, enc, X):
        q = get_quantizer("bipolar")
        from repro.backend import pack_hypervectors

        return pack_hypervectors(q(enc.encode(X)))

    def test_emitted_tiles_match_quantized_dense(self):
        enc = LevelBaseEncoder(10, 130, n_levels=5, seed=3)
        X = _inputs(29, 10)
        want = self._reference(enc, X)
        pipeline = EncodePipeline(enc, chunk_size=8)
        for sl, chunk in pipeline.stream_quantized(
            X, get_quantizer("bipolar"), pack=True
        ):
            assert isinstance(chunk, PackedHV)
            np.testing.assert_array_equal(chunk.signs, want[sl].signs)
            np.testing.assert_array_equal(chunk.mags, want[sl].mags)

    def test_no_dense_unpack_on_the_bipolar_path(self, monkeypatch):
        enc = LevelBaseEncoder(10, 130, n_levels=5, seed=3)
        X = _inputs(29, 10)
        want = self._reference(enc, X)

        def _boom(self, dtype=np.float32):
            raise AssertionError("dense unpack on the packed path")

        monkeypatch.setattr(PackedHV, "unpack", _boom)
        pipeline = EncodePipeline(enc, chunk_size=8)
        got = [
            c for _, c in pipeline.stream_quantized(
                X, get_quantizer("bipolar"), pack=True
            )
        ]
        np.testing.assert_array_equal(
            np.vstack([c.signs for c in got]), want.signs
        )
        np.testing.assert_array_equal(
            np.vstack([c.mags for c in got]), want.mags
        )

    def test_packed_training_streams_without_unpack(self, monkeypatch):
        enc = LevelBaseEncoder(10, 130, n_levels=5, seed=3)
        X = _inputs(29, 10)
        y = spawn(4, "pipe-train-y").integers(0, 3, 29)
        mono = HDModel.from_encodings(
            get_quantizer("bipolar")(enc.encode(X)), y, 3
        )

        def _boom(self, dtype=np.float32):
            raise AssertionError("dense unpack during packed training")

        monkeypatch.setattr(PackedHV, "unpack", _boom)
        pipeline = EncodePipeline(enc, chunk_size=8)
        stream = pipeline.stream_quantized(
            X, get_quantizer("bipolar"), pack=True
        )
        model = fit_classes_batched(
            None, None, y, 3, stream=stream, d_hv=130
        )
        np.testing.assert_array_equal(model.class_hvs, mono.class_hvs)


# ----------------------------------------------------------------------
# fused quantize/pack stream + chunk store
# ----------------------------------------------------------------------
class TestFusedStream:
    def test_stream_quantized_matches_whole_matrix(self):
        enc = LevelBaseEncoder(10, 130, n_levels=5, seed=3)
        X = _inputs(29, 10)
        q = get_quantizer("ternary-biased")
        expected = q(enc.encode(X))
        pipeline = EncodePipeline(enc, chunk_size=7)
        stitched = np.vstack(
            [H for _, H in pipeline.stream_quantized(X, q)]
        )
        np.testing.assert_array_equal(stitched, expected)

    def test_packed_stream_roundtrips(self):
        enc = LevelBaseEncoder(10, 130, n_levels=5, seed=3)
        X = _inputs(29, 10)
        q = get_quantizer("bipolar")
        expected = q(enc.encode(X))
        pipeline = EncodePipeline(enc, chunk_size=8)
        for sl, chunk in pipeline.stream_quantized(X, q, pack=True):
            assert isinstance(chunk, PackedHV)
            np.testing.assert_array_equal(chunk.unpack(), expected[sl])

    def test_store_packs_when_quantizer_allows(self):
        enc = LevelBaseEncoder(10, 130, n_levels=5, seed=3)
        X = _inputs(29, 10)
        pipeline = EncodePipeline(enc, chunk_size=8)
        store = pipeline.store(X, "bipolar")
        assert store.packed and store.n_rows == 29 and store.n_chunks == 4
        dense_bytes = 29 * 130 * 4
        assert store.nbytes < dense_bytes
        stitched = np.vstack([H for _, H in store.iter_chunks()])
        np.testing.assert_array_equal(
            stitched, get_quantizer("bipolar")(enc.encode(X))
        )

    def test_store_identity_stays_dense(self):
        enc = ScalarBaseEncoder(10, 64, seed=3)
        store = EncodePipeline(enc, chunk_size=8).store(_inputs(20, 10), None)
        assert not store.packed
        assert all(
            isinstance(c, np.ndarray) for _, c in store.iter_raw()
        )

    def test_store_pack_true_rejects_unpackable(self):
        enc = ScalarBaseEncoder(10, 64, seed=3)
        with pytest.raises(ValueError, match="bit-packed"):
            EncodePipeline(enc, chunk_size=8).store(
                _inputs(20, 10), "2bit", pack=True
            )

    def test_store_feeds_fit_classes_batched(self):
        enc = LevelBaseEncoder(10, 130, n_levels=5, seed=3)
        X, y = _inputs(29, 10), spawn(1, "pipe-y").integers(0, 3, 29)
        store = EncodePipeline(enc, chunk_size=8).store(X, "bipolar")
        from_store = fit_classes_batched(
            None, None, y, 3, stream=store.iter_raw(), d_hv=130
        )
        mono = HDModel.from_encodings(
            get_quantizer("bipolar")(enc.encode(X)), y, 3
        )
        np.testing.assert_array_equal(from_store.class_hvs, mono.class_hvs)


# ----------------------------------------------------------------------
# streamed retraining over the chunk cache
# ----------------------------------------------------------------------
class TestRetrainStreamed:
    def _setup(self, quantizer="ternary"):
        enc = LevelBaseEncoder(12, 192, n_levels=6, seed=9)
        rng = spawn(4, "retrain-stream")
        X = rng.uniform(0, 1, (60, 12))
        y = rng.integers(0, 3, 60)
        q = get_quantizer(quantizer)
        H = q(enc.encode(X))
        model = HDModel.from_encodings(H[:30], y[:30], 3)  # deliberately bad
        store = EncodePipeline(enc, chunk_size=13).store(X, quantizer)
        return model, H, y, store

    def test_matches_dense_retrain_exactly(self):
        model, H, y, store = self._setup()
        dense_model, dense_hist = retrain(model, H, y, epochs=4)
        stream_model, stream_hist = retrain_streamed(
            model, store, y, epochs=4
        )
        np.testing.assert_array_equal(
            stream_model.class_hvs, dense_model.class_hvs
        )
        assert stream_hist.train_accuracy == dense_hist.train_accuracy
        assert stream_hist.best_epoch == dense_hist.best_epoch
        assert stream_hist.best_accuracy == dense_hist.best_accuracy

    def test_matches_dense_retrain_with_eval_and_mask(self):
        model, H, y, store = self._setup("bipolar")
        keep = np.ones(192, dtype=bool)
        keep[50:120] = False
        dense_model, dense_hist = retrain(
            model,
            H[:40],
            y[:40],
            epochs=3,
            keep_mask=keep,
            eval_encodings=H[40:],
            eval_labels=y[40:],
        )
        enc_store = _SlicedStore(store, 0, 40)
        eval_store = _SlicedStore(store, 40, 60)
        stream_model, stream_hist = retrain_streamed(
            model,
            enc_store,
            y[:40],
            epochs=3,
            keep_mask=keep,
            eval_store=eval_store,
            eval_labels=y[40:],
        )
        np.testing.assert_array_equal(
            stream_model.class_hvs, dense_model.class_hvs
        )
        assert stream_hist.eval_accuracy == dense_hist.eval_accuracy
        assert stream_hist.best_epoch == dense_hist.best_epoch

    def test_early_stop_matches(self):
        # A model that already classifies everything: one no-op epoch is
        # still recorded, exactly like retrain().
        enc = LevelBaseEncoder(12, 192, n_levels=6, seed=9)
        rng = spawn(11, "retrain-clean")
        X = np.repeat(rng.uniform(0, 1, (3, 12)), 10, axis=0)
        y = np.repeat(np.arange(3), 10)
        H = get_quantizer("bipolar")(enc.encode(X))
        model = HDModel.from_encodings(H, y, 3)
        store = EncodePipeline(enc, chunk_size=7).store(X, "bipolar")
        dense_model, dense_hist = retrain(model, H, y, epochs=5)
        stream_model, stream_hist = retrain_streamed(
            model, store, y, epochs=5
        )
        assert stream_hist.train_accuracy == dense_hist.train_accuracy
        assert stream_hist.n_epochs == dense_hist.n_epochs
        np.testing.assert_array_equal(
            stream_model.class_hvs, dense_model.class_hvs
        )

    def test_delta_bit_identical_to_the_scatter(self, monkeypatch):
        """Non-integer encodings, where add order matters: the row-order
        delta equals the ``np.add.at``/``np.subtract.at`` one bit for bit."""
        import repro.hd.train as train_mod

        rng = spawn(5, "retrain-scatter")
        H = rng.normal(size=(50, 64)) * 10.0
        y = rng.integers(0, 3, 50)
        model = HDModel.from_encodings(H[:10], y[:10], 3)

        class Store:
            n_rows = 50

            def iter_chunks(self):
                for lo in range(0, 50, 9):
                    yield slice(lo, lo + 9), H[lo : lo + 9]

        got, _ = retrain_streamed(model, Store(), y, epochs=3)

        def scatter(out, index, rows, *, op=np.add):
            op.at(out, index, rows.astype(np.float64, copy=False))

        monkeypatch.setattr(train_mod, "add_rows", scatter)
        want, _ = retrain_streamed(model, Store(), y, epochs=3)
        assert not np.array_equal(got.class_hvs, model.class_hvs)
        assert got.class_hvs.tobytes() == want.class_hvs.tobytes()

    def test_label_count_mismatch_rejected(self):
        model, _, y, store = self._setup()
        with pytest.raises(ValueError, match="labels"):
            retrain_streamed(model, store, y[:10], epochs=1)

    def test_eval_label_count_mismatch_rejected(self):
        model, _, y, store = self._setup()
        with pytest.raises(ValueError, match="eval_labels"):
            retrain_streamed(
                model, store, y, epochs=1,
                eval_store=store, eval_labels=y[:10],
            )

    def test_lazy_stream_matches_cached_store(self):
        model, _, y, store = self._setup()
        enc = LevelBaseEncoder(12, 192, n_levels=6, seed=9)
        X = spawn(4, "retrain-stream").uniform(0, 1, (60, 12))
        lazy = EncodePipeline(enc, chunk_size=13).lazy_store(X, "ternary")
        assert lazy.n_rows == 60 and lazy.d_hv == 192
        cached_model, cached_hist = retrain_streamed(
            model, store, y, epochs=3
        )
        lazy_model, lazy_hist = retrain_streamed(model, lazy, y, epochs=3)
        np.testing.assert_array_equal(
            lazy_model.class_hvs, cached_model.class_hvs
        )
        assert lazy_hist.train_accuracy == cached_hist.train_accuracy


class _SlicedStore:
    """A row-range view over an EncodedChunkStore (test helper)."""

    def __init__(self, store: EncodedChunkStore, start: int, stop: int):
        self._store = store
        self._start, self._stop = start, stop
        self.n_rows = stop - start
        self.d_hv = store.d_hv

    def iter_chunks(self):
        for sl, H in self._store.iter_chunks():
            lo = max(sl.start, self._start)
            hi = min(sl.stop, self._stop)
            if lo >= hi:
                continue
            yield (
                slice(lo - self._start, hi - self._start),
                H[lo - sl.start : hi - sl.start],
            )


# ----------------------------------------------------------------------
# batched training passes workers through to the pipeline
# ----------------------------------------------------------------------
class TestBatchingPassthrough:
    def test_fit_classes_batched_with_workers(self):
        enc = LevelBaseEncoder(10, 130, n_levels=5, seed=3)
        X, y = _inputs(29, 10), spawn(1, "pipe-y").integers(0, 3, 29)
        parallel = fit_classes_batched(
            enc, X, y, 3, quantizer="bipolar", batch_size=8, workers=3
        )
        mono = HDModel.from_encodings(
            get_quantizer("bipolar")(enc.encode(X)), y, 3
        )
        np.testing.assert_array_equal(parallel.class_hvs, mono.class_hvs)


class TestFusedDenseKernel:
    """The blocked quantize-into-matmul path of pipeline.encode()."""

    def test_flag_set_for_scalar_base_inline_and_threads(self):
        enc = ScalarBaseEncoder(13, 130, seed=1)
        assert EncodePipeline(enc).uses_fused_dense_kernel
        assert EncodePipeline(enc, workers=3).uses_fused_dense_kernel

    def test_flag_unset_for_packed_kernel(self):
        enc = LevelBaseEncoder(13, 130, n_levels=4, seed=1)
        assert not EncodePipeline(enc).uses_fused_dense_kernel
        assert EncodePipeline(enc, kernel="dense").uses_fused_dense_kernel is False
        # level-base has no encode_into, so even the dense kernel streams

    def test_coalesced_groups_cover_all_rows(self):
        enc = ScalarBaseEncoder(13, 130, seed=1)
        pipeline = EncodePipeline(enc, chunk_size=10)
        groups = pipeline._coalesced_slices(25, min_rows=20)
        assert [(g.start, g.stop) for g in groups] == [(0, 20), (20, 25)]
        # chunk_size larger than min_rows wins
        pipeline = EncodePipeline(enc, chunk_size=30)
        groups = pipeline._coalesced_slices(65, min_rows=20)
        assert [(g.start, g.stop) for g in groups] == [
            (0, 30), (30, 60), (60, 65),
        ]

    def test_fused_encode_matches_stream_tiles(self):
        enc = ScalarBaseEncoder(13, 130, seed=2)
        X = _inputs(47, 13, seed=5)
        pipeline = EncodePipeline(enc, chunk_size=9)
        fused = pipeline.encode(X)
        streamed = np.vstack([tile for _, tile in pipeline.stream(X)])
        np.testing.assert_allclose(fused, streamed, rtol=1e-5, atol=1e-4)

    def test_fused_threaded_encode_matches_inline(self):
        enc = ScalarBaseEncoder(13, 130, seed=3)
        X = _inputs(101, 13, seed=6)
        inline = EncodePipeline(enc, chunk_size=8).encode(X)
        threaded = EncodePipeline(enc, chunk_size=8, workers=3).encode(X)
        np.testing.assert_allclose(threaded, inline, rtol=1e-5, atol=1e-4)
