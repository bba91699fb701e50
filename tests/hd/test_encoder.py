"""Tests for the Eq. (2a) and Eq. (2b) encoders."""

import numpy as np
import pytest

from repro.backend.packed import pack_hypervectors
from repro.hd.encoder import LevelBaseEncoder, ScalarBaseEncoder
from repro.hd.quantize import get_quantizer
from repro.hd.similarity import cosine
from repro.utils import spawn
from tests.conftest import LEVEL_GRID_D_IN, level_grid_case
from tests.level_base_reference import reference_level_encode


def _inputs(n=6, d_in=32, seed=0):
    return spawn(seed, "enc-inputs").uniform(0, 1, (n, d_in))


class TestScalarBaseEncoder:
    def test_encode_is_linear_combination(self):
        """Eq. (2a): H must literally equal Σ v_k · B_k."""
        enc = ScalarBaseEncoder(8, 256, seed=1)
        x = _inputs(1, 8)[0]
        expected = np.zeros(256)
        for k in range(8):
            expected += x[k] * enc.base.vectors[k]
        # encode() accumulates in float32; the reference sum is float64
        np.testing.assert_allclose(enc.encode_one(x), expected, rtol=1e-3, atol=1e-5)

    def test_batch_matches_single(self):
        enc = ScalarBaseEncoder(16, 512, seed=2)
        X = _inputs(4, 16)
        H = enc.encode(X)
        for i in range(4):
            np.testing.assert_allclose(H[i], enc.encode_one(X[i]), rtol=1e-6)

    def test_deterministic_across_instances(self):
        X = _inputs()
        a = ScalarBaseEncoder(32, 256, seed=9).encode(X)
        b = ScalarBaseEncoder(32, 256, seed=9).encode(X)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        X = _inputs()
        a = ScalarBaseEncoder(32, 256, seed=1).encode(X)
        b = ScalarBaseEncoder(32, 256, seed=2).encode(X)
        assert not np.allclose(a, b)

    def test_feature_quantization_snaps_to_grid(self):
        enc = ScalarBaseEncoder(4, 64, n_levels=5, seed=0)
        Xq = enc.quantize_features(np.array([[0.0, 0.13, 0.5, 1.0]]))
        np.testing.assert_allclose(Xq[0], [0.0, 0.25, 0.5, 1.0])

    def test_no_levels_passthrough_with_clip(self):
        enc = ScalarBaseEncoder(3, 64, seed=0)
        Xq = enc.quantize_features(np.array([[-0.5, 0.3, 1.5]]))
        np.testing.assert_allclose(Xq[0], [0.0, 0.3, 1.0])

    def test_wrong_feature_count_rejected(self):
        enc = ScalarBaseEncoder(8, 64, seed=0)
        with pytest.raises(ValueError):
            enc.encode(np.zeros((2, 9)))

    def test_truncated_matches_prefix(self):
        enc = ScalarBaseEncoder(16, 512, seed=3)
        X = _inputs(3, 16)
        H_full = enc.encode(X)
        H_trunc = enc.truncated(128).encode(X)
        np.testing.assert_allclose(H_trunc, H_full[:, :128], rtol=1e-6)

    def test_similar_inputs_similar_encodings(self):
        enc = ScalarBaseEncoder(32, 4096, seed=4)
        x = _inputs(1, 32)[0]
        x2 = np.clip(x + 0.01, 0, 1)
        far = _inputs(1, 32, seed=99)[0]
        assert cosine(enc.encode_one(x), enc.encode_one(x2)) > cosine(
            enc.encode_one(x), enc.encode_one(far)
        )


class TestLevelBaseEncoder:
    def test_encode_matches_definition(self):
        """Eq. (2b): H must equal Σ L[q_k] ⊙ B_k."""
        enc = LevelBaseEncoder(8, 256, n_levels=4, seed=5)
        x = _inputs(1, 8)[0]
        idx = enc.levels.indices(x)
        expected = np.zeros(256)
        for k in range(8):
            expected += enc.levels.vectors[idx[k]] * enc.base.vectors[k]
        np.testing.assert_allclose(enc.encode_one(x), expected)

    def test_encode_equals_per_feature_gather(self):
        X = _inputs(5, 12, seed=1)
        enc = LevelBaseEncoder(12, 256, n_levels=3, seed=6)
        H = enc.encode(X)
        expected = np.zeros_like(H)
        idx = enc.levels.indices(X)
        for k in range(12):
            expected += (
                enc.levels.vectors[idx[:, k]].astype(np.float32)
                * enc.base.vectors[k].astype(np.float32)
            )
        assert H.dtype == np.float32
        np.testing.assert_array_equal(H, expected)

    def test_addends_sum_to_encoding(self):
        enc = LevelBaseEncoder(16, 512, n_levels=8, seed=7)
        x = _inputs(1, 16)[0]
        addends = enc.encode_addends(x)
        assert addends.shape == (16, 512)
        assert set(np.unique(addends)) <= {-1, 1}
        np.testing.assert_allclose(addends.sum(axis=0), enc.encode_one(x))

    def test_addends_rejects_bad_shape(self):
        enc = LevelBaseEncoder(16, 64, n_levels=4, seed=0)
        with pytest.raises(ValueError):
            enc.encode_addends(np.zeros(8))

    def test_encoding_values_have_parity_of_d_in(self):
        # A sum of d_in ±1 values has the same parity as d_in.
        enc = LevelBaseEncoder(9, 128, n_levels=4, seed=8)
        H = enc.encode(_inputs(3, 9))
        assert np.all(np.mod(H, 2) == 9 % 2)

    def test_truncated_matches_prefix(self):
        enc = LevelBaseEncoder(16, 512, n_levels=8, seed=9)
        X = _inputs(3, 16)
        np.testing.assert_allclose(
            enc.truncated(100).encode(X), enc.encode(X)[:, :100]
        )

    def test_kind_attributes(self):
        assert ScalarBaseEncoder(4, 16, seed=0).kind == "scalar-base"
        assert LevelBaseEncoder(4, 16, n_levels=2, seed=0).kind == "level-base"

    def test_close_features_closer_than_far(self):
        enc = LevelBaseEncoder(32, 4096, n_levels=32, seed=10)
        lo = np.full(32, 0.2)
        lo_eps = np.full(32, 0.25)
        hi = np.full(32, 0.9)
        s_near = cosine(enc.encode_one(lo), enc.encode_one(lo_eps))
        s_far = cosine(enc.encode_one(lo), enc.encode_one(hi))
        assert s_near > s_far


class TestEncodeInto:
    """The blocked quantize-into-matmul kernel of the streaming pipeline."""

    def test_matches_encode(self):
        enc = ScalarBaseEncoder(16, 300, seed=4)
        X = _inputs(20, 16)
        out = np.empty((20, 300), dtype=np.float32)
        assert enc.encode_into(X, out) is out
        np.testing.assert_allclose(out, enc.encode(X), rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize(
        "d_in, d_hv, n", [(617, 10_000, 1), (617, 10_000, 37), (4, 64, 10)]
    )
    def test_encode_is_the_reference_product(self, d_in, d_hv, n):
        # encode() writes through encode_into; pin it bit for bit to the
        # NumPy reference product, at the edge client's shape too.
        enc = ScalarBaseEncoder(d_in, d_hv, n_levels=16, seed=3)
        X = _inputs(n, d_in)
        ref = enc.quantize_features(X) @ enc.base.as_float()
        np.testing.assert_array_equal(enc.encode(X), ref)

    def test_col_block_parity(self):
        enc = ScalarBaseEncoder(16, 300, seed=4)
        X = _inputs(10, 16)
        blocked = np.empty((10, 300), dtype=np.float32)
        enc.encode_into(X, blocked, col_block=77)  # does not divide 300
        np.testing.assert_allclose(
            blocked, enc.encode(X), rtol=1e-5, atol=1e-4
        )

    def test_with_feature_levels(self):
        enc = ScalarBaseEncoder(8, 128, n_levels=5, seed=1)
        X = _inputs(6, 8)
        out = np.empty((6, 128), dtype=np.float32)
        enc.encode_into(X, out)
        np.testing.assert_allclose(out, enc.encode(X), rtol=1e-5, atol=1e-4)

    def test_rejects_bad_out(self):
        enc = ScalarBaseEncoder(8, 64, seed=0)
        X = _inputs(4, 8)
        with pytest.raises(ValueError, match="shape"):
            enc.encode_into(X, np.empty((4, 65), dtype=np.float32))
        with pytest.raises(ValueError, match="float32"):
            enc.encode_into(X, np.empty((4, 64), dtype=np.float64))


def _truncated_grid_encoder(d_in, n_levels):
    """A level-base encoder cut from ``parent_d_hv = 1000`` to 777 dims."""
    parent = LevelBaseEncoder(d_in, 1000, n_levels=n_levels, seed=5)
    return parent.truncated(777)


def _grid_inputs(d_in):
    """129 rows on, between and outside the level range ``[0, 1]``."""
    X = spawn(d_in, "trunc-grid").uniform(-0.25, 1.25, (129, d_in))
    X[::7] = 1.0
    return X


class TestPackedLevelBaseGrid:
    """The flip-chain popcount against the per-level GEMM reference.

    ``d_in`` of 1, 63, 64, 65 and 617 puts the last feature word at
    every fill: one feature, one short of a word, exactly one, one
    over, and the paper's partial tenth word.
    """

    @pytest.mark.parametrize("d_in", (1, 12, 63, 64, 65, 617))
    @pytest.mark.parametrize("d_hv", (64, 770, 10_000))
    @pytest.mark.parametrize("n", (0, 1, 7, 128, 129))
    @pytest.mark.parametrize("n_levels", (1, 2, 3, 4, 5, 8, 32, 100))
    def test_encode_packed_matches_encode(self, n_levels, n, d_hv, d_in):
        enc, X, H = level_grid_case(d_in, d_hv, n_levels, rows=129)
        np.testing.assert_array_equal(
            enc.encode_packed(X[:n], native=False), H[:n]
        )
        np.testing.assert_array_equal(enc.encode(X[:n]), H[:n])

    @pytest.mark.parametrize("d_in", LEVEL_GRID_D_IN)
    @pytest.mark.parametrize("n", (1, 129))
    def test_bipolar_planes_match_quantized_encode(self, n, d_in):
        enc, X, H = level_grid_case(d_in, 1000)
        got = enc.encode_packed_bipolar(X[:n], native=False)
        want = pack_hypervectors(get_quantizer("bipolar")(H[:n]))
        np.testing.assert_array_equal(got.signs, want.signs)
        np.testing.assert_array_equal(got.mags, want.mags)

    @pytest.mark.parametrize("d_in", (1, 63, 64, 65, 617))
    @pytest.mark.parametrize("n_levels", (1, 2, 3, 32, 100))
    def test_truncated_encoder_matches_reference(self, n_levels, d_in):
        enc = _truncated_grid_encoder(d_in, n_levels)
        X = _grid_inputs(d_in)
        want = reference_level_encode(enc, X)
        for n in (0, 1, 129):
            np.testing.assert_array_equal(enc.encode(X[:n]), want[:n])
            np.testing.assert_array_equal(
                enc.encode_packed(X[:n], native=False), want[:n]
            )

    @pytest.mark.parametrize("masked", ("none", "half", "all-but-one"))
    @pytest.mark.parametrize("d_in", (1, 63, 64, 65, 617))
    @pytest.mark.parametrize("n_levels", (1, 2, 3, 32, 100))
    def test_masked_prepare_packed_matches_packed_prepare(
        self, n_levels, d_in, masked
    ):
        from repro.core.inference_privacy import (
            InferenceObfuscator,
            ObfuscationConfig,
        )

        enc = _truncated_grid_encoder(d_in, n_levels)
        n_masked = {
            "none": 0, "half": enc.d_hv // 2, "all-but-one": enc.d_hv - 1
        }
        obf = InferenceObfuscator(
            enc, ObfuscationConfig(n_masked=n_masked[masked], mask_seed=d_in)
        )
        X = _grid_inputs(d_in)
        for n in (0, 1, 129):
            got = obf.prepare_packed(X[:n])
            want = pack_hypervectors(obf.prepare(X[:n]))
            np.testing.assert_array_equal(got.signs, want.signs)
            np.testing.assert_array_equal(got.mags, want.mags)

    @pytest.mark.parametrize("defect", ("flips back", "leaves the chain"))
    def test_non_chain_levels_refused_at_plan_build(self, defect):
        enc = LevelBaseEncoder(8, 200, n_levels=4, seed=1)
        L = enc.levels.vectors
        if defect == "flips back":  # flipped at level 1, back at level 3
            j = int(np.flatnonzero((L[1] != L[0]) & (L[2] != L[0]))[0])
            L[3, j] = L[0, j]
        else:  # a value that is neither L_0 nor -L_0
            j = int(np.flatnonzero(L[3] == L[0])[0])
            L[2, j] = 0
        with pytest.raises(ValueError, match=f"column {j} is not a flip"):
            enc.encode(_inputs(2, 8))
        with pytest.raises(ValueError, match=f"column {j} "):
            enc._column_plan(np.ones(200, dtype=bool))

    @pytest.mark.parametrize("d_hv", (130, 10_000))  # d_hv % 64 != 0
    def test_zero_rows(self, d_hv):
        from repro.core.inference_privacy import (
            InferenceObfuscator,
            ObfuscationConfig,
        )

        enc = LevelBaseEncoder(9, d_hv, n_levels=4, seed=2)
        X = np.zeros((0, 9))
        assert enc.encode_packed(X, native=False).shape == (0, d_hv)
        words = -(-d_hv // 64)
        q = enc.encode_packed_bipolar(X, native=False)
        assert (q.n, q.d, q.signs.shape, q.mags.shape) == (
            0, d_hv, (0, words), (0, words)
        )
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=d_hv // 2))
        assert obf.prepare_packed(X).signs.shape == (0, words)


def _boundary_rows(enc):
    """Rows whose features sit at ``lo``, at ``hi``, outside ``[lo, hi]``
    and on every level-rounding boundary (and one ulp either side)."""
    lo, hi, n = enc.lo, enc.hi, enc.n_levels
    half = lo + (np.arange(max(n - 1, 1)) + 0.5) * ((hi - lo) / max(n - 1, 1))
    values = np.concatenate([
        [lo, hi, lo - 0.5, hi + 0.5, lo - 1e9, hi + 1e9],
        half, np.nextafter(half, -np.inf), np.nextafter(half, np.inf),
    ])
    rows = -(-values.size // enc.d_in)
    X = np.resize(spawn(n, "boundary-x").permutation(values), (rows, enc.d_in))
    return np.vstack([X, np.full(enc.d_in, lo), np.full(enc.d_in, hi),
                      np.full(enc.d_in, lo - 1), np.full(enc.d_in, hi + 1)])


def _dense_words(obf, X):
    """Planes, live words and core words of the dense reference ``X``."""
    from repro.backend.packed import pack_sign_planes, unpack_bit_planes

    H = obf.obfuscate_encodings(reference_level_encode(obf.encoder, X))
    core = unpack_bit_planes(obf._plan().core[None], obf.encoder.d_hv)[0]
    return {
        "planes": pack_hypervectors(H),
        "live": pack_sign_planes(H[:, obf.keep_mask]),
        "core": pack_sign_planes(H[:, core.astype(bool)]),
    }


def _same_words(got, want, words):
    if words == "planes":
        np.testing.assert_array_equal(got.signs, want.signs)
        np.testing.assert_array_equal(got.mags, want.mags)
    else:
        np.testing.assert_array_equal(got.words, want)


class TestOneRowEdges:
    """The one-row masked encode a client runs per ``predict``: its word
    sets equal the batch path's and the dense reference's at the edges
    of the level quantizer."""

    @pytest.mark.parametrize(
        "lo,hi,n_levels", [(0.0, 1.0, 5), (-1.0, 1.0, 32), (0.1, 0.7, 7),
                           (0.0, 1.0, 1), (-3.0, 5.0, 100)],
    )
    def test_level_indices_keep_the_float64_formula(self, lo, hi, n_levels):
        enc = LevelBaseEncoder(65, 128, n_levels=n_levels, lo=lo, hi=hi)
        X = _boundary_rows(enc)
        want = np.rint(
            (np.clip(X, lo, hi) - lo) / (hi - lo) * (n_levels - 1)
        ).astype(np.int64)
        got = enc.levels.indices(X)
        assert got.dtype == enc.levels.index_dtype
        np.testing.assert_array_equal(got, want)
        for i in range(len(X)):
            np.testing.assert_array_equal(enc.levels.indices(X[i]), want[i])

    @pytest.mark.parametrize("words", ("planes", "live", "core"))
    @pytest.mark.parametrize(
        "lo,hi,n_levels", [(0.0, 1.0, 5), (-1.0, 1.0, 32), (0.1, 0.7, 7)],
    )
    @pytest.mark.parametrize("d_in", (1, 65, 617))
    def test_one_row_equals_batch_and_reference(
        self, d_in, lo, hi, n_levels, words
    ):
        from repro.core.inference_privacy import (
            InferenceObfuscator,
            ObfuscationConfig,
        )

        enc = LevelBaseEncoder(
            d_in, 1000, n_levels=n_levels, lo=lo, hi=hi, seed=d_in
        )
        obf = InferenceObfuscator(
            enc, ObfuscationConfig(n_masked=500, mask_seed=3)
        )
        X = _boundary_rows(enc)
        want = _dense_words(obf, X)[words]
        batch = obf.prepare_packed(X, words=words)
        _same_words(batch, want, words)
        for i in range(len(X)):
            _same_words(
                obf.prepare_packed(X[i : i + 1], words=words),
                want[i : i + 1], words,
            )
        every = obf.prepare_packed(X)
        _same_words(every, _dense_words(obf, X)["planes"], "planes")
        if words != "planes":
            _same_words(getattr(every, words), want, words)

    @pytest.mark.parametrize("words", (None, "planes", "live", "core"))
    def test_zero_rows_keep_their_width(self, words):
        from repro.backend.packed import n_words
        from repro.core.inference_privacy import (
            InferenceObfuscator,
            ObfuscationConfig,
        )

        enc = LevelBaseEncoder(9, 130, n_levels=4, seed=2)
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=65))
        got = obf.prepare_packed(np.zeros((0, 9)), words=words)
        plan = obf._plan()
        width = {"live": plan.n_live, "core": plan.n_core}.get(words, 130)
        rows = got.signs if words in (None, "planes") else got.words
        assert rows.shape == (0, n_words(width))

    def test_unknown_word_set_is_refused(self):
        from repro.core.inference_privacy import (
            InferenceObfuscator,
            ObfuscationConfig,
        )

        obf = InferenceObfuscator(
            LevelBaseEncoder(9, 130, n_levels=4), ObfuscationConfig()
        )
        with pytest.raises(ValueError, match="words must be one of"):
            obf.prepare_packed(np.zeros((1, 9)), words="signs")

    def test_predict_ships_the_reference_core_words(self):
        """At protocol v6, the core words ``predict`` frames are the core
        bits of the dense reference, one row per call."""
        from repro.backend.packed import LiveHV
        from repro.client import PriveHDClient
        from repro.hd import HDModel
        from repro.hd.prune import mask_from_seed
        from repro.serve import FrontendHandle, ModelArtifact, ServingAPI

        enc = LevelBaseEncoder(65, 1000, n_levels=7, seed=8)
        X = _boundary_rows(enc)
        y = np.arange(len(X)) % 3
        art = ModelArtifact.build(
            HDModel.from_encodings(enc.encode(X), y, 3),
            quantizer="bipolar", backend="packed", encoder=enc,
            keep_mask=mask_from_seed(1000, 400, 5), mask_seed=5,
        )
        api = ServingAPI.from_artifact(art, name="model")
        shipped = []
        try:
            with FrontendHandle(api) as handle, PriveHDClient(
                handle.address, encoder=enc
            ) as client:
                assert client.protocol_version >= 6
                frame = client._score_message

                def spy(queries, *args, **kwargs):
                    shipped.append(queries)
                    return frame(queries, *args, **kwargs)

                client._score_message = spy
                got = [client.predict(X[i : i + 1])[0] for i in range(len(X))]
                obf = client.obfuscator
        finally:
            api.close()
        np.testing.assert_array_equal(got, art.engine().predict_features(X))
        assert all(isinstance(q, LiveHV) for q in shipped)
        assert {q.digest for q in shipped} == {obf.core_digest}
        np.testing.assert_array_equal(
            np.vstack([q.words for q in shipped]), _dense_words(obf, X)["core"]
        )


class TestNonFiniteFeatures:
    """NaN/±inf features have no level: rejected, column named."""

    @pytest.mark.parametrize(
        "encode",
        [
            lambda e, X: e.encode(X),
            lambda e, X: e.encode_packed(X, native=False),
            lambda e, X: e.encode_packed_bipolar(X, native=False),
        ],
    )
    @pytest.mark.parametrize("d_in", (5, 617))
    def test_level_base_rejects(self, encode, d_in):
        enc = LevelBaseEncoder(d_in, 256, n_levels=32, seed=0)
        X = _inputs(3, d_in)
        X[1, 3] = np.nan
        with pytest.raises(ValueError, match="column 3 .*nan"):
            encode(enc, X)

    @pytest.mark.parametrize("words", (None, "planes", "live", "core"))
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_one_row_prepare_rejects(self, bad, words):
        from repro.core.inference_privacy import (
            InferenceObfuscator,
            ObfuscationConfig,
        )

        enc = LevelBaseEncoder(617, 1000, n_levels=32, seed=0)
        obf = InferenceObfuscator(enc, ObfuscationConfig(n_masked=500))
        X = _inputs(1, 617)
        X[0, 600] = bad
        with pytest.raises(ValueError, match=f"column 600 .*{bad}"):
            obf.prepare_packed(X, words=words)

    def test_scalar_base_rejects(self):
        enc = ScalarBaseEncoder(8, 128, n_levels=4, seed=0)
        X = _inputs(2, 8)
        X[0, 6] = -np.inf
        with pytest.raises(ValueError, match="column 6 .*inf"):
            enc.encode(X)
        with pytest.raises(ValueError, match="column 6"):
            enc.encode_into(X, np.empty((2, 128), dtype=np.float32))


class TestEncoderConfig:
    """Config round-trips rebuild bit-identical codebooks."""

    def test_scalar_base_round_trip(self):
        from repro.hd import encoder_from_config

        enc = ScalarBaseEncoder(12, 200, n_levels=7, lo=-1.0, hi=2.0, seed=5)
        clone = encoder_from_config(enc.config())
        assert isinstance(clone, ScalarBaseEncoder)
        np.testing.assert_array_equal(clone.base.vectors, enc.base.vectors)
        X = spawn(0, "cfg-x").uniform(-1, 2, (5, 12))
        np.testing.assert_array_equal(clone.encode(X), enc.encode(X))

    def test_level_base_round_trip(self):
        from repro.hd import encoder_from_config

        enc = LevelBaseEncoder(12, 200, n_levels=6, seed=5)
        clone = encoder_from_config(enc.config())
        assert isinstance(clone, LevelBaseEncoder)
        np.testing.assert_array_equal(clone.base.vectors, enc.base.vectors)
        np.testing.assert_array_equal(
            clone.levels.vectors, enc.levels.vectors
        )

    def test_truncated_config_records_parent(self):
        from repro.hd import encoder_from_config

        enc = LevelBaseEncoder(8, 512, n_levels=4, seed=3).truncated(100)
        cfg = enc.config()
        assert cfg["parent_d_hv"] == 512
        clone = encoder_from_config(cfg)
        np.testing.assert_array_equal(clone.base.vectors, enc.base.vectors)
        np.testing.assert_array_equal(
            clone.levels.vectors, enc.levels.vectors
        )

    def test_twice_truncated_keeps_root_parent(self):
        enc = ScalarBaseEncoder(8, 512, seed=3).truncated(300).truncated(100)
        assert enc.config()["parent_d_hv"] == 512

    def test_unknown_kind_rejected(self):
        from repro.hd import encoder_from_config

        with pytest.raises(ValueError, match="kind"):
            encoder_from_config({"kind": "fourier", "d_in": 4, "d_hv": 16})
