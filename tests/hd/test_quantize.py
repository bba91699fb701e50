"""Tests for encoding quantizers (Eq. 13–14)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd.quantize import (
    QUANTIZER_NAMES,
    BiasedTernaryQuantizer,
    BipolarQuantizer,
    IdentityQuantizer,
    TernaryQuantizer,
    TwoBitQuantizer,
    empirical_level_probabilities,
    get_quantizer,
)
from repro.utils import spawn


def _encodings(n=16, d_hv=4000, seed=0):
    """Approximately normal encodings, like real Σ ±1 sums."""
    return spawn(seed, "quant-enc").normal(0.0, 25.0, (n, d_hv))


class TestRegistry:
    @pytest.mark.parametrize("name", QUANTIZER_NAMES)
    def test_all_names_resolve(self, name):
        assert get_quantizer(name).name == name

    def test_aliases(self):
        assert isinstance(get_quantizer("none"), IdentityQuantizer)
        assert isinstance(get_quantizer("binary"), BipolarQuantizer)
        assert isinstance(get_quantizer("biased"), BiasedTernaryQuantizer)

    def test_none_gives_identity(self):
        assert isinstance(get_quantizer(None), IdentityQuantizer)

    def test_instance_passthrough(self):
        q = TernaryQuantizer()
        assert get_quantizer(q) is q

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_quantizer("4bit")


class TestIdentity:
    def test_passthrough_values(self):
        H = _encodings(2, 100)
        np.testing.assert_allclose(IdentityQuantizer()(H), H, rtol=1e-6)

    def test_sensitivity_is_eq12(self):
        # Full precision: Δf = sqrt(Dhv * Div).
        q = IdentityQuantizer()
        assert q.expected_l2_sensitivity(10000, 617) == pytest.approx(
            np.sqrt(10000 * 617)
        )

    def test_sensitivity_requires_d_in(self):
        with pytest.raises(ValueError):
            IdentityQuantizer().expected_l2_sensitivity(1000)


class TestBipolar:
    def test_output_levels(self):
        out = BipolarQuantizer()(_encodings())
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_is_sign(self):
        out = BipolarQuantizer()(np.array([[-5.0, 0.0, 3.0]]))
        np.testing.assert_array_equal(out[0], [-1.0, 1.0, 1.0])

    def test_sensitivity_sqrt_dhv(self):
        assert BipolarQuantizer().expected_l2_sensitivity(10000) == pytest.approx(100.0)

    def test_1d_input_stays_1d(self):
        out = BipolarQuantizer()(np.array([1.0, -1.0]))
        assert out.shape == (2,)


class TestTernaryFamily:
    def test_ternary_level_probabilities(self):
        out = TernaryQuantizer()(_encodings())
        p = empirical_level_probabilities(out, np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(p, [1 / 3] * 3, atol=0.02)

    def test_biased_level_probabilities(self):
        out = BiasedTernaryQuantizer()(_encodings())
        p = empirical_level_probabilities(out, np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(p, [0.25, 0.5, 0.25], atol=0.02)

    def test_biased_shrinks_sensitivity_by_0_87(self):
        """The paper's √(3/4) ≈ 0.87× factor (Section III-B.2)."""
        t = TernaryQuantizer().expected_l2_sensitivity(10000)
        b = BiasedTernaryQuantizer().expected_l2_sensitivity(10000)
        assert b / t == pytest.approx(np.sqrt(3 / 4), abs=1e-9)

    def test_isolet_headline_sensitivity(self):
        """Quantize+prune headline: Δf = 22.3 at Dhv=1000 biased ternary."""
        assert BiasedTernaryQuantizer().expected_l2_sensitivity(
            1000
        ) == pytest.approx(22.36, abs=0.01)

    def test_monotone_in_input(self):
        # Quantization preserves ordering within a row.
        H = _encodings(1, 1000, seed=3)
        out = TernaryQuantizer()(H)[0]
        order = np.argsort(H[0])
        assert np.all(np.diff(out[order]) >= 0)


class TestTwoBit:
    def test_levels(self):
        out = TwoBitQuantizer()(_encodings())
        assert set(np.unique(out)) <= {-2.0, -1.0, 0.0, 1.0}

    def test_quarters(self):
        out = TwoBitQuantizer()(_encodings(seed=5))
        p = empirical_level_probabilities(out, np.array([-2.0, -1.0, 0.0, 1.0]))
        np.testing.assert_allclose(p, [0.25] * 4, atol=0.02)

    def test_sensitivity(self):
        # sqrt(Dhv * (4 + 1 + 0 + 1)/4) = sqrt(1.5 * Dhv)
        assert TwoBitQuantizer().expected_l2_sensitivity(10000) == pytest.approx(
            np.sqrt(1.5e4)
        )


class TestSensitivityOrdering:
    def test_fig5b_ordering(self):
        """Fig. 5(b): 2bit > bipolar > ternary > biased at any Dhv."""
        d = 4000
        s = {
            name: get_quantizer(name).expected_l2_sensitivity(d)
            for name in ("bipolar", "ternary", "ternary-biased", "2bit")
        }
        assert s["2bit"] > s["bipolar"] > s["ternary"] > s["ternary-biased"]

    def test_sensitivity_scales_sqrt_dhv(self):
        q = BipolarQuantizer()
        assert q.expected_l2_sensitivity(4000) == pytest.approx(
            2 * q.expected_l2_sensitivity(1000)
        )


class TestEmpiricalProbabilities:
    def test_counts(self):
        arr = np.array([1.0, 1.0, 0.0, -1.0])
        p = empirical_level_probabilities(arr, np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(p, [0.25, 0.25, 0.5])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_level_probabilities(np.array([]), np.array([1.0]))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    name=st.sampled_from(["bipolar", "ternary", "ternary-biased", "2bit"]),
)
def test_property_quantizer_outputs_only_declared_levels(seed, name):
    q = get_quantizer(name)
    H = spawn(seed, "prop-q").normal(0, 10, (3, 257))
    out = q(H)
    assert set(np.unique(out)) <= set(q.levels.tolist())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_property_empirical_probs_sum_to_one(seed):
    q = BiasedTernaryQuantizer()
    out = q(spawn(seed, "prop-p").normal(0, 10, (2, 400)))
    p = empirical_level_probabilities(out, q.levels)
    assert p.sum() == pytest.approx(1.0)


class TestPackableOutputs:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("bipolar", True),
            ("ternary", True),
            ("ternary-biased", True),
            ("2bit", False),
            ("identity", False),
        ],
    )
    def test_packable_flag(self, name, expected, monkeypatch):
        q = get_quantizer(name)
        assert q.packable is expected
        # computed once per quantizer: later reads never re-scan the levels
        monkeypatch.setattr(np, "isin", None)
        assert q.packable is expected

    @pytest.mark.parametrize("name", ["bipolar", "ternary", "ternary-biased"])
    def test_pack_equals_quantize_then_pack(self, name):
        from repro.backend import pack_hypervectors
        from repro.utils import spawn

        H = spawn(8, "quant-pack").normal(size=(6, 130))
        q = get_quantizer(name)
        direct = q.pack(H)
        via_dense = pack_hypervectors(q(H))
        np.testing.assert_array_equal(direct.signs, via_dense.signs)
        np.testing.assert_array_equal(direct.mags, via_dense.mags)
        np.testing.assert_array_equal(direct.unpack(), q(H))

    def test_unpackable_quantizer_pack_raises(self):
        with pytest.raises(ValueError, match="cannot be bit-packed"):
            get_quantizer("2bit").pack(np.zeros((2, 10)))
        with pytest.raises(ValueError, match="cannot be bit-packed"):
            get_quantizer("identity").pack(np.zeros((2, 10)))


class TestMaskedQuantizer:
    def _mask(self, d=40, live=25, seed=0):
        from repro.utils import spawn

        keep = np.zeros(d, dtype=bool)
        keep[spawn(seed, "mask").choice(d, live, replace=False)] = True
        return keep

    def test_matches_quantize_masked(self):
        from repro.core.dp_trainer import quantize_masked
        from repro.hd.quantize import MaskedQuantizer
        from repro.utils import spawn

        H = spawn(1, "masked-q").normal(size=(12, 40))
        keep = self._mask()
        inner = get_quantizer("ternary-biased")
        np.testing.assert_array_equal(
            MaskedQuantizer(inner, keep)(H), quantize_masked(H, keep, inner)
        )

    def test_pruned_dimensions_stay_zero(self):
        from repro.hd.quantize import MaskedQuantizer
        from repro.utils import spawn

        H = spawn(2, "masked-q").normal(size=(6, 40))
        keep = self._mask()
        out = MaskedQuantizer("bipolar", keep)(H)
        assert np.all(out[:, ~keep] == 0.0)
        assert set(np.unique(out[:, keep])) <= {-1.0, 1.0}

    def test_packable_follows_inner(self):
        from repro.hd.quantize import MaskedQuantizer

        keep = self._mask()
        assert MaskedQuantizer("bipolar", keep).packable
        assert MaskedQuantizer("ternary", keep).packable
        assert not MaskedQuantizer("2bit", keep).packable

    def test_pack_round_trips(self):
        from repro.hd.quantize import MaskedQuantizer
        from repro.utils import spawn

        H = spawn(3, "masked-q").normal(size=(5, 70))
        q = MaskedQuantizer("ternary", self._mask(70, 30))
        np.testing.assert_array_equal(q.pack(H).unpack(), q(H))

    def test_sensitivity_uses_live_count(self):
        from repro.hd.quantize import MaskedQuantizer

        keep = self._mask(40, 25)
        inner = get_quantizer("bipolar")
        q = MaskedQuantizer(inner, keep)
        assert q.expected_l2_sensitivity(40) == pytest.approx(
            inner.expected_l2_sensitivity(25)
        )

    def test_single_row_squeezes(self):
        from repro.hd.quantize import MaskedQuantizer
        from repro.utils import spawn

        keep = self._mask()
        out = MaskedQuantizer("bipolar", keep)(
            spawn(4, "masked-q").normal(size=40)
        )
        assert out.shape == (40,)

    def test_dimension_mismatch_raises(self):
        from repro.hd.quantize import MaskedQuantizer

        with pytest.raises(ValueError, match="keep_mask"):
            MaskedQuantizer("bipolar", self._mask(40))(np.zeros((2, 41)))

    def test_levels_include_masked_zero(self):
        from repro.hd.quantize import MaskedQuantizer

        q = MaskedQuantizer("bipolar", self._mask())
        assert 0.0 in q.levels.tolist()
