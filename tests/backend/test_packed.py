"""Dense↔packed equivalence: the packed kernels ARE the dense kernels.

The whole contract of the bit-packed backend is bit-for-bit agreement
with the float64 reference on bipolar/ternary operands — argmax
decisions included.  These property tests draw random bipolar and
ternary hypervectors at dimensionalities that are *not* multiples of 64
(plus the exact-word edge cases) and assert exact equality of every
kernel against a NumPy reference computed the dense way.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backend.native as native_mod
import repro.backend.packed as packed_mod
from repro.backend import (
    WORD_BITS,
    PackedHV,
    is_packable,
    native_class_scores,
    native_dot_matrix,
    native_hamming_matrix,
    pack_hypervectors,
    packed_class_scores,
    packed_dot_matrix,
    packed_hamming_matrix,
    packed_norms,
    popcount,
    popcount_lut,
)
from repro.backend.packed import LiveHV, LiveStore, compact_store, expand_live
from repro.utils import spawn

#: word-boundary edge cases plus awkward primes
EDGE_DIMS = (1, 63, 64, 65, 127, 128, 200, 1000)

#: kernel families under the same dense-equivalence contract; "native"
#: runs the numba kernels when installed and the NumPy fallback otherwise
#: — the contract is identical either way
KERNELS = {
    "packed": (packed_dot_matrix, packed_class_scores, packed_hamming_matrix),
    "native": (native_dot_matrix, native_class_scores, native_hamming_matrix),
}


def random_hvs(n, d, seed, *, ternary, p_zero=0.3):
    rng = spawn(seed, "packed-prop")
    if ternary:
        probs = (p_zero, (1 - p_zero) / 2, (1 - p_zero) / 2)
        return rng.choice([0.0, -1.0, 1.0], size=(n, d), p=probs)
    return rng.choice([-1.0, 1.0], size=(n, d))


def dense_class_scores(Q, C):
    norms = np.linalg.norm(C.astype(np.float64), axis=1)
    norms = np.where(norms < 1e-12, 1.0, norms)
    return (Q.astype(np.float64) @ C.astype(np.float64).T) / norms


class TestPopcount:
    def test_matches_python_bit_count(self):
        words = spawn(0, "pc").integers(0, 2**63, 64, dtype=np.uint64)
        expect = [int(w).bit_count() for w in words]
        assert popcount(words).tolist() == expect

    def test_zero_and_all_ones(self):
        assert int(popcount(np.uint64(0))) == 0
        assert int(popcount(np.uint64(2**64 - 1))) == 64

    def test_lut_agrees_with_popcount(self):
        """The 16-bit-LUT fallback and the shipped popcount agree.

        On NumPy >= 2.0 ``popcount`` is ``np.bitwise_count`` and the LUT
        is the dormant fallback; this keeps the fallback honest so a
        NumPy downgrade cannot silently change results.
        """
        words = spawn(1, "pc-lut").integers(
            0, 2**64, 256, dtype=np.uint64
        )
        np.testing.assert_array_equal(popcount_lut(words), popcount(words))

    def test_lut_edge_values(self):
        assert int(popcount_lut(np.uint64(0))) == 0
        assert int(popcount_lut(np.uint64(2**64 - 1))) == 64
        assert popcount_lut(np.uint64(1 << 63)).dtype == np.uint8

    def test_lut_preserves_shape(self):
        words = spawn(2, "pc-shape").integers(
            0, 2**64, (3, 4, 5), dtype=np.uint64
        )
        got = popcount_lut(words)
        assert got.shape == (3, 4, 5)
        np.testing.assert_array_equal(got, popcount(words))


class TestPackRoundTrip:
    @pytest.mark.parametrize("d", EDGE_DIMS)
    @pytest.mark.parametrize("ternary", [False, True])
    def test_unpack_inverts_pack(self, d, ternary):
        H = random_hvs(5, d, seed=d, ternary=ternary)
        p = pack_hypervectors(H)
        assert p.shape == (5, d)
        assert p.n_words == -(-d // WORD_BITS)
        np.testing.assert_array_equal(p.unpack(np.float64), H)

    def test_padding_bits_are_zero(self):
        H = np.ones((3, 70))  # 64 + 6: one full word + 6 tail bits
        p = pack_hypervectors(H)
        tail = int(p.signs[0, 1])
        assert tail == (1 << 6) - 1  # only the 6 valid bits set
        assert int(p.mags[0, 1]) == (1 << 6) - 1

    def test_1d_input_packs_to_single_row(self):
        p = pack_hypervectors(np.array([1.0, -1.0, 0.0]))
        assert p.shape == (1, 3)

    def test_row_slicing(self):
        H = random_hvs(10, 100, seed=3, ternary=True)
        p = pack_hypervectors(H)
        np.testing.assert_array_equal(p[2:7].unpack(np.float64), H[2:7])
        assert len(p[2:7]) == 5

    def test_is_bipolar_detection(self):
        assert pack_hypervectors(np.ones((2, 65)) * -1).is_bipolar
        assert not pack_hypervectors(np.array([[1.0, 0.0, -1.0]])).is_bipolar

    def test_rejects_unpackable_levels(self):
        with pytest.raises(ValueError, match="bit-packed"):
            pack_hypervectors(np.array([[0.5, 1.0]]))
        with pytest.raises(ValueError, match="bit-packed"):
            pack_hypervectors(np.array([[-2.0, 1.0, 0.0]]))

    def test_is_packable(self):
        assert is_packable(np.array([-1, 0, 1]))
        assert not is_packable(np.array([2]))
        assert is_packable(np.array([]))  # vacuously ternary

    def test_empty_batch_packs_to_zero_rows(self):
        p = pack_hypervectors(np.zeros((0, 70)))
        assert p.shape == (0, 70)
        assert p.unpack().shape == (0, 70)
        q = pack_hypervectors(np.ones((3, 70)))
        assert packed_dot_matrix(q, p).shape == (3, 0)

    def test_pack_is_idempotent_on_packed(self):
        p = pack_hypervectors(np.ones((2, 10)))
        assert pack_hypervectors(p) is p

    def test_nbytes_is_16x_smaller_than_float32(self):
        H = random_hvs(8, 6400, seed=1, ternary=False).astype(np.float32)
        p = pack_hypervectors(H)
        assert p.nbytes * 16 == H.nbytes


@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestKernelEquivalence:
    """Exact agreement with the dense reference on random operands.

    Parameterized over the packed-operand kernel families: the
    pure-NumPy ``packed`` kernels and the ``native`` entry points
    (compiled when numba is installed, NumPy fallback otherwise — the
    dense-equivalence contract holds in every configuration).
    """

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 300),
        seed=st.integers(0, 2**31),
        ternary=st.booleans(),
    )
    def test_dot_matrix_matches_dense(self, kernel, d, seed, ternary):
        dot, _, _ = KERNELS[kernel]
        Q = random_hvs(6, d, seed, ternary=ternary)
        R = random_hvs(4, d, seed + 1, ternary=True)
        expect = Q.astype(np.float64) @ R.astype(np.float64).T
        got = dot(pack_hypervectors(Q), pack_hypervectors(R))
        np.testing.assert_array_equal(got, expect)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 300),
        seed=st.integers(0, 2**31),
        ternary=st.booleans(),
    )
    def test_class_scores_match_dense_bit_for_bit(
        self, kernel, d, seed, ternary
    ):
        _, scores, _ = KERNELS[kernel]
        Q = random_hvs(6, d, seed, ternary=ternary)
        C = random_hvs(3, d, seed + 7, ternary=ternary)
        got = scores(pack_hypervectors(Q), pack_hypervectors(C))
        # exact: integer dots are exact in float64, norms agree exactly
        np.testing.assert_array_equal(got, dense_class_scores(Q, C))

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 300),
        seed=st.integers(0, 2**31),
        ternary=st.booleans(),
    )
    def test_hamming_matches_dense(self, kernel, d, seed, ternary):
        _, _, hamming = KERNELS[kernel]
        A = random_hvs(5, d, seed, ternary=ternary)
        B = random_hvs(4, d, seed + 3, ternary=ternary)
        expect = np.array([[np.mean(a != b) for b in B] for a in A])
        got = hamming(pack_hypervectors(A), pack_hypervectors(B))
        np.testing.assert_array_equal(got, expect)

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(1, 300), seed=st.integers(0, 2**31))
    def test_argmax_decisions_identical(self, kernel, d, seed):
        """The acceptance contract: same winner, including tie-breaks."""
        _, scores, _ = KERNELS[kernel]
        Q = random_hvs(16, d, seed, ternary=False)
        C = random_hvs(5, d, seed + 11, ternary=False)
        dense_pred = np.argmax(dense_class_scores(Q, C), axis=1)
        packed_pred = np.argmax(
            scores(pack_hypervectors(Q), pack_hypervectors(C)),
            axis=1,
        )
        np.testing.assert_array_equal(packed_pred, dense_pred)

    def test_dimension_mismatch_raises(self, kernel):
        dot, _, _ = KERNELS[kernel]
        a = pack_hypervectors(np.ones((2, 64)))
        b = pack_hypervectors(np.ones((2, 65)))
        with pytest.raises(ValueError, match="mismatch"):
            dot(a, b)

    def test_all_zero_rows_are_safe(self, kernel):
        _, scores, _ = KERNELS[kernel]
        Z = np.zeros((2, 100))
        C = random_hvs(3, 100, seed=5, ternary=True)
        got = scores(pack_hypervectors(Z), pack_hypervectors(C))
        np.testing.assert_array_equal(got, np.zeros((2, 3)))


class TestPackedNorms:
    @pytest.mark.parametrize("d", EDGE_DIMS)
    def test_norms_match_dense(self, d):
        H = random_hvs(7, d, seed=d + 1, ternary=True)
        expect = np.linalg.norm(H, axis=1)
        expect = np.where(expect < 1e-12, 1.0, expect)
        np.testing.assert_array_equal(
            packed_norms(pack_hypervectors(H)), expect
        )


class TestValidateFlag:
    def test_unvalidated_pack_of_valid_values_is_exact(self):
        H = random_hvs(4, 100, seed=9, ternary=True)
        p = pack_hypervectors(H, validate=False)
        np.testing.assert_array_equal(p.unpack(np.float64), H)

    def test_plane_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            PackedHV(
                signs=np.zeros((2, 2), dtype=np.uint64),
                mags=np.zeros((2, 3), dtype=np.uint64),
                d=128,
            )


def _forced_fallback(kernel):
    """``kernel`` with the numba kernels switched off for the call."""

    def call(*args):
        with mock.patch.object(native_mod, "NUMBA_AVAILABLE", False):
            return kernel(*args)

    return call


#: the shared-support contract holds for the pure-NumPy kernels, the
#: native entry points (compiled when numba is installed) and the
#: native fallback forced on whether or not numba is installed
SHARED_KERNELS = {
    **KERNELS,
    "native-fallback": tuple(
        _forced_fallback(k) for k in KERNELS["native"][:2]
    ),
}


def _with_stray_signs(p, rng):
    """``p`` with random sign bits set wherever its magnitude bit is 0.

    Covers dimensions outside the support and the tail bits past ``d``
    alike; the values the planes stand for do not change.
    """
    junk = rng.integers(0, 2**64, size=p.signs.shape, dtype=np.uint64)
    return PackedHV(signs=p.signs | (junk & ~p.mags), mags=p.mags, d=p.d)


def _shared_operands(n, c, d, live, seed):
    """Dense queries and store on one support, plus their packed planes.

    ``live`` is ``"none"`` (``n_live`` = 0), ``"all"`` (bipolar) or
    ``"random"``.  The packed planes carry stray sign bits.
    """
    rng = spawn(seed, "shared-support")
    if live == "all":
        keep = np.ones(d, dtype=bool)
    elif live == "none":
        keep = np.zeros(d, dtype=bool)
    else:
        keep = rng.random(d) < rng.uniform(0.1, 0.9)
    Q = rng.choice([-1.0, 1.0], size=(n, d)) * keep
    C = rng.choice([-1.0, 1.0], size=(c, d)) * keep
    q = _with_stray_signs(pack_hypervectors(Q), rng)
    store = _with_stray_signs(pack_hypervectors(C), rng)
    return Q, C, q, store


def _flip_one_support_bit(H, rng):
    """``H`` with one row's value at one dimension moved on/off support."""
    H = H.copy()
    row, dim = rng.integers(0, H.shape[0]), rng.integers(0, H.shape[1])
    H[row, dim] = 0.0 if H[row, dim] != 0 else 1.0
    return H


@pytest.mark.parametrize("kernel", sorted(SHARED_KERNELS))
class TestSharedSupport:
    """The live-word path equals the general path and the dense reference.

    Queries and class store share one magnitude plane ``M``; every
    packed operand also carries stray sign bits outside ``M`` (and past
    ``d``), which no path may count.  Breaking the precondition in one
    query row or one store row must fall back with identical answers.
    The store is scored both as planes and compacted to live words.
    """

    @staticmethod
    def _check(kernel, Q, C, q, store):
        dot, scores = SHARED_KERNELS[kernel][:2]
        expect = Q.astype(np.float64) @ C.astype(np.float64).T
        general = packed_mod._dot_loop(q, store)
        np.testing.assert_array_equal(general, expect)
        for held in (store, compact_store(store)):
            np.testing.assert_array_equal(dot(q, held), expect)
            np.testing.assert_array_equal(
                scores(q, held), dense_class_scores(Q, C)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.one_of(st.integers(1, 63), st.integers(65, 300)),
        n=st.integers(1, 20),
        c=st.integers(1, 6),
        live=st.sampled_from(["none", "all", "random"]),
        tile_words=st.integers(1, 64),
        seed=st.integers(0, 2**31),
    )
    def test_matches_general_and_dense(
        self, kernel, d, n, c, live, tile_words, seed
    ):
        # a tiny tile puts row counts on both sides of tile boundaries
        Q, C, q, store = _shared_operands(n, c, d, live, seed)
        held = compact_store(store)
        assert isinstance(held, LiveStore)
        assert held.n_live == int(np.count_nonzero(C[0] != 0))
        assert held.live_of(q) is not None
        with mock.patch.object(packed_mod, "TILE_WORDS", tile_words):
            self._check(kernel, Q, C, q, store)
            # the same rows as live words score identically
            dot, scores = SHARED_KERNELS[kernel][:2]
            live_q = LiveHV(held.gather(q.signs), d, held.n_live, held.digest)
            np.testing.assert_array_equal(dot(live_q, held), dot(q, store))
            np.testing.assert_array_equal(
                scores(live_q, held), dense_class_scores(Q, C)
            )

    def test_row_counts_around_the_default_tile(self, kernel):
        d, c = 10_000, 26
        step = packed_mod.TILE_WORDS // (c * packed_mod.n_words(d))
        for n in (1, step - 1, step, step + 1, 2 * step + 1):
            Q, C, q, store = _shared_operands(n, c, d, "random", n)
            self._check(kernel, Q, C, q, store)

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 300),
        live=st.sampled_from(["none", "all", "random"]),
        side=st.sampled_from(["query", "store"]),
        seed=st.integers(0, 2**31),
    )
    def test_one_off_support_row_falls_back(
        self, kernel, d, live, side, seed
    ):
        rng = spawn(seed, "shared-support-break")
        Q, C, _, _ = _shared_operands(5, 3, d, live, seed)
        if side == "query":
            Q = _flip_one_support_bit(Q, rng)
        else:
            C = _flip_one_support_bit(C, rng)
        q = _with_stray_signs(pack_hypervectors(Q), rng)
        store = _with_stray_signs(pack_hypervectors(C), rng)
        held = compact_store(store)
        assert not isinstance(held, LiveStore) or held.live_of(q) is None
        self._check(kernel, Q, C, q, store)

    def test_single_query_row_off_support_falls_back(self, kernel):
        Q, C, _, _ = _shared_operands(1, 4, 130, "random", 3)
        Q = _flip_one_support_bit(Q, spawn(4, "one-row"))
        q = pack_hypervectors(Q)
        store = pack_hypervectors(C)
        assert compact_store(store).live_of(q) is None
        self._check(kernel, Q, C, q, store)

    def test_non_uniform_ternary_store_falls_back(self, kernel):
        Q = random_hvs(6, 200, seed=1, ternary=False)
        C = random_hvs(4, 200, seed=2, ternary=True)
        store = pack_hypervectors(C)
        assert compact_store(store) is store
        self._check(kernel, Q, C, pack_hypervectors(Q), store)

    def test_live_words_on_another_support_are_refused(self, kernel):
        dot = SHARED_KERNELS[kernel][0]
        _, _, _, store = _shared_operands(2, 3, 130, "random", 5)
        held = compact_store(store)
        words = np.zeros((2, packed_mod.n_words(held.n_live)), dtype=np.uint64)
        other = LiveHV(words, 130, held.n_live, held.digest ^ 1)
        with pytest.raises(ValueError, match="support"):
            dot(other, held)


class TestLiveOf:
    """:meth:`LiveStore.live_of` on plane rows that carry live words."""

    def test_carried_live_words_naming_the_support_pass_through(self):
        _, _, q, store = _shared_operands(4, 3, 130, "random", 2)
        held = compact_store(store)
        live = held.live_of(q)
        carried = PackedHV(q.signs, q.mags, q.d, live=live)
        assert held.live_of(carried) is live

    def test_carried_live_words_on_another_support_are_regathered(self):
        _, _, q, store = _shared_operands(4, 3, 130, "random", 3)
        held = compact_store(store)
        words = held.gather(q.signs)
        other = LiveHV(words, 130, held.n_live, held.digest ^ 1)
        got = held.live_of(PackedHV(q.signs, q.mags, q.d, live=other))
        assert got.digest == held.digest
        np.testing.assert_array_equal(got.words, words)


class TestCompactStore:
    """A store whose rows share a magnitude plane holds live words."""

    def test_holds_live_words_and_one_read_only_row(self):
        keep = np.zeros(10_000, dtype=bool)
        keep[spawn(0, "keep").permutation(10_000)[:5_000]] = True
        store = pack_hypervectors(random_hvs(26, 10_000, 0, ternary=False) * keep)
        held = compact_store(store)
        assert isinstance(held, LiveStore)
        assert held.words.shape == (26, 79) and held.support.shape == (157,)
        for arr in (held.words, held.support):
            assert arr.flags.c_contiguous and not arr.flags.writeable
        # ISOLET-shaped, half the dimensions live: 26 x 79 live words
        # plus one 157-word support row, against both planes.
        assert store.nbytes == 65_312
        assert held.nbytes == 17_688
        assert held.n_live == 5_000
        assert compact_store(held) is held

    def test_bipolar_live_words_are_the_sign_plane(self):
        store = pack_hypervectors(random_hvs(3, 70, seed=0, ternary=False))
        held = compact_store(store)
        np.testing.assert_array_equal(held.words, store.signs)
        assert held.n_live == 70

    def test_stray_sign_bits_are_dropped_and_expand_restores_the_rest(self):
        _, C, _, store = _shared_operands(1, 3, 70, "random", 9)
        held = compact_store(store)
        twin = held.expand()
        np.testing.assert_array_equal(twin.signs, store.signs & store.mags)
        np.testing.assert_array_equal(twin.mags, store.mags)
        np.testing.assert_array_equal(held.unpack(np.float64), C)

    @pytest.mark.parametrize(
        "values",
        [random_hvs(4, 200, seed=2, ternary=True), np.zeros((0, 70))],
        ids=["rows-differ", "empty"],
    )
    def test_other_stores_are_left_alone(self, values):
        store = pack_hypervectors(values)
        assert compact_store(store) is store
        assert store.nbytes == 2 * store.signs.nbytes

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("d", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("live", ["all", "random"])
    def test_identical_to_its_expanded_twin(self, kernel, d, live):
        dot, scores, _ = KERNELS[kernel]
        _, _, on_support, store = _shared_operands(6, 4, d, live, d)
        held = compact_store(store)
        twin = held.expand()
        # On the store's support (live-word path) and ternary (general).
        ternary = pack_hypervectors(random_hvs(5, d, seed=d, ternary=True))
        for q in (on_support, ternary):
            np.testing.assert_array_equal(dot(q, held), dot(q, twin))
            np.testing.assert_array_equal(scores(q, held), scores(q, twin))
        np.testing.assert_array_equal(packed_norms(held), packed_norms(twin))
        np.testing.assert_array_equal(held.unpack(), twin.unpack())


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 300),
    n=st.integers(1, 5),
    live=st.sampled_from(["none", "all", "random"]),
    seed=st.integers(0, 2**31),
)
def test_live_words_round_trip_to_the_planes(d, n, live, seed):
    """Gather then place gives the planes back, for any ``d``/``n_live``
    (0 and ``d`` included), whatever stray sign bits the planes held."""
    _, _, q, _ = _shared_operands(n, 1, d, live, seed)
    held = compact_store(q)
    words = held.gather(q.signs)
    if held.n_live % WORD_BITS:
        assert not (words[:, -1] >> np.uint64(held.n_live % WORD_BITS)).any()
    placed = expand_live(LiveHV(words, d, held.n_live, held.digest), held.support)
    np.testing.assert_array_equal(placed.signs, q.signs & q.mags)
    np.testing.assert_array_equal(placed.mags, q.mags)


class TestXorDotAccumulator:
    def test_uint16_and_int64_sums_agree(self):
        """Rows whose 64·W bits overflow uint16 sum in int64; both agree
        with the dense dot on either side of the switch."""
        rng = np.random.default_rng(0)
        for d in (1000, 1 << 16):
            a = np.where(rng.random((3, d)) < 0.5, -1.0, 1.0)
            b = np.where(rng.random((4, d)) < 0.5, -1.0, 1.0)
            pa, pb = pack_hypervectors(a), pack_hypervectors(b)
            base = np.full(4, d, dtype=np.int64)
            got = packed_mod.xor_dot_rows(pa.signs, pb.signs, base)
            np.testing.assert_array_equal(got, (a @ b.T).astype(np.int64))
            assert got.dtype == np.int64


class TestKeepSupport:
    @pytest.mark.parametrize("d", EDGE_DIMS)
    def test_round_trips_a_keep_mask(self, d):
        """A keep mask packs to a read-only plane that unpacks to it; the
        plane itself is taken as it is."""
        keep = spawn(d, "keep-support").random(d) < 0.5
        support = packed_mod.keep_support(keep, d)
        assert support.dtype == np.uint64 and not support.flags.writeable
        assert int(popcount(support).sum()) == int(keep.sum())
        assert packed_mod.keep_support(support, d) is support
        again = packed_mod.keep_of(support, d)
        assert again.dtype == bool and not again.flags.writeable
        np.testing.assert_array_equal(again, keep)

    def test_refuses_a_mask_of_another_width(self):
        with pytest.raises(ValueError, match="keep_mask must have shape"):
            packed_mod.keep_support(np.ones(99, dtype=bool), 100)
