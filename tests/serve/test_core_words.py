"""Core words: only the live bits that depend on the query, end to end.

A level-base encoder fixes the query's sign on every live dimension no
level flips, so a store built with that encoder also holds its classes
on the *core* (the live dimensions some level flips) plus one constant
offset per class.  Core words, v5 live words, v4 planes and the dense
reference must give bit-identical scores on every path, and core words
a tenant cannot place must be refused with a typed error, never scored.
"""

import hashlib
import json
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.packed import (
    LiveHV,
    PackedHV,
    expand_live,
    n_words,
    packed_norms,
)
from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig
from repro.hd import HDModel, LevelBaseEncoder
from repro.hd.prune import mask_from_seed
from repro.proto import (
    HEADER_SIZE,
    ErrorReply,
    Hello,
    ModelInfo,
    ModelInfoRequest,
    ScoreRequest,
    ScoreResponse,
    decode_header,
    decode_message,
    encode_message,
)
from repro.serve import (
    ArtifactError,
    FrontendHandle,
    MicroBatchConfig,
    ModelArtifact,
    ModelFleet,
    ServingAPI,
    fused_tenant_scores,
)
from repro.utils import spawn

D_IN, D_HV, N_CLASSES, N_MASKED = 12, 700, 5, 300


@pytest.fixture(scope="module")
def encoder():
    return LevelBaseEncoder(D_IN, D_HV, seed=4)


def _artifact(encoder, mask_seed, *, seed=0, with_encoder=True,
              n_classes=N_CLASSES):
    d_hv = encoder.d_hv
    rng = spawn(seed, "core-words-model")
    X = rng.uniform(0, 1, (8 * n_classes, encoder.d_in))
    y = np.arange(len(X)) % n_classes
    model = HDModel.from_encodings(encoder.encode(X), y, n_classes)
    n_masked = min(N_MASKED, d_hv // 2)
    keep = None if mask_seed is None else mask_from_seed(d_hv, n_masked, mask_seed)
    return ModelArtifact.build(
        model, quantizer="bipolar", backend="packed",
        encoder=encoder if with_encoder else None,
        keep_mask=keep, mask_seed=mask_seed,
    )


def _rows(encoder, mask_seed, n=6, seed=1):
    """``n`` client rows: planes carrying their live and core words."""
    n_masked = 0 if mask_seed is None else min(N_MASKED, encoder.d_hv // 2)
    obfuscator = InferenceObfuscator(
        encoder, ObfuscationConfig(n_masked=n_masked, mask_seed=mask_seed or 0)
    )
    X = spawn(seed, "core-words-x").uniform(0, 1, (n, encoder.d_in))
    return obfuscator.prepare_packed(X)


def _planes(rows: PackedHV) -> PackedHV:
    return PackedHV(rows.signs, rows.mags, rows.d)


class TestScoresSplitExactly:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        d_hv=st.integers(65, 400).filter(lambda d: d % 64),
        d_in=st.integers(1, 20),
        n_levels=st.integers(2, 12),
        mask_seed=st.one_of(st.none(), st.integers(0, 50)),
        seed=st.integers(0, 1000),
    )
    def test_core_plus_offsets_equal_live_planes_and_dense(
        self, d_hv, d_in, n_levels, mask_seed, seed
    ):
        encoder = LevelBaseEncoder(d_in, d_hv, n_levels=n_levels, seed=seed)
        art = _artifact(encoder, mask_seed, seed=seed)
        rows = _rows(encoder, mask_seed, seed=seed)
        core = art.store.core
        assert core is not None and core.digest == rows.core.digest
        dense = art.engine(backend="dense").scores(rows.unpack(np.float64))
        for backend in ("packed", "native"):
            engine = art.engine(backend=backend)
            for shipped in (rows.core, rows.live, _planes(rows), rows):
                np.testing.assert_array_equal(engine.scores(shipped), dense)
        # The fused fleet kernel adds the same offsets.
        fused = fused_tenant_scores(
            rows.core.words, [core], packed_norms(art.store)[None, :],
            np.zeros(rows.n, dtype=np.intp),
        )
        np.testing.assert_array_equal(fused, dense)

    def test_v5_rows_with_any_fixed_bits_still_score_exactly(self, encoder):
        """Live words that are not the encoder's (arbitrary bits on the
        dimensions no level flips) score on the keep-support words."""
        art = _artifact(encoder, 7)
        store = art.store
        rng = np.random.default_rng(0)
        words = rng.integers(
            0, 2**63, size=(9, n_words(store.n_live)), dtype=np.uint64
        )
        tail = store.n_live % 64
        if tail:
            words[:, -1] &= np.uint64((1 << tail) - 1)
        live = LiveHV(words, D_HV, store.n_live, store.digest)
        planes = expand_live(live, store.support)
        want = art.engine(backend="dense").scores(planes.unpack(np.float64))
        np.testing.assert_array_equal(art.engine().scores(live), want)

    def test_core_words_need_the_encoder(self, encoder):
        art = _artifact(encoder, 7, with_encoder=False)
        assert art.store.core is None
        core = _rows(encoder, 7, n=1).core
        assert art.engine().held_on(core.digest, core.n_live) is None


class TestArtifactFiles:
    def test_core_tensors_round_trip_and_old_tensors_do_not_change(
        self, encoder, tmp_path
    ):
        art = _artifact(encoder, 7)
        bare = _artifact(encoder, 7, with_encoder=False)
        with_core = json.loads(
            (art.save(tmp_path / "a") / "manifest.json").read_text()
        )["tensors"]
        without = json.loads(
            (bare.save(tmp_path / "b") / "manifest.json").read_text()
        )["tensors"]
        assert set(with_core) - set(without) == {"core", "core_offsets"}
        for name, spec in without.items():
            assert with_core[name] == spec
        loaded = ModelArtifact.load(tmp_path / "a")
        np.testing.assert_array_equal(loaded.store.core.words, art.store.core.words)
        np.testing.assert_array_equal(
            loaded.store.core.offsets, art.store.core.offsets
        )
        assert ModelArtifact.load(tmp_path / "b").store.core is None

    def test_offsets_that_do_not_fit_are_refused(self, encoder, tmp_path):
        path = _artifact(encoder, 7).save(tmp_path / "a")
        tensors = dict(np.load(path / "tensors.npz"))
        tensors["core_offsets"] = tensors["core_offsets"] + 1  # wrong parity
        np.savez(path / "tensors.npz", **tensors)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["tensors"]["core_offsets"]["sha256"] = hashlib.sha256(
            tensors["core_offsets"].tobytes()
        ).hexdigest()
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="core tensors"):
            ModelArtifact.load(path)


class TestServing:
    def test_fused_flush_of_core_rows(self, encoder):
        """Three tenants on one mask: their core rows meet in one flush."""
        fleet = ModelFleet()
        arts = {f"t{i}": _artifact(encoder, 7, seed=i) for i in range(3)}
        for name, art in arts.items():
            fleet.add_tenant(name, art)
        config = MicroBatchConfig(max_batch=12, eager=False, max_delay_s=5.0)
        with ServingAPI(fleet, config=config) as api:
            futures, want = [], []
            for i, (name, art) in enumerate(arts.items()):
                rows = _rows(encoder, 7, n=4, seed=i)
                futures.append(api.submit_score(ScoreRequest(
                    queries=rows.core, tenant=name, want_scores=True
                )))
                want.append(art.engine().scores(_planes(rows)))
            for future, expect in zip(futures, want):
                np.testing.assert_array_equal(future.result(10).scores, expect)
            stats = api.stats()["schedulers"]
        [(key, sched)] = stats.items()
        n_core = arts["t0"].store.core.n_live
        assert key.endswith(f".{n_core}.scores_live")
        assert sched["flushes"] == 1

    def test_core_rows_to_a_tenant_without_a_core_are_refused(self, encoder):
        api = ServingAPI.from_artifact(_artifact(encoder, 7, with_encoder=False))
        with api:
            rows = _rows(encoder, 7, n=2)
            with pytest.raises(ValueError, match="keep mask"):
                api.submit_score(ScoreRequest(queries=rows.core))
            # The same rows' live words are answered.
            np.testing.assert_array_equal(
                api.score(ScoreRequest(queries=rows.live)).predictions,
                _artifact(encoder, 7).engine().predict(_planes(rows)),
            )

    @pytest.mark.parametrize("swap_to", ["another-mask", "no-core"])
    def test_hot_swap_fails_queued_core_rows_typed(self, encoder, swap_to):
        """Core rows queued before a swap to a store that no longer holds
        their core fail alone; the other tenant's rows are answered."""
        fleet = ModelFleet()
        for i, name in enumerate("AB"):
            fleet.add_tenant(name, _artifact(encoder, 7, seed=i))
        config = MicroBatchConfig(max_batch=4, eager=False, max_delay_s=30.0)
        rows = {t: _rows(encoder, 7, n=2, seed=i) for i, t in enumerate("AB")}
        with ServingAPI(fleet, config=config) as api:
            first = api.submit_score(ScoreRequest(queries=rows["A"].core, tenant="A"))
            swapped = (
                _artifact(encoder, 8, seed=5) if swap_to == "another-mask"
                else _artifact(encoder, 7, seed=5, with_encoder=False)
            )
            fleet.registry_for("A").publish("model", swapped)
            second = api.submit_score(
                ScoreRequest(queries=rows["B"].core, tenant="B")
            )
            with pytest.raises(ValueError, match="keep mask changed"):
                first.result(10)
            np.testing.assert_array_equal(
                second.result(10).predictions,
                _artifact(encoder, 7, seed=1).engine().predict(_planes(rows["B"])),
            )


    @pytest.mark.parametrize("order", ["stale-first", "fresh-first"])
    @pytest.mark.parametrize(
        "kind, masks", [("live", (7, 8)), ("core", (4, 9))], ids=["live", "core"]
    )
    def test_a_tenant_with_rows_on_two_masks_answers_the_fresh_rows(
        self, encoder, order, kind, masks
    ):
        """A tenant's rows on the mask it served before a swap and on the
        one it serves after meet in one flush: only the stale request is
        refused, typed; the tenant's fresh request is answered by its
        new engine, and the other tenant's by its own.  Fresh-first
        republishes A old -> new -> old, so the request on the mask A
        serves again is queued first.  (The core masks are two whose
        cores have equal width, so their rows share one queue.)"""
        old, new = masks
        fleet = ModelFleet()
        for i, name in enumerate("AB"):
            fleet.add_tenant(name, _artifact(encoder, old, seed=i))
        config = MicroBatchConfig(max_batch=6, eager=False, max_delay_s=30.0)
        rows = {mask: _rows(encoder, mask, n=2, seed=mask) for mask in masks}
        other = _rows(encoder, old, n=2, seed=5)
        registry = fleet.registry_for("A")
        with ServingAPI(fleet, config=config) as api:

            def submit(shipped, tenant):
                return api.submit_score(ScoreRequest(
                    queries=getattr(shipped, kind), tenant=tenant,
                    want_scores=True,
                ))

            on_old = submit(rows[old], "A")
            registry.publish("model", _artifact(encoder, new, seed=5))
            on_new = submit(rows[new], "A")
            if order == "stale-first":
                stale, fresh, fresh_rows = on_old, on_new, rows[new]
            else:
                registry.publish("model", _artifact(encoder, old, seed=6))
                stale, fresh, fresh_rows = on_new, on_old, rows[old]
            answer_b = submit(other, "B")
            with pytest.raises(ValueError, match="keep mask changed"):
                stale.result(10)
            got = fresh.result(10)
            current = registry.describe("model")
            assert got.version == current.version
            np.testing.assert_array_equal(
                got.scores, current.engine.scores(_planes(fresh_rows))
            )
            np.testing.assert_array_equal(
                got.predictions, current.engine.predict(_planes(fresh_rows))
            )
            np.testing.assert_array_equal(
                answer_b.result(10).scores,
                _artifact(encoder, old, seed=1).engine().scores(_planes(other)),
            )
            [sched] = api.stats()["schedulers"].values()
            assert sched["flushes"] == 1


def _raw(address, versions):
    sock = socket.create_connection(address, timeout=10)
    sock.sendall(encode_message(Hello(versions=versions), version=1))
    return sock


def _read(sock):
    header = b""
    while len(header) < HEADER_SIZE:
        header += sock.recv(HEADER_SIZE - len(header))
    version, kind, length = decode_header(header)
    payload = b""
    while len(payload) < length:
        payload += sock.recv(length - len(payload))
    from repro.proto import Frame

    return decode_message(Frame(version, kind, payload))


@pytest.mark.parametrize("with_encoder", [True, False])
def test_core_frames_over_a_socket(encoder, with_encoder):
    """A v6 ModelInfo names the core the tenant holds; core rows sent to
    a tenant without one get a typed bad-request, never a wrong answer."""
    art = _artifact(encoder, 7, with_encoder=with_encoder)
    rows = _rows(encoder, 7, n=3)
    api = ServingAPI.from_artifact(art, name="model")
    try:
        with FrontendHandle(api) as handle:
            sock = _raw(handle.address, (1, 2, 3, 4, 5, 6))
            try:
                assert _read(sock).version == 6
                sock.sendall(encode_message(ModelInfoRequest(request_id=1), version=6))
                info = _read(sock)
                assert isinstance(info, ModelInfo)
                want_digest = rows.core.digest if with_encoder else None
                assert info.core_digest == want_digest
                sock.sendall(encode_message(
                    ScoreRequest(queries=rows.core, request_id=2), version=6
                ))
                reply = _read(sock)
                if with_encoder:
                    assert isinstance(reply, ScoreResponse)
                    np.testing.assert_array_equal(
                        reply.predictions, art.engine().predict(_planes(rows))
                    )
                else:
                    assert isinstance(reply, ErrorReply)
                    assert reply.code == "bad-request"
            finally:
                sock.close()
    finally:
        api.close()


#: every client entry point: (ships features, the call); each answers
#: predictions except ``scores``
_ENTRY_POINTS = {
    "predict": (True, lambda client, X, rows: client.predict(X)),
    "scores": (True, lambda client, X, rows: client.scores(X)),
    "predict_encoded": (
        False, lambda client, X, rows: client.predict_encoded(rows)
    ),
    "predict_many": (
        True,
        lambda client, X, rows: client.predict_many(X, chunk_size=4, window=2),
    ),
    **{
        f"predict_encoded_many-wire_batch{wire_batch}": (
            False,
            lambda client, X, rows, wire_batch=wire_batch: np.concatenate(
                client.predict_encoded_many(
                    [rows[i : i + 1] for i in range(len(rows))],
                    window=3, wire_batch=wire_batch,
                )
            ),
        )
        for wire_batch in (1, 2)
    },
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_open_sessions_survive_a_republish_without_the_core(encoder, entry):
    """A v6 client that shipped core words keeps being answered after
    the model is republished, same keep mask, from an artifact without
    a core: the refusal makes it re-read ModelInfo and send the same
    rows again as live words — through every entry point."""
    from repro.client import PriveHDClient

    features, call = _ENTRY_POINTS[entry]
    art = _artifact(encoder, 7)
    X = spawn(3, "core-words-x").uniform(0, 1, (6, encoder.d_in))
    rows = _rows(encoder, 7, n=6, seed=3)
    engine = art.engine()
    answer = engine.scores if entry == "scores" else engine.predict
    want = answer(_planes(rows))
    api = ServingAPI.from_artifact(art, name="model")
    try:
        with FrontendHandle(api) as handle:
            with PriveHDClient(
                handle.address, encoder=encoder if features else None
            ) as client:
                assert client.info.core_digest == rows.core.digest
                assert not features or client._wire_words() == "core"
                np.testing.assert_array_equal(
                    call(client, X[:1], rows[:1]), want[:1]
                )
                api.fleet.registry_for("model").publish(
                    "model", _artifact(encoder, 7, with_encoder=False)
                )
                np.testing.assert_array_equal(call(client, X, rows), want)
                assert client.info.core_digest is None
                assert not features or client._wire_words() == "live"
    finally:
        api.close()
