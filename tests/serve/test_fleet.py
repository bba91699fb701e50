"""ModelFleet / ServingAPI: LRU cache, tenant routing, coalesced scoring.

The multi-tenant contract, unit-tested:

* the fused cross-tenant kernel is bit-identical to scoring each row
  of live words against its own tenant with ``packed_class_scores``
  (bipolar stores, and masked tenants with different keep masks);
  through the API, ternary stores and rows off their tenant's support
  are scored per tenant, exactly;
* the LRU admits lazily, verifies checksums once at admission, evicts
  oldest-unpinned-first under a byte budget, and **re-verifies** on
  reload after eviction (a corrupted artifact is caught, not served);
* tenant routing never crosses streams — coalesced or not, under
  concurrency, every answer matches that tenant's own offline engine;
* unknown tenants fail typed (`TenantNotFound`), including on a
  single-artifact `ServingAPI` (a fleet of one);
* a flush whose rows all belong to one tenant is scored by that
  tenant's engine; only a mixed-tenant flush calls the fused kernel;
* no serving engine builds the codebooks a manifest records, so a
  tenant holds what it is charged, and encoder ``engine_kwargs`` are
  refused.
"""

import gc
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.serve.fleet as fleet_module
from repro.backend.packed import (
    LiveHV,
    LiveStore,
    PackedHV,
    compact_store,
    n_words,
    pack_hypervectors,
    pack_sign_planes,
    packed_class_scores,
    packed_norms,
    support_of,
)
from repro.hd import HDModel, LevelBaseEncoder
from repro.hd.prune import mask_from_seed
from repro.proto import ModelInfoRequest, ScoreRequest
from repro.serve import (
    DEFAULT_TENANT,
    MicroBatchConfig,
    ModelArtifact,
    ModelFleet,
    ModelRegistry,
    ServingAPI,
    TenantNotFound,
    fused_tenant_scores,
)
from repro.serve.artifact import ArtifactError
from repro.serve.engine import MODEL_OBJECT_NBYTES
from repro.utils import spawn

D_HV, N_CLASSES = 512, 5


def _artifact(seed, d_hv=D_HV, n_classes=N_CLASSES):
    rng = spawn(seed, "fleet-tests")
    class_hvs = rng.choice(
        np.array([-1.0, 1.0], dtype=np.float32), size=(n_classes, d_hv)
    )
    return ModelArtifact(
        store=class_hvs,
        query_quantizer="bipolar",
        store_quantizer="bipolar",
        backend="packed",
    )


def _queries(n, d_hv=D_HV, seed=99):
    rng = spawn(seed, "fleet-test-queries")
    return pack_hypervectors(
        rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=(n, d_hv))
    )


def _keep_masks(n_tenants, d_hv=D_HV, n_live=D_HV // 2, seed=0):
    """One random keep mask per tenant, all with ``n_live`` live dims."""
    rng = spawn(seed, "fleet-test-masks")
    keeps = np.zeros((n_tenants, d_hv), dtype=bool)
    for keep in keeps:
        keep[rng.permutation(d_hv)[:n_live]] = True
    return keeps


def _masked_queries(keeps, tenant_of_row, seed=98):
    """§III-C rows: bipolar on each row's tenant mask, plus stray sign
    bits outside it (and past ``d``) that must never count."""
    rng = spawn(seed, "fleet-test-masked-queries")
    d_hv = keeps.shape[1]
    values = rng.choice([-1.0, 1.0], size=(len(tenant_of_row), d_hv))
    packed = pack_hypervectors(values * keeps[tenant_of_row])
    junk = rng.integers(0, 2**64, size=packed.signs.shape, dtype=np.uint64)
    return PackedHV(
        signs=packed.signs | (junk & ~packed.mags), mags=packed.mags, d=d_hv
    )


def _save_fleet_dir(tmp_path, names, *, d_hv=D_HV):
    root = tmp_path / "fleet"
    for i, name in enumerate(names):
        _artifact(i, d_hv=d_hv).save(root / name)
    return root


@pytest.fixture()
def shared_calls(monkeypatch):
    """Row counts of the fused kernel's shared-support calls."""
    calls = []
    original = fleet_module.xor_dot_rows

    def counting(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(fleet_module, "xor_dot_rows", counting)
    return calls


def _as_live_words(stores, queries, tenant_of_row):
    """Each plane row as live words on its own tenant's support."""
    return np.concatenate([
        stores[t].live_of(queries[row : row + 1]).words
        for row, t in enumerate(tenant_of_row)
    ])


class TestFusedKernel:
    @staticmethod
    def _fused_vs_per_tenant(stores, queries, tenant_of_row):
        fused = fused_tenant_scores(
            _as_live_words(stores, queries, tenant_of_row),
            stores,
            np.stack([packed_norms(s) for s in stores]),
            tenant_of_row,
        )
        for row, t in enumerate(tenant_of_row):
            expect = packed_class_scores(
                queries[row : row + 1], stores[t].expand()
            )
            np.testing.assert_array_equal(fused[row : row + 1], expect)
        return fused

    @pytest.mark.parametrize("d", [64, 130, 512])  # incl. tail-word dims
    def test_bit_identical_to_per_tenant_packed_scores(self, d):
        rng = spawn(5, "fused-kernel")
        stores = [
            compact_store(pack_hypervectors(
                rng.choice([-1.0, 1.0], size=(N_CLASSES, d)).astype(
                    np.float32
                )
            ))
            for _ in range(3)
        ]
        queries = _queries(11, d_hv=d, seed=6)
        tenant_of_row = rng.integers(0, 3, size=11)
        self._fused_vs_per_tenant(stores, queries, tenant_of_row)

    @pytest.mark.parametrize("d", [40, 130, 512])
    def test_masked_tenants_with_different_masks(self, d, shared_calls):
        """Tenants coalesce on equal ``n_live``, not equal masks: each
        row must be scored on its own tenant's support."""
        rng = spawn(11, "fused-masked")
        keeps = _keep_masks(3, d_hv=d, n_live=d // 2)
        assert len({k.tobytes() for k in keeps}) == 3
        stores = [
            compact_store(pack_hypervectors(
                rng.choice([-1.0, 1.0], size=(N_CLASSES, d)) * keep
            ))
            for keep in keeps
        ]
        tenant_of_row = rng.integers(0, 3, size=13)
        queries = _masked_queries(keeps, tenant_of_row)
        self._fused_vs_per_tenant(stores, queries, tenant_of_row)
        assert shared_calls == [13]

    def test_warm_masked_flush_stays_under_the_trim_threshold(
        self, shared_calls
    ):
        """A warm fused call (8 rows from 8 masked 26-class tenants at
        d_hv=10,000) peaks below glibc's 128 KiB trim threshold, so a
        flush does not re-fault freed heap, and scores as before."""
        d, n_classes = 10_000, 26
        rng = spawn(13, "fused-warm")
        keeps = _keep_masks(8, d_hv=d, n_live=d // 2)
        stores = [  # as a fleet holds them: live words
            compact_store(
                pack_hypervectors(
                    rng.choice([-1.0, 1.0], size=(n_classes, d)) * keep
                )
            )
            for keep in keeps
        ]
        tenant_of_row = np.arange(8)
        queries = _masked_queries(keeps, tenant_of_row)
        args = (
            _as_live_words(stores, queries, tenant_of_row),
            stores,
            np.stack([packed_norms(s) for s in stores]),
            tenant_of_row,
        )
        fused_tenant_scores(*args)  # warm: scratch
        tracemalloc.start()
        try:
            fused = fused_tenant_scores(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024
        assert shared_calls == [8, 8]
        for row, t in enumerate(tenant_of_row):
            expect = packed_class_scores(queries[row : row + 1], stores[t])
            np.testing.assert_array_equal(fused[row : row + 1], expect)


class TestModelFleet:
    def test_first_tenant_becomes_default(self):
        fleet = ModelFleet()
        fleet.add_tenant("alice", _artifact(0))
        fleet.add_tenant("bob", _artifact(1))
        assert fleet.default_tenant == "alice"
        assert fleet.resolve().name == "alice"
        assert fleet.resolve("bob").name == "bob"

    def test_unknown_tenant_is_typed(self):
        fleet = ModelFleet()
        fleet.add_tenant("alice", _artifact(0))
        with pytest.raises(TenantNotFound) as exc_info:
            fleet.resolve("mallory")
        assert exc_info.value.tenant == "mallory"
        with pytest.raises(TenantNotFound):
            fleet.pin("mallory")

    def test_duplicate_tenant_refused(self):
        fleet = ModelFleet()
        fleet.add_tenant("alice", _artifact(0))
        with pytest.raises(ValueError, match="already registered"):
            fleet.add_tenant("alice", _artifact(1))

    def test_bad_cache_budget_refused(self):
        with pytest.raises(ValueError, match="cache_bytes"):
            ModelFleet(cache_bytes=0)

    def test_from_dir_discovers_sorted_and_lazily(self, tmp_path):
        root = _save_fleet_dir(tmp_path, ["t2", "t0", "t1"])
        (root / "not-a-tenant").mkdir()  # no manifest -> ignored
        fleet = ModelFleet.from_dir(root)
        assert fleet.tenants() == ("t0", "t1", "t2")
        assert fleet.default_tenant == "t0"
        assert fleet.stats().resident_models == 0  # nothing loaded yet

    def test_from_dir_prefers_a_literal_default_subdir(self, tmp_path):
        root = _save_fleet_dir(tmp_path, ["zeta", DEFAULT_TENANT])
        assert ModelFleet.from_dir(root).default_tenant == DEFAULT_TENANT

    def test_from_dir_refuses_empty(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="no artifact"):
            ModelFleet.from_dir(tmp_path / "empty")

    def test_lru_evicts_oldest_unpinned_first(self, tmp_path):
        root = _save_fleet_dir(tmp_path, [f"t{i}" for i in range(5)])
        probe = ModelFleet.from_dir(root)
        probe.resolve("t0")
        per_tenant = probe.stats().resident_bytes

        fleet = ModelFleet.from_dir(root, cache_bytes=2 * per_tenant)
        for name in ("t0", "t1", "t2"):
            fleet.resolve(name)
        assert fleet.resident_tenants() == ("t1", "t2")
        stats = fleet.stats()
        assert stats.evictions == 1
        assert stats.resident_bytes == 2 * per_tenant

        # Touching t1 refreshes it: t2 is now the LRU victim.
        fleet.resolve("t1")
        fleet.resolve("t3")
        assert fleet.resident_tenants() == ("t1", "t3")

    def test_pinned_tenants_survive_pressure(self, tmp_path):
        root = _save_fleet_dir(tmp_path, [f"t{i}" for i in range(4)])
        probe = ModelFleet.from_dir(root)
        probe.resolve("t0")
        per_tenant = probe.stats().resident_bytes

        fleet = ModelFleet.from_dir(root, cache_bytes=2 * per_tenant)
        fleet.resolve("t0")
        fleet.pin("t0")
        fleet.resolve("t1")
        fleet.resolve("t2")
        fleet.resolve("t3")
        assert fleet.is_resident("t0")  # pinned through all evictions
        assert fleet.stats().pinned == 1
        fleet.unpin("t0")
        fleet.resolve("t1")
        fleet.resolve("t2")
        assert not fleet.is_resident("t0")

    def test_single_oversized_tenant_still_serves(self, tmp_path):
        root = _save_fleet_dir(tmp_path, ["big"])
        fleet = ModelFleet.from_dir(root, cache_bytes=1)
        assert fleet.resolve("big").registry is not None
        assert fleet.is_resident("big")

    def test_in_memory_tenants_are_never_evicted(self, tmp_path):
        root = _save_fleet_dir(tmp_path, ["disk"])
        fleet = ModelFleet(cache_bytes=1)
        fleet.add_tenant("mem", _artifact(0))
        fleet.add_tenant("disk", root / "disk")
        fleet.resolve("mem")
        fleet.resolve("disk")
        # "mem" has no path to reload from, so it must stay resident
        # even though the two of them are far over budget.
        assert fleet.is_resident("mem")

    def test_reload_after_eviction_reverifies_checksums(self, tmp_path):
        root = _save_fleet_dir(tmp_path, ["victim", "other"])
        probe = ModelFleet.from_dir(root)
        probe.resolve("victim")
        per_tenant = probe.stats().resident_bytes

        fleet = ModelFleet.from_dir(root, cache_bytes=per_tenant)
        queries = _queries(3)
        ServingAPI(fleet).predict(queries, tenant="victim")  # admit, verify
        fleet.resolve("other")  # evicts victim
        assert not fleet.is_resident("victim")

        # Corrupt the evicted tenant's tensors on disk: the lazy
        # reload must re-verify and refuse, not serve garbage.
        tensors = root / "victim" / "tensors.npz"
        blob = bytearray(tensors.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        tensors.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            fleet.resolve("victim")

    def test_racing_lookups_share_one_load(self, tmp_path, monkeypatch):
        """Threads that miss on one tenant at once load it once: every
        load is a miss, every racer gets the installed registry, and
        byte accounting survives the evictions the admissions cause."""
        import sys

        from repro.serve import ModelRegistry

        names = [f"t{i}" for i in range(6)]
        root = _save_fleet_dir(tmp_path, names)
        probe = ModelFleet.from_dir(root)
        probe.resolve(names[0])
        fleet = ModelFleet.from_dir(
            root, cache_bytes=2 * probe.stats().resident_bytes
        )
        loads = []
        real_load = ModelRegistry.load

        def counting_load(self, *args, **kwargs):
            loads.append(args[1])
            time.sleep(0.002)  # widen the window racers can join in
            return real_load(self, *args, **kwargs)

        monkeypatch.setattr(ModelRegistry, "load", counting_load)
        n_threads, rounds = 8, 12
        start = threading.Barrier(n_threads)
        got = [[None] * n_threads for _ in range(rounds)]

        def worker(i):
            for r in range(rounds):
                start.wait(timeout=30)
                tenant = names[r % len(names)]
                got[r][i] = fleet.lookup(tenant, count=i % 2 == 0)[1]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        stats = fleet.stats()
        # With a 2-tenant budget every round's tenant is cold again.
        assert len(loads) == stats.misses == rounds
        for registries in got:
            assert all(reg is registries[0] for reg in registries)
        resident = fleet.resident_registries()
        assert stats.resident_bytes == sum(
            reg.describe(record.model).engine.resident_nbytes
            for record, reg in resident
        )
        assert len({record.name for record, _ in resident}) == len(resident)

    def test_stats_count_hits_misses_and_traffic(self, tmp_path):
        root = _save_fleet_dir(tmp_path, ["a", "b"])
        fleet = ModelFleet.from_dir(root)
        fleet.resolve("a")  # miss (first admission)
        fleet.resolve("a")  # hit
        fleet.resolve("b")  # miss
        stats = fleet.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 0)
        assert 0 < stats.hit_rate < 1
        assert stats.as_dict()["tenants"] == 2
        assert fleet.top_tenants(1) == [("a", 2)]


#: uint64 words of one D_HV-dim plane row
WORDS = D_HV // 64


class TestHeldMagnitudePlane:
    """A tenant is charged for the bytes its store holds: live words
    plus one magnitude row when its rows share one, both planes
    otherwise."""

    def test_tenants_are_charged_the_bytes_they_hold(self, tmp_path):
        root = tmp_path / "fleet"
        rng = spawn(3, "held-plane-tenants")
        keep = _keep_masks(1)[0]
        stores = {
            "bipolar": rng.choice([-1.0, 1.0], size=(N_CLASSES, D_HV)),
            "masked": rng.choice([-1.0, 1.0], size=(N_CLASSES, D_HV)) * keep,
            "ternary": rng.choice([-1.0, 0.0, 1.0], size=(N_CLASSES, D_HV)),
        }
        for name, store in stores.items():
            ModelArtifact(
                store=store,
                backend="packed",
                keep_mask=keep if name == "masked" else None,
            ).save(root / name)
        plane = N_CLASSES * WORDS * 8
        live = N_CLASSES * n_words(keep.sum()) * 8
        # Every engine adds its norms and its objects; the ternary one
        # also holds its all-dimensions support plane apart from the store.
        fixed = N_CLASSES * 8 + MODEL_OBJECT_NBYTES
        expect = {"bipolar": plane + WORDS * 8 + fixed,
                  "masked": live + WORDS * 8 + fixed,
                  "ternary": 2 * plane + WORDS * 8 + fixed}
        fleet = ModelFleet.from_dir(root)
        for name, charge in expect.items():
            before = fleet.stats().resident_bytes
            fleet.resolve(name)
            assert fleet.stats().resident_bytes - before == charge, name

    def test_budget_for_k_held_tenants_keeps_k_resident(self, tmp_path):
        k = 4
        names = [f"t{i}" for i in range(2 * k)]
        root = _save_fleet_dir(tmp_path, names)
        budget = k * (
            N_CLASSES * WORDS * 8 + WORDS * 8 + N_CLASSES * 8
            + MODEL_OBJECT_NBYTES
        )
        fleet = ModelFleet.from_dir(root, cache_bytes=budget)
        for name in names:
            fleet.resolve(name)
        assert fleet.resident_tenants() == tuple(names[-k:])
        stats = fleet.stats()
        assert stats.resident_bytes == budget
        assert stats.cache_bytes == budget == stats.as_dict()["cache_bytes"]
        assert (stats.misses, stats.evictions) == (2 * k, k)

    @pytest.mark.parametrize("d", [64, 130])
    def test_scores_match_materialized_twins(self, d, shared_calls):
        """Held stores, fused or not, answer exactly like full planes."""
        rng = spawn(13, "held-plane-scores")
        keeps = _keep_masks(3, d_hv=d, n_live=d // 2)
        keeps[0] = True  # one bipolar tenant next to two masked ones
        arts = [
            ModelArtifact(
                store=rng.choice([-1.0, 1.0], size=(N_CLASSES, d)) * keep,
                backend="packed",
            )
            for keep in keeps
        ]
        held = [art.store for art in arts]
        assert all(isinstance(store, LiveStore) for store in held)
        twins = [s.expand() for s in held]
        for art, twin in zip(arts, twins):
            np.testing.assert_array_equal(
                art.class_hvs, twin.unpack(art.store_dtype)
            )
        tenant_of_row = np.array([0, 1, 2] * 3)
        on_support = _masked_queries(keeps, tenant_of_row)
        ternary = pack_hypervectors(
            rng.choice([-1.0, 0.0, 1.0], size=(len(tenant_of_row), d))
        )
        # The two masked tenants share a live width, so they fuse.
        masked = tenant_of_row > 0
        TestFusedKernel._fused_vs_per_tenant(
            held[1:], on_support[masked], tenant_of_row[masked] - 1
        )
        for q in (on_support, ternary):
            for store, twin in zip(held, twins):
                np.testing.assert_array_equal(
                    packed_class_scores(q, store), packed_class_scores(q, twin)
                )
        # Only the fused call counts: one pass over the masked rows.
        assert shared_calls == [int(masked.sum())]


def _trio_artifacts(stores="bipolar"):
    """alice, bob (``D_HV`` dims) and carol (256 dims), with keep masks.

    ``stores`` is ``"bipolar"`` (unmasked), ``"ternary"`` (rows that
    share no magnitude plane, so never held as live words) or
    ``"masked"`` (§III-C stores on each tenant's own keep mask).
    """
    rng = spawn(21, f"fleet-trio-{stores}")
    shapes = {"alice": (0, D_HV), "bob": (1, D_HV), "carol": (2, 256)}
    artifacts, keeps = {}, {}
    for name, (seed, d_hv) in shapes.items():
        keeps[name] = np.ones(d_hv, dtype=bool)
        if stores == "bipolar":
            artifacts[name] = _artifact(seed, d_hv=d_hv)
            continue
        if stores == "masked":
            keeps[name] = _keep_masks(1, d_hv, d_hv // 2, seed)[0]
            values = rng.choice([-1.0, 1.0], size=(N_CLASSES, d_hv))
        else:
            values = rng.choice([-1.0, 0.0, 1.0], size=(N_CLASSES, d_hv))
        artifacts[name] = ModelArtifact(
            store=values * keeps[name],
            query_quantizer="bipolar",
            store_quantizer="bipolar",
            backend="packed",
            keep_mask=keeps[name] if stores == "masked" else None,
        )
    return artifacts, keeps


class TestFleetRouting:
    @pytest.fixture()
    def trio(self):
        """alice and bob share a coalescing group; carol (256 dims)
        flushes alone."""
        fleet = ModelFleet()
        artifacts, _ = _trio_artifacts()
        for name, artifact in artifacts.items():
            fleet.add_tenant(name, artifact)
        api = ServingAPI(fleet)
        yield api, artifacts
        api.close()

    @pytest.mark.parametrize("coalesce", [True, False])
    @pytest.mark.parametrize(
        "stores,rows",
        [
            ("bipolar", "on-support"),
            ("ternary", "on-support"),  # plane rows: no live words
            ("masked", "on-support"),  # live words, each on its own mask
            ("masked", "off-support"),  # one row off the mask: planes
        ],
    )
    def test_every_tenant_gets_its_own_answers(self, coalesce, stores, rows):
        """Exact per-tenant answers whichever shape the rows ride in:
        live words fused across tenants, or plane rows the tenant's
        engine scores with the general formula."""
        artifacts, keeps = _trio_artifacts(stores)
        fleet = ModelFleet()
        for name, artifact in artifacts.items():
            fleet.add_tenant(name, artifact)
        config = MicroBatchConfig(eager=False, max_delay_s=0.05)
        with ServingAPI(fleet, config=config, coalesce=coalesce) as api:
            for i, (name, artifact) in enumerate(artifacts.items()):
                keep = keeps[name][None, :]
                queries = _masked_queries(keep, np.zeros(16, np.intp), seed=i)
                if rows == "off-support":
                    mags = queries.mags.copy()
                    mags[3, 0] ^= np.uint64(1)  # dim 0 moves on/off the mask
                    queries = PackedHV(queries.signs, mags, queries.d)
                offline = artifact.engine()
                dense = queries.unpack(np.float32)
                np.testing.assert_array_equal(
                    api.predict(queries, tenant=name), offline.predict(dense)
                )
                np.testing.assert_array_equal(
                    api.scores(queries, tenant=name), offline.scores(dense)
                )
            keys = api.stats()["schedulers"]
            on_group = any(key.startswith("group") for key in keys)
        assert on_group == (
            coalesce and stores != "ternary" and rows == "on-support"
        )

    def test_shared_config_tenants_share_a_scheduler(self, trio):
        api, artifacts = trio
        for name, artifact in artifacts.items():
            api.predict(_queries(2, d_hv=artifact.d_hv), tenant=name)
        keys = [k for k in api.stats()["schedulers"] if k.startswith("group")]
        assert len(keys) == 2  # alice+bob share one; carol has her own

    def test_default_tenant_serves_untagged_requests(self, trio):
        api, artifacts = trio
        queries = _queries(4)
        np.testing.assert_array_equal(
            api.predict(queries),  # no tenant key — pre-v4 client shape
            artifacts["alice"].engine().predict(queries.unpack(np.float32)),
        )

    def test_unknown_tenant_fails_typed_at_submit(self, trio):
        api, _ = trio
        with pytest.raises(TenantNotFound, match="mallory"):
            api.score(ScoreRequest(queries=_queries(2), tenant="mallory"))
        with pytest.raises(TenantNotFound):
            api.info(tenant="mallory")

    def test_wrong_dimensionality_is_refused(self, trio):
        api, _ = trio
        with pytest.raises(ValueError, match="128 dimensions"):
            api.predict(_queries(2, d_hv=128), tenant="alice")

    def test_batch_requests_route_by_tenant(self, trio):
        api, artifacts = trio
        queries = _queries(6, seed=13)
        response = api.score(
            ScoreRequest(queries=queries, counts=(4, 2), tenant="bob")
        )
        np.testing.assert_array_equal(
            response.predictions,
            artifacts["bob"].engine().predict(queries.unpack(np.float32)),
        )

    def test_info_reports_the_tenants_own_shape(self, trio):
        api, _ = trio
        assert api.info(tenant="carol").d_hv == 256
        assert api.info(tenant="alice").d_hv == D_HV
        assert api.info().d_hv == D_HV  # default tenant

    def test_model_info_request_path_carries_tenant(self, trio):
        api, _ = trio
        request = ModelInfoRequest(request_id=5, tenant="carol")
        info = api.info(
            request.model, request_id=request.request_id,
            tenant=request.tenant,
        )
        assert (info.d_hv, info.request_id) == (256, 5)

    def test_ops_surfaces_have_fleet_shape(self, trio):
        api, _ = trio
        api.predict(_queries(1), tenant="bob")
        health = api.health()
        assert health["tenants"] == 3
        assert health["status"] == "ok"
        stats = api.stats()
        # "threads" is present where /proc has per-thread CPU times.
        assert set(stats) - {"threads"} == {"fleet", "schedulers", "stages"}
        assert stats["fleet"]["tenants"] == 3
        summary = api.tenants_summary(top=2)
        assert summary["count"] == 3
        assert summary["default_tenant"] == "alice"
        assert any(t["tenant"] == "bob" for t in summary["top"])


class TestFleetConcurrency:
    def test_eviction_churn_never_crosses_tenants(self, tmp_path):
        """Threads hammer 6 disk tenants through a 2-tenant cache: every
        answer must match that tenant's offline engine even while the
        LRU constantly admits, evicts, and (verified) reloads."""
        names = [f"t{i}" for i in range(6)]
        root = _save_fleet_dir(tmp_path, names)
        offline = {
            name: ModelArtifact.load(root / name).engine()
            for name in names
        }
        probe = ModelFleet.from_dir(root)
        probe.resolve("t0")
        per_tenant = probe.stats().resident_bytes

        fleet = ModelFleet.from_dir(root, cache_bytes=2 * per_tenant)
        queries = _queries(4, seed=77)
        expected = {
            name: engine.predict(queries.unpack(np.float32))
            for name, engine in offline.items()
        }
        failures = []

        with ServingAPI(fleet) as api:
            def hammer(worker):
                for round_ in range(12):
                    name = names[(worker + round_) % len(names)]
                    try:
                        got = api.predict(queries, tenant=name)
                    except Exception as exc:  # noqa: BLE001 — reported
                        failures.append((worker, round_, name, exc))
                        continue
                    if not np.array_equal(got, expected[name]):
                        failures.append((worker, round_, name))

            threads = [
                threading.Thread(target=hammer, args=(w,)) for w in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = fleet.stats()

        assert failures == []
        assert stats.evictions > 0  # the cache actually churned
        assert stats.resident_bytes <= 2 * per_tenant


def _flusher_threads():
    return {t for t in threading.enumerate() if "flusher" in t.name}


class TestOneFlusher:
    """A scheduler is a queue: every queue of an API flushes on one
    thread."""

    def test_64_tenants_leave_one_flusher_thread(self):
        before = _flusher_threads()
        fleet = ModelFleet()
        artifacts = [_artifact(seed) for seed in range(64)]
        for t, artifact in enumerate(artifacts):
            fleet.add_tenant(f"t{t}", artifact)
        row = _queries(1, seed=64).unpack(np.float32)[0]
        with ServingAPI(fleet, coalesce=False) as api:
            for t, artifact in enumerate(artifacts):
                assert api.predict(row, tenant=f"t{t}") == (
                    artifact.engine().predict(row[None])[0]
                )
            assert len(api.stats()["schedulers"]) == 64
            assert len(_flusher_threads() - before) <= 1

    def test_close_drains_queued_requests_on_three_keys(self):
        fleet = ModelFleet()
        artifacts = [_artifact(seed) for seed in range(3)]
        for t, artifact in enumerate(artifacts):
            fleet.add_tenant(f"t{t}", artifact)
        queries = _queries(2, seed=65)
        # Paced with a 30 s delay: nothing is due until close drains it.
        api = ServingAPI(
            fleet, coalesce=False,
            config=MicroBatchConfig(eager=False, max_delay_s=30.0),
        )
        futures = [
            api.submit_score(ScoreRequest(queries=queries, tenant=f"t{t}"))
            for t in range(3)
        ]
        assert not any(f.done() for f in futures)
        api.close()
        for future, artifact in zip(futures, artifacts):
            np.testing.assert_array_equal(
                future.result(timeout=0).predictions,
                artifact.engine().predict(queries.unpack(np.float32)),
            )
        stats = api.stats()["schedulers"]
        assert len(stats) == 3
        for counters in stats.values():
            assert counters["flushes_by_trigger"]["drain"] == 1


class TestSingleArtifactServesItsOwnTenant:
    def test_own_name_answers_and_other_keys_fail_typed(self):
        artifact = _artifact(3)
        queries = _queries(2)
        with ServingAPI.from_artifact(artifact, name="solo") as api:
            response = api.score(ScoreRequest(queries=queries, tenant="solo"))
            np.testing.assert_array_equal(
                response.predictions,
                artifact.engine().predict(queries.unpack(np.float32)),
            )
            assert api.info(tenant="solo").name == "solo"
            with pytest.raises(TenantNotFound, match="alice"):
                api.score(ScoreRequest(queries=queries, tenant="alice"))
            with pytest.raises(TenantNotFound):
                api.info(tenant="alice")


class TestKernelSelection:
    """Single-tenant flushes use the tenant's engine; mixed flushes fuse."""

    @pytest.fixture()
    def fused_calls(self, monkeypatch):
        import repro.serve.api as api_module

        calls = []
        original = api_module.fused_tenant_scores

        def counting(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(api_module, "fused_tenant_scores", counting)
        return calls

    @staticmethod
    def _expected(artifact, queries):
        return artifact.engine().scores(queries.unpack(np.float32))

    def test_single_tenant_flush_never_fuses(self, fused_calls):
        artifact = _artifact(0)
        queries = _queries(8)
        with ServingAPI.from_artifact(artifact, name="m") as api:
            np.testing.assert_array_equal(
                api.scores(queries), self._expected(artifact, queries)
            )
        assert fused_calls == []

    def _mixed_flush(self, fleet, tenants, between=None, queries=None):
        """Submit one 2-row request per tenant into a single flush.

        Paced mode with ``max_batch`` = total rows: the flush fires on
        the last submit (size trigger), never earlier.
        """
        config = MicroBatchConfig(
            max_batch=2 * len(tenants), eager=False, max_delay_s=30.0
        )
        if queries is None:
            queries = {t: _queries(2, seed=i) for i, t in enumerate(tenants)}
        with ServingAPI(fleet, config=config) as api:
            futures = {}
            for tenant in tenants:
                futures[tenant] = api.submit_score(
                    ScoreRequest(
                        queries=queries[tenant], tenant=tenant,
                        want_scores=True,
                    )
                )
                if between is not None:
                    between(tenant)
            scores = {
                t: f.result(timeout=10.0).scores for t, f in futures.items()
            }
        return queries, scores

    def test_mixed_flush_fuses_and_is_bit_identical(self, fused_calls):
        artifacts = {"alice": _artifact(0), "bob": _artifact(1)}
        fleet = ModelFleet()
        for name, artifact in artifacts.items():
            fleet.add_tenant(name, artifact)
        queries, scores = self._mixed_flush(fleet, list(artifacts))
        assert fused_calls == [4]
        for name, artifact in artifacts.items():
            np.testing.assert_array_equal(
                scores[name], self._expected(artifact, queries[name])
            )

    def test_masked_tenants_coalesce_on_their_own_supports(
        self, fused_calls, shared_calls
    ):
        """Different keep masks, equal ``n_live``: one coalesced flush,
        each tenant's rows masked to its own mask."""
        keeps = _keep_masks(2)
        artifacts = {
            name: ModelArtifact(
                store=_artifact(i).class_hvs * keeps[i],
                query_quantizer="bipolar",
                store_quantizer="bipolar",
                backend="packed",
                keep_mask=keeps[i],
            )
            for i, name in enumerate(["alice", "bob"])
        }
        fleet = ModelFleet()
        for name, artifact in artifacts.items():
            fleet.add_tenant(name, artifact)
        queries = {
            name: _masked_queries(keeps, np.array([i, i]), seed=i)
            for i, name in enumerate(artifacts)
        }
        _, scores = self._mixed_flush(fleet, list(artifacts), queries=queries)
        assert fused_calls == shared_calls == [4]
        for name, artifact in artifacts.items():
            np.testing.assert_array_equal(
                scores[name], self._expected(artifact, queries[name])
            )

    def test_mixed_flush_survives_eviction_before_flush(
        self, tmp_path, fused_calls
    ):
        names = ["a", "b", "c"]
        root = _save_fleet_dir(tmp_path, names)
        probe = ModelFleet.from_dir(root)
        probe.resolve("a")
        fleet = ModelFleet.from_dir(
            root, cache_bytes=2 * probe.stats().resident_bytes
        )

        def admit_c(tenant):
            if tenant == "a":
                fleet.resolve("c")  # resident: a, c; b's admission evicts a

        queries, scores = self._mixed_flush(
            fleet, ["a", "b"], between=admit_c
        )
        assert fused_calls == [4]
        # a, c, b admitted at submit (b evicting a), then a re-admitted
        # by the flush (evicting c).
        stats = fleet.stats()
        assert (stats.misses, stats.evictions) == (4, 2)
        for i, name in enumerate(["a", "b"]):
            expected = self._expected(_artifact(i), queries[name])
            np.testing.assert_array_equal(scores[name], expected)

    def test_a_failed_readmission_fails_only_its_tenant(self, tmp_path):
        """a is evicted and its tensors corrupted between its submit and
        b's, in one paced group flush: the flush-time re-admission of a
        refuses the artifact, and only a's request carries the error."""
        root = _save_fleet_dir(tmp_path, ["a", "b", "c"])
        probe = ModelFleet.from_dir(root)
        probe.resolve("a")
        fleet = ModelFleet.from_dir(
            root, cache_bytes=probe.stats().resident_bytes
        )
        queries = {t: _queries(2, seed=i) for i, t in enumerate("ab")}
        config = MicroBatchConfig(max_batch=4, eager=False, max_delay_s=30.0)
        with ServingAPI(fleet, config=config) as api:
            futures = {"a": api.submit_score(
                ScoreRequest(queries=queries["a"], tenant="a")
            )}
            fleet.resolve("c")  # evicts a
            assert not fleet.is_resident("a")
            tensors = root / "a" / "tensors.npz"
            blob = bytearray(tensors.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            tensors.write_bytes(bytes(blob))
            futures["b"] = api.submit_score(
                ScoreRequest(queries=queries["b"], tenant="b")
            )
            with pytest.raises(ArtifactError, match="checksum"):
                futures["a"].result(timeout=10.0)
            np.testing.assert_array_equal(
                futures["b"].result(timeout=10.0).predictions,
                _artifact(1).engine().predict(
                    queries["b"].unpack(np.float32)
                ),
            )
            [sched] = api.stats()["schedulers"].values()
            assert sched["flushes"] == 1



class TestHotSwapRegroups:
    """A tenant's hot-swap moves it out of its coalescing group and
    re-derives its byte charge."""

    D, CLASSES = 1000, 10

    def _pair(self):
        fleet = ModelFleet()
        for i, name in enumerate(["A", "B"]):
            fleet.add_tenant(name, _artifact(i, self.D, self.CLASSES))
        return fleet

    def _check(self, fleet, swapped, queries, got, field="predictions"):
        """A answers from its new engine, B from its own offline one,
        and the fleet is charged exactly the stores it holds."""
        offline = {
            "A": swapped.engine(),
            "B": _artifact(1, self.D, self.CLASSES).engine(),
        }
        method = "predict" if field == "predictions" else "scores"
        for tenant, engine in offline.items():
            expected = getattr(engine, method)(
                queries[tenant].unpack(np.float32)
            )
            np.testing.assert_array_equal(
                getattr(got[tenant], field), expected
            )
        assert fleet.stats().resident_bytes == sum(
            registry.describe(record.model_name()).engine.resident_nbytes
            for record, registry in fleet.resident_registries()
        )

    def test_swap_before_submit_leaves_the_group(self):
        fleet = self._pair()
        swapped = _artifact(7, self.D, n_classes=4)
        fleet.registry_for("A").publish("model", swapped)
        queries = {t: _queries(3, self.D, seed=i) for i, t in enumerate("AB")}
        config = MicroBatchConfig(eager=False, max_delay_s=0.2)
        with ServingAPI(fleet, config=config) as api:
            futures = {
                t: api.submit_score(ScoreRequest(queries=q, tenant=t))
                for t, q in queries.items()
            }
            got = {t: f.result(timeout=10.0) for t, f in futures.items()}
        self._check(fleet, swapped, queries, got)

    @pytest.mark.parametrize("want_scores", [False, True])
    def test_swap_between_submit_and_flush_scores_apart(self, want_scores):
        fleet = self._pair()
        swapped = _artifact(7, self.D, n_classes=4)
        queries = {t: _queries(3, self.D, seed=i) for i, t in enumerate("AB")}
        config = MicroBatchConfig(max_batch=6, eager=False, max_delay_s=30.0)
        with ServingAPI(fleet, config=config) as api:
            first = api.submit_score(
                ScoreRequest(queries=queries["A"], tenant="A",
                             want_scores=want_scores)
            )
            # The swap lands while A's rows wait in the shared group.
            fleet.registry_for("A").publish("model", swapped)
            second = api.submit_score(
                ScoreRequest(queries=queries["B"], tenant="B",
                             want_scores=want_scores)
            )
            got = {"A": first.result(timeout=10.0),
                   "B": second.result(timeout=10.0)}
        assert len(api.stats()["schedulers"]) == 1  # one mixed flush
        self._check(fleet, swapped, queries, got)
        if want_scores:
            self._check(fleet, swapped, queries, got, field="scores")

    def test_swap_recharges_and_evicts_to_budget(self, tmp_path):
        names = ["a", "b"]
        root = _save_fleet_dir(tmp_path, names)
        probe = ModelFleet.from_dir(root)
        probe.resolve("a")
        per_tenant = probe.stats().resident_bytes
        fleet = ModelFleet.from_dir(root, cache_bytes=2 * per_tenant)
        with ServingAPI(fleet) as api:
            for name in names:
                api.predict(_queries(1), tenant=name)
            bigger = _artifact(9, n_classes=3 * N_CLASSES)
            fleet.registry_for("b").publish("model", bigger)
            api.predict(_queries(1), tenant="b")
        assert fleet.resident_tenants() == ("b",)
        assert fleet.stats().resident_bytes == bigger.engine().resident_nbytes

    def test_rollback_versions_are_not_charged(self):
        """The budget charges a tenant its current default-model store
        only: in-memory versions kept for rollback stay uncharged."""
        registry = ModelRegistry()
        registry.publish("model", _artifact(0, self.D, self.CLASSES))
        fleet = ModelFleet()
        fleet.add_tenant("t", registry, model="model")
        with ServingAPI(fleet) as api:
            for seed in (1, 2, 3):
                registry.publish("model", _artifact(seed, self.D, self.CLASSES))
                api.predict(_queries(1, self.D), tenant="t")  # recharges
        held = [
            registry.describe("model", v).engine
            for v in registry.versions("model")
            if not registry.is_evicted("model", v)
        ]
        assert len(held) == 4
        current = registry.describe("model").engine
        assert fleet.stats().resident_bytes == current.resident_nbytes
        assert sum(e.resident_nbytes for e in held) == 4 * current.resident_nbytes

    def test_single_artifact_stats_follow_a_swap(self):
        with ServingAPI.from_artifact(
            _artifact(0, self.D, self.CLASSES), name="m"
        ) as api:
            queries = _queries(2, self.D)
            api.predict(queries)
            swapped = _artifact(7, self.D, n_classes=4)
            api.registry.publish("m", swapped)
            np.testing.assert_array_equal(
                api.predict(queries),
                swapped.engine().predict(queries.unpack(np.float32)),
            )
            stats = api.stats()["fleet"]
        assert stats["resident_bytes"] == swapped.engine().resident_nbytes

    def test_swap_to_dense_stores_between_submit_and_flush(self):
        """A group flush whose every tenant now holds a dense store
        (no coalesce key at all) is scored per tenant, not fused."""
        fleet = self._pair()
        dense = {
            t: ModelArtifact(
                store=_artifact(7 + i, self.D, self.CLASSES).class_hvs,
                query_quantizer="bipolar",
                store_quantizer="bipolar",
                backend="dense",
            )
            for i, t in enumerate("AB")
        }
        queries = {t: _queries(3, self.D, seed=i) for i, t in enumerate("AB")}
        config = MicroBatchConfig(eager=False, max_delay_s=0.5)
        with ServingAPI(fleet, config=config) as api:
            futures = {
                t: api.submit_score(ScoreRequest(queries=q, tenant=t))
                for t, q in queries.items()
            }
            for t, artifact in dense.items():
                fleet.registry_for(t).publish("model", artifact)
            for t, future in futures.items():
                np.testing.assert_array_equal(
                    future.result(timeout=10.0).predictions,
                    dense[t].engine().predict(queries[t].unpack(np.float32)),
                )
        assert len(api.stats()["schedulers"]) == 1  # one mixed flush

    @pytest.mark.parametrize("kind", ["live", "planes"])
    @pytest.mark.parametrize("want_scores", [False, True])
    @pytest.mark.parametrize("a_classes", [CLASSES, CLASSES + 2])
    def test_mask_swap_fails_only_the_swapped_tenant(
        self, want_scores, kind, a_classes
    ):
        """A's keep mask changes while its rows wait in a flush shared
        with B: A's request is refused, B's is answered — the same for
        v5 live words and for v4 plane rows on the old mask, and at B's
        own class count when the swap changes A's."""
        keeps = _keep_masks(3, self.D, self.D // 2)
        stores = {
            t: _artifact(i, self.D, self.CLASSES).class_hvs * keeps[i]
            for i, t in enumerate("AB")
        }
        masked = {
            t: ModelArtifact(
                store=store,
                query_quantizer="bipolar",
                store_quantizer="bipolar",
                backend="packed",
                keep_mask=keeps[i],
            )
            for i, (t, store) in enumerate(stores.items())
        }
        fleet = ModelFleet()
        for t, artifact in masked.items():
            fleet.add_tenant(t, artifact)
        rng = spawn(3, "fleet-test-live-queries")
        values = {
            t: rng.choice([-1.0, 1.0], size=(3, self.D)) * keeps[i]
            for i, t in enumerate("AB")
        }
        queries = {
            t: LiveHV(
                pack_sign_planes(values[t][:, keeps[i]]),
                self.D,
                int(keeps[i].sum()),
                support_of(keeps[i])[1],
            ) if kind == "live" else pack_hypervectors(values[t])
            for i, t in enumerate("AB")
        }
        config = MicroBatchConfig(max_batch=6, eager=False, max_delay_s=30.0)
        with ServingAPI(fleet, config=config) as api:
            first = api.submit_score(
                ScoreRequest(queries=queries["A"], tenant="A",
                             want_scores=want_scores)
            )
            swapped = ModelArtifact(
                store=_artifact(0, self.D, a_classes).class_hvs * keeps[2],
                query_quantizer="bipolar",
                store_quantizer="bipolar",
                backend="packed",
                keep_mask=keeps[2],
            )
            fleet.registry_for("A").publish("model", swapped)
            second = api.submit_score(
                ScoreRequest(queries=queries["B"], tenant="B",
                             want_scores=want_scores)
            )
            with pytest.raises(ValueError, match="keep mask changed"):
                first.result(timeout=10.0)
            got = second.result(timeout=10.0)
        assert len(api.stats()["schedulers"]) == 1  # one mixed flush
        engine = masked["B"].engine()
        planes = pack_hypervectors(values["B"])
        np.testing.assert_array_equal(got.predictions, engine.predict(planes))
        if want_scores:
            np.testing.assert_array_equal(got.scores, engine.scores(planes))
            assert got.scores.shape == (3, self.CLASSES)
            assert np.isfinite(got.scores).all()

    def test_a_stale_tenant_leaves_the_others_fused(self, monkeypatch):
        """A's mask changes while its row waits beside B's and C's
        requests of several rows each: A alone is refused, and one fused
        call scores B's and C's rows, each against its own store."""
        import repro.serve.api as api_module

        fused = []
        original = api_module.fused_tenant_scores

        def counting(words, *args):
            fused.append(len(words))
            return original(words, *args)

        monkeypatch.setattr(api_module, "fused_tenant_scores", counting)
        keeps = _keep_masks(4, self.D, self.D // 2)
        masked = {
            t: ModelArtifact(
                store=_artifact(i, self.D, self.CLASSES).class_hvs * keeps[i],
                query_quantizer="bipolar",
                store_quantizer="bipolar",
                backend="packed",
                keep_mask=keeps[i],
            )
            for i, t in enumerate("ABC")
        }
        fleet = ModelFleet()
        for t, artifact in masked.items():
            fleet.add_tenant(t, artifact)
        rng = spawn(4, "fleet-test-stale-fused")
        sizes = {"A": 1, "B": 2, "C": 3}
        planes = {
            t: pack_hypervectors(
                rng.choice([-1.0, 1.0], size=(sizes[t], self.D)) * keeps[i]
            )
            for i, t in enumerate("ABC")
        }
        config = MicroBatchConfig(max_batch=6, eager=False, max_delay_s=30.0)
        with ServingAPI(fleet, config=config) as api:
            submit = lambda t, rows: api.submit_score(  # noqa: E731
                ScoreRequest(queries=rows, tenant=t, want_scores=True)
            )
            futures = [("B", submit("B", planes["B"][:1]))]
            stale = submit("A", planes["A"])
            fleet.registry_for("A").publish("model", ModelArtifact(
                store=_artifact(0, self.D, self.CLASSES).class_hvs * keeps[3],
                query_quantizer="bipolar",
                store_quantizer="bipolar",
                backend="packed",
                keep_mask=keeps[3],
            ))
            futures += [
                ("C", submit("C", planes["C"])),
                ("B", submit("B", planes["B"][1:])),
            ]
            with pytest.raises(ValueError, match="keep mask changed"):
                stale.result(timeout=10.0)
            got = [(t, f.result(timeout=10.0).scores) for t, f in futures]
        assert fused == [5]
        expected = {
            t: masked[t].engine().scores(planes[t]) for t in "BC"
        }
        np.testing.assert_array_equal(got[0][1], expected["B"][:1])
        np.testing.assert_array_equal(got[1][1], expected["C"])
        np.testing.assert_array_equal(got[2][1], expected["B"][1:])

    def test_an_evicted_tenant_frees_its_engine(self, tmp_path):
        """Nothing the API keeps per flush pins an evicted tenant's store."""
        root = _save_fleet_dir(tmp_path, ["a", "b"])
        probe = ModelFleet.from_dir(root)
        probe.resolve("a")
        fleet = ModelFleet.from_dir(
            root, cache_bytes=probe.stats().resident_bytes
        )
        with ServingAPI(fleet) as api:
            api.predict(_queries(1), tenant="a")
            engine = weakref.ref(fleet.registry_for("a").describe("model").engine)
            api.predict(_queries(1), tenant="b")  # evicts a
            assert fleet.resident_tenants() == ("b",)
            gc.collect()
            assert engine() is None

    def test_a_named_model_is_not_recharged(self, monkeypatch):
        """A tenant without a default model is charged nothing, and a
        request naming one of its models takes no fleet lock for it."""
        registry = ModelRegistry()
        for name in ("x", "y"):
            registry.publish(name, _artifact(0))
        fleet = ModelFleet()
        fleet.add_tenant("t", registry, model=None)
        charges = []
        monkeypatch.setattr(fleet, "_charge", charges.append)
        with ServingAPI(fleet) as api:
            for name in ("x", "y", "x"):
                api.predict(_queries(1), model=name, tenant="t")
        assert charges == []
        assert fleet.stats().resident_bytes == 0


def _paper_fleet(root, encoder):
    """Eight ISOLET-shaped tenants (26 classes) at d_hv=10,000, §III-C
    masked to 5,000 live dimensions, as deployed."""
    d_hv, n_classes = 10_000, 26
    keep = mask_from_seed(d_hv, d_hv // 2, 7)
    rng = spawn(4, "encoder-fleet")
    for i in range(8):
        model = HDModel(
            n_classes, d_hv, rng.choice([-1.0, 1.0], size=(n_classes, d_hv))
        )
        ModelArtifact.build(
            model, quantizer="bipolar", backend="packed", encoder=encoder,
            keep_mask=keep, mask_seed=7,
        ).save(root / f"t{i}")
    return root


@pytest.fixture(scope="module")
def encoder_fleet_dir(tmp_path_factory):
    """The paper fleet with a level-base encoder (617 features) recorded
    in every manifest."""
    return _paper_fleet(
        tmp_path_factory.mktemp("encoder-fleet"),
        LevelBaseEncoder(617, 10_000, seed=5),
    )


def _held_over_charged(root) -> float:
    """Bytes every tenant of ``root`` holds once resident, under
    ``tracemalloc``, over the fleet's charge for them."""
    # One admission elsewhere first: process-wide caches fill once.
    ModelFleet.from_dir(root).resolve("t0")
    fleet = ModelFleet.from_dir(root)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name in fleet.tenants():
            fleet.resolve(name)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stats = fleet.stats()
    assert stats.resident_models == 8
    return held / stats.resident_bytes


class TestTenantsHoldNoCodebooks:
    """Serving engines never build the codebooks a manifest records:
    clients encode, so a tenant holds what it is charged."""

    def test_tenants_hold_what_they_are_charged(self, encoder_fleet_dir):
        """A masked level-base tenant keeps its keep mask only as the
        store's support plane, so it holds within 10% of its charge."""
        assert 1 / 1.1 <= _held_over_charged(encoder_fleet_dir) <= 1.1

    def test_encoder_free_tenants_hold_what_they_are_charged(self, tmp_path):
        """The same within 10% for the masked tenants of a fleet of
        manifests without an encoder."""
        root = _paper_fleet(tmp_path / "fleet", None)
        assert 1 / 1.1 <= _held_over_charged(root) <= 1.1

    def test_no_serving_engine_has_an_encoder(self, encoder_fleet_dir):
        path = encoder_fleet_dir / "t0"
        engines = []
        for source in (ModelArtifact.load(path), path):
            with ServingAPI.from_artifact(source) as api:
                engines.append(api.registry.resolve("model"))
        probe = ModelFleet.from_dir(encoder_fleet_dir)
        probe.resolve("t0")
        fleet = ModelFleet.from_dir(
            encoder_fleet_dir, cache_bytes=probe.stats().resident_bytes
        )
        engines.append(fleet.registry_for("t0").resolve("model"))
        fleet.resolve("t1")  # evicts t0
        assert not fleet.is_resident("t0")
        engines.append(fleet.registry_for("t0").resolve("model"))
        registry = ModelRegistry()
        registry.load("m", path)
        registry.load("m", encoder_fleet_dir / "t1")
        registry.retire("m", 1)
        engines.append(registry.resolve("m", 1))  # reloaded from disk
        assert [e.encode_pipeline for e in engines] == [None] * 5
        # The offline reference keeps its encoder.
        assert ModelArtifact.load(path).engine().encode_pipeline is not None

    @pytest.mark.parametrize(
        "kwargs",
        [{"with_encoder": False}, {"encode_workers": 2}, {"chunk_size": 64}],
    )
    def test_encoder_engine_kwargs_are_refused(self, encoder_fleet_dir, kwargs):
        path = encoder_fleet_dir / "t0"
        refused = pytest.raises(ValueError, match=r"ModelArtifact\.engine\(\)")
        with refused:
            ServingAPI.from_artifact(path, engine_kwargs=kwargs)
        with refused:
            ServingAPI.from_artifact(
                ModelArtifact.load(path), engine_kwargs=kwargs
            )
        with refused:
            ModelFleet().add_tenant("t", path, engine_kwargs=kwargs)
        with refused:
            ModelRegistry().load("m", path, engine_kwargs=kwargs)


def test_fleet_state_machine(tmp_path, monkeypatch):
    """Model-based check of the LRU cache under random operation sequences.

    A reference model tracks registration, pins and the expected LRU
    order, evicting exactly as documented: only when a tenant is
    installed, oldest unpinned disk tenant first, never the one just
    installed (a hit refreshes recency but re-checks no budget).  After
    every step the fleet's residency, byte accounting and counters must
    agree with it.

    A tenant can also sit in a *loading* state: its admission is held
    inside ``ModelRegistry.load`` while 1-3 racing lookups wait on it
    and other rules keep running.  Finishing the load installs it once
    (one load, one miss, every racer gets the same registry); refusing
    it raises the same error in every racer and leaves the tenant
    non-resident, so a later lookup loads it again.
    """
    from concurrent.futures import Future

    from hypothesis import settings, strategies as st
    from hypothesis.stateful import (
        RuleBasedStateMachine,
        invariant,
        precondition,
        rule,
        run_state_machine_as_test,
    )

    from repro.serve import ModelRegistry

    d_hv = 64
    paths = [_artifact(i, d_hv=d_hv).save(tmp_path / f"p{i}") for i in range(3)]
    memory_artifact = _artifact(7, d_hv=d_hv)
    probe = ModelFleet()
    probe.add_tenant("probe", memory_artifact)
    per_tenant = probe.stats().resident_bytes
    names = st.sampled_from(["a", "b", "c", "d", "e", "f"])

    loads = []  # every ModelRegistry.load call, in order
    gate = {"hold": None, "fail": False, "entered": threading.Event()}
    real_load = ModelRegistry.load

    def gated_load(self, *args, **kwargs):
        loads.append(args[1])
        hold = gate["hold"]
        if hold is not None and threading.current_thread().name == "leader":
            gate["entered"].set()
            assert hold.wait(timeout=30)
            if gate["fail"]:
                raise ArtifactError("checksum mismatch (injected refusal)")
        return real_load(self, *args, **kwargs)

    waiters = []  # one entry per lookup that joined an in-flight load

    class CountingFuture(Future):
        def result(self, timeout=None):
            waiters.append(1)
            return super().result(timeout)

    monkeypatch.setattr(ModelRegistry, "load", gated_load)
    monkeypatch.setattr(fleet_module, "Future", CountingFuture)

    class FleetMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.fleet = ModelFleet(cache_bytes=2 * per_tenant)
            self.kind = {}  # name -> "disk" | "memory"
            self.pinned = set()
            self.lru = []  # expected resident tenants, oldest first
            self.hits = self.misses = self.refused = 0
            self.loading = None  # (name, racer threads, their outcomes)
            loads.clear()

        def teardown(self):
            if self.loading is not None:  # never leave a racer parked
                gate["fail"] = True
                gate["hold"].set()
                for thread in self.loading[1]:
                    thread.join(timeout=30)
            gate["hold"] = None

        def _touch(self, name):
            """Mirror one hit or install: move to MRU; installs evict."""
            installed = name not in self.lru
            if not installed:
                self.lru.remove(name)
            self.lru.append(name)
            while installed and len(self.lru) > 2:
                victim = next(
                    (
                        n
                        for n in self.lru
                        if n != name
                        and self.kind[n] == "disk"
                        and n not in self.pinned
                    ),
                    None,
                )
                if victim is None:
                    break
                self.lru.remove(victim)

        @rule(name=names, pin=st.booleans())
        def add_disk(self, name, pin):
            if name in self.kind:
                with pytest.raises(ValueError, match="already registered"):
                    self.fleet.add_tenant(name, paths[0], pin=pin)
                return
            self.fleet.add_tenant(name, paths[ord(name) % 3], pin=pin)
            self.kind[name] = "disk"
            if pin:
                self.pinned.add(name)

        @rule(name=names)
        def add_memory(self, name):
            if name in self.kind:
                return
            self.fleet.add_tenant(name, memory_artifact)
            self.kind[name] = "memory"
            self._touch(name)

        @rule(name=names, count=st.booleans())
        def resolve(self, name, count):
            if self.loading is not None and name == self.loading[0]:
                return  # the racers below cover joining a load
            before = self.fleet.stats()
            if name not in self.kind:
                with pytest.raises(TenantNotFound):
                    self.fleet.resolve(name, count=count)
                return
            resident = name in self.lru
            self.fleet.resolve(name, count=count)
            after = self.fleet.stats()
            hits = after.hits - before.hits
            misses = after.misses - before.misses
            if count:
                assert (hits, misses) == ((1, 0) if resident else (0, 1))
            else:
                assert (hits, misses) == (0, 0 if resident else 1)
            self.hits += hits
            self.misses += misses
            self._touch(name)

        @rule(name=names, pin=st.booleans())
        def toggle_pin(self, name, pin):
            # Runs while a load is parked too: a pin is read only when
            # an install evicts, so it needs no residency.
            if name not in self.kind:
                with pytest.raises(TenantNotFound):
                    self.fleet.pin(name)
                return
            if pin:
                self.fleet.pin(name)
                self.pinned.add(name)
            else:
                self.fleet.unpin(name)
                self.pinned.discard(name)

        @precondition(lambda self: self.loading is not None)
        @rule(pin=st.booleans())
        def toggle_loading_pin(self, pin):
            """Pin or unpin the tenant whose load is in flight."""
            self.toggle_pin(self.loading[0], pin)

        @precondition(lambda self: self.loading is None)
        @rule(name=names, counts=st.lists(st.booleans(), min_size=1, max_size=3))
        def begin_load(self, name, counts):
            """Park an admission of ``name`` inside its load, with
            ``len(counts) - 1`` racing lookups waiting on it."""
            if self.kind.get(name) != "disk" or name in self.lru:
                return
            gate["hold"], gate["fail"] = threading.Event(), False
            gate["entered"].clear()
            outcomes = [None] * len(counts)

            def racer(i, count):
                try:
                    outcomes[i] = self.fleet.lookup(name, count=count)[1]
                except Exception as exc:  # noqa: BLE001 — asserted below
                    outcomes[i] = exc

            threads = [
                threading.Thread(
                    target=racer,
                    args=(i, count),
                    name="leader" if i == 0 else "racer",
                    daemon=True,
                )
                for i, count in enumerate(counts)
            ]
            joined = len(waiters)
            threads[0].start()
            assert gate["entered"].wait(timeout=30)
            for thread in threads[1:]:
                thread.start()
            deadline = time.monotonic() + 10
            while len(waiters) - joined < len(threads) - 1:
                assert time.monotonic() < deadline, "racers never joined"
                time.sleep(0.001)
            self.loading = (name, threads, outcomes)

        @precondition(lambda self: self.loading is not None)
        @rule(refuse=st.booleans())
        def finish_load(self, refuse):
            name, threads, outcomes = self.loading
            gate["fail"] = refuse
            gate["hold"].set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            gate["hold"] = None
            self.loading = None
            first = outcomes[0]
            # Every racer shares the one outcome: the same registry, or
            # the same refusal.
            assert all(outcome is first for outcome in outcomes)
            if refuse:
                assert isinstance(first, ArtifactError)
                assert not self.fleet.is_resident(name)
                self.refused += 1
            else:
                assert self.fleet.is_resident(name)
                self.misses += 1
                self._touch(name)

        @invariant()
        def one_load_per_miss(self):
            in_flight = 0 if self.loading is None else 1
            assert len(loads) == self.misses + self.refused + in_flight

        @invariant()
        def counters_match_the_model(self):
            stats = self.fleet.stats()
            assert (stats.hits, stats.misses) == (self.hits, self.misses)

        @invariant()
        def lru_order_matches_the_model(self):
            assert self.fleet.resident_tenants() == tuple(self.lru)

        @invariant()
        def no_tenant_resident_twice(self):
            resident = self.fleet.resident_registries()
            assert len({record.name for record, _ in resident}) == len(resident)
            assert len({id(registry) for _, registry in resident}) == len(
                resident
            )
            assert self.fleet.stats().resident_models == len(resident)

        @invariant()
        def resident_bytes_are_the_resident_stores(self):
            stores = sum(
                registry.describe(record.model).engine.resident_nbytes
                for record, registry in self.fleet.resident_registries()
            )
            assert self.fleet.stats().resident_bytes == stores

        @invariant()
        def memory_tenants_stay_resident(self):
            for name, kind in self.kind.items():
                if kind == "memory":
                    assert self.fleet.is_resident(name)

    run_state_machine_as_test(
        FleetMachine,
        settings=settings(
            max_examples=40, stateful_step_count=25, deadline=None
        ),
    )
