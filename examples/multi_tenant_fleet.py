"""Scenario: one host, many users — a multi-tenant model fleet.

Prive-HD's packed class stores are tiny (a few KB per model), so the
natural deployment is not one model per server but thousands of
per-user models behind one address.  This walkthrough runs that
topology end-to-end:

1. train three tenants — ``alice`` and ``bob`` share an encoder shape
   (same ``d_hv``/quantizer, different codebook seeds and data), while
   ``carol`` uses a different dimensionality — and save each as an
   artifact under one fleet directory (the ``serve --fleet-dir``
   layout);
2. serve the directory through a :class:`~repro.serve.ModelFleet` +
   :class:`~repro.serve.ServingAPI` behind the socket frontend: alice
   and bob land in one coalescing group (their queries are stacked and
   scored by one fused cross-tenant kernel per flush), carol flushes
   alone;
3. connect one :class:`~repro.client.PriveHDClient` per tenant — the
   ``tenant=`` key rides the protocol-v4 frames, each client keeps its
   own codebooks local — and verify every tenant's remote predictions
   are **bit-identical** to an offline evaluation of that tenant's own
   artifact (exit 1 otherwise);
4. show the failure mode: an unknown tenant is refused with the typed
   ``unknown-tenant`` error, raised client-side as
   :class:`~repro.serve.TenantNotFound` — never answered from some
   other tenant's model.

Run:  python examples/multi_tenant_fleet.py
(The fleet-smoke CI job runs exactly this, so the example can't rot.)
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.client import PriveHDClient
from repro.data import load_dataset
from repro.hd import ScalarBaseEncoder
from repro.hd.batching import fit_classes_batched
from repro.serve import (
    FrontendHandle,
    ModelArtifact,
    ModelFleet,
    ServingAPI,
    TenantNotFound,
)

#: tenant -> (hypervector dims, encoder/data seed).  alice and bob share
#: d_hv (one coalescing group); carol's differs (her own flushes).
TENANTS = {"alice": (2000, 11), "bob": (2000, 22), "carol": (1000, 33)}


def train_tenant(ds, d_hv: int, seed: int) -> ModelArtifact:
    """A tenant's private model: own codebooks, own slice of data."""
    encoder = ScalarBaseEncoder(ds.d_in, d_hv, lo=ds.lo, hi=ds.hi, seed=seed)
    model = fit_classes_batched(
        encoder, ds.X_train, ds.y_train, ds.n_classes,
        quantizer="bipolar", batch_size=512,
    )
    return ModelArtifact.build(
        model, quantizer="bipolar", backend="packed", encoder=encoder,
        metadata={"example": "multi_tenant_fleet", "seed": seed},
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        fleet_dir = Path(workdir) / "fleet"

        # 1. train + save one artifact subdirectory per tenant ------------
        tests, offline = {}, {}
        for tenant, (d_hv, seed) in TENANTS.items():
            ds = load_dataset("isolet", n_train=1500, n_test=200, seed=seed)
            artifact = train_tenant(ds, d_hv, seed)
            artifact.save(fleet_dir / tenant)
            tests[tenant] = ds.X_test
            offline[tenant] = artifact.engine().predict_features(ds.X_test)
            print(f"[train] {tenant}: d_hv={d_hv}, "
                  f"{artifact.n_classes} classes -> {fleet_dir / tenant}")

        # 2. serve the whole directory as one fleet -----------------------
        fleet = ModelFleet.from_dir(fleet_dir)
        with ServingAPI(fleet) as api, FrontendHandle(api) as handle:
            host, port = handle.address
            print(f"[serve] fleet of {len(fleet)} tenants on {host}:{port} "
                  f"(default tenant {fleet.default_tenant!r})")

            # 3. one client per tenant, codebooks local, tenant on the wire
            for tenant, (d_hv, seed) in TENANTS.items():
                artifact = ModelArtifact.load(fleet_dir / tenant)
                with PriveHDClient(
                    handle.address,
                    encoder=artifact.encoder_config,
                    tenant=tenant,
                ) as client:
                    preds = client.predict_many(tests[tenant], chunk_size=64)
                identical = bool(np.array_equal(preds, offline[tenant]))
                acc = float(np.mean(preds == offline[tenant]))
                print(f"[client] tenant={tenant}: {len(preds)} remote "
                      f"predictions, identical to offline eval: {identical}")
                if not identical:
                    print(f"ERROR: tenant {tenant} diverged "
                          f"(agreement {acc:.3f})", file=sys.stderr)
                    return 1

            stats = fleet.stats()
            print(f"[fleet] {stats.resident_models} resident models, "
                  f"{stats.resident_bytes} store bytes, "
                  f"hit rate {stats.hit_rate:.3f}")

            # 4. unknown tenants are refused, never misrouted -------------
            artifact = ModelArtifact.load(fleet_dir / "alice")
            try:
                with PriveHDClient(
                    handle.address,
                    encoder=artifact.encoder_config,
                    tenant="mallory",
                ) as client:
                    client.predict_many(tests["alice"][:1])
            except TenantNotFound as exc:
                print(f"[client] tenant=mallory correctly refused: {exc}")
            else:
                print("ERROR: unknown tenant was not refused",
                      file=sys.stderr)
                return 1

    print("\nthree tenants, one address, zero cross-tenant answers.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
