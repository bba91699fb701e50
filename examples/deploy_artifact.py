"""Scenario: train privately, audit, ship the artifact, serve it.

The MLOps loop a Prive-HD user actually runs:

1. train a differentially private model;
2. **audit** it — run the paper's own attacks against it before release;
3. save a self-contained, checksum-verified ``ModelArtifact`` directory
   (quantized store + encoder config + privacy certificate);
4. on the serving side, load the artifact into a versioned registry and
   answer an edge client (it encodes on its side; the server holds no
   codebooks) over a socket — then promote a re-privatized v2 with zero
   dropped requests — and also emit the Verilog for an FPGA serving
   path.

Exits non-zero unless the served answers equal the offline engine's
(``ModelArtifact.engine().predict_features``) before and after the swap.

Run:  python examples/deploy_artifact.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.client import PriveHDClient
from repro.core import PriveHD, audit_training_privacy
from repro.core.inference_privacy import ObfuscationConfig
from repro.data import load_dataset
from repro.hardware import generate_rtl_bundle
from repro.serve import FrontendHandle, ModelArtifact, ServingAPI


def main() -> int:
    ds = load_dataset("face", n_train=2500, n_test=600, seed=6)
    print(f"dataset: {ds.summary()}")

    # 1. private training ------------------------------------------------
    system = PriveHD(
        d_in=ds.d_in, n_classes=ds.n_classes, d_hv=4000,
        lo=ds.lo, hi=ds.hi, seed=13,
    )
    result = system.fit_private(
        ds.X_train, ds.y_train, epsilon=1.0, effective_dims=2000
    )
    print(f"\n[train] eps=1 private model: "
          f"acc {result.accuracy(ds.X_test, ds.y_test):.3f} "
          f"(noise std {result.private.noise_std:.1f})")

    # 2. audit before release ---------------------------------------------
    audit = audit_training_privacy(
        ds.X_train[:600], ds.y_train[:600], ds.n_classes,
        epsilon=1.0, d_hv=2000, n_probes=2, seed=13,
    )
    verdict = "LEAKS" if audit.extraction_succeeds else "resists extraction"
    print(f"[audit] membership score {audit.mean_membership_score:+.3f}, "
          f"recon error {audit.mean_relative_error:.1%} -> {verdict}")

    # 3. ship -------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = result.to_artifact(
            metadata={"dataset": "face", "release": "eps1"}
        ).save(Path(tmp) / "face-eps1")
        size = sum(f.stat().st_size for f in path.iterdir())
        print(f"[ship]  artifact written: {path.name}/ "
              f"({size / 1024:.0f} KiB, manifest + tensors)")

        # 4. serve ---------------------------------------------------------
        art = ModelArtifact.load(path)  # checksum-verified
        print(f"[serve] certificate: eps={art.epsilon:g} "
              f"delta={art.privacy['delta']:g} private={art.is_private}")
        offline = art.engine()  # the offline reference, with codebooks
        acc = offline.accuracy_features(ds.X_test, ds.y_test)
        print(f"[serve] accuracy from the loaded artifact: {acc:.3f}")
        with ServingAPI.from_artifact(art, name="face") as server, \
                FrontendHandle(server) as handle, PriveHDClient(
                    handle.address, encoder=art.encoder_config,
                    obfuscation=ObfuscationConfig(
                        quantizer=art.query_quantizer or "identity"),
                ) as edge:
            registry = server.registry
            preds = edge.predict(ds.X_test[:5])
            print(f"[serve] first micro-batched predictions: "
                  f"{preds.tolist()} (truth {ds.y_test[:5].tolist()})")
            ok = np.array_equal(preds, offline.predict_features(ds.X_test[:5]))

            # promote a re-privatized v2 under live traffic: atomic, no
            # dropped requests — the next flush simply resolves v2.
            art_v2 = system.fit_private(
                ds.X_train, ds.y_train, epsilon=1.0,
                effective_dims=2000, noise_seed=99,
            ).to_artifact()
            v2 = registry.publish("face", art_v2)
            swapped = edge.predict(ds.X_test[:1])
            print(f"[swap]  promoted v{v2} "
                  f"(current: v{registry.current_version('face')}); "
                  f"post-swap prediction: {swapped.tolist()}")
            ok &= np.array_equal(
                swapped, art_v2.engine().predict_features(ds.X_test[:1])
            )
        if not ok:
            print("ERROR: served answers diverged from the offline engine",
                  file=sys.stderr)
            return 1

    # ... and the FPGA path: emit the majority datapath RTL + testbench.
    bundle = generate_rtl_bundle(ds.d_in, n_vectors=16, tie_seed=13)
    print(f"\n[rtl]   generated {bundle.module_name}.v: "
          f"{bundle.n_luts_stage1} majority LUT6s for div={bundle.div}, "
          f"{len(bundle.module.splitlines())} lines of Verilog, "
          f"{len(bundle.testbench.splitlines())}-line self-checking TB")
    first_lut = next(
        line for line in bundle.module.splitlines() if "LUT6 #" in line
    )
    print(f"        e.g. {first_lut.strip()[:72]}...")
    return 0


if __name__ == "__main__":
    sys.exit(main())
