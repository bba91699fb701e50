"""Scenario: IoT speech recognition with an untrusted cloud host.

The paper's second motivation: an edge device too weak to run inference
locally encodes its input and offloads the similarity search to a cloud
host over a hostile channel.  The host (or any eavesdropper) can invert
plain encodings back to the input (§III-A) — so the client quantizes to
1 bit and masks a block of dimensions before transmitting (§III-C).

This script sweeps the masking level and prints the trade-off the client
cares about: hosted-model accuracy vs attacker reconstruction quality —
plus the transmission savings (1-bit dims instead of 32-bit floats).
It then serves the same obfuscated queries through the bit-packed
`InferenceEngine`: the ternary wire format the client ships is consumed
directly by XOR+popcount kernels, with decisions identical to the dense
host (the script exits non-zero if they are not).

Run:  python examples/cloud_inference_offload.py
"""

import time

import numpy as np

from repro.core import PriveHD
from repro.data import load_dataset
from repro.utils.tables import ResultTable


def main() -> None:
    ds = load_dataset("isolet", n_train=2000, n_test=600, seed=4)
    print(f"dataset: {ds.summary()}  (voice commands on an IoT device)")

    d_hv = 4000
    system = PriveHD(
        d_in=ds.d_in, n_classes=ds.n_classes, d_hv=d_hv,
        lo=ds.lo, hi=ds.hi, seed=9,
    )
    # The cloud hosts the full-precision model; it is never modified.
    hosted_model = system.fit(ds.X_train, ds.y_train)
    plain_acc = hosted_model.accuracy(system.encode(ds.X_test), ds.y_test)

    raw_bits = ds.d_in * 32  # shipping the raw feature vector
    plain_bits = d_hv * 32   # shipping the float encoding

    table = ResultTable(
        f"offload trade-off (plain accuracy {plain_acc:.3f})",
        ["masked dims", "accuracy", "recon MSE factor", "PSNR dB", "kbits/query"],
    )
    for n_masked in (0, 1000, 2000, 3000, 3600):
        obf = system.obfuscator(quantizer="bipolar", n_masked=n_masked)
        acc = obf.evaluate_accuracy(hosted_model, ds.X_test, ds.y_test)
        leak = obf.leakage_report(ds.X_test[:60])
        kbits = obf.n_unmasked / 1000.0  # 1 bit per unmasked dim
        table.add_row(
            [n_masked, acc, leak.normalized_mse, leak.psnr_obfuscated, kbits]
        )
    table.print()

    print(
        f"\nshipping raw features would cost {raw_bits/1000:.1f} kbits; the"
        f"\nplain float encoding {plain_bits/1000:.0f} kbits; the obfuscated"
        "\nquery is 1 bit per unmasked dimension -- simultaneously the most"
        "\nprivate and the cheapest to transmit (the paper's 'multifaceted"
        "\npower efficiency')."
    )

    # ------------------------------------------------------------------
    # Host side, upgraded: serve the 1-bit model from bit planes.
    # ------------------------------------------------------------------
    obf = system.obfuscator(quantizer="bipolar", n_masked=2000)
    packed_queries = obf.prepare_packed(ds.X_test)   # client wire format
    dense_queries = obf.prepare(ds.X_test)

    dense_host = system.engine(hosted_model, backend="dense")
    packed_host = system.engine(
        hosted_model, backend="packed", quantizer="bipolar"
    )
    t0 = time.perf_counter()
    packed_preds = packed_host.predict(packed_queries)
    packed_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    dense_preds = dense_host.predict(dense_queries)
    dense_ms = (time.perf_counter() - t0) * 1e3

    served_acc = float(np.mean(packed_preds == ds.y_test))
    one_bit_model = system.engine(
        hosted_model, backend="dense", quantizer="bipolar"
    )
    same = bool(
        np.array_equal(packed_preds, one_bit_model.predict(dense_queries))
    )
    print(
        f"\npacked host: {len(ds.y_test)} queries in {packed_ms:.1f} ms "
        f"(dense host: {dense_ms:.1f} ms), accuracy {served_acc:.3f}"
        f"\npacked decisions match the 1-bit dense host exactly: {same}"
        f"\n(full-precision host accuracy on the same queries: "
        f"{float(np.mean(dense_preds == ds.y_test)):.3f})"
    )
    if not same:
        raise SystemExit("packed decisions diverged from the 1-bit dense host")


if __name__ == "__main__":
    main()
