"""The serving process never draws a random number, so it never loads
``numpy.random``; a loaded artifact keeps its keep mask as the support
plane only, and answers, describes and saves exactly as built."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import repro
from repro.hd import HDModel
from repro.hd.prune import mask_from_seed
from repro.serve import ModelArtifact
from repro.utils import spawn

D_HV, N_CLASSES, N_MASKED, MASK_SEED = 1000, 6, 400, 5

#: Run in a fresh interpreter: import the CLI, serve one request from the
#: artifact directory, describe it, save the loaded artifact again.
PROBE = """
import json, sys
import numpy as np
import repro.cli
from repro.serve import ModelArtifact, ServingAPI

path, queries, out = sys.argv[1:]
with ServingAPI.from_artifact(path) as api:
    labels = api.predict(np.load(queries))
    info = api.info()
loaded = ModelArtifact.load(path)
loaded.save(out)
print(json.dumps({
    "numpy.random": "numpy.random" in sys.modules,
    "labels": labels.tolist(),
    "n_live_dims": info.n_live_dims,
    "mask_seed": info.mask_seed,
    "held": sorted(
        str(v.dtype) for v in vars(loaded).values()
        if isinstance(v, np.ndarray)
    ),
}))
"""


def _tensor_sums(path) -> dict:
    manifest = json.loads((path / "manifest.json").read_text())
    return {name: t["sha256"] for name, t in manifest["tensors"].items()}


def test_serving_a_masked_artifact_loads_no_rng(tmp_path):
    rng = spawn(11, "server-imports")
    keep = mask_from_seed(D_HV, N_MASKED, MASK_SEED)
    model = HDModel(
        N_CLASSES, D_HV, rng.choice([-1.0, 1.0], size=(N_CLASSES, D_HV))
    )
    art = ModelArtifact.build(
        model, quantizer="bipolar", backend="packed",
        keep_mask=keep, mask_seed=MASK_SEED,
    )
    saved = art.save(tmp_path / "art")
    queries = rng.choice([-1.0, 1.0], size=(4, D_HV)) * keep
    np.save(tmp_path / "queries.npy", queries)

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(saved),
         str(tmp_path / "queries.npy"), str(tmp_path / "again")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    got = json.loads(out)
    assert got["numpy.random"] is False
    assert got["labels"] == art.engine().predict(queries).tolist()
    assert (got["n_live_dims"], got["mask_seed"]) == (
        D_HV - N_MASKED, MASK_SEED
    )
    assert got["held"] == ["uint64"]  # the support plane, no bool mask
    assert _tensor_sums(tmp_path / "again") == _tensor_sums(saved)
