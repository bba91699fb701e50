"""The serving process never draws a random number, so it never loads
``numpy.random``; a loaded artifact keeps its keep mask as the support
plane only, and answers, describes and saves exactly as built.

It loads only the serving stack, too: ``serve --listen`` answers over
its socket without importing the edge client, the encoders, the
trainers, the attacks or the experiments, while the packages still
export every name they list."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.privacy import gaussian_noise_std
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


#: what a serving process must never import (a module or its children)
NOT_SERVING = (
    "repro.client", "repro.core", "repro.attacks", "repro.data",
    "repro.experiments", "repro.hardware", "repro.hd.encoder",
    "repro.hd.item_memory", "repro.hd.encode_pipeline", "repro.hd.train",
    "repro.hd.batching",
)

#: Run ``repro.cli.main(["serve", ..., "--listen", "127.0.0.1:0"])`` on a
#: thread of a fresh interpreter, score one request over the socket with
#: a client made of ``repro.proto`` alone, and report what got imported.
SERVE_PROBE = """
import io, json, os, queue, socket, sys, threading
import numpy as np
import repro.cli
import repro.proto as proto

argv, queries, tenant, banned = json.loads(sys.argv[1])
lines = queue.Queue()

class Lines(io.TextIOBase):
    def write(self, text):
        for line in text.splitlines():
            lines.put(line)
        return len(text)

sys.stdout = Lines()
threading.Thread(
    target=lambda: lines.put(f"exited {repro.cli.main(argv)}"), daemon=True
).start()
while not (line := lines.get(timeout=60)).startswith("listening on "):
    assert not line.startswith("exited"), line
host, _, port = line.split()[-1].rpartition(":")
sock = socket.create_connection((host, int(port)), timeout=30)
session = proto.WireSession("client")

def send(message, version=None):
    proto.sendmsg_all(sock, session.send_parts(message, version=version))

def read():
    while (frame := session.next_frame()) is None:
        session.commit(sock.recv_into(session.recv_buffer()))
    return proto.decode_message(frame)

versions = tuple(proto.SUPPORTED_VERSIONS)
send(proto.Hello(versions=versions), version=min(versions))
session.adopt_version(read().version)
send(proto.ScoreRequest(np.load(queries), tenant=tenant, request_id=1))
reply = read()
sys.__stdout__.write(json.dumps({
    "labels": reply.predictions.tolist(),
    "loaded": sorted(
        m for m in sys.modules
        if any(m == b or m.startswith(b + ".") for b in banned)
    ),
}))
sys.__stdout__.flush()
os._exit(0)
"""


def _run(code: str, *args: str) -> str:
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def _serving_shape(shape: str, tmp_path):
    """(serve arguments, tenant, the artifact that must answer)."""
    rng = spawn(12, "server-imports", shape)
    model = HDModel(
        N_CLASSES, D_HV, rng.choice([-1.0, 1.0], size=(N_CLASSES, D_HV))
    )
    if shape == "dp":
        sensitivity, epsilon, delta = float(np.sqrt(D_HV)), 2.0, 1e-5
        noise_std = gaussian_noise_std(sensitivity, epsilon, delta)
        art = ModelArtifact.build(
            model.with_noise(noise_std, rng=rng),
            store_quantizer=None,
            privacy={"epsilon": epsilon, "delta": delta,
                     "sensitivity": sensitivity, "noise_std": noise_std},
        )
        assert art.is_private
        return [str(art.save(tmp_path / "dp"))], None, art
    art = ModelArtifact.build(
        model, quantizer="bipolar", backend="packed",
        keep_mask=mask_from_seed(D_HV, N_MASKED, MASK_SEED),
        mask_seed=MASK_SEED,
    )
    if shape == "masked":
        return [str(art.save(tmp_path / "masked"))], None, art
    for name in ("t0", "t1"):
        art.save(tmp_path / "fleet" / name)
    return ["--fleet-dir", str(tmp_path / "fleet")], "t1", art


@pytest.mark.parametrize("shape", ["masked", "dp", "fleet"])
def test_serve_listen_imports_only_the_serving_stack(tmp_path, shape):
    serve_args, tenant, art = _serving_shape(shape, tmp_path)
    queries = spawn(13, "server-imports-q").choice([-1.0, 1.0], size=(3, D_HV))
    np.save(tmp_path / "queries.npy", queries)
    argv = ["serve", *serve_args, "--listen", "127.0.0.1:0"]
    got = json.loads(_run(SERVE_PROBE, json.dumps(
        [argv, str(tmp_path / "queries.npy"), tenant, NOT_SERVING]
    )))
    assert got["labels"] == art.engine().predict(queries).tolist()
    # A finite-ε certificate is re-derived on load: that needs the σ
    # calculus of repro.core.privacy, and nothing else of repro.core.
    allowed = ["repro.core", "repro.core.privacy"] if shape == "dp" else []
    assert got["loaded"] == allowed


EXPORTS_PROBE = """
import json, sys
from repro import InferenceEngine, LevelBaseEncoder, fit_hd
before = sorted(m for m in sys.modules if m.startswith("repro.hd."))
import repro, repro.hd
listed = sorted(set(repro.hd.__all__) - set(dir(repro.hd)))
star = {}
exec("from repro.hd import *", star)
print(json.dumps({
    "names": [InferenceEngine.__name__, LevelBaseEncoder.__name__,
              fit_hd.__name__],
    "before": before,
    "not_in_dir": listed,
    "not_starred": sorted(set(repro.hd.__all__) - set(star)),
    "submodule": repro.core.privacy.__name__,
}))
"""


def test_lazy_exports_still_cover_every_listed_name():
    got = json.loads(_run(EXPORTS_PROBE))
    assert got["names"] == ["InferenceEngine", "LevelBaseEncoder", "fit_hd"]
    # the three names load their own modules (and what those import) only
    assert "repro.hd.batching" not in got["before"]
    assert got["not_in_dir"] == got["not_starred"] == []
    # a submodule is still an attribute of its package before its import
    assert got["submodule"] == "repro.core.privacy"
