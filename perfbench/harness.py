"""Set-up, process and measurement helpers shared by the workloads.

Everything here reaches the program only through its stable entry
points: the ``repro.cli`` ``serve`` command run as a child process, the
public training/artifact APIs (``make_isolet``, the encoders,
``fit_hd``/``HDModel``, ``ModelArtifact.build``/``save``), and the
server's own ``listening on host:port`` line and ``/stats`` route.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for artifacts and span files, inside the checkout
TMP_ROOT = ROOT / ".perfbench_tmp"

#: one BLAS/OpenMP thread per process and a fixed hash seed, for the
#: benchmark process and the server alike: with default BLAS threads a
#: single-row client encode ran at cpu/wall ~1.9 and took both cores of
#: a 2-core host from the server.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: the model every workload serves: ISOLET-shaped (d_in=617, 26
#: classes), level-base, d_hv=10,000, bipolar, with the §III-C mask
D_HV = 10_000
N_TRAIN = 260
N_QUERY_POOL = 1200
N_MASKED = 5_000
MASK_SEED = 7
DATA_SEED = 0

SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 20.0


class BenchError(RuntimeError):
    """A run that cannot produce a valid result (reported, exit != 0)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def host_info() -> dict:
    """What the numbers depend on: cores, versions, numba, BLAS."""
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas_info.get('name', '?')} {blas_info.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": len(_CPUS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "numba": has_numba,
        "cpus_client_server": None if cpu_split() is None else [
            sorted(c) for c in cpu_split()],
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


#: the CPUs this process may use, read before it pins itself
_CPUS = sorted(os.sched_getaffinity(0))


def cpu_split() -> tuple[set, set] | None:
    """(client CPUs, server CPUs), or None on a single-CPU host.

    The edge device and the cloud host are different machines; pinning
    them to disjoint CPUs keeps a server burst (NumPy kernels release
    the GIL, so one server can briefly use two cores) from delaying the
    client's sends, and the reverse.
    """
    if len(_CPUS) < 2:
        return None
    return {_CPUS[-1]}, set(_CPUS[:-1])


def pin_client() -> None:
    split = cpu_split()
    if split is not None:
        os.sched_setaffinity(0, split[0])


def make_tmp_dir(prefix: str) -> Path:
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# model building (public training + artifact APIs)
# ----------------------------------------------------------------------
def load_data():
    from repro.data.isolet import make_isolet

    return make_isolet(N_TRAIN, N_QUERY_POOL, seed=DATA_SEED)


def make_encoder(data):
    from repro.hd import LevelBaseEncoder

    lo, hi = data.feature_range
    return LevelBaseEncoder(data.d_in, D_HV, lo=lo, hi=hi, seed=DATA_SEED)


def build_artifacts(n_models: int, *, with_encoder: bool = True) -> list:
    """Train ``n_models`` servable artifacts from scratch.

    Model 0 bundles every training row (``fit_hd``); further models
    bundle seeded half-subsets of the same encodings, so a fleet gets
    distinct class stores for the price of one encode pass.  All share
    the encoder, the bipolar quantizer and the deployment mask.
    ``with_encoder=False`` leaves the encoder config out of the
    manifests: such an artifact serves pre-encoded queries only.
    """
    from repro.hd import get_quantizer
    from repro.hd.model import HDModel
    from repro.hd.prune import mask_from_seed
    from repro.hd.train import fit_hd
    from repro.serve import ModelArtifact

    data = load_data()
    encoder = make_encoder(data)
    keep = mask_from_seed(D_HV, N_MASKED, MASK_SEED)
    if n_models == 1:
        models = [fit_hd(encoder, data.X_train, data.y_train, data.n_classes,
                         quantizer="bipolar")]
    else:
        H = get_quantizer("bipolar")(encoder.encode(data.X_train))
        rng = np.random.default_rng(DATA_SEED)
        models = [HDModel.from_encodings(H, data.y_train, data.n_classes)]
        for _ in range(n_models - 1):
            rows = rng.random(len(data.y_train)) < 0.5
            models.append(HDModel.from_encodings(
                H[rows], data.y_train[rows], data.n_classes))
    return [
        ModelArtifact.build(
            model,
            quantizer="bipolar",
            backend="packed",
            encoder=encoder if with_encoder else None,
            keep_mask=keep,
            mask_seed=MASK_SEED,
            metadata={"dataset": data.name, "dataset_seed": DATA_SEED},
        )
        for model in models
    ]


def obfuscator_for(encoder):
    """The client-side §III-C pipeline matching the served artifacts."""
    from repro.core.inference_privacy import InferenceObfuscator, ObfuscationConfig

    return InferenceObfuscator(
        encoder,
        ObfuscationConfig(quantizer="bipolar", n_masked=N_MASKED,
                          mask_seed=MASK_SEED),
    )


def query_rows(data, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` seeded feature rows: pool rows plus a little seeded jitter."""
    X = data.X_test[rng.integers(0, len(data.X_test), size=n)]
    lo, hi = data.feature_range
    return np.clip(X + rng.normal(0.0, 0.02, size=X.shape), lo, hi)


# ----------------------------------------------------------------------
# the server child process
# ----------------------------------------------------------------------
class ServerProcess:
    """``serve … --listen 127.0.0.1:0 --http-port 0`` as a child process.

    Ready means the child printed its ``listening on host:port`` and
    ``http ops on host:port`` lines; there is no connect-and-retry
    polling.  ``launcher`` replaces ``-m repro.cli`` (the traced run
    starts the server through the benchmark's wrapping launcher).
    """

    def __init__(self, serve_args: list[str], *, launcher: list[str] | None = None):
        cmd = [sys.executable]
        cmd += launcher if launcher is not None else ["-m", "repro.cli"]
        cmd += ["serve", *serve_args, "--listen", "127.0.0.1:0",
                "--http-port", "0"]
        self.proc = subprocess.Popen(
            cmd,
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self.pid = self.proc.pid
        split = cpu_split()
        if split is not None:
            os.sched_setaffinity(self.pid, split[1])
        self.address: tuple[str, int] | None = None
        self.http_address: tuple[str, int] | None = None
        self._stderr: list[str] = []
        self._threads: list[threading.Thread] = []

    def wait_listening(self) -> None:
        """Block until both listen lines appeared on the child's stdout."""
        # stderr is drained from the start so a chatty child never blocks.
        self._spawn_drain(self.proc.stderr, self._stderr)
        done = threading.Event()
        lines: list[str] = []

        def read_banner():
            for line in self.proc.stdout:
                lines.append(line)
                if line.startswith("listening on "):
                    self.address = _host_port(line)
                elif line.startswith("http ops on "):
                    self.http_address = _host_port(line)
                if self.address and self.http_address:
                    break
            done.set()

        reader = threading.Thread(target=read_banner, daemon=True)
        reader.start()
        if not done.wait(SERVER_START_TIMEOUT_S) or self.address is None:
            self.stop()
            raise BenchError(
                "server did not report its listen address; stdout: "
                f"{''.join(lines)[-500:]!r} stderr: {''.join(self._stderr)[-800:]!r}"
            )
        reader.join()
        self._spawn_drain(self.proc.stdout, [])

    def _spawn_drain(self, stream, sink: list) -> None:
        def drain():
            for line in stream:
                sink.append(line)

        t = threading.Thread(target=drain, daemon=True)
        t.start()
        self._threads.append(t)

    def cpu_seconds(self) -> float:
        """User + system CPU of the server process (all its threads)."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        # fields[11], fields[12] are utime, stime (stat fields 14, 15)
        return (int(fields[11]) + int(fields[12])) / ticks

    def rss_mib(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmRSS missing from /proc status")

    def stats(self) -> dict:
        """The server's ``/stats`` JSON over the HTTP ops port."""
        host, port = self.http_address
        with urllib.request.urlopen(f"http://{host}:{port}/stats", timeout=10) as r:
            return json.loads(r.read())

    def stop(self) -> None:
        """SIGINT (clean shutdown, spans flushed), then SIGKILL; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for t in self._threads:
            t.join(5)
        for stream in (self.proc.stdout, self.proc.stderr):
            stream.close()


def _host_port(line: str) -> tuple[str, int]:
    host, _, port = line.split()[-1].rpartition(":")
    return host, int(port)


# ----------------------------------------------------------------------
# numbers
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class PhaseMeter:
    """Wall, benchmark-process CPU and server CPU over a timed phase."""

    def __init__(self, server: ServerProcess):
        self.server = server

    def __enter__(self) -> "PhaseMeter":
        # no cyclic-GC pauses inside the timed phase
        gc.collect()
        gc.disable()
        self.server_cpu0 = self.server.cpu_seconds()
        self.cpu0 = time.process_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.t0
        self.client_cpu_s = time.process_time() - self.cpu0
        gc.enable()
        self.server_cpu_s = self.server.cpu_seconds() - self.server_cpu0
        self.server_rss_mib = self.server.rss_mib()
