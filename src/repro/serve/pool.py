"""Multi-process serving: K acceptor workers behind one address.

A single :class:`~repro.serve.ServingFrontend` tops out when its event
loop saturates — every connection's frame decode and scheduler submit
runs on one loop, on one core.  :class:`WorkerPool` scales past that by
running **K independent acceptor processes** that all listen on the
*same* ``host:port`` via ``SO_REUSEPORT``: the kernel hashes incoming
connections across the listening sockets, so each worker owns a slice
of the connections end-to-end (accept → decode → micro-batch → score →
respond) with no shared locks, no proxy hop, and no GIL contention
between slices.

Sharing the model without sharing memory bugs
---------------------------------------------
Every worker loads the same :class:`~repro.serve.ModelArtifact`
directory *read-only* with ``mmap=True``: a dense store is
memory-mapped, so K workers touch one physical copy of it through the
page cache instead of K heap copies, and a packed store's bit planes
(65 KB on disk at paper scale, 34 KB held once a shared magnitude
plane is kept as one row) are copied into each worker's heap, so a later
rewrite of the directory cannot reach a running worker.  Checksums are
verified exactly once, by the parent, before any worker loads — the
workers skip the redundant SHA-256 pass (``verify=False``) on both
startup and ``load`` broadcasts, so a hot-swap hashes the store one
time, not K times.  Nothing about serving is shared mutable state — each
worker has its own registry, scheduler, and engine — which is exactly
why hot-swap stays race-free.

Control channel
---------------
The parent keeps a pipe to every worker.  ``load``/``promote`` are
broadcast to all workers and each applies the registry operation
locally — the per-worker swap is the same atomic, zero-dropped-request
promote a single server does, and the parent collects one ack per
worker so a deployment knows when the fleet is consistent.  ``stats``
aggregates the per-worker scheduler counters; ``stop`` shuts the
listeners down gracefully.  Every ack is bounded by a per-command
timeout: a worker that died or hung answers with a typed
:class:`~repro.serve.WorkerLost` naming the workers, never a parent
that blocks forever.

Supervision
-----------
Workers are processes and processes die.  :meth:`WorkerPool.supervise_once`
is one deterministic supervision pass — it finds dead acceptors (by
exit code, and optionally by a timed ping for hung-but-alive ones),
respawns them, and replays the recorded ``load``/``promote`` history so
the replacement converges on the fleet's current registry state.
``supervise=True`` runs that pass on a background thread every
``supervise_interval_s``.  Because the kernel only hashes connections
to *live* listening sockets, the surviving workers keep serving during
the respawn: a worker crash degrades capacity, it does not drop the
fleet.

    >>> with WorkerPool("artifacts/isolet", workers=4, port=7411) as pool:
    ...     pool.address                      # ("127.0.0.1", 7411)
    ...     pool.load("artifacts/isolet-v2")  # hot-swap on every worker
    ...     pool.stats()                      # one entry per worker

``prive-hd serve ARTIFACT --listen host:port --workers K`` is the CLI
spelling.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import socket
import threading
import time
from pathlib import Path

from repro.proto.wire import DEFAULT_MAX_FRAME_BYTES
from repro.serve.artifact import ModelArtifact
from repro.serve.errors import WorkerLost
from repro.serve.faults import faults
from repro.serve.fleet import ModelFleet
from repro.serve.frontend import FrontendConfig
from repro.serve.scheduler import MicroBatchConfig

__all__ = ["WorkerPool"]


def _worker_main(
    artifact_path: str | None,
    name: str,
    host: str,
    port: int,
    conn,
    config: MicroBatchConfig | None,
    mmap: bool,
    max_frame_bytes: int,
    supported_versions: tuple[int, ...] | None,
    frontend_config: FrontendConfig | None = None,
    loop: str = "asyncio",
    fleet_dir: str | None = None,
    cache_bytes: int | None = None,
    verify: bool = True,
) -> None:
    """One acceptor process: frontend + registry + control-pipe listener.

    Runs until a ``stop`` command (or parent death — pipe EOF) arrives.
    Control commands execute on the event loop thread, so a ``load``'s
    registry swap is ordered with connection handling exactly like an
    in-process promote: batches in flight finish on their version, the
    next flush resolves the new one, zero requests dropped.

    The worker serves one :class:`~repro.serve.ServingAPI`: over the
    tenant directory when ``fleet_dir`` is set (every worker scans the
    same directory and runs its own LRU cache; residency is per-worker,
    page-cache sharing comes from the mmap loads), else over a fleet of
    one built from the artifact.  The control ops (``add_tenant``,
    tenant-scoped ``load``/``promote``) apply to each worker's fleet.
    """
    import asyncio

    from repro.serve.api import ServingAPI
    from repro.serve.frontend import ServingFrontend
    from repro.serve.loops import new_event_loop

    # spawn gives this process a fresh interpreter, so the parent's
    # in-memory fault rules do not carry over — the environment does.
    faults.arm_from_env()
    try:
        if fleet_dir is not None:
            api = ServingAPI(
                ModelFleet.from_dir(fleet_dir, cache_bytes=cache_bytes),
                config=config,
            )
        else:
            # verify=False: the pool parent hashed this directory once
            # before spawning the fleet, so K workers skip K redundant
            # full-store SHA-256 passes (shape/dtype still checked).
            api = ServingAPI.from_artifact(
                artifact_path, name=name, config=config, mmap=mmap,
                verify=verify,
            )
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        conn.send({"ready": False, "error": f"{type(exc).__name__}: {exc}"})
        conn.close()
        return

    def _target(command: dict):
        """``(registry, model)`` a (possibly tenant-scoped) op targets."""
        record, registry = api.fleet.lookup(command.get("tenant"), count=False)
        return registry, record.model_name(command.get("model"))

    async def _run() -> None:
        frontend = ServingFrontend(
            api,
            host=host,
            port=port,
            max_frame_bytes=max_frame_bytes,
            reuse_port=True,
            supported_versions=supported_versions,
            config=frontend_config,
        )
        try:
            await frontend.start()
        except BaseException as exc:  # noqa: BLE001 — reported to the parent
            conn.send(
                {"ready": False, "error": f"{type(exc).__name__}: {exc}"}
            )
            return
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()

        def on_command() -> None:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                # Parent is gone; shut down rather than orphan the port.
                stopping.set()
                return
            action = faults.fire("worker.control")
            if action is not None:
                if action.action == "drop":
                    return  # swallow the command: the ack never comes
                # delay/stall *block the loop* on purpose — this is what
                # a worker wedged in native code looks like from the
                # parent's side of the pipe.
                time.sleep(action.delay_s)
            op = command.get("op")
            seq = command.get("seq")

            def send_reply(payload: dict) -> None:
                payload["seq"] = seq  # parent matches replies to commands
                try:
                    conn.send(payload)
                except (BrokenPipeError, OSError):
                    stopping.set()

            if op == "load":
                # The disk read (+ SHA-256 verify, unless the parent
                # already hashed this directory and broadcast
                # verify=False) + engine prep of a big artifact must
                # not stall this worker's event loop (and with it every
                # in-flight connection): run it on a thread; only the
                # registry's promote — a dict swap under its own lock —
                # lands synchronously inside it.
                async def do_load() -> None:
                    def _apply() -> int:
                        registry, model = _target(command)
                        return registry.load(
                            model,
                            command["path"],
                            mmap=mmap,
                            verify=command.get("verify", True),
                        )

                    try:
                        version = await loop.run_in_executor(None, _apply)
                        send_reply({"ok": True, "version": version})
                    except Exception as exc:  # noqa: BLE001 — reported
                        send_reply(
                            {"ok": False,
                             "error": f"{type(exc).__name__}: {exc}"}
                        )

                loop.create_task(do_load())
                return
            try:
                if op == "stop":
                    reply = {"ok": True}
                    stopping.set()
                elif op == "ping":
                    reply = {"ok": True, "pid": multiprocessing.current_process().pid}
                elif op == "promote":
                    registry, model = _target(command)
                    registry.promote(model, command["version"])
                    reply = {"ok": True}
                elif op == "add_tenant":
                    api.fleet.add_tenant(
                        command["tenant"],
                        command["path"],
                        model=command.get("model") or "model",
                        pin=command.get("pin", False),
                    )
                    reply = {"ok": True}
                elif op == "inject":
                    faults.arm(command["spec"])
                    reply = {"ok": True}
                elif op == "stats":
                    reply = {
                        "ok": True,
                        "stats": api.stats(),
                        "connections_served": frontend.connections_served,
                    }
                else:
                    reply = {"ok": False, "error": f"unknown op {op!r}"}
            except Exception as exc:  # noqa: BLE001 — reported, not fatal
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            send_reply(reply)

        loop.add_reader(conn.fileno(), on_command)
        conn.send({"ready": True, "port": frontend.address[1]})
        try:
            await stopping.wait()
        finally:
            loop.remove_reader(conn.fileno())
            await frontend.stop()

    # Each acceptor owns its loop outright, so the --loop choice lands
    # here: uvloop when requested and importable, else stdlib asyncio.
    event_loop = new_event_loop(loop)
    asyncio.set_event_loop(event_loop)
    try:
        event_loop.run_until_complete(_run())
    finally:
        try:
            event_loop.close()
        finally:
            asyncio.set_event_loop(None)
            api.close()
            conn.close()


class WorkerPool:
    """K acceptor processes serving one artifact behind one address.

    Parameters
    ----------
    artifact_path:
        Directory of the :class:`~repro.serve.ModelArtifact` every
        worker loads (checksum-verified, read-only).  Mutually
        exclusive with ``fleet_dir``.
    fleet_dir:
        Directory of per-tenant artifact directories: each worker
        serves a :class:`~repro.serve.ServingAPI` over a
        :class:`~repro.serve.ModelFleet` of it, with a per-worker
        ``cache_bytes`` LRU budget (tenants admit lazily) and
        cross-tenant coalescing.
    cache_bytes:
        Fleet-mode LRU budget, forwarded to each worker's
        :class:`~repro.serve.ModelFleet`.
    name:
        Registry name the artifact is served under in each worker.
    workers:
        Acceptor process count.  Aggregate throughput scales with
        available cores until the engines saturate them; on a
        single-core host K workers time-share one core and the pool
        buys isolation, not speed.
    host, port:
        Shared listen address.  ``port=0`` picks a free port once (the
        parent reserves it with an ``SO_REUSEPORT`` placeholder bind)
        and every worker binds it.
    config:
        Micro-batching flush policy for each worker's scheduler.
    mmap:
        Memory-map a dense artifact store (default) so the workers
        share one page-cache copy of it; ``False`` gives each worker a
        private heap copy.  Packed planes are heap copies either way.
    max_frame_bytes:
        Per-frame payload cap forwarded to each worker's frontend.
    supported_versions:
        Protocol versions each worker negotiates (default: all).
    frontend_config:
        :class:`~repro.serve.FrontendConfig` applied to each worker's
        frontend (idle/handshake timeouts, write backpressure).
    loop:
        Event-loop implementation each acceptor runs
        (``"asyncio"``/``"uvloop"``; see :mod:`repro.serve.loops`) —
        ``"uvloop"`` degrades to asyncio with a log line when the
        package is not installed.
    start_timeout_s:
        Seconds to wait for every worker to come up before failing.
    supervise:
        Run a background supervisor thread that calls
        :meth:`supervise_once` every ``supervise_interval_s`` seconds,
        respawning dead workers automatically.
    supervise_interval_s:
        Cadence of the background supervisor passes.
    ping_timeout_s:
        Per-worker ack timeout the supervisor's liveness ping uses; a
        worker that cannot answer within it is treated as hung and
        replaced.

    Raises
    ------
    RuntimeError
        If the platform lacks ``SO_REUSEPORT`` or a worker fails to
        start (the failure message is forwarded).
    """

    def __init__(
        self,
        artifact_path: str | Path | None = None,
        *,
        fleet_dir: str | Path | None = None,
        cache_bytes: int | None = None,
        name: str = "model",
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        config: MicroBatchConfig | None = None,
        mmap: bool = True,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        supported_versions: tuple[int, ...] | None = None,
        frontend_config: FrontendConfig | None = None,
        loop: str = "asyncio",
        start_timeout_s: float = 60.0,
        supervise: bool = False,
        supervise_interval_s: float = 0.5,
        ping_timeout_s: float = 5.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if (artifact_path is None) == (fleet_dir is None):
            raise ValueError(
                "give exactly one of artifact_path (single model) or "
                "fleet_dir (multi-tenant fleet)"
            )
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError(
                "WorkerPool needs SO_REUSEPORT, which this platform "
                "does not provide; run a single ServingFrontend instead"
            )
        self.artifact_path = (
            None if artifact_path is None else str(artifact_path)
        )
        self.fleet_dir = None if fleet_dir is None else str(fleet_dir)
        self.name = name
        self.workers = workers
        self.host = host
        self._placeholder: socket.socket | None = None
        if port == 0:
            # Reserve a concrete port for the whole fleet: a bound (but
            # never listening) SO_REUSEPORT socket keeps the number ours
            # without receiving any connections.
            self._placeholder = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            self._placeholder.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
            self._placeholder.bind((host, 0))
            port = self._placeholder.getsockname()[1]
        self.port = port
        # Verify the artifact ONCE, here in the parent, before any
        # worker exists: the SHA-256 pass over the class store happens
        # one time (and warms the page cache the workers' mmaps hit)
        # instead of K times, and a corrupt artifact fails fast with
        # the parent's traceback rather than K worker-startup errors.
        # A fleet dir is only *listed* here — its tenants load lazily,
        # checksum-verified per admission, so a 10k-tenant fleet does
        # not hash 10k artifacts at startup.
        try:
            if self.fleet_dir is not None:
                ModelFleet.from_dir(self.fleet_dir)
            else:
                ModelArtifact.load(self.artifact_path, mmap=True)
        except Exception as exc:
            if self._placeholder is not None:
                self._placeholder.close()
                self._placeholder = None
            raise RuntimeError(
                f"worker pool failed to start: {exc}"
            ) from exc
        self._spawn_args = (
            config,
            mmap,
            max_frame_bytes,
            supported_versions,
            frontend_config,
            loop,
            self.fleet_dir,
            cache_bytes,
            # verify: the parent just hashed a single artifact, so its
            # workers skip the re-hash; fleet workers verify lazily at
            # each tenant's admission instead.
            self.fleet_dir is not None,
        )
        self._start_timeout_s = start_timeout_s
        self._ping_timeout_s = ping_timeout_s
        self._supervise_interval_s = supervise_interval_s
        self._stopped = False
        self._seq = 0
        self.restarts = 0
        # One reentrant lock orders fleet operations, supervision
        # passes, and shutdown against each other: a respawn can never
        # swap a worker's pipe out from under a broadcast in flight.
        self._lock = threading.RLock()
        # Replayed onto respawned workers so they converge on the
        # fleet's current registry state (see _respawn).
        self._registry_log: list[dict] = []
        self._supervisor: threading.Thread | None = None
        self._supervisor_stop = threading.Event()
        self._procs: list = []
        self._conns: list = []
        try:
            for _ in range(workers):
                proc, conn = self._spawn_worker()
                self._procs.append(proc)
                self._conns.append(conn)
            for index, conn in enumerate(self._conns):
                self._await_ready(index, conn)
        except BaseException:
            self.stop()
            raise
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise_loop,
                name="worker-pool-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def _spawn_worker(self):
        """Start one acceptor process; returns ``(proc, parent_conn)``.

        spawn, not fork: each worker gets a clean interpreter (no
        inherited locks or event loops), and the page-cache sharing
        comes from mmap rather than fork-time copy-on-write.
        """
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(
                self.artifact_path,
                self.name,
                self.host,
                self.port,
                child_conn,
                *self._spawn_args,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _await_ready(self, index: int, conn) -> None:
        """Block until worker ``index`` reports its listener is bound."""
        if not conn.poll(self._start_timeout_s):
            raise RuntimeError(
                f"worker {index} did not start within "
                f"{self._start_timeout_s}s"
            )
        ready = conn.recv()
        if not ready.get("ready"):
            raise RuntimeError(
                f"worker {index} failed to start: "
                f"{ready.get('error', 'unknown error')}"
            )

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The shared ``(host, port)`` every worker listens on."""
        return self.host, self.port

    @staticmethod
    def _recv_matching(conn, seq: int, deadline: float):
        """The reply whose ``seq`` matches, or ``None`` on timeout/EOF.

        Replies to *earlier* commands that timed out may still be
        sitting in the pipe; the sequence number lets us discard them
        instead of mis-attributing them to the current command (which
        would leave the channel off by one forever).
        """
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                if not conn.poll(remaining):
                    return None
                reply = conn.recv()
            except (EOFError, OSError):
                return None
            if reply.get("seq") == seq:
                return reply
            # stale reply from a previously timed-out command: drop it

    def _broadcast(self, command: dict, *, timeout_s: float = 60.0) -> list:
        """Send one control command to every worker; collect the acks.

        A partially-applied fleet operation is loud, never silent — and
        *typed*: workers whose pipe broke or that never acked within
        ``timeout_s`` raise :class:`~repro.serve.WorkerLost` naming
        them (the supervisor's cue to replace them); workers that
        answered with an application error raise ``RuntimeError``.  The
        parent never blocks past the deadline on a dead worker.
        """
        with self._lock:
            if self._stopped:
                raise RuntimeError("pool is stopped")
            self._seq += 1
            command = dict(command, seq=self._seq)
            lost: list[int] = []
            sent: set[int] = set()
            for index, conn in enumerate(self._conns):
                try:
                    conn.send(command)
                    sent.add(index)
                except (BrokenPipeError, OSError):
                    lost.append(index)
            deadline = time.monotonic() + timeout_s
            replies = []
            errors = []
            for index, conn in enumerate(self._conns):
                if index not in sent:
                    replies.append(None)
                    continue
                reply = self._recv_matching(conn, self._seq, deadline)
                replies.append(reply)
                if reply is None:
                    lost.append(index)
                elif not reply.get("ok"):
                    errors.append(
                        f"worker {index}: "
                        f"{reply.get('error', 'unknown error')}"
                    )
            if lost:
                raise WorkerLost(
                    f"{command.get('op')}: no ack from worker(s) "
                    f"{sorted(lost)} within {timeout_s}s "
                    "(dead or hung; supervise_once() replaces them)",
                    workers=sorted(lost),
                )
            if errors:
                raise RuntimeError(
                    f"{command.get('op')} failed on {len(errors)}/"
                    f"{len(self._conns)} workers: " + "; ".join(errors)
                )
            return replies

    def _command_one(
        self, index: int, command: dict, *, timeout_s: float
    ) -> dict | None:
        """One command to one worker; the ack, or ``None`` if lost."""
        with self._lock:
            self._seq += 1
            conn = self._conns[index]
            try:
                conn.send(dict(command, seq=self._seq))
            except (BrokenPipeError, OSError):
                return None
            return self._recv_matching(
                conn, self._seq, time.monotonic() + timeout_s
            )

    # ------------------------------------------------------------------
    # fleet-wide registry operations
    # ------------------------------------------------------------------
    def ping(self, *, timeout_s: float = 5.0) -> list[int]:
        """Liveness check; returns each worker's PID.

        Raises :class:`~repro.serve.WorkerLost` (naming the workers)
        when any worker fails to ack within ``timeout_s``.
        """
        return [
            r["pid"]
            for r in self._broadcast({"op": "ping"}, timeout_s=timeout_s)
        ]

    def load(
        self,
        path: str | Path,
        *,
        model: str | None = None,
        tenant: str | None = None,
    ) -> int:
        """Hot-swap every worker to a new artifact directory.

        ``tenant`` scopes the swap to one fleet tenant's registry — the
        same zero-dropped-request promote, applied to that tenant on
        every worker.

        Each worker loads (checksum-verified) and promotes the artifact
        through its local registry — the same atomic swap a single
        server does, so no worker drops a request.  Returns the version
        number the fleet converged on; raises if any worker failed or
        the workers disagree (which would mean their registries have
        diverged).

        Checksum verification happens exactly once, in the parent,
        before the broadcast: a corrupt artifact is rejected here with
        no worker registry touched, and the K workers load with
        ``verify=False`` — shape/dtype still checked, but the
        full-store SHA-256 pass is not repeated K times per swap (the
        parent's pass also warmed the page cache their mmaps read).

        Crash-mid-swap safety: the command is recorded in the replay
        log *before* it is broadcast, so if a worker dies mid-swap
        (:class:`~repro.serve.WorkerLost`), the survivors have applied
        it and the respawned replacement replays it — the fleet
        converges instead of serving two model versions forever.  If
        the load failed with an application error (bad path), no
        registry changed and the entry is rolled back.
        """
        try:
            ModelArtifact.load(path, mmap=True)
        except Exception as exc:
            # Rejected in the parent: no broadcast, no worker registry
            # touched, no replay-log entry to roll back.
            raise RuntimeError(f"load failed: {exc}") from exc
        entry = {
            "op": "load",
            "path": str(path),
            "model": model,
            "tenant": tenant,
            "verify": False,
        }
        with self._lock:
            self._registry_log.append(entry)
            try:
                replies = self._broadcast(entry)
            except WorkerLost:
                raise  # survivors applied it; keep the entry for replay
            except BaseException:
                self._registry_log.remove(entry)
                raise
        versions = sorted({r["version"] for r in replies})
        if len(versions) != 1:
            raise RuntimeError(
                f"workers diverged: new artifact got versions {versions}"
            )
        return versions[0]

    def promote(
        self,
        version: int,
        *,
        model: str | None = None,
        tenant: str | None = None,
    ) -> None:
        """Atomically point every worker at an already-loaded version.

        The rollback path: after ``load`` bumped the fleet to vN,
        ``promote(vN-1)`` swings every worker back with zero dropped
        requests.  Recorded in the replay log exactly like ``load``.
        ``tenant`` scopes the promote to one fleet tenant.
        """
        entry = {
            "op": "promote",
            "version": int(version),
            "model": model,
            "tenant": tenant,
        }
        with self._lock:
            self._registry_log.append(entry)
            try:
                self._broadcast(entry)
            except WorkerLost:
                raise  # survivors applied it; keep the entry for replay
            except BaseException:
                self._registry_log.remove(entry)
                raise

    def add_tenant(
        self,
        tenant: str,
        path: str | Path,
        *,
        model: str = "model",
        pin: bool = False,
    ) -> None:
        """Register a new fleet tenant on every worker.

        The registration is lazy on each worker (a path, not a load —
        each worker's LRU cache admits the tenant on first traffic) and
        is recorded in the replay log, so a respawned worker converges
        on the same tenant set.
        """
        entry = {
            "op": "add_tenant",
            "tenant": tenant,
            "path": str(path),
            "model": model,
            "pin": pin,
        }
        with self._lock:
            self._registry_log.append(entry)
            try:
                self._broadcast(entry)
            except WorkerLost:
                raise  # survivors applied it; keep the entry for replay
            except BaseException:
                self._registry_log.remove(entry)
                raise

    def stats(self) -> list[dict]:
        """Per-worker scheduler counters + connections served."""
        return [
            {
                "stats": r["stats"],
                "connections_served": r["connections_served"],
            }
            for r in self._broadcast({"op": "stats"})
        ]

    def inject(self, spec: str, *, worker: int | None = None) -> None:
        """Arm a fault rule (see :mod:`repro.serve.faults`) in workers.

        ``worker=None`` arms every worker; an index arms exactly one —
        how the chaos harness makes *one* acceptor of a fleet crash on
        its Nth control command while its siblings stay healthy.
        """
        if worker is None:
            self._broadcast({"op": "inject", "spec": spec})
            return
        reply = self._command_one(
            worker, {"op": "inject", "spec": spec}, timeout_s=10.0
        )
        if reply is None:
            raise WorkerLost(
                f"inject: no ack from worker {worker}", workers=(worker,)
            )
        if not reply.get("ok"):
            raise RuntimeError(
                f"inject failed on worker {worker}: "
                f"{reply.get('error', 'unknown error')}"
            )

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def alive(self) -> list[bool]:
        """Per-worker process liveness (exit-code check, no pipe I/O)."""
        return [proc.is_alive() for proc in self._procs]

    def kill_worker(self, index: int) -> int:
        """Hard-kill worker ``index`` (SIGKILL); returns its old PID.

        The chaos hook: simulates an acceptor crashing mid-traffic.
        The kernel stops hashing new connections to the dead listener,
        so surviving workers keep serving; in-flight requests on the
        killed worker's connections fail at the socket and are the
        client's to retry.  :meth:`supervise_once` replaces the worker.
        """
        proc = self._procs[index]
        pid = proc.pid
        proc.kill()
        proc.join(timeout=10.0)
        return pid

    def supervise_once(self, *, ping: bool = False) -> list[int]:
        """One deterministic supervision pass; respawned worker indices.

        Finds workers that died (exit code) — and, with ``ping=True``,
        workers that are alive but cannot ack a ping within the pool's
        ``ping_timeout_s`` (wedged event loop, stuck native call) —
        terminates what is left of them, and respawns replacements that
        replay the recorded ``load``/``promote`` history so their
        registries converge on the fleet's current state.  Tests call
        this directly for sleep-free determinism; ``supervise=True``
        runs it on the background thread.
        """
        with self._lock:
            if self._stopped:
                return []
            respawned = []
            for index, proc in enumerate(self._procs):
                # is_alive() alone has a blind spot: a just-crashed
                # child delivers its pipe EOF (what made a broadcast
                # raise WorkerLost) a beat before the process is
                # reapable, so waitpid still says "alive".  The
                # sentinel becomes ready at fd-teardown — the same
                # moment as that EOF — closing the window.
                dead = (
                    not proc.is_alive()
                    or bool(
                        multiprocessing.connection.wait(
                            [proc.sentinel], timeout=0
                        )
                    )
                )
                if not dead and ping:
                    reply = self._command_one(
                        index,
                        {"op": "ping"},
                        timeout_s=self._ping_timeout_s,
                    )
                    dead = reply is None
                if dead:
                    self._respawn(index)
                    respawned.append(index)
            return respawned

    def _respawn(self, index: int) -> None:
        """Replace worker ``index`` with a fresh, converged process."""
        old_proc = self._procs[index]
        old_conn = self._conns[index]
        if old_proc.is_alive():
            old_proc.terminate()
            old_proc.join(timeout=10.0)
            if old_proc.is_alive():  # pragma: no cover - defensive
                old_proc.kill()
                old_proc.join(timeout=10.0)
        try:
            old_conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        proc, conn = self._spawn_worker()
        self._await_ready(index, conn)
        # Replay the registry history on the replacement *before* it is
        # visible to fleet operations, so a concurrent load() can never
        # interleave with the catch-up (we hold the lock throughout).
        for entry in self._registry_log:
            try:
                conn.send(dict(entry, seq=0))
            except (BrokenPipeError, OSError) as exc:
                raise WorkerLost(
                    f"respawned worker {index} died during registry "
                    "replay",
                    workers=(index,),
                ) from exc
            reply = self._recv_matching(
                conn, 0, time.monotonic() + self._start_timeout_s
            )
            if reply is None or not reply.get("ok"):
                detail = (
                    "no reply"
                    if reply is None
                    else reply.get("error", "unknown error")
                )
                raise WorkerLost(
                    f"respawned worker {index} failed to replay "
                    f"{entry.get('op')}: {detail}",
                    workers=(index,),
                )
        self._procs[index] = proc
        self._conns[index] = conn
        self.restarts += 1

    def _supervise_loop(self) -> None:
        while not self._supervisor_stop.wait(self._supervise_interval_s):
            try:
                self.supervise_once(ping=True)
            except Exception:  # noqa: BLE001 — supervision must survive
                # A failed respawn is retried on the next pass; the
                # failure itself also surfaces on the next fleet op.
                pass

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self, *, timeout_s: float = 30.0) -> None:
        """Stop every worker and release the shared port (idempotent)."""
        if self._supervisor is not None:
            self._supervisor_stop.set()
            self._supervisor.join(timeout=timeout_s)
            self._supervisor = None
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._seq += 1
            for conn in self._conns:
                try:
                    conn.send({"op": "stop", "seq": self._seq})
                except (BrokenPipeError, OSError):
                    pass
            deadline = time.monotonic() + timeout_s
            for conn in self._conns:
                self._recv_matching(conn, self._seq, deadline)
                conn.close()
            for proc in self._procs:
                proc.join(timeout=timeout_s)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join(timeout=5.0)
            if self._placeholder is not None:
                self._placeholder.close()
                self._placeholder = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "stopped" if self._stopped else f"{self.workers} workers"
        source = self.artifact_path or self.fleet_dir
        return (
            f"WorkerPool({source!r}, {state}, "
            f"{self.host}:{self.port})"
        )
