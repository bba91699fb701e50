"""The network front-end: an asyncio socket server over the ServingAPI.

This is the cloud side of the §III-C split made real: remote clients
connect over TCP, speak the versioned binary protocol of
:mod:`repro.proto`, and get micro-batched packed scoring with zero-drop
hot-swap — the exact execution path in-process callers get, because
every decoded request funnels into the same
:class:`~repro.serve.ServingAPI` /
:class:`~repro.serve.MicroBatchScheduler`.  Crucially, the frontend can
only *receive* what the protocol can express: encoded (quantized,
masked, bit-packed) query hypervectors.  Raw features and codebooks
have no frame type, so this process never sees them.

Connection discipline
---------------------
* Handshake first: the client's :class:`~repro.proto.Hello` is answered
  by :class:`~repro.proto.Welcome` carrying the negotiated protocol
  version; a client offering no common version gets a typed
  ``unsupported-version`` :class:`~repro.proto.ErrorReply` and a close.
* Requests on one connection are answered in order (responses echo the
  request's correlation id); per-connection throughput comes from
  batching rows into one :class:`~repro.proto.ScoreRequest`, aggregate
  throughput from many connections — concurrent connections coalesce
  into shared micro-batches, which is the whole point.
* Application errors (unknown model, wrong ``d_hv``) are typed replies
  on a *healthy* connection; framing violations (bad magic, oversize
  length, truncated or trailing bytes) poison the stream and close it
  after a best-effort ``bad-frame`` reply.
* One read dispatches every frame it completed; a flush's completions
  wake the loop once, and each connection's replies leave in one write.
* A scoring request that arrives alone — its connection has nothing
  else in flight and no frame buffered behind it — is offered to the
  scheduler's inline executor: if that scheduler is idle, the request is
  scored on the loop inside its own dispatch and its reply written from
  there, with no flusher wake-up and no inbox hop.
* Every scoring request carries a :class:`~repro.obs.RequestRecord`
  from decode to reply written; ``/stats`` ``"stages"`` reports the
  per-stage latency (see :mod:`repro.obs`).

A thin HTTP/1.0 adapter (:class:`HttpOpsAdapter`, enabled with
``http_port``) exposes the ops endpoints — ``/healthz``, ``/models``,
``/stats`` and ``/tenants`` — as JSON for probes
and humans; it serves *metadata only* and cannot score.

    >>> api = ServingAPI.from_artifact("artifacts/isolet-v1")
    >>> with FrontendHandle(api, port=7411) as handle:   # background thread
    ...     print(handle.address)                        # ('127.0.0.1', 7411)

For a foreground server (the CLI's ``serve --listen``) use
:meth:`ServingFrontend.run`.
"""

from __future__ import annotations

import asyncio
import functools
import json
import socket as socket_module
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.obs import RequestRecord
from repro.proto.messages import (
    ErrorReply,
    ModelInfoRequest,
    ScoreRequest,
    Welcome,
    decode_message,
)
from repro.proto.session import WireSession
from repro.proto.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    SUPPORTED_VERSIONS,
    Frame,
    ProtocolError,
)
from repro.serve.api import ServingAPI
from repro.serve.errors import DeadlineExceeded, Overloaded, TenantNotFound
from repro.serve.faults import faults
from repro.serve.loops import new_event_loop
from repro.serve.scheduler import _call_after_flush

__all__ = ["FrontendConfig", "ServingFrontend", "FrontendHandle"]


@dataclass(frozen=True)
class FrontendConfig:
    """Connection-discipline knobs of a :class:`ServingFrontend`.

    Defaults reproduce the historical hard-coded behavior exactly; a
    deployment tightens them per its SLOs (``prive-hd serve`` exposes
    the timeouts as flags — see ``docs/operations.md`` for tuning
    guidance).

    Attributes
    ----------
    handshake_timeout_s:
        Seconds a fresh connection may sit without completing its
        :class:`~repro.proto.Hello` before the server closes it
        (``None`` = wait forever).  Bounds the sockets an idle port
        scanner can pin.
    idle_timeout_s:
        Seconds a negotiated connection may sit between request frames
        before the server closes it (``None`` = wait forever).
    http_timeout_s:
        Per-read timeout of the HTTP ops adapter (was a hard-coded
        ``5.0``).
    stop_grace_s:
        Seconds :meth:`ServingFrontend.stop` waits for live connections
        to close before aborting them (was ``5.0``).
    start_timeout_s:
        Seconds :class:`FrontendHandle` waits for its background loop
        to bind the listeners (was ``30.0``).
    close_timeout_s:
        Seconds :class:`FrontendHandle.close` waits for the loop
        thread to stop and join (was ``10.0``).
    write_high_water_bytes:
        Per-connection transport write-buffer high-water mark.  Once a
        slow-reading client's unsent replies cross it, the transport
        pauses writing and the server *pauses reading* from that
        connection until the buffer drains below the low-water mark —
        per-connection backpressure instead of unbounded server-side
        buffering.  ``None`` keeps the event loop's default (64 KiB).
    """

    handshake_timeout_s: float | None = None
    idle_timeout_s: float | None = None
    http_timeout_s: float = 5.0
    stop_grace_s: float = 5.0
    start_timeout_s: float = 30.0
    close_timeout_s: float = 10.0
    write_high_water_bytes: int | None = None

    def __post_init__(self):
        for name in (
            "handshake_timeout_s", "idle_timeout_s", "http_timeout_s",
            "stop_grace_s", "start_timeout_s", "close_timeout_s",
            "write_high_water_bytes",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")


class ServingFrontend:
    """Asyncio TCP server speaking the typed serving protocol.

    Parameters
    ----------
    api:
        The :class:`~repro.serve.ServingAPI` answering decoded requests
        (shared with any in-process callers — one fleet, one set of
        micro-batchers).
    host, port:
        Bind address of the binary protocol listener; ``port=0`` picks
        a free port (read it from :attr:`address` after :meth:`start`).
    http_port:
        Optional second listener serving the JSON ops endpoints
        (``/healthz``, ``/models``, ``/stats``, ``/tenants``); ``None``
        disables it, ``0`` picks a free port.
    max_frame_bytes:
        Per-frame payload cap forwarded to the decoder.
    max_inflight:
        Unanswered requests one connection may pipeline before the
        frontend stops reading from it — together with
        ``write_high_water_bytes``, this bounds the memory a
        slow-reading (or never-reading) client can pin server-side.
    name:
        Server identification sent in the :class:`Welcome` frame.
    reuse_port:
        Bind with ``SO_REUSEPORT`` so several frontends — the acceptor
        processes of a :class:`~repro.serve.WorkerPool` — can listen on
        one address and let the kernel balance connections across them.
    supported_versions:
        Protocol versions this server negotiates (default: everything
        this build speaks).  Pinning ``(1,)`` serves v2 clients in the
        v1 dialect — the downgrade path the cross-version tests
        exercise.
    config:
        :class:`FrontendConfig` with the connection-discipline knobs
        (handshake/idle timeouts, write high-water backpressure, stop
        grace); ``None`` uses the defaults, which reproduce the
        historical hard-coded behavior.
    loop:
        Event-loop flavor for :meth:`run` (and
        :class:`FrontendHandle`'s background thread): ``"asyncio"`` or
        ``"uvloop"``.  Requesting uvloop on a host without it falls
        back to asyncio with one INFO log — see
        :mod:`repro.serve.loops`.
    """

    def __init__(
        self,
        api: ServingAPI,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: int | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_inflight: int = 64,
        name: str = "prive-hd",
        reuse_port: bool = False,
        supported_versions: tuple[int, ...] | None = None,
        config: FrontendConfig | None = None,
        loop: str = "asyncio",
    ):
        self.api = api
        self.config = config if config is not None else FrontendConfig()
        self.host = host
        self.port = port
        self.http_port = http_port
        self.max_frame_bytes = max_frame_bytes
        self.max_inflight = max_inflight
        self.name = name
        self.reuse_port = reuse_port
        self.loop = loop
        self.supported_versions = (
            tuple(SUPPORTED_VERSIONS)
            if supported_versions is None
            else tuple(sorted(int(v) for v in supported_versions))
        )
        self.connections_served = 0
        self.frames_rejected = 0
        self._server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[_Connection] = set()
        # (connection, ledger record, future) appended by the flusher
        # thread, emptied on the loop by _drain_inbox (_wake_pending:
        # scheduled).
        self._inbox: deque = deque()
        self._wake_pending = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind both listeners; returns the protocol ``(host, port)``."""
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port, **kwargs
        )
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, self.host, self.http_port
            )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` of the binary protocol listener."""
        if self._server is None:
            raise RuntimeError("frontend is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def http_address(self) -> tuple[str, int] | None:
        """Bound ``(host, port)`` of the HTTP ops listener, if enabled."""
        if self._http_server is None:
            return None
        return self._http_server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Stop accepting connections and close the listeners.

        Live connections are closed at the transport (flushing buffered
        replies); any still open after ``stop_grace_s`` are aborted.
        """
        servers = [s for s in (self._server, self._http_server) if s]
        for server in servers:
            server.close()
        for conn in list(self._connections):
            conn._close()
        deadline = time.monotonic() + self.config.stop_grace_s
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for conn in list(self._connections):
            conn.transport.abort()
        for server in servers:
            await server.wait_closed()

    def run(self) -> None:
        """Blocking convenience: start and serve until interrupted.

        Runs on the loop flavor this frontend was constructed with
        (``loop="uvloop"`` where available, stdlib asyncio otherwise).
        """

        async def _main():
            await self.start()
            host, port = self.address
            print(f"listening on {host}:{port}", flush=True)
            if self.http_address is not None:
                h, p = self.http_address
                print(f"http ops on {h}:{p}", flush=True)
            await self._server.serve_forever()

        event_loop = new_event_loop(self.loop)
        try:
            asyncio.set_event_loop(event_loop)
            event_loop.run_until_complete(_main())
        except KeyboardInterrupt:
            pass
        finally:
            asyncio.set_event_loop(None)
            event_loop.close()

    # ------------------------------------------------------------------
    # completions (the flusher thread -> the loop)
    # ------------------------------------------------------------------
    def _complete(self, conn: "_Connection", record, future) -> None:
        """A scoring future finished (the flusher thread): queue its reply.

        Only the first completion of a burst wakes the loop, once its
        flush has resolved every future: N answers cost one hop.
        """
        self._inbox.append((conn, record, future))
        # No lock: the one flusher thread (or the loop) completes, and a
        # drain clears the flag before it pops, so a set flag means a
        # pending drain pops this; a race with a drain only wakes twice.
        if not self._wake_pending:
            self._wake_pending = True
            _call_after_flush(self._wake)

    def _wake(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self._drain_inbox)
        except RuntimeError:
            pass  # the loop is gone (a stalled flush ran past shutdown)

    def _drain_inbox(self) -> None:
        """Render every queued reply; one write per connection (loop)."""
        self._wake_pending = False
        inbox = self._inbox
        touched: dict[_Connection, None] = {}
        drained = time.monotonic_ns()
        while inbox:
            conn, record, future = inbox.popleft()
            record.drained = drained
            conn._answer(future, record)
            touched[conn] = None
        for conn in touched:
            conn._flush()

    @staticmethod
    def _error_reply(exc: BaseException, request_id: int) -> ErrorReply:
        """Map an application exception to its typed wire error."""
        if isinstance(exc, Overloaded):
            return ErrorReply.overloaded(
                str(exc),
                retry_after_ms=exc.retry_after_ms,
                request_id=request_id,
            )
        if isinstance(exc, DeadlineExceeded):
            return ErrorReply(
                code="deadline-exceeded",
                message=str(exc),
                request_id=request_id,
            )
        if isinstance(exc, ProtocolError):
            return ErrorReply(
                code="bad-frame", message=str(exc), request_id=request_id
            )
        if isinstance(exc, TenantNotFound):
            # Before the KeyError arm: a missing *tenant* is not a
            # missing model, and unlike "overloaded" it is not
            # retryable — the tenant will not appear by waiting.
            return ErrorReply(
                code="unknown-tenant",
                message=str(exc),
                request_id=request_id,
            )
        if isinstance(exc, KeyError):
            return ErrorReply(
                code="unknown-model",
                message=str(exc).strip("'\""),
                request_id=request_id,
            )
        if isinstance(exc, ValueError):
            return ErrorReply(
                code="bad-request", message=str(exc), request_id=request_id
            )
        return ErrorReply(
            code="internal",
            message=f"{type(exc).__name__}: {exc}",
            request_id=request_id,
        )

    # ------------------------------------------------------------------
    # HTTP ops adapter
    # ------------------------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.0, JSON out, connection-per-request.

        Metadata only — there is deliberately no scoring route, so an
        ops port exposed wider than the binary port cannot be used to
        query the model.
        """
        http_timeout = self.config.http_timeout_s
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=http_timeout
            )
            while True:  # drain headers; we route on the request line only
                line = await asyncio.wait_for(
                    reader.readline(), timeout=http_timeout
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            method = parts[0].upper() if parts else ""
            path = parts[1].split("?")[0] if len(parts) > 1 else ""
            route = {
                "/healthz": self.api.health, "/health": self.api.health,
                "/models": self.api.models, "/stats": self.api.stats,
                "/tenants": self.api.tenants_summary,
            }.get(path)
            if method != "GET":
                status, body = 405, {"error": "method not allowed"}
            elif route is None:
                status, body = 404, {"error": f"no route {path!r}"}
            else:
                status, body = 200, route()
            payload = json.dumps(body, indent=2, sort_keys=True).encode()
            reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}
            writer.write(
                (
                    f"HTTP/1.0 {status} {reason.get(status, 'Error')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
                + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, UnicodeDecodeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = self._server is not None and self._server.is_serving()
        return (
            f"ServingFrontend(api={self.api!r}, "
            f"bound={self.address if bound else None})"
        )


class _Connection(asyncio.BufferedProtocol):
    """One connection: a transport reading into a :class:`WireSession`.

    Reads pause at ``max_inflight`` unanswered requests, above the write
    high-water mark and while a ``frontend.read`` delay holds a frame.
    """

    def __init__(self, frontend: ServingFrontend):
        self.frontend = frontend
        self.session = WireSession(
            "server", max_frame_bytes=frontend.max_frame_bytes,
            supported_versions=frontend.supported_versions,
        )
        self.transport: asyncio.Transport | None = None
        self.closed = False
        self.inflight = 0  # dispatched requests not yet answered
        self._loop = frontend._loop
        self._out: list[bytes] = []
        self._logged: list = []  # ledger records of the replies in _out
        self._held: Frame | None = None  # released by a read-delay fault
        self._delayed = self._write_paused = self._reading_paused = False
        self._pumping = self._eof = False
        self._timer: asyncio.TimerHandle | None = None

    # -- transport callbacks ---------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        frontend = self.frontend
        frontend.connections_served += 1
        frontend._connections.add(self)
        sock = transport.get_extra_info("socket")
        if sock is not None:
            # Small request/response frames: defeat Nagle on our side of
            # the connection too (the client sets it on its own).
            sock.setsockopt(
                socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1
            )
        high = frontend.config.write_high_water_bytes
        if high is not None:
            transport.set_write_buffer_limits(high=high)
        self._arm_timer()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.session.recv_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        if self._timer is not None:
            self._arm_timer()
        try:
            self.session.commit(nbytes)
        except ProtocolError as exc:
            self._poison(exc)
            return
        self._pump()

    def eof_received(self) -> bool:
        self._eof = True
        self._pump()
        return True  # _pump closes once the buffered frames are served

    def connection_lost(self, exc) -> None:
        self.closed = True
        if self._timer is not None:
            self._timer.cancel()
        self.frontend._connections.discard(self)

    def pause_writing(self) -> None:
        self._write_paused = True
        self._pump()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._pump()

    # -- reading -----------------------------------------------------------
    def _blocked(self) -> bool:
        limit = self.frontend.max_inflight
        return self._delayed or self._write_paused or self.inflight >= limit

    def _pump(self) -> None:
        """Dispatch buffered frames until none is left or one blocks."""
        if self._pumping or self.closed:
            return
        self._pumping = True
        try:
            while True:
                self._dispatch_buffered()
                if not self._out or self.closed:
                    break
                self._flush()
        except ProtocolError as exc:  # incl. a non-Hello opener, version skew
            self._poison(exc)
        finally:
            self._pumping = False
        if self.closed:
            return
        if self._eof and not (
            self._delayed or self._held is not None or self.session.has_frames
        ):
            try:
                self.session.receive_eof()  # raises mid-header/mid-payload
            except ProtocolError as exc:
                self._poison(exc)
                return
            self._close()  # clean close between frames
        elif self._blocked() != self._reading_paused:
            self._reading_paused = not self._reading_paused
            if self._reading_paused:
                self.transport.pause_reading()
            else:
                self.transport.resume_reading()
                if self._timer is not None:
                    self._arm_timer()  # the idle gap starts now

    def _dispatch_buffered(self) -> None:
        session = self.session
        while not (self.closed or self._blocked()):
            frame, self._held = self._held, None
            if frame is None:
                frame = session.next_frame()
                if frame is None:
                    return
                action = faults.fire("frontend.read")
                if action is not None:
                    if action.action == "delay":
                        self._delayed = True
                        self._loop.call_later(
                            action.delay_s, self._undelay, frame
                        )
                        return
                    continue  # drop
            if session.negotiated is None:
                self._handshake(frame)
            else:
                self.inflight += 1
                self._dispatch(frame)

    def _undelay(self, frame: Frame) -> None:
        self._delayed, self._held = False, frame
        self._pump()

    def _arm_timer(self) -> None:
        """(Re)start the handshake or idle timer, if that timeout is set."""
        if self._timer is not None:
            self._timer.cancel()
        config = self.frontend.config
        timeout = config.idle_timeout_s
        if self.session.negotiated is None:
            timeout = config.handshake_timeout_s
        self._timer = timeout and self._loop.call_later(timeout, self._on_timer)

    def _on_timer(self) -> None:
        # Neither a peer mid-frame nor a paused connection is idle.
        if self._reading_paused or self.session.pending_bytes:
            self._arm_timer()
        else:
            self._close()

    # -- frames --------------------------------------------------------------
    def _handshake(self, frame: Frame) -> None:
        """Negotiate a version, or reply ``unsupported-version`` and close."""
        frontend = self.frontend
        hello = decode_message(frame)
        version = self.session.accept_hello(hello.versions)
        if version is None:
            self._write(ErrorReply(
                code="unsupported-version",
                message=f"client speaks {list(hello.versions)}, server "
                f"speaks {list(frontend.supported_versions)}",
            ))
            self._close()
            return
        self._write(Welcome(
            version=version, server=frontend.name, models=frontend.api.names()
        ))
        self._arm_timer()  # the idle timeout from here on

    def _dispatch(self, frame: Frame) -> None:
        """Route one post-handshake frame; it holds one in-flight slot.

        Application errors are typed replies on a healthy connection.
        The slot is released exactly once: when the reply is written,
        dropped, or meets a closed connection.
        """
        frontend = self.frontend
        request_id = 0
        opened = time.monotonic_ns()
        try:
            message = decode_message(frame)
            if isinstance(message, ScoreRequest):
                request_id = message.request_id
                record = RequestRecord(
                    request_id, opened,
                    self.inflight == 1 and not self.session.has_frames,
                )
                future = frontend.api.submit_score(message, _record=record)
                if future.done():  # scored inline, on this loop
                    self._answer(future, record)
                else:
                    future.add_done_callback(
                        functools.partial(frontend._complete, self, record)
                    )
                return
            if isinstance(message, ModelInfoRequest):
                request_id = message.request_id
                response = frontend.api.info(
                    message.model, request_id=request_id, tenant=message.tenant
                )
            else:
                response = ErrorReply(
                    code="bad-frame",
                    message=(
                        f"unexpected {type(message).__name__} frame from "
                        "a client"
                    ),
                )
        except ProtocolError as exc:
            frontend.frames_rejected += 1
            response = ErrorReply(
                code="bad-frame", message=str(exc), request_id=request_id
            )
        except Exception as exc:  # noqa: BLE001 — the server must survive
            response = frontend._error_reply(exc, request_id)
        self._reply(response)

    # -- writing -------------------------------------------------------------
    def _answer(self, future, record) -> None:
        """Reply with a resolved scoring future's response or error."""
        exc = future.exception()
        if exc is None:
            self._reply(future.result(), record)
        else:
            self._reply(
                self.frontend._error_reply(exc, record.request_id), record
            )

    def _reply(self, message, record=None) -> None:
        """Queue a reply for the next :meth:`_flush`, or apply a fault.

        A ``frontend.reply`` drop frees the slot unwritten; a delay
        writes (and frees it) later — the loop never blocks.  The
        ``record`` of a reply written by :meth:`_flush` goes to the
        ledger.
        """
        data = self.session.render_frame(message)
        action = faults.fire("frontend.reply")
        if action is None:
            self._out.append(data)
            if record is not None:
                self._logged.append(record)
        elif action.action == "drop":
            self._release(1)
        else:  # delay/stall
            self._loop.call_later(action.delay_s, self._flush, data)

    def _flush(self, *late: bytes) -> None:
        """Write every queued (and ``late``) reply at once; free slots."""
        self._out.extend(late)
        n = len(self._out)
        if n:
            # One immutable bytes: transports may keep write buffers.
            data = self._out[0] if n == 1 else b"".join(self._out)
            self._out.clear()
            self._write(data)
            if self._logged:
                logged, self._logged = self._logged, []
                self.frontend.api.ledger.close(logged)
            self._release(n)

    def _release(self, n: int) -> None:
        was_full = self.inflight >= self.frontend.max_inflight
        self.inflight -= n
        if was_full:
            self._pump()

    def _write(self, data) -> None:
        """Write rendered bytes, or render and write a message, now."""
        if self.closed:
            return
        if not isinstance(data, bytes):
            data = self.session.render_frame(data)
        try:
            self.transport.write(data)
        except (ConnectionError, RuntimeError):
            pass

    def _poison(self, exc: ProtocolError) -> None:
        """Best-effort ``bad-frame`` reply, then close."""
        self.frontend.frames_rejected += 1
        self._flush()
        self._write(ErrorReply(code="bad-frame", message=str(exc)))
        self._close()

    def _close(self) -> None:
        if not self.closed:
            self.closed = True
            self.transport.close()


class FrontendHandle:
    """A frontend running on a background event-loop thread.

    What tests, benchmarks, and notebooks want: start a real TCP
    listener without owning an event loop, get the bound address
    synchronously, and tear it down deterministically.

        with FrontendHandle(api) as handle:
            client = PriveHDClient(*handle.address, ...)

    The handle owns only the listeners — closing it does not close the
    :class:`~repro.serve.ServingAPI`.
    """

    def __init__(self, api: ServingAPI, **frontend_kwargs):
        self.frontend = ServingFrontend(api, **frontend_kwargs)
        start_timeout = self.frontend.config.start_timeout_s
        self._loop = new_event_loop(self.frontend.loop)
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="serving-frontend", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=start_timeout)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():
            raise RuntimeError(
                f"frontend failed to start within {start_timeout:g}s"
            )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def _start():
            try:
                await self.frontend.start()
            except BaseException as exc:  # noqa: BLE001 — surfaced to ctor
                self._startup_error = exc
            finally:
                self._started.set()

        self._loop.run_until_complete(_start())
        if self._startup_error is None:
            self._loop.run_forever()
        self._loop.close()

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` of the binary listener."""
        return self.frontend.address

    @property
    def http_address(self) -> tuple[str, int] | None:
        """Bound ``(host, port)`` of the HTTP ops listener, if enabled."""
        return self.frontend.http_address

    def close(self) -> None:
        """Stop the listeners and join the loop thread."""
        if not self._thread.is_alive():
            return
        stopped = threading.Event()

        async def _stop():
            await self.frontend.stop()
            stopped.set()
            self._loop.stop()

        close_timeout = self.frontend.config.close_timeout_s
        asyncio.run_coroutine_threadsafe(_stop(), self._loop)
        stopped.wait(timeout=close_timeout)
        self._thread.join(timeout=close_timeout)

    def __enter__(self) -> "FrontendHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
