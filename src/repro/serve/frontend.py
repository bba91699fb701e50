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
import json
import socket as socket_module
import threading
import time
from dataclasses import dataclass

from repro.proto.messages import (
    ErrorReply,
    ModelInfoRequest,
    ScoreBatchRequest,
    ScoreRequest,
    Welcome,
    decode_message,
)
from repro.proto.session import WireSession
from repro.proto.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Frame,
    ProtocolError,
)
from repro.serve.api import ServingAPI
from repro.serve.errors import DeadlineExceeded, Overloaded, TenantNotFound
from repro.serve.faults import faults
from repro.serve.loops import new_event_loop

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
        Seconds :meth:`ServingFrontend.stop` waits for live connection
        handlers to finish before cancelling them (was ``5.0``).
    start_timeout_s:
        Seconds :class:`FrontendHandle` waits for its background loop
        to bind the listeners (was ``30.0``).
    close_timeout_s:
        Seconds :class:`FrontendHandle.close` waits for the loop
        thread to stop and join (was ``10.0``).
    write_high_water_bytes:
        Per-connection transport write-buffer high-water mark.  The
        read loop ``drain()``\\ s after every dispatched frame, so once
        a slow-reading client's buffer crosses this mark the server
        *pauses reading* from that connection until it catches up —
        per-connection backpressure instead of unbounded server-side
        buffering.  ``None`` keeps asyncio's default (64 KiB).
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
            "handshake_timeout_s",
            "idle_timeout_s",
            "http_timeout_s",
            "stop_grace_s",
            "start_timeout_s",
            "close_timeout_s",
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
        frontend stops reading from it — together with the transport's
        drain high-water mark, this bounds the memory a slow-reading
        (or never-reading) client can pin server-side.
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
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind both listeners; returns the protocol ``(host, port)``."""
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, **kwargs
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

        Live connections are closed at the transport (their handlers
        exit on the resulting EOF); stragglers are cancelled after a
        short grace period.  The transport makes no drain promise
        beyond what the micro-batcher already flushed.
        """
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            _, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=self.config.stop_grace_s
            )
            for task in pending:  # pragma: no cover - defensive
                task.cancel()

    async def serve_forever(self) -> None:
        """Run until cancelled (listeners must be started)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

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
    # binary protocol
    # ------------------------------------------------------------------
    async def _read_frame(
        self,
        reader: asyncio.StreamReader,
        session: WireSession,
        *,
        timeout: float | None = None,
    ) -> Frame | None:
        """One frame off the stream; ``None`` on clean EOF between frames.

        One chunked ``read`` feeds the session's zero-copy decoder and
        usually completes several pipelined frames at once — replacing
        the two ``readexactly`` awaits the old loop paid per frame;
        queued frames drain without touching the socket.

        ``timeout`` bounds the wait for the *start* of the next frame —
        the idle gap between requests (or before the handshake).  A
        peer that goes silent past it gets the connection closed; a
        peer mid-frame is actively sending and is not timed.
        """
        while True:
            frame = session.next_frame()
            if frame is not None:
                return frame
            read = reader.read(65536)
            if timeout is not None and session.pending_bytes == 0:
                read = asyncio.wait_for(read, timeout=timeout)
            chunk = await read
            if not chunk:
                session.receive_eof()  # raises mid-header/mid-payload
                return None  # clean close between frames
            session.receive_data(chunk)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        session: WireSession,
        message,
        *,
        version: int | None = None,
    ) -> None:
        data = session.render_frame(message, version=version)
        async with lock:  # pipelined responses must not interleave
            writer.write(data)
            await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        me = asyncio.current_task()
        if me is not None:
            self._conn_tasks.add(me)
            me.add_done_callback(self._conn_tasks.discard)
        self._conn_writers.add(writer)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Small request/response frames: defeat Nagle on our side of
            # the connection too (the client sets it on its own).
            sock.setsockopt(
                socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1
            )
        if self.config.write_high_water_bytes is not None:
            # Lower the transport's pause threshold so the drain() in
            # the read loop below pauses reads from a slow-reading
            # client sooner — per-connection backpressure.
            writer.transport.set_write_buffer_limits(
                high=self.config.write_high_water_bytes
            )
        write_lock = asyncio.Lock()
        inflight = asyncio.Semaphore(self.max_inflight)
        session = WireSession(
            "server",
            max_frame_bytes=self.max_frame_bytes,
            supported_versions=self.supported_versions,
        )
        try:
            while True:
                timeout = (
                    self.config.handshake_timeout_s
                    if session.negotiated is None
                    else self.config.idle_timeout_s
                )
                frame = await self._read_frame(
                    reader, session, timeout=timeout
                )
                if frame is None:
                    break
                action = faults.fire("frontend.read")
                if action is not None:
                    if action.action == "drop":
                        continue
                    await asyncio.sleep(action.delay_s)
                if session.negotiated is None:
                    ok = await self._handshake(
                        frame, writer, write_lock, session
                    )
                    if not ok:
                        break
                    continue
                # Requests pipeline: a ScoreRequest is submitted to the
                # micro-batcher without blocking the read loop, and its
                # response is written by a completion callback when the
                # flush lands (correlation ids let clients match reorder
                # -ed replies).  Many connections — and many in-flight
                # requests per connection — coalesce into shared
                # batches.  The semaphore caps this connection's
                # unanswered requests and drain() honors the
                # transport's high-water mark, so a client that floods
                # requests or never reads replies throttles itself
                # instead of growing server memory.
                await inflight.acquire()
                self._dispatch(
                    frame, writer, session, session.negotiated,
                    inflight.release,
                )
                # Give completion callbacks a turn before the next read:
                # a queued frame returns without suspending, so a
                # flooding client must not starve the response path.
                await asyncio.sleep(0)
                await writer.drain()
        except ProtocolError as exc:
            # Framing/version violations (including a non-Hello opener
            # and post-negotiation version skew, screened by the
            # session) poison the stream: best-effort typed reply, then
            # close.
            self.frames_rejected += 1
            try:
                await self._send(
                    writer,
                    write_lock,
                    session,
                    ErrorReply(code="bad-frame", message=str(exc)),
                )
            except (ConnectionError, RuntimeError):
                pass
        except asyncio.TimeoutError:
            pass  # idle/handshake timeout: close without ceremony
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handshake(
        self,
        frame: Frame,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        session: WireSession,
    ) -> bool:
        """Negotiate a protocol version; ``False`` closes the connection.

        The session already screened the frame type (a non-Hello opener
        raised before this point), so the frame *is* a Hello; what can
        still fail here is a malformed Hello payload (raises, handled
        as a framing error upstream) or a disjoint version offer (typed
        ``unsupported-version`` reply).
        """
        hello = decode_message(frame)
        version = session.accept_hello(hello.versions)
        if version is None:
            await self._send(
                writer,
                lock,
                session,
                ErrorReply(
                    code="unsupported-version",
                    message=(
                        f"client speaks {list(hello.versions)}, server "
                        f"speaks {list(self.supported_versions)}"
                    ),
                ),
            )
            return False
        await self._send(
            writer,
            lock,
            session,
            Welcome(
                version=version,
                server=self.name,
                models=self.api.names(),
            ),
        )
        return True

    def _dispatch(
        self,
        frame: Frame,
        writer: asyncio.StreamWriter,
        session: WireSession,
        version: int,
        done,
    ) -> None:
        """Route one post-handshake frame (runs on the event loop).

        Metadata requests are answered immediately; scoring requests
        are submitted to the micro-batcher without blocking the read
        loop — the scheduler future's completion callback hops back to
        the loop (``call_soon_threadsafe``, one hop, no intermediate
        task) and writes the response.  Application errors become typed
        replies on a healthy connection.  ``done`` is invoked exactly
        once, after this frame's response is written (the in-flight
        semaphore release).
        """
        request_id = 0
        try:
            message = decode_message(frame)
            if isinstance(message, (ScoreRequest, ScoreBatchRequest)):
                # One frame -> one scheduler submit, for both shapes: a
                # ScoreBatchRequest amortizes this dispatch (and the
                # completion wakeup below) over its N stacked
                # sub-requests, which is what closes the gap between
                # the socket path and the in-process server.
                request_id = message.request_id
                loop = asyncio.get_running_loop()
                if isinstance(message, ScoreBatchRequest):
                    future = self.api.submit_score_batch(message)
                else:
                    future = self.api.submit_score(message)
                def bridge(f, _rid=request_id):
                    # A batch can complete after the frontend's loop is
                    # gone (e.g. a stalled flush draining past
                    # shutdown); there is no one left to reply to.
                    try:
                        loop.call_soon_threadsafe(
                            self._write_completion,
                            writer,
                            session,
                            f,
                            version,
                            _rid,
                            done,
                        )
                    except RuntimeError:
                        pass

                future.add_done_callback(bridge)
                return
            if isinstance(message, ModelInfoRequest):
                request_id = message.request_id
                response = self.api.info(
                    message.model,
                    request_id=message.request_id,
                    tenant=message.tenant,
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
            self.frames_rejected += 1
            response = ErrorReply(
                code="bad-frame", message=str(exc), request_id=request_id
            )
        except Exception as exc:  # noqa: BLE001 — the server must survive
            response = self._error_reply(exc, request_id)
        try:
            self._write_message(writer, session, response, version)
        finally:
            done()

    def _write_completion(
        self,
        writer: asyncio.StreamWriter,
        session: WireSession,
        future,
        version: int,
        request_id: int,
        done=None,
    ) -> None:
        """Write a finished scoring future's response (on the loop)."""
        try:
            exc = future.exception()
            if exc is None:
                message = future.result()
            else:
                message = self._error_reply(exc, request_id)
            self._write_message(writer, session, message, version)
        finally:
            if done is not None:
                done()

    def _write_message(
        self,
        writer: asyncio.StreamWriter,
        session: WireSession,
        message,
        version: int,
    ) -> None:
        """Encode + write one frame, synchronously on the loop.

        ``write`` enqueues the whole frame atomically (the transport
        handles flow control in the background), so concurrent
        completions for one connection cannot interleave bytes.  This
        is also the single interception point for reply-side fault
        injection (``frontend.reply``): drops skip the write, delays
        reschedule it via ``call_later`` — the loop never blocks.
        """
        action = faults.fire("frontend.reply")
        if action is not None:
            if action.action == "drop":
                return
            # delay/stall: defer the write without blocking the loop.
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:  # pragma: no cover - defensive
                loop = None
            if loop is not None:
                loop.call_later(
                    action.delay_s,
                    self._write_now,
                    writer,
                    session,
                    message,
                    version,
                )
                return
        self._write_now(writer, session, message, version)

    def _write_now(
        self,
        writer: asyncio.StreamWriter,
        session: WireSession,
        message,
        version: int,
    ) -> None:
        if writer.is_closing():
            return
        try:
            # render_frame stages scalars in the session's reusable
            # per-connection scratch (no builder allocation per
            # completion) and hands the transport one immutable bytes
            # object — safe for asyncio and uvloop alike, which may
            # retain write buffers past this call.
            writer.write(session.render_frame(message, version=version))
        except (ConnectionError, RuntimeError):
            pass

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
            if method != "GET":
                status, body = 405, {"error": "method not allowed"}
            elif path in ("/healthz", "/health"):
                status, body = 200, self.api.health()
            elif path == "/models":
                status, body = 200, self.api.models()
            elif path == "/stats":
                status, body = 200, self.api.stats()
            elif path == "/tenants":
                status, body = 200, self.api.tenants_summary()
            else:
                status, body = 404, {"error": f"no route {path!r}"}
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
