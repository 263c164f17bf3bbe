"""The NDJSON connection frame shared by the plan server and the fleet gateway.

:class:`NDJSONEndpoint` owns everything between a listening socket and a
decoded request: the bind (with the stale unix-socket probe), the
self-healing accept loop, one thread per connection, line decoding with
the request counters and latency histograms, SIGTERM/SIGINT handling and
the graceful drain.  :class:`~repro.service.server.PlanServer` and
:class:`~repro.fleet.gateway.PlanGateway` subclass it, supply the four
hooks below, and keep their own ``start()``: bind with :meth:`_bind`,
then :meth:`_spawn` the acceptor and any helper threads.
"""

from __future__ import annotations

import errno
import logging
import os
import signal
import socket
import threading
import time
from contextlib import suppress
from typing import Mapping

from .metrics import ServiceMetrics
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_address,
)

__all__ = ["NDJSONEndpoint"]

#: ``accept()`` failures worth retrying in place (load- or fd-pressure
#: hiccups); anything else gets a full listener rebind.
_ACCEPT_TRANSIENT_ERRNOS = frozenset(
    getattr(errno, name)
    for name in ("ECONNABORTED", "EMFILE", "ENFILE", "ENOBUFS", "ENOMEM", "EPROTO")
    if hasattr(errno, name)
)


class NDJSONEndpoint:
    """Bind/accept/serve/drain frame; see the module docstring.

    ``config`` needs ``address``, ``accept_backlog`` and
    ``drain_timeout_s``.
    """

    _role = "endpoint"  #: noun in lifecycle errors ("server is not started")
    _thread_prefix = "endpoint"  #: thread names are ``<prefix>-accept`` etc.
    _stopped_event = "endpoint_stopped"  #: ``event`` of the final log line

    def __init__(self, config) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self._log = logging.getLogger(type(self).__module__)
        self._listener: "socket.socket | None" = None
        self._endpoint: "str | None" = None
        self._unix_path: "str | None" = None

        # Guards the active-request count here and whatever drain state
        # the subclass keeps (``_quiescent`` runs under it).
        self._dispatch_lock = threading.Lock()
        self._active_requests = 0  # requests currently being handled

        self._threads: "list[threading.Thread]" = []  # acceptor and helpers
        # id(conn) → (conn, its thread); an entry leaves when its
        # connection closes, so the frame holds only live connections.
        self._conns: "dict[int, tuple[socket.socket, threading.Thread]]" = {}
        self._conn_lock = threading.Lock()

        self._started = False
        self._stop_lock = threading.Lock()
        self._stopping = False
        self._draining = threading.Event()
        self._stop_event = threading.Event()
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # what a subclass supplies
    # ------------------------------------------------------------------
    def _dispatch(self, op: object, message: Mapping) -> dict:
        """Answer one decoded request (raise :class:`ProtocolError` to refuse)."""
        raise NotImplementedError

    def _quiescent(self) -> bool:
        """True once a drain may proceed; called under ``_dispatch_lock``."""
        raise NotImplementedError

    def _release(self) -> None:
        """Let go of in-flight machinery after the drain wait."""
        raise NotImplementedError

    def _after_close(self) -> None:
        """Final step once every connection is closed and the socket gone."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        """The bound address (with the real port for ``tcp:...:0`` binds)."""
        if self._endpoint is None:
            raise RuntimeError(f"{self._role} is not started")
        return self._endpoint

    def _claim_start(self) -> None:
        if self._started:
            raise RuntimeError(f"{self._role} already started")
        self._started = True

    def _spawn(self, suffix: str, target) -> None:
        """Start a long-lived helper thread that :meth:`stop` joins."""
        thread = threading.Thread(
            target=target, name=f"{self._thread_prefix}-{suffix}", daemon=True
        )
        thread.start()
        self._threads.append(thread)

    def _stop_in_background(self, suffix: str) -> None:
        threading.Thread(
            target=self.stop, name=f"{self._thread_prefix}-{suffix}", daemon=True
        ).start()

    def _bind(self, address: str) -> socket.socket:
        parsed = parse_address(address)
        if parsed[0] == "unix":
            path = parsed[1]
            if os.path.exists(path):
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(path)
                except OSError:
                    os.unlink(path)  # stale socket from a dead process
                else:
                    # EADDRINUSE, same as a TCP bind collision would raise:
                    # callers get one error type for "address taken".
                    raise OSError(
                        errno.EADDRINUSE,
                        f"address {path!r} already has a live server",
                    )
                finally:
                    probe.close()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(path)
            self._unix_path = path
            self._endpoint = f"unix:{path}"
        else:
            _, host, port = parsed
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            self._endpoint = f"tcp:{host}:{sock.getsockname()[1]}"
        sock.listen(self.config.accept_backlog)
        return sock

    def serve_forever(self) -> None:
        """Start (if needed) and block until fully stopped."""
        if not self._started:
            self.start()
        while not self._stopped.wait(0.2):
            pass

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (call from the main thread)."""
        owner_pid = os.getpid()

        def _handler(signum: int, frame) -> None:
            if os.getpid() != owner_pid:
                # A forked child (e.g. a pool worker spawned after these
                # handlers were installed) inherited this handler.  The
                # drain must never run against inherited state —
                # shutdown(2) on the shared listener fd would un-listen
                # the socket for the parent too.  Die like a default
                # SIGTERM would.
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)
                return
            self._log.info("received signal %d: draining %s", signum, self._role)
            self._stop_in_background("drain")

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def stop(self, *, drain: bool = True) -> None:
        """Stop serving; with ``drain``, finish in-flight work first."""
        with self._stop_lock:
            if self._stopping:
                self._stopped.wait(self.config.drain_timeout_s + 5.0)
                return
            self._stopping = True
        self._draining.set()
        self._stop_event.set()
        if self._listener is not None:
            # shutdown() before close(): closing alone does not wake a
            # blocked accept() on Linux, which would stall the drain on
            # the acceptor thread's join timeout.
            with suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            with suppress(OSError):
                self._listener.close()
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout_s
            while time.monotonic() < deadline:
                with self._dispatch_lock:
                    if self._quiescent():
                        break
                time.sleep(0.005)
        self._release()
        # Unblock connection readers; each thread flushes its last write
        # and closes its own socket on the way out.
        with self._conn_lock:
            conns = list(self._conns.values())
        for conn, _ in conns:
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RD)
        for thread in self._threads + [thread for _, thread in conns]:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)
        with self._conn_lock:
            for conn, _ in self._conns.values():
                with suppress(OSError):
                    conn.close()
            self._conns.clear()
        self._unlink_socket_file()
        self._after_close()
        self._log.info("%s", self.metrics.log_line(event=self._stopped_event))
        self._stopped.set()

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop_event.is_set():
            listener = self._listener
            if listener is None:
                break
            try:
                conn, _ = listener.accept()
            except OSError as exc:
                if self._stop_event.is_set():
                    break  # listener closed by stop()
                # A dead acceptor is the worst failure mode: the socket
                # stays bound-but-unserved, refusing every new client
                # while established connections keep working — invisible
                # to connection-pooling health checks.  Never die silently.
                if exc.errno in _ACCEPT_TRANSIENT_ERRNOS:
                    self._log.warning("accept failed (%s); retrying", exc)
                    time.sleep(0.05)
                    continue
                self._log.error("accept failed (%s); rebinding listener", exc)
                if not self._rebind_listener():
                    break
                continue
            self.metrics.inc("connections_opened")
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"{self._thread_prefix}-conn",
                daemon=True,
            )
            with self._conn_lock:
                self._conns[id(conn)] = (conn, thread)
            thread.start()

    def _rebind_listener(self) -> bool:
        """Self-heal a listener whose ``accept()`` keeps failing hard
        (e.g. the fd was sabotaged out from under us): close it, clear a
        stale unix socket file, and bind the same endpoint afresh."""
        if self._listener is not None:
            with suppress(OSError):
                self._listener.close()
        self._unlink_socket_file()
        try:
            # The resolved endpoint, not config.address: a ``tcp:...:0``
            # bind must come back on the port clients already know.
            self._listener = self._bind(self.endpoint)
        except OSError as exc:
            self._log.critical(
                "listener rebind on %s failed (%s); acceptor exiting",
                self._endpoint,
                exc,
            )
            return False
        self.metrics.inc("listener_rebinds")
        self._log.warning("listener re-bound on %s", self._endpoint)
        return True

    def _unlink_socket_file(self) -> None:
        if self._unix_path:
            with suppress(OSError):
                os.unlink(self._unix_path)

    def _serve_connection(self, conn: socket.socket) -> None:
        fh = conn.makefile("rb")
        try:
            while True:
                line = fh.readline(MAX_LINE_BYTES + 1)
                if not line:
                    break
                response = self._handle_line(line)
                try:
                    conn.sendall(encode_message(response))
                except OSError:
                    break
        finally:
            with suppress(OSError):
                fh.close()
            with suppress(OSError):
                conn.close()
            with self._conn_lock:
                self._conns.pop(id(conn), None)
            self.metrics.inc("connections_closed")

    def _handle_line(self, line: bytes) -> dict:
        try:
            message = decode_message(line)
        except ProtocolError as exc:
            self.metrics.inc("requests_total")
            self.metrics.inc(f"errors_{exc.code}")
            return error_response(None, exc.code, exc.message)
        request_id = message.get("id")
        op = message.get("op")
        self.metrics.inc("requests_total")
        self.metrics.inc(f"requests_{op}" if isinstance(op, str) else "requests_invalid")
        with self._dispatch_lock:
            self._active_requests += 1
        t0 = time.perf_counter()
        try:
            result = self._dispatch(op, message)
            response = ok_response(request_id, result)
        except ProtocolError as exc:
            self.metrics.inc(f"errors_{exc.code}")
            response = error_response(request_id, exc.code, exc.message)
        except Exception as exc:  # pragma: no cover - defensive
            self._log.exception("internal error serving %r", op)
            self.metrics.inc("errors_internal")
            response = error_response(request_id, "internal", f"{type(exc).__name__}: {exc}")
        finally:
            if isinstance(op, str):
                self.metrics.observe(f"latency_{op}_s", time.perf_counter() - t0)
            with self._dispatch_lock:
                self._active_requests -= 1
        return response
