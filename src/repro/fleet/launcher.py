"""Spawn, supervise, and drain a fleet of plan-serving backend daemons.

:class:`FleetLauncher` owns the replica *processes* so the gateway can
stay a pure router: it spawns N ``python -m repro serve`` daemons (or
attaches to already-running ones), waits until each answers ``ping``,
and on teardown SIGTERMs the spawned ones and verifies they drained
cleanly.  The benchmark and the CI smoke job also use it to SIGKILL a
replica mid-run — the fleet's whole point is surviving exactly that.

Supervision
-----------
:meth:`FleetLauncher.start_supervision` turns the launcher into a
process supervisor: a daemon thread liveness-polls the spawned
backends, reaps the ones that died, and restarts each on the *same*
address with capped exponential backoff — until its restart budget is
spent, after which the backend is left down (``given_up``) and the
survivors carry the traffic.  Every successful restart fires the
``on_restart`` callback (the gateway uses it to reset the replica's
circuit breaker and health history so traffic returns immediately
instead of waiting out the open-circuit window).

Each spawned backend leads its own session and process group, which its
``--workers N`` pool processes join.  A backend that dies without
draining (SIGKILL) cannot stop its workers, so the launcher SIGKILLs the
whole group once it has reaped the backend, both in supervision (before
any restart) and at drain.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..service.client import PlanClient

__all__ = ["Backend", "FleetLauncher"]

logger = logging.getLogger(__name__)


@dataclass
class Backend:
    """One replica: its address plus (for spawned ones) the process."""

    address: str
    process: "subprocess.Popen | None" = None
    spawned: bool = field(default=False)
    argv: "list[str] | None" = None  #: respawn recipe (spawned backends only)
    restarts: int = 0  #: supervision restarts performed so far
    given_up: bool = False  #: restart budget exhausted; left down
    last_exit_code: "int | None" = None  #: most recent observed exit
    next_restart_at: "float | None" = None  #: monotonic deadline of the backoff

    @property
    def pid(self) -> "int | None":
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


def _repro_env() -> "dict[str, str]":
    """Subprocess env whose ``PYTHONPATH`` can import this very package."""
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


def _start(argv: "list[str]") -> subprocess.Popen:
    """Start one backend as the leader of a new session and process group."""
    return subprocess.Popen(argv, env=_repro_env(), start_new_session=True)


def _kill_group(backend: Backend) -> None:
    """SIGKILL what is left of a reaped backend's process group (its pool
    workers); an empty group is the normal case."""
    try:
        os.killpg(backend.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class FleetLauncher:
    """Spawn/attach/supervise/drain the backend side of a fleet."""

    def __init__(
        self,
        *,
        n_backends: int = 0,
        socket_dir: "str | Path | None" = None,
        attach: "list[str] | tuple[str, ...]" = (),
        n_workers: int = 0,
        max_pending: int = 64,
        cache_size: int = 1024,
        log_level: str = "warning",
        startup_timeout_s: float = 30.0,
        python: str = sys.executable,
        extra_serve_args: "tuple[str, ...] | list[str]" = (),
        snapshot_dir: "str | Path | None" = None,
        supervise_interval_s: float = 0.5,
        restart_backoff_s: float = 0.5,
        restart_backoff_cap_s: float = 10.0,
        restart_budget: int = 5,
    ):
        if n_backends < 0:
            raise ValueError("n_backends must be >= 0")
        if n_backends and socket_dir is None:
            raise ValueError("spawning backends requires socket_dir")
        if not n_backends and not attach:
            raise ValueError("nothing to launch: n_backends == 0 and no attach list")
        if restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")
        self.n_backends = n_backends
        self.socket_dir = Path(socket_dir) if socket_dir is not None else None
        self.n_workers = n_workers
        self.max_pending = max_pending
        self.cache_size = cache_size
        self.log_level = log_level
        self.startup_timeout_s = startup_timeout_s
        self.python = python
        self.extra_serve_args = tuple(extra_serve_args)
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self.supervise_interval_s = supervise_interval_s
        self.restart_backoff_s = restart_backoff_s
        self.restart_backoff_cap_s = restart_backoff_cap_s
        self.restart_budget = restart_budget
        self.backends: "list[Backend]" = [
            Backend(address=address, spawned=False) for address in attach
        ]
        self._spawn_pending = n_backends
        self._lock = threading.Lock()
        self._restarts_total = 0
        self._supervisor: "threading.Thread | None" = None
        self._supervise_stop = threading.Event()
        self._on_restart: "Callable[[Backend], None] | None" = None

    # ------------------------------------------------------------------
    @property
    def addresses(self) -> "tuple[str, ...]":
        return tuple(backend.address for backend in self.backends)

    @property
    def restarts_total(self) -> int:
        """Backends restarted by supervision over the launcher's lifetime."""
        with self._lock:
            return self._restarts_total

    def _serve_argv(self, index: int, address: str) -> "list[str]":
        argv = [
            self.python, "-m", "repro", "serve",
            "--socket", address,
            "--workers", str(self.n_workers),
            "--max-pending", str(self.max_pending),
            "--cache-size", str(self.cache_size),
            "--metrics-interval", "0",
            "--log-level", self.log_level,
        ]
        if self.snapshot_dir is not None:
            argv += ["--snapshot", str(self.snapshot_dir / f"backend-{index}.json")]
        argv += list(self.extra_serve_args)
        return argv

    def spawn(self) -> "list[Backend]":
        """Start the configured number of daemons and wait for each ping."""
        assert self.socket_dir is not None or self._spawn_pending == 0
        spawned: "list[Backend]" = []
        for index in range(self._spawn_pending):
            address = f"unix:{self.socket_dir}/backend-{index}.sock"
            argv = self._serve_argv(index, address)
            process = _start(argv)
            backend = Backend(
                address=address, process=process, spawned=True, argv=argv
            )
            self.backends.append(backend)
            spawned.append(backend)
        self._spawn_pending = 0
        for backend in spawned:
            client = PlanClient.wait_for_server(
                backend.address, timeout=self.startup_timeout_s
            )
            client.close()
        return spawned

    def kill(self, index: int, sig: int = signal.SIGKILL) -> Backend:
        """Signal one spawned backend (default: SIGKILL, the hard way)."""
        backend = self.backends[index]
        if backend.process is None:
            raise ValueError(f"backend {backend.address} was attached, not spawned")
        backend.process.send_signal(sig)
        return backend

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def start_supervision(
        self, on_restart: "Callable[[Backend], None] | None" = None
    ) -> None:
        """Start the liveness-poll/restart loop (idempotent).

        ``on_restart`` is called — from the supervision thread — with each
        backend that was successfully restarted and answered ``ping``.
        """
        with self._lock:
            if self._supervisor is not None and self._supervisor.is_alive():
                return
            self._on_restart = on_restart
            self._supervise_stop.clear()
            self._supervisor = threading.Thread(
                target=self._supervise_loop, name="fleet-supervisor", daemon=True
            )
            self._supervisor.start()
        logger.info(
            "fleet supervision started (interval %.2gs, backoff %.2gs..%.2gs, "
            "budget %d)",
            self.supervise_interval_s,
            self.restart_backoff_s,
            self.restart_backoff_cap_s,
            self.restart_budget,
        )

    def stop_supervision(self) -> None:
        """Stop restarting backends (before a drain, or for tests)."""
        self._supervise_stop.set()
        supervisor = self._supervisor
        if supervisor is not None and supervisor is not threading.current_thread():
            supervisor.join(timeout=5.0)

    def _backoff_s(self, restarts: int) -> float:
        return min(
            self.restart_backoff_cap_s,
            self.restart_backoff_s * (2.0 ** max(0, restarts - 1)),
        )

    def _supervise_loop(self) -> None:
        while not self._supervise_stop.wait(self.supervise_interval_s):
            for backend in list(self.backends):
                if self._supervise_stop.is_set():
                    return
                self._supervise_one(backend)

    def _supervise_one(self, backend: Backend) -> None:
        if not backend.spawned or backend.given_up or backend.process is None:
            return
        code = backend.process.poll()  # also reaps the zombie
        if code is None:
            return  # alive
        now = time.monotonic()
        if backend.next_restart_at is None:
            _kill_group(backend)  # first sight of the corpse: stop its workers
            backend.last_exit_code = code
            if backend.restarts >= self.restart_budget:
                backend.given_up = True
                logger.error(
                    "backend %s exited with code %s; restart budget (%d) "
                    "exhausted — leaving it down",
                    backend.address,
                    code,
                    self.restart_budget,
                )
                return
            backoff = self._backoff_s(backend.restarts + 1)
            backend.next_restart_at = now + backoff
            logger.warning(
                "backend %s exited with code %s; restart %d/%d in %.2gs",
                backend.address,
                code,
                backend.restarts + 1,
                self.restart_budget,
                backoff,
            )
            return
        if now < backend.next_restart_at:
            return  # still backing off
        self._restart(backend)

    def _restart(self, backend: Backend) -> None:
        backend.next_restart_at = None
        backend.restarts += 1
        with self._lock:
            self._restarts_total += 1
        assert backend.argv is not None
        # A SIGKILLed daemon leaves its socket file behind; the fresh
        # daemon's bind probe handles the stale path, but remove it here
        # so startup never races a connecting client against a dead path.
        if backend.address.startswith("unix:"):
            try:
                os.unlink(backend.address[len("unix:"):])
            except OSError:
                pass
        try:
            backend.process = _start(backend.argv)
            client = PlanClient.wait_for_server(
                backend.address, timeout=self.startup_timeout_s
            )
            client.close()
        except Exception as exc:
            logger.error(
                "restart %d of backend %s failed: %s",
                backend.restarts,
                backend.address,
                exc,
            )
            return  # the poll loop will see the corpse and back off again
        logger.info(
            "backend %s restarted (pid %s, restart %d/%d)",
            backend.address,
            backend.pid,
            backend.restarts,
            self.restart_budget,
        )
        callback = self._on_restart
        if callback is not None:
            try:
                callback(backend)
            except Exception:  # pragma: no cover - defensive
                logger.exception("on_restart callback failed for %s", backend.address)

    # ------------------------------------------------------------------
    def terminate(self, *, timeout_s: float = 30.0) -> "dict[str, int | None]":
        """SIGTERM every spawned, still-running backend; wait for exits.

        Supervision is stopped first so the drain never races a restart.
        Backends that already exited are only reaped (no signal to a dead
        pid), each reaped backend's process group is SIGKILLed, and every
        backend's exit code is logged.  Returns address →
        exit code (negative = died by signal, ``None`` for attached
        backends the launcher does not own).
        """
        self.stop_supervision()
        codes: "dict[str, int | None]" = {}
        for backend in self.backends:
            process = backend.process
            if process is not None and process.poll() is None:
                try:
                    process.send_signal(signal.SIGTERM)
                except (OSError, ProcessLookupError):
                    pass  # exited between poll and signal
        deadline = time.monotonic() + timeout_s
        for backend in self.backends:
            process = backend.process
            if process is None:
                codes[backend.address] = None
                continue
            code = process.poll()
            if code is None:
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    code = process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    process.kill()
                    code = process.wait(timeout=5.0)
            else:
                process.wait()  # already exited: reap, don't signal
            _kill_group(backend)
            backend.last_exit_code = code
            codes[backend.address] = code
            logger.info(
                "backend %s exit code at drain: %s%s",
                backend.address,
                code,
                " (given up)" if backend.given_up else "",
            )
        return codes

    def __enter__(self) -> "FleetLauncher":
        self.spawn()
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()
