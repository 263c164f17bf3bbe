"""Backend health: periodic probes and per-backend circuit breakers.

Every backend gets a :class:`CircuitBreaker` with the classic three
states:

* **closed** — requests flow; consecutive transport failures count up.
* **open** — after ``failure_threshold`` consecutive failures the
  breaker trips: the gateway routes around the backend entirely instead
  of burning a timeout per request on a dead socket.
* **half-open** — once ``reset_timeout_s`` has passed, exactly one
  trial request (or probe) is let through.  Success closes the breaker;
  failure re-opens it and restarts the clock.

:class:`HealthMonitor` drives the breakers from both directions: a
background thread issues ``status`` probes every ``interval_s`` (so a
recovered backend is noticed even with no traffic), and the gateway
reports per-request outcomes (so a died-mid-traffic backend trips after
``failure_threshold`` requests, not after the next probe).  The last
``status`` payload of each backend is cached for the fleet view —
replica load (pending computations, active requests, plan-cache
hit/miss) without a fan-out per ``status`` call.

Only *transport* failures count against a breaker: a replica that
answers ``overloaded`` is alive and shedding, which is routing
information, not ill health.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable

from ..service.client import ClientError, PlanClient, PlanServiceError

__all__ = ["CircuitBreaker", "BackendHealth", "HealthMonitor"]


class CircuitBreaker:
    """One backend's closed/open/half-open failure gate (thread-safe)."""

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_timeout_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: "float | None" = None
        self._probing = False  # a half-open trial is in flight

    # ------------------------------------------------------------------
    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_timeout_s:
            return "half_open"
        return "open"

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def allow(self) -> bool:
        """May a request be sent through right now?

        Closed: always.  Open: never.  Half-open: exactly one in-flight
        trial at a time — the first caller gets ``True`` and becomes the
        trial; others keep routing around until it reports back.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half_open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            state = self._state_locked()
            reopen = state in ("open", "half_open")
            if reopen or self._consecutive_failures >= self.failure_threshold:
                self._opened_at = self._clock()  # (re)start the reset clock
            self._probing = False

    def reset(self) -> None:
        """Force-close the breaker (the backend was just restarted): clear
        the failure count and any open/half-open state so traffic returns
        immediately instead of waiting out ``reset_timeout_s``."""
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = None
            self._probing = False


class BackendHealth:
    """One backend's breaker plus its last observed ``status`` payload."""

    def __init__(self, address: str, breaker: CircuitBreaker):
        self.address = address
        self.breaker = breaker
        self._lock = threading.Lock()
        self._last_status: "dict | None" = None
        self._last_probe_monotonic: "float | None" = None
        self._last_error: "str | None" = None
        self.probes = 0
        self.probe_failures = 0

    def record_status(self, status: "dict | None", error: "str | None") -> None:
        with self._lock:
            self.probes += 1
            self._last_probe_monotonic = time.monotonic()
            if error is None:
                self._last_status = status
                self._last_error = None
            else:
                self.probe_failures += 1
                self._last_error = error

    def last_status(self) -> "dict | None":
        with self._lock:
            return self._last_status

    def forget_observations(self) -> None:
        """Drop the cached status/error (the process behind the address
        changed; its old load view and failure reason are meaningless)."""
        with self._lock:
            self._last_status = None
            self._last_error = None

    def snapshot(self) -> dict:
        """The fleet view's per-backend row (JSON-safe)."""
        with self._lock:
            status = self._last_status
            probe_age = (
                None
                if self._last_probe_monotonic is None
                else time.monotonic() - self._last_probe_monotonic
            )
            row: dict = {
                "address": self.address,
                "state": self.breaker.state,
                "healthy": self.breaker.state != "open",
                "consecutive_failures": self.breaker.consecutive_failures,
                "probes": self.probes,
                "probe_failures": self.probe_failures,
                "probe_age_s": probe_age,
                "last_error": self._last_error,
            }
        if status is not None:
            server = status.get("server", {})
            row["load"] = status.get("load")
            row["pid"] = server.get("pid")
            row["draining"] = server.get("draining")
            row["plan_cache"] = status.get("plan_cache")
        return row


class HealthMonitor:
    """Probes every backend on a cadence and gates routing decisions."""

    def __init__(
        self,
        backends: Iterable[str],
        *,
        interval_s: float = 1.0,
        probe_timeout_s: float = 2.0,
        failure_threshold: int = 3,
        reset_timeout_s: float = 2.0,
        client_factory: "Callable[..., PlanClient]" = PlanClient,
    ):
        self.interval_s = interval_s
        self.probe_timeout_s = probe_timeout_s
        self._client_factory = client_factory
        self._backends: "dict[str, BackendHealth]" = {
            address: BackendHealth(
                address,
                CircuitBreaker(
                    failure_threshold=failure_threshold,
                    reset_timeout_s=reset_timeout_s,
                ),
            )
            for address in dict.fromkeys(backends)
        }
        if not self._backends:
            raise ValueError("health monitor needs at least one backend")
        # One persistent client per backend: it closes itself on any
        # transport error (see PlanClient.request) and reconnects on the
        # next probe, so a flapping backend cannot leak sockets.
        self._clients: "dict[str, PlanClient]" = {}
        # The probe loop and callers of probe_once() share those clients,
        # and the status kept must be the one from the latest probe.
        self._probe_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    # ------------------------------------------------------------------
    @property
    def addresses(self) -> "tuple[str, ...]":
        return tuple(self._backends)

    def backend(self, address: str) -> BackendHealth:
        return self._backends[address]

    def allow(self, address: str) -> bool:
        return self._backends[address].breaker.allow()

    def record_success(self, address: str) -> None:
        self._backends[address].breaker.record_success()

    def record_failure(self, address: str) -> None:
        self._backends[address].breaker.record_failure()

    def notify_restarted(self, address: str) -> None:
        """Re-register a restarted backend: close its breaker and drop the
        stale status/error so the next probe observes the fresh daemon."""
        health = self._backends[address]
        health.breaker.reset()
        health.forget_observations()

    def healthy(self) -> "tuple[str, ...]":
        """Backends whose breaker is not open (declaration order)."""
        return tuple(
            address
            for address, health in self._backends.items()
            if health.breaker.state != "open"
        )

    def snapshot(self) -> "list[dict]":
        return [health.snapshot() for health in self._backends.values()]

    def last_status(self, address: str) -> "dict | None":
        return self._backends[address].last_status()

    # ------------------------------------------------------------------
    def probe_once(self) -> "dict[str, bool]":
        """Probe every backend now; returns address → reachable.

        Probes run one at a time, so a probe that returns has the last word.
        """
        with self._probe_lock:
            return self._probe_all()

    def _probe_all(self) -> "dict[str, bool]":
        results: "dict[str, bool]" = {}
        for address, health in self._backends.items():
            client = self._clients.get(address)
            if client is None:
                client = self._clients[address] = self._client_factory(
                    address, timeout=self.probe_timeout_s
                )
            try:
                status = client.status()
            except (ClientError, OSError) as exc:
                health.breaker.record_failure()
                health.record_status(None, f"{type(exc).__name__}: {exc}")
                results[address] = False
            except PlanServiceError as exc:
                # The replica *answered*, with an error: it is alive.
                # Sheds and refusals are routing information, not ill
                # health — only transport failures count against the
                # breaker (see the module docstring).
                health.breaker.record_success()
                health.record_status(None, f"{type(exc).__name__}: {exc}")
                results[address] = True
            else:
                health.breaker.record_success()
                health.record_status(status, None)
                results[address] = True
        return results

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._probe_loop, name="fleet-health", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.probe_timeout_s + 2.0)
            self._thread = None
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def _probe_loop(self) -> None:
        # First probe immediately: the gateway starts with real health
        # data instead of assuming everything is up.
        while True:
            try:
                self.probe_once()
            except Exception:  # pragma: no cover - defensive
                pass
            if self._stop.wait(self.interval_s):
                return
