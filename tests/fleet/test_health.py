"""Circuit-breaker state machine and the health monitor's probe loop."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.fleet.health import CircuitBreaker, HealthMonitor
from repro.service.client import ClientError


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # under threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # non-consecutive failures don't trip

    def test_half_open_admits_exactly_one_trial(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single trial
        assert not breaker.allow()  # everyone else keeps routing around

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens_and_restarts_clock(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=2.0, clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()  # the trial failed
        assert breaker.state == "open"
        clock.advance(1.0)
        assert breaker.state == "open"  # clock restarted, not resumed
        clock.advance(1.0)
        assert breaker.state == "half_open"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=-1.0)


class FakeStatusClient:
    """A scripted stand-in for PlanClient in monitor tests."""

    behaviors: "dict[str, object]" = {}

    def __init__(self, address: str, *, timeout=None):
        self.address = address

    def status(self) -> dict:
        behavior = self.behaviors.get(self.address, {})
        if isinstance(behavior, Exception):
            raise behavior
        return behavior  # type: ignore[return-value]

    def close(self) -> None:
        pass


class TestHealthMonitor:
    def make_monitor(self, behaviors: dict, **kwargs) -> HealthMonitor:
        FakeStatusClient.behaviors = behaviors
        kwargs.setdefault("failure_threshold", 2)
        kwargs.setdefault("reset_timeout_s", 60.0)
        return HealthMonitor(
            list(behaviors), client_factory=FakeStatusClient, **kwargs
        )

    def test_probe_marks_reachable_and_caches_status(self):
        status = {"server": {"pid": 42, "draining": False},
                  "load": {"pending": 1, "active_requests": 2},
                  "plan_cache": {"hits": 3, "misses": 4}}
        monitor = self.make_monitor({"unix:/a": status, "unix:/b": ClientError("down")})
        results = monitor.probe_once()
        assert results == {"unix:/a": True, "unix:/b": False}
        assert monitor.last_status("unix:/a") == status
        rows = {row["address"]: row for row in monitor.snapshot()}
        assert rows["unix:/a"]["pid"] == 42
        assert rows["unix:/a"]["plan_cache"]["hits"] == 3
        assert rows["unix:/b"]["last_error"].startswith("ClientError")

    def test_probe_failures_trip_the_breaker(self):
        monitor = self.make_monitor({"unix:/a": ClientError("down")})
        monitor.probe_once()
        assert monitor.healthy() == ("unix:/a",)  # one failure: still closed
        monitor.probe_once()
        assert monitor.healthy() == ()  # threshold reached: open

    def test_request_outcomes_feed_the_same_breakers(self):
        monitor = self.make_monitor({"unix:/a": {}, "unix:/b": {}})
        monitor.record_failure("unix:/b")
        monitor.record_failure("unix:/b")
        assert monitor.healthy() == ("unix:/a",)
        assert not monitor.allow("unix:/b")
        assert monitor.allow("unix:/a")

    def test_recovery_closes_after_successful_probe(self):
        import time

        behaviors = {"unix:/a": ClientError("down")}
        monitor = self.make_monitor(behaviors, reset_timeout_s=0.05)
        monitor.probe_once()
        monitor.probe_once()
        assert monitor.healthy() == ()
        behaviors["unix:/a"] = {"server": {"pid": 1}}  # backend came back
        time.sleep(0.06)  # open → half-open
        monitor.probe_once()  # half-open trial succeeds
        assert monitor.healthy() == ("unix:/a",)
        assert monitor.backend("unix:/a").breaker.state == "closed"

    def test_needs_backends(self):
        with pytest.raises(ValueError):
            HealthMonitor([])


class CountingStatusClient:
    """Numbers its answers and records how many callers it served at once."""

    def __init__(self, address: str, *, timeout=None):
        self.lock = threading.Lock()
        self.calls = 0
        self.busy = 0
        self.max_busy = 0

    def status(self) -> dict:
        with self.lock:
            self.busy += 1
            self.max_busy = max(self.max_busy, self.busy)
        time.sleep(0.0005)  # a round trip: let another thread in
        with self.lock:
            self.busy -= 1
            self.calls += 1
            return {"seq": self.calls}

    def close(self) -> None:
        pass


def test_concurrent_probes_share_a_client_one_at_a_time():
    """The probe loop and probe_once() callers share each backend's client;
    probes are serialized, so the cached status is the last answer."""
    monitor = HealthMonitor(["unix:/a"], client_factory=CountingStatusClient)
    monitor.probe_once()
    client = monitor._clients["unix:/a"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=lambda: [monitor.probe_once() for _ in range(10)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert client.max_busy == 1
    assert monitor.last_status("unix:/a") == {"seq": client.calls} == {"seq": 81}
