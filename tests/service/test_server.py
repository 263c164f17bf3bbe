"""End-to-end daemon tests: serving, caching, coalescing, deadlines,
backpressure, and graceful drain — all over a real Unix socket."""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from contextlib import contextmanager

import pytest

import repro.analysis.batch as batch
from repro.analysis.batch import CellSpec, register_policy, run_cell
from repro.analysis.energy import run_demand_follower
from repro.service.client import PlanClient, PlanServiceError
from repro.service.protocol import resolve_scenario
from repro.service.server import PlanServer, ServerConfig

pytestmark = pytest.mark.service

SLEEPY_S = 0.4  #: wall time of one "sleepy" policy cell


@contextmanager
def running_server(tmp_path, frontier, **overrides):
    overrides.setdefault("address", f"unix:{tmp_path}/plan.sock")
    overrides.setdefault("metrics_interval_s", 0.0)
    server = PlanServer(ServerConfig(**overrides), frontier=frontier)
    server.start()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture
def sleepy_policy():
    """A registered policy whose cells take ``SLEEPY_S`` of wall time."""
    calls: list[str] = []

    def runner(spec, frontier):
        calls.append(spec.scenario.name)
        time.sleep(SLEEPY_S)
        return run_demand_follower(
            spec.scenario, n_periods=spec.n_periods, supply_factor=spec.supply_factor
        )

    register_policy("sleepy", runner)
    try:
        yield calls
    finally:
        batch._POLICIES.pop("sleepy", None)
        batch._PLANNING_POLICIES.discard("sleepy")


class TestServing:
    def test_ping_and_tcp_endpoint(self, frontier):
        with running_server(None, frontier, address="tcp:127.0.0.1:0") as server:
            assert server.endpoint.startswith("tcp:127.0.0.1:")
            assert not server.endpoint.endswith(":0")
            with PlanClient(server.endpoint, timeout=5.0) as client:
                assert client.ping() == {"pong": True, "draining": False}

    def test_plan_bit_identical_to_one_shot_path(self, tmp_path, frontier):
        spec = CellSpec(scenario=resolve_scenario("scenario1"), policy="proposed")
        direct = run_cell(spec, frontier).cell.result
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=10.0) as client:
                served = client.plan("scenario1")
        assert served["cached"] is False
        assert served["wasted"] == direct.wasted
        assert served["undersupplied"] == direct.undersupplied
        assert served["utilization"] == direct.utilization
        assert served["allocated_power"] == list(direct.allocated_power)
        assert served["plan_iterations"] == direct.plan_iterations
        assert served["plan_feasible"] is True

    def test_plan_cache_hit_and_stats(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=10.0) as client:
                first = client.plan("scenario1")
                second = client.plan("scenario1")
                stats = client.status()["plan_cache"]
        assert first["cached"] is False
        assert second["cached"] is True
        for key in ("wasted", "utilization", "allocated_power", "digest"):
            assert first[key] == second[key]
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert server.metrics.counter("plan_cache_hits") == 1

    def test_sweep_rows_match_cells(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=30.0) as client:
                report = client.sweep(
                    ["scenario1"],
                    policies=["proposed", "static"],
                    supply_factors=[1.0, 0.9],
                )
        assert report["n_cells"] == 4
        assert len(report["rows"]) == 4
        # Same grid nesting as the CLI sweep: factor-major, policy-minor.
        assert [(r["policy"], r["supply_factor"]) for r in report["rows"]] == [
            ("proposed", 1.0),
            ("static", 1.0),
            ("proposed", 0.9),
            ("static", 0.9),
        ]
        spec = CellSpec(
            scenario=resolve_scenario("scenario1"), policy="proposed", knob=1.0
        )
        direct = run_cell(spec, frontier).cell.result
        assert report["rows"][0]["wasted"] == direct.wasted

    def test_status_shape(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=10.0) as client:
                client.plan("scenario1")
                status = client.status()
        info = status["server"]
        assert info["address"] == server.endpoint
        assert info["executor_mode"] == "thread"
        assert info["draining"] is False
        assert "scenario1" in info["scenarios"]
        assert "proposed" in info["policies"]
        assert status["plan_cache"]["maxsize"] == server.config.cache_size
        assert set(status["allocation_memo"]) == {
            "hits", "misses", "size", "maxsize", "hit_rate",
        }
        assert status["metrics"]["counters"]["requests_plan"] == 1

    def test_error_codes_over_the_wire(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=10.0) as client:
                with pytest.raises(PlanServiceError) as info:
                    client.plan("atlantis")
                assert info.value.code == "unknown_scenario"
                with pytest.raises(PlanServiceError) as info:
                    client.plan("scenario1", policy="bogus")
                assert info.value.code == "unknown_policy"
                with pytest.raises(PlanServiceError) as info:
                    client.request({"op": "dance"})
                assert info.value.code == "bad_request"
                # the connection survives every error response
                assert client.ping()["pong"] is True

    def test_malformed_line_gets_bad_request(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            path = server.endpoint[len("unix:"):]
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(5.0)
                raw.connect(path)
                raw.sendall(b"this is not json\n")
                response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"


class TestCoalescing:
    def test_identical_requests_share_one_computation(
        self, tmp_path, frontier, sleepy_policy
    ):
        results: list[dict] = []
        errors: list[Exception] = []

        def fetch(delay: float, endpoint: str) -> None:
            time.sleep(delay)
            try:
                with PlanClient(endpoint, timeout=10.0) as client:
                    results.append(client.plan("scenario1", policy="sleepy"))
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        with running_server(tmp_path, frontier) as server:
            threads = [
                threading.Thread(target=fetch, args=(delay, server.endpoint))
                for delay in (0.0, 0.1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            coalesced = server.metrics.counter("plan_coalesced")
        assert not errors
        assert len(sleepy_policy) == 1  # one computation served both waiters
        assert coalesced == 1
        assert results[0]["digest"] == results[1]["digest"]
        assert results[0]["wasted"] == results[1]["wasted"]


class TestDeadlines:
    def test_deadline_exceeded(self, tmp_path, frontier, sleepy_policy):
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=10.0) as client:
                t0 = time.monotonic()
                with pytest.raises(PlanServiceError) as info:
                    client.plan("scenario1", policy="sleepy", deadline_s=0.05)
                waited = time.monotonic() - t0
            assert info.value.code == "deadline_exceeded"
            assert waited < SLEEPY_S  # answered at the deadline, not at completion
            assert server.metrics.counter("deadline_exceeded") == 1

    def test_abandoned_queued_work_is_cancelled(
        self, tmp_path, frontier, sleepy_policy
    ):
        # Two distinct sleepy requests on a single-worker executor: the
        # second queues behind the first.  When its only waiter gives up,
        # the queued future is cancelled instead of running to waste.
        with running_server(tmp_path, frontier) as server:

            def occupy() -> None:
                with PlanClient(server.endpoint, timeout=10.0) as client:
                    client.plan("scenario1", policy="sleepy")

            first = threading.Thread(target=occupy)
            first.start()
            time.sleep(0.1)  # let the first request reach the worker
            with PlanClient(server.endpoint, timeout=10.0) as client:
                with pytest.raises(PlanServiceError) as info:
                    client.plan("scenario2", policy="sleepy", deadline_s=0.05)
            assert info.value.code == "deadline_exceeded"
            first.join()
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if server.metrics.counter("plans_cancelled") == 1:
                    break
                time.sleep(0.01)
        assert server.metrics.counter("plans_cancelled") == 1
        assert sleepy_policy == ["scenario1"]  # scenario2 never ran


class TestBackpressure:
    def test_load_shed_when_saturated(self, tmp_path, frontier, sleepy_policy):
        with running_server(tmp_path, frontier, max_pending=1) as server:

            def occupy() -> None:
                with PlanClient(server.endpoint, timeout=10.0) as client:
                    client.plan("scenario1", policy="sleepy")

            first = threading.Thread(target=occupy)
            first.start()
            time.sleep(0.1)
            with PlanClient(server.endpoint, timeout=10.0) as client:
                t0 = time.monotonic()
                with pytest.raises(PlanServiceError) as info:
                    client.plan("scenario2", policy="sleepy")
                shed_after = time.monotonic() - t0
                assert info.value.code == "overloaded"
                assert shed_after < SLEEPY_S  # shed immediately, not queued
                # the saturated server still answers cheap requests
                assert client.ping()["pong"] is True
            first.join()
            assert server.metrics.counter("requests_shed") == 1

    def test_oversized_sweep_rejected(self, tmp_path, frontier):
        with running_server(tmp_path, frontier, max_sweep_cells=2) as server:
            with PlanClient(server.endpoint, timeout=10.0) as client:
                with pytest.raises(PlanServiceError) as info:
                    client.sweep(["scenario1"], policies=["proposed", "static"],
                                 supply_factors=[1.0, 0.9])
        assert info.value.code == "bad_request"

    def test_sweep_factor_overflowing_the_supply_rejected(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=10.0) as client:
                with pytest.raises(PlanServiceError) as info:
                    client.sweep(["scenario1"], policies=["static"],
                                 supply_factors=[1.0, 1e308])
                assert info.value.code == "bad_request"
                assert "supply_factor" in str(info.value)
                with pytest.raises(PlanServiceError) as info:
                    client.plan("scenario1", supply_factor=1e308)
                assert info.value.code == "bad_request"
                assert "supply_factor" in str(info.value)


class TestDrain:
    def test_draining_rejects_new_work_but_answers_status(
        self, tmp_path, frontier
    ):
        with running_server(tmp_path, frontier) as server:
            server._draining.set()  # enter drain without tearing down serving
            with PlanClient(server.endpoint, timeout=10.0) as client:
                assert client.ping()["draining"] is True
                assert client.status()["server"]["draining"] is True
                with pytest.raises(PlanServiceError) as info:
                    client.plan("scenario1")
                assert info.value.code == "shutting_down"

    def test_stop_drains_inflight_work(self, tmp_path, frontier, sleepy_policy):
        results: list[dict] = []
        errors: list[Exception] = []

        def fetch(endpoint: str) -> None:
            try:
                with PlanClient(endpoint, timeout=10.0) as client:
                    results.append(client.plan("scenario1", policy="sleepy"))
            except Exception as exc:
                errors.append(exc)

        with running_server(tmp_path, frontier) as server:
            worker = threading.Thread(target=fetch, args=(server.endpoint,))
            worker.start()
            time.sleep(0.1)  # request is in flight
            t0 = time.monotonic()
            server.stop()
            stop_wall = time.monotonic() - t0
            worker.join(timeout=5.0)
        assert not errors
        assert len(results) == 1  # the in-flight plan was answered, not dropped
        assert results[0]["policy"] == "sleepy"
        assert stop_wall >= 0.1  # stop actually waited for the in-flight work
        path = server.endpoint[len("unix:"):]
        assert not os.path.exists(path)  # socket unlinked on the way out
        with pytest.raises(OSError):
            PlanClient(server.endpoint, timeout=1.0).connect()

    def test_shutdown_rpc(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=10.0) as client:
                assert client.shutdown() == {"stopping": True}
            assert server._stopped.wait(5.0)

    def test_stale_socket_is_reclaimed(self, tmp_path, frontier):
        path = str(tmp_path / "plan.sock")
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(path)
        stale.close()  # leaves the filesystem entry behind, like a dead daemon
        with running_server(tmp_path, frontier, address=f"unix:{path}") as server:
            with PlanClient(server.endpoint, timeout=5.0) as client:
                assert client.ping()["pong"] is True

    def test_live_socket_is_not_stolen(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            address = server.config.address
            second = PlanServer(
                ServerConfig(address=address, metrics_interval_s=0.0),
                frontier=frontier,
            )
            with pytest.raises(OSError, match="live server"):
                second.start()
            second.stop()  # releases the executor it built before failing to bind
            # the live server is unharmed: its socket survives and it answers
            with PlanClient(server.endpoint, timeout=5.0) as client:
                assert client.ping()["pong"] is True
