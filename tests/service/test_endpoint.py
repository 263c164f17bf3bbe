"""The connection frame both front ends share: connection bookkeeping and
the accept loop's self-heal, checked on the plan server and the gateway."""

from __future__ import annotations

import errno
import os
import threading
import time

import pytest

from repro.fleet.gateway import GatewayConfig, PlanGateway
from repro.service.client import PlanClient
from repro.service.server import PlanServer, ServerConfig

pytestmark = pytest.mark.service


def _plan_server(address, tmp_path, frontier):
    return PlanServer(
        ServerConfig(address=address, metrics_interval_s=0.0), frontier=frontier
    )


def _gateway(address, tmp_path, frontier):
    # ping and status never forward, so the backend need not exist
    return PlanGateway(
        GatewayConfig(
            address=address,
            backends=(f"unix:{tmp_path}/no-backend.sock",),
            probe_interval_s=30.0,
            drain_timeout_s=5.0,
        )
    )


FRONT_ENDS = pytest.mark.parametrize(
    "make", [_plan_server, _gateway], ids=["server", "gateway"]
)


def _wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class _FlakyListener:
    """A real listener whose first ``accept()`` calls raise ``errors``."""

    def __init__(self, real, errors):
        self._real = real
        self._errors = list(errors)

    def accept(self):
        if self._errors:
            raise self._errors.pop(0)
        return self._real.accept()

    def __getattr__(self, name):
        return getattr(self._real, name)


def _inject_accept_errors(frame, errors):
    """Make the listener of the frame's next bind raise ``errors`` first."""
    real_bind = frame._bind
    pending = [list(errors)]

    def bind(address):
        return _FlakyListener(real_bind(address), pending.pop() if pending else [])

    frame._bind = bind


@FRONT_ENDS
def test_closed_connections_are_forgotten_and_drain_is_clean(
    make, tmp_path, frontier
):
    threads_before = set(threading.enumerate())
    frame = make(f"unix:{tmp_path}/front.sock", tmp_path, frontier)
    frame.start()
    held = PlanClient(frame.endpoint, timeout=5.0)
    try:
        assert held.ping()["pong"] is True
        for _ in range(200):
            with PlanClient(frame.endpoint, timeout=5.0) as client:
                assert client.ping()["pong"] is True
        # Only the held connection stays; the frame keeps its acceptor
        # and helpers, not one thread object per connection ever served.
        assert _wait_until(lambda: len(frame._conns) == 1)
        assert len(frame._threads) <= 3
        stopper = threading.Thread(target=frame.stop)
        stopper.start()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive()
    finally:
        held.close()
        frame.stop()
    assert frame._stopped.is_set()
    assert frame._conns == {}
    new_threads = set(threading.enumerate()) - threads_before
    assert not [t for t in new_threads if t.name.endswith("-conn")]
    assert not os.path.exists(f"{tmp_path}/front.sock")
    metrics = frame.metrics
    assert metrics.counter("connections_opened") == 201
    assert metrics.counter("connections_closed") == 201


@FRONT_ENDS
def test_transient_accept_error_is_retried(make, tmp_path, frontier):
    frame = make(f"unix:{tmp_path}/front.sock", tmp_path, frontier)
    _inject_accept_errors(frame, [OSError(errno.EMFILE, "Too many open files")])
    frame.start()
    try:
        with PlanClient(frame.endpoint, timeout=3.0) as client:
            assert client.ping()["pong"] is True
        assert frame.metrics.counter("listener_rebinds") == 0
    finally:
        frame.stop()


@FRONT_ENDS
def test_hard_accept_error_rebinds_the_same_endpoint(make, tmp_path, frontier):
    frame = make("tcp:127.0.0.1:0", tmp_path, frontier)
    _inject_accept_errors(frame, [OSError(errno.EBADF, "Bad file descriptor")])
    frame.start()
    endpoint = frame.endpoint
    try:
        assert _wait_until(lambda: frame.metrics.counter("listener_rebinds") == 1)
        assert frame.endpoint == endpoint  # the resolved port, not port 0
        with PlanClient(endpoint, timeout=3.0) as client:
            assert client.ping()["pong"] is True
    finally:
        frame.stop()
