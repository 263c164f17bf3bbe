"""Fleet-tier supervision: restart crashed backends, respect the restart
budget, and drain cleanly even when some backends already died."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet.launcher import Backend, FleetLauncher, _repro_env
from repro.service.client import ClientError, PlanClient

pytestmark = pytest.mark.fleet


def _launcher(tmp_path, n_backends=1, **overrides):
    overrides.setdefault("socket_dir", tmp_path)
    overrides.setdefault("n_workers", 0)  # in-process execution: fast startup
    overrides.setdefault("supervise_interval_s", 0.05)
    overrides.setdefault("restart_backoff_s", 0.05)
    overrides.setdefault("log_level", "error")
    return FleetLauncher(n_backends=n_backends, **overrides)


def _wait_until(predicate, *, timeout_s=60.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


def _group_members(pgid: int) -> "list[int]":
    """Pids of the running processes (zombies excluded) in group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _ppid, pgrp = fh.read().rsplit(") ", 1)[1].split()[:3]
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if state != "Z" and int(pgrp) == pgid:
            members.append(int(entry))
    return members


def _spawn_with_pool(launcher: FleetLauncher) -> int:
    """Spawn one ``--workers 2`` backend, make it fork its pool, and
    return its pid (which is also its process group id)."""
    launcher.spawn()
    pid = launcher.backends[0].pid
    assert os.getpgid(pid) == pid  # each backend leads its own group
    with PlanClient(launcher.backends[0].address, timeout=60.0) as client:
        client.plan("scenario1", n_periods=1)
    _wait_until(
        lambda: len(_group_members(pid)) >= 3,
        timeout_s=30.0,
        message="the backend and its two pool workers",
    )
    return pid


class TestSupervision:
    def test_sigkilled_backend_leaves_no_pool_worker(self, tmp_path):
        """A SIGKILLed daemon cannot stop its pool; the supervisor kills
        the backend's process group before it restarts the backend."""
        restarted: "list[Backend]" = []
        launcher = _launcher(tmp_path, n_workers=2)
        try:
            old_pid = _spawn_with_pool(launcher)
            launcher.start_supervision(on_restart=restarted.append)
            backend = launcher.kill(0, signal.SIGKILL)
            _wait_until(
                lambda: len(restarted) >= 1 and backend.alive,
                message="the backend to be restarted",
            )
            assert backend.pid != old_pid
            _wait_until(
                lambda: _group_members(old_pid) == [],
                timeout_s=5.0,
                message="the killed backend's pool workers to exit",
            )
        finally:
            launcher.terminate()

    def test_crashed_backend_is_restarted_on_same_address(self, tmp_path):
        restarted: "list[Backend]" = []
        launcher = _launcher(tmp_path)
        try:
            launcher.spawn()
            launcher.start_supervision(on_restart=restarted.append)
            backend = launcher.backends[0]
            old_pid = backend.pid
            launcher.kill(0, signal.SIGKILL)
            # The callback fires only after the restarted backend answers
            # ping — it is the last step of a restart, so wait on it.
            _wait_until(
                lambda: len(restarted) >= 1 and backend.alive,
                message="the backend to be restarted",
            )
            assert launcher.restarts_total >= 1
            assert backend.pid != old_pid
            assert backend.restarts == 1
            assert backend.last_exit_code == -signal.SIGKILL
            assert not backend.given_up
            # The on_restart hook fired with the restarted backend — this
            # is what re-registers it with the gateway's health monitor.
            assert [b.address for b in restarted] == [backend.address]
            # And it actually serves again, on the same address.
            with PlanClient(backend.address, timeout=10.0) as client:
                assert client.ping()["pong"] is True
        finally:
            launcher.terminate()

    def test_restart_budget_exhaustion_gives_up(self, tmp_path):
        launcher = _launcher(tmp_path, restart_budget=0)
        try:
            launcher.spawn()
            launcher.start_supervision()
            backend = launcher.backends[0]
            launcher.kill(0, signal.SIGKILL)
            _wait_until(
                lambda: backend.given_up, message="the restart budget to trip"
            )
            assert launcher.restarts_total == 0
            assert not backend.alive
        finally:
            launcher.terminate()


class TestDrain:
    def test_terminate_with_already_exited_backend(self, tmp_path):
        """The drain must not signal dead pids: a backend that already
        crashed is only reaped, and its exit code still lands in the map."""
        launcher = _launcher(tmp_path, n_backends=2)
        try:
            launcher.spawn()
            victim = launcher.backends[0]
            launcher.kill(0, signal.SIGKILL)
            victim.process.wait(timeout=30.0)  # dead before the drain starts
        finally:
            codes = launcher.terminate()
        assert codes[victim.address] == -signal.SIGKILL
        assert codes[launcher.backends[1].address] == 0  # clean SIGTERM drain
        for backend in launcher.backends:
            assert not backend.alive

    def test_terminate_stops_a_killed_backends_pool_workers(self, tmp_path):
        launcher = _launcher(tmp_path, n_workers=2)
        try:
            pid = _spawn_with_pool(launcher)
            launcher.kill(0, signal.SIGKILL)
        finally:
            launcher.terminate()
        _wait_until(
            lambda: _group_members(pid) == [],
            timeout_s=5.0,
            message="the killed backend's pool workers to exit",
        )

    def test_terminate_is_idempotent(self, tmp_path):
        launcher = _launcher(tmp_path)
        launcher.spawn()
        first = launcher.terminate()
        second = launcher.terminate()
        assert first == second


def _pid_alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(") ", 1)[1][0] != "Z"
    except FileNotFoundError:
        return False


class TestFleetCommandDrain:
    def test_sigterm_leaves_no_backend_alive(self, tmp_path):
        """``repro fleet`` returns only after its drain has stopped every
        spawned backend, not as soon as the gateway stops serving."""
        fleet = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fleet",
                "--socket", f"unix:{tmp_path}/gw.sock",
                "--backends", "2", "--socket-dir", str(tmp_path),
                "--log-level", "error",
            ],
            stdout=subprocess.PIPE, text=True, env=_repro_env(),
        )
        pids: "list[int]" = []
        try:
            for line in fleet.stdout:
                pids += [int(pid) for pid in re.findall(r"pid=(\d+)", line)]
                if line.startswith("fleet gateway serving"):
                    break
            assert len(pids) == 2
            fleet.send_signal(signal.SIGTERM)
            assert fleet.wait(timeout=60) == 0
            assert [pid for pid in pids if _pid_alive(pid)] == []
        finally:
            if fleet.poll() is None:
                fleet.kill()
                fleet.wait()
            fleet.stdout.close()
            for pid in pids:
                if _pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_sigterm_during_startup_drains_every_backend(self, tmp_path):
        """A SIGTERM that lands while backends are still starting ends in
        the normal drain: exit 0 and no backend left answering."""
        fleet = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fleet",
                "--socket", f"unix:{tmp_path}/gw.sock",
                "--backends", "2", "--socket-dir", str(tmp_path),
                "--log-level", "error",
            ],
            stdout=subprocess.DEVNULL, env=_repro_env(),
        )
        backends = [f"unix:{tmp_path}/backend-{i}.sock" for i in range(2)]
        try:
            _wait_until(
                lambda: os.path.exists(f"{tmp_path}/backend-0.sock"),
                message="the first backend socket",
            )
            fleet.send_signal(signal.SIGTERM)
            assert fleet.wait(timeout=60) == 0
            assert [a for a in backends if _answers_ping(a)] == []
        finally:
            if fleet.poll() is None:
                fleet.kill()
                fleet.wait()
            for address in backends:
                # A fleet that died mid start-up may leave a backend that
                # is still coming up; wait for it so it can be shut down.
                try:
                    client = PlanClient.wait_for_server(
                        address, timeout=0.5 if fleet.returncode == 0 else 30.0
                    )
                except (ClientError, OSError, TimeoutError):
                    continue
                with client:
                    client.shutdown()


def _answers_ping(address: str) -> bool:
    try:
        with PlanClient(address, timeout=2.0) as client:
            return client.ping()["pong"] is True
    except (ClientError, OSError):
        return False
