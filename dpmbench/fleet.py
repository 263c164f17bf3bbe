"""The ``fleet_closed`` workload: ``repro fleet --backends 2``, one client,
closed loop.

Each repetition starts a fresh fleet from the shipped CLI in a fresh
socket directory, warms the hot keys, runs the timed closed loop, checks
every answer, and tears the fleet down with SIGTERM as an operator would.
Backends that outlive their fleet are counted, then reaped: the runner is a
child subreaper (``host.become_subreaper``), so they become its children.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from numpy import percentile
from repro import pama_frontier
from repro.analysis import batch
from repro.service import client as client_module
from repro.service.client import ClientError, PlanClient, PlanServiceError
from repro.service.protocol import (
    PlanRequest,
    decode_message,
    encode_message,
    plan_payload_digest,
    scenario_names,
)
from repro.verify.oracle import check_plan_payload

import gen
import kernel
from calib import Speed
from host import live_descendants, peak_rss_mib, stop_descendants
from outcome import Outcome
from spans import Tracer, self_time_table

REPETITIONS = 4
#: a backend still running this long after its fleet exited is orphaned
ORPHAN_GRACE_S = 1.0
#: requests generated per second of closed loop, well above what one
#: connection achieves, so the loop never runs dry
MAX_RATE = 4000
#: misses recomputed in process: those at every n-th request of the loop
#: (each hot key is recomputed once per run regardless)
MISS_REFERENCE_EVERY = 4
#: closed-loop requests between two host-speed probes
BLOCK = 100
#: direct-to-backend probes per repetition (traced run)
HOP_PROBES = 120
MISS_PROBES = 12
class Fleet:
    """One ``repro fleet`` process and the backends it spawned."""

    def __init__(self, directory: Path, src: str):
        directory.mkdir(parents=True)
        self.address = f"unix:{directory}/gateway.sock"
        self._log = open(directory / "fleet.log", "wb")
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--backends", "2",
             "--socket", self.address, "--socket-dir", str(directory)],
            env=dict(os.environ, PYTHONPATH=src),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.backends: dict[str, int] = {}  # address → pid
        try:
            PlanClient.wait_for_server(self.address, timeout=60.0, interval=0.005).close()
            self.setup_s = time.perf_counter() - t0
            for line in self.process.stdout:
                if line.startswith("backend "):
                    address = line.split()[1]
                    self.backends[address] = int(line.split("pid=")[1].rstrip(")\n"))
                if line.startswith("fleet gateway serving"):
                    break
            if len(self.backends) != 2:
                raise RuntimeError(f"fleet announced backends {self.backends}")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mib(self) -> float:
        pids = [self.process.pid, *self.backends.values()]
        return sum(peak_rss_mib(pid) for pid in pids)

    def stop(self) -> int:
        """SIGTERM the fleet, wait for it, and return how many processes it
        left running a second later: its backends, announced or respawned.
        Those are then stopped and reaped, so the next fleet starts clean."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self._log.close()
        survivors = live_descendants()
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = live_descendants()
        stop_descendants()
        return len(survivors)


def _counters(gateway: PlanClient, fleet: Fleet) -> dict:
    """The gateway's live counters plus the backends' plan-cache traffic,
    read from each backend (the gateway's fleet view lags by a probe)."""
    counters = dict(gateway.status()["metrics"]["counters"])
    for address in fleet.backends:
        with PlanClient(address) as backend:
            cache = backend.status()["plan_cache"]
        counters["plan_cache_hits"] = counters.get("plan_cache_hits", 0) + cache["hits"]
        counters["plan_cache_misses"] = counters.get("plan_cache_misses", 0) + cache["misses"]
    return counters


class _Checks:
    """Every served payload: oracle, pinned digest per key, in-process
    reference.  Runs outside the timed region."""

    def __init__(self, frontier) -> None:
        self.frontier = frontier
        self.pinned: dict[gen.PlanKey, str] = {}
        self.reference: dict[gen.PlanKey, str] = {}
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def reference_digest(self, key: gen.PlanKey) -> str:
        if key not in self.reference:
            request = PlanRequest.from_payload(key.payload())
            result = batch.run_cell(request.to_cell_spec(), self.frontier).cell.result
            self.reference[key] = plan_payload_digest({
                **request.canonical(),
                "digest": request.digest(),
                "wasted": float(result.wasted),
                "undersupplied": float(result.undersupplied),
                "utilization": float(result.utilization),
                "plan_iterations": result.plan_iterations,
                "plan_used_fallback": result.plan_used_fallback,
                "plan_feasible": result.plan_feasible,
                "allocated_power": result.allocated_power,
            })
        return self.reference[key]

    def check(self, key: gen.PlanKey, payload: "dict | None", where: str,
              reference: bool = True) -> None:
        """Check one answer; ``reference=False`` skips the in-process
        recomputation for a key answered only once."""
        self.attempted += 1
        if payload is None:
            self._fail(f"{where}: request failed")
            return
        found = check_plan_payload(payload, frontier=self.frontier)
        if found:
            self._fail(f"{where}: {found[0]}")
            return
        digest = plan_payload_digest(payload)
        pinned = self.pinned.setdefault(key, digest)
        if digest != pinned:
            self._fail(f"{where}: digest differs from the pinned one for {key}")
        elif reference and digest != self.reference_digest(key):
            self._fail(f"{where}: digest differs from the in-process reference for {key}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.violations.append(message)


def _request(client: PlanClient, key: gen.PlanKey) -> "dict | None":
    try:
        return client.request(key.payload())
    except (ClientError, PlanServiceError):
        return None


def _closed_loop(client: PlanClient, keys: list, seconds: float, tracer: "Tracer | None"):
    """Send ``keys`` back to back, in blocks of :data:`BLOCK` bracketed by
    host-speed probes, until ``seconds`` of loop time.  Returns
    ``([(key, nominal rtt, payload or None, traced, factor)], raw s,
    nominal s)``.  With a ``tracer``, every other block runs with the
    protocol shims installed."""
    records: list = []
    raw_s = nominal_s = 0.0
    traced = False
    speed = Speed()
    pending = iter(keys)
    while raw_s < seconds:
        block = list(itertools.islice(pending, BLOCK))
        if len(block) < BLOCK:
            raise RuntimeError("the closed loop ran out of generated requests")
        if tracer is not None:
            traced = not traced
            if traced:
                tracer.span(client_module, "encode_message", "protocol.encode")
                tracer.span(client_module, "decode_message", "protocol.decode",
                            on_return=lambda response: response)
        rows = []
        t_block = time.perf_counter()
        for key in block:
            t0 = time.perf_counter()
            payload = _request(client, key)
            rows.append((key, time.perf_counter() - t0, payload))
        wall = time.perf_counter() - t_block
        if traced:
            tracer.restore()
        factor = speed.close_unit()
        raw_s += wall
        nominal_s += wall * factor
        records.extend((key, rtt * factor, payload, traced, factor) for key, rtt, payload in rows)
    return records, raw_s, nominal_s


def _timed(client: PlanClient, key: gen.PlanKey) -> "tuple[float, dict | None]":
    t0 = time.perf_counter()
    payload = _request(client, key)
    return time.perf_counter() - t0, payload


def _probe_backends(fleet: Fleet, stream, checks: _Checks, layer: dict, trace: bool) -> None:
    """Untimed direct-to-backend requests: every hot key on both backends
    (the cross-replica check), and in the traced run the hit, hop and
    hand-off probes, made nominal like the closed loop."""
    clients = [PlanClient(address) for address in fleet.backends]
    try:
        for key in stream.hot:
            for client in clients:
                checks.check(key, _request(client, key), f"direct {client.address}")
        if not trace:
            return
        with PlanClient(fleet.address) as gateway:
            speed = Speed()
            via_gateway, direct = [], []
            for i in range(HOP_PROBES):
                key = stream.hot[i % len(stream.hot)]
                rtt, payload = _timed(gateway, key)
                via_gateway.append(rtt)
                checks.check(key, payload, "hop probe via gateway")
                rtt, payload = _timed(clients[i % len(clients)], key)
                direct.append(rtt)
                checks.check(key, payload, "hop probe direct")
            factor = speed.close_unit()
        layer["hit_gateway"] += [rtt * factor for rtt in via_gateway]
        layer["hit_direct"] += [rtt * factor for rtt in direct]
        speed.reset()
        handoff = []
        for i, key in enumerate(stream.probe_misses(MISS_PROBES)):
            rtt, payload = _timed(clients[i % len(clients)], key)
            checks.check(key, payload, "miss probe direct")
            if payload is not None:
                handoff.append(rtt - payload["compute_wall_s"])
        factor = speed.close_unit()
        layer["handoff"] += [h * factor for h in handoff]
        for client in clients:
            memo = client.status()["allocation_memo"]
            layer["memo_hits"] += memo["hits"]
            layer["memo_misses"] += memo["misses"]
    finally:
        for client in clients:
            client.close()


def run(seed: int, seconds: float, trace: bool, src: str, run_dir: Path) -> Outcome:
    out = Outcome()
    frontier = pama_frontier()
    stream = gen.FleetStream(seed, scenario_names())
    checks = _Checks(frontier)
    kernel_tracer = Tracer() if trace else None
    setup, hit_rtt, miss_rtt, rss = [], [], [], []
    raw_s = nominal_s = 0.0
    orphans = 0
    layer: dict = {"hit_direct": [], "hit_gateway": [], "handoff": [], "compute": [],
                   "traced_rtt": [], "untraced_rtt": [], "responses": [],
                   "protocol_stats": [], "kernel_scale": [], "memo_hits": 0,
                   "memo_misses": 0}
    totals: dict[str, int] = {}

    for rep in range(REPETITIONS):
        speed = Speed()
        fleet = Fleet(run_dir / f"rep{rep}", src)
        try:
            setup.append(fleet.setup_s * speed.close_unit())
            with PlanClient(fleet.address) as client:
                for key in stream.hot:  # warm every hot key, untimed
                    checks.check(key, _request(client, key), "warm-up")
                keys = stream.take(int(MAX_RATE * seconds / REPETITIONS))
                before = _counters(client, fleet)
                tracer = Tracer() if trace else None
                records, raw, nominal = _closed_loop(client, keys, seconds / REPETITIONS, tracer)
                raw_s += raw
                nominal_s += nominal
                after = _counters(client, fleet)
            for name in ("forwards_total", "forward_attempts", "hedges_fired",
                         "hedge_wins", "plan_cache_hits", "plan_cache_misses"):
                totals[name] = totals.get(name, 0) + after.get(name, 0) - before.get(name, 0)
            if kernel_tracer is not None:
                kernel.install(kernel_tracer, grid=False)
            speed.reset()
            rep_hits, rep_misses = [], []
            try:
                for n, (key, rtt, payload, traced, factor) in enumerate(records):
                    checks.check(key, payload, "closed loop",
                                 reference=key.hot or n % MISS_REFERENCE_EVERY == 0)
                    if payload is None:
                        continue
                    if key.hot:
                        rep_hits.append(rtt)
                        layer["traced_rtt" if traced else "untraced_rtt"].append(rtt)
                    else:
                        rep_misses.append(rtt)
                        layer["compute"].append(payload["compute_wall_s"] * factor)
            finally:
                if kernel_tracer is not None:
                    kernel_tracer.restore()
            layer["kernel_scale"].append(speed.close_unit())
            hit_rtt += rep_hits
            miss_rtt += rep_misses
            out.lines.append(
                f"repetition {rep}: setup {setup[-1]:.3f} s, {len(records) / nominal:.1f} "
                f"plans/s, hit p50 {1e3 * percentile(rep_hits, 50):.3f} ms, miss p50 "
                f"{1e3 * percentile(rep_misses, 50):.3f} ms (nominal)"
            )
            if tracer is not None:
                layer["responses"].extend(tracer.returns["protocol.decode"])
                layer["protocol_stats"].append(tracer.stats())
            _probe_backends(fleet, stream, checks, layer, trace)
            rss.append(fleet.peak_rss_mib())
        finally:
            orphans += fleet.stop()

    served = len(hit_rtt) + len(miss_rtt)
    out.attempted, out.failed = checks.attempted, checks.failed
    out.lines.append(
        f"fleet_closed: {REPETITIONS} fresh fleets, {served} plans answered in "
        f"{raw_s:.1f} s of closed loop ({nominal_s:.1f} s nominal; {len(hit_rtt)} "
        f"hits, {len(miss_rtt)} misses); raw plans/s {served / raw_s:.1f}; backends "
        f"still running after their fleet exited: {orphans}"
    )
    out.lines.append(
        "nominal round trip ms: hit p50 {:.3f} p90 {:.3f} p99 {:.3f} | miss p50 {:.3f} "
        "p90 {:.3f} p99 {:.3f}".format(
            *(1e3 * percentile(v, q) for v in (hit_rtt, miss_rtt) for q in (50, 90, 99))
        )
    )
    out.lines.extend(f"check failed: {v}" for v in checks.violations[:10])
    if not trace:
        out.metrics["setup_s"] = median(setup)
        out.metrics["cells_per_s"] = served / nominal_s
        out.metrics["plans_per_s"] = served / nominal_s
        for kind, values in (("hit", hit_rtt), ("miss", miss_rtt)):
            out.metrics[f"{kind}_p50_ms"] = 1e3 * percentile(values, 50)
            out.metrics[f"{kind}_p90_ms"] = 1e3 * percentile(values, 90)
        out.metrics["peak_rss_mb"] = max(rss)
        return out
    _traced_layers(out, kernel_tracer, layer, totals, orphans)
    return out


def _traced_layers(out: Outcome, kernel_tracer: Tracer, layer: dict, totals: dict,
                   orphans: int) -> None:
    scale = median(layer["kernel_scale"])
    lookups = layer["memo_hits"] + layer["memo_misses"]
    kernel_rows = kernel.metrics(kernel_tracer, scale,
                                 layer["memo_hits"] / lookups if lookups else 0.0)
    out.metrics.update(kernel_rows)

    speed = Speed()
    encode_s, decode_s, sizes = [], [], []
    for response in layer["responses"]:
        t0 = time.perf_counter()
        frame = encode_message(response)
        t1 = time.perf_counter()
        decode_message(frame)
        decode_s.append(time.perf_counter() - t1)
        encode_s.append(t1 - t0)
        sizes.append(len(frame))
    factor = speed.close_unit()
    out.metrics["protocol.encode_us"] = 1e6 * factor * median(encode_s)
    out.metrics["protocol.decode_us"] = 1e6 * factor * median(decode_s)
    out.metrics["protocol.response_bytes"] = sum(sizes) / len(sizes)

    hit_direct_ms = 1e3 * median(layer["hit_direct"])
    hop_ms = 1e3 * median(layer["hit_gateway"]) - hit_direct_ms
    out.metrics["server.hit_rtt_ms"] = hit_direct_ms
    out.metrics["server.compute_ms"] = 1e3 * median(layer["compute"])
    out.metrics["server.handoff_ms"] = 1e3 * median(layer["handoff"])
    cache_lookups = totals["plan_cache_hits"] + totals["plan_cache_misses"]
    out.metrics["plan_cache.hit_ratio"] = totals["plan_cache_hits"] / cache_lookups
    out.metrics["gateway.hop_ms"] = hop_ms
    out.metrics["gateway.attempts_per_request"] = (
        totals["forward_attempts"] / totals["forwards_total"]
    )
    out.metrics["gateway.hedges_fired"] = totals["hedges_fired"]
    out.metrics["gateway.hedge_wins"] = totals["hedge_wins"]
    out.metrics["launcher.orphaned_backends"] = orphans
    untraced_ms = 1e3 * median(layer["untraced_rtt"])
    out.metrics["trace.overhead_ratio"] = 1e3 * median(layer["traced_rtt"]) / untraced_ms

    out.lines.append(self_time_table(
        kernel_tracer.stats(),
        "where the time goes (fleet_closed kernel: in-process reference pass over "
        "the workload's keys, nominal ms):", scale,
    ))
    out.lines.append(self_time_table(
        layer["protocol_stats"][0], "client protocol spans (traced blocks, repetition 0, raw ms):"
    ))
    out.lines.append(
        f"closure: server.hit_rtt_ms {hit_direct_ms:.3f} + gateway.hop_ms {hop_ms:.3f} "
        f"= {hit_direct_ms + hop_ms:.3f} ms vs hit p50 {untraced_ms:.3f} ms "
        f"(untraced blocks of this run)"
    )
