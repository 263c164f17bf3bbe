"""The two sweep workloads: ``grid_long`` and ``grid_distinct``.

Both run serial ``run_grid`` repetitions of one seeded grid in this
process (``--workers 0`` is the CLI default).  Each repetition starts from
an empty allocation memo, as one ``repro sweep`` process does, and runs the
grid as ``run_grid`` calls on consecutive chunks of about a quarter second,
each bracketed by host-speed probes (``calib.py``) that make its times
nominal.  ``cells_per_s`` is the grid size over the median nominal
repetition time; hit and miss latencies are percentiles, over the planning
cells, of each cell's median nominal wall time.

Checks run between repetitions, outside the timed region: every cell
through ``check_energy_run``, and every row and its memo traffic against
the first repetition.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from statistics import median

from numpy import percentile
from repro import pama_frontier
from repro.analysis import batch
from repro.core.allocation import clear_allocation_cache
from repro.verify.oracle import check_energy_run

import gen
import kernel
from calib import Speed
from host import peak_rss_mib
from outcome import Outcome
from spans import Tracer, self_time_table

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_SAMPLES = 7
#: grid_distinct: distinct problems per grid, and cells per ``run_grid`` call
DISTINCT_PROBLEMS = 200
DISTINCT_CHUNK = 48


def interpreter_setup_s(src: str) -> float:
    """Median nominal wall time of a fresh ``import repro; pama_frontier()``."""
    env = dict(os.environ, PYTHONPATH=src)
    samples = []
    speed = Speed()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro; repro.pama_frontier()"],
            env=env, check=True, stdin=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - t0
        samples.append(wall * speed.close_unit())
    return median(samples)


def _grid(workload: str, seed: int) -> "tuple[list, int]":
    """The workload's cells and its ``run_grid`` chunk: one scenario's
    cells for grid_long, about a quarter second of cells for grid_distinct."""
    if workload == "grid_long":
        return gen.long_grid(seed), 2 * gen.LONG_FACTORS
    return gen.distinct_grid(seed, DISTINCT_PROBLEMS), DISTINCT_CHUNK


class _Repetitions:
    """Timed cold-memo ``run_grid`` repetitions of one grid, checked."""

    def __init__(self, cells: list, frontier, chunk: int) -> None:
        self.cells = cells
        self.chunk = chunk
        self.frontier = frontier
        self.rows: "list[str] | None" = None
        self.hit: "list[bool] | None" = None  #: per cell: no Algorithm 1 run
        self.walls: list[float] = []  #: raw repetition wall times
        self.nominal: list[float] = []  #: the same, at nominal host speed
        self.cell_nominal: list[list[float]] = [[] for _ in cells]
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def run(self, seconds: float) -> None:
        """Repeat until ``seconds`` of grid wall time have been measured."""
        while sum(self.walls) < seconds:
            self.run_once()

    def run_once(self) -> None:
        """One repetition: the grid from an empty memo, as ``run_grid`` calls
        on consecutive chunks, each bracketed by host-speed probes."""
        clear_allocation_cache()
        speed = Speed()
        wall = nominal = 0.0
        outcomes, failures = [], []
        for start in range(0, len(self.cells), self.chunk):
            t0 = time.perf_counter()
            report = batch.run_grid(self.cells[start:start + self.chunk], self.frontier)
            chunk_wall = time.perf_counter() - t0
            factor = speed.close_unit()
            wall += chunk_wall
            nominal += chunk_wall * factor
            outcomes += [(o, factor) for o in report.outcomes]
            failures += report.failures
        self.walls.append(wall)
        self.nominal.append(nominal)
        self._check(outcomes, failures)

    def _check(self, outcomes: list, failures: list) -> None:
        self.attempted += len(self.cells)
        if len(outcomes) != len(self.cells) or failures:
            self.failed += len(self.cells)
            self.violations.append("grid run dropped cells")
            return
        rows = [hashlib.sha256(json.dumps(o.cell.row()).encode()).hexdigest() for o, _ in outcomes]
        hit = [o.metrics.cache_misses == 0 for o, _ in outcomes]
        if self.rows is None:
            self.rows, self.hit = rows, hit
        for i, (spec, (outcome, factor)) in enumerate(zip(self.cells, outcomes)):
            found = check_energy_run(
                outcome.cell.result, spec.scenario.spec, tau=spec.scenario.grid.tau
            )
            if rows[i] != self.rows[i] or hit[i] != self.hit[i]:
                found = [*found, "row or memo traffic differs from the first repetition"]
            if found:
                self.failed += 1
                self.violations.append(f"{spec.scenario.name}/{spec.policy}: {found[0]}")
            self.cell_nominal[i].append(outcome.metrics.wall_s * factor)

    def latencies(self, hit: bool) -> list[float]:
        """Median nominal wall time of each planning cell that did (not)
        hit the memo."""
        return [
            median(samples)
            for spec, samples, was_hit in zip(self.cells, self.cell_nominal, self.hit)
            if spec.policy == "proposed" and was_hit == hit
        ]


def run(workload: str, seed: int, seconds: float, trace: bool, src: str,
        all_cpus: "set[int] | None" = None) -> Outcome:
    out = Outcome()
    setup_s = None if trace else interpreter_setup_s(src)
    frontier = pama_frontier()
    cells, chunk = _grid(workload, seed)
    reps = _Repetitions(cells, frontier, chunk)
    if trace:
        tracer = Tracer()
        traced = _Repetitions(cells, frontier, chunk)
        while sum(reps.walls) + sum(traced.walls) < seconds:
            reps.run_once()
            traced.rows, traced.hit = reps.rows, reps.hit
            kernel.install(tracer, grid=True)
            try:
                traced.run_once()
            finally:
                tracer.restore()
    else:
        reps.run(seconds)
    n_plans = sum(spec.policy == "proposed" for spec in cells)
    rates = [len(cells) / w for w in reps.walls]
    nominal_rates = [len(cells) / w for w in reps.nominal]
    out.lines.append(
        f"{workload}: {len(cells)} cells ({n_plans} planned) x {len(reps.walls)} "
        f"repetitions; cells/s raw: min {min(rates):.1f} median {median(rates):.1f} "
        f"max {max(rates):.1f}; nominal: min {min(nominal_rates):.1f} median "
        f"{median(nominal_rates):.1f} max {max(nominal_rates):.1f}"
    )
    if trace:
        _traced(out, workload, reps, traced, tracer, all_cpus)
    else:
        grid_s = median(reps.nominal)
        out.metrics["setup_s"] = setup_s
        out.metrics["cells_per_s"] = len(cells) / grid_s
        out.metrics["plans_per_s"] = n_plans / grid_s
        for kind, values in (("hit", reps.latencies(True)), ("miss", reps.latencies(False))):
            out.metrics[f"{kind}_p50_ms"] = 1e3 * percentile(values, 50)
            out.metrics[f"{kind}_p90_ms"] = 1e3 * percentile(values, 90)
            out.lines.append(f"{kind}: {len(values)} planning cells")
        out.metrics["peak_rss_mb"] = peak_rss_mib()
    runs = [reps, traced] if trace else [reps]
    out.attempted = sum(r.attempted for r in runs)
    out.failed = sum(r.failed for r in runs)
    for r in runs:
        out.lines.extend(f"check failed: {v}" for v in r.violations[:10])
    return out


def _traced(out: Outcome, workload: str, untraced: _Repetitions, traced: _Repetitions,
            tracer: Tracer, all_cpus: "set[int] | None") -> None:
    """Per-layer rows from traced repetitions interleaved with untraced ones,
    so both see the same host."""
    cells, frontier = untraced.cells, untraced.frontier
    n_cells = len(cells) * len(traced.walls)
    stats = tracer.stats()
    scale = sum(traced.nominal) / sum(traced.walls)  # span times → nominal
    out.metrics.update(kernel.metrics(tracer, scale))
    grid_s = stats["batch.run_grid"].total_s
    out.metrics["batch.overhead_ms_per_cell"] = (
        1e3 * scale * (grid_s - stats["batch.run_cell"].total_s) / n_cells
    )
    overhead = sum(traced.nominal) / sum(untraced.nominal[: len(traced.nominal)])
    out.metrics["trace.overhead_ratio"] = overhead

    if workload == "grid_long":
        # The pool needs every CPU; serial and pooled runs share that set.
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, all_cpus or pinned)
        serial, pooled = [], []
        try:
            for _ in range(2):
                clear_allocation_cache()
                t0 = time.perf_counter()
                batch.run_grid(cells, frontier)
                serial.append(time.perf_counter() - t0)
                clear_allocation_cache()
                t0 = time.perf_counter()
                batch.run_grid(cells, frontier, n_workers=len(os.sched_getaffinity(0)))
                pooled.append(time.perf_counter() - t0)
        finally:
            os.sched_setaffinity(0, pinned)
        out.metrics["batch.pool_speedup"] = min(serial) / min(pooled)
        out.lines.append(
            f"pool: serial {min(serial):.3f} s vs {len(all_cpus or pinned)} workers "
            f"{min(pooled):.3f} s, both on every CPU (best of 2, cold memo)"
        )

    out.lines.append(self_time_table(
        stats, f"where the time goes ({workload}, traced, nominal ms):", scale))
    per_cell = {name: 1e3 * scale * row.self_s / n_cells for name, row in stats.items()}
    groups = {
        "slot loop (decide/advance/Alg. 3)": ("manager.decide", "manager.advance",
                                              "update.redistribute_deviation"),
        "Alg. 1": ("manager.plan", "alloc.allocate_cached", "alloc.allocate"),
        "Alg. 2": ("params.plan_parameters",),
        "Battery.step": ("battery.step",),
        "energy loop + start": ("energy.run_managed", "energy.run_demand_follower",
                                "manager.start"),
        "run_cell + run_grid overhead": ("batch.run_cell", "batch.run_grid"),
    }
    parts = {label: sum(per_cell.get(n, 0.0) for n in names) for label, names in groups.items()}
    total = sum(parts.values())
    untraced_ms = 1e3 * sum(untraced.nominal[: len(traced.nominal)]) / n_cells
    out.lines.append(
        "closure: " + " + ".join(f"{k} {v:.3f}" for k, v in parts.items())
        + f" = {total:.3f} ms/cell traced; untraced {untraced_ms:.3f} ms/cell x "
        f"trace.overhead_ratio {overhead:.3f} = {untraced_ms * overhead:.3f}; "
        f"untraced median nominal {1e3 * median(untraced.nominal) / len(cells):.3f} "
        f"ms/cell (cells_per_s {len(cells) / median(untraced.nominal):.1f})"
    )
