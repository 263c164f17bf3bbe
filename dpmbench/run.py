#!/usr/bin/env python3
"""The repository benchmark.

Run from the repository root::

    python3 dpmbench/run.py --workload grid_long --seed 1 --seconds 20 --trace 0

Workloads (inputs are a pure function of ``--seed``, see ``gen.py``):

* ``grid_long`` — serial ``run_grid`` over the six registered scenarios ×
  eight stratified supply factors × {proposed, static} at 24 periods (288
  slots per cell).  Each repetition starts from an empty allocation memo,
  like one ``repro sweep`` process, so the first plan of each scenario runs
  Algorithm 1 and every later one hits the memo; almost all time is the
  Algorithm 3 slot loop and ``Battery.step``.
* ``grid_distinct`` — serial ``run_grid`` over pairwise-distinct generated
  planning problems at one period, plus a supply-deviation variant of one
  problem in five: Algorithm 1 and Algorithm 2 dominate.
* ``fleet_closed`` — ``repro fleet --backends 2`` with default flags and one
  client connection in a closed loop: 80% of requests repeat a warmed
  Zipf-popular key, 20% carry a never-issued supply factor.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``spans.py``); a per-layer metric that the
workload never reaches prints 0 and is marked "not on path".  Every output
is checked outside the timed region, and the last line of standard output
is the JSON result.

Every end-to-end metric exists on every workload.  A plan is a
``proposed`` cell; on the fleet every answered request is one cell, so
``cells_per_s`` equals ``plans_per_s`` there.  A hit is a plan whose
planning problem the process had already solved: a plan-cache hit on the
fleet, an allocation-memo hit in a grid.  A miss had to run Algorithm 1.

Times are nominal: the host is shared and each of its CPUs switches
between two speeds every few seconds, so a run keeps to one CPU and each
timed unit is rescaled by a host-speed probe taken around it on that CPU
(``calib.py``).  Raw figures are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("grid_long", "grid_distinct", "fleet_closed")

#: end-to-end metrics (tracing off): name → unit
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "plans_per_s": "1/s",
    "hit_p50_ms": "ms",
    "hit_p90_ms": "ms",
    "miss_p50_ms": "ms",
    "miss_p90_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics (traced run): name → unit
PER_LAYER = {
    "alloc.ms_per_call": "ms",
    "alloc.passes_mean": "count",
    "alloc.calls_per_plan": "count",
    "alloc.memo_hit_ratio": "ratio",
    "params.ms_per_call": "ms",
    "manager.slot_us": "us",
    "update.redistribute_us": "us",
    "schedule.getitem_per_slot": "count",
    "battery.step_us": "us",
    "energy.self_ms_per_cell": "ms",
    "batch.overhead_ms_per_cell": "ms",
    "batch.pool_speedup": "ratio",
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "protocol.response_bytes": "bytes",
    "server.hit_rtt_ms": "ms",
    "server.compute_ms": "ms",
    "server.handoff_ms": "ms",
    "plan_cache.hit_ratio": "ratio",
    "gateway.hop_ms": "ms",
    "gateway.attempts_per_request": "count",
    "gateway.hedges_fired": "count",
    "gateway.hedge_wins": "count",
    "launcher.orphaned_backends": "count",
    "trace.overhead_ratio": "ratio",
}


def _exit_on_signal(signum: int, frame) -> None:
    """Turn SIGTERM into SystemExit, so the clean-up in ``main`` runs."""
    raise SystemExit(128 + signum)


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from calib import pin
    from host import StealMeter, become_subreaper, provenance, stop_descendants

    become_subreaper()
    all_cpus = pin()
    steal = StealMeter()
    trace = bool(args.trace)
    run_dir = Path(".dpmbench_run") / str(os.getpid())
    signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        if args.workload == "fleet_closed":
            import fleet

            outcome = fleet.run(args.seed, args.seconds, trace, str(src), run_dir)
        else:
            import sweeps

            outcome = sweeps.run(args.workload, args.seed, args.seconds, trace, str(src),
                                 all_cpus)
    finally:
        # whatever path leads out, no process this run started outlives it
        stop_descendants()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # absent, or another run still uses it

    host = provenance(src, all_cpus, steal.share())
    print("host: " + json.dumps(host, sort_keys=True))
    for line in outcome.lines:
        print(line)
    outcome.metrics["success_ratio"] = outcome.success_ratio
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    print(f"{'metric':<30}{'value':>14}  unit")
    for name, unit in wanted.items():
        if name in outcome.metrics:
            value, note = float(outcome.metrics[name]), ""
        elif trace:
            value, note = 0.0, "  (not on path)"
        else:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        if not math.isfinite(value):
            raise RuntimeError(f"{name} is {value}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<30}{value:>14.6g}  {unit}{note}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
