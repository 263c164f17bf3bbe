"""The benchmark's own tests: seeded inputs, the tracer, the runner.

Run from the repository root with ``python3 -m pytest dpmbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import BatterySpec, PaperScenario, Schedule
from repro.analysis import batch
from repro.analysis.batch import CellSpec
from repro.core import allocation, manager
from repro.models.battery import Battery
from repro.service.protocol import PlanRequest, scenario_names

import gen
import kernel
import run as runner
import sweeps
from spans import Tracer

HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
def _long_fingerprint(seed: int) -> list:
    return [(c.scenario.name, c.policy, c.supply_factor) for c in gen.long_grid(seed)]


def _distinct_fingerprint(seed: int) -> list:
    return [(gen.problem_key(c.scenario), c.supply_factor) for c in gen.distinct_grid(seed, 30)]


def _fleet_fingerprint(seed: int) -> list:
    stream = gen.FleetStream(seed, scenario_names())
    return stream.hot + stream.take(200) + stream.probe_misses(5)


@pytest.mark.parametrize(
    "fingerprint", [_long_fingerprint, _distinct_fingerprint, _fleet_fingerprint]
)
def test_same_seed_same_inputs_other_seed_other_inputs(fingerprint):
    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


def test_distinct_problems_are_pairwise_distinct_and_variants_repeat_one():
    cells = gen.distinct_grid(7, 60)
    every = gen.DISTINCT_VARIANT_EVERY
    originals = [c for i, c in enumerate(cells) if i % (every + 1) != every]
    variants = [c for i, c in enumerate(cells) if i % (every + 1) == every]
    assert len(originals) == 60 and len(variants) == 60 // every
    keys = [gen.problem_key(c.scenario) for c in originals]
    assert len(set(keys)) == len(keys)
    for n, variant in enumerate(variants):
        assert variant.scenario is originals[n * every].scenario
        assert variant.supply_factor != originals[n * every].supply_factor


def test_inputs_are_built_through_public_constructors():
    for cell in gen.long_grid(1) + gen.distinct_grid(1, 10):
        assert type(cell) is CellSpec
        assert type(cell.scenario) is PaperScenario
        assert type(cell.scenario.charging) is Schedule
        assert type(cell.scenario.event_demand) is Schedule
        assert type(cell.scenario.spec) is BatterySpec
    stream = gen.FleetStream(1, scenario_names())
    for key in stream.hot + stream.take(50):
        request = PlanRequest.from_payload(key.payload())
        assert request.scenario in scenario_names()


def test_fleet_misses_are_never_issued_twice():
    stream = gen.FleetStream(2, scenario_names())
    keys = stream.take(2000) + stream.probe_misses(50)
    misses = [(k.scenario, k.supply_factor) for k in keys if not k.hot]
    hot = {(k.scenario, k.supply_factor) for k in stream.hot}
    assert len(set(misses)) == len(misses)
    assert not hot & set(misses)
    assert 0.75 < sum(k.hot for k in keys[:2000]) / 2000 < 0.85


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
_SITES = [
    (batch, "run_grid"), (batch, "run_cell"), (batch, "run_managed"),
    (batch, "run_demand_follower"), (manager.DynamicPowerManager, "plan"),
    (manager.DynamicPowerManager, "start"), (manager.DynamicPowerManager, "decide"),
    (manager.DynamicPowerManager, "advance"), (manager, "allocate_cached"),
    (allocation, "allocate"), (manager, "plan_parameters"),
    (manager, "redistribute_deviation"), (Battery, "step"),
    (Schedule, "__getitem__"),
]


def test_every_shimmed_name_is_restored_even_after_an_error():
    originals = [vars(owner)[attr] for owner, attr in _SITES]
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            kernel.install(tracer, grid=True)
            assert all(vars(o)[a] is not orig for (o, a), orig in zip(_SITES, originals))
            1 / 0
    assert all(vars(o)[a] is orig for (o, a), orig in zip(_SITES, originals))


def test_self_times_add_up_to_the_root_span():
    class Layers:
        @staticmethod
        def inner():
            return sum(range(2000))

        @staticmethod
        def outer():
            return Layers.inner() + Layers.inner()

    with Tracer() as tracer:
        tracer.span(Layers, "inner", "inner")
        tracer.span(Layers, "outer", "outer")
        Layers.outer()
    stats = tracer.stats()
    assert stats["inner"].calls == 2 and stats["outer"].calls == 1
    total = sum(row.self_s for row in stats.values())
    assert total == pytest.approx(stats["outer"].total_s)
    assert stats["outer"].self_s < stats["outer"].total_s


def test_traced_grid_run_reports_layers_and_restores(monkeypatch):
    monkeypatch.setattr(sweeps, "DISTINCT_PROBLEMS", 15)
    originals = [vars(owner)[attr] for owner, attr in _SITES]
    out = sweeps.run("grid_distinct", 0, 0.05, True, str(HERE.parent / "src"))
    assert all(vars(o)[a] is orig for (o, a), orig in zip(_SITES, originals))
    assert out.failed == 0 and out.attempted > 0
    assert out.metrics["trace.overhead_ratio"] > 0
    assert out.metrics["alloc.calls_per_plan"] >= 1
    text = "\n".join(out.lines)
    assert "where the time goes" in text and "closure:" in text
    assert "batch.pool_speedup" not in out.metrics  # grid_long only
    assert "gateway.hop_ms" not in out.metrics


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def test_metric_declarations_match_benchmark_json():
    """run.py attaches these units; BENCHMARK.json must declare the same."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runner.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "grid_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
