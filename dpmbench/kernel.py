"""Planner-kernel layers: where the shims go and what they yield.

Each shim sits where the caller looks the name up, so the program's own
code is unchanged: ``run_grid`` finds ``run_cell`` and the policy runners
in :mod:`repro.analysis.batch`, the manager finds ``allocate_cached``,
``plan_parameters`` and ``redistribute_deviation`` in
:mod:`repro.core.manager`, and ``allocate_cached`` finds ``allocate`` in
:mod:`repro.core.allocation`.
"""

from __future__ import annotations

from repro.analysis import batch
from repro.core import allocation, manager
from repro.models.battery import Battery
from repro.util.schedule import Schedule

from spans import SpanStats, Tracer


def install(tracer: Tracer, *, grid: bool) -> None:
    """Shim every kernel layer; ``grid`` adds the ``run_grid`` span."""
    if grid:
        tracer.span(batch, "run_grid", "batch.run_grid")
    tracer.span(batch, "run_cell", "batch.run_cell")
    tracer.span(batch, "run_managed", "energy.run_managed")
    tracer.span(batch, "run_demand_follower", "energy.run_demand_follower")
    tracer.span(manager.DynamicPowerManager, "plan", "manager.plan")
    tracer.span(manager.DynamicPowerManager, "start", "manager.start")
    tracer.span(manager.DynamicPowerManager, "decide", "manager.decide")
    tracer.span(manager.DynamicPowerManager, "advance", "manager.advance")
    tracer.span(
        manager, "allocate_cached", "alloc.allocate_cached",
        on_return=lambda result: result.n_iterations,
    )
    tracer.span(allocation, "allocate", "alloc.allocate")
    tracer.span(manager, "plan_parameters", "params.plan_parameters")
    tracer.span(manager, "redistribute_deviation", "update.redistribute_deviation")
    tracer.span(Battery, "step", "battery.step")
    tracer.count(Schedule, "__getitem__", "schedule.getitem")


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def metrics(
    tracer: Tracer, scale: float, memo_hit_ratio: "float | None" = None
) -> dict[str, float]:
    """The kernel rows of the per-layer table, from one traced phase, with
    span times multiplied by ``scale`` (the host-speed factor).

    Each memo miss calls ``allocate`` once, so the memo hit ratio of the
    traced calls is ``1 - allocate / allocate_cached`` unless the caller
    measured it elsewhere (the fleet reads it from its backends)."""
    stats = tracer.stats()

    def row(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    cached, plans = row("alloc.allocate_cached"), row("manager.plan")
    params = row("params.plan_parameters")
    update = row("update.redistribute_deviation")
    step = row("battery.step")
    slots = row("manager.advance").calls
    cells = row("batch.run_cell").calls
    passes = tracer.returns["alloc.allocate_cached"]
    if memo_hit_ratio is None:
        memo_hit_ratio = 1.0 - _per(row("alloc.allocate").calls, cached.calls) if cached.calls else 0.0
    slot_loop_s = tracer.outer_total_s({"manager.decide", "manager.advance"})
    energy_self_s = row("energy.run_managed").self_s + row("energy.run_demand_follower").self_s
    return {
        "alloc.ms_per_call": 1e3 * scale * _per(cached.total_s, cached.calls),
        "alloc.passes_mean": _per(sum(passes), len(passes)),
        "alloc.calls_per_plan": _per(cached.calls, plans.calls),
        "alloc.memo_hit_ratio": memo_hit_ratio,
        "params.ms_per_call": 1e3 * scale * _per(params.total_s, params.calls),
        "manager.slot_us": 1e6 * scale * _per(slot_loop_s, slots),
        "update.redistribute_us": 1e6 * scale * _per(update.total_s, update.calls),
        "schedule.getitem_per_slot": _per(tracer.counts["schedule.getitem"], slots),
        "battery.step_us": 1e6 * scale * _per(step.total_s, step.calls),
        "energy.self_ms_per_cell": 1e3 * scale * _per(energy_self_s, cells),
    }
