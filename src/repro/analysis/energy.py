"""Energy-accounting policy comparison — the engine behind Table 1.

The paper's two headline metrics are pure energy bookkeeping over the
run:

* **wasted energy** — external supply arriving while the battery is full;
* **undersupplied energy** — energy the *computation demand* ``u(t)``
  needed but that was not delivered at that time (because the plan
  throttled below demand, or the battery was empty).

This module runs a policy against a scenario at that accounting level:
per slot, the policy demands a draw, the battery splits flows exactly,
and the gap between the scenario's demand schedule and the energy
actually delivered is charged as undersupply.  (The event-level simulator
in :mod:`repro.sim` models queueing and throughput on top; Table 1 does
not need it, and the paper's static baseline — which draws the demand
schedule directly — is defined at this level.)

Both policies, and :func:`repro.analysis.metrics.energy_books`, run the
same slot loop, :func:`closed_loop`: the static policy is that loop
without a manager.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.manager import DynamicPowerManager
from ..core.pareto import OperatingFrontier
from ..models.battery import BatterySpec, split
from ..scenarios.paper import PaperScenario
from ..util.schedule import Schedule
from ..util.validation import check_non_negative

__all__ = [
    "EnergyRunResult",
    "ClosedLoopBooks",
    "closed_loop",
    "build_manager",
    "run_demand_follower",
    "run_managed",
    "compare_policies",
]


@dataclass(frozen=True)
class EnergyRunResult:
    """Per-run energy books (all in joules)."""

    name: str
    wasted: float  #: overflow losses at C_max
    undersupplied: float  #: energy the policy demanded but was not served
    demand_shortfall: float  #: scenario demand energy not delivered on time
    supplied: float  #: total external energy offered
    delivered: float  #: energy actually drawn by the system
    demand: float  #: total demand energy over the run
    used_power: np.ndarray  #: demanded draw per slot (W)
    delivered_power: np.ndarray  #: served draw per slot (W)
    battery_level: np.ndarray  #: level at each slot end (J)
    allocated_power: np.ndarray  #: planner budget per slot (NaN if plan-free)
    plan_iterations: int | None = None  #: Algorithm-1 passes to feasibility (plan-free: None)
    plan_used_fallback: bool | None = None  #: greedy fallback engaged
    plan_feasible: bool | None = None  #: final trajectory inside the window

    @property
    def utilization(self) -> float:
        """Delivered / supplied — the paper's energy-utilization metric."""
        return self.delivered / self.supplied if self.supplied > 0 else 0.0


@dataclass(frozen=True)
class ClosedLoopBooks:
    """What :func:`closed_loop` measured (energies in joules)."""

    drawn: float  #: energy delivered to the load
    wasted: float  #: supply lost at ``C_max``
    undersupplied: float  #: drawn power the battery could not serve
    demand_shortfall: float  #: demand energy not delivered (managed runs; else 0)
    drawn_per_slot: list[float]  #: energy delivered in each slot
    levels: list[float]  #: battery level at each slot end
    used_power: list[float]  #: the decided point's power per slot (managed runs)
    allocated_power: list[float]  #: window head at decision time (managed runs)


def _check_flows(tau: float, *flows: tuple[str, np.ndarray]) -> None:
    """:meth:`Battery.step`'s argument checks for a whole run, at once.

    Raises the :class:`ValueError` the per-slot checks would have raised
    at the first slot that fails them: a bad flow names itself
    (``charge_power`` is checked before ``draw_power``), and a bad ``τ``
    fails slot 0 after that slot's flows.
    """
    n = flows[0][1].size
    first = 0 if not (math.isfinite(tau) and tau >= 0) else n
    for _, values in flows:
        ok = np.isfinite(values) & (values >= 0.0)
        if n and not ok.all():
            first = min(first, int(ok.argmin()))
    if first < n:
        for name, values in flows:
            check_non_negative(name, float(values[first]))
        check_non_negative("dt", tau)


def closed_loop(
    supply: np.ndarray,
    demand: np.ndarray,
    spec: BatterySpec,
    tau: float,
    manager: DynamicPowerManager | None = None,
) -> ClosedLoopBooks:
    """Run the battery against per-slot supply and demand powers (W).

    The run-time loop of Section 4.3 at the energy-accounting level.  Each
    slot of ``τ`` seconds, the manager (if any) picks its operating point
    with Algorithm 2's gate, the battery splits the flows (Eq. 10), and
    the delivered power folds back into the window with Algorithm 3; the
    decision is made once and handed to :meth:`DynamicPowerManager.step`.
    Without a manager the load draws ``demand`` directly (the paper's
    static policy).  ``manager`` must be started.

    The inputs are checked once, before any slot runs, with the errors
    :meth:`Battery.step` raises (the frontier's powers stand for the
    managed draw); the slots then run :func:`split` on plain floats and
    sum each total slot by slot, in :class:`Battery`'s order, so the books
    equal a :meth:`Battery.step` loop's bit for bit.
    """
    if supply.shape != demand.shape:
        raise ValueError("supply and demand arrays must have equal length")
    if manager is None:
        _check_flows(tau, ("charge_power", supply), ("draw_power", demand))
    else:
        _check_flows(tau, ("charge_power", supply))
        for point in manager.frontier.points:
            check_non_negative("draw_power", point.power)
    c_min, c_max = spec.c_min, spec.c_max
    eta_c, eta_d = spec.charge_efficiency, spec.discharge_efficiency
    level = float(spec.initial)
    drawn_total = wasted_total = undersupplied_total = shortfall = 0.0
    drawn_per_slot: list[float] = []
    levels: list[float] = []
    used: list[float] = []
    allocated: list[float] = []
    for wanted, supplied in zip(demand.tolist(), supply.tolist()):
        if manager is None:
            power = wanted
        else:
            point = manager.decide()
            allocated.append(manager.budget)
            power = point.power
            used.append(power)
        _, drawn, wasted, undersupplied, level, _ = split(
            level, supplied, power, tau, c_min, c_max, eta_c, eta_d
        )
        drawn_total += drawn
        wasted_total += wasted
        undersupplied_total += undersupplied
        drawn_per_slot.append(drawn)
        levels.append(level)
        if manager is not None:
            drawn_w = drawn / tau
            # Demand energy not served this slot (plan throttling + battery floor)
            shortfall += max(0.0, (wanted - drawn_w) * tau)
            manager.step(used_power=drawn_w, supplied_power=supplied, decision=point)
    return ClosedLoopBooks(
        drawn=drawn_total,
        wasted=wasted_total,
        undersupplied=undersupplied_total,
        demand_shortfall=shortfall,
        drawn_per_slot=drawn_per_slot,
        levels=levels,
        used_power=used,
        allocated_power=allocated,
    )


def _tile(schedule: Schedule, n_periods: int) -> np.ndarray:
    return np.tile(schedule.values, n_periods)


def build_manager(
    scenario: PaperScenario, frontier: OperatingFrontier
) -> DynamicPowerManager:
    """The manager :func:`run_managed` plans with, exactly.

    Single construction point so the batch runner can pre-plan a scenario in
    the parent process and be certain its allocation-cache entries match the
    keys each worker's :func:`run_managed` call will look up.
    """
    return DynamicPowerManager(
        scenario.charging,
        scenario.event_demand,
        scenario.weight(),
        frontier=frontier,
        spec=scenario.spec,
    )


def run_demand_follower(
    scenario: PaperScenario,
    *,
    n_periods: int = 2,
    supply_factor: float = 1.0,
    name: str = "static",
) -> EnergyRunResult:
    """The paper's static algorithm: draw the demand schedule directly.

    "The system is turned off while there is no input data to process" —
    i.e. the drawn power tracks the use schedule exactly; the battery
    absorbs surpluses and serves deficits until it can't.  ``supply_factor``
    scales the delivered charging power, mirroring :func:`run_managed` so
    supply-deviation sweeps compare both policies under the same sky.
    """
    tau = scenario.grid.tau
    demand = _tile(scenario.event_demand, n_periods)
    supply = _tile(scenario.charging, n_periods) * supply_factor
    books = closed_loop(supply, demand, scenario.spec, tau)
    return EnergyRunResult(
        name=name,
        wasted=books.wasted,
        undersupplied=books.undersupplied,
        demand_shortfall=books.undersupplied,
        supplied=float(supply.sum() * tau),
        delivered=books.drawn,
        demand=float(demand.sum() * tau),
        used_power=demand.copy(),
        delivered_power=np.array(books.drawn_per_slot, dtype=float) / tau,
        battery_level=np.array(books.levels, dtype=float),
        allocated_power=np.full_like(demand, np.nan),
    )


def run_managed(
    scenario: PaperScenario,
    frontier: OperatingFrontier,
    *,
    n_periods: int = 2,
    supply_factor: float = 1.0,
    name: str = "proposed",
) -> EnergyRunResult:
    """The proposed algorithm at the energy-accounting level.

    The manager plans on the *expected* schedules; each slot it draws the
    power of its chosen discrete operating point, the battery serves what
    it can, and the measured used/supplied energies feed Algorithm 3.
    ``supply_factor`` scales the actual supply away from the forecast to
    exercise the run-time reallocation.

    Undersupply follows the paper's accounting: energy the *policy*
    demanded (its plan) that the battery could not serve.  The stricter
    ``demand_shortfall`` — scenario demand energy not delivered on time,
    which also charges plan throttling — is reported alongside.
    """
    tau = scenario.grid.tau
    demand = _tile(scenario.event_demand, n_periods)
    actual_supply = _tile(scenario.charging, n_periods) * supply_factor
    manager = build_manager(scenario, frontier)
    manager.plan()
    manager.start()
    books = closed_loop(actual_supply, demand, scenario.spec, tau, manager)
    return EnergyRunResult(
        name=name,
        wasted=books.wasted,
        undersupplied=books.undersupplied,
        demand_shortfall=books.demand_shortfall,
        supplied=float(actual_supply.sum() * tau),
        delivered=books.drawn,
        demand=float(demand.sum() * tau),
        used_power=np.array(books.used_power, dtype=float),
        delivered_power=np.array(books.drawn_per_slot, dtype=float) / tau,
        battery_level=np.array(books.levels, dtype=float),
        allocated_power=np.array(books.allocated_power, dtype=float),
        plan_iterations=manager.allocation.n_iterations,
        plan_used_fallback=manager.allocation.used_fallback,
        plan_feasible=manager.allocation.feasible,
    )


def compare_policies(
    scenario: PaperScenario,
    frontier: OperatingFrontier,
    *,
    n_periods: int = 2,
) -> dict[str, EnergyRunResult]:
    """Table 1's comparison: proposed vs. static on one scenario."""
    return {
        "proposed": run_managed(scenario, frontier, n_periods=n_periods),
        "static": run_demand_follower(scenario, n_periods=n_periods),
    }
