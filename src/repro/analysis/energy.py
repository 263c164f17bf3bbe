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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.manager import DynamicPowerManager
from ..core.pareto import OperatingFrontier
from ..models.battery import Battery
from ..scenarios.paper import PaperScenario
from ..util.schedule import Schedule

__all__ = [
    "EnergyRunResult",
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
    battery = Battery(scenario.spec)
    delivered = np.empty_like(demand)
    levels = np.empty_like(demand)
    for k in range(demand.size):
        step = battery.step(supply[k], demand[k], tau)
        delivered[k] = step.drawn / tau
        levels[k] = step.level
    return EnergyRunResult(
        name=name,
        wasted=battery.total_wasted,
        undersupplied=battery.total_undersupplied,
        demand_shortfall=battery.total_undersupplied,
        supplied=float(supply.sum() * tau),
        delivered=battery.total_drawn,
        demand=float(demand.sum() * tau),
        used_power=demand.copy(),
        delivered_power=delivered,
        battery_level=levels,
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
    battery = Battery(scenario.spec)
    # per-slot books as plain floats, turned into arrays once at the end
    used: list[float] = []
    delivered: list[float] = []
    levels: list[float] = []
    allocated: list[float] = []
    undersupplied_vs_demand = 0.0
    for wanted, supplied in zip(demand.tolist(), actual_supply.tolist()):
        point = manager.decide()
        allocated.append(manager.budget)
        step = battery.step(supplied, point.power, tau)
        drawn = step.drawn / tau
        used.append(point.power)
        delivered.append(drawn)
        levels.append(step.level)
        # Demand energy not served this slot (plan throttling + battery floor)
        undersupplied_vs_demand += max(0.0, (wanted - drawn) * tau)
        manager.step(used_power=drawn, supplied_power=supplied)
    return EnergyRunResult(
        name=name,
        wasted=battery.total_wasted,
        undersupplied=battery.total_undersupplied,
        demand_shortfall=undersupplied_vs_demand,
        supplied=float(actual_supply.sum() * tau),
        delivered=battery.total_drawn,
        demand=float(demand.sum() * tau),
        used_power=np.array(used, dtype=float),
        delivered_power=np.array(delivered, dtype=float),
        battery_level=np.array(levels, dtype=float),
        allocated_power=np.array(allocated, dtype=float),
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
