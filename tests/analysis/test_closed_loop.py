"""The closed-loop kernel against the per-slot loop it replaced.

The reference below is the slot loop the energy runs used before
:func:`repro.analysis.energy.closed_loop`: a checked, stateful
:meth:`Battery.step` per slot, :meth:`DynamicPowerManager.decide` for the
draw, and the manager's own :meth:`~DynamicPowerManager.step` (which decides
again) or :meth:`~DynamicPowerManager.advance` to fold the deviation back.
Every output must agree bit for bit (compared as float hex).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import paper_scenarios
from repro.analysis import energy
from repro.analysis.energy import (
    EnergyRunResult,
    build_manager,
    closed_loop,
    run_demand_follower,
    run_managed,
)
from repro.analysis.metrics import EnergyBooks, energy_books
from repro.analysis.tables import RuntimeRow, RuntimeTable, runtime_table
from repro.core.manager import DynamicPowerManager
from repro.models.battery import Battery, BatterySpec, split
from repro.scenarios import library_scenarios

SCENARIOS = [*paper_scenarios(), *library_scenarios()]
SUPPLY_FACTORS = (0.0, 5e-324, 0.8, 1.0, 1.2, 1.6)
N_PERIODS = (1, 6, 24)


def _derated(scenario):
    """The scenario on a lossy battery, so the conversion-loss branches run."""
    spec = dataclasses.replace(
        scenario.spec, charge_efficiency=0.8, discharge_efficiency=0.9
    )
    return dataclasses.replace(scenario, name=f"{scenario.name}-derated", spec=spec)


CASES = [
    pytest.param(scenario, id=scenario.name)
    for base in SCENARIOS
    for scenario in (base, _derated(base))
]


# ----------------------------------------------------------------------
# the reference: the per-slot loops before the kernel
# ----------------------------------------------------------------------
def _reference_static(scenario, n_periods, supply_factor) -> EnergyRunResult:
    tau = scenario.grid.tau
    demand = np.tile(scenario.event_demand.values, n_periods)
    supply = np.tile(scenario.charging.values, n_periods) * supply_factor
    battery = Battery(scenario.spec)
    delivered = np.empty_like(demand)
    levels = np.empty_like(demand)
    for k in range(demand.size):
        step = battery.step(supply[k], demand[k], tau)
        delivered[k] = step.drawn / tau
        levels[k] = step.level
    return EnergyRunResult(
        name="static",
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


def _reference_managed(scenario, frontier, n_periods, supply_factor) -> EnergyRunResult:
    tau = scenario.grid.tau
    demand = np.tile(scenario.event_demand.values, n_periods)
    actual_supply = np.tile(scenario.charging.values, n_periods) * supply_factor
    manager = build_manager(scenario, frontier)
    manager.plan()
    manager.start()
    battery = Battery(scenario.spec)
    used, delivered, levels, allocated = [], [], [], []
    shortfall = 0.0
    for wanted, supplied in zip(demand.tolist(), actual_supply.tolist()):
        point = manager.decide()
        allocated.append(manager.budget)
        step = battery.step(supplied, point.power, tau)
        drawn = step.drawn / tau
        used.append(point.power)
        delivered.append(drawn)
        levels.append(step.level)
        shortfall += max(0.0, (wanted - drawn) * tau)
        manager.step(used_power=drawn, supplied_power=supplied)
    return EnergyRunResult(
        name="proposed",
        wasted=battery.total_wasted,
        undersupplied=battery.total_undersupplied,
        demand_shortfall=shortfall,
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


def _reference_books(supply, demand, spec, tau) -> EnergyBooks:
    battery = Battery(spec)
    for c, u in zip(supply, demand):
        battery.step(c, u, tau)
    return EnergyBooks(
        supplied=float(supply.sum() * tau),
        delivered=battery.total_drawn,
        wasted=battery.total_wasted,
        undersupplied=battery.total_undersupplied,
    )


def _reference_runtime(scenario, frontier, n_periods, supply_factor) -> RuntimeTable:
    manager = DynamicPowerManager(
        scenario.charging,
        scenario.event_demand,
        scenario.weight(),
        frontier=frontier,
        spec=scenario.spec,
    )
    manager.plan()
    manager.start()
    battery = Battery(scenario.spec)
    tau = scenario.grid.tau
    rows = []
    n_slots = scenario.grid.n_slots
    for k in range(n_periods * n_slots):
        point = manager.decide()
        pinit_now = manager.budget
        expected = scenario.charging[k % n_slots]
        supplied = expected * supply_factor
        step = battery.step(supplied, point.power, tau)
        manager.advance(used_power=step.drawn / tau, supplied_power=supplied)
        rows.append(
            RuntimeRow(
                time=k * tau,
                pinit=pinit_now,
                used_power=step.drawn / tau,
                expected_supply=expected,
                supplied_power=supplied,
                battery_level=step.level,
                window=tuple(manager.window),
            )
        )
    return RuntimeTable(scenario=scenario.name, rows=tuple(rows))


# ----------------------------------------------------------------------
def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _run_hex(run: EnergyRunResult) -> list:
    scalars = [run.wasted, run.undersupplied, run.demand_shortfall, run.supplied,
               run.delivered, run.demand]
    series = [run.used_power, run.delivered_power, run.battery_level,
              run.allocated_power]
    return [
        _hex(scalars),
        *(_hex(s.tolist()) for s in series),
        run.name,
        (run.plan_iterations, run.plan_used_fallback, run.plan_feasible),
    ]


def _books_hex(books: EnergyBooks) -> list[str]:
    return _hex([books.supplied, books.delivered, books.wasted, books.undersupplied])


def _table_hex(table: RuntimeTable) -> list:
    return [table.scenario] + [
        _hex([r.time, r.pinit, r.used_power, r.expected_supply, r.supplied_power,
              r.battery_level, *r.window])
        for r in table.rows
    ]


@pytest.mark.parametrize("scenario", CASES)
class TestBitIdenticalToPerSlotLoop:
    @pytest.mark.parametrize("n_periods", N_PERIODS)
    def test_energy_runs_and_books(self, scenario, frontier, n_periods):
        for factor in SUPPLY_FACTORS:
            assert _run_hex(
                run_managed(scenario, frontier, n_periods=n_periods, supply_factor=factor)
            ) == _run_hex(_reference_managed(scenario, frontier, n_periods, factor))
            assert _run_hex(
                run_demand_follower(scenario, n_periods=n_periods, supply_factor=factor)
            ) == _run_hex(_reference_static(scenario, n_periods, factor))
            supply = np.tile(scenario.charging.values, n_periods) * factor
            demand = np.tile(scenario.event_demand.values, n_periods)
            tau = scenario.grid.tau
            assert _books_hex(energy_books(supply, demand, scenario.spec, tau)) == (
                _books_hex(_reference_books(supply, demand, scenario.spec, tau))
            )

    @pytest.mark.parametrize("n_periods", N_PERIODS)
    def test_runtime_table(self, scenario, frontier, n_periods):
        for factor in SUPPLY_FACTORS:
            got = runtime_table(
                scenario, n_periods=n_periods, supply_factor=factor, frontier=frontier
            )
            want = _reference_runtime(scenario, frontier, n_periods, factor)
            assert _table_hex(got) == _table_hex(want)


def test_energy_books_at_zero_tau():
    """A zero-length slot moves nothing, as :meth:`Battery.step` defines it."""
    spec = BatterySpec(c_max=5.0, c_min=1.0, initial=2.0)
    supply, demand = np.array([3.0, 0.0]), np.array([0.0, 4.0])
    assert _books_hex(energy_books(supply, demand, spec, 0.0)) == _books_hex(
        _reference_books(supply, demand, spec, 0.0)
    )


def test_one_decision_per_managed_slot(sc1, frontier, monkeypatch):
    """Algorithm 2's gate runs once per slot; the kernel hands its decision
    to :meth:`DynamicPowerManager.step` instead of re-evaluating it."""
    calls = []
    decide = DynamicPowerManager.decide

    def counting(self):
        calls.append(self.slot)
        return decide(self)

    monkeypatch.setattr(DynamicPowerManager, "decide", counting)
    run = run_managed(sc1, frontier, n_periods=3)
    assert len(calls) == run.used_power.size == 3 * sc1.grid.n_slots
    assert calls == list(range(len(calls)))


# ----------------------------------------------------------------------
# checks hoisted out of the slot loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf, 1e308])
@pytest.mark.parametrize("policy", ["proposed", "static"])
def test_bad_supply_factor_raises_before_any_slot(sc1, frontier, monkeypatch, policy, factor):
    slots = []

    def spy(*args):
        slots.append(args)
        return split(*args)

    monkeypatch.setattr(energy, "split", spy)
    with pytest.raises(ValueError, match="charge_power"), np.errstate(all="ignore"):
        if policy == "proposed":
            run_managed(sc1, frontier, supply_factor=factor)
        else:
            run_demand_follower(sc1, supply_factor=factor)
    assert slots == []


def test_check_order_matches_the_per_slot_checks():
    """The first failing slot decides the error, charge before draw, and a
    bad τ fails slot 0 after that slot's flows."""
    spec = BatterySpec(c_max=5.0)
    ok = np.ones(3)
    with pytest.raises(ValueError, match="draw_power"):
        closed_loop(np.array([1.0, 1.0, -1.0]), np.array([1.0, math.nan, 1.0]), spec, 1.0)
    with pytest.raises(ValueError, match="charge_power"):
        closed_loop(np.array([1.0, math.inf, 1.0]), np.array([1.0, -2.0, 1.0]), spec, 1.0)
    with pytest.raises(ValueError, match="draw_power"):
        closed_loop(ok, np.array([-1.0, 1.0, 1.0]), spec, -1.0)
    with pytest.raises(ValueError, match="dt"):
        closed_loop(ok, np.array([1.0, 1.0, -1.0]), spec, math.nan)
    with pytest.raises(ValueError, match="equal length"):
        closed_loop(ok, np.ones(2), spec, 1.0)
    empty = closed_loop(np.empty(0), np.empty(0), spec, -1.0)  # no slot, no check
    assert empty.levels == [] and empty.drawn == 0.0


# ----------------------------------------------------------------------
# split is Battery.step without the checks and the state
# ----------------------------------------------------------------------
_power = st.one_of(
    st.just(0.0), st.just(5e-324), st.floats(0.0, 50.0, allow_subnormal=True)
)


@given(
    c_max=st.floats(0.0, 100.0),
    frac_min=st.floats(0.0, 1.0),
    frac_level=st.floats(0.0, 1.0),
    charge=_power,
    draw=_power,
    dt=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    eta_c=st.floats(0.05, 1.0),
    eta_d=st.floats(0.05, 1.0),
)
@example(c_max=10.0, frac_min=0.0, frac_level=0.5, charge=5e-324, draw=0.0,
         dt=1.0, eta_c=0.5, eta_d=1.0)
def test_split_equals_battery_step(c_max, frac_min, frac_level, charge, draw, dt,
                                   eta_c, eta_d):
    c_min = c_max * frac_min
    level = c_min + (c_max - c_min) * frac_level
    spec = BatterySpec(c_max=c_max, c_min=c_min, initial=level,
                       charge_efficiency=eta_c, discharge_efficiency=eta_d)
    step = Battery(spec).step(charge, draw, dt)
    got = split(level, charge, draw, dt, c_min, c_max, eta_c, eta_d)
    assert _hex(got) == _hex(dataclasses.astuple(step))
