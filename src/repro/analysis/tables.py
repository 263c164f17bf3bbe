"""Generators for the paper's Tables 1–5.

Each function returns a structured result (rows you can assert on) with a
``text()`` rendering that mirrors the paper's layout.  Paper-reported
values are embedded as constants so harnesses and EXPERIMENTS.md compare
against the same source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.allocation import AllocationResult, allocate
from ..core.manager import DynamicPowerManager
from ..core.pareto import OperatingFrontier
from ..core.wpuf import desired_usage
from ..models.battery import Battery
from ..scenarios.paper import PaperScenario, pama_frontier, scenario1, scenario2
from .energy import compare_policies
from .report import format_table

__all__ = [
    "PAPER_TABLE1_J",
    "Table1Row",
    "Table1Result",
    "table1",
    "AllocationTable",
    "allocation_table",
    "RuntimeRow",
    "RuntimeTable",
    "runtime_table",
]

#: Paper Table 1 (joules): (wasted, undersupplied) per (scenario, policy).
PAPER_TABLE1_J = {
    ("scenario1", "proposed"): (13.68, 23.11),
    ("scenario1", "static"): (40.93, 39.33),
    ("scenario2", "proposed"): (6.18, 6.27),
    ("scenario2", "static"): (69.33, 67.91),
}


# ----------------------------------------------------------------------
# Table 1 — policy comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    scenario: str
    policy: str
    wasted: float
    undersupplied: float
    paper_wasted: float
    paper_undersupplied: float


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[Table1Row, ...]

    def row(self, scenario: str, policy: str) -> Table1Row:
        for r in self.rows:
            if r.scenario == scenario and r.policy == policy:
                return r
        raise KeyError((scenario, policy))

    def text(self) -> str:
        return format_table(
            ["scenario", "policy", "wasted (J)", "undersupplied (J)",
             "paper wasted (J)", "paper undersupplied (J)"],
            [
                (r.scenario, r.policy, r.wasted, r.undersupplied,
                 r.paper_wasted, r.paper_undersupplied)
                for r in self.rows
            ],
            title="Table 1 — Comparison of algorithms (2 periods)",
        )


def table1(
    *,
    n_periods: int = 2,
    frontier: OperatingFrontier | None = None,
) -> Table1Result:
    """Regenerate Table 1: proposed vs. static, both scenarios."""
    frontier = frontier or pama_frontier()
    rows: list[Table1Row] = []
    for scenario in (scenario1(), scenario2()):
        results = compare_policies(scenario, frontier, n_periods=n_periods)
        for policy in ("proposed", "static"):
            r = results[policy]
            paper_w, paper_u = PAPER_TABLE1_J[(scenario.name, policy)]
            rows.append(
                Table1Row(
                    scenario=scenario.name,
                    policy=policy,
                    wasted=r.wasted,
                    undersupplied=r.undersupplied,
                    paper_wasted=paper_w,
                    paper_undersupplied=paper_u,
                )
            )
    return Table1Result(tuple(rows))


# ----------------------------------------------------------------------
# Tables 2 and 4 — initial power allocation iterations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllocationTable:
    """Iteration history of Algorithm 1 on one scenario.

    ``pinit_rows[i]`` is the W-per-slot plan of iteration ``i+1``;
    ``integration_rows[i]`` the battery trajectory at slot ends in the
    paper's W·τ units (so the clamp levels read 3.54 / 0.098 directly).
    """

    scenario: str
    pinit_rows: tuple[tuple[float, ...], ...]
    integration_rows: tuple[tuple[float, ...], ...]
    feasible: bool
    used_fallback: bool

    @property
    def n_iterations(self) -> int:
        return len(self.pinit_rows)

    def text(self) -> str:
        n_slots = len(self.pinit_rows[0])
        headers = ["iteration", "row"] + [f"t={k}" for k in range(n_slots)]
        rows = []
        for i, (p, g) in enumerate(zip(self.pinit_rows, self.integration_rows), 1):
            rows.append([i, "Pinit"] + list(p))
            rows.append([i, "Integration"] + list(g))
        title = (
            f"Table {'2' if self.scenario == 'scenario1' else '4'} — "
            f"Initial power allocation ({self.scenario}; "
            f"{self.n_iterations} iterations, feasible={self.feasible})"
        )
        return format_table(headers, rows, title=title)


def allocation_table(scenario: PaperScenario) -> AllocationTable:
    """Regenerate Table 2 (scenario I) / Table 4 (scenario II)."""
    frontier = pama_frontier()
    u_new = desired_usage(scenario.event_demand, scenario.weight(), scenario.charging)
    result: AllocationResult = allocate(
        scenario.charging,
        u_new,
        scenario.spec,
        usage_ceiling=frontier.max_power,
    )
    tau = scenario.grid.tau
    return AllocationTable(
        scenario=scenario.name,
        pinit_rows=tuple(tuple(it.usage.values) for it in result.iterations),
        integration_rows=tuple(
            tuple(it.trajectory[1:] / tau) for it in result.iterations
        ),
        feasible=result.feasible,
        used_fallback=result.used_fallback,
    )


# ----------------------------------------------------------------------
# Tables 3 and 5 — run-time dynamic update traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuntimeRow:
    """One row of Table 3/5: a slot's books plus the updated window.

    The paper's table text distinguishes "expected charge" (the energy
    expected at the time) from "supplied energy" (the real energy
    supplied); both are carried so supply-perturbed runs show the
    deviation Algorithm 3 reacts to.
    """

    time: float
    pinit: float  #: allocation at decision time (W)
    used_power: float  #: power actually drawn (W)
    expected_supply: float  #: planner's forecast for this slot (W)
    supplied_power: float  #: external supply actually delivered (W)
    battery_level: float  #: J at slot end
    window: tuple[float, ...]  #: Pinit(0..n−1) after the Algorithm 3 update


@dataclass(frozen=True)
class RuntimeTable:
    scenario: str
    rows: tuple[RuntimeRow, ...]

    def text(self) -> str:
        n_slots = len(self.rows[0].window)
        headers = (
            ["t (s)", "Pinit(t)", "Used", "Expected", "Supplied", "Battery (J)"]
            + [f"Pinit({k})" for k in range(n_slots)]
        )
        body = [
            [r.time, r.pinit, r.used_power, r.expected_supply,
             r.supplied_power, r.battery_level]
            + list(r.window)
            for r in self.rows
        ]
        title = (
            f"Table {'3' if self.scenario == 'scenario1' else '5'} — "
            f"Dynamic update of the power allocation ({self.scenario})"
        )
        return format_table(headers, body, title=title)


def runtime_table(
    scenario: PaperScenario,
    *,
    n_periods: int = 2,
    supply_factor: float = 1.0,
    frontier: OperatingFrontier | None = None,
) -> RuntimeTable:
    """Regenerate Table 3 (scenario I) / Table 5 (scenario II).

    Runs the manager's run-time loop against the battery for
    ``n_periods`` (the paper prints two periods / 24 rows), recording the
    allocation at decision time, the quantized draw the battery served,
    the supply, and the reallocated window after each Algorithm 3 pass.
    ``supply_factor`` perturbs the actual supply to exercise Section 4.3.
    """
    frontier = frontier or pama_frontier()
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
    rows: list[RuntimeRow] = []
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
