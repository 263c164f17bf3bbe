"""Seeded inputs for every workload.

Each generator is a pure function of ``seed``: the same seed gives the same
inputs, and the program receives only what is built here, through the
package's public constructors (``Schedule``, ``BatterySpec``,
``PaperScenario``, ``CellSpec``).  Each workload draws from its own stream,
so adding draws to one workload never shifts another's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import BatterySpec, PaperScenario, Schedule, pama_grid, paper_scenarios
from repro.analysis.batch import CellSpec
from repro.scenarios import library_scenarios

#: per-workload stream tags for ``np.random.default_rng([seed, tag])``
_LONG, _DISTINCT, _FLEET = 1, 2, 3

#: grid_long: 288 slots per cell (24 periods of 12 slots)
LONG_PERIODS = 24
LONG_FACTORS = 8
#: grid_distinct: one period per cell, so planning dominates the cell
DISTINCT_PERIODS = 1
DISTINCT_VARIANT_EVERY = 5  #: one repeated planning problem per five new ones
#: fleet_closed: every request plans 6 periods
FLEET_PERIODS = 6
FLEET_HOT_FACTORS = 4  #: hot keys per registered scenario
FLEET_HIT_SHARE = 0.8
FLEET_ZIPF_S = 1.1


def _rng(seed: int, tag: int, *extra: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([seed, tag, *extra])


def registered_scenarios() -> list[PaperScenario]:
    """The six scenarios the CLI and the plan daemon know by name."""
    return list(paper_scenarios()) + list(library_scenarios())


# ----------------------------------------------------------------------
# grid_long
# ----------------------------------------------------------------------
def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` draws in [0, 1), one per equal-width stratum, in random order:
    seeds differ, but every seed covers the whole range evenly."""
    return (rng.permutation(n) + rng.random(n)) / n


def long_grid(seed: int) -> list[CellSpec]:
    """Registered scenarios × stratified supply factors × {proposed, static}.

    Scenario-major order keeps one scenario's cells adjacent, the order
    ``run_grid`` documents for memo locality.
    """
    factors = 0.8 + 0.4 * np.sort(_strata(_rng(seed, _LONG), LONG_FACTORS))
    return [
        CellSpec(
            scenario=scenario,
            policy=policy,
            knob=float(factor),
            n_periods=LONG_PERIODS,
            supply_factor=float(factor),
        )
        for scenario in registered_scenarios()
        for factor in factors
        for policy in ("proposed", "static")
    ]


# ----------------------------------------------------------------------
# grid_distinct
# ----------------------------------------------------------------------
def _distinct_problem(rng: np.random.Generator, u: np.ndarray, name: str) -> PaperScenario:
    """One planning problem; ``u`` holds its stratified draws in [0, 1)."""
    grid = pama_grid()
    n = grid.n_slots
    # An orbit-like supply: a sunlit arc at a random phase, random peak,
    # per-slot jitter, and a dim (possibly zero) eclipse floor.
    sunlit = 3 + int(u[0] * (n - 5))
    phase = int(rng.integers(0, n))
    peak = 1.5 + 2.1 * u[1]
    charging = np.full(n, 0.4 * u[2])
    arc = np.sin(np.pi * (np.arange(sunlit) + 0.5) / sunlit)
    charging[(phase + np.arange(sunlit)) % n] = peak * (0.5 + 0.5 * arc)
    charging *= rng.uniform(0.85, 1.15, n)
    # Demand: a random positive shape with one or two bursts.
    demand = rng.uniform(0.1, 1.5, n)
    for _ in range(1 + int(u[3] * 2)):
        demand[int(rng.integers(0, n))] += rng.uniform(1.0, 3.0)
    # Battery window on the PAMA scale (C_min 0.47 J, C_max 17 J).
    c_min = 0.2 + 1.3 * u[4]
    c_max = c_min + 6.0 + 18.0 * u[5]
    initial = c_min + 0.5 * u[6] * (c_max - c_min)
    return PaperScenario(
        name=name,
        charging=Schedule(grid, charging),
        event_demand=Schedule(grid, demand),
        spec=BatterySpec(c_max=c_max, c_min=c_min, initial=initial),
    )


def problem_key(scenario: PaperScenario) -> tuple:
    """Content identity of one planning problem."""
    spec = scenario.spec
    return (
        tuple(scenario.charging.values.tolist()),
        tuple(scenario.event_demand.values.tolist()),
        spec.c_min,
        spec.c_max,
        spec.initial,
    )


def distinct_grid(seed: int, n_problems: int) -> list[CellSpec]:
    """``n_problems`` pairwise-distinct generated problems, one ``proposed``
    cell each with a seeded supply deviation, and after every fifth problem
    a variant of the first of those five under another deviation: the same
    planning problem asked again, as a supply sweep asks it."""
    rng = _rng(seed, _DISTINCT)
    draws = np.stack([_strata(rng, n_problems) for _ in range(7)], axis=1)
    seen: set[tuple] = set()
    cells: list[CellSpec] = []
    for i in range(n_problems):
        while True:
            scenario = _distinct_problem(rng, draws[i], f"distinct-{seed}-{i}")
            if problem_key(scenario) not in seen:
                break
        seen.add(problem_key(scenario))
        factor = float(rng.uniform(0.9, 1.1))
        cells.append(CellSpec(scenario=scenario, policy="proposed", knob=factor,
                              n_periods=DISTINCT_PERIODS, supply_factor=factor))
        if i % DISTINCT_VARIANT_EVERY == DISTINCT_VARIANT_EVERY - 1:
            earlier = cells[-DISTINCT_VARIANT_EVERY].scenario
            factor = float(rng.uniform(0.9, 1.1))
            cells.append(CellSpec(scenario=earlier, policy="proposed", knob=factor,
                                  n_periods=DISTINCT_PERIODS, supply_factor=factor))
    return cells


# ----------------------------------------------------------------------
# fleet_closed
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanKey:
    """One plan request's defining fields (the daemon's cache key)."""

    scenario: str
    supply_factor: float
    hot: bool

    def payload(self) -> dict:
        return {
            "op": "plan",
            "scenario": self.scenario,
            "policy": "proposed",
            "n_periods": FLEET_PERIODS,
            "supply_factor": self.supply_factor,
        }


class FleetStream:
    """The closed loop's request sequence for one seed.

    About :data:`FLEET_HIT_SHARE` of requests repeat a Zipf-popular hot
    key; the rest carry a supply factor never issued before in this
    stream, so they miss every plan cache.  :meth:`probe_misses` draws the
    benchmark's own direct-to-backend miss probes from the same
    never-issued pool, on a separate stream.
    """

    def __init__(self, seed: int, scenarios: "list[str] | tuple[str, ...]"):
        rng = _rng(seed, _FLEET)
        self.scenarios = tuple(scenarios)
        self.hot = [
            PlanKey(name, float(factor), True)
            for name in self.scenarios
            for factor in rng.uniform(0.8, 1.2, FLEET_HOT_FACTORS)
        ]
        order = rng.permutation(len(self.hot))
        weights = 1.0 / np.arange(1, len(self.hot) + 1) ** FLEET_ZIPF_S
        self.popularity = np.empty(len(self.hot))
        self.popularity[order] = weights / weights.sum()
        self._stream_rng = _rng(seed, _FLEET, 1)
        self._probe_rng = _rng(seed, _FLEET, 2)
        self._issued = {(k.scenario, k.supply_factor) for k in self.hot}

    def _miss(self, rng: np.random.Generator) -> PlanKey:
        while True:
            scenario = self.scenarios[int(rng.integers(len(self.scenarios)))]
            factor = float(rng.uniform(0.7, 1.3))
            if (scenario, factor) not in self._issued:
                self._issued.add((scenario, factor))
                return PlanKey(scenario, factor, False)

    def take(self, n: int) -> list[PlanKey]:
        """The stream's next ``n`` requests."""
        rng = self._stream_rng
        hits = rng.random(n) < FLEET_HIT_SHARE
        picks = rng.choice(len(self.hot), size=n, p=self.popularity)
        return [
            self.hot[int(pick)] if hit else self._miss(rng)
            for hit, pick in zip(hits, picks)
        ]

    def probe_misses(self, n: int) -> list[PlanKey]:
        """``n`` never-issued keys for direct-to-backend probes."""
        return [self._miss(self._probe_rng) for _ in range(n)]
