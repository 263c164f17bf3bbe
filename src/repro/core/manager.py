"""The dynamic power manager — the paper's complete technique (Figure 1).

:class:`DynamicPowerManager` wires the three stages together:

1. :meth:`plan` — Eq. 7/8 normalization, Algorithm 1 allocation, and
   Algorithm 2 parameter schedule for one nominal period.
2. :meth:`start` / :meth:`decide` / :meth:`advance` — the run-time loop of
   Section 4.3.  Each interval ``τ`` the controller (a) reads the head of
   the rolling allocation window and picks the best affordable operating
   point (Algorithm 2's slot step), and (b) after the interval, folds the
   observed deviations — quantized usage vs. allocation *and* actual vs.
   expected supply — back into the window with Algorithm 3.

The rolling window always covers one full period ahead; slots leaving the
window are replaced by the base plan's value for the same (wrapped) slot of
the next period, so persistent deviations keep being reconciled against the
nominal plan rather than compounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.battery import BatterySpec
from ..util.schedule import Schedule
from .allocation import AllocationResult, allocate_cached
from .pareto import OperatingFrontier, OperatingPoint
from .parameters import ParameterSchedule, SwitchingOverheads, plan_parameters
from .update import fold_deviation, redistribute_deviation
from .wpuf import desired_usage

__all__ = ["ManagerStep", "DynamicPowerManager"]


@dataclass(frozen=True)
class ManagerStep:
    """Record of one run-time interval (one row of the paper's Tables 3/5)."""

    slot: int  #: absolute slot index since :meth:`DynamicPowerManager.start`
    time: float  #: slot start time (s)
    allocated_power: float  #: ``P_init(t)`` at decision time (W)
    point: OperatingPoint  #: operating point used during the slot
    used_power: float  #: actual drawn power (W)
    supplied_power: float  #: actual external supply (W)
    expected_supply_power: float  #: what the plan expected (W)
    e_diff: float  #: deviation energy folded back by Algorithm 3 (J)
    level: float  #: battery level after the slot (J)
    window: np.ndarray  #: allocation window after the update (one period)


class DynamicPowerManager:
    """Plan and run the paper's dynamic power-management technique.

    Parameters
    ----------
    charging:
        Expected charging schedule ``c(t)`` over one period.
    event_rate:
        Expected event-rate schedule ``u(t)`` (any non-negative shape; the
        Eq. 8 normalization makes only its shape matter).
    weight:
        Weight function ``w(t)``.
    frontier:
        Pareto frontier of discrete operating points (Algorithm 2 lines 1–5).
    spec:
        Battery capacity window and initial charge.
    overheads:
        Switching costs ``OH_n``/``OH_f``; default free (paper's setting).
    usage_floor / usage_ceiling:
        Feasible per-slot power band for allocations.  The ceiling defaults
        to the frontier's maximum power (no point allocating more than the
        system can draw).
    supply_margin:
        Fraction of the charging forecast to plan against (default 1.0).
        Planning with a derated forecast (e.g. 0.9) is the classic
        robustness hedge for uncertain sources: real supply then shows up
        as surplus that Algorithm 3 spends safely, instead of shortfalls
        that force emergency throttling.
    """

    def __init__(
        self,
        charging: Schedule,
        event_rate: Schedule,
        weight: Schedule | None = None,
        *,
        frontier: OperatingFrontier,
        spec: BatterySpec,
        overheads: SwitchingOverheads | None = None,
        usage_floor: float = 0.0,
        usage_ceiling: float | None = None,
        max_iterations: int = 8,
        supply_margin: float = 1.0,
    ):
        if weight is None:
            weight = Schedule.constant(charging.grid, 1.0)
        if charging.grid != event_rate.grid or charging.grid != weight.grid:
            raise ValueError("charging, event rate and weight must share a grid")
        if not 0.0 < supply_margin <= 1.0:
            raise ValueError("supply_margin must be in (0, 1]")
        self.grid = charging.grid
        self.supply_margin = float(supply_margin)
        # all planning and reconciliation happen against the derated forecast
        self.charging = charging * supply_margin
        self.event_rate = event_rate
        self.weight = weight
        self.frontier = frontier
        self.spec = spec
        self.overheads = overheads or SwitchingOverheads()
        self.usage_floor = usage_floor
        self.usage_ceiling = (
            frontier.max_power if usage_ceiling is None else usage_ceiling
        )
        self.max_iterations = max_iterations

        self.allocation: AllocationResult | None = None
        self.schedule: ParameterSchedule | None = None

        # run-time state
        self._slot: int = 0
        self._level: float = float(spec.initial)
        self._window: list[float] | None = None
        self._base: list[float] = []
        self._charging_ring: list[float] = []
        self._point: OperatingPoint = frontier.points[0]
        self.history: list[ManagerStep] = []

    # ------------------------------------------------------------------
    # planning (Figure 1, left half)
    # ------------------------------------------------------------------
    def plan(self) -> tuple[AllocationResult, ParameterSchedule]:
        """Run Eq. 7/8 + Algorithm 1 + Algorithm 2 for one nominal period.

        The base plan must be *periodic*: it is replayed every period by
        the rolling window, so a plan that ends the period at a different
        battery level than it started from would inject that drift every
        period (and the run-time loop would crash into a bound trying to
        follow it).  The Eq. 8 normalization makes the ideal plan balanced,
        but the floor/ceiling clipping and the repair fallback can unbalance
        it — so the allocation is iterated to its steady state: re-plan
        with the period's end level as the start level until they agree.
        The first real period then converges from ``spec.initial`` onto the
        steady state through Algorithm 3's feedback.
        """
        u_new = desired_usage(self.event_rate, self.weight, self.charging)
        level = float(self.spec.initial)
        allocation = None
        for _ in range(12):
            # allocate() is pure on immutable inputs, so the memoized wrapper
            # returns bit-identical plans; repeated planning problems (grid
            # sweeps, replans) are solved once per process.
            allocation = allocate_cached(
                self.charging,
                u_new,
                self.spec,
                initial_level=level,
                usage_floor=self.usage_floor,
                usage_ceiling=self.usage_ceiling,
                max_iterations=self.max_iterations,
            )
            end = float(allocation.trajectory[-1])
            if abs(end - level) <= 1e-6 * max(1.0, self.spec.c_max):
                break
            level = self.spec.clamp(end)
        self.allocation = allocation
        self._plan_start_level = level
        self.schedule = plan_parameters(
            self.allocation.usage,
            self.frontier,
            overheads=self.overheads,
            charging=self.charging,
            spec=self.spec,
            initial_level=level,
        )
        return self.allocation, self.schedule

    @property
    def base_usage(self) -> Schedule:
        """The converged ``P_init`` plan (requires :meth:`plan`)."""
        if self.allocation is None:
            raise RuntimeError("call plan() before accessing the base plan")
        return self.allocation.usage

    # ------------------------------------------------------------------
    # run-time loop (Figure 1, right half / Section 4.3)
    # ------------------------------------------------------------------
    def start(self, level: float | None = None, *, slot: int = 0) -> None:
        """Reset the run-time state with a fresh window.

        ``slot`` positions the loop within the period — essential when
        (re)starting mid-period, e.g. replanning after a mid-mission
        failure: the window must line up with where the *world* is, not
        with the period origin.

        The base plan is the *steady-state* period (see :meth:`plan`); if
        the real battery starts away from the steady-state level, that gap
        is folded into the first window with Algorithm 3 — a deficit shaves
        the near-term allocation, a surplus gets spent — so the first
        period converges onto the periodic plan instead of crashing into a
        battery bound chasing it.
        """
        if self.allocation is None:
            self.plan()
        self._slot = int(slot)
        s0 = self.grid.slot_index(slot)
        self._level = float(self.spec.initial if level is None else level)
        # The slot loop runs on plain floats: the base plan, and the charging
        # forecast over two periods, so one period ahead of any slot is a slice.
        self._base = self.base_usage.values.tolist()
        self._charging_ring = self.charging.values.tolist() * 2
        window = np.roll(self.base_usage.values, -s0)
        self._point = self.frontier.points[0]
        self.history = []
        # gap vs. the *planned* level at this point of the period
        planned_here = float(self.allocation.trajectory[s0])
        start_gap = self._level - planned_here
        if abs(start_gap) > 1e-9:
            window = redistribute_deviation(
                window,
                start_gap,
                charging=np.array(self._charging_ring[s0 : s0 + window.size]),
                initial_level=self._level,
                spec=self.spec,
                tau=self.grid.tau,
                floor=self.usage_floor,
                ceiling=self.usage_ceiling,
            ).pinit
        self._window = window.tolist()

    def _require_started(self) -> list[float]:
        if self._window is None:
            raise RuntimeError("call start() before the run-time loop")
        return self._window

    @property
    def slot(self) -> int:
        return self._slot

    @property
    def level(self) -> float:
        return self._level

    @property
    def window(self) -> np.ndarray:
        """Copy of the rolling one-period allocation window."""
        return np.array(self._require_started())

    @property
    def budget(self) -> float:
        """Allocation ``P_init(t)`` for the current slot (the window's head)."""
        return self._require_started()[0]

    def decide(self) -> OperatingPoint:
        """Pick the operating point for the current slot (Algorithm 2 step).

        Idempotent: does not advance time.  Applies the overhead gate
        against the point active in the previous slot.
        """
        budget = self._require_started()[0]
        candidate = self.frontier.best_within_power(budget)
        if candidate == self._point:
            return self._point
        if self._point.power > budget + 1e-12:
            return candidate  # forced downswitch
        gain = (candidate.perf - self._point.perf) * self.grid.tau
        if gain > self.overheads.cost(self._point, candidate):
            return candidate
        return self._point

    def advance(
        self,
        *,
        used_power: float | None = None,
        supplied_power: float | None = None,
    ) -> ManagerStep:
        """Consume one interval ``τ`` and fold deviations back (Algorithm 3).

        ``used_power`` defaults to the decided point's power (a perfectly
        obedient system); ``supplied_power`` defaults to the expected
        charging schedule.  Passing measured values is how the simulator
        exercises Section 4.3.  The interval is recorded in :attr:`history`.
        """
        slot = self._slot
        allocated = self._require_started()[0]
        decision, drawn, supplied, expected_c, e_diff = self.step(
            used_power=used_power, supplied_power=supplied_power
        )
        step = ManagerStep(
            slot=slot,
            time=slot * self.grid.tau,
            allocated_power=allocated,
            point=decision,
            used_power=drawn,
            supplied_power=supplied,
            expected_supply_power=expected_c,
            e_diff=e_diff,
            level=self._level,
            window=np.array(self._window),
        )
        self.history.append(step)
        return step

    def step(
        self,
        *,
        used_power: float | None = None,
        supplied_power: float | None = None,
        decision: OperatingPoint | None = None,
    ) -> tuple[OperatingPoint, float, float, float, float]:
        """:meth:`advance` without building or recording a
        :class:`ManagerStep`, for closed loops that keep their own books.

        ``decision`` is this slot's :meth:`decide` result when the caller
        already has it (a closed loop that drew its power); by default
        the gate runs here.  Returns the operating point used and the
        drawn power, supplied power, expected supply (W) and ``E_diff``
        (J) of the interval.
        """
        window = self._require_started()
        tau = self.grid.tau
        slot_in_period = self.grid.slot_index(self._slot)

        if decision is None:
            decision = self.decide()
        switched = decision != self._point
        overhead = self.overheads.cost(self._point, decision) if switched else 0.0
        self._point = decision

        drawn = decision.power + overhead / tau if used_power is None else float(used_power)
        expected_c = self._charging_ring[slot_in_period]
        supplied = expected_c if supplied_power is None else float(supplied_power)

        # Deviation seen by the battery vs. the plan: usage shortfall/excess
        # plus supply surprise (Section 4.3 folds both through Algorithm 3).
        e_diff = (window[0] - drawn) * tau + (supplied - expected_c) * tau

        # battery bookkeeping (clamped; waste/undersupply tracked by the sim)
        self._level = self.spec.clamp(self._level + (supplied - drawn) * tau)

        # roll the window: drop the consumed slot, append the same slot of
        # the next period from the base plan, and fold E_diff into it
        rolled = window[1:]
        rolled.append(self._base[slot_in_period])
        fold_deviation(
            rolled,
            e_diff,
            charging=self._charging_ring[slot_in_period + 1 : slot_in_period + 1 + len(rolled)],
            initial_level=self._level,
            spec=self.spec,
            tau=tau,
            floor=self.usage_floor,
            ceiling=self.usage_ceiling,
        )
        self._window = rolled
        self._slot += 1
        return decision, drawn, supplied, expected_c, e_diff

    # ------------------------------------------------------------------
    def run(self, n_slots: int) -> list[ManagerStep]:
        """Run ``n_slots`` obedient intervals (no external deviations)."""
        self._require_started()
        return [self.advance() for _ in range(n_slots)]
