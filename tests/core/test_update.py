"""Algorithm 3: deviation redistribution and horizons."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import paper_scenarios
from repro.analysis.energy import run_managed
from repro.core.update import (
    RedistributionResult,
    _sum,
    find_horizon,
    fold_deviation,
    planned_trajectory,
    redistribute_deviation,
)
from repro.models.battery import BatterySpec
from repro.scenarios import library_scenarios
from repro.util.validation import check_finite, check_non_negative

#: see test_run_managed_outputs_are_pinned
RUN_MANAGED_DIGEST = "0e57fd62c259dca62f058c2d745f4e021428ac7dd65014b432300e3635d5e727"


@pytest.fixture
def spec() -> BatterySpec:
    return BatterySpec(c_max=10.0, c_min=1.0, initial=5.0)


class TestPlannedTrajectory:
    def test_cumsum_of_surplus(self):
        pinit = np.array([1.0, 2.0, 1.0])
        charging = np.array([2.0, 1.0, 1.0])
        traj = planned_trajectory(pinit, charging, 5.0, tau=2.0)
        np.testing.assert_allclose(traj, [7.0, 5.0, 5.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            planned_trajectory(np.zeros(2), np.zeros(3), 0.0, 1.0)


class TestHorizon:
    def test_surplus_horizon_stops_at_cmax(self, spec):
        # charging 3 W vs plan 1 W: +2 W; from 5 J the 10 J cap is hit
        # inside slot 3 (5+2·2τ=9 at end of slot 2, 11 at end of slot 3)
        pinit = np.full(6, 1.0)
        charging = np.full(6, 3.0)
        h = find_horizon(pinit, charging, 5.0, 1.0, spec, "surplus")
        assert h == 3

    def test_deficit_horizon_stops_at_cmin(self, spec):
        pinit = np.full(6, 3.0)
        charging = np.full(6, 1.0)
        h = find_horizon(pinit, charging, 5.0, 1.0, spec, "deficit")
        assert h == 2

    def test_no_hit_uses_whole_window(self, spec):
        pinit = np.full(4, 1.0)
        charging = np.full(4, 1.0)
        assert find_horizon(pinit, charging, 5.0, 1.0, spec, "surplus") == 4

    def test_direction_validated(self, spec):
        with pytest.raises(ValueError):
            find_horizon(np.ones(2), np.ones(2), 5.0, 1.0, spec, "sideways")


class TestRedistribute:
    def test_surplus_added_proportionally(self):
        pinit = np.array([1.0, 2.0, 1.0])
        result = redistribute_deviation(pinit, 4.0, tau=1.0)
        # shares proportional to plan: 1, 2, 1 → +1, +2, +1 W
        np.testing.assert_allclose(result.pinit, [2.0, 4.0, 2.0])
        assert result.placed == pytest.approx(4.0)
        assert result.residual == pytest.approx(0.0)

    def test_deficit_removed_proportionally(self):
        pinit = np.array([2.0, 4.0, 2.0])
        result = redistribute_deviation(pinit, -4.0, tau=1.0)
        np.testing.assert_allclose(result.pinit, [1.0, 2.0, 1.0])

    def test_energy_conservation(self):
        pinit = np.array([0.5, 1.5, 2.0, 0.1])
        for e in (3.7, -1.2, 0.0):
            result = redistribute_deviation(pinit, e, tau=2.0)
            delta = (result.pinit - pinit).sum() * 2.0
            assert delta == pytest.approx(result.placed, abs=1e-9)
            assert result.placed + result.residual == pytest.approx(e, abs=1e-9)

    def test_ceiling_caps_and_reoffers(self):
        pinit = np.array([1.0, 1.0])
        result = redistribute_deviation(pinit, 3.0, tau=1.0, ceiling=2.0)
        np.testing.assert_allclose(result.pinit, [2.0, 2.0])
        assert result.placed == pytest.approx(2.0)
        assert result.residual == pytest.approx(1.0)

    def test_floor_limits_reduction(self):
        pinit = np.array([0.5, 0.5])
        result = redistribute_deviation(pinit, -2.0, tau=1.0, floor=0.0)
        np.testing.assert_allclose(result.pinit, [0.0, 0.0])
        assert result.residual == pytest.approx(-1.0)

    def test_horizon_restricts_spread(self, spec):
        pinit = np.full(6, 1.0)
        charging = np.full(6, 3.0)  # trajectory hits C_max at slot 3
        result = redistribute_deviation(
            pinit, 3.0, charging=charging, initial_level=5.0, spec=spec, tau=1.0
        )
        assert result.horizon == 3
        # only the first 3 slots absorbed the surplus
        assert np.all(result.pinit[3:] == 1.0)
        assert np.all(result.pinit[:3] > 1.0)

    def test_zero_deviation_is_identity(self):
        pinit = np.array([1.0, 2.0])
        result = redistribute_deviation(pinit, 0.0, tau=1.0)
        np.testing.assert_array_equal(result.pinit, pinit)

    def test_empty_window(self):
        result = redistribute_deviation(np.array([]), 2.0, tau=1.0)
        assert result.residual == 2.0

    def test_all_zero_plan_spreads_evenly(self):
        pinit = np.zeros(4)
        result = redistribute_deviation(pinit, 4.0, tau=1.0)
        np.testing.assert_allclose(result.pinit, [1.0, 1.0, 1.0, 1.0])

    def test_input_not_mutated(self):
        pinit = np.array([1.0, 1.0])
        redistribute_deviation(pinit, 2.0, tau=1.0)
        np.testing.assert_array_equal(pinit, [1.0, 1.0])

    def test_invalid_ceiling_rejected(self):
        with pytest.raises(ValueError):
            redistribute_deviation(np.ones(2), 1.0, tau=1.0, floor=1.0, ceiling=0.5)


# ----------------------------------------------------------------------
# bit-exact differential: the float kernel vs the numpy formulation
# ----------------------------------------------------------------------
def _reference_redistribute(
    pinit, e_diff, *, charging=None, initial_level=None, spec=None, tau,
    floor=0.0, ceiling=None,
):
    """Algorithm 3 as numpy array code — the implementation the float kernel
    replaced, kept verbatim as the bit-level reference."""
    pinit = np.asarray(pinit, dtype=float).copy()
    check_finite("e_diff", e_diff)
    check_non_negative("tau", tau)
    if pinit.size == 0 or e_diff == 0.0 or tau == 0.0:
        return RedistributionResult(pinit, 0, 0.0, float(e_diff))
    if ceiling is not None and ceiling < floor:
        raise ValueError("ceiling must be >= floor")

    direction = "surplus" if e_diff > 0 else "deficit"
    if charging is not None and spec is not None and initial_level is not None:
        charging = np.asarray(charging, dtype=float)
        if pinit.shape != charging.shape:
            raise ValueError("pinit and charging arrays must have equal length")
        traj = initial_level + np.cumsum(charging - pinit) * tau
        if direction == "surplus":
            hits = np.nonzero(traj >= spec.c_max - 1e-12)[0]
        else:
            hits = np.nonzero(traj <= spec.c_min + 1e-12)[0]
        horizon = len(traj) if hits.size == 0 else max(int(hits[0]) + 1, 1)
    else:
        horizon = pinit.size

    hi = np.inf if ceiling is None else float(ceiling)
    window = pinit[:horizon]
    remaining = float(e_diff)
    for _ in range(horizon + 1):
        if abs(remaining) <= 1e-15:
            break
        if remaining > 0:
            room = np.maximum(hi - window, 0.0)
        else:
            room = np.maximum(window - floor, 0.0)
        if not np.any(room > 0):
            break
        weights = window.copy()
        weights[room <= 0] = 0.0
        total_w = weights.sum()
        if total_w <= 0:
            weights = (room > 0).astype(float)
            total_w = weights.sum()
        delta_power = remaining / tau * weights / total_w
        capped = np.sign(delta_power) * np.minimum(np.abs(delta_power), room)
        window += capped
        remaining -= float(capped.sum()) * tau
    pinit[:horizon] = window
    placed = float(e_diff) - remaining
    return RedistributionResult(pinit, horizon, placed, remaining)


#: signed zeros, subnormals, the smallest normal, plain powers and, for
#: numpy's NaN propagation, non-finite values (W)
_EDGE_POWERS = [
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0, 2.0, 3.0,
    math.inf, math.nan,
]
_POWER = st.one_of(
    st.sampled_from(_EDGE_POWERS),
    st.floats(min_value=-1.0, max_value=10.0, allow_subnormal=True),
)


@st.composite
def _problems(draw):
    """One Algorithm 3 call: a window of 1–40 slots (some pinned at the
    floor or ceiling, or all zero), a deviation (zero and subnormal
    included), and optionally the trajectory horizon inputs."""
    n = draw(st.integers(min_value=1, max_value=40))
    floor = draw(st.sampled_from([0.0, 0.5, 1.0]))
    ceiling = draw(st.sampled_from([None, None, 2.0, 3.0, floor, 0.25]))
    pinned = st.sampled_from([floor] if ceiling is None else [floor, ceiling])
    pinit = draw(
        st.one_of(
            st.lists(st.one_of(_POWER, pinned), min_size=n, max_size=n),
            st.just([0.0] * n),
        )
    )
    e_diff = draw(
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
            st.floats(min_value=-100.0, max_value=100.0, allow_subnormal=True),
        )
    )
    kwargs = {
        "tau": draw(st.sampled_from([0.5, 1.0, 2.5, 300.0])),
        "floor": floor,
        "ceiling": ceiling,
    }
    if draw(st.booleans()):
        kwargs["charging"] = np.array(draw(st.lists(_POWER, min_size=n, max_size=n)))
        kwargs["initial_level"] = draw(st.floats(min_value=0.0, max_value=12.0))
        kwargs["spec"] = BatterySpec(
            c_max=10.0, c_min=draw(st.sampled_from([0.0, 1.0])), initial=5.0
        )
    return np.array(pinit), e_diff, kwargs


def _bits(fn, pinit, e_diff, kwargs):
    """Everything ``fn`` returns, as float hex (or the error it raised)."""
    try:
        with np.errstate(all="ignore"):
            r = fn(pinit, e_diff, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (
        [float(x).hex() for x in r.pinit],
        r.horizon,
        float(r.placed).hex(),
        float(r.residual).hex(),
    )


class TestFloatKernelIsBitExact:
    @settings(max_examples=400)
    @given(_problems())
    # a -0.0 slot pinned at the floor: the zero it is offered must be +0.0
    @example((np.array([-0.0, 1.0]), -0.5, {"tau": 1.0, "floor": 0.0, "ceiling": None}))
    # the trajectory lands exactly on C_max - 1e-12 after the first slot
    @example((
        np.ones(3), 1.0,
        {"tau": 1.0, "floor": 0.0, "ceiling": None, "charging": np.full(3, 3.0),
         "initial_level": (10.0 - 1e-12) - 2.0, "spec": BatterySpec(c_max=10.0, initial=5.0)},
    ))
    def test_matches_numpy_reference(self, problem):
        pinit, e_diff, kwargs = problem
        assert _bits(redistribute_deviation, pinit, e_diff, kwargs) == _bits(
            _reference_redistribute, pinit, e_diff, kwargs
        )

    @given(st.lists(st.one_of(_POWER, st.floats(-1e6, 1e6)), max_size=300))
    def test_sum_is_numpys_add_reduce(self, xs):
        assert _sum(xs).hex() == float(np.add.reduce(np.array(xs, dtype=float))).hex()

    def test_fold_in_place_matches_wrapper(self, spec):
        window = [1.0, 2.0, 0.5, 3.0]
        charging = [3.0, 3.0, 3.0, 3.0]
        wrapped = redistribute_deviation(
            np.array(window), 2.5, charging=np.array(charging),
            initial_level=5.0, spec=spec, tau=1.0, ceiling=2.5,
        )
        horizon, residual = fold_deviation(
            window, 2.5, charging=charging, initial_level=5.0, spec=spec,
            tau=1.0, ceiling=2.5,
        )
        assert window == wrapped.pinit.tolist()
        assert (horizon, residual) == (wrapped.horizon, wrapped.residual)


# ----------------------------------------------------------------------
# the closed loop end to end: run_managed over the registered scenarios
# ----------------------------------------------------------------------
def _run_managed_digest(frontier) -> str:
    """SHA-256 over the float hex of every ``run_managed`` output (values,
    not types) for the six registered scenarios × supply 0.0–1.6."""
    digest = hashlib.sha256()
    for scenario in [*paper_scenarios(), *library_scenarios()]:
        for k in range(17):
            r = run_managed(scenario, frontier, n_periods=2, supply_factor=k / 10)
            values = [r.wasted, r.undersupplied, r.demand_shortfall, r.supplied,
                      r.delivered, r.demand]
            for series in (r.used_power, r.delivered_power, r.battery_level,
                           r.allocated_power):
                values += series.tolist()
            digest.update(" ".join(float(v).hex() for v in values).encode())
            digest.update(repr((r.plan_iterations, r.plan_used_fallback,
                                r.plan_feasible)).encode())
    return digest.hexdigest()


def test_run_managed_outputs_are_pinned(frontier):
    """The slot loop's outputs, bit for bit, as computed by the numpy
    formulation of Algorithm 3 before the float kernel replaced it (IEEE-754
    doubles; one library scenario's demand shape comes from ``np.sin``)."""
    assert _run_managed_digest(frontier) == RUN_MANAGED_DIGEST
