"""Continuous-space optimum (Eqs. 12–18)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.continuous import (
    optimal_parameters,
    optimal_processor_count,
    perf_power_ratio_high,
    perf_power_ratio_low,
)
from repro.models.performance import PerformanceModel
from repro.models.power import PowerModel
from repro.models.voltage import FixedVoltageVFMap, LinearVFMap


@pytest.fixture
def dvfs_perf(linear_vf) -> PerformanceModel:
    # Ts = 0.2, Tt = 1.0 ⇒ n* = 2(5 − 1) = 8
    return PerformanceModel(t_total=1.0, t_serial=0.2, f_ref=50e6, vf_map=linear_vf)


@pytest.fixture
def dvfs_power() -> PowerModel:
    return PowerModel(c2=1e-10)


class TestDerivativeRatios:
    def test_eq14_always_above_one(self, dvfs_perf):
        for n in (1, 2, 8, 100):
            assert perf_power_ratio_low(dvfs_perf, n) > 1.0

    def test_eq17_crossover_at_n_star(self, dvfs_perf):
        n_star = optimal_processor_count(dvfs_perf)
        assert n_star == pytest.approx(8.0)
        # below n*: processors win (ratio < 1); above: frequency wins
        assert perf_power_ratio_high(dvfs_perf, n_star * 0.9) < 1.0
        assert perf_power_ratio_high(dvfs_perf, n_star * 1.1) > 1.0
        assert perf_power_ratio_high(dvfs_perf, n_star) == pytest.approx(1.0)

    def test_fully_serial_returns_inf(self, linear_vf):
        m = PerformanceModel(t_total=1.0, t_serial=1.0, f_ref=50e6, vf_map=linear_vf)
        assert perf_power_ratio_low(m, 4) == float("inf")
        assert perf_power_ratio_high(m, 4) == float("inf")


class TestEq18Regimes:
    def test_regime1_single_slow_processor(self, dvfs_perf, dvfs_power):
        p1 = dvfs_power.c2 * dvfs_perf.vf_map.f_floor * dvfs_perf.vf_map.v_min**2
        point = optimal_parameters(0.5 * p1, dvfs_perf, dvfs_power)
        assert point.regime == 1
        assert point.n == 1
        assert point.f < dvfs_perf.vf_map.f_floor
        assert point.v == dvfs_perf.vf_map.v_min

    def test_regime2_stacks_processors_at_floor(self, dvfs_perf, dvfs_power):
        p1 = dvfs_power.c2 * dvfs_perf.vf_map.f_floor * dvfs_perf.vf_map.v_min**2
        point = optimal_parameters(4 * p1, dvfs_perf, dvfs_power)
        assert point.regime == 2
        assert point.n == pytest.approx(4.0)
        assert point.f == pytest.approx(dvfs_perf.vf_map.f_floor)

    def test_regime3_scales_voltage_at_n_star(self, dvfs_perf, dvfs_power):
        vf = dvfs_perf.vf_map
        p1 = dvfs_power.c2 * vf.f_floor * vf.v_min**2
        p_top = dvfs_power.c2 * vf.f_ceiling * vf.v_max**2
        budget = 8 * 0.5 * (p1 + p_top)  # inside regime 3 for n* = 8
        point = optimal_parameters(budget, dvfs_perf, dvfs_power)
        assert point.regime == 3
        assert point.n == pytest.approx(8.0)
        assert vf.v_min < point.v <= vf.v_max
        assert point.f == pytest.approx(vf.g(point.v), rel=1e-6)
        assert point.power == pytest.approx(budget, rel=1e-6)

    def test_regime4_everything_flat_out(self, dvfs_perf, dvfs_power):
        vf = dvfs_perf.vf_map
        p_top = dvfs_power.c2 * vf.f_ceiling * vf.v_max**2
        point = optimal_parameters(20 * p_top, dvfs_perf, dvfs_power)
        assert point.regime == 4
        assert point.n == pytest.approx(20.0)
        assert point.f == pytest.approx(vf.f_ceiling)
        assert point.v == vf.v_max

    def test_power_never_exceeds_budget(self, dvfs_perf, dvfs_power):
        for budget in np.linspace(1e-4, 1.0, 40):
            point = optimal_parameters(budget, dvfs_perf, dvfs_power)
            assert point.power <= budget * (1 + 1e-6)

    def test_perf_monotone_in_budget(self, dvfs_perf, dvfs_power):
        budgets = np.linspace(1e-4, 1.0, 40)
        perfs = [optimal_parameters(b, dvfs_perf, dvfs_power).perf for b in budgets]
        assert all(b >= a - 1e-12 for a, b in zip(perfs, perfs[1:]))

    def test_n_max_cap_respected(self, dvfs_perf, dvfs_power):
        point = optimal_parameters(10.0, dvfs_perf, dvfs_power, n_max=3)
        assert point.n <= 3.0

    def test_zero_budget(self, dvfs_perf, dvfs_power):
        point = optimal_parameters(0.0, dvfs_perf, dvfs_power)
        assert point.perf == 0.0


class TestFixedVoltage:
    def test_pama_case_skips_regime3(self, power_model):
        """With v_min = v_max regime 3 collapses: beyond one processor the
        solution stacks processors at the single frequency ceiling."""
        vf = FixedVoltageVFMap(voltage=3.3, f_max=80e6)
        perf = PerformanceModel(t_total=4.8, t_serial=0.48, f_ref=20e6, vf_map=vf)
        p1 = power_model.active_power(80e6, 3.3)
        for k in (2, 3, 5):
            point = optimal_parameters(k * p1, perf, power_model, n_max=7)
            assert point.regime == 2
            assert point.n == pytest.approx(float(k))
            assert point.f == pytest.approx(80e6)


# Subnormal switching constants included: c2·f·v² may underflow to 0 and
# budget/P₁ may overflow.
_positive = st.floats(min_value=5e-324, max_value=1e300)
_vf_maps = st.one_of(
    st.builds(FixedVoltageVFMap, st.floats(1e-3, 10.0), st.floats(1e-3, 1e12)),
    st.builds(
        lambda v_min, ratio, slope: LinearVFMap(v_min, v_min * ratio, slope),
        st.floats(1e-6, 10.0),
        st.floats(1.0, 100.0),
        st.floats(1e-3, 1e12),
    ),
)
_power_models = st.builds(
    PowerModel, c2=_positive, active_floor=st.one_of(st.just(0.0), _positive)
)


class TestNumericEdges:
    @example(LinearVFMap(1e-3, 1.0, 1e6), PowerModel(c2=5e-324, active_floor=0.5), 0.2, 0.1)
    @example(FixedVoltageVFMap(1.0, 1e6), PowerModel(c2=5e-324), 0.2, 1.0)
    @given(_vf_maps, _power_models, st.floats(0.01, 1.0), st.floats(0.0, 1e300))
    def test_point_is_finite_within_budget_or_model_rejected(
        self, vf, power_model, t_serial, budget
    ):
        perf = PerformanceModel(t_total=1.0, t_serial=t_serial, f_ref=1e6, vf_map=vf)
        try:
            point = optimal_parameters(budget, perf, power_model)
        except ValueError as exc:
            assert repr(power_model) in str(exc)
            # Rejected only when the budget buys more processors at the
            # voltage floor than a float can count.
            p1 = power_model.active_power(vf.f_floor, vf.v_min)
            assert p1 == 0 or budget / p1 == math.inf
            return
        values = (point.n, point.f, point.v, point.power, point.perf)
        assert all(math.isfinite(x) for x in values)
        assert point.power <= budget * (1 + 1e-9)
