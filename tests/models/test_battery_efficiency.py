"""Battery round-trip efficiency (extension beyond the paper's ideal cell)."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.models.battery import Battery, BatterySpec


class TestSpec:
    def test_defaults_are_ideal(self):
        spec = BatterySpec(c_max=10.0)
        assert spec.is_ideal

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            BatterySpec(c_max=10.0, charge_efficiency=0.0)
        with pytest.raises(ValueError):
            BatterySpec(c_max=10.0, discharge_efficiency=1.5)
        assert not BatterySpec(c_max=10.0, charge_efficiency=0.9).is_ideal


class TestChargeEfficiency:
    def test_stored_energy_scaled(self):
        spec = BatterySpec(c_max=100.0, c_min=0.0, initial=0.0, charge_efficiency=0.8)
        b = Battery(spec)
        step = b.step(charge_power=10.0, draw_power=0.0, dt=1.0)
        assert b.level == pytest.approx(8.0)  # 10 J offered, 8 stored
        assert step.charged == pytest.approx(10.0)  # bus energy accepted
        assert step.conversion_loss == pytest.approx(2.0)
        assert step.wasted == 0.0

    def test_passthrough_is_lossless(self):
        """Load served directly from the source doesn't round-trip the cell."""
        spec = BatterySpec(c_max=10.0, initial=5.0, charge_efficiency=0.5,
                           discharge_efficiency=0.5)
        b = Battery(spec)
        step = b.step(charge_power=3.0, draw_power=3.0, dt=2.0)
        assert step.conversion_loss == 0.0
        assert b.level == pytest.approx(5.0)
        assert step.drawn == pytest.approx(6.0)

    def test_fill_time_stretches(self):
        """At 50% charge efficiency the cell takes twice as long to fill."""
        ideal = Battery(BatterySpec(c_max=10.0, initial=0.0))
        lossy = Battery(BatterySpec(c_max=10.0, initial=0.0, charge_efficiency=0.5))
        ideal.step(2.0, 0.0, 5.0)
        lossy.step(2.0, 0.0, 5.0)
        assert ideal.level == pytest.approx(10.0)
        assert lossy.level == pytest.approx(5.0)


class TestDischargeEfficiency:
    def test_cell_drains_faster_than_delivery(self):
        spec = BatterySpec(c_max=10.0, initial=10.0, discharge_efficiency=0.8)
        b = Battery(spec)
        step = b.step(charge_power=0.0, draw_power=4.0, dt=1.0)
        assert step.drawn == pytest.approx(4.0)
        assert b.level == pytest.approx(10.0 - 5.0)  # released 4/0.8
        assert step.conversion_loss == pytest.approx(1.0)

    def test_reserve_buys_less_delivery(self):
        spec = BatterySpec(c_max=10.0, c_min=0.0, initial=4.0, discharge_efficiency=0.5)
        b = Battery(spec)
        step = b.step(charge_power=0.0, draw_power=10.0, dt=1.0)
        # 4 J stored delivers only 2 J at the load
        assert step.drawn == pytest.approx(2.0)
        assert step.undersupplied == pytest.approx(8.0)
        assert b.level == pytest.approx(0.0)


efficiencies = st.floats(min_value=0.3, max_value=1.0)
flow = st.tuples(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=5.0),
)


class TestProperties:
    @given(efficiencies, efficiencies, st.lists(flow, min_size=1, max_size=25))
    def test_global_energy_identity(self, eta_c, eta_d, flows):
        """supplied = drawn + Δlevel + wasted + conversion_loss."""
        spec = BatterySpec(
            c_max=15.0, c_min=1.0, initial=8.0,
            charge_efficiency=eta_c, discharge_efficiency=eta_d,
        )
        b = Battery(spec)
        supplied = 0.0
        for c, u, dt in flows:
            b.step(c, u, dt)
            supplied += c * dt
        assert supplied == pytest.approx(
            b.total_drawn
            + (b.level - spec.initial)
            + b.total_wasted
            + b.total_conversion_loss,
            abs=1e-7,
        )

    @given(efficiencies, efficiencies, st.lists(flow, min_size=1, max_size=25))
    # η_c·surplus underflows to 0 W: the cell must not move (no 1/0 for t_hit)
    @example(0.5, 1.0, [(5e-324, 0.0, 1.0)])
    def test_level_stays_in_window(self, eta_c, eta_d, flows):
        spec = BatterySpec(
            c_max=15.0, c_min=1.0, initial=8.0,
            charge_efficiency=eta_c, discharge_efficiency=eta_d,
        )
        b = Battery(spec)
        for c, u, dt in flows:
            b.step(c, u, dt)
            assert spec.c_min - 1e-9 <= b.level <= spec.c_max + 1e-9

    @given(efficiencies, st.lists(flow, min_size=1, max_size=20))
    def test_lower_efficiency_never_helps(self, eta, flows):
        """A lossy battery delivers no more energy than an ideal one under
        the same flows."""
        ideal = Battery(BatterySpec(c_max=15.0, c_min=1.0, initial=8.0))
        lossy = Battery(
            BatterySpec(
                c_max=15.0, c_min=1.0, initial=8.0,
                charge_efficiency=eta, discharge_efficiency=eta,
            )
        )
        for c, u, dt in flows:
            ideal.step(c, u, dt)
            lossy.step(c, u, dt)
        assert lossy.total_drawn <= ideal.total_drawn + 1e-7

    @given(
        efficiencies, efficiencies,
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.5, max_value=8.0),
        st.integers(min_value=2, max_value=16),
    )
    def test_slicing_invariance_with_losses(self, eta_c, eta_d, c, u, total, pieces):
        spec = BatterySpec(
            c_max=15.0, c_min=1.0, initial=8.0,
            charge_efficiency=eta_c, discharge_efficiency=eta_d,
        )
        whole = Battery(spec)
        whole.step(c, u, total)
        sliced = Battery(spec)
        for _ in range(pieces):
            sliced.step(c, u, total / pieces)
        assert sliced.level == pytest.approx(whole.level, abs=1e-7)
        assert sliced.total_conversion_loss == pytest.approx(
            whole.total_conversion_loss, abs=1e-7
        )
        assert sliced.total_undersupplied == pytest.approx(
            whole.total_undersupplied, abs=1e-7
        )
