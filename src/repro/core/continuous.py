"""Continuous-space optimal system parameters (paper Eqs. 12–18).

Section 4.2 derives, for a continuous parameter space with no switching
overhead, which knob — processor count ``n`` or frequency ``f`` — buys more
performance per watt, and from that a closed-form optimal ``(n, f, v)`` for
any power budget (Eq. 18).  Two regimes:

* **Below the voltage floor** (``f < g(v_min)``): voltage cannot drop
  further, so power is linear in ``f`` and the derivative ratio (Eq. 14)
  is ``1 + n·Ts/(Tt − Ts) > 1`` — raising **frequency** always beats adding
  processors.
* **At/above the voltage floor** (``f ≥ g(v_min)``): frequency comes with
  ``v²`` so power grows cubically; the ratio (Eq. 17) is
  ``n·Ts/(3(Tt − Ts)) + 1/3``, so **processors win while**
  ``n·Ts/(Tt − Ts) ≤ 2``, i.e. up to ``n* = 2(Tt/Ts − 1)``; past ``n*``
  frequency (with its voltage) wins again.

Eq. 18 stitches these into four budget regimes; :func:`optimal_parameters`
implements it (generalized to a cap on processor count and clamped to the
frequency range).  The derivative helpers are exposed for tests and the
ablation bench that sweeps the Amdahl crossover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..models.performance import PerformanceModel
from ..models.power import PowerModel
from ..util.validation import check_non_negative, check_positive

__all__ = [
    "ContinuousDesignPoint",
    "perf_power_ratio_low",
    "perf_power_ratio_high",
    "optimal_processor_count",
    "optimal_parameters",
]

#: Rounding slack on ``power ≤ budget`` for a returned design point.
_BUDGET_RTOL = 1e-9


def _perf_fractional(
    perf_model: PerformanceModel, n: float, f: float, v: float
) -> float:
    """Eq. 3 with a real-valued processor count (the continuous relaxation)."""
    if n <= 0 or f <= 0:
        return 0.0
    f_eff = perf_model.effective_frequency(f, v)
    amdahl = perf_model.t_serial + (perf_model.t_total - perf_model.t_serial) / n
    return perf_model.c1 * f_eff / amdahl


@dataclass(frozen=True)
class ContinuousDesignPoint:
    """An Eq. 18 solution: real-valued processor count + operating point."""

    n: float  #: processors (continuous; callers floor it for discrete systems)
    f: float  #: clock frequency (Hz)
    v: float  #: supply voltage (V)
    power: float  #: modeled power at this point (W)
    perf: float  #: modeled Eq. 3 performance
    regime: int  #: which of the four Eq. 18 cases produced it (1–4)


# ----------------------------------------------------------------------
# derivative-ratio tests (Eqs. 14 and 17)
# ----------------------------------------------------------------------
def perf_power_ratio_low(perf_model: PerformanceModel, n: float) -> float:
    """Eq. 14: (∂Perf/∂P at const n) / (∂Perf/∂P at const f) for f < g(v_min).

    Always > 1 (frequency wins) for any ``n ≥ 1`` and ``Ts > 0``; returns
    ``inf`` for a fully-serial workload (``Tt = Ts``) where adding
    processors is useless.
    """
    check_positive("n", n)
    ts, tt = perf_model.t_serial, perf_model.t_total
    if tt == ts:
        return math.inf
    return n * ts / (tt - ts) + 1.0


def perf_power_ratio_high(perf_model: PerformanceModel, n: float) -> float:
    """Eq. 17: the same ratio in the voltage-scaling regime (f ≥ g(v_min)).

    Frequency wins when this exceeds 1, i.e. when ``n·Ts/(Tt−Ts) > 2``.
    """
    check_positive("n", n)
    ts, tt = perf_model.t_serial, perf_model.t_total
    if tt == ts:
        return math.inf
    return n * ts / (3.0 * (tt - ts)) + 1.0 / 3.0


def optimal_processor_count(perf_model: PerformanceModel) -> float:
    """``n* = 2(Tt/Ts − 1)``: where Eq. 17 crosses 1 (see Eq. 18 case 3)."""
    return perf_model.optimal_processor_count


# ----------------------------------------------------------------------
# Eq. 18
# ----------------------------------------------------------------------
def optimal_parameters(
    power_budget: float,
    perf_model: PerformanceModel,
    power_model: PowerModel,
    *,
    n_max: float = math.inf,
    f_min: float = 0.0,
) -> ContinuousDesignPoint:
    """Eq. 18: the continuous ``(n, f, v)`` maximizing Eq. 3 performance
    under ``Power(n, f, v) ≤ power_budget``.

    The four budget regimes (with ``P₁ = c2·g(v_min)·v_min²`` the power of
    one processor at the voltage floor, and ``n*`` the Eq. 17 crossover):

    1. ``P < P₁`` — one processor below the floor frequency:
       ``n = 1``, ``f = P/(c2·v_min²)``, ``v = v_min``.
    2. ``P₁ ≤ P < n*·P₁`` — stack processors at the floor:
       ``n = P/P₁``, ``f = g(v_min)``.
    3. ``n*·P₁ ≤ P < n*·P_vmax`` — hold ``n*``, scale voltage/frequency:
       solve ``c2·n*·g(v)·v² = P`` for ``v``, ``f = g(v)``.
    4. ``P ≥ n*·P_vmax`` — everything at top frequency, add processors:
       ``n = P/P_vmax``, ``f = g(v_max)``.

    Extensions beyond the paper's idealization: ``n`` is capped at
    ``n_max`` (excess budget then pushes into the next regime), ``f`` is
    floored at ``f_min``, and the active static floor of ``power_model``
    is accounted for.  With a fixed-voltage map (``v_min = v_max``),
    regime 3 collapses and the solution goes straight from 2 to 4 — the
    PAMA configuration.

    Every returned point is finite and within the budget (up to rounding).
    A model for which no such optimum exists — one whose processors cost
    so little power that the budget buys more than a float can count —
    raises :class:`ValueError` naming the power model.
    """
    check_non_negative("power_budget", power_budget)
    vf = perf_model.vf_map
    c2 = power_model.c2
    floor = power_model.active_floor
    v_lo, v_hi = vf.v_min, vf.v_max
    f_floor = vf.f_floor  # g(v_min)
    f_ceil = vf.f_ceiling  # g(v_max)

    def proc_power(f: float, v: float) -> float:
        return c2 * f * v**2 + floor

    p1 = proc_power(f_floor, v_lo)  # one processor at the voltage floor
    p_top = proc_power(f_ceil, v_hi)  # one processor flat out

    n_star = perf_model.optimal_processor_count
    n_star_eff = min(n_star, n_max)

    def point(n: float, f: float, v: float, power: float, regime: int):
        perf = _perf_fractional(perf_model, n, f, v)
        finite = all(map(math.isfinite, (n, f, v, power, perf)))
        if not finite or power > power_budget * (1.0 + _BUDGET_RTOL):
            raise ValueError(
                f"Eq. 18 has no finite optimum within {power_budget!r} W for "
                f"{power_model!r} (regime {regime}: n={n!r}, power={power!r})"
            )
        return ContinuousDesignPoint(n, f, v, power, perf, regime=regime)

    def count(budget: float, per_processor: float) -> float:
        # A processor that draws nothing (c2·f·v² underflowed) is unbounded.
        return budget / per_processor if per_processor > 0 else math.inf

    if power_budget < p1:
        # regime 1: single processor, frequency below the floor
        spare = power_budget - floor
        f = 0.0
        if spare > 0:
            dynamic = c2 * v_lo**2  # W per Hz at the voltage floor
            f = spare / dynamic if dynamic > 0 else f_floor
            if proc_power(f, v_lo) > power_budget * (1.0 + _BUDGET_RTOL):
                # c2·v_min² underflowed or lost its precision (subnormal):
                # bisect for the fastest clock the budget still pays for.
                lo, hi = 0.0, f
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if proc_power(mid, v_lo) <= power_budget:
                        lo = mid
                    else:
                        hi = mid
                f = lo
        if f < f_min:
            f = 0.0 if power_budget < proc_power(f_min, v_lo) else f_min
        n = 1.0 if f > 0 else 0.0
        power = proc_power(f, v_lo) if n else 0.0
        return point(n, f, v_lo, power, regime=1)

    if power_budget < n_star_eff * p1 or v_hi == v_lo or f_ceil <= f_floor:
        # regime 2: processors at the floor frequency
        n = min(count(power_budget, p1), n_max)
        # fixed-voltage systems skip regime 3 entirely; budget beyond
        # n_max·p1 falls through to regime 4 below when f can still rise.
        if n < n_max or f_ceil <= f_floor:
            return point(n, f_floor, v_lo, n * p1, regime=2)

    if power_budget < n_star_eff * p_top and v_hi > v_lo:
        # regime 3: fixed n*, scale voltage (and frequency with it)
        n = n_star_eff
        target = power_budget / n
        lo, hi = v_lo, v_hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if proc_power(vf.g(mid), mid) < target:
                lo = mid
            else:
                hi = mid
        v = 0.5 * (lo + hi)
        f = vf.g(v)
        return point(n, f, v, n * proc_power(f, v), regime=3)

    # regime 4: top frequency/voltage, spend the rest on processors
    n = min(count(power_budget, p_top), n_max)
    return point(n, f_ceil, v_hi, n * p_top, regime=4)
