"""Dynamic update of the power allocation — paper Algorithm 3 (Sections 4.2/4.3).

Two things knock the real system off the initial plan:

* the **discrete parameter space** — Algorithm 2 can only draw the power of
  an existing ``(n, f)`` point, not the exact allocated ``P_init(t)``; and
* **run-time deviations** — the actual event stream and the actually
  supplied energy differ from the expected schedules (Section 4.3).

After every interval ``τ`` the deviation energy::

    E_diff = ∫ₜ₋τᵗ (P_init(v) − P_actual(v)) dv

is folded back into the future plan.  The key insight of Algorithm 3 is the
*redistribution horizon*: surplus energy (``E_diff > 0``) is only useful
until the moment ``w`` the planned battery trajectory next touches
``C_max`` — beyond that the battery would overflow anyway, so the surplus
must be spent before ``w``.  Symmetrically a deficit must be recovered
before the trajectory next touches ``C_min`` or the system browns out.
Within the horizon the adjustment is proportional to the existing plan
(``P_init(v) ± E_diff·P_init(v)/∫P_init``), so the plan's shape is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.battery import BatterySpec
from ..util.validation import check_finite, check_non_negative

__all__ = [
    "RedistributionResult",
    "planned_trajectory",
    "find_horizon",
    "fold_deviation",
    "redistribute_deviation",
]


@dataclass(frozen=True)
class RedistributionResult:
    """Outcome of one Algorithm 3 application."""

    pinit: np.ndarray  #: adjusted future allocation (same length as input)
    horizon: int  #: number of leading slots the deviation was spread over
    placed: float  #: energy actually absorbed into the plan (J)
    residual: float  #: part of ``e_diff`` that could not be placed (J)


def planned_trajectory(
    pinit: np.ndarray,
    charging: np.ndarray,
    initial_level: float,
    tau: float,
) -> np.ndarray:
    """Battery levels at the end of each future slot under the current plan
    (unclamped, like Eq. 10 but from ``initial_level``)."""
    pinit = np.asarray(pinit, dtype=float)
    charging = np.asarray(charging, dtype=float)
    if pinit.shape != charging.shape:
        raise ValueError("pinit and charging arrays must have equal length")
    return initial_level + np.cumsum(charging - pinit) * tau


def find_horizon(
    pinit: np.ndarray,
    charging: np.ndarray,
    initial_level: float,
    tau: float,
    spec: BatterySpec,
    direction: str,
) -> int:
    """Algorithm 3 lines 3/8: slots until the planned trajectory touches the
    relevant bound (``C_max`` for ``direction='surplus'``, ``C_min`` for
    ``'deficit'``).  Returns at least 1 and at most ``len(pinit)``.
    """
    if direction not in ("surplus", "deficit"):
        raise ValueError(f"direction must be 'surplus' or 'deficit', got {direction!r}")
    pinit = np.asarray(pinit, dtype=float)
    charging = np.asarray(charging, dtype=float)
    if pinit.shape != charging.shape:
        raise ValueError("pinit and charging arrays must have equal length")
    return _horizon(
        pinit.tolist(), charging.tolist(), initial_level, tau, spec, direction == "surplus"
    )


def _horizon(
    pinit: list[float],
    charging: list[float],
    level: float,
    tau: float,
    spec: BatterySpec,
    surplus: bool,
) -> int:
    """:func:`find_horizon` on lists: the running sum is :func:`np.cumsum`'s
    sequential one, so every trajectory point compares exactly as
    :func:`planned_trajectory`'s does."""
    bound = spec.c_max - 1e-12 if surplus else spec.c_min + 1e-12
    acc = 0.0
    for k, (c, p) in enumerate(zip(charging, pinit)):
        acc += c - p
        end_level = level + acc * tau
        if end_level >= bound if surplus else end_level <= bound:
            return k + 1
    return len(pinit)


def _sum(xs: list[float]) -> float:
    """``np.add.reduce`` of a float64 vector, bit for bit: ``0.0`` plus
    numpy's pairwise sum (:func:`_pairwise`)."""
    return 0.0 + _pairwise(xs, 0, len(xs))


def _pairwise(xs: list[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` over ``xs[lo:lo + n]``: sequential below 8
    terms; 8 interleaved accumulators up to 128; halves (at a multiple of 8)
    above that."""
    if n < 8:
        res = 0.0
        for x in xs[lo:lo + n]:
            res += x
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += xs[i]
            r1 += xs[i + 1]
            r2 += xs[i + 2]
            r3 += xs[i + 3]
            r4 += xs[i + 4]
            r5 += xs[i + 5]
            r6 += xs[i + 6]
            r7 += xs[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for x in xs[end:lo + n]:
            res += x
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(xs, lo, half) + _pairwise(xs, lo + half, n - half)


def fold_deviation(
    window: list[float],
    e_diff: float,
    *,
    charging: list[float] | None = None,
    initial_level: float | None = None,
    spec: BatterySpec | None = None,
    tau: float,
    floor: float = 0.0,
    ceiling: float | None = None,
) -> tuple[int, float]:
    """Algorithm 3 on plain floats: fold ``e_diff`` into ``window`` in place.

    Same arguments and checks as :func:`redistribute_deviation`, with lists
    for arrays; returns ``(horizon, residual)``.  Each step is the one the
    numpy array formulation of Algorithm 3 takes, in the same order:
    ``np.maximum``/``np.minimum``/``np.sign`` with their signed-zero and NaN
    cases, and every sum in ``np.add.reduce`` order (:func:`_sum`).  So the
    results are bit-identical to it, without numpy's per-call overhead on a
    one-period window.
    """
    check_finite("e_diff", e_diff)
    check_non_negative("tau", tau)
    remaining = float(e_diff)
    if not window or e_diff == 0.0 or tau == 0.0:
        return 0, remaining
    if ceiling is not None and ceiling < floor:
        raise ValueError("ceiling must be >= floor")

    surplus = e_diff > 0
    if charging is not None and spec is not None and initial_level is not None:
        if len(charging) != len(window):
            raise ValueError("pinit and charging arrays must have equal length")
        horizon = _horizon(window, charging, initial_level, tau, spec, surplus)
    else:
        horizon = len(window)

    hi = np.inf if ceiling is None else float(ceiling)
    head = window[:horizon]
    # Proportional spread with capacity-aware retries: slots pinned at a
    # limit stop absorbing and the leftover is re-offered to the others.
    for _ in range(horizon + 1):
        if abs(remaining) <= 1e-15:
            break
        if remaining > 0:
            room = [hi - w for w in head]
        else:
            room = [w - floor for w in head]
        # np.maximum(room, 0.0): -0.0 becomes 0.0, NaN stays
        room = [0.0 if r <= 0.0 else r for r in room]
        if not any(r > 0.0 for r in room):
            break
        weights = [0.0 if r <= 0.0 else w for w, r in zip(head, room)]
        total_w = _sum(weights)
        if total_w <= 0:  # plan is all-zero in the window: spread evenly
            weights = [1.0 if r > 0.0 else 0.0 for r in room]
            total_w = _sum(weights)
        power = remaining / tau
        capped = []
        for w, r in zip(weights, room):
            delta = power * w / total_w  # W for this slot
            # np.sign(delta) * np.minimum(|delta|, room): NaN propagates
            # and np.sign(±0.0) is +0.0
            size = abs(delta)
            if delta > 0.0:
                capped.append(r if r < size else size)
            elif delta < 0.0:
                capped.append(-r if r < size else -size)
            else:
                capped.append(0.0 if delta == 0.0 else delta)
        head = [w + c for w, c in zip(head, capped)]
        remaining -= _sum(capped) * tau
    window[:horizon] = head
    return horizon, remaining


def redistribute_deviation(
    pinit: np.ndarray,
    e_diff: float,
    *,
    charging: np.ndarray | None = None,
    initial_level: float | None = None,
    spec: BatterySpec | None = None,
    tau: float,
    floor: float = 0.0,
    ceiling: float | None = None,
) -> RedistributionResult:
    """Fold a deviation energy ``e_diff`` (J) back into the future plan.

    ``e_diff > 0`` means the system *underspent* (or was oversupplied):
    allocate the surplus to the near future, proportionally, up to the
    ``C_max`` horizon.  ``e_diff < 0`` means overspending/undersupply:
    shave the near future down to the ``C_min`` horizon.

    ``charging``, ``initial_level`` and ``spec`` enable the trajectory
    horizon; without them the whole provided window is used.  Per-slot
    powers are kept inside ``[floor, ceiling]``; what cannot be placed
    because of those limits is iteratively re-offered to the remaining
    slots of the horizon, and anything still left is reported as
    ``residual`` for the caller to carry forward.

    The array form of :func:`fold_deviation`; the input is not mutated.
    """
    window = np.asarray(pinit, dtype=float).tolist()
    if charging is not None:
        charging = np.asarray(charging, dtype=float).tolist()
    horizon, residual = fold_deviation(
        window,
        e_diff,
        charging=charging,
        initial_level=initial_level,
        spec=spec,
        tau=tau,
        floor=floor,
        ceiling=ceiling,
    )
    return RedistributionResult(
        np.array(window, dtype=float), horizon, float(e_diff) - residual, residual
    )
