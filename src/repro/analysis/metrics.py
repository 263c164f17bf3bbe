"""Shared evaluation metrics.

Definitions (paper Section 2 and Section 5):

* **energy utilization** = energy used for computation / energy available
  over the period;
* **wasted energy** = supply arriving while the battery is full;
* **undersupplied energy** = energy needed but not available at the time.

Helpers here compute those from raw per-slot arrays so every harness
(energy-accounting runs, the event-driven simulator, ad-hoc notebooks)
reduces identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.battery import BatterySpec
from .energy import closed_loop

__all__ = [
    "EnergyBooks",
    "energy_books",
    "reduction_factor",
    "battery_excursion",
]


@dataclass(frozen=True)
class EnergyBooks:
    """Energy ledger of one run (all joules)."""

    supplied: float
    delivered: float
    wasted: float
    undersupplied: float

    @property
    def utilization(self) -> float:
        return self.delivered / self.supplied if self.supplied > 0 else 0.0


def energy_books(
    supply_power: np.ndarray,
    demand_power: np.ndarray,
    spec: BatterySpec,
    tau: float,
) -> EnergyBooks:
    """Run the exact battery bookkeeping over per-slot powers."""
    supply_power = np.asarray(supply_power, dtype=float)
    demand_power = np.asarray(demand_power, dtype=float)
    books = closed_loop(supply_power, demand_power, spec, tau)
    return EnergyBooks(
        supplied=float(supply_power.sum() * tau),
        delivered=books.drawn,
        wasted=books.wasted,
        undersupplied=books.undersupplied,
    )


def reduction_factor(baseline: float, improved: float) -> float:
    """How many times smaller ``improved`` is than ``baseline``.

    The paper's headline: "reduces the wasted energy by more than a factor
    of ten compared with the optimal time-out algorithm."  An improved
    value of zero yields ``inf``; a zero baseline yields 1 (no change
    possible).
    """
    if baseline < 0 or improved < 0:
        raise ValueError("energies must be non-negative")
    if baseline == 0:
        return 1.0
    if improved == 0:
        return float("inf")
    return baseline / improved


def battery_excursion(levels: np.ndarray, spec: BatterySpec) -> tuple[float, float]:
    """(headroom at peak, reserve at trough) of a level trace — how close
    the run came to each bound (0 at a bound)."""
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise ValueError("empty level trace")
    return (
        float(spec.c_max - levels.max()),
        float(levels.min() - spec.c_min),
    )
