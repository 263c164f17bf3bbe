"""Shared fixtures: the PAMA platform and paper scenarios.

Also the suite-wide determinism guard rails: every test starts from a
freshly seeded global RNG (stdlib and numpy), Hypothesis runs the
derandomized ``ci`` profile unless ``HYPOTHESIS_PROFILE`` names another,
and ``--update-golden`` rewrites the pinned outputs under
``tests/golden/`` (docs/VERIFY.md).
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest
from hypothesis import settings

from repro.models.battery import BatterySpec
from repro.models.performance import PerformanceModel
from repro.models.power import PowerModel
from repro.models.voltage import FixedVoltageVFMap, LinearVFMap
from repro.scenarios.paper import (
    pama_battery_spec,
    pama_frontier,
    pama_grid,
    pama_performance_model,
    pama_power_model,
    scenario1,
    scenario2,
)
from repro.util.schedule import Schedule
from repro.util.timegrid import TimeGrid


# ``ci`` (the default): the same examples on every run and machine, with no
# example database and no wall-clock deadline, so a run replays exactly.
# ``deep``: many more fresh examples, for hunting new failures; every test
# it runs is marked ``slow``.  A failure either finds becomes an @example.
settings.register_profile("ci", derandomize=True, database=None, deadline=None)
settings.register_profile("deep", max_examples=2000, deadline=None)
HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "ci")
settings.load_profile(HYPOTHESIS_PROFILE)


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    if HYPOTHESIS_PROFILE != "deep":
        return
    for item in items:
        if getattr(getattr(item, "obj", None), "is_hypothesis_test", False):
            item.add_marker(pytest.mark.slow)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ files from current output instead of comparing",
    )


@pytest.fixture(autouse=True)
def _seed_global_rngs():
    """Every test starts from the same global RNG state.

    Tests that need randomness should build their own ``random.Random(seed)``
    / ``numpy.random.default_rng(seed)``; this fixture is the safety net
    that keeps any stray global draw (in tests or library code under test)
    deterministic and order-independent.
    """
    random.seed(0x5EED)
    np.random.seed(0x5EED)
    yield


@pytest.fixture
def grid() -> TimeGrid:
    return pama_grid()


@pytest.fixture
def small_grid() -> TimeGrid:
    return TimeGrid(period=10.0, tau=2.5)


@pytest.fixture
def power_model() -> PowerModel:
    return pama_power_model(include_standby_floor=False)


@pytest.fixture
def perf_model() -> PerformanceModel:
    return pama_performance_model()


@pytest.fixture
def battery_spec() -> BatterySpec:
    return pama_battery_spec()


@pytest.fixture
def frontier():
    return pama_frontier()


@pytest.fixture
def sc1():
    return scenario1()


@pytest.fixture
def sc2():
    return scenario2()


@pytest.fixture
def linear_vf() -> LinearVFMap:
    # 0.6–1.8 V, 100 MHz per volt above a 0.3 V threshold
    return LinearVFMap(v_min=0.6, v_max=1.8, slope=100e6, v_threshold=0.3)


@pytest.fixture
def fixed_vf() -> FixedVoltageVFMap:
    return FixedVoltageVFMap(voltage=3.3, f_max=80e6)
