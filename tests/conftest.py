"""Shared fixtures: small platforms so the suite stays fast."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.floorplan.chip import build_chip


@pytest.fixture(scope="session")
def chip2():
    """A 1 x 2 tile chip (two cores, 36 components)."""
    return build_chip(rows=1, cols=2)


@pytest.fixture(scope="session")
def chip16():
    """The paper's 4 x 4 target chip."""
    return build_chip(rows=4, cols=4)


@pytest.fixture(scope="session")
def system2():
    """Small system for controller/thermal tests."""
    return build_system(rows=1, cols=2)


@pytest.fixture(scope="session")
def system4():
    """The 2 x 2 server-scale system (SCC DVFS, default package)."""
    return build_system(rows=2, cols=2)


@pytest.fixture(scope="session")
def system16():
    """The full 16-core platform (expensive; reuse across tests)."""
    return build_system()


@pytest.fixture()
def base_state2(system2):
    """Base actuator state for the small system."""
    return ActuatorState.initial(
        system2.n_tec_devices,
        system2.n_cores,
        system2.dvfs.max_level,
        fan_level=1,
    )


def full_activity(system) -> np.ndarray:
    """Activity vector with every core busy."""
    return np.ones(system.n_cores)


class FakePoolClock:
    """Stand-in for the worker pool's scheduler clock.

    It reads the real monotonic clock plus an offset that a test jumps
    on cue, so a deadline test passes the deadline at once instead of
    sleeping through it (and falls back to the real deadline if the cue
    never comes).
    """

    def __init__(self) -> None:
        self.offset = 0.0

    def __call__(self) -> float:
        return time.monotonic() + self.offset

    def advance_after(self, n_results: int, seconds: float):
        """An ``on_result`` hook advancing the clock by ``seconds`` once
        ``n_results`` tasks have succeeded (only a hung task is left)."""
        seen = []

        def hook(index, value) -> None:
            seen.append(index)
            if len(seen) == n_results:
                self.offset += seconds

        return hook


@pytest.fixture()
def pool_clock(monkeypatch):
    """Install a :class:`FakePoolClock` as the worker pool's clock."""
    import repro.parallel

    clock = FakePoolClock()
    monkeypatch.setattr(repro.parallel, "_clock", clock)
    return clock


@pytest.fixture()
def per_node_fleet(monkeypatch):
    """Call to make later fleet runs the engine-per-node reference loop:
    every node its own group, never merged, stepped by the sequential
    per-node stepper."""
    import repro.fleet.sim
    from repro.fleet.groups import PerNodeGroups
    from repro.fleet.stepper import BatchedStepper, SequentialStepper

    def use() -> None:
        monkeypatch.setattr(repro.fleet.sim, "NodeGroups", PerNodeGroups)
        monkeypatch.setattr(
            BatchedStepper,
            "advance",
            lambda self, *a, **k: SequentialStepper(self.system).advance(
                *a, **k
            ),
        )

    return use
