"""Eq. (7) relative dynamic-power tracking."""

import numpy as np
import pytest

from repro.exceptions import ControlError
from repro.power.component_power import core_dvfs_domain_mask
from repro.power.dvfs import SCC_DVFS
from repro.power.dynamic import DynamicPowerTracker


@pytest.fixture()
def tracker(chip2):
    return DynamicPowerTracker(
        dvfs=SCC_DVFS,
        tile_of=chip2.tile_of(),
        core_domain=core_dvfs_domain_mask(chip2),
    )


def test_predict_before_observe_raises(tracker):
    with pytest.raises(ControlError):
        tracker.predict(np.array([5, 5]))


def test_identity_prediction(tracker, chip2):
    p = np.random.default_rng(0).random(chip2.n_components)
    lv = np.full(chip2.n_tiles, 5)
    tracker.observe(p, lv)
    np.testing.assert_allclose(tracker.predict(lv), p)


def test_eq7_scaling(tracker, chip2):
    p = np.ones(chip2.n_components)
    tracker.observe(p, np.full(chip2.n_tiles, 5))
    pred = tracker.predict(np.array([5, 0]))
    mask = core_dvfs_domain_mask(chip2)
    tile_of = chip2.tile_of()
    ratio = SCC_DVFS.dynamic_ratio(5, 0)
    # Core-domain components of tile 1 scale by Eq. (7)...
    scaled = mask & (tile_of == 1)
    np.testing.assert_allclose(pred[scaled], ratio)
    # ...mesh-domain components and tile 0 stay put.
    np.testing.assert_allclose(pred[~scaled], 1.0)


def test_observation_is_copied(tracker, chip2):
    p = np.ones(chip2.n_components)
    lv = np.full(chip2.n_tiles, 5)
    tracker.observe(p, lv)
    p[:] = 99.0  # mutate the caller's array
    np.testing.assert_allclose(tracker.predict(lv), 1.0)
