"""Eq. (10)-(11) IPS tracking."""

import numpy as np
import pytest

from repro.exceptions import ControlError
from repro.perf.ips import IPSTracker
from repro.power.dvfs import SCC_DVFS


@pytest.fixture()
def tracker():
    return IPSTracker(dvfs=SCC_DVFS)


def test_predict_before_observe(tracker):
    assert not tracker.ready
    with pytest.raises(ControlError):
        tracker.predict(np.array([5, 5]))


def test_identity(tracker):
    ips = np.array([1.0e9, 2.0e9])
    lv = np.array([5, 5])
    tracker.observe(ips, lv)
    np.testing.assert_allclose(tracker.predict(lv), ips)


def test_eq11_linear_frequency_scaling(tracker):
    ips = np.array([2.0e9, 2.0e9])
    tracker.observe(ips, np.array([5, 5]))
    pred = tracker.predict(np.array([0, 5]))  # 1.0 GHz vs 2.0 GHz
    assert pred[0] == pytest.approx(1.0e9)
    assert pred[1] == pytest.approx(2.0e9)


def test_eq10_chip_sum(tracker):
    ips = np.array([1.0e9, 3.0e9])
    tracker.observe(ips, np.array([5, 5]))
    chip = tracker.predict_many(np.array([[5, 5], [0, 5]])).sum(axis=1)
    np.testing.assert_allclose(chip, [4.0e9, 3.5e9])


def test_zero_ips_stays_zero(tracker):
    """A spinning/idle core reports ~0 useful IPS; no frequency change
    conjures throughput (the performance-neutral lowering hinge)."""
    tracker.observe(np.array([0.0, 2.0e9]), np.array([5, 5]))
    pred = tracker.predict(np.array([0, 0]))
    assert pred[0] == 0.0
    assert pred[1] == pytest.approx(1.0e9)
