"""EnergyProblem: Eq. (12)-(14) semantics."""

import numpy as np
import pytest

from repro.core.problem import EnergyProblem
from repro.exceptions import ConfigurationError


def test_epi_eq13():
    assert EnergyProblem.epi(100.0, 20e9) == pytest.approx(5e-9)


def test_epi_zero_ips_is_infinite():
    assert EnergyProblem.epi(100.0, 0.0) == np.inf


def test_epi_negative_power_rejected():
    with pytest.raises(ConfigurationError):
        EnergyProblem.epi(-1.0, 1e9)


def test_constraint_eq14():
    p = EnergyProblem(t_threshold_c=90.0)
    assert p.satisfied(90.0)
    assert p.satisfied(89.9)
    assert not p.satisfied(90.1)


def test_violation_margin_default_half_degree():
    p = EnergyProblem(t_threshold_c=90.0)
    assert not p.violated(90.4)  # inside the counting margin
    assert p.violated(90.6)


def test_headroom():
    p = EnergyProblem(t_threshold_c=90.0)
    assert p.headroom_c(85.0) == pytest.approx(5.0)
    assert p.headroom_c(95.0) == pytest.approx(-5.0)


def test_validation():
    with pytest.raises(ConfigurationError):
        EnergyProblem(t_threshold_c=-5.0)
    with pytest.raises(ConfigurationError):
        EnergyProblem(t_threshold_c=200.0)
    with pytest.raises(ConfigurationError):
        EnergyProblem(t_threshold_c=90.0, violation_margin_c=-1.0)


def test_epi_many_matches_scalar_epi():
    p = np.array([10.0, 0.0, 3.5, 7.0, 2.0, np.nan])
    ips = np.array([2e9, 1e9, 0.0, -1.0, np.nan, 1e9])
    got = EnergyProblem.epi_many(p, ips)
    for j in range(len(p)):
        want = EnergyProblem.epi(p[j], ips[j])
        assert got[j] == want or (np.isnan(got[j]) and np.isnan(want))
    with pytest.raises(ConfigurationError):
        EnergyProblem.epi_many(np.array([1.0, -0.5]), np.array([1e9, 1e9]))
