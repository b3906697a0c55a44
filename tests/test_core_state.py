"""ActuatorState: immutability and candidate construction."""

import numpy as np
import pytest

from repro.core.state import ActuatorState
from repro.exceptions import ConfigurationError


@pytest.fixture()
def state():
    return ActuatorState.initial(
        n_devices=6, n_cores=2, max_dvfs_level=5, fan_level=1
    )


def test_initial_is_base_scenario(state):
    assert state.tec_on_count == 0
    assert np.all(state.dvfs == 5)
    assert state.fan_level == 1


def test_arrays_frozen(state):
    with pytest.raises(ValueError):
        state.tec[0] = 1.0
    with pytest.raises(ValueError):
        state.dvfs[0] = 0


def test_with_tec_copies(state):
    s2 = state.with_tec(3, 1.0)
    assert s2.tec[3] == 1.0
    assert state.tec[3] == 0.0
    assert s2.tec_on_count == 1


def test_with_dvfs_copies(state):
    s2 = state.with_dvfs(1, 2)
    assert s2.dvfs[1] == 2
    assert state.dvfs[1] == 5


def test_with_fan(state):
    assert state.with_fan(4).fan_level == 4


def test_with_vectors(state):
    s2 = state.with_tec_vector(np.ones(6)).with_dvfs_vector(np.zeros(2))
    assert s2.tec_on_count == 6
    assert np.all(s2.dvfs == 0)


def test_validation():
    with pytest.raises(ConfigurationError):
        ActuatorState(tec=np.array([1.5]), dvfs=np.array([0]), fan_level=1)
    with pytest.raises(ConfigurationError):
        ActuatorState(tec=np.array([0.0]), dvfs=np.array([0]), fan_level=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tec_rejected(bad):
    """NaN compares False against both bounds; it must still fail."""
    with pytest.raises(ConfigurationError):
        ActuatorState(tec=np.array([bad, 0.5]), dvfs=np.array([0]), fan_level=1)
    ok = ActuatorState.initial(n_devices=2, n_cores=1, max_dvfs_level=5)
    with pytest.raises(ConfigurationError):
        ok.with_tec(0, bad)
    with pytest.raises(ConfigurationError):
        ok.with_tec_vector(np.array([0.0, bad]))


def test_derived_copies_share_validated_tec(state):
    """DVFS and fan moves reuse the parent's frozen TEC vector."""
    levels = np.zeros(2, dtype=int)
    derived = (
        state.with_dvfs(0, 1),
        state.with_dvfs_vector(levels),
        state.with_fan(3),
    )
    for s2 in derived:
        assert s2.tec is state.tec
        assert not s2.dvfs.flags.writeable
    levels[0] = 4  # the caller's array is copied, not adopted
    assert derived[1].dvfs[0] == 0
    assert state.with_tec(0, 1.0).tec is not state.tec
    with pytest.raises(ConfigurationError):
        state.with_fan(0)


def test_tec_on_mask_fractional():
    s = ActuatorState(
        tec=np.array([0.0, 0.4, 0.6, 1.0]),
        dvfs=np.array([5]),
        fan_level=1,
    )
    np.testing.assert_array_equal(
        s.tec_on_mask(), [False, False, True, True]
    )
    assert s.tec_on_count == 2
