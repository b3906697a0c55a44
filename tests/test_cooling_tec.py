"""TEC array: placement, footprint weights, Peltier accounting."""

import dataclasses

import numpy as np
import pytest

from repro.cooling.datasheets import TEC_GRID_PER_TILE, TECDeviceSpec
from repro.cooling.tec import build_tec_array
from repro.exceptions import ConfigurationError
from repro.floorplan.chip import build_chip


@pytest.fixture(scope="module")
def chip():
    return build_chip(rows=1, cols=2)


@pytest.fixture(scope="module")
def tec(chip):
    return build_tec_array(chip)


def test_paper_grid_and_count(tec, chip):
    """Sec. IV-C: a 3 x 3 array of 0.5 mm devices per core tile."""
    assert TEC_GRID_PER_TILE == (3, 3)
    assert tec.devices_per_tile == 9
    assert tec.n_devices == 9 * chip.n_tiles
    assert tec.device.size_mm == pytest.approx(0.5)


def test_footprint_weights_sum_to_one(tec):
    for p in tec.placements:
        assert p.weights.sum() == pytest.approx(1.0)
        assert np.all(p.weights > 0)


def test_devices_stay_on_their_tile(tec, chip):
    for p in tec.placements:
        for ci in p.component_idx:
            assert chip.components[int(ci)].tile == p.tile


def test_tile_devices_partition(tec, chip):
    all_devices = np.concatenate(
        [tec.tile_devices(t) for t in range(chip.n_tiles)]
    )
    assert sorted(all_devices.tolist()) == list(range(tec.n_devices))


def test_devices_over_component_inverse_mapping(tec):
    for p in tec.placements:
        for ci in p.component_idx:
            assert p.device in tec.devices_over_component(int(ci))


def test_paper_drive_current_and_delay(tec):
    """Sec. III-B: 6 A drive (8 A deemed dangerous); Sec. IV-C: 20 us."""
    assert tec.device.current_a == pytest.approx(6.0)
    assert tec.device.engage_delay_s == pytest.approx(20e-6)


def test_electrical_power_eq9(tec):
    """Eq. (9): P = r I^2 + a I (Th - Tc)."""
    n = tec.n_devices
    state = np.zeros(n)
    state[0] = 1.0
    t_cold = np.full(n, 360.0)
    t_hot = np.full(n, 350.0)
    p = tec.electrical_power_w(state, t_cold, t_hot)
    expected = tec.joule_w + tec.alpha_i * (350.0 - 360.0)
    assert p[0] == pytest.approx(expected)
    assert np.all(p[1:] == 0.0)


def test_fractional_activation_scales_power(tec):
    n = tec.n_devices
    t = np.full(n, 350.0)
    full = tec.electrical_power_w(np.ones(n), t, t)
    half = tec.electrical_power_w(np.full(n, 0.5), t, t)
    np.testing.assert_allclose(half, 0.5 * full)


def test_activation_bounds_checked(tec):
    n = tec.n_devices
    t = np.full(n, 350.0)
    with pytest.raises(ConfigurationError):
        tec.electrical_power_w(np.full(n, 1.5), t, t)
    with pytest.raises(ConfigurationError):
        tec.electrical_power_w(np.full(n, -0.1), t, t)
    with pytest.raises(ConfigurationError):
        tec.electrical_power_w(np.ones(n - 1), t[:-1], t[:-1])


def test_cold_side_temperature_weighted(tec, chip):
    t_comp = np.arange(chip.n_components, dtype=float) + 300.0
    cold = tec.cold_side_temperature_k(t_comp)
    p = tec.placements[0]
    expected = float(np.dot(p.weights, t_comp[p.component_idx]))
    assert cold[0] == pytest.approx(expected)


def _cold_side_loop(arr, t_comp):
    """Plain per-device sums over the COO entries, in entry order."""
    out = [0.0] * arr.n_devices
    for d, c, w in zip(
        arr.coo_device.tolist(), arr.coo_component.tolist(), arr.coo_weight.tolist()
    ):
        out[d] += w * float(t_comp[c])
    return np.array(out)


def _shuffled(arr, seed):
    perm = np.random.default_rng(seed).permutation(arr.coo_device.size)
    return dataclasses.replace(
        arr,
        coo_device=arr.coo_device[perm],
        coo_component=arr.coo_component[perm],
        coo_weight=arr.coo_weight[perm],
    )


@pytest.mark.parametrize("shuffle", [None, 0, 1])
def test_cold_side_matches_a_per_device_loop_bit_for_bit(tec, chip, shuffle):
    """Scalar and batched cold sides equal a plain loop in COO entry
    order, also when the COO arrays are not grouped by device."""
    arr = tec if shuffle is None else _shuffled(tec, shuffle)
    if shuffle is not None:
        assert np.any(np.diff(arr.coo_device) < 0)
    rows = 290.0 + 80.0 * np.random.default_rng(7).random((5, chip.n_components))
    batched = arr.cold_side_temperature_many(rows)
    assert batched.shape == (5, arr.n_devices)
    for b, t_comp in enumerate(rows):
        ref = _cold_side_loop(arr, t_comp)
        assert arr.cold_side_temperature_k(t_comp).tobytes() == ref.tobytes()
        assert batched[b].tobytes() == ref.tobytes()


def test_electrical_power_many_with_an_activation_matrix_matches_per_row(tec, chip):
    """A ``(rows, n_devices)`` activation matrix: each row bit-identical
    to the per-row Eq. (9) call on its own loop-computed cold side."""
    rng = np.random.default_rng(3)
    states = rng.random((4, tec.n_devices))
    states[0] = 0.0
    states[1] = 1.0
    t_comp = 300.0 + 60.0 * rng.random((4, chip.n_components))
    t_hot = 320.0 + 10.0 * rng.random((4, tec.n_devices))
    t_cold = tec.cold_side_temperature_many(t_comp)
    batched = tec.electrical_power_many(states, t_cold, t_hot)
    for b in range(4):
        ref = tec.electrical_power_w(
            states[b], _cold_side_loop(tec, t_comp[b]), t_hot[b]
        )
        assert batched[b].tobytes() == ref.tobytes()


def test_grid_must_fit_tile(chip):
    big = TECDeviceSpec(size_mm=2.0)
    with pytest.raises(ConfigurationError):
        build_tec_array(chip, device=big, grid=(3, 3))


def test_invalid_grid_rejected(chip):
    with pytest.raises(ConfigurationError):
        build_tec_array(chip, grid=(0, 3))


def test_custom_grid(chip):
    arr = build_tec_array(chip, grid=(2, 2))
    assert arr.devices_per_tile == 4
    assert arr.n_devices == 4 * chip.n_tiles


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 1.5])
def test_electrical_power_rejects_out_of_range_activation(tec, bad):
    state = np.zeros(tec.n_devices)
    state[1] = bad
    t = np.full(tec.n_devices, 330.0)
    with pytest.raises(ConfigurationError):
        tec.electrical_power_w(state, t, t)
    with pytest.raises(ConfigurationError):
        tec.electrical_power_many(state, t[None, :], t[None, :])


def test_electrical_power_many_rejects_a_bad_activation_row(tec):
    """A per-row activation matrix is range-checked on every row."""
    states = np.zeros((3, tec.n_devices))
    states[0, :] = 1.0
    states[2, 4] = 1.5
    t = np.full((3, tec.n_devices), 330.0)
    with pytest.raises(ConfigurationError):
        tec.electrical_power_many(states, t, t)
    with pytest.raises(ConfigurationError):  # one device short per row
        tec.electrical_power_many(states[:, 1:], t[:, 1:], t[:, 1:])
