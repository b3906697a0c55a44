"""DVFS tables: Eq. (7)/(11) scaling laws."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.power.dvfs import DVFSTable, I7_DVFS, SCC_DVFS


def test_scc_table_shape():
    assert SCC_DVFS.n_levels == 6
    assert SCC_DVFS.frequency_ghz(SCC_DVFS.max_level) == pytest.approx(2.0)
    assert SCC_DVFS.voltage_v(SCC_DVFS.max_level) == pytest.approx(1.10)


def test_i7_table_tops_at_3g5():
    assert I7_DVFS.frequency_ghz(I7_DVFS.max_level) == pytest.approx(3.5)


def test_dynamic_scale_normalized_at_top():
    assert SCC_DVFS.dynamic_scale(SCC_DVFS.max_level) == pytest.approx(1.0)
    scales = SCC_DVFS.dynamic_scale(np.arange(SCC_DVFS.n_levels))
    assert np.all(np.diff(scales) > 0)


def test_dynamic_ratio_eq7():
    """Eq. (7): P(k)/P(k-1) = (F(k)/F(k-1)) (V(k)/V(k-1))^2."""
    r = SCC_DVFS.dynamic_ratio(5, 0)
    f = SCC_DVFS.freq_ghz
    v = SCC_DVFS.vdd_v
    assert r == pytest.approx((f[0] / f[5]) * (v[0] / v[5]) ** 2)
    # Cubic-flavoured saving: bottom level well below half power.
    assert r < 0.5


def test_frequency_ratio_eq11():
    assert SCC_DVFS.frequency_ratio(5, 0) == pytest.approx(1.0 / 2.0)
    assert SCC_DVFS.frequency_ratio(0, 5) == pytest.approx(2.0)


def test_ratios_vectorized():
    lv_from = np.array([5, 5, 0])
    lv_to = np.array([5, 0, 5])
    r = SCC_DVFS.dynamic_ratio(lv_from, lv_to)
    assert r.shape == (3,)
    assert r[0] == pytest.approx(1.0)
    assert r[1] * r[2] == pytest.approx(1.0)


def test_ratio_inverse_consistency():
    assert SCC_DVFS.dynamic_ratio(2, 4) * SCC_DVFS.dynamic_ratio(
        4, 2
    ) == pytest.approx(1.0)


def test_bad_tables_rejected():
    with pytest.raises(ConfigurationError):
        DVFSTable(freq_ghz=(1.0,), vdd_v=(0.8,))
    with pytest.raises(ConfigurationError):
        DVFSTable(freq_ghz=(1.0, 0.9), vdd_v=(0.8, 0.9))  # descending f
    with pytest.raises(ConfigurationError):
        DVFSTable(freq_ghz=(1.0, 1.2), vdd_v=(0.9, 0.8))  # descending V
    with pytest.raises(ConfigurationError):
        DVFSTable(freq_ghz=(1.0, 1.2), vdd_v=(0.8,))  # length mismatch

