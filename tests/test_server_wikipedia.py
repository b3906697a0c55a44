"""Synthetic Wikipedia trace: protocol, statistics, determinism."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.server.wikipedia import (
    CUT_MINUTES,
    PIECES,
    TARGET_MEAN_UTILIZATION,
    UTILIZATION_SCALE,
    generate_trace,
)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(seed=2009, days=1)


def test_duration(trace):
    assert trace.duration_s == 24 * 3600


def test_experiment_window_mean_matches_paper(trace):
    """Sec. V-E: 'The average CPU utilization is 48.6%' (after the 1.5x
    scaling), measured over the 40-minute experiment window."""
    window = trace.utilization[: CUT_MINUTES * 60]
    assert window.mean() == pytest.approx(TARGET_MEAN_UTILIZATION, abs=0.02)


def test_bounds(trace):
    assert trace.utilization.min() >= 0.0
    assert trace.utilization.max() <= 1.0


def test_determinism():
    a = generate_trace(seed=1, days=1)
    b = generate_trace(seed=1, days=1)
    np.testing.assert_array_equal(a.utilization, b.utilization)
    c = generate_trace(seed=2, days=1)
    assert not np.array_equal(a.utilization, c.utilization)


def test_pieces_protocol(trace):
    pieces = trace.experiment_pieces()
    assert len(pieces) == PIECES
    assert all(len(p) == 600 for p in pieces)
    joined = np.concatenate(pieces)
    np.testing.assert_array_equal(joined, trace.utilization[: 2400])


def test_piece_out_of_range(trace):
    with pytest.raises(WorkloadError):
        trace.piece(10_000)


def test_diurnal_variation_present():
    t = generate_trace(seed=3, days=2)
    hourly = t.utilization[: 86400].reshape(24, 3600).mean(axis=1)
    assert hourly.max() / hourly.min() > 1.3


def test_burstiness_minute_scale(trace):
    """Minute-scale variation exists (the fast AR component)."""
    window = trace.utilization[:600]
    minute_means = window.reshape(10, 60).mean(axis=1)
    assert minute_means.std() > 0.005


def test_scale_factor_documented():
    assert UTILIZATION_SCALE == pytest.approx(1.5)


def test_invalid_days():
    with pytest.raises(WorkloadError):
        generate_trace(days=0)


def reference_utilization(seed, days):
    """The synthesizer with its AR(1) terms as plain sequential loops."""
    n = days * 24 * 3600
    t = np.arange(n, dtype=float)
    rng = np.random.default_rng(seed)
    day = 86400.0
    diurnal = 0.33 * np.sin(2 * np.pi * (t / day - 0.35))
    weekly = 0.10 * np.cos(2 * np.pi * t / (7 * day))

    def ar1(sigma, rho):
        innov = rng.normal(0.0, sigma * np.sqrt(1 - rho**2), n)
        out = np.empty(n)
        acc = 0.0
        for i in range(n):
            acc = rho * acc + innov[i]
            out[i] = acc
        return out

    shape = 1.0 + diurnal + weekly + ar1(0.10, 0.999) + ar1(0.10, 0.985)
    shape = np.clip(shape, 0.05, None)
    window = shape[: CUT_MINUTES * 60]
    unscaled = (
        shape * (TARGET_MEAN_UTILIZATION / UTILIZATION_SCALE) / window.mean()
    )
    return np.clip(unscaled * UTILIZATION_SCALE, 0.0, 1.0)


@pytest.mark.parametrize(
    "seed, days", [(2009, 1), (7, 1), (1, 1), (42, 1), (2009, 7)]
)
def test_trace_equals_sequential_recursion_bitwise(seed, days):
    """The compiled AR(1) solve is the sequential recursion bit for bit;
    a solver that fuses its multiply-add into an FMA fails here."""
    got = generate_trace(seed=seed, days=days).utilization
    want = reference_utilization(seed, days)
    assert np.array_equal(got, want)
