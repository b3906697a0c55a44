"""Open-system server workload: backlog, saturation, predictor."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.floorplan.chip import build_chip
from repro.power.dvfs import I7_DVFS
from repro.server.specjbb import DEFAULT_PERF_MODEL
from repro.server.trace_workload import (
    ServerIPSPredictor,
    ServerTraceRun,
    ServerWorkload,
)


@pytest.fixture(scope="module")
def chip():
    return build_chip(rows=2, cols=2)


def make_workload(demand):
    return ServerWorkload(
        name="t", demand=np.asarray(demand, dtype=float), peak_ips=6e9
    )


def test_validation(chip):
    with pytest.raises(WorkloadError):
        make_workload(np.ones(5))  # wrong ndim
    with pytest.raises(WorkloadError):
        make_workload(np.full((4, 10), 1.5))  # demand > 1
    with pytest.raises(WorkloadError):
        ServerWorkload(name="t", demand=np.zeros((2, 10)), peak_ips=0.0)
    # Core count must match the chip.
    wl = ServerWorkload(name="t", demand=np.zeros((2, 10)), peak_ips=6e9)
    with pytest.raises(WorkloadError):
        ServerTraceRun(wl, chip, 3.5)


def test_underloaded_serves_everything(chip):
    wl = make_workload(np.full((4, 10), 0.3))
    run = ServerTraceRun(wl, chip, 3.5)
    freqs = np.full(4, 3.5)
    total = 0.0
    while not run.finished:
        total += run.advance(1.0, freqs).sum()
    assert total == pytest.approx(wl.total_instructions, rel=1e-9)
    assert run.elapsed_s == pytest.approx(10.0)


def test_overload_builds_backlog_and_drains(chip):
    """Demand 1.0 at a frequency whose capacity is ~59%: backlog grows
    during the trace and drains afterwards, extending completion."""
    wl = make_workload(np.full((4, 10), 1.0))
    run = ServerTraceRun(wl, chip, 3.5)
    freqs = np.full(4, 1.6)
    for _ in range(10):
        run.advance(1.0, freqs)
    assert np.all(run.backlog > 0)
    assert not run.finished
    t_drain = run.time_to_completion_s(freqs)
    assert np.isfinite(t_drain) and t_drain > 0
    # Drain at full speed finishes everything.
    while not run.finished:
        run.advance(1.0, np.full(4, 3.5))
    assert run.progress == pytest.approx(1.0, abs=1e-6)


def test_activity_reflects_busy_fraction(chip):
    wl = make_workload(np.full((4, 10), 0.4))
    run = ServerTraceRun(wl, chip, 3.5)
    run.time_to_completion_s(np.full(4, 3.5))  # latches frequencies
    act = run.activity_vector()
    np.testing.assert_allclose(act, 0.4, atol=1e-6)
    # At a lower frequency the same demand is a larger busy fraction.
    run.time_to_completion_s(np.full(4, 1.6))
    act_lo = run.activity_vector()
    assert np.all(act_lo > act)


def test_time_to_completion_inf_while_arriving(chip):
    wl = make_workload(np.full((4, 10), 0.2))
    run = ServerTraceRun(wl, chip, 3.5)
    assert run.time_to_completion_s(np.full(4, 3.5)) == np.inf


def test_predictor_demand_capped():
    pred = ServerIPSPredictor(dvfs=I7_DVFS, peak_ips=6e9)
    # 30% utilization at max level: unsaturated -> demand = measured.
    pred.observe(np.full(4, 0.3 * 6e9), np.full(4, I7_DVFS.max_level))
    ips_max = pred.predict(np.full(4, I7_DVFS.max_level))
    ips_min = pred.predict(np.zeros(4, dtype=int))
    np.testing.assert_allclose(ips_max, 0.3 * 6e9)
    # Capacity at min level (~59%) still exceeds 30% demand.
    np.testing.assert_allclose(ips_min, 0.3 * 6e9)


def test_predictor_saturation_means_unbounded_demand():
    pred = ServerIPSPredictor(dvfs=I7_DVFS, peak_ips=6e9)
    cap_min = DEFAULT_PERF_MODEL.capacity_ips(1.6, 6e9)
    pred.observe(np.full(4, cap_min), np.zeros(4, dtype=int))
    hi = pred.predict(np.full(4, I7_DVFS.max_level))
    lo = pred.predict(np.zeros(4, dtype=int))
    assert np.all(hi > lo)  # raising gains predicted throughput


def test_predictor_batch_matches_scalar():
    pred = ServerIPSPredictor(dvfs=I7_DVFS, peak_ips=6e9)
    pred.observe(np.full(4, 0.5 * 6e9), np.full(4, I7_DVFS.max_level))
    levels = np.array([[0, 1, 2, 3], [5, 5, 5, 5]])
    batch = pred.predict_many(levels)
    assert np.array_equal(batch[0], pred.predict(levels[0]))
    assert np.array_equal(batch[1], pred.predict(levels[1]))


def test_predictor_before_observe():
    pred = ServerIPSPredictor(dvfs=I7_DVFS, peak_ips=6e9)
    assert not pred.ready
    with pytest.raises(WorkloadError):
        pred.predict(np.zeros(4, dtype=int))
