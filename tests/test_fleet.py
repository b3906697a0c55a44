"""Fleet layer units: traces, routers, policy, metrics, config."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.fleet import (
    FleetConfig,
    clear_trace_cache,
    diurnal_utilization,
    fleet_demand,
    latency_quantile,
    make_router,
    trace_cache_size,
)
from repro.fleet.router import RouterView
from repro.fleet.sim import LATENCY_EDGES_S
from repro.obs import telemetry_session


# ----------------------------------------------------------------------
# Satellite: trace cache
# ----------------------------------------------------------------------
def test_fleet_demand_cache_hits_counted():
    clear_trace_cache()
    with telemetry_session() as tel:
        a = fleet_demand("diurnal", 600, seed=7)
        assert tel.metrics.counter("server.trace_cache_hits").value == 0
        b = fleet_demand("diurnal", 600, seed=7)
        assert tel.metrics.counter("server.trace_cache_hits").value == 1
    assert a is b  # memoized object, not a recomputation
    assert not a.flags.writeable
    assert trace_cache_size() >= 1


def test_fleet_demand_key_includes_parameters():
    clear_trace_cache()
    a = fleet_demand("diurnal", 600, seed=7)
    b = fleet_demand("diurnal", 600, seed=8)
    c = fleet_demand("diurnal", 600, seed=7, scale=2.0)
    assert a is not b and a is not c
    assert not np.array_equal(a, b)


def test_fleet_demand_rejects_unknown_kind():
    with pytest.raises(WorkloadError):
        fleet_demand("nope", 600)


def test_diurnal_is_blockwise_constant_and_bounded():
    u = diurnal_utilization(3600, seed=3, block_s=60)
    assert u.shape == (3600,)
    assert np.all((u >= 0.0) & (u <= 1.0))
    blocks = u.reshape(-1, 60)
    assert np.all(blocks == blocks[:, :1])  # constant within each block
    assert len(np.unique(blocks[:, 0])) > 10  # but varies across blocks


def test_diurnal_scales_with_mean():
    lo = diurnal_utilization(86400, seed=3, mean_utilization=0.2)
    hi = diurnal_utilization(86400, seed=3, mean_utilization=0.6)
    assert lo.mean() < hi.mean()


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
def _view(n, backlog=None, peak=None, cap=None, thr=90.0):
    return RouterView(
        backlog_inst=np.zeros(n) if backlog is None else np.asarray(backlog),
        peak_temp_c=np.full(n, 60.0) if peak is None else np.asarray(peak),
        capacity_ips=np.full(n, 1e9) if cap is None else np.asarray(cap),
        t_threshold_c=thr,
    )


@pytest.mark.parametrize(
    "policy", ["identity", "round-robin", "least-loaded", "thermal"]
)
def test_routers_conserve_work(policy):
    router = make_router(policy, 7)
    shares = router.split(1e9, _view(7))
    assert shares.shape == (7,)
    assert np.all(shares >= 0.0)
    assert shares.sum() == pytest.approx(1e9, rel=1e-12)


def test_round_robin_rotates_remainder_deterministically():
    r1 = make_router("round-robin", 3)
    r2 = make_router("round-robin", 3)
    seq1 = [r1.split(300.0, _view(3)).copy() for _ in range(6)]
    seq2 = [r2.split(300.0, _view(3)).copy() for _ in range(6)]
    # Deterministic across instances...
    for a, b in zip(seq1, seq2):
        assert np.array_equal(a, b)
    # ...and fair over a full rotation.
    total = np.sum(seq1, axis=0)
    assert np.allclose(total, total[0])


def test_least_loaded_starves_backlogged_node():
    router = make_router("least-loaded", 3, dt_s=1.0)
    view = _view(3, backlog=[2e9, 0.0, 0.0], cap=[1e9, 1e9, 1e9])
    shares = router.split(6e8, view)
    assert shares[0] == 0.0
    assert shares[1] > 0 and shares[2] > 0


def test_thermal_router_prefers_cool_nodes():
    router = make_router("thermal", 2, dt_s=1.0)
    view = _view(2, peak=[89.0, 50.0], thr=90.0)
    shares = router.split(1e6, view)
    assert shares[1] > shares[0] > 0.0


# ----------------------------------------------------------------------
# Latency histogram
# ----------------------------------------------------------------------
def test_latency_quantile_edges():
    counts = np.zeros(len(LATENCY_EDGES_S), dtype=np.int64)
    assert latency_quantile(counts, 0.99) == 0.0
    counts[0] = 99
    counts[10] = 1
    assert latency_quantile(counts, 0.5) == 0.0
    assert latency_quantile(counts, 0.999) == float(LATENCY_EDGES_S[10])


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_fleet_config_validation():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        FleetConfig(n_nodes=0)
    with pytest.raises(ConfigurationError):
        FleetConfig(duration_s=0)
    for scale in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ConfigurationError, match="scale"):
            FleetConfig(scale=scale)
    assert FleetConfig(scale=0.0).scale == 0.0
