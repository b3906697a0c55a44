"""Transient integrators: Eq. (5) semantics and exact cross-check."""

import numpy as np
import pytest

from repro.exceptions import ThermalModelError
from repro.thermal.transient import ExactTransient, PaperTransient


def zeros_tec(system):
    return np.zeros(system.n_tec_devices)


def test_betas_in_unit_interval(system2):
    beta = system2.transient.betas(2e-3, 1, zeros_tec(system2))
    assert np.all(beta > 0) and np.all(beta < 1)


def test_die_faster_than_sink(system2):
    """Sec. III-D's premise: die nodes react in ms, the sink in tens of
    seconds — i.e. die beta << sink beta at the 2 ms period."""
    nd = system2.nodes
    beta = system2.transient.betas(2e-3, 1, zeros_tec(system2))
    assert beta[nd.component_slice].mean() < 0.9
    assert np.all(beta[nd.sink_slice] > 0.999)


def test_step_interpolates_toward_steady(system2):
    nd = system2.nodes
    t0 = system2.uniform_initial_temps_k()
    p = np.full(nd.n_components, 0.2)
    ts = system2.solver.solve(p, 1, zeros_tec(system2))
    t1 = system2.transient.step(t0, ts, 2e-3, 1, zeros_tec(system2))
    # Strictly between the start and the steady state (elementwise).
    assert np.all(t1 >= np.minimum(t0, ts) - 1e-12)
    assert np.all(t1 <= np.maximum(t0, ts) + 1e-12)


def test_long_step_reaches_steady(system2):
    nd = system2.nodes
    t0 = system2.uniform_initial_temps_k()
    p = np.full(nd.n_components, 0.2)
    ts = system2.solver.solve(p, 1, zeros_tec(system2))
    t = t0
    for _ in range(20):
        t = system2.transient.step(t, ts, 30.0, 1, zeros_tec(system2))
    np.testing.assert_allclose(t, ts, atol=0.05)


def test_steady_state_is_fixed_point(system2):
    p = np.full(system2.nodes.n_components, 0.2)
    ts = system2.solver.solve(p, 1, zeros_tec(system2))
    t1 = system2.transient.step(ts, ts, 2e-3, 1, zeros_tec(system2))
    np.testing.assert_allclose(t1, ts, rtol=1e-12)


def test_nonpositive_dt_rejected(system2):
    p = np.full(system2.nodes.n_components, 0.2)
    ts = system2.solver.solve(p, 1, zeros_tec(system2))
    with pytest.raises(ThermalModelError):
        system2.transient.step(ts, ts, 0.0, 1, zeros_tec(system2))


def test_exact_matches_paper_at_steady_fixed_point(system2):
    exact = ExactTransient(system2.cond)
    p = np.full(system2.nodes.n_components, 0.2)
    ts = system2.solver.solve(p, 1, zeros_tec(system2))
    t1 = exact.step(ts, ts, 1e-2, 1, zeros_tec(system2))
    np.testing.assert_allclose(t1, ts, atol=1e-9)


def test_exact_time_constants_span_paper_scales(system2):
    """Sub-ms die modes through >5 s sink modes (Sec. III-D)."""
    exact = ExactTransient(system2.cond)
    taus = exact.time_constants_s(1, zeros_tec(system2))
    assert taus[0] < 5e-3
    assert taus[-1] > 5.0
    assert np.all(np.diff(taus) >= -1e-12)


def test_exact_all_modes_decay(system2):
    exact = ExactTransient(system2.cond)
    taus = exact.time_constants_s(3, np.ones(system2.n_tec_devices))
    assert np.all(taus > 0)


def test_eq4_interpolation_matches_eq5_discretization(system2):
    """Eq. (4) at t = k*dt equals k applications of Eq. (5)."""
    p = np.full(system2.nodes.n_components, 0.2)
    tec = zeros_tec(system2)
    ts = system2.solver.solve(p, 1, tec)
    t0 = system2.uniform_initial_temps_k() + 3.0
    dt = 2e-3
    stepped = t0
    for _ in range(5):
        stepped = system2.transient.step(stepped, ts, dt, 1, tec)
    curve = system2.transient.interpolate(
        t0, ts, np.array([5 * dt]), 1, tec
    )
    np.testing.assert_allclose(curve[0], stepped, rtol=1e-10)


def test_eq4_interpolation_endpoints(system2):
    p = np.full(system2.nodes.n_components, 0.2)
    tec = zeros_tec(system2)
    ts = system2.solver.solve(p, 1, tec)
    t0 = system2.uniform_initial_temps_k()
    curve = system2.transient.interpolate(
        t0, ts, np.array([0.0, 1e4]), 1, tec
    )
    np.testing.assert_allclose(curve[0], t0)
    np.testing.assert_allclose(curve[1], ts, atol=1e-6)


def test_eq4_rejects_negative_times(system2):
    p = np.full(system2.nodes.n_components, 0.2)
    ts = system2.solver.solve(p, 1, zeros_tec(system2))
    with pytest.raises(ThermalModelError):
        system2.transient.interpolate(
            ts, ts, np.array([-1.0]), 1, zeros_tec(system2)
        )


def test_cached_betas_bit_identical_and_counted(system2):
    fresh = PaperTransient(system2.cond)
    tec = np.zeros(system2.n_tec_devices)
    first = fresh.betas(2e-3, 2, tec)
    again = fresh.betas(2e-3, 2, tec)
    assert again is first  # served from cache
    reference = np.exp(
        -2e-3 * system2.cond.diag(2, tec) / system2.cond.nodes.capacities
    )
    assert np.array_equal(first, reference)
    assert fresh._beta_cache.n_hits >= 1


def test_exact_transient_caches_dense_propagator(system2):
    exact = ExactTransient(system2.cond)
    tec = np.zeros(system2.n_tec_devices)
    n = system2.cond.n_nodes
    t0 = np.full(n, 330.0)
    ts = np.full(n, 350.0)
    a = exact.step(t0, ts, 2e-3, 2, tec)
    assert exact._phi_cache.n_misses == 1
    b = exact.step(t0, ts, 2e-3, 2, tec)
    assert exact._phi_cache.n_hits == 1
    assert np.array_equal(a, b)
    # time_constants_s shares the dense-G cache instead of re-densifying
    exact.time_constants_s(2, tec)
    assert exact._dense_cache.n_hits >= 1
