"""G-matrix assembly: structure, energy balance, TEC/fan deltas."""

import numpy as np
import pytest

from repro import units


@pytest.fixture()
def cond(system2):
    return system2.cond


def test_matrix_shape_and_pattern(cond):
    g = cond.matrix(1, np.zeros(cond.tec.n_devices))
    n = cond.n_nodes
    assert g.shape == (n, n)
    # Diagonal present everywhere.
    assert np.all(g.diagonal() != 0.0)


def test_base_matrix_symmetric(cond):
    """Without TEC pumping the network is reciprocal."""
    g0 = cond.base_matrix()
    d = (g0 - g0.T)
    assert abs(d).max() < 1e-12


def test_tec_on_makes_matrix_asymmetric(cond):
    tec = np.ones(cond.tec.n_devices)
    g = cond.matrix(1, tec)
    asym = abs((g - g.T)).max()
    assert asym > 0  # the a*I pumping terms are one-sided


def test_off_diagonals_nonpositive(cond):
    g = cond.matrix(2, np.zeros(cond.tec.n_devices)).toarray()
    off = g - np.diag(np.diag(g))
    assert off.max() <= 1e-12


def test_fan_level_changes_only_sink_diagonal(cond):
    z = np.zeros(cond.tec.n_devices)
    g1 = cond.matrix(1, z).toarray()
    g2 = cond.matrix(3, z).toarray()
    diff = g2 - g1
    nd = cond.nodes
    # Off-diagonal unchanged.
    assert np.allclose(diff - np.diag(np.diag(diff)), 0.0)
    # Only sink nodes affected.
    d = np.diag(diff)
    assert np.allclose(d[: nd.n_components + nd.n_tiles], 0.0)
    assert np.all(d[nd.sink_slice] < 0)  # slower fan -> less conductance


def test_tec_delta_signs(cond):
    """Pumping adds +aI on the covered components' diagonals and -aI on
    the hot-side spreader's diagonal (see repro.cooling.tec)."""
    nd = cond.nodes
    tec = np.zeros(cond.tec.n_devices)
    tec[0] = 1.0
    delta = cond.diag_delta(1, tec) - cond.diag_delta(1, np.zeros_like(tec))
    placement = cond.tec.placements[0]
    for ci, w in zip(placement.component_idx, placement.weights):
        assert delta[int(ci)] == pytest.approx(w * cond.tec.alpha_i)
    sp = nd.spreader_index(placement.tile)
    assert delta[sp] == pytest.approx(-cond.tec.alpha_i)


def test_rhs_contains_ambient_boundary(cond):
    nd = cond.nodes
    p = cond.rhs(np.zeros(nd.n_components), 1, np.zeros(cond.tec.n_devices))
    g_conv = cond.fan.convection_conductance_w_per_k(1)
    expected = g_conv / nd.n_tiles * cond.package.ambient_k
    np.testing.assert_allclose(p[nd.sink_slice], expected)


def test_rhs_tec_joule_split(cond):
    nd = cond.nodes
    tec = np.zeros(cond.tec.n_devices)
    tec[0] = 1.0
    p0 = cond.rhs(np.zeros(nd.n_components), 1, np.zeros_like(tec))
    p1 = cond.rhs(np.zeros(nd.n_components), 1, tec)
    extra = p1 - p0
    # Half the Joule heat lands on the die side, half on the spreader.
    assert extra[nd.component_slice].sum() == pytest.approx(
        0.5 * cond.tec.joule_w
    )
    assert extra[nd.spreader_slice].sum() == pytest.approx(
        0.5 * cond.tec.joule_w
    )


def test_global_energy_balance_tecs_off(system2):
    """At steady state, heat into ambient equals heat generated."""
    nd = system2.nodes
    p_comp = np.full(nd.n_components, 0.1)
    t = system2.solver.solve(p_comp, 1, np.zeros(system2.n_tec_devices))
    g_conv = system2.fan.convection_conductance_w_per_k(1)
    out = (g_conv / nd.n_tiles) * (
        t[nd.sink_slice] - system2.package.ambient_k
    )
    assert out.sum() == pytest.approx(p_comp.sum(), rel=1e-9)


def test_global_energy_balance_tecs_on(system2):
    """With TECs on, ambient outflow = component power + TEC electrical
    power (Eq. 9 consistency of the linearized Peltier model)."""
    nd = system2.nodes
    p_comp = np.full(nd.n_components, 0.1)
    tec = np.ones(system2.n_tec_devices)
    t = system2.solver.solve(p_comp, 1, tec)
    g_conv = system2.fan.convection_conductance_w_per_k(1)
    out = float(
        ((g_conv / nd.n_tiles) * (t[nd.sink_slice] - system2.package.ambient_k)).sum()
    )
    p_tec = system2.tec_power_w(tec, t)
    assert out == pytest.approx(float(p_comp.sum()) + p_tec, rel=1e-6)


def test_conductance_diag_matches_matrix_diagonal(system2):
    tec = np.linspace(0.0, 1.0, system2.n_tec_devices)
    d = system2.cond.diag(3, tec)
    assert np.allclose(
        d, system2.cond.matrix(3, tec).toarray().diagonal(), atol=0
    )
