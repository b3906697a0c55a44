"""Property-based tests (hypothesis) on core invariants.

These cover the algebraic backbone the controllers rely on:

* the steady-state field responds monotonically to power, fan level and
  TEC activation;
* Eq. (5) interpolation stays within the [T_prev, T_steady] envelope;
* Eq. (7)/(11) ratio algebra composes;
* the energy-balance identity holds for arbitrary inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.problem import EnergyProblem
from repro.core.system import build_system
from repro.power.dvfs import SCC_DVFS
from repro.power.leakage import LinearLeakage

SYSTEM = build_system(rows=1, cols=2)
N_COMP = SYSTEM.nodes.n_components
N_DEV = SYSTEM.n_tec_devices

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

power_vectors = arrays(
    float,
    N_COMP,
    elements=st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)
tec_vectors = arrays(
    float,
    N_DEV,
    elements=st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)


@slow
@given(p=power_vectors)
def test_steady_state_above_ambient(p):
    t = SYSTEM.solver.solve(p, 1, np.zeros(N_DEV))
    assert np.all(t >= SYSTEM.package.ambient_k - 1e-9)


@slow
@given(p=power_vectors, extra=power_vectors)
def test_steady_state_monotone_in_power(p, extra):
    """Adding power anywhere cannot cool anything (TECs off: G is an
    M-matrix, its inverse is nonnegative)."""
    t0 = SYSTEM.solver.solve(p, 1, np.zeros(N_DEV))
    t1 = SYSTEM.solver.solve(p + extra, 1, np.zeros(N_DEV))
    assert np.all(t1 >= t0 - 1e-9)


@slow
@given(p=power_vectors, lv=st.integers(1, 5))
def test_slower_fan_never_cools(p, lv):
    t_fast = SYSTEM.solver.solve(p, lv, np.zeros(N_DEV))
    t_slow = SYSTEM.solver.solve(p, lv + 1, np.zeros(N_DEV))
    comp = SYSTEM.nodes.component_slice
    assert t_slow[comp].max() >= t_fast[comp].max() - 1e-9


@slow
@given(p=power_vectors, tec=tec_vectors)
def test_energy_balance_any_configuration(p, tec):
    """Ambient outflow == component power + TEC electrical power."""
    nd = SYSTEM.nodes
    t = SYSTEM.solver.solve(p, 2, tec)
    g_conv = SYSTEM.fan.convection_conductance_w_per_k(2)
    out = float(
        ((g_conv / nd.n_tiles) * (t[nd.sink_slice] - SYSTEM.package.ambient_k)).sum()
    )
    p_tec = SYSTEM.tec_power_w(tec, t)
    # abs floor covers the LU residual at (near-)zero power, where the
    # relative tolerance has nothing to scale against: the solve leaves
    # ~1e-9 K of noise on conductances of hundreds of W/K, i.e. a few
    # microwatts of apparent flow.
    assert out == pytest.approx(float(p.sum()) + p_tec, rel=1e-6, abs=1e-5)


@slow
@given(
    p=power_vectors,
    dt=st.floats(1e-4, 10.0, allow_nan=False),
)
def test_transient_envelope(p, dt):
    """Eq. (5) output lies between the previous field and steady state."""
    t0 = SYSTEM.uniform_initial_temps_k() + 5.0
    ts = SYSTEM.solver.solve(p, 1, np.zeros(N_DEV))
    t1 = SYSTEM.transient.step(t0, ts, dt, 1, np.zeros(N_DEV))
    lo = np.minimum(t0, ts) - 1e-9
    hi = np.maximum(t0, ts) + 1e-9
    assert np.all(t1 >= lo) and np.all(t1 <= hi)


@given(
    a=st.integers(0, 5),
    b=st.integers(0, 5),
    c=st.integers(0, 5),
)
def test_dvfs_ratio_composition(a, b, c):
    """Eq. (7) ratios compose: r(a->b) r(b->c) = r(a->c)."""
    r = SCC_DVFS.dynamic_ratio
    assert r(a, b) * r(b, c) == pytest.approx(r(a, c))
    f = SCC_DVFS.frequency_ratio
    assert f(a, b) * f(b, c) == pytest.approx(f(a, c))


@given(
    t=arrays(
        float,
        4,
        elements=st.floats(250.0, 420.0, allow_nan=False),
    )
)
def test_linear_leakage_monotone_and_additive(t):
    lk = LinearLeakage(
        p_tdp_leak_w=30.0,
        alpha_w_per_k=0.45,
        t_tdp_c=90.0,
        areas_mm2=np.array([1.0, 2.0, 3.0, 4.0]),
    )
    base = lk.per_component_w(t)
    hotter = lk.per_component_w(t + 5.0)
    assert np.all(hotter >= base)
    assert np.all(base >= 0.0)


@given(
    peak=st.floats(1.0, 149.0, allow_nan=False),
    th=st.floats(40.0, 120.0, allow_nan=False),
)
def test_problem_constraint_consistency(peak, th):
    p = EnergyProblem(t_threshold_c=th)
    if p.violated(peak):
        assert not p.satisfied(peak)
    assert p.headroom_c(peak) == pytest.approx(th - peak)


@given(
    power=st.floats(0.0, 1e4, allow_nan=False),
    ips=st.floats(1.0, 1e12, allow_nan=False),
)
def test_epi_positive_and_scales(power, ips):
    epi = EnergyProblem.epi(power, ips)
    assert epi >= 0.0
    assert EnergyProblem.epi(2 * power, ips) == pytest.approx(2 * epi)
