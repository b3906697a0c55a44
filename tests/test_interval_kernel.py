"""Interval-kernel fast path: caches, Woodbury, fast-forwarding.

The non-negotiable invariants under test (docs/PERFORMANCE.md):

* cache hits are bit-identical to the uncached computation;
* fast-forwarded k-interval steps match k sequential ``PaperTransient``
  steps within 1e-9 K and reproduce the classic path's controller
  decisions exactly;
* Woodbury-corrected solves agree with full refactorization within the
  configured residual tolerance, and failed corrections fall back to
  the exact path bit-for-bit;
* the forced-exact ``EngineConfig`` switch — and any hardened run —
  is bit-identical to the classic engine, field by field.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import FanTECController
from repro.core.engine import EngineConfig, SimulationEngine
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.exceptions import ConfigurationError
from repro.faults import FaultScheduler
from repro.obs import Telemetry, telemetry_session
from repro.perf.workload import Workload, WorkloadRun
from repro.thermal.keys import (
    ActuatorKeyer,
    PropagatorCache,
    exact_actuator_key,
    tec_key,
)
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import ExactTransient, PaperTransient

TRACE_FIELDS = (
    "time_s",
    "dt_s",
    "peak_temp_c",
    "p_chip_w",
    "p_cores_w",
    "p_tec_w",
    "p_fan_w",
    "ips_chip",
    "tec_on",
    "fan_level",
    "mean_dvfs_level",
)


def quiescent_workload(n_tiles: int) -> Workload:
    """Single-phase, noise-free, effectively endless: every interval
    after thermal settling is quiescent — the fast path's best case and
    the decision-equivalence test's worst case (maximum skipped
    decisions)."""
    return Workload(
        name="quiescent",
        threads=n_tiles,
        total_instructions=10**13,
        ff_instructions=0,
        ipc_at_ref=1.0,
        activity=0.5,
        active_tiles=tuple(range(n_tiles)),
        activity_noise_sigma=0.0,
    )


def _run(system, cfg, controller=None, fan_level=2, threshold=80.0):
    engine = SimulationEngine(
        system, EnergyProblem(t_threshold_c=threshold), cfg
    )
    wl = quiescent_workload(system.chip.n_tiles)
    state = ActuatorState.initial(
        system.n_tec_devices,
        system.n_cores,
        system.dvfs.max_level,
        fan_level=fan_level,
    )
    return engine.run(
        WorkloadRun(wl, system.chip, 2.0),
        controller if controller is not None else FanTECController(),
        initial_state=state,
    )


# ----------------------------------------------------------------------
# Keys and propagator caches
# ----------------------------------------------------------------------
def test_tec_key_quantizes_to_1_over_256():
    assert tec_key(np.array([0.0, 1.0])) == tec_key(np.array([0.001, 1.0]))
    assert tec_key(np.array([0.0, 1.0])) != tec_key(np.array([0.5, 1.0]))


def test_actuator_keyer_fast_paths_match_generic():
    keyer = ActuatorKeyer()
    off, on = np.zeros(3), np.ones(3)
    assert keyer.key(2, off) == (2, tec_key(off))
    assert keyer.key(2, on) == (2, tec_key(on))
    assert keyer.key(3, np.array([0.5, 0, 1])) == (
        3,
        tec_key(np.array([0.5, 0, 1])),
    )


def test_exact_actuator_key_distinguishes_sub_quantum_activations():
    a, b = np.array([0.0, 0.001]), np.array([0.0, 0.0])
    assert tec_key(a) == tec_key(b)
    assert exact_actuator_key(1, a) != exact_actuator_key(1, b)


def test_propagator_cache_guard_demotes_collisions_to_misses():
    cache = PropagatorCache(max_entries=4)
    a, b = np.array([0.0, 0.001]), np.array([0.0, 0.0])
    key = (2, tec_key(a))  # == (2, tec_key(b)): quantized collision
    cache.insert(key, "value-for-a", exact=a)
    assert cache.lookup(key, exact=a) == "value-for-a"
    assert cache.lookup(key, exact=b) is None  # guard refuses
    assert cache.n_hits == 1 and cache.n_misses == 1


def test_propagator_cache_lru_eviction_and_stats():
    cache = PropagatorCache(max_entries=2)
    for i in range(3):
        cache.insert((i,), i)
    assert len(cache) == 2
    assert cache.n_evictions == 1
    assert cache.lookup((0,)) is None  # oldest evicted
    assert cache.lookup((2,)) == 2


def test_propagator_cache_pickles_empty_like_lu_cache():
    cache = PropagatorCache()
    cache.insert((1,), np.arange(3))
    cache.lookup((1,))
    clone = pickle.loads(pickle.dumps(cache))
    assert len(clone) == 0
    assert clone.n_hits == cache.n_hits  # stats survive


# ----------------------------------------------------------------------
# Transient caches: bit-identity and the satellite accessors
# ----------------------------------------------------------------------
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


def test_conductance_diag_matches_matrix_diagonal(system2):
    tec = np.linspace(0.0, 1.0, system2.n_tec_devices)
    d = system2.cond.diag(3, tec)
    assert np.allclose(
        d, system2.cond.matrix(3, tec).toarray().diagonal(), atol=0
    )


def test_conductance_apply_matches_assembled_product(system2):
    rng = np.random.default_rng(3)
    tec = (rng.random(system2.n_tec_devices) > 0.5).astype(float)
    x = rng.standard_normal(system2.cond.n_nodes)
    g = system2.cond.matrix(2, tec)
    assert np.allclose(system2.cond.apply(x, 2, tec), g @ x, rtol=1e-14)
    xb = rng.standard_normal((system2.cond.n_nodes, 4))
    assert np.allclose(system2.cond.apply(xb, 2, tec), g @ xb, rtol=1e-14)


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


# ----------------------------------------------------------------------
# Property: closed-form k-interval advance == k sequential steps
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=64),
    fan=st.integers(min_value=1, max_value=6),
    dt_ms=st.floats(min_value=0.5, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fast_forward_matches_sequential_steps(system2, k, fan, dt_ms, seed):
    dt = dt_ms * 1e-3
    rng = np.random.default_rng(seed)
    tr = PaperTransient(system2.cond)
    n = system2.cond.n_nodes
    tec = (rng.random(system2.n_tec_devices) > 0.5).astype(float)
    t0 = 300.0 + 60.0 * rng.random(n)
    ts = 300.0 + 60.0 * rng.random(n)
    stepped = t0
    for _ in range(k):
        stepped = tr.step(stepped, ts, dt, fan, tec)
    closed = tr.interpolate(t0, ts, dt * np.arange(1, k + 1), fan, tec)
    assert np.max(np.abs(closed[-1] - stepped)) <= 1e-9


# ----------------------------------------------------------------------
# Woodbury-corrected solver
# ----------------------------------------------------------------------
def _toggle_walk(solver, p, rng, n_steps=40):
    v = np.zeros(solver.model.tec.n_devices)
    out = []
    for _ in range(n_steps):
        d = rng.integers(v.size)
        v = v.copy()
        v[d] = 1.0 - v[d]
        out.append(solver.solve(p, 2, v))
    return out


def test_woodbury_matches_exact_within_tolerance(system4):
    rng = np.random.default_rng(7)
    p = rng.uniform(0.5, 3.0, system4.nodes.n_components)
    exact = SteadyStateSolver(system4.cond, cache_size=8)
    wb = SteadyStateSolver(system4.cond, cache_size=8, use_woodbury=True)
    a = _toggle_walk(exact, p, np.random.default_rng(1))
    b = _toggle_walk(wb, p, np.random.default_rng(1))
    assert wb.n_woodbury_solves > 0  # corrections actually served
    worst = max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))
    # woodbury_rtol bounds the *residual*; G is well-conditioned here so
    # the temperature error stays within a small multiple of it.
    assert worst <= 1e-6
    assert wb.n_factorizations < exact.n_factorizations


def test_woodbury_solve_many_columns_match_solve(system4):
    rng = np.random.default_rng(11)
    wb = SteadyStateSolver(system4.cond, use_woodbury=True)
    base = np.zeros(system4.n_tec_devices)
    wb.solve(rng.uniform(0.5, 3.0, system4.nodes.n_components), 2, base)
    toggled = base.copy()
    toggled[0] = 1.0
    pm = rng.uniform(0.5, 3.0, (5, system4.nodes.n_components))
    rows = wb.solve_many(pm, 2, toggled)
    assert wb.n_woodbury_solves > 0  # the batch went through a correction
    for b in range(pm.shape[0]):
        assert np.allclose(rows[b], wb.solve(pm[b], 2, toggled), atol=1e-9)


def test_woodbury_fallback_is_bit_identical_to_exact(system4):
    rng = np.random.default_rng(13)
    p = rng.uniform(0.5, 3.0, system4.nodes.n_components)
    exact = SteadyStateSolver(system4.cond)
    # Impossible tolerance: every correction fails its residual check
    # and must be replaced by a fresh exact factorization.
    strict = SteadyStateSolver(
        system4.cond, use_woodbury=True, woodbury_rtol=0.0
    )
    base = np.zeros(system4.n_tec_devices)
    toggled = base.copy()
    toggled[2] = 1.0
    exact.solve(p, 2, base)
    strict.solve(p, 2, base)
    want = exact.solve(p, 2, toggled)
    got = strict.solve(p, 2, toggled)
    assert strict.n_woodbury_fallbacks == 1
    assert np.array_equal(got, want)
    # The repaired entry serves subsequent solves exactly, no re-fallback.
    got2 = strict.solve(p, 2, toggled)
    assert strict.n_woodbury_fallbacks == 1
    assert np.array_equal(got2, want)


def test_woodbury_rank_cap_declines_far_misses(system4):
    wb = SteadyStateSolver(
        system4.cond, use_woodbury=True, woodbury_max_rank=1
    )
    p = np.full(system4.nodes.n_components, 2.0)
    wb.solve(p, 2, np.zeros(system4.n_tec_devices))
    many_on = np.zeros(system4.n_tec_devices)
    many_on[: system4.n_tec_devices // 2] = 1.0
    wb.solve(p, 2, many_on)
    assert wb.n_woodbury_builds == 0
    assert wb.n_factorizations == 2


def test_solver_pickle_drops_woodbury_state(system4):
    wb = SteadyStateSolver(system4.cond, use_woodbury=True)
    p = np.full(system4.nodes.n_components, 2.0)
    wb.solve(p, 2, np.zeros(system4.n_tec_devices))
    v = np.zeros(system4.n_tec_devices)
    v[1] = 1.0
    wb.solve(p, 2, v)
    clone = pickle.loads(pickle.dumps(wb))
    assert len(clone._lu_cache) == 0
    assert len(clone._delta_cache) == 0
    assert clone.use_woodbury
    assert np.allclose(clone.solve(p, 2, v), wb.solve(p, 2, v), atol=1e-9)


# ----------------------------------------------------------------------
# Engine fast path: decision equivalence and bit-exact opt-outs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kernel_system():
    """Private system: interval-kernel runs toggle solver flags and
    warm caches; keep that away from the shared session fixtures."""
    return build_system(rows=2, cols=2)


@pytest.mark.parametrize(
    "controller_cls", [FanTECController, TECfanController]
)
def test_fast_forward_preserves_decisions(kernel_system, controller_cls):
    tel = Telemetry()
    classic = _run(
        kernel_system, EngineConfig(max_time_s=0.1), controller_cls()
    )
    with telemetry_session(tel):
        fast = _run(
            kernel_system,
            EngineConfig(max_time_s=0.1, interval_kernel=True),
            controller_cls(),
        )
    counters = tel.metrics.snapshot()["counters"]
    assert counters["engine.fast_forwarded_intervals"] > 0
    assert len(fast.trace) == len(classic.trace)
    for fld in ("tec_on", "fan_level", "mean_dvfs_level", "dt_s", "time_s"):
        assert np.array_equal(
            getattr(fast.trace, fld), getattr(classic.trace, fld)
        ), fld
    assert np.allclose(
        fast.trace.peak_temp_c, classic.trace.peak_temp_c, atol=1e-6
    )
    assert np.allclose(fast.trace.p_chip_w, classic.trace.p_chip_w, atol=1e-6)
    assert np.array_equal(fast.final_state.tec, classic.final_state.tec)
    assert np.array_equal(fast.final_state.dvfs, classic.final_state.dvfs)
    assert fast.metrics.instructions == classic.metrics.instructions


def test_faults_armed_disarms_kernel_bit_identically(kernel_system):
    classic = _run(kernel_system, EngineConfig(max_time_s=0.05))
    armed = _run(
        kernel_system,
        EngineConfig(
            max_time_s=0.05,
            interval_kernel=True,
            faults=FaultScheduler(),  # armed, empty script
        ),
    )
    for fld in TRACE_FIELDS:
        assert np.array_equal(
            getattr(armed.trace, fld), getattr(classic.trace, fld)
        ), fld
    assert armed.metrics == classic.metrics


def test_kernel_active_gating():
    assert EngineConfig(interval_kernel=True).kernel_active
    assert not EngineConfig().kernel_active
    assert not EngineConfig(
        interval_kernel=True, faults=FaultScheduler()
    ).kernel_active


def test_fast_forward_respects_unsafe_controller(kernel_system):
    class CountingController(FanTECController):
        fast_forward_safe = False

        def __init__(self):
            super().__init__()
            self.calls = 0

        def decide(self, *a, **kw):
            self.calls += 1
            return super().decide(*a, **kw)

    ctrl = CountingController()
    res = _run(
        kernel_system,
        EngineConfig(max_time_s=0.05, interval_kernel=True, priming_intervals=0),
        ctrl,
    )
    # Every recorded interval consulted the policy: nothing was skipped.
    assert ctrl.calls == len(res.trace)


def test_fast_forward_stops_at_fan_period_boundary(kernel_system):
    classic = _run(
        kernel_system,
        EngineConfig(max_time_s=0.1, dynamic_fan=True, fan_period_s=0.02),
        TECfanController(),
    )
    fast = _run(
        kernel_system,
        EngineConfig(
            max_time_s=0.1,
            dynamic_fan=True,
            fan_period_s=0.02,
            interval_kernel=True,
        ),
        TECfanController(),
    )
    assert np.array_equal(fast.trace.fan_level, classic.trace.fan_level)
    assert np.array_equal(fast.trace.tec_on, classic.trace.tec_on)


def test_engine_restores_solver_woodbury_flag(kernel_system):
    solver = kernel_system.solver
    assert not solver.use_woodbury
    _run(kernel_system, EngineConfig(max_time_s=0.02, interval_kernel=True))
    assert not solver.use_woodbury  # restored after the run
    solver.use_woodbury = True
    try:
        # Hardening disarms the kernel, Woodbury included, for the run.
        _run(
            kernel_system,
            EngineConfig(
                max_time_s=0.02,
                interval_kernel=True,
                faults=FaultScheduler(),
                estimator_fallback=True,
            ),
        )
        assert solver.use_woodbury  # restored to the caller's setting
    finally:
        solver.use_woodbury = False


def test_fast_forward_config_validation():
    with pytest.raises(ConfigurationError):
        EngineConfig(fast_forward_quiet=0)
    with pytest.raises(ConfigurationError):
        EngineConfig(fast_forward_max=1)
    with pytest.raises(ConfigurationError):
        EngineConfig(fast_forward_steady_tol_k=-1.0)
