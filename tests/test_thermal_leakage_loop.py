"""Temperature-leakage fixed point (the paper's HotSpot modification)."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.fleet.stepper import BatchedStepper
from repro.thermal.leakage_loop import LeakageCoupledSolver


def test_fixed_point_self_consistent(system2):
    nd = system2.nodes
    p_dyn = np.full(nd.n_components, 0.2)
    t, p_leak = system2.plant_thermal.solve(
        p_dyn, 1, np.zeros(system2.n_tec_devices)
    )
    # Re-evaluating leakage at the solution and re-solving must move the
    # peak by less than the loop tolerance.
    p2 = system2.power.plant_leakage.per_component_w(t[nd.component_slice])
    t2 = system2.solver.solve(p_dyn + p2, 1, np.zeros(system2.n_tec_devices))
    assert abs(
        t2[nd.component_slice].max() - t[nd.component_slice].max()
    ) < system2.plant_thermal.tolerance_k


def test_leakage_raises_temperature(system2):
    """Coupled solution must be hotter than the leakage-free one."""
    nd = system2.nodes
    p_dyn = np.full(nd.n_components, 0.2)
    tec = np.zeros(system2.n_tec_devices)
    t_coupled, p_leak = system2.plant_thermal.solve(p_dyn, 1, tec)
    t_plain = system2.solver.solve(p_dyn, 1, tec)
    assert np.all(p_leak > 0)
    assert t_coupled[nd.component_slice].max() > t_plain[
        nd.component_slice
    ].max()


def test_warm_start_converges_faster(system2):
    nd = system2.nodes
    p_dyn = np.full(nd.n_components, 0.25)
    tec = np.zeros(system2.n_tec_devices)
    t, _ = system2.plant_thermal.solve(p_dyn, 1, tec)

    cold = LeakageCoupledSolver(
        solver=system2.solver,
        leakage_fn=system2.power.plant_leakage.per_component_w,
    )
    n0 = system2.solver.n_solves
    cold.solve(p_dyn, 1, tec)
    cold_solves = system2.solver.n_solves - n0

    n0 = system2.solver.n_solves
    cold.solve(p_dyn, 1, tec, t_guess_k=t[nd.component_slice])
    warm_solves = system2.solver.n_solves - n0
    assert warm_solves <= cold_solves


def test_divergent_leakage_raises(system2):
    """A pathological leakage model (slope beating the thermal path)
    must raise ConvergenceError rather than hang or return garbage."""
    def runaway(t_k):
        return np.full(system2.nodes.n_components, 1.0) * (
            1.0 + 50.0 * np.maximum(t_k - 300.0, 0.0)
        )

    bad = LeakageCoupledSolver(
        solver=system2.solver, leakage_fn=runaway, max_iterations=5
    )
    with pytest.raises(ConvergenceError) as err:
        bad.solve(
            np.full(system2.nodes.n_components, 0.2),
            1,
            np.zeros(system2.n_tec_devices),
        )
    # The residual is the last pass's peak move, read before the update.
    assert err.value.iterations == 5
    assert err.value.residual > 0.0


def test_batched_divergence_reports_the_unconverged_rows_residual(
    system2, monkeypatch
):
    """Batched twin, mixed convergence: with a two-pass budget the two
    warm-started rows converge on the last pass and the cold one does
    not. The residual is the cold row's own last peak move, exactly what
    the scalar loop reports for that row alone."""
    nd = system2.nodes
    comp = nd.component_slice
    act = np.ones((3, system2.n_cores))
    lv = np.full((3, system2.n_cores), system2.dvfs.max_level)
    fan = np.ones(3, dtype=int)
    tec = np.zeros((3, system2.n_tec_devices))
    p_dyn = system2.power.component_power.dynamic_power_w(act[0], lv[0])
    t_fix, _ = system2.plant_thermal.solve(p_dyn, 1, tec[0])
    t_rows = np.stack([t_fix, t_fix + 0.01, np.full(nd.n_nodes, 300.0)])

    scalar = LeakageCoupledSolver(
        solver=system2.solver,
        leakage_fn=system2.plant_thermal.leakage_fn,
        max_iterations=2,
    )
    for warm in t_rows[:2]:
        scalar.solve(p_dyn, 1, tec[0], t_guess_k=warm[comp])
    with pytest.raises(ConvergenceError) as alone:
        scalar.solve(p_dyn, 1, tec[0], t_guess_k=t_rows[2][comp])

    monkeypatch.setattr(system2.plant_thermal, "max_iterations", 2)
    with pytest.raises(ConvergenceError) as batched:
        BatchedStepper(system2).advance(act, lv, fan, tec, t_rows, dt_s=1.0)
    assert batched.value.iterations == 2
    assert batched.value.residual == alone.value.residual
    assert batched.value.residual > system2.plant_thermal.tolerance_k


def test_convergence_error_carries_diagnostics():
    err = ConvergenceError("no", iterations=7, residual=1.5)
    assert err.iterations == 7
    assert err.residual == 1.5
