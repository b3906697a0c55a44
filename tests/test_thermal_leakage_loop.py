"""Temperature-leakage fixed point (the paper's HotSpot modification)."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.server.platform import build_server_system
from repro.thermal.leakage_loop import LeakageCoupledSolver


@pytest.fixture(scope="module")
def server4():
    """The 4-core server plant (its own leakage calibration)."""
    return build_server_system().system


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


@pytest.mark.parametrize("plant_fixture", ["system16", "server4"])
def test_solve_many_rows_match_solo_solves_bit_for_bit(plant_fixture, request):
    """Each row of the batched fixed point is a solo ``solve`` of that
    row: the rows below converge on different passes (warm, nudged and
    cold starts at two power levels), and repeated rows stay equal."""
    system = request.getfixturevalue(plant_fixture)
    plant = system.plant_thermal
    nd = system.nodes
    comp = nd.component_slice
    rng = np.random.default_rng(5)
    fan = 2
    tec = np.zeros(system.n_tec_devices)
    tec[: system.n_tec_devices // 2] = 1.0
    lv = np.full(system.n_cores, system.dvfs.max_level)
    p_lo = system.power.component_power.dynamic_power_w(
        rng.uniform(0.1, 0.4, system.n_cores), lv
    )
    p_hi = system.power.component_power.dynamic_power_w(
        np.ones(system.n_cores), lv
    )
    t_fix, _ = plant.solve(p_hi, fan, tec)
    ambient = np.full(nd.n_components, system.solver.model.package.ambient_k)
    p_dyn = np.stack([p_hi, p_hi, p_lo, p_hi, p_lo, p_hi])
    t_guess = np.stack([
        t_fix[comp],
        t_fix[comp] + 3.0,
        ambient,
        t_fix[comp],  # a repeat of row 0
        ambient,  # a repeat of row 2
        ambient,
    ])

    t_many, p_many = plant.solve_many(p_dyn, fan, tec, t_guess)
    passes = set()
    for b in range(len(p_dyn)):
        n0 = system.solver.n_solves
        t_one, p_one = plant.solve(p_dyn[b], fan, tec, t_guess_k=t_guess[b])
        passes.add(system.solver.n_solves - n0)
        assert np.array_equal(t_many[b], t_one), b
        assert np.array_equal(p_many[b], p_one), b
    assert len(passes) > 1  # rows really froze on different passes
    assert np.array_equal(t_many[3], t_many[0])
    assert np.array_equal(t_many[4], t_many[2])


def test_batched_divergence_reports_the_unconverged_rows_residual(system2):
    """Batched twin, mixed convergence: with a two-pass budget the two
    warm-started rows converge on the last pass and the cold one does
    not. The residual is the cold row's own last peak move, exactly what
    the scalar loop reports for that row alone."""
    nd = system2.nodes
    comp = nd.component_slice
    lv = np.full(system2.n_cores, system2.dvfs.max_level)
    tec = np.zeros(system2.n_tec_devices)
    p_dyn = system2.power.component_power.dynamic_power_w(
        np.ones(system2.n_cores), lv
    )
    t_fix, _ = system2.plant_thermal.solve(p_dyn, 1, tec)
    t_rows = np.stack([t_fix, t_fix + 0.01, np.full(nd.n_nodes, 300.0)])

    scalar = LeakageCoupledSolver(
        solver=system2.solver,
        leakage_fn=system2.plant_thermal.leakage_fn,
        max_iterations=2,
    )
    for warm in t_rows[:2]:
        scalar.solve(p_dyn, 1, tec, t_guess_k=warm[comp])
    with pytest.raises(ConvergenceError) as alone:
        scalar.solve(p_dyn, 1, tec, t_guess_k=t_rows[2][comp])

    with pytest.raises(ConvergenceError) as batched:
        scalar.solve_many(np.tile(p_dyn, (3, 1)), 1, tec, t_rows[:, comp])
    assert batched.value.iterations == 2
    assert batched.value.residual == alone.value.residual
    assert batched.value.residual > system2.plant_thermal.tolerance_k


def test_convergence_error_carries_diagnostics():
    err = ConvergenceError("no", iterations=7, residual=1.5)
    assert err.iterations == 7
    assert err.residual == 1.5
