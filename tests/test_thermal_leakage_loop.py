"""Temperature-leakage fixed point (the paper's HotSpot modification)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ConvergenceError, ThermalModelError
from repro.obs import Telemetry, telemetry_session
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

    one_class = [(np.arange(len(p_dyn)), system.solver.factorization(fan, tec))]
    t_many, p_many = plant.solve_many(p_dyn, one_class, t_guess)
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

    one_class = [(np.arange(3), system2.solver.factorization(1, tec))]
    with pytest.raises(ConvergenceError) as batched:
        scalar.solve_many(np.tile(p_dyn, (3, 1)), one_class, t_rows[:, comp])
    assert batched.value.iterations == 2
    assert batched.value.residual == alone.value.residual
    assert batched.value.residual > system2.plant_thermal.tolerance_k


def _three_class_batch(system):
    """Nine rows under three actuator classes, interleaved by index.

    Rows converge on different passes (warm, nudged and cold starts at
    two power levels); class 1 is a single warm row, so it finishes
    before the others, and rows 3, 6 and 7 repeat rows 0, 1 and 5 of
    their own class.
    """
    nd = system.nodes
    comp = nd.component_slice
    rng = np.random.default_rng(11)
    lv = np.full(system.n_cores, system.dvfs.max_level)
    p_lo = system.power.component_power.dynamic_power_w(
        rng.uniform(0.1, 0.4, system.n_cores), lv
    )
    p_hi = system.power.component_power.dynamic_power_w(
        np.ones(system.n_cores), lv
    )
    n_tec = system.n_tec_devices
    half = np.zeros(n_tec)
    half[: n_tec // 2] = 1.0
    settings = [(2, np.zeros(n_tec)), (1, np.ones(n_tec)), (3, half)]
    label = np.array([0, 2, 1, 0, 2, 0, 2, 0, 2])
    fixed = [system.plant_thermal.solve(p_hi, f, t)[0][comp] for f, t in settings]
    ambient = np.full(nd.n_components, system.solver.model.package.ambient_k)
    p_dyn = np.stack([p_hi, p_lo, p_hi, p_hi, p_hi, p_lo, p_lo, p_lo, p_hi])
    t_guess = np.stack([
        fixed[0],
        ambient,
        fixed[1],
        fixed[0],  # a repeat of row 0
        fixed[2] + 3.0,
        ambient,
        ambient,  # a repeat of row 1
        ambient,  # a repeat of row 5
        fixed[2],
    ])
    classes = [
        (np.flatnonzero(label == c), system.solver.factorization(f, t))
        for c, (f, t) in enumerate(settings)
    ]
    return p_dyn, t_guess, settings, label, classes


@pytest.mark.parametrize("plant_fixture", ["system16", "server4"])
def test_lockstep_classes_match_solo_solves_bit_for_bit(plant_fixture, request):
    """Several classes share one fixed point: every row is its own solo
    ``solve`` under its class's setting, each class is solved only while
    it has active rows, and one leakage pass serves all classes."""
    system = request.getfixturevalue(plant_fixture)
    plant = system.plant_thermal
    p_dyn, t_guess, settings, label, classes = _three_class_batch(system)

    n0 = system.solver.n_solves
    tel = Telemetry()
    with telemetry_session(tel):
        t_many, p_many = plant.solve_many(p_dyn, classes, t_guess)
    batched_solves = system.solver.n_solves - n0
    lockstep_passes = tel.metrics.counter("thermal.leakage_passes").value

    passes = np.empty(len(p_dyn), dtype=int)
    for b in range(len(p_dyn)):
        fan, tec = settings[label[b]]
        n0 = system.solver.n_solves
        t_one, p_one = plant.solve(p_dyn[b], fan, tec, t_guess_k=t_guess[b])
        passes[b] = system.solver.n_solves - n0
        assert np.array_equal(t_many[b], t_one), b
        assert np.array_equal(p_many[b], p_one), b
    class_passes = [passes[label == c].max() for c in range(len(settings))]
    assert len(set(class_passes)) > 1  # classes really finish apart
    assert len(set(passes[label == 0])) > 1  # ...and rows within one
    # Each row is solved once per pass it stays active, and the loop
    # runs exactly as many passes as its slowest row.
    assert batched_solves == passes.sum()
    assert lockstep_passes == passes.max()
    assert np.array_equal(t_many[3], t_many[0])
    assert np.array_equal(t_many[6], t_many[1])
    assert np.array_equal(t_many[7], t_many[5])


def test_lockstep_divergence_reports_the_unconverged_classs_residual(system2):
    """Two classes under a two-pass budget: class 0's warm rows converge
    on the last pass, class 1 holds a cold row that does not. The error
    carries that row's own residual, as a solo ``solve`` reports it."""
    nd = system2.nodes
    comp = nd.component_slice
    lv = np.full(system2.n_cores, system2.dvfs.max_level)
    n_tec = system2.n_tec_devices
    p_dyn = system2.power.component_power.dynamic_power_w(
        np.ones(system2.n_cores), lv
    )
    settings = [(1, np.zeros(n_tec)), (2, np.ones(n_tec))]
    fixed = [system2.plant_thermal.solve(p_dyn, f, t)[0][comp] for f, t in settings]
    t_guess = np.stack([
        fixed[0], fixed[1], fixed[0] + 0.01, np.full(nd.n_components, 300.0),
    ])
    label = np.array([0, 1, 0, 1])
    budget = LeakageCoupledSolver(
        solver=system2.solver,
        leakage_fn=system2.plant_thermal.leakage_fn,
        max_iterations=2,
    )
    for b in range(3):
        budget.solve(p_dyn, *settings[label[b]], t_guess_k=t_guess[b])
    with pytest.raises(ConvergenceError) as alone:
        budget.solve(p_dyn, *settings[1], t_guess_k=t_guess[3])

    classes = [
        (np.flatnonzero(label == c), system2.solver.factorization(f, t))
        for c, (f, t) in enumerate(settings)
    ]
    with pytest.raises(ConvergenceError) as batched:
        budget.solve_many(np.tile(p_dyn, (4, 1)), classes, t_guess)
    assert batched.value.iterations == 2
    assert batched.value.residual == alone.value.residual
    assert batched.value.residual > system2.plant_thermal.tolerance_k


def test_lockstep_nan_power_row_raises_thermal_model_error(system2):
    """A non-finite power row fails the steady solve's finiteness check;
    it is not left to run out the iteration budget."""
    p_dyn, t_guess, _, _, classes = _three_class_batch(system2)
    p_dyn[4, 0] = np.nan
    with pytest.raises(ThermalModelError) as err:
        system2.plant_thermal.solve_many(p_dyn, classes, t_guess)
    assert not isinstance(err.value, ConvergenceError)


def test_scalar_solve_counts_its_passes(system2):
    tel = Telemetry()
    n0 = system2.solver.n_solves
    with telemetry_session(tel):
        system2.plant_thermal.solve(
            np.full(system2.nodes.n_components, 0.2),
            1,
            np.zeros(system2.n_tec_devices),
        )
    passes = tel.metrics.counter("thermal.leakage_passes").value
    assert passes == system2.solver.n_solves - n0 > 1


@pytest.mark.parametrize("max_iterations", [0, -1])
def test_iteration_budget_below_one_is_rejected(system2, max_iterations):
    with pytest.raises(ConfigurationError):
        LeakageCoupledSolver(
            solver=system2.solver,
            leakage_fn=system2.plant_thermal.leakage_fn,
            max_iterations=max_iterations,
        )


@pytest.mark.parametrize("tolerance_k", [0.0, -0.5, np.nan])
def test_non_positive_tolerance_is_rejected(system2, tolerance_k):
    with pytest.raises(ConfigurationError):
        LeakageCoupledSolver(
            solver=system2.solver,
            leakage_fn=system2.plant_thermal.leakage_fn,
            tolerance_k=tolerance_k,
        )


def test_convergence_error_carries_diagnostics():
    err = ConvergenceError("no", iterations=7, residual=1.5)
    assert err.iterations == 7
    assert err.residual == 1.5
