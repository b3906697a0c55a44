"""Exhaustive optimizers: Oracle / Oracle-P / OFTEC."""

import gc
import itertools
import pickle
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.analysis.server_experiment import run_server_comparison
from repro.core.estimator import NextIntervalEstimator
from repro.core.oracle import (
    _FIRST_BATCH,
    _TABLES,
    ExhaustiveSearcher,
    _dyn_rows,
    _gang_devices,
    _weighted_power,
    make_oftec,
    make_oracle,
)
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.exceptions import ConfigurationError
from repro.obs import Telemetry, telemetry_session
from repro.perf.ips import IPSTracker
from repro.server.platform import build_server_system
from repro.server.trace_workload import ServerIPSPredictor


@pytest.fixture()
def primed(system2, base_state2):
    est = NextIntervalEstimator(
        system=system2, ips_predictor=IPSTracker(system2.dvfs)
    )
    n = system2.nodes.n_components
    est.begin_interval(
        np.full(n, 70.0),
        np.full(n, 0.15),
        np.full(system2.n_cores, 1.2e9),
        base_state2,
        1.0,
    )
    return est


def decide(searcher, estimator, state, threshold):
    problem = EnergyProblem(t_threshold_c=threshold)
    temps = np.full(
        estimator.system.nodes.n_components, 70.0
    )
    return searcher.decide(state, temps, estimator, problem)


def test_factory_names():
    assert make_oracle().name == "Oracle"
    assert make_oracle(perf_floor=np.array([1.0])).name == "Oracle-P"
    assert make_oftec().name == "OFTEC"


def test_invalid_configuration():
    with pytest.raises(ConfigurationError):
        ExhaustiveSearcher(objective="nonsense")
    with pytest.raises(ConfigurationError):
        ExhaustiveSearcher(tec_gangs_per_core=0)


def test_oftec_keeps_dvfs_at_max(primed, base_state2, system2):
    oftec = make_oftec()
    out = decide(oftec, primed, base_state2, threshold=90.0)
    assert np.all(out.dvfs == system2.dvfs.max_level)


def test_oftec_picks_cheapest_feasible_cooling(primed, base_state2):
    """With a loose threshold OFTEC must pick the slowest fan, no TECs
    (that is the cooling-power minimum)."""
    oftec = make_oftec()
    out = decide(oftec, primed, base_state2, threshold=120.0)
    assert out.fan_level == primed.system.fan.n_levels
    assert out.tec_on_count == 0


def test_oracle_feasibility_respected(primed, base_state2, system2):
    oracle = make_oracle()
    oracle.decision_period = 1
    out = decide(oracle, primed, base_state2, threshold=85.0)
    # Verify with the full estimator that Oracle's pick is feasible.
    e = primed.evaluate(out)
    assert e.peak_temp_c <= 85.0 + 1.5  # model-vs-check slack


def test_oracle_beats_oftec_on_epi(primed, base_state2):
    """Oracle optimizes the full EPI objective and can only do better."""
    oracle = make_oracle()
    oracle.decision_period = 1
    oftec = make_oftec()
    th = 100.0
    out_oracle = decide(oracle, primed, base_state2, th)
    out_oftec = decide(oftec, primed, base_state2, th)
    e_oracle = primed.evaluate(out_oracle)
    e_oftec = primed.evaluate(out_oftec)
    assert e_oracle.epi <= e_oftec.epi + 1e-12


def test_decision_period_holds_configuration(primed, base_state2):
    oracle = make_oracle()
    oracle.decision_period = 5
    first = decide(oracle, primed, base_state2, 100.0)
    n_cfg = oracle.n_configurations
    held = decide(oracle, primed, base_state2, 100.0)
    assert held is first  # returned without recomputation
    assert oracle.n_configurations == n_cfg


def test_configuration_count_accounting(primed, base_state2, system2):
    oracle = make_oracle()
    oracle.decision_period = 1
    decide(oracle, primed, base_state2, 100.0)
    m = system2.dvfs.n_levels
    n = system2.n_cores
    expected = (2**n * system2.fan.n_levels) * (m**n)
    assert oracle.n_configurations == expected


def test_gang_explosion_guard(system4):
    searcher = ExhaustiveSearcher(tec_gangs_per_core=9)
    with pytest.raises(ConfigurationError, match="intractable"):
        searcher._prepare(system4)


def test_oracle_p_floor_binds(primed, base_state2, system2):
    """A high performance floor must forbid deep throttling."""
    ips_full = 2 * 1.2e9
    oracle_p = make_oracle(perf_floor=np.array([ips_full * 0.999]))
    oracle_p.decision_period = 1
    out = decide(oracle_p, primed, base_state2, threshold=110.0)
    # Eq. (11): full IPS requires every core at max frequency.
    assert np.all(out.dvfs == system2.dvfs.max_level)


def test_unconstrained_oracle_throttles(primed, base_state2, system2):
    """Same setting without the floor: EPI optimum is below max DVFS
    (the mesh-domain constant makes the optimum interior, but for a
    closed workload EPI always improves below the top level)."""
    oracle = make_oracle()
    oracle.decision_period = 1
    out = decide(oracle, primed, base_state2, threshold=110.0)
    assert np.any(out.dvfs < system2.dvfs.max_level)


# ----------------------------------------------------------------------
# Differential check against the brute-force per-variant loop
# ----------------------------------------------------------------------
@dataclass
class ReferenceSearcher(ExhaustiveSearcher):
    """Brute-force reference: every (TEC, fan) variant runs the two-pass
    formula over the whole DVFS space, the best feasible configuration
    wins (ties to the lowest variant, then DVFS index), else the least
    peak. The objective-first search must pick exactly the same."""

    _ref: tuple = field(default=None, repr=False)

    def _reference_space(self, system):
        if self._ref is None or self._ref[0] is not system:
            gangs = _gang_devices(system, self.tec_gangs_per_core)
            invs, v_fan, v_tec = [], [], []
            n_gangs = system.n_cores * self.tec_gangs_per_core
            for bits in itertools.product((0.0, 1.0), repeat=n_gangs):
                tec = np.zeros(system.n_tec_devices)
                for g, on in enumerate(bits):
                    if on:
                        tec[gangs[g]] = 1.0
                for fan in range(1, system.fan.n_levels + 1):
                    g_dense = system.cond.matrix(fan, tec).toarray()
                    invs.append(np.linalg.inv(g_dense))
                    v_fan.append(fan)
                    v_tec.append(tec)
            m = system.dvfs.n_levels
            if self.dvfs_exhaustive:
                space = np.array(
                    list(itertools.product(range(m), repeat=system.n_cores)),
                    dtype=int,
                )
            else:
                space = np.full(
                    (1, system.n_cores), system.dvfs.max_level, dtype=int
                )
            dev = system.tec
            cold_w = np.zeros((dev.n_devices, system.nodes.n_components))
            cold_w[dev.coo_device, dev.coo_component] = dev.coo_weight
            self._ref = (system, np.stack(invs), np.asarray(v_fan),
                         np.stack(v_tec), space, cold_w)
        return self._ref[1:]

    def decide(self, state, sensor_temps_c, estimator, problem):
        call = self._decision_index
        self._decision_index += 1
        if call % self.decision_period != 0 and self._held is not None:
            return self._held
        system = estimator.system
        invs, v_fan, v_tec, levels, cold_w = self._reference_space(system)
        nodes = system.nodes
        comp = nodes.component_slice
        tracker = estimator.dyn_tracker
        if not tracker.ready:
            return state
        d_count = levels.shape[0]
        p_dyn = tracker.predict_many(levels)
        t_meas_k = units.c_to_k(np.asarray(sensor_temps_c, dtype=float))
        leak0 = system.power.controller_leakage.per_component_w(t_meas_k)
        ips = estimator.ips_predictor.predict_many(levels).sum(axis=1)
        floor = None
        if self.perf_floor is not None:
            k = min(call, len(self.perf_floor) - 1)
            floor = min(float(self.perf_floor[k]), float(ips.max()))
        fan_power = system.fan.power_table()
        th_k = units.c_to_k(problem.t_threshold_c)
        lk = system.power.controller_leakage
        frac = lk.areas_mm2 / lk.chip_area_mm2
        best = best_fallback = None
        self.n_configurations += len(invs) * d_count
        for k in range(len(invs)):
            fan, tec, inv = int(v_fan[k]), v_tec[k], invs[k]
            rhs_const = system.cond.rhs(np.zeros(nodes.n_components), fan, tec)
            rhs = np.zeros((d_count, nodes.n_nodes))
            rhs[:, comp] = p_dyn + leak0[None, :]
            rhs += rhs_const[None, :]
            t1 = rhs @ inv.T
            leak1 = np.clip(
                lk.p_tdp_leak_w + lk.alpha_w_per_k * (t1[:, comp] - lk.t_tdp_k),
                0.0, None,
            ) * frac[None, :]
            rhs[:, comp] = p_dyn + leak1
            t2 = rhs @ inv.T
            peak_k = t2[:, comp].max(axis=1)
            feasible = peak_k <= th_k
            if floor is not None:
                feasible &= ips >= floor * (1.0 - 1e-9)
            t_cold = t2[:, comp] @ cold_w.T
            t_hot = t2[:, nodes.n_components + system.tec.device_tile]
            p_tec = (tec[None, :] * (
                system.tec.joule_w + system.tec.alpha_i * (t_hot - t_cold)
            )).sum(axis=1)
            if self.objective == "cooling":
                obj = p_tec + fan_power[fan - 1]
            else:
                p_chip = (p_dyn.sum(axis=1) + leak1.sum(axis=1) + p_tec
                          + fan_power[fan - 1])
                with np.errstate(divide="ignore"):
                    obj = np.where(ips > 0, p_chip / np.maximum(ips, 1e-9),
                                   np.inf)
            if np.any(feasible):
                ok = np.flatnonzero(feasible)
                d_best = int(ok[np.argmin(obj[ok])])
                cand = (float(obj[d_best]), k, d_best)
                if best is None or cand[0] < best[0]:
                    best = cand
            d_cool = int(np.argmin(peak_k))
            fb = (float(peak_k[d_cool]), k, d_cool)
            if best_fallback is None or fb[0] < best_fallback[0]:
                best_fallback = fb
        _, k, d = best_fallback if best is None else best
        self._chosen_fan = int(v_fan[k])
        self._held = ActuatorState(
            tec=v_tec[k].copy(), dvfs=levels[d].copy(),
            fan_level=self._chosen_fan,
        )
        return self._held


#: Searcher settings per policy (Oracle-P's floor is drawn per example).
POLICIES = {
    "Oracle": dict(name="Oracle"),
    "Oracle-P": dict(name="Oracle-P"),
    "OFTEC": dict(name="OFTEC", objective="cooling", dvfs_exhaustive=False),
}


@pytest.fixture(scope="module")
def systems(system2, system4):
    return {
        "system2": system2,
        "system4": system4,
        "server": build_server_system().system,
        # Leakage reference far above the die temperatures: the clip in
        # the second pass binds, so the uncertified path runs.
        "clipped": replace(system2, power=replace(
            system2.power,
            controller_leakage=replace(
                system2.power.controller_leakage,
                t_tdp_c=system2.power.controller_leakage.t_tdp_c + 60.0,
            ),
        )),
    }


def primed_on(system, seed, temp_c=70.0, power_w=0.15):
    """An estimator primed with one random measured interval."""
    rng = np.random.default_rng(seed)
    n = system.nodes.n_components
    state = ActuatorState(
        tec=np.zeros(system.n_tec_devices),
        dvfs=rng.integers(0, system.dvfs.n_levels, system.n_cores),
        fan_level=int(rng.integers(1, system.fan.n_levels + 1)),
    )
    est = NextIntervalEstimator(
        system=system, ips_predictor=IPSTracker(system.dvfs)
    )
    temps = temp_c + rng.uniform(-5.0, 5.0, n)
    est.begin_interval(
        temps,
        power_w * rng.uniform(0.5, 1.5, n),
        rng.uniform(0.3e9, 1.5e9, system.n_cores),
        state,
        1.0,
    )
    return est, state, temps


def assert_same_decision(system, policy, seed, temp_c, power_w, th_c,
                         floor_frac=1.0):
    """The search and the brute-force reference agree on one decision."""
    est, state, temps = primed_on(system, seed, temp_c, power_w)
    kw = dict(POLICIES[policy], decision_period=1)
    if policy == "Oracle-P":
        top = np.full((1, system.n_cores), system.dvfs.max_level)
        top_ips = est.ips_predictor.predict_many(top).sum()
        kw["perf_floor"] = np.array([floor_frac * top_ips])
    new, ref = ExhaustiveSearcher(**kw), ReferenceSearcher(**kw)
    problem = EnergyProblem(t_threshold_c=th_c)
    got = new.decide(state, temps, est, problem)
    want = ref.decide(state, temps, est, problem)
    assert np.array_equal(got.tec, want.tec)
    assert np.array_equal(got.dvfs, want.dvfs)
    assert got.fan_level == want.fan_level
    assert new.n_configurations == ref.n_configurations
    return got


@pytest.mark.parametrize(
    "name, n_examples",
    [("system2", 60), ("clipped", 40), ("system4", 6), ("server", 6)],
)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_search_matches_brute_force(systems, name, n_examples, policy):
    @settings(max_examples=n_examples, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**16),
        temp_c=st.floats(45.0, 100.0),
        power_w=st.floats(0.02, 0.4),
        th_c=st.floats(50.0, 110.0),
        floor_frac=st.floats(0.2, 1.0),
    )
    def check(seed, temp_c, power_w, th_c, floor_frac):
        assert_same_decision(systems[name], policy, seed, temp_c, power_w,
                             th_c, floor_frac)

    check()


#: The default search space, OFTEC's single DVFS row, and two TEC
#: banks per core.
SPACES = {
    "full": {},
    "one-row": dict(dvfs_exhaustive=False),
    "two-gangs": dict(tec_gangs_per_core=2),
}


def space_case(name, space):
    """One (platform, search space) case; the default space keeps the
    bare platform name as its id."""
    case_id = name if space == "full" else f"{name}-{space}"
    return pytest.param(name, space, id=case_id)


@pytest.mark.parametrize("name, space", [
    space_case("system2", "full"), space_case("system4", "full"),
    space_case("server", "full"), space_case("server", "one-row"),
    space_case("system2", "two-gangs"),
])
@pytest.mark.parametrize("objective", ["epi", "cooling"])
def test_affine_objective_matches_two_pass(systems, name, space, objective):
    """Where the clip cannot bind, the per-core-sum objective that orders
    the walk equals the two-pass formula to float64 rounding everywhere."""
    system = systems[name]
    searcher = ExhaustiveSearcher(objective=objective, **SPACES[space])
    sp = searcher._prepare(system)
    est, _, temps = primed_on(system, seed=11)
    p_lvl = est.dyn_tracker.predict_many(sp.one_level)
    p_dyn = est.dyn_tracker.predict_many(sp.dvfs)
    ips = est.ips_predictor.predict_many(sp.dvfs).sum(axis=1)
    leak0 = system.power.controller_leakage.per_component_w(
        units.c_to_k(temps)
    )
    affine = searcher._affine_objective(sp, p_lvl, ips, leak0)
    for k in range(len(sp.fan)):
        _, exact = searcher._score(sp, np.full(len(p_dyn), k), p_dyn, ips,
                                   leak0)
        np.testing.assert_allclose(affine[k], exact, rtol=1e-12)


@pytest.mark.parametrize("name, space", [
    ("system2", "full"), ("system4", "full"), ("server", "full"),
    ("server", "one-row"), ("server", "two-gangs"),
])
def test_per_core_sums_equal_the_dense_product(systems, name, space):
    """The per-core sums give ``weight @ p_dyn.T`` to rounding for any
    measured interval the Eq. (7) tracker can be primed with."""
    system = systems[name]
    sp = ExhaustiveSearcher(**SPACES[space])._prepare(system)
    for seed in range(4):
        est, _, _ = primed_on(system, seed=seed)
        p_lvl = est.dyn_tracker.predict_many(sp.one_level)
        p_dyn = est.dyn_tracker.predict_many(sp.dvfs)
        got = _weighted_power(sp, p_lvl, np.zeros(len(sp.fan)))
        np.testing.assert_allclose(got, sp.weight @ p_dyn.T, rtol=1e-13)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_near_ties_are_resolved_by_the_two_pass_formula(
    systems, policy, monkeypatch
):
    """The affine objective only orders the walk. With every key tied the
    exactly scored window is the whole space, and the pick is still the
    brute force's."""
    monkeypatch.setattr(
        ExhaustiveSearcher,
        "_affine_objective",
        lambda self, sp, p_dyn, ips, leak0: np.ones(
            (len(sp.fan), len(sp.dvfs))
        ),
    )
    for seed in range(4):
        assert_same_decision(systems["system2"], policy, seed, temp_c=70.0,
                             power_w=0.15, th_c=85.0, floor_frac=0.8)


@pytest.mark.parametrize("name", ["system2", "clipped", "server"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_all_infeasible_falls_back_to_least_peak(systems, name, policy):
    """A threshold below ambient: nothing is feasible anywhere. The bound
    rows alone show it, so only the least-peak fallback scores (once)."""
    system = systems[name]
    tel = Telemetry()
    with telemetry_session(tel):
        got = assert_same_decision(system, policy, seed=3, temp_c=70.0,
                                   power_w=0.15, th_c=1.0, floor_frac=0.9)
    assert got.fan_level == 1  # the fastest fan is always the coolest
    n_variants = 2**system.n_cores * system.fan.n_levels
    n_dvfs = 1 if policy == "OFTEC" else system.dvfs.n_levels**system.n_cores
    assert (tel.metrics.counter("oracle.candidates_scored").value
            == n_variants * n_dvfs)


def test_clip_binding_variant_is_scored_in_full(systems):
    """Where the leakage clip may bind the affine objective is not used:
    the whole variant goes through the two-pass formula."""
    system = systems["clipped"]
    tel = Telemetry()
    with telemetry_session(tel):
        assert_same_decision(system, "Oracle", seed=5, temp_c=60.0,
                             power_w=0.15, th_c=110.0)
    d_count = system.dvfs.n_levels ** system.n_cores
    assert tel.metrics.counter("oracle.searches").value == 1
    assert tel.metrics.counter("oracle.candidates_scored").value >= d_count


def test_search_scores_few_candidates(systems):
    """On the server platform the walk stops after a handful of exact
    scorings out of the K*D = 124,416 configurations."""
    system = systems["server"]
    tel = Telemetry()
    with telemetry_session(tel):
        for seed in range(3):
            assert_same_decision(system, "Oracle", seed=seed, temp_c=70.0,
                                 power_w=0.3, th_c=90.0)
    scored = tel.metrics.counter("oracle.candidates_scored").value
    assert tel.metrics.counter("oracle.searches").value == 3
    assert 0 < scored < 3 * 1000


@pytest.mark.parametrize("seed", [0, 4])
def test_later_batch_decides(systems, seed):
    """A threshold below what the cheapest configurations reach: the first
    walk batch holds nothing feasible, so a later, wider batch decides."""
    tel = Telemetry()
    with telemetry_session(tel):
        assert_same_decision(systems["server"], "Oracle", seed, temp_c=70.0,
                             power_w=0.3, th_c=60.0)
    # The first two batches at least, then the tie window.
    scored = tel.metrics.counter("oracle.candidates_scored").value
    assert scored > 3 * _FIRST_BATCH


@pytest.mark.parametrize("name, seed, power_w, floor_frac, th_c", [
    ("system2", 1, 0.15, 0.95, 85.0),
    ("system2", 2, 0.15, 0.95, 85.0),
    ("server", 2, 0.15, 0.98, 80.0),  # the first batch decides
    ("server", 1, 0.2, 0.98, 60.0),  # the fifth batch decides
    ("server", 2, 0.1, 0.98, 60.0),  # the sixth batch decides
])
def test_floor_leaves_few_dvfs_rows(systems, name, seed, power_w, floor_frac,
                                    th_c):
    """An Oracle-P floor just below the top IPS allows only a few DVFS
    rows; the walk draws its batches from those columns alone."""
    system = systems[name]
    sp = ExhaustiveSearcher()._prepare(system)
    est, _, _ = primed_on(system, seed)
    ips = est.ips_predictor.predict_many(sp.dvfs).sum(axis=1)
    allowed = ips >= floor_frac * ips.max() * (1.0 - 1e-9)
    assert 1 < allowed.sum() <= 5
    got = assert_same_decision(system, "Oracle-P", seed, temp_c=70.0,
                               power_w=power_w, th_c=th_c,
                               floor_frac=floor_frac)
    d = np.flatnonzero((sp.dvfs == got.dvfs).all(axis=1))[0]
    assert allowed[d]


@pytest.mark.parametrize("name", ["system2", "server"])
@pytest.mark.parametrize("policy", ["Oracle", "Oracle-P"])
def test_zero_ips_keys_are_all_infinite(systems, name, policy):
    """IPS = 0 on every DVFS row makes every EPI key +inf. The tie window
    is then every eligible candidate, and the exact objective (+inf too)
    leaves the pick to the lowest feasible flat index, as in the brute
    force. The floor is capped at the best achievable IPS, 0, so
    Oracle-P allows every row."""
    system = systems[name]
    est, state, temps = primed_on(system, seed=6, temp_c=60.0)
    n = system.nodes.n_components
    est.begin_interval(temps, np.full(n, 0.2), np.zeros(system.n_cores),
                       state, 1.0)
    kw = dict(POLICIES[policy], decision_period=1)
    if policy == "Oracle-P":
        kw["perf_floor"] = np.array([1.0e9])
    problem = EnergyProblem(t_threshold_c=85.0)
    new, ref = ExhaustiveSearcher(**kw), ReferenceSearcher(**kw)
    sp = new._prepare(system)
    assert not est.ips_predictor.predict_many(sp.dvfs).any()
    got = new.decide(state, temps, est, problem)
    want = ref.decide(state, temps, est, problem)
    assert np.array_equal(got.tec, want.tec)
    assert np.array_equal(got.dvfs, want.dvfs)
    assert got.fan_level == want.fan_level


@pytest.mark.parametrize("make", [make_oracle, make_oftec])
@pytest.mark.parametrize("first, second", [
    ("system2", "system4"),  # shape changes
    ("system4", "server"),  # same shape, different G
    ("system2", "clipped"),  # same conductances, different leakage
])
def test_reused_searcher_rebinds_to_new_system(systems, make, first, second):
    """A searcher reused on another system must decide as a fresh one."""
    problem = EnergyProblem(t_threshold_c=85.0)
    reused = make()
    reused.decision_period = 1
    est, state, temps = primed_on(systems[first], seed=1)
    reused.decide(state, temps, est, problem)
    reused.reset()
    est, state, temps = primed_on(systems[second], seed=2)
    fresh = make()
    fresh.decision_period = 1
    got = reused.decide(state, temps, est, problem)
    want = fresh.decide(state, temps, est, problem)
    assert np.array_equal(got.tec, want.tec)
    assert np.array_equal(got.dvfs, want.dvfs)
    assert got.fan_level == want.fan_level


@pytest.mark.parametrize("name, space", [
    ("system2", "full"), ("clipped", "full"), ("server", "full"),
    ("server", "one-row"), ("system2", "two-gangs"),
])
def test_power_rows_gather_from_one_level_rows(systems, name, space):
    """Every configuration's Eq. (7) power row is, bit for bit, a gather
    from the one-level rows, and the grid's elementwise minimum is theirs."""
    system = systems[name]
    sp = ExhaustiveSearcher(**SPACES[space])._prepare(system)
    for seed in range(3):
        est, _, _ = primed_on(system, seed=seed)
        p_lvl = est.dyn_tracker.predict_many(sp.one_level)
        p_dyn = est.dyn_tracker.predict_many(sp.dvfs)
        d = np.arange(len(sp.dvfs))
        assert np.array_equal(_dyn_rows(sp, p_lvl, d), p_dyn)
        assert np.array_equal(p_lvl[sp.levels].min(axis=0), p_dyn.min(axis=0))


def test_searchers_on_one_system_share_its_inverses(monkeypatch):
    """OFTEC, Oracle and Oracle-P on one system invert its K = 96 variant
    matrices once between them."""
    calls = []
    inv = np.linalg.inv

    def counting_inv(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    run_server_comparison(minutes=1)
    assert len(calls) == 2**4 * 6


def test_pickles_carry_no_inverses(primed, base_state2):
    """A searched system pickles to the same size as before the search,
    and a searcher drops its space (the shared inverses) when pickled."""
    system = primed.system
    searcher = make_oracle()
    before = len(pickle.dumps(system))
    blank = len(pickle.dumps(searcher))
    first = decide(searcher, primed, base_state2, threshold=85.0)
    assert len(pickle.dumps(system)) == before
    state = pickle.dumps(searcher)
    assert len(state) < blank + 4096
    clone = pickle.loads(state)
    clone.reset()
    again = decide(clone, primed, base_state2, threshold=85.0)
    assert np.array_equal(again.tec, first.tec)
    assert np.array_equal(again.dvfs, first.dvfs)
    assert again.fan_level == first.fan_level


def test_variant_table_keeps_no_system_alive(system2):
    """The shared table outlives no system: once a searched system is
    freed, its table goes too."""
    system = replace(system2)  # a new system object on system2's parts
    searcher = ExhaustiveSearcher()
    searcher._prepare(system)
    key = (id(system), searcher.tec_gangs_per_core)
    assert _TABLES[key][0]() is system
    alive = weakref.ref(system)
    del system, searcher
    gc.collect()
    assert alive() is None
    assert key not in _TABLES
