"""Satellite: batched stepper == sequential stepper, stepper- and sim-level.

The contract (docs/FLEET.md): temperatures agree to <= 1e-9 K and control
decisions agree exactly. In practice the batched kernel is bit-identical
— `solve_many` rows match `solve`, the masked leakage fixed point
freezes converged rows with the same iteration outputs, and
`dynamic_power_many` returns C-ordered rows so `sum(axis=1)` reduces in
the same order as the per-node loop. The batched stepper advances every
row it is given, duplicates included; the row pools below make
duplicates common.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fleet.groups as groups_mod
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.control import FleetPolicy
from repro.fleet.groups import NodeGroups, distinct_rows
from repro.fleet.stepper import BatchedStepper, SequentialStepper, StepResult
from repro.server.platform import build_server_system
from repro.thermal.keys import exact_actuator_key

TEMP_TOL_K = 1e-9


@pytest.fixture(scope="module")
def platform():
    return build_server_system()


def _random_fleet_state(system, rng, n_nodes, n_classes, n_states):
    """Random per-node rows drawn from small pools.

    Each node picks an actuator class (fan/TEC pattern) from a pool of
    ``n_classes`` and a physical state (activity, DVFS, temperatures)
    from a pool of ``n_states``, independently. Pooled classes force
    shared classes (the multi-RHS path) next to singletons; pooled
    states make whole rows repeat within a class and across classes
    (equal physics under another actuator setting).
    """
    n_tiles = system.chip.n_tiles
    n_tec = system.tec.n_devices
    n_th = system.nodes.n_nodes
    fan_pool = rng.integers(1, system.fan.n_levels + 1, size=n_classes)
    tec_pool = rng.integers(0, 2, size=(n_classes, n_tec)).astype(float)
    act_pool = rng.uniform(0.0, 1.0, size=(n_states, n_tiles))
    lv_pool = rng.integers(
        0, system.power.component_power.dvfs.n_levels, size=(n_states, n_tiles)
    )
    t_pool = rng.uniform(305.0, 345.0, size=(n_states, n_th))
    cls = rng.integers(0, n_classes, size=n_nodes)
    row = rng.integers(0, n_states, size=n_nodes)
    return {
        "activity": act_pool[row],
        "dvfs_levels": lv_pool[row],
        "fan_levels": fan_pool[cls].astype(float),
        "tec": tec_pool[cls],
        "t_nodes_k": t_pool[row],
    }


def _n_classes(state) -> int:
    return len({
        exact_actuator_key(int(f), t)
        for f, t in zip(state["fan_levels"], state["tec"])
    })


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_nodes=st.integers(min_value=1, max_value=10),
    n_classes=st.integers(min_value=1, max_value=3),
    n_states=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_steppers_agree_on_random_mixes(
    platform, seed, n_nodes, n_classes, n_states
):
    system = platform.system
    rng = np.random.default_rng(seed)
    state = _random_fleet_state(system, rng, n_nodes, n_classes, n_states)

    seq = SequentialStepper(system).advance(dt_s=1.0, **state)
    stepper = BatchedStepper(system)
    bat = stepper.advance(dt_s=1.0, **state)
    assert stepper.class_groups == _n_classes(state)
    assert stepper.solved_rows == n_nodes

    assert np.max(np.abs(bat.t_nodes_k - seq.t_nodes_k)) <= TEMP_TOL_K
    assert np.max(np.abs(bat.t_steady_k - seq.t_steady_k)) <= TEMP_TOL_K
    assert np.array_equal(bat.p_dyn_w, seq.p_dyn_w)
    assert np.array_equal(bat.p_leak_w, seq.p_leak_w)
    assert np.array_equal(bat.p_tec_w, seq.p_tec_w)

    # Decisions derived from the two step results must match exactly —
    # a 1-ulp temperature drift flips hysteresis comparisons.
    policy = FleetPolicy(
        system,
        t_threshold_c=platform.t_threshold_c,
        peak_ips=platform.params.peak_ips,
    )
    comp = system.nodes.component_slice
    for res_a, res_b in ((seq, bat),):
        tp_a = policy.tile_peaks_c(res_a.t_nodes_k[:, comp] - 273.15)
        tp_b = policy.tile_peaks_c(res_b.t_nodes_k[:, comp] - 273.15)
        assert np.array_equal(
            policy.decide_tec(tp_a, state["tec"]),
            policy.decide_tec(tp_b, state["tec"]),
        )
        offered = rng.uniform(0.0, 2.0 * platform.params.peak_ips, size=(n_nodes, system.chip.n_tiles))
        lv_a, thr_a = policy.decide_dvfs(offered, tp_a)
        lv_b, thr_b = policy.decide_dvfs(offered, tp_b)
        assert np.array_equal(lv_a, lv_b)
        assert np.array_equal(thr_a, thr_b)
        assert np.array_equal(
            policy.decide_fan(tp_a.max(axis=1), state["fan_levels"]),
            policy.decide_fan(tp_b.max(axis=1), state["fan_levels"]),
        )


def _assert_same_step(a, b):
    for f in fields(StepResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.shape == y.shape and np.array_equal(x, y), f.name


def test_identical_rows_give_the_one_row_result_tiled(platform):
    system = platform.system
    one = _random_fleet_state(system, np.random.default_rng(7), 1, 1, 1)
    fleet = {k: np.repeat(v, 64, axis=0) for k, v in one.items()}
    single = BatchedStepper(system).advance(dt_s=1.0, **one)
    stepper = BatchedStepper(system)
    tiled = stepper.advance(dt_s=1.0, **fleet)
    assert stepper.solved_rows == 64
    assert stepper.class_groups == 1
    expect = StepResult(
        *(np.repeat(getattr(single, f.name), 64, axis=0) for f in fields(StepResult))
    )
    _assert_same_step(tiled, expect)


def test_rows_one_temperature_bit_apart_are_not_merged(platform):
    system = platform.system
    one = _random_fleet_state(system, np.random.default_rng(11), 1, 1, 1)
    state = {k: np.repeat(v, 2, axis=0) for k, v in one.items()}
    state["t_nodes_k"][1, 5] = np.nextafter(state["t_nodes_k"][1, 5], np.inf)
    reps, inverse = distinct_rows(*state.values())
    assert list(reps) == [0, 1] and list(inverse) == [0, 1]
    stepper = BatchedStepper(system)
    bat = stepper.advance(dt_s=1.0, **state)
    assert stepper.solved_rows == 2
    _assert_same_step(bat, SequentialStepper(system).advance(dt_s=1.0, **state))


def test_hash_collisions_never_merge_different_rows(platform, monkeypatch):
    # A constant hash puts every row in one bucket: only the compare
    # against the bucket's first row may merge, everything else stands
    # alone, and the step still matches the per-node loop.
    monkeypatch.setattr(
        groups_mod, "_hash_weights", lambda width: np.zeros(width, np.uint64)
    )
    system = platform.system
    state = _random_fleet_state(system, np.random.default_rng(3), 8, 2, 2)
    reps, inverse = distinct_rows(*state.values())
    for i, r in enumerate(reps[inverse]):
        for arr in state.values():
            assert np.ascontiguousarray(arr[i]).tobytes() == (
                np.ascontiguousarray(arr[r]).tobytes()
            )
    # Merging groups on those rows joins only the verified equal ones.
    groups = NodeGroups(8)
    groups.split(np.arange(8.0))
    keep = groups.merge(*state.values())
    kept = reps if keep is None else keep
    assert groups.n_groups == kept.size
    for i in range(8):
        g = kept[groups.group_of[i]]
        for arr in state.values():
            assert np.ascontiguousarray(arr[i]).tobytes() == (
                np.ascontiguousarray(arr[g]).tobytes()
            )
    bat = BatchedStepper(system).advance(dt_s=1.0, **state)
    _assert_same_step(bat, SequentialStepper(system).advance(dt_s=1.0, **state))


@pytest.mark.parametrize(
    "router", ["identity", "round-robin", "least-loaded", "thermal"]
)
def test_full_sim_digest_matches_sequential(platform, router, per_node_fleet):
    cfg = FleetConfig(
        n_nodes=6,
        duration_s=180,
        trace="diurnal",
        router=router,
    )
    batched = run_fleet(cfg, platform=platform)
    per_node_fleet()
    sequential = run_fleet(cfg, platform=platform)
    assert batched.digest == sequential.digest
    assert batched.summary()["energy_j"] == sequential.summary()["energy_j"]


def test_diverging_sim_digest_matches_sequential(platform, per_node_fleet):
    # Round-robin's 64 quanta do not divide over 7 nodes: the remainder
    # splits the starting group until every node stands alone, and the
    # nodes step several actuation classes (the run pinned in
    # benchmarks/results/fleet_small.txt).
    cfg = FleetConfig(
        n_nodes=7, duration_s=600, trace="wikipedia", scale=1.3
    )
    batched = run_fleet(cfg, platform=platform)
    assert batched.class_groups > batched.batched_steps
    per_node_fleet()
    sequential = run_fleet(cfg, platform=platform)
    assert batched.digest == sequential.digest
    assert batched.energy_j == sequential.energy_j
    assert batched.requests_served == sequential.requests_served


def test_fast_forward_preserves_physics(platform):
    # Fast-forward freezes a settled state, while classic stepping keeps
    # relaxing temperatures the last <= ff_temp_tol_k toward steady — so
    # the skip is an approximation *bounded by that tolerance*, plus
    # multiply-vs-repeated-add rounding on the scalar accumulators.
    # Decisions and the request ledger must still agree exactly.
    from repro.fleet.sim import FleetSim
    from repro.fleet.traces import fleet_demand

    def run(ff):
        cfg = FleetConfig(
            n_nodes=4,
            duration_s=240,
            trace="diurnal",
            router="round-robin",
            fast_forward=ff,
        )
        demand = fleet_demand(cfg.trace, cfg.duration_s, seed=cfg.seed)
        return FleetSim(platform, cfg, demand).run()

    with_ff = run(True)
    without = run(False)
    assert with_ff.ff_intervals > 0  # the skip path actually engaged
    assert without.ff_intervals == 0
    assert with_ff.sim_time_s == without.sim_time_s
    assert with_ff.node_intervals == without.node_intervals
    # Physics agreement bounded by the settle tolerance.
    tol_k = 10 * FleetConfig.ff_temp_tol_k
    assert np.max(np.abs(with_ff.final_t_nodes_k - without.final_t_nodes_k)) <= tol_k
    assert abs(with_ff.peak_temp_c - without.peak_temp_c) <= tol_k
    assert with_ff.energy_j == pytest.approx(without.energy_j, rel=1e-9)
    assert with_ff.inst_served == pytest.approx(without.inst_served, rel=1e-9)
    assert with_ff.requests_routed == pytest.approx(
        without.requests_routed, rel=1e-9
    )
    # Decision trajectory and request ledger agree exactly.
    assert with_ff.violation_node_intervals == without.violation_node_intervals
    assert with_ff.throttled_node_intervals == without.throttled_node_intervals
    assert np.array_equal(with_ff.latency_counts, without.latency_counts)
    assert np.array_equal(with_ff.final_backlog_inst, without.final_backlog_inst)
    assert np.array_equal(with_ff.final_fan, without.final_fan)
    assert np.array_equal(with_ff.final_tec, without.final_tec)
    assert np.array_equal(with_ff.final_dvfs, without.final_dvfs)
