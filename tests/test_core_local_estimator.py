"""Banded one-core-at-a-time hardware estimator (Sec. III-E)."""

import numpy as np
import pytest

from repro.core.estimator import BATCH_SCORES, NextIntervalEstimator
from repro.core.local_estimator import (
    HW_TEMP_STEP_K,
    LocalBandedEstimator,
    _quantize,
)
from repro.core.state import ActuatorState
from repro.exceptions import ControlError
from repro.perf.ips import IPSTracker


def primed_pair(system, state):
    """A banded and a full estimator primed with identical measurements."""
    n_comp = system.nodes.n_components
    temps = np.full(n_comp, 70.0)
    p_dyn = np.full(n_comp, 0.15)
    ips = np.full(system.n_cores, 1.2e9)
    band = LocalBandedEstimator(
        system=system, ips_predictor=IPSTracker(system.dvfs)
    )
    full = NextIntervalEstimator(
        system=system, ips_predictor=IPSTracker(system.dvfs)
    )
    for est in (band, full):
        est.begin_interval(temps, p_dyn, ips, state, 2e-3)
    return band, full


def test_quantization_half_degree():
    t = np.array([345.12, 345.26])
    q = _quantize(t)
    np.testing.assert_allclose(q % HW_TEMP_STEP_K, 0.0, atol=1e-9)
    np.testing.assert_allclose(q, t, atol=HW_TEMP_STEP_K / 2 + 1e-9)


def test_evaluate_before_begin_raises(system2, base_state2):
    est = LocalBandedEstimator(
        system=system2, ips_predictor=IPSTracker(system2.dvfs)
    )
    with pytest.raises(ControlError):
        est.evaluate(base_state2)


def test_agrees_with_full_model_near_steady(system2, base_state2):
    """At the applied configuration the banded prediction must stay
    within ~1.5 K of the full model (quantization + locality error)."""
    band, full = primed_pair(system2, base_state2)
    eb = band.evaluate(base_state2)
    ef = full.evaluate(base_state2)
    assert abs(eb.peak_temp_c - ef.peak_temp_c) < 1.5


def test_candidate_sensitivity_direction(system2, base_state2):
    """Local what-ifs move temperature in the physically right way."""
    band, _ = primed_pair(system2, base_state2)
    e0 = band.evaluate(base_state2)
    hotter = band.evaluate(base_state2)  # baseline
    lower = band.evaluate(base_state2.with_dvfs(0, 0))
    assert lower.p_cores_w < e0.p_cores_w
    tec_on = base_state2.with_tec(0, 1.0)
    e_tec = band.evaluate(tec_on)
    assert e_tec.p_tec_w > 0.0


def test_only_changed_cores_resolved(system2, base_state2):
    band, _ = primed_pair(system2, base_state2)
    band.evaluate(base_state2)  # builds the base prediction (N solves)
    n0 = band.n_core_solves
    band.evaluate(base_state2.with_dvfs(0, 4))
    assert band.n_core_solves == n0 + 1  # exactly one core re-solved
    band.evaluate(base_state2.with_dvfs(0, 4).with_dvfs(1, 4))
    assert band.n_core_solves == n0 + 3  # two more for the 2-core diff


def test_every_evaluation_counts(system2, base_state2):
    """No memo: a repeat is scored again, counts its evaluation and its
    core passes, and answers equal scores."""
    band, _ = primed_pair(system2, base_state2)
    moved = base_state2.with_dvfs(0, 4)
    first = band.evaluate(moved)
    n, passes = band.n_evaluations, band.n_core_solves
    again = band.evaluate(moved)
    assert band.n_evaluations == n + 1
    assert band.n_core_solves == passes + 1
    assert again is not first
    assert again.epi == first.epi and again.peak_temp_c == first.peak_temp_c
    np.testing.assert_array_equal(again.t_nodes_k, first.t_nodes_k)


def test_fan_estimate_uses_full_model(system2, base_state2):
    band, full = primed_pair(system2, base_state2)
    p = np.full(system2.nodes.n_components, 0.15)
    tec = np.zeros(system2.n_tec_devices)
    assert band.evaluate_fan_setting(p, tec, 2) == pytest.approx(
        full.evaluate_fan_setting(p, tec, 2)
    )


def test_observer_boots_from_anchor(system2, base_state2):
    """First begin_interval must not leave spreader/sink at ambient (the
    bug class this estimator had: a frozen-cold boundary biases every
    local solve)."""
    band, _ = primed_pair(system2, base_state2)
    rest = band._t_nodes_k[system2.nodes.spreader_slice]
    assert np.all(rest > system2.package.ambient_k + 1.0)


# ----------------------------------------------------------------------
# Core table: every prediction equals the per-core datapath
# ----------------------------------------------------------------------
def _reference_core(est, state, core):
    """One core's banded prediction solved on its own [K]: the hardware
    datapath written out without the estimator's core table."""
    system = est.system
    blk = est._blocks[core]
    idx = blk.comp_idx
    t_now = est._t_nodes_k
    a = blk.g_local.copy()
    b = np.zeros(len(idx))
    for k in range(len(idx)):
        if blk.ext_node[k].size:
            b[k] += float(np.dot(blk.ext_g[k], t_now[blk.ext_node[k]]))
    tec = system.tec
    for dev in tec.tile_devices(core):
        s = float(state.tec[dev])
        if s <= 0.0:
            continue
        placement = tec.placements[dev]
        s_joule = float(tec.joule_scale(np.array([s]))[0])
        for ci, w in zip(placement.component_idx, placement.weights):
            k = int(ci - idx[0])
            a[k, k] += s * w * tec.alpha_i
            b[k] += s_joule * w * 0.5 * tec.joule_w
    beta = np.exp(-est._dt_s * np.diag(a) / blk.capacities)
    rhs = (est.dyn_tracker.predict(state.dvfs) + est._p_leak)[idx] + b
    t_steady = np.linalg.solve(a, rhs)
    t_comp = t_now[system.nodes.component_slice]
    return _quantize((1.0 - beta) * t_steady + beta * t_comp[idx])


def _changed_cores(system, base, state):
    return [
        core for core in range(system.n_cores)
        if state.dvfs[core] != base.dvfs[core]
        or np.any(state.tec[system.tec.tile_devices(core)]
                  != base.tec[system.tec.tile_devices(core)])
    ]


def _reference_base(est):
    return np.concatenate([
        _reference_core(est, est._base_state, core)
        for core in range(est.system.n_cores)
    ])


def _reference_prediction(est, base_pred, state):
    """Base prediction with every changed core re-solved."""
    system = est.system
    pred = base_pred.copy()
    for core in _changed_cores(system, est._base_state, state):
        pred[system.chip.tile_slice(core)] = _reference_core(est, state, core)
    return pred


def _primed_banded(system, seed):
    rng = np.random.default_rng(seed)
    n_comp = system.nodes.n_components
    tec = np.zeros(system.n_tec_devices)
    tec[rng.choice(system.n_tec_devices, size=3, replace=False)] = 1.0
    state = ActuatorState(
        tec=tec,
        dvfs=rng.integers(1, system.dvfs.max_level, size=system.n_cores),
        fan_level=2,
    )
    est = LocalBandedEstimator(
        system=system, ips_predictor=IPSTracker(system.dvfs)
    )
    est.begin_interval(
        60.0 + 15.0 * rng.random(n_comp), 0.5 + rng.random(n_comp),
        1e9 * (1.0 + rng.random(system.n_cores)), state, 2e-3,
    )
    return est, state, rng


def _random_candidates(rng, system, work, n):
    """Multi-core DVFS diffs, tile-TEC toggles, chip-level moves, fans."""
    max_level = system.dvfs.max_level
    out = []
    for _ in range(n):
        kind = int(rng.integers(4))
        if kind == 0:
            cores = rng.choice(
                system.n_cores, size=int(rng.integers(1, system.n_cores + 1)),
                replace=False,
            )
            lv = work.dvfs.copy()
            lv[cores] = rng.integers(0, max_level + 1, size=len(cores))
            s = work.with_dvfs_vector(lv)
        elif kind == 1:
            tec = work.tec.copy()
            devs = rng.choice(system.n_tec_devices, size=int(rng.integers(1, 4)),
                              replace=False)
            tec[devs] = 1.0 - tec[devs]
            s = work.with_tec_vector(tec)
            if rng.random() < 0.5:
                s = s.with_dvfs(int(rng.integers(system.n_cores)),
                                int(rng.integers(max_level + 1)))
        elif kind == 2:
            step = int(rng.choice([-1, 1]))
            s = work.with_dvfs_vector(
                np.clip(work.dvfs + step, 0, max_level)
            )
        else:
            s = work.with_fan(int(rng.integers(1, system.fan.n_levels + 1)))
        out.append(s)
    return out


def _assert_matches_reference(est, base_pred, states, got):
    comp = est.system.nodes.component_slice
    for state, e in zip(states, got):
        want = _reference_prediction(est, base_pred, state)
        assert np.array_equal(e.t_nodes_k[comp], want)


@pytest.fixture(scope="module")
def server_system():
    from repro.server.platform import build_server_system

    return build_server_system().system


@pytest.mark.parametrize("name", ["system2", "system16", "server_system"])
def test_core_table_matches_per_core_solves(request, name):
    """Overlapping random batches: every candidate's prediction is the
    per-core reference bit for bit, each (core, tile pattern) is solved
    once at every level, and the pass count is the demanded (evaluated
    candidate, changed core) pairs, repeats included."""
    from repro.obs.telemetry import Telemetry, telemetry_session

    system = request.getfixturevalue(name)
    est, base, rng = _primed_banded(system, seed=3)
    base_pred = _reference_base(est)
    tiles = system.tec.tile_devices
    triples = {
        (core, base.tec[tiles(core)].tobytes(), int(base.dvfs[core]))
        for core in range(system.n_cores)
    }
    passes = system.n_cores
    tel = Telemetry()
    previous: list = []
    with telemetry_session(tel):
        for round_ in range(6):
            batch = _random_candidates(rng, system, base, 12) + previous[:4]
            if round_ % 2:
                got = est.evaluate_many(batch)
            else:
                got = [est.evaluate(s) for s in batch]
            _assert_matches_reference(est, base_pred, batch, got)
            for s in batch:
                changed = _changed_cores(system, base, s)
                passes += len(changed)
                triples.update(
                    (c, s.tec[tiles(c)].tobytes(), int(s.dvfs[c]))
                    for c in changed
                )
            previous = batch
    assert est.n_core_solves == passes
    counters = tel.metrics
    assert counters.counter("estimator.core_solves").value == passes
    # A (core, tile pattern) pair is filled at every DVFS level at once.
    pairs = {(core, pattern) for core, pattern, _ in triples}
    assert counters.counter("estimator.core_table_fills").value == (
        system.dvfs.n_levels * len(pairs)
    )
    assert len(triples) < passes


def test_commit_and_begin_interval_invalidate_table(system16):
    """A stale table would silently answer with the old field: after
    ``commit`` and after ``begin_interval`` the same (core, pattern,
    level) keys must be re-solved against the new observer state."""
    system = system16
    est, base, rng = _primed_banded(system, seed=5)
    base_pred = _reference_base(est)
    raised = base.with_dvfs(0, system.dvfs.max_level).with_tec(0, 1.0)
    before = est.evaluate(raised)
    _assert_matches_reference(est, base_pred, [raised], [before])

    hot = est.evaluate(base.with_dvfs_vector(
        np.full(system.n_cores, system.dvfs.max_level)
    ))
    est.commit(hot)
    # The state scored before the commit answers against the new field.
    after = est.evaluate(raised)
    _assert_matches_reference(est, base_pred, [raised], [after])
    comp = system.nodes.component_slice
    assert not np.array_equal(before.t_nodes_k[comp], after.t_nodes_k[comp])

    n_comp = system.nodes.n_components
    est.begin_interval(
        70.0 + 10.0 * rng.random(n_comp), 0.5 + rng.random(n_comp),
        np.full(system.n_cores, 1.5e9), base, 2e-3,
    )
    fresh_base = _reference_base(est)
    third = est.evaluate(raised)
    _assert_matches_reference(est, fresh_base, [raised], [third])
    assert not np.array_equal(after.t_nodes_k[comp], third.t_nodes_k[comp])


# ----------------------------------------------------------------------
# Core blocks: CSR slices equal the per-row construction
# ----------------------------------------------------------------------
def _reference_blocks(system):
    """Per-core local models built one ``getrow`` at a time."""
    g_full = system.cond.base_matrix().tocsr()
    blocks = []
    for core in range(system.n_cores):
        sl = system.chip.tile_slice(core)
        idx = np.arange(sl.start, sl.stop)
        local_pos = {int(i): k for k, i in enumerate(idx)}
        g_local = np.zeros((len(idx), len(idx)))
        ext_node, ext_g = [], []
        for k, i in enumerate(idx):
            row = g_full.getrow(int(i))
            e_nodes, e_gs = [], []
            for c, v in zip(row.indices, row.data):
                if int(c) in local_pos:
                    g_local[k, local_pos[int(c)]] = v
                else:
                    e_nodes.append(int(c))
                    e_gs.append(-float(v))
            ext_node.append(np.asarray(e_nodes, dtype=np.intp))
            ext_g.append(np.asarray(e_gs, dtype=float))
        blocks.append((idx, g_local, ext_node, ext_g,
                       system.nodes.capacities[sl]))
    return blocks


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name", ["system2", "system16", "server_system"])
def test_blocks_match_per_row_construction(request, name):
    system = request.getfixturevalue(name)
    est = LocalBandedEstimator(
        system=system, ips_predictor=IPSTracker(system.dvfs)
    )
    want = _reference_blocks(system)
    assert len(est._blocks) == len(want)
    for blk, (idx, g_local, ext_node, ext_g, caps) in zip(est._blocks, want):
        assert _bitwise(blk.comp_idx, idx)
        assert _bitwise(blk.g_local, g_local)
        assert _bitwise(blk.capacities, caps)
        assert len(blk.ext_node) == len(ext_node) == len(blk.ext_g)
        for got, ref in zip(blk.ext_node, ext_node):
            assert _bitwise(got, ref)
        for got, ref in zip(blk.ext_g, ext_g):
            assert _bitwise(got, ref)


# ----------------------------------------------------------------------
# Array scores: every batch entry equals the per-candidate reference
# ----------------------------------------------------------------------
def _reference_scores(est, base_pred, state):
    """One candidate's banded scores from its assembled field, written
    out with ``tec_power_w``, ``k_to_c(...).max()`` and ``epi``."""
    from repro import units
    from repro.core.problem import EnergyProblem

    system = est.system
    comp = system.nodes.component_slice
    t = est._t_nodes_k.copy()
    t[comp] = _reference_prediction(est, base_pred, state)
    p_dyn = est.dyn_tracker.predict(state.dvfs)
    p_cores = float(p_dyn.sum() + est._p_leak.sum())
    p_tec = system.tec_power_w(state.tec, t)
    p_fan = system.fan.power_w(state.fan_level)
    p_chip = p_cores + p_tec + p_fan
    ips = float(np.sum(est.ips_predictor.predict(state.dvfs)))
    return t, {
        "peak_c": float(units.k_to_c(t[comp]).max()),
        "p_chip_w": p_chip,
        "p_cores_w": p_cores,
        "p_tec_w": p_tec,
        "p_fan_w": p_fan,
        "ips_chip": ips,
        "epi": EnergyProblem.epi(p_chip, ips),
    }


def _scored_candidates(rng, system, work, n):
    """:func:`_random_candidates` plus fractional TEC activations."""
    out = _random_candidates(rng, system, work, n)
    for _ in range(n // 2):
        tec = work.tec.copy()
        devs = rng.choice(system.n_tec_devices, size=int(rng.integers(1, 5)),
                          replace=False)
        tec[devs] = rng.random(len(devs))
        s = work.with_tec_vector(tec)
        if rng.random() < 0.5:
            s = s.with_dvfs(int(rng.integers(system.n_cores)),
                            int(rng.integers(system.dvfs.max_level + 1)))
        out.append(s)
    return out


@pytest.fixture(scope="module")
def current_drive_system():
    from repro.core.system import build_system

    return build_system(rows=1, cols=2, tec_drive_mode="current")


@pytest.mark.parametrize(
    "name",
    ["system2", "system16", "server_system", "current_drive_system"],
)
def test_array_scores_match_per_candidate_reference(request, name):
    """Peak, TEC, core and chip power, IPS and EPI of every batch row
    equal the reference built from that candidate's own field, before
    and after a ``commit`` moves the observer field (each round repeats
    some of the previous round's states)."""
    system = request.getfixturevalue(name)
    est, base, rng = _primed_banded(system, seed=7)
    tec = base.tec.copy()
    tec[rng.choice(system.n_tec_devices, size=2, replace=False)] = 0.25
    base = base.with_tec_vector(tec)
    n_comp = system.nodes.n_components
    est.begin_interval(
        60.0 + 15.0 * rng.random(n_comp), 0.5 + rng.random(n_comp),
        1e9 * (1.0 + rng.random(system.n_cores)), base, 2e-3,
    )
    base_pred = _reference_base(est)
    states: list = []
    for round_ in range(3):
        states = _scored_candidates(rng, system, base, 10) + states[:3]
        batch = est.evaluate_many(states)
        assert len(batch) == len(states)
        for j, state in enumerate(states):
            field, want = _reference_scores(est, base_pred, state)
            for name_, value in want.items():
                assert getattr(batch, name_)[j] == value, (round_, j, name_)
            assert np.array_equal(batch[j].t_nodes_k, field)
            assert batch[j].state is state
        # Stale-base semantics: after a commit the unchanged cores keep
        # the interval's base prediction while changed cores re-solve
        # against the committed field.
        est.commit(batch[0])


def test_duplicate_rows_answer_equal_scores(system16):
    """Duplicates within and across batches answer equal scores and
    fields, and each batch's arrays equal its rows' scalars."""
    est, base, rng = _primed_banded(system16, seed=9)
    first = est.evaluate_many(_random_candidates(rng, system16, base, 6))
    fresh = _random_candidates(rng, system16, base, 3)
    mixed = [first.states[2], fresh[0], fresh[0], first.states[0], fresh[1]]
    batch = est.evaluate_many(mixed)
    # (row of ``batch``, the batch and row holding the same state)
    for row, (other, k) in ((0, (first, 2)), (1, (batch, 2)), (3, (first, 0))):
        for name, _ in BATCH_SCORES:
            assert getattr(batch, name)[row] == getattr(other, name)[k]
        assert np.array_equal(batch[row].t_nodes_k, other[k].t_nodes_k)
    for b in (first, batch):
        for j in range(len(b)):
            for name, attr in BATCH_SCORES:
                assert getattr(b, name)[j] == getattr(b[j], attr)


def test_out_of_range_level_raises(system2, base_state2):
    band, _ = primed_pair(system2, base_state2)
    with pytest.raises(ControlError):
        band.evaluate(base_state2.with_dvfs(0, system2.dvfs.n_levels))
    with pytest.raises(ControlError):
        band.evaluate_many([base_state2.with_dvfs(1, -1)])


# ----------------------------------------------------------------------
# Pickling carries state, not caches
# ----------------------------------------------------------------------
_CACHE_FIELDS = (
    "_blocks", "_static_ctx", "_bnd", "_patterns", "_pattern_rows",
    "_tec_pids", "_table", "_row_max", "_row_dev_w", "_have",
)


def test_pickled_estimator_holds_no_caches(system16):
    import pickle

    est, base, rng = _primed_banded(system16, seed=11)
    cands = _random_candidates(rng, system16, base, 8)
    want = est.evaluate_many(cands)
    state = est.__getstate__()
    for name in _CACHE_FIELDS:
        assert name not in state
    clone = pickle.loads(pickle.dumps(est))
    assert len(clone._patterns) == 0
    assert not clone._have.any() and not clone._static_ctx
    # The clone rebuilds what it needs and answers bit for bit.
    got = clone.evaluate_many(cands)
    for name, _ in BATCH_SCORES:
        assert np.array_equal(getattr(got, name), getattr(want, name))
    for j in range(len(cands)):
        assert np.array_equal(got[j].t_nodes_k, want[j].t_nodes_k)
    # The base prediction is state and survives; only the candidates'
    # passes run again.
    passes = est.n_core_solves - system16.n_cores
    assert clone.n_core_solves == est.n_core_solves + passes


def test_older_payload_with_cache_keys_loads(system16):
    """A payload from before the caches were dropped (the candidate memo,
    per-field contexts, a row table without summaries) still loads."""
    est, base, rng = _primed_banded(system16, seed=13)
    cands = _random_candidates(rng, system16, base, 5)
    legacy = dict(est.__dict__)
    legacy.update(
        _cache={("tec", "dvfs", 1): object()},
        _ctx_cache={(0, 0): (np.eye(2), np.zeros(2), np.ones(2))},
        _table=np.zeros((7, 18)),
        _have=np.ones(7, dtype=bool),
        _p_by_level=np.zeros(3),
        _base_pred_comp_k=np.zeros(system16.nodes.n_components),
    )
    del legacy["_base_row_max"], legacy["_base_dev_w"], legacy["_row_max"]
    loaded = LocalBandedEstimator.__new__(LocalBandedEstimator)
    loaded.__setstate__(legacy)
    assert "_ctx_cache" not in loaded.__dict__
    assert "_cache" not in loaded.__dict__
    n_comp = system16.nodes.n_components
    args = (
        70.0 + 5.0 * rng.random(n_comp), 0.5 + rng.random(n_comp),
        np.full(system16.n_cores, 1.5e9), base, 2e-3,
    )
    est.begin_interval(*args)
    loaded.begin_interval(*args)
    want = est.evaluate_many(cands)
    got = loaded.evaluate_many(cands)
    assert np.array_equal(got.epi, want.epi)
    assert np.array_equal(got.peak_c, want.peak_c)
