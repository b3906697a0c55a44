"""Batched evaluation must be *bit-identical* to per-candidate physics.

Each estimator has one evaluation path, built on batched primitives
(``solve_many`` / ``predict_many`` / ``tec_power_many``): SuperLU
back-substitutes multi-RHS columns independently, LAPACK solves stacked
dense systems independently, and the Eq. (7)/(11) ratio algebra is
elementwise. These tests pin the primitives against their single-row
forms and the full-model estimator against a per-candidate reference
written out below (``solve`` -> ``transient.step`` -> ``tec_power_w``);
the banded estimator's reference is the per-core datapath in
``test_core_local_estimator.py``. Equality is to the last bit, not
approximate, so any vectorization that reassociates floating-point
arithmetic fails loudly instead of silently shifting controller
decisions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.core import engine as engine_module
from repro.checkpoint import result_digest
from repro.core.engine import EngineConfig, SimulationEngine
from repro.core.estimator import (
    BATCH_SCORES,
    Estimate,
    EstimateBatch,
    NextIntervalEstimator,
)
from repro.core.local_estimator import LocalBandedEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.exceptions import ControlError
from repro.perf import splash2_workload
from repro.perf.ips import IPSTracker
from repro.perf.splash2 import REF_FREQ_GHZ
from repro.perf.workload import WorkloadRun
from repro.power.dvfs import SCC_DVFS
from repro.power.dynamic import DynamicPowerTracker
from repro.server.trace_workload import ServerIPSPredictor

ESTIMATE_SCALARS = (
    "peak_temp_c",
    "p_chip_w",
    "p_cores_w",
    "p_tec_w",
    "p_fan_w",
    "ips_chip",
    "epi",
)


@pytest.fixture
def system():
    return build_system(rows=2, cols=2)


def _primed_estimator(cls, system, seed=0):
    est = cls(system=system, ips_predictor=IPSTracker(dvfs=system.dvfs))
    rng = np.random.default_rng(seed)
    state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level, 2
    )
    # Anchor mid-table so one-level moves exist in both directions.
    mid = system.dvfs.max_level // 2
    state = state.with_dvfs_vector(np.full(system.n_cores, mid))
    temps = 60.0 + 10.0 * rng.random(system.nodes.n_components)
    p = 1.0 + rng.random(system.nodes.n_components)
    ips = 1e9 * (1.0 + rng.random(system.n_cores))
    est.begin_interval(temps, p, ips, state, 2e-3)
    return est, state


def _candidates(system, state):
    cands = []
    for core in range(system.n_cores):
        cands.append(state.with_dvfs(core, int(state.dvfs[core]) + 1))
        cands.append(state.with_dvfs(core, int(state.dvfs[core]) - 1))
    for dev in range(min(4, system.n_tec_devices)):
        cands.append(state.with_tec(dev, 1.0))
    cands.append(state.with_fan(3))
    cands.append(state)
    cands.append(cands[0])  # in-batch duplicate
    return cands


# ----------------------------------------------------------------------
# Layer primitives
# ----------------------------------------------------------------------
def test_solve_many_matches_solve_bitwise(system):
    rng = np.random.default_rng(1)
    p = 1.0 + rng.random((7, system.nodes.n_components))
    tec = np.zeros(system.n_tec_devices)
    tec[:3] = 1.0
    batched = system.solver.solve_many(p, 2, tec)
    for b in range(p.shape[0]):
        single = system.solver.solve(p[b], 2, tec)
        assert np.array_equal(batched[b], single)


def test_tec_power_many_per_row_activations_bitwise(system):
    """With a ``(batch, n_devices)`` activation matrix, entry ``b`` is
    ``tec_power_w`` of row ``b``'s own activation and field."""
    rng = np.random.default_rng(4)
    n = 6
    tec = rng.integers(0, 2, size=(n, system.n_tec_devices)).astype(float)
    tec[1] = rng.random(system.n_tec_devices)  # a fractional row
    tec[3] = tec[0]
    t = 310.0 + 30.0 * rng.random((n, system.nodes.n_nodes))
    batched = system.tec_power_many(tec, t)
    for b in range(n):
        assert batched[b] == system.tec_power_w(tec[b], t[b]), b


def test_solve_many_rejects_vector_input(system):
    from repro.exceptions import ThermalModelError

    with pytest.raises(ThermalModelError):
        system.solver.solve_many(
            np.ones(system.nodes.n_components), 1,
            np.zeros(system.n_tec_devices),
        )


def test_dynamic_tracker_predict_many_bitwise(system):
    rng = np.random.default_rng(2)
    tracker = DynamicPowerTracker(
        dvfs=system.dvfs, tile_of=system.chip.tile_of()
    )
    tracker.observe(
        rng.random(system.nodes.n_components),
        np.full(system.n_cores, 3),
    )
    levels = rng.integers(0, system.dvfs.max_level + 1,
                          size=(9, system.n_cores))
    batched = tracker.predict_many(levels)
    for b in range(levels.shape[0]):
        assert np.array_equal(batched[b], tracker.predict(levels[b]))


def test_ips_tracker_predict_many_bitwise(system):
    rng = np.random.default_rng(3)
    tracker = IPSTracker(dvfs=system.dvfs)
    tracker.observe(
        1e9 * rng.random(system.n_cores), np.full(system.n_cores, 2)
    )
    levels = rng.integers(0, system.dvfs.max_level + 1,
                          size=(9, system.n_cores))
    batched = tracker.predict_many(levels)
    for b in range(levels.shape[0]):
        assert np.array_equal(batched[b], tracker.predict(levels[b]))


def test_server_predictor_predict_many_bitwise():
    rng = np.random.default_rng(4)
    pred = ServerIPSPredictor(dvfs=SCC_DVFS, peak_ips=4e9)
    pred.observe(3e9 * rng.random(4), np.full(4, 3))
    levels = rng.integers(0, SCC_DVFS.max_level + 1, size=(9, 4))
    batched = pred.predict_many(levels)
    for b in range(levels.shape[0]):
        assert np.array_equal(batched[b], pred.predict(levels[b]))


# ----------------------------------------------------------------------
# Full-model reference: the estimator's physics, one candidate at a time
# ----------------------------------------------------------------------
def _reference_estimate(est, state):
    """One candidate's full-model estimate written out on its own:
    Eq. (7) power and Eq. (6) leakage at the observer field, ``solve``,
    the Eq. (5) ``transient.step``, then ``tec_power_w`` and the fan."""
    system = est.system
    comp = system.nodes.component_slice
    p_dyn = est.dyn_tracker.predict(state.dvfs)
    p_leak = system.power.controller_leakage.per_component_w(
        est._t_nodes_k[comp]
    )
    t_steady = system.solver.solve(p_dyn + p_leak, state.fan_level, state.tec)
    t_next = system.transient.step(
        est._t_nodes_k, t_steady, est._dt_s, state.fan_level, state.tec
    )
    p_cores = float(p_dyn.sum() + p_leak.sum())
    p_tec = system.tec_power_w(state.tec, t_next)
    p_fan = system.fan.power_w(state.fan_level)
    p_chip = p_cores + p_tec + p_fan
    ips = float(np.sum(est.ips_predictor.predict(state.dvfs)))
    return Estimate(
        state=state,
        t_nodes_k=t_next,
        peak_temp_c=float(units.k_to_c(t_next[comp]).max()),
        p_chip_w=p_chip,
        p_cores_w=p_cores,
        p_tec_w=p_tec,
        p_fan_w=p_fan,
        ips_chip=ips,
        epi=EnergyProblem.epi(p_chip, ips),
    )


class _ReferenceEstimator(NextIntervalEstimator):
    """Full-model estimator whose every evaluation is the reference."""

    def evaluate(self, state):
        if self._t_nodes_k is None:
            raise ControlError("begin_interval must be called first")
        self.n_evaluations += 1
        return _reference_estimate(self, state)

    def evaluate_many(self, states):
        return _batch_of([self.evaluate(s) for s in states])


def _batch_of(estimates):
    """An :class:`EstimateBatch` whose rows are ``estimates``."""
    return EstimateBatch(
        [e.state for e in estimates],
        *(
            np.array([getattr(e, attr) for e in estimates])
            for _, attr in BATCH_SCORES
        ),
        field_of=lambda j: estimates[j].t_nodes_k,
    )


def _assert_same_estimates(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.state is w.state
        assert np.array_equal(g.t_nodes_k, w.t_nodes_k)
        for name in ESTIMATE_SCALARS:
            assert getattr(g, name) == getattr(w, name)


def test_full_evaluate_many_matches_reference_bitwise(system):
    est, state = _primed_estimator(NextIntervalEstimator, system)
    ref, _ = _primed_estimator(_ReferenceEstimator, system)
    cands = _candidates(system, state)
    _assert_same_estimates(est.evaluate_many(cands), ref.evaluate_many(cands))
    assert est.n_evaluations == ref.n_evaluations
    # A committed field moves the leakage and the transient start point;
    # states scored before the commit answer against the new field.
    for e in (est, ref):
        e.commit(e.evaluate(cands[0]))
    moved = _candidates(system, cands[0].with_fan(3)) + cands[:3]
    _assert_same_estimates(est.evaluate_many(moved), ref.evaluate_many(moved))
    assert est.n_evaluations == ref.n_evaluations


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [NextIntervalEstimator, LocalBandedEstimator])
def test_evaluate_many_matches_evaluate_bitwise(system, cls):
    est_batched, state = _primed_estimator(cls, system)
    est_seq, _ = _primed_estimator(cls, system)
    cands = _candidates(system, state)
    batched = est_batched.evaluate_many(cands)
    sequential = [est_seq.evaluate(c) for c in cands]
    assert len(batched) == len(cands)  # the duplicate is scored twice
    for b, s in zip(batched, sequential):
        assert np.array_equal(b.t_nodes_k, s.t_nodes_k)
        for name in ESTIMATE_SCALARS:
            assert getattr(b, name) == getattr(s, name)
    # Complexity accounting must agree too: the benchmark's O(NL + N^2 M)
    # claim counts evaluations, not wall time.
    assert est_batched.n_evaluations == est_seq.n_evaluations == len(cands)
    if hasattr(est_batched, "n_core_solves"):
        assert est_batched.n_core_solves == est_seq.n_core_solves
    # An empty candidate list is an empty batch, and scores nothing.
    empty = est_batched.evaluate_many([])
    assert len(empty) == 0 and list(empty) == []
    for name, _ in BATCH_SCORES:
        assert getattr(empty, name).shape == (0,)
    assert est_batched.n_evaluations == len(cands)


@pytest.mark.parametrize("cls", [NextIntervalEstimator, LocalBandedEstimator])
def test_evaluate_many_requires_begin_interval(system, cls):
    from repro.exceptions import ControlError

    est = cls(system=system, ips_predictor=IPSTracker(dvfs=system.dvfs))
    state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level, 1
    )
    with pytest.raises(ControlError):
        est.evaluate_many([state])


# ----------------------------------------------------------------------
# Whole-engine decision identity
# ----------------------------------------------------------------------
def test_engine_full_estimator_matches_reference(monkeypatch):
    def run():
        system = build_system(rows=2, cols=2)
        wl = splash2_workload("lu", 4, system.chip)
        engine = SimulationEngine(
            system,
            EnergyProblem(t_threshold_c=70.0),
            EngineConfig(max_time_s=0.05),
        )
        controller = TECfanController(estimator_kind="full")
        return engine.run(
            WorkloadRun(wl, system.chip, REF_FREQ_GHZ), controller
        )

    res = run()
    built: list = []

    def reference(**kwargs):
        built.append(_ReferenceEstimator(**kwargs))
        return built[-1]

    monkeypatch.setattr(engine_module, "NextIntervalEstimator", reference)
    ref = run()
    assert len(built) == 1 and built[0].n_evaluations > 0
    assert res.metrics == ref.metrics
    assert res.trace._rows == ref.trace._rows
    for name in ("tec", "dvfs", "fan_level"):
        assert np.array_equal(
            getattr(res.final_state, name), getattr(ref.final_state, name)
        )


class _ReferenceBandedEstimator(LocalBandedEstimator):
    """Banded estimator whose every evaluation is the per-core reference:
    the base prediction and each changed core solved on their own
    (``_reference_core``), scored from the assembled field."""

    def begin_interval(self, *args, **kwargs):
        super().begin_interval(*args, **kwargs)
        self._ref_base = None

    def evaluate(self, state):
        from tests.test_core_local_estimator import (
            _changed_cores,
            _reference_base,
            _reference_scores,
        )

        if self._t_nodes_k is None:
            raise ControlError("begin_interval must be called first")
        if self._ref_base is None:
            self._ref_base = _reference_base(self)
            self.n_core_solves += self.system.n_cores
        self.n_evaluations += 1
        self.n_core_solves += len(
            _changed_cores(self.system, self._base_state, state)
        )
        field, scores = _reference_scores(self, self._ref_base, state)
        return Estimate(
            state=state,
            t_nodes_k=field,
            **{attr: scores[name] for name, attr in BATCH_SCORES},
        )

    def evaluate_many(self, states):
        return _batch_of([self.evaluate(s) for s in states])


def test_engine_banded_estimator_matches_reference(monkeypatch):
    def run():
        system = build_system(rows=2, cols=2)
        wl = splash2_workload("lu", 4, system.chip)
        engine = SimulationEngine(
            system,
            EnergyProblem(t_threshold_c=70.0),
            EngineConfig(max_time_s=0.05),
        )
        return engine.run(
            WorkloadRun(wl, system.chip, REF_FREQ_GHZ), TECfanController()
        )

    def spy(cls, built):
        def make(**kwargs):
            built.append(cls(**kwargs))
            return built[-1]

        return make

    fast: list = []
    monkeypatch.setattr(
        engine_module, "LocalBandedEstimator", spy(LocalBandedEstimator, fast)
    )
    res = run()
    ref: list = []
    monkeypatch.setattr(
        engine_module,
        "LocalBandedEstimator",
        spy(_ReferenceBandedEstimator, ref),
    )
    want = run()
    assert len(fast) == len(ref) == 1 and ref[0].n_evaluations > 0
    assert result_digest(res) == result_digest(want)
    assert fast[0].n_evaluations == ref[0].n_evaluations
    assert fast[0].n_core_solves == ref[0].n_core_solves
