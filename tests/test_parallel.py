"""The parallel fan-out must be a drop-in replacement for serial loops.

Worker functions live at module level: the spawn start method pickles
them by qualified name and re-imports this module in each child (the
same constraint the library's own ``_fan_sweep_task`` obeys).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.experiments import run_policy_suite, run_policy_suites
from repro.core.baselines import FanOnlyController, FanTECController
from repro.core.engine import EngineConfig, SimulationEngine, run_fan_sweep
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.exceptions import ParallelExecutionError
from repro.obs import Telemetry, telemetry_session
from repro.parallel import WorkerPool, parallel_map, resolve_jobs
from repro.perf import splash2_workload
from repro.perf.splash2 import REF_FREQ_GHZ
from repro.perf.workload import WorkloadRun


def _square(x):
    return x * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return x


# ----------------------------------------------------------------------
# parallel_map semantics
# ----------------------------------------------------------------------
def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1
    with pytest.raises(ParallelExecutionError):
        resolve_jobs(-2)


def test_resolve_jobs_env_override(monkeypatch):
    monkeypatch.setenv("TECFAN_JOBS", "5")
    assert resolve_jobs(0) == 5
    # Explicit counts beat the environment.
    assert resolve_jobs(2) == 2


@pytest.mark.parametrize("raw", ["abc", "2.5", "-3"])
def test_malformed_jobs_env_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("TECFAN_JOBS", raw)
    with pytest.raises(ParallelExecutionError, match="TECFAN_JOBS"):
        resolve_jobs(0)
    # An explicit count never reads the environment.
    assert resolve_jobs(2) == 2


@pytest.mark.parametrize("raw", ["x", "1.5", "-1"])
def test_malformed_retries_env_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("TECFAN_JOB_RETRIES", raw)
    with pytest.raises(ParallelExecutionError, match="TECFAN_JOB_RETRIES"):
        parallel_map(_square, [1, 2], jobs=1)


def test_malformed_timeout_env_names_the_variable(monkeypatch):
    monkeypatch.setenv("TECFAN_JOB_TIMEOUT_S", "soon")
    with pytest.raises(ParallelExecutionError, match="TECFAN_JOB_TIMEOUT_S"):
        parallel_map(_square, [1, 2], jobs=1)


@pytest.mark.parametrize("raw", ["0", "-5", " "])
def test_non_positive_timeout_env_means_no_deadline(monkeypatch, raw):
    from repro.parallel import _resolve_timeout

    monkeypatch.setenv("TECFAN_JOB_TIMEOUT_S", raw)
    assert _resolve_timeout(None) is None


def test_resolve_jobs_auto_honors_cpu_affinity(monkeypatch):
    # A cgroup-limited container may report 64 cpu_count() cores but
    # only 3 in the affinity mask — auto must size the pool to the mask.
    monkeypatch.delenv("TECFAN_JOBS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_jobs(0) == 3
    # Without the syscall (non-Linux), fall back to cpu_count().
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_jobs(0) == 64


def test_serial_path_runs_in_process():
    calls = []

    def local_fn(x):  # closures only work serially — by design
        calls.append(x)
        return -x

    assert parallel_map(local_fn, [1, 2, 3], jobs=None) == [-1, -2, -3]
    assert calls == [1, 2, 3]


def test_parallel_results_ordered_and_equal_to_serial():
    payloads = list(range(20))
    serial = parallel_map(_square, payloads, jobs=1)
    parallel = parallel_map(_square, payloads, jobs=4)
    assert parallel == serial == [x * x for x in payloads]


def test_single_payload_short_circuits():
    # One task never pays pool start-up, whatever jobs says.
    assert parallel_map(_square, [7], jobs=8) == [49]


def test_worker_failure_surfaces_clean_exception():
    with pytest.raises(ParallelExecutionError) as err:
        parallel_map(_fail_on_odd, [0, 1, 2, 3], jobs=2)
    failed = [index for index, _ in err.value.failures]
    assert failed == [1, 3]
    assert "odd payload 1" in str(err.value)
    assert "odd payload 3" in str(err.value)


def test_serial_failure_raises_original_exception():
    with pytest.raises(ValueError):
        parallel_map(_fail_on_odd, [0, 1], jobs=1)


# ----------------------------------------------------------------------
# Resilience: timeouts and retries
# ----------------------------------------------------------------------
def _hang_or_square(payload):
    x, hang_s = payload
    if hang_s:
        time.sleep(hang_s)
    return x * x


def _flaky(payload):
    """Fails once per sentinel path, succeeds on the retry.

    The sentinel file is how the failure state crosses the process
    boundary: attempt one creates it and raises, attempt two (a fresh
    worker) sees it and succeeds.
    """
    x, sentinel = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("attempted")
        raise RuntimeError(f"transient failure for {x}")
    return x * x


def test_hung_worker_raises_by_default(pool_clock):
    with WorkerPool(2) as pool, pytest.raises(ParallelExecutionError) as err:
        pool.map(
            _hang_or_square,
            [(0, 0.0), (1, 600.0)],
            timeout_s=10.0,
            on_result=pool_clock.advance_after(1, 60.0),
        )
    failed = [index for index, _ in err.value.failures]
    assert failed == [1]
    assert "[timeout]" in str(err.value)


def test_transient_failure_retried_to_success(tmp_path):
    payloads = [
        (3, str(tmp_path / "a.sentinel")),
        (4, str(tmp_path / "b.sentinel")),
    ]
    tel = Telemetry()
    with telemetry_session(tel):
        out = parallel_map(_flaky, payloads, jobs=2, retries=1)
    assert out == [9, 16]
    counters = tel.metrics.snapshot()["counters"]
    assert counters["parallel.retries"] == 2


def test_retries_exhausted_collects_traceback(monkeypatch):
    import repro.parallel

    monkeypatch.setattr(repro.parallel, "BACKOFF_S", 0.01)
    tel = Telemetry()
    with telemetry_session(tel), pytest.raises(ParallelExecutionError) as err:
        parallel_map(_fail_on_odd, [0, 1, 2, 3], jobs=2, retries=1)
    # The error names every task that ran out of attempts, each with
    # the traceback of its last attempt.
    assert [index for index, _ in err.value.failures] == [1, 3]
    for index, detail in err.value.failures:
        assert detail.startswith("[error] Traceback")
        assert f"ValueError: odd payload {index}" in detail
    counters = tel.metrics.snapshot()["counters"]
    assert counters["parallel.retries"] == 2
    assert counters["parallel.pool_tasks"] == 4


def test_serial_retry_then_original_exception(monkeypatch, tmp_path):
    import repro.parallel

    monkeypatch.setattr(repro.parallel, "BACKOFF_S", 0.01)
    payloads = [(5, str(tmp_path / "serial.sentinel"))]
    assert parallel_map(_flaky, payloads, jobs=1, retries=1) == [25]
    # Once the retries run out, the serial path re-raises the task's
    # own exception, whatever ``retries`` is.
    tel = Telemetry()
    with telemetry_session(tel), pytest.raises(ValueError, match="odd payload 1"):
        parallel_map(_fail_on_odd, [0, 1, 2], jobs=1, retries=2)
    assert tel.metrics.counter("parallel.retries").value == 2


def test_env_defaults_for_resilience(monkeypatch, tmp_path):
    monkeypatch.setenv("TECFAN_JOB_RETRIES", "1")
    payloads = [
        (6, str(tmp_path / "env-a.sentinel")),
        (7, str(tmp_path / "env-b.sentinel")),
    ]
    assert parallel_map(_flaky, payloads, jobs=2) == [36, 49]


def test_resilient_path_matches_fast_path_results():
    payloads = list(range(8))
    fast = parallel_map(_square, payloads, jobs=4)
    resilient = parallel_map(
        _square, payloads, jobs=4, timeout_s=120.0, retries=2
    )
    assert resilient == fast


# ----------------------------------------------------------------------
# Driver integration
# ----------------------------------------------------------------------
def _small_setup():
    system = build_system(rows=2, cols=2)
    wl = splash2_workload("lu", 4, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=70.0),
        EngineConfig(max_time_s=0.02),
    )
    return system, wl, engine


def test_fan_sweep_parallel_matches_serial():
    system, wl, engine = _small_setup()

    def make_run():
        return WorkloadRun(wl, system.chip, REF_FREQ_GHZ)

    chosen_s, sweep_s = run_fan_sweep(engine, make_run, FanTECController())
    chosen_p, sweep_p = run_fan_sweep(
        engine, make_run, FanTECController(), jobs=2
    )
    assert sweep_p == sweep_s
    assert chosen_p.metrics == chosen_s.metrics


def test_policy_suite_parallel_matches_serial():
    system = build_system(rows=2, cols=2)
    policies = [FanOnlyController(), FanTECController()]
    base_s, out_s = run_policy_suite(
        system, "lu", 4, policies=policies, jobs=None
    )
    base_p, out_p = run_policy_suite(
        system, "lu", 4, policies=policies, jobs=2
    )
    assert list(out_p) == list(out_s)
    for name in out_s:
        assert out_p[name].chosen.metrics == out_s[name].chosen.metrics
        assert out_p[name].sweep == out_s[name].sweep


def test_policy_suites_pooled_matches_serial_in_one_pool(monkeypatch):
    """All cases' policy runs share one pool and match the serial runs."""
    from repro.checkpoint import result_digest

    inits = []
    real_init = WorkerPool.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(WorkerPool, "__init__", counting_init)
    cases = [("lu", 4), ("water", 4)]
    # One policy per task kind: base reuse, fan sweep, TECfan's fan rule.
    policies = [FanOnlyController(), FanTECController(), TECfanController()]
    serial = run_policy_suites(
        build_system(rows=2, cols=2), cases, policies, jobs=None
    )
    assert inits == []
    pooled = run_policy_suites(
        build_system(rows=2, cols=2), cases, policies, jobs=2
    )
    assert len(inits) == 1
    assert list(pooled) == list(serial) == cases
    for case, (base_s, out_s) in serial.items():
        base_p, out_p = pooled[case]
        assert result_digest(base_p.result) == result_digest(base_s.result)
        assert list(out_p) == list(out_s)
        for name, oc in out_s.items():
            assert result_digest(out_p[name].chosen) == result_digest(oc.chosen)
            assert out_p[name].sweep == oc.sweep


def test_solver_pickles_without_lu_cache():
    import pickle

    system, _, _ = _small_setup()
    system.solver.solve(
        np.ones(system.nodes.n_components), 1,
        np.zeros(system.n_tec_devices),
    )
    assert len(system.solver._lu_cache) == 1
    clone = pickle.loads(pickle.dumps(system.solver))
    assert len(clone._lu_cache) == 0  # SuperLU objects cannot ship
    state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level, 1
    )
    p = np.ones(system.nodes.n_components)
    a = system.solver.solve(p, state.fan_level, state.tec)
    b = clone.solve(p, state.fan_level, state.tec)
    assert np.array_equal(a, b)
