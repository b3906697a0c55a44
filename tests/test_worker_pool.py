"""Persistent worker-pool runtime: identity, resilience, warm reuse.

Worker functions live at module level: the spawn start method pickles
them by qualified name and re-imports this module in each child.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.analysis.faultmatrix import run_fault_matrix
from repro.core.baselines import FanTECController
from repro.core.engine import EngineConfig, SimulationEngine, run_fan_sweep
from repro.core.problem import EnergyProblem
from repro.core.system import build_system
from repro.journal import TaskJournal, scan_journal
from repro.obs import Telemetry, telemetry_session
from repro.exceptions import ParallelExecutionError
from repro.parallel import WorkerPool, parallel_map
from repro.perf import splash2_workload
from repro.perf.splash2 import REF_FREQ_GHZ
from repro.perf.workload import WorkloadRun

_TRACE_FIELDS = (
    "time_s",
    "dt_s",
    "peak_temp_c",
    "p_chip_w",
    "p_tec_w",
    "p_fan_w",
    "ips_chip",
    "tec_on",
    "fan_level",
    "mean_dvfs_level",
)


def assert_results_identical(a, b) -> None:
    """PR 3's bit-identity check: every trace field, metrics, state."""
    for fld in _TRACE_FIELDS:
        assert np.array_equal(
            getattr(a.trace, fld), getattr(b.trace, fld)
        ), fld
    assert a.metrics == b.metrics
    assert np.array_equal(a.final_state.tec, b.final_state.tec)
    assert np.array_equal(a.final_state.dvfs, b.final_state.dvfs)
    assert a.final_state.fan_level == b.final_state.fan_level


def _small_setup():
    system = build_system(rows=2, cols=2)
    wl = splash2_workload("lu", 4, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=70.0),
        EngineConfig(max_time_s=0.02),
    )
    return system, wl, engine


# ----------------------------------------------------------------------
# serial-vs-pool bit-identity (the drop-in-replacement contract)
# ----------------------------------------------------------------------
def test_fan_sweep_pool_bit_identical_to_serial():
    system, wl, engine = _small_setup()

    def make_run():
        return WorkloadRun(wl, system.chip, REF_FREQ_GHZ)

    chosen_s, sweep_s = run_fan_sweep(
        engine, make_run, FanTECController(), jobs=None
    )
    chosen_p, sweep_p = run_fan_sweep(
        engine, make_run, FanTECController(), jobs=2
    )
    assert_results_identical(chosen_s, chosen_p)
    assert sweep_s == sweep_p  # RunMetrics dataclasses, field for field


def _outcomes_equal(a, b) -> bool:
    if (a.scenario, a.hardened, a.crashed, a.error) != (
        b.scenario,
        b.hardened,
        b.crashed,
        b.error,
    ):
        return False
    if a.counters != b.counters:
        return False
    for fld in ("peak_temp_c", "excess_frac", "violation_rate", "energy_j"):
        x, y = getattr(a, fld), getattr(b, fld)
        if x != y and not (math.isnan(x) and math.isnan(y)):
            return False
    return True


def test_fault_matrix_pool_matches_serial():
    system = build_system(rows=2, cols=2)
    kwargs = dict(
        workload="lu",
        threads=4,
        max_time_s=0.1,
        t_fault_s=0.004,
        mission_scale=2,
    )
    serial = run_fault_matrix(system, jobs=None, **kwargs)
    pooled = run_fault_matrix(system, jobs=2, **kwargs)
    assert serial.t_threshold_c == pooled.t_threshold_c
    assert serial.hot_component == pooled.hot_component
    # reference + (4 scenarios x 2 variants - the rerun (none, raw)) = 8
    assert len(serial.outcomes) == len(pooled.outcomes) == 8
    for a, b in zip(serial.outcomes, pooled.outcomes):
        assert _outcomes_equal(a, b), (a.scenario, a.hardened)


# ----------------------------------------------------------------------
# resilience on the pool: timeout kill + worker replacement
# ----------------------------------------------------------------------
def _hang_or_square(payload):
    if payload == "hang":
        time.sleep(600.0)
    return payload * payload


def test_timeout_kills_task_and_replaces_worker(pool_clock):
    done = {}
    cue = pool_clock.advance_after(5, 60.0)

    def on_result(index, value):
        done[index] = value
        cue(index, value)

    tel = Telemetry()
    with telemetry_session(tel), WorkerPool(2) as pool:
        with pytest.raises(ParallelExecutionError) as err:
            pool.map(
                _hang_or_square,
                [1, "hang", 2, 3, 4, 5],
                timeout_s=10.0,
                on_result=on_result,
            )
        # The killed worker was replaced: the pool keeps its capacity
        # and serves the next batch.
        assert pool.map(_hang_or_square, [6, 7]) == [36, 49]
        assert pool.n_workers == 2
    # The hung task is the one failure, named as a timeout...
    assert [index for index, _ in err.value.failures] == [1]
    assert err.value.failures[0][1].startswith("[timeout]")
    # ...and every other task, including those queued behind the hang,
    # still completed.
    assert done == {0: 1, 2: 4, 3: 9, 4: 16, 5: 25}
    assert tel.metrics.counter("parallel.timeouts").value == 1
    assert tel.metrics.counter("parallel.pool_tasks").value == 8


def _pid_or_lambda(x):
    if x == 1:
        return lambda: x  # a local function cannot be pickled
    return os.getpid()


def test_unpicklable_result_fails_only_its_task():
    done = {}
    with WorkerPool(2) as pool:
        pool.prime()
        pids = {w.proc.pid for w in pool._idle}
        with pytest.raises(ParallelExecutionError) as err:
            pool.map(_pid_or_lambda, list(range(6)), on_result=done.__setitem__)
        # No worker died or was replaced over it.
        assert {w.proc.pid for w in pool._idle + pool._busy} == pids
    assert [index for index, _ in err.value.failures] == [1]
    detail = err.value.failures[0][1]
    assert detail.startswith("[error] Traceback")
    assert "pickle.dumps" in detail
    assert "Can't pickle local object" in detail
    assert sorted(done) == [0, 2, 3, 4, 5]
    assert set(done.values()) <= pids


# ----------------------------------------------------------------------
# warm context reuse + counters
# ----------------------------------------------------------------------
def _count_with_context(ctx, payload):
    # The shared context is a mutable list the worker keeps between
    # tasks: its growth is only visible if the *same* object is reused.
    ctx.append(payload)
    return len(ctx)


def test_context_object_is_reused_warm_across_tasks():
    tel = Telemetry()
    with telemetry_session(tel):
        out = parallel_map(
            _count_with_context, list(range(6)), jobs=2, context=[]
        )
    # 6 tasks on 2 workers: some worker saw its context grow.
    assert max(out) > 1
    assert sum(out) >= 6
    # Every dispatch after a worker's first found the context installed.
    warm = tel.metrics.counter("parallel.worker_cache_warm_hits").value
    assert warm >= 6 - 2
    assert tel.metrics.counter("parallel.pool_tasks").value == 6


def _instrumented_task(x):
    from repro.obs import telemetry as obs

    obs.incr("task.calls")
    obs.incr("task.units", x)
    return x


def test_counter_conservation_with_warm_workers():
    # Counter totals must not depend on how tasks landed on (warm)
    # workers: jobs=2 over 8 tasks merges exactly the serial totals.
    def totals(jobs):
        tel = Telemetry()
        with telemetry_session(tel):
            parallel_map(_instrumented_task, list(range(8)), jobs=jobs)
        return {
            n: c.value
            for n, c in tel.metrics._counters.items()
            if not n.startswith("parallel.")
        }

    serial = totals(None)
    pooled = totals(2)
    assert serial == {"task.calls": 8, "task.units": 28}
    assert pooled == serial
    # And the merge provenance is intact: one capture per task.
    tel = Telemetry()
    with telemetry_session(tel):
        parallel_map(_instrumented_task, list(range(8)), jobs=2)
    assert tel.metrics.counter("parallel.worker_sessions").value == 8


# ----------------------------------------------------------------------
# result transport
# ----------------------------------------------------------------------
def _big_trace(n):
    return np.arange(float(n)), {"n": n}


def test_bulk_results_come_back_equal_and_writable():
    out = parallel_map(_big_trace, [50_000, 60_000], jobs=2)
    for arr, meta in out:
        assert arr.shape == (meta["n"],)
        assert np.array_equal(arr, np.arange(float(meta["n"])))
        assert arr.flags.writeable
        arr[0] = -1.0  # the parent owns the memory


def _worker_pid(_payload):
    return os.getpid()


def test_pool_persists_workers_across_map_calls():
    with WorkerPool(2) as pool:
        pool.prime()
        first = set(pool.map(_worker_pid, list(range(8))))
        second = set(pool.map(_worker_pid, list(range(8))))
    assert first == second  # same processes served both batches
    assert len(first) <= 2


# ----------------------------------------------------------------------
# crash recovery: journaled fan-outs survive killed workers and drivers
# ----------------------------------------------------------------------
def _die_if_marker(task):
    x, marker = task
    if x == 3 and os.path.exists(marker):
        os.unlink(marker)
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def test_worker_sigkill_then_journal_resume_completes(tmp_path):
    marker = tmp_path / "die-once"
    marker.write_text("armed")
    journal_path = tmp_path / "batch.tfj"
    payloads = [(x, str(marker)) for x in range(6)]

    # First attempt: the worker holding task 3 SIGKILLs itself mid-task.
    # Completed siblings land in the journal; the dead task does not
    # (only successes are ever journaled).
    with TaskJournal(journal_path, header={"kind": "sq"}) as j:
        with pytest.raises(ParallelExecutionError) as err:
            parallel_map(_die_if_marker, payloads, jobs=2, journal=j)
    assert [index for index, _ in err.value.failures] == [3]
    assert err.value.failures[0][1].startswith("[died]")
    _, _, tasks, _ = scan_journal(journal_path)
    assert set(tasks) == {0, 1, 2, 4, 5}

    # Resume (marker consumed): only the missing cell re-executes, and
    # the merged results equal a clean run's.
    tel = Telemetry()
    with telemetry_session(tel):
        with TaskJournal(journal_path, header={"kind": "sq"}) as j:
            out = parallel_map(_die_if_marker, payloads, jobs=2, journal=j)
    assert out == [x * x for x in range(6)]
    assert tel.metrics.counter("journal.tasks_skipped").value == 5
    assert tel.metrics.counter("journal.tasks_recorded").value == 1


_MATRIX_KWARGS = dict(
    workload="lu",
    threads=4,
    max_time_s=0.1,
    t_fault_s=0.004,
    mission_scale=2,
)

_MATRIX_DRIVER = """
import sys
from repro.analysis.faultmatrix import run_fault_matrix
from repro.core.system import build_system

run_fault_matrix(
    build_system(rows=2, cols=2),
    workload="lu", threads=4, max_time_s=0.1, t_fault_s=0.004,
    mission_scale=2, jobs=2, journal_path=sys.argv[1],
)
"""


def test_driver_sigkill_mid_fault_matrix_resumes_bit_identical(tmp_path):
    journal_path = tmp_path / "matrix.tfj"
    src_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _MATRIX_DRIVER, str(journal_path)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # Poll the journal read-only until at least one cell landed, then
    # SIGKILL the whole driver (its pool workers are daemonic and die
    # with it).
    deadline = time.monotonic() + 180.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break  # driver finished before we got to kill it: still fine
        try:
            _, _, tasks, _ = scan_journal(journal_path)
        except FileNotFoundError:
            tasks = {}
        if tasks:
            break
        time.sleep(0.05)
    proc.kill()
    proc.wait()

    system = build_system(rows=2, cols=2)
    clean = run_fault_matrix(system, jobs=2, **_MATRIX_KWARGS)
    tel = Telemetry()
    with telemetry_session(tel):
        resumed = run_fault_matrix(
            system, jobs=2, journal_path=journal_path, **_MATRIX_KWARGS
        )
    # The killed driver journaled at least one cell; the resume skipped
    # it rather than re-running.
    assert tel.metrics.counter("journal.tasks_skipped").value >= 1
    assert resumed.t_threshold_c == clean.t_threshold_c
    assert resumed.hot_component == clean.hot_component
    assert len(resumed.outcomes) == len(clean.outcomes)
    for a, b in zip(clean.outcomes, resumed.outcomes):
        assert _outcomes_equal(a, b), (a.scenario, a.hardened)


# ----------------------------------------------------------------------
# shutdown
# ----------------------------------------------------------------------
def _sleep_long(seconds):
    time.sleep(seconds)
    return seconds


def test_close_reclaims_busy_workers_and_is_idempotent():
    tel = Telemetry()
    with telemetry_session(tel):
        pool = WorkerPool(2)
        pool.prime()
        procs = [w.proc for w in pool._idle + pool._busy]
        assert procs
        # Park a worker mid-task so close() exercises the kill path —
        # the state a mid-sweep KeyboardInterrupt leaves behind.
        worker = pool._idle.pop(0)
        pool._busy.append(worker)
        worker.conn.send(("task", 99, _sleep_long, 600.0, None, False))
        pool.close()
        pool.close()  # idempotent: second call is a no-op
    assert pool.n_workers == 0
    assert all(not p.is_alive() for p in procs)
    assert all(w.conn.closed for w in [worker])
