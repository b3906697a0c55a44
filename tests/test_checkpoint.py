"""Deterministic checkpoint/resume of mid-flight simulations.

The contract under test (docs/ROBUSTNESS.md): a run that writes
periodic checkpoints produces exactly the result of one that doesn't,
and resuming the last mid-run checkpoint completes to a result that is
bit-identical, field by field, to the uninterrupted run — on the
classic engine and the hardened (faults + watchdog + health +
fallback) configuration.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    load_checkpoint,
    result_digest,
    resume_engine_run,
    write_checkpoint,
)
from repro.core.engine import EngineConfig, SimulationEngine
from repro.core.problem import EnergyProblem
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.exceptions import CheckpointError, ConfigurationError
from repro.faults import FaultScheduler, HealthConfig, WatchdogConfig
from repro.perf import splash2_workload
from repro.perf.splash2 import REF_FREQ_GHZ
from repro.perf.workload import WorkloadRun

_TRACE_FIELDS = (
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


def assert_identical(a, b) -> None:
    """Field-by-field bit-identity across trace, metrics and state."""
    for fld in _TRACE_FIELDS:
        assert np.array_equal(
            getattr(a.trace, fld), getattr(b.trace, fld)
        ), fld
    assert a.metrics == b.metrics
    assert np.array_equal(a.final_state.tec, b.final_state.tec)
    assert np.array_equal(a.final_state.dvfs, b.final_state.dvfs)
    assert a.final_state.fan_level == b.final_state.fan_level
    assert result_digest(a) == result_digest(b)


def _fault_script() -> FaultScheduler:
    return FaultScheduler.from_spec(
        [
            {
                "kind": "sensor_dropout",
                "t_start_s": 0.004,
                "component": 1,
                "p_drop": 0.5,
            },
            {"kind": "sensor_stuck", "t_start_s": 0.006, "component": 2},
            {"kind": "tec_stuck", "t_start_s": 0.008, "device": 3},
        ],
        seed=11,
    )


_CONFIGS = {
    "classic": lambda: {},
    "hardened": lambda: {
        "faults": _fault_script(),
        "watchdog": WatchdogConfig(),
        "health": HealthConfig(),
        "estimator_fallback": True,
    },
}


def _run(extra: dict, max_time_s: float = 0.02):
    system = build_system(rows=2, cols=2)
    wl = splash2_workload("lu", 4, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=70.0),
        EngineConfig(max_time_s=max_time_s, **extra),
    )
    return engine.run(
        WorkloadRun(wl, system.chip, REF_FREQ_GHZ), TECfanController()
    )


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_checkpoint_no_perturb_and_resume_bit_identical(name, tmp_path):
    baseline = _run(_CONFIGS[name]())
    ck = str(tmp_path / "ck.pkl")
    # Checkpointing must be a pure observer: same result to the bit.
    with_ck = _run(
        dict(
            _CONFIGS[name](),
            checkpoint_path=ck,
            checkpoint_every_s=0.007,
        )
    )
    assert_identical(baseline, with_ck)
    assert os.path.exists(ck)
    # ...and the last mid-run checkpoint completes to the same result.
    resumed = resume_engine_run(ck)
    assert_identical(baseline, resumed)


def test_checkpoint_estimator_carries_no_caches(tmp_path):
    """The estimator in a checkpoint holds state only: no core table, no
    pattern interning or per-core contexts."""
    ck = str(tmp_path / "ck.pkl")
    _run(dict(checkpoint_path=ck, checkpoint_every_s=0.007))
    est = load_checkpoint(ck, kind="engine-run")["estimator"]
    assert "_cache" not in est.__dict__
    assert not est._have.any() and len(est._table) == 0
    assert not est._patterns and not est._tec_pids and not est._static_ctx
    assert est._bnd is None


def test_resume_from_every_cadence_is_identical(tmp_path):
    """Fine cadence: many snapshots, resume still lands on the bit."""
    baseline = _run({})
    ck = str(tmp_path / "ck.pkl")
    _run({"checkpoint_path": ck, "checkpoint_every_s": 0.002})
    assert_identical(baseline, resume_engine_run(ck))


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    every_s=st.floats(min_value=0.0015, max_value=0.018),
    mode=st.sampled_from(["classic", "hardened"]),
)
# Both modes always run: the hardened engine is the one whose fault
# scheduler, RNG streams and guard state machines must survive the
# snapshot.
@example(every_s=0.005, mode="classic")
@example(every_s=0.005, mode="hardened")
def test_random_checkpoint_instant_resumes_identical(every_s, mode):
    baseline = _run(_CONFIGS[mode]())
    # tempfile instead of tmp_path: function-scoped fixtures trip the
    # hypothesis health check (one directory would be reused across
    # examples).
    with tempfile.TemporaryDirectory() as d:
        ck = os.path.join(d, "ck.pkl")
        with_ck = _run(
            dict(
                _CONFIGS[mode](),
                checkpoint_path=ck,
                checkpoint_every_s=every_s,
            ),
        )
        assert_identical(baseline, with_ck)
        assert_identical(baseline, resume_engine_run(ck))


# ----------------------------------------------------------------------
# schema / validation failure modes
# ----------------------------------------------------------------------
def test_checkpoint_config_must_pair_cadence_and_path():
    with pytest.raises(ConfigurationError):
        EngineConfig(max_time_s=0.02, checkpoint_every_s=0.01)
    with pytest.raises(ConfigurationError):
        EngineConfig(max_time_s=0.02, checkpoint_path="ck.pkl")
    with pytest.raises(ConfigurationError):
        EngineConfig(
            max_time_s=0.02,
            checkpoint_path="ck.pkl",
            checkpoint_every_s=0.0,
        )


def test_load_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        load_checkpoint(tmp_path / "nope.pkl")


def test_load_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.pkl"
    path.write_bytes(b"not a pickle at all")
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_wrong_schema(tmp_path):
    path = tmp_path / "old.pkl"
    # Schema 1 predates LoopState (loose state/t_nodes/prev_tec keys);
    # schema 2 still carried the solver-cache recipes and the loop's
    # quiescence-detector fields; schema 3 pickled TECfanController's
    # ``batched`` field and two unrelated estimator classes.
    for schema in (1, 2, 3, CHECKPOINT_SCHEMA + 1):
        write_checkpoint(path, {"schema": schema, "kind": "engine-run"})
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)


def test_load_checkpoint_rejects_wrong_kind(tmp_path):
    path = tmp_path / "other.pkl"
    write_checkpoint(path, {"kind": "something-else"})
    with pytest.raises(CheckpointError, match="expected 'engine-run'"):
        load_checkpoint(path, kind="engine-run")
    # ...but loads fine when the kind matches / is not constrained.
    assert load_checkpoint(path)["kind"] == "something-else"


def test_write_checkpoint_is_atomic_and_counted(tmp_path):
    from repro.obs import Telemetry, telemetry_session

    path = tmp_path / "ck.pkl"
    tel = Telemetry()
    with telemetry_session(tel):
        write_checkpoint(path, {"kind": "engine-run", "x": 1})
    assert path.exists()
    assert not (tmp_path / "ck.pkl.tmp").exists()
    assert tel.metrics.counter("checkpoint.writes").value == 1
    assert tel.metrics.counter("checkpoint.bytes").value > 0
    assert load_checkpoint(path, kind="engine-run")["x"] == 1
