"""The public error contract: entry points raise ReproError subclasses.

Callers embed this library behind a single ``except ReproError``; a bare
``ValueError`` or ``KeyError`` escaping an entry point for a *user input*
problem is an API break. These tests drive representative bad inputs
through the real entry points (not the internal validators) and assert
both the subclass and the carried diagnostic payload.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.exceptions as exc_mod
from repro.core.engine import EngineConfig
from repro.core.state import ActuatorState
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    FaultInjectionError,
    ParallelExecutionError,
    ReproError,
    ThermalModelError,
    WorkloadError,
)
from repro.faults import FaultScheduler
from repro.parallel import parallel_map, resolve_jobs
from repro.perf import splash2_workload
from repro.thermal.sensors import TemperatureSensorBank


def test_every_package_exception_derives_from_repro_error():
    classes = [
        obj
        for _, obj in inspect.getmembers(exc_mod, inspect.isclass)
        if issubclass(obj, Exception)
    ]
    assert ReproError in classes
    for cls in classes:
        assert issubclass(cls, ReproError), cls.__name__


def test_convergence_error_carries_diagnostics():
    err = ConvergenceError("no fixed point", iterations=50, residual=1.25)
    assert isinstance(err, ThermalModelError)  # catchable as model error
    assert err.iterations == 50
    assert err.residual == 1.25


def test_parallel_error_carries_per_task_failures():
    err = ParallelExecutionError([(2, "trace-a"), (5, "trace-b")])
    assert [i for i, _ in err.failures] == [2, 5]
    assert "task 2" in str(err) and "trace-b" in str(err)


# ----------------------------------------------------------------------
# Entry points: bad user input -> ReproError subclass, nothing else
# ----------------------------------------------------------------------
def test_bad_fan_level_raises_configuration_error(system2):
    with pytest.raises(ConfigurationError):
        system2.fan.power_w(0)
    with pytest.raises(ConfigurationError):
        system2.fan.power_w(system2.fan.n_levels + 1)


def test_out_of_range_dvfs_raises_configuration_error(system2):
    bad = np.full(system2.n_cores, system2.dvfs.n_levels, dtype=int)
    with pytest.raises(ConfigurationError):
        system2.dvfs.frequency_ghz(bad)


def test_actuator_state_validation():
    with pytest.raises(ConfigurationError):
        ActuatorState(
            tec=np.array([0.0, 2.0]),  # activation outside [0, 1]
            dvfs=np.zeros(2, dtype=int),
            fan_level=1,
        )


def test_unknown_workload_raises_workload_error(chip2):
    with pytest.raises(WorkloadError):
        splash2_workload("crysis", 16, chip2)
    with pytest.raises(WorkloadError):
        splash2_workload("cholesky", 7, chip2)  # no Table I row


def test_engine_config_validation_is_repro_error():
    with pytest.raises(ConfigurationError):
        EngineConfig(dt_lower_s=-1.0)
    with pytest.raises(ConfigurationError):
        EngineConfig(dt_lower_s=1.0, fan_period_s=0.5)


def test_malformed_fault_script_is_fault_injection_error():
    # The CLI's --faults path funnels arbitrary JSON through from_spec;
    # every malformed shape must come out as FaultInjectionError.
    for bad in (
        "not a list",
        [{"no_kind": True}],
        [{"kind": "nonsense"}],
        [{"kind": "tec_stuck", "mode": "sideways"}],
        [{"kind": "fan_stuck", "unexpected_param": 1}],
    ):
        with pytest.raises(FaultInjectionError):
            FaultScheduler.from_spec(bad)


def test_sensor_bank_validation_is_repro_error():
    with pytest.raises(ConfigurationError):
        TemperatureSensorBank(bits=0)


def test_parallel_entry_points_raise_repro_errors(monkeypatch):
    with pytest.raises(ParallelExecutionError):
        resolve_jobs(-1)
    monkeypatch.setenv("TECFAN_JOB_RETRIES", "sometimes")
    with pytest.raises(ParallelExecutionError):
        parallel_map(len, [[1]], jobs=2)
