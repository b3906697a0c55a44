"""Engine integration: instrumentation contract + zero observer effect.

These tests pin the names exported by a profiled run (the contract that
``docs/OBSERVABILITY.md`` documents) and the guarantee that enabling
telemetry does not change the simulation at all.
"""

import pytest

from repro.cli import main
from repro.core.engine import EngineConfig, SimulationEngine
from repro.core.export import metrics_to_json, run_manifest, telemetry_to_jsonl
from repro.core.problem import EnergyProblem
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.obs import Telemetry, read_jsonl, telemetry_session
from repro.perf import splash2_workload
from repro.perf.workload import WorkloadRun

MAX_TIME_S = 0.05  # ~25 recorded 2 ms intervals: enough to exercise spans


def _run_engine():
    """One short, fully deterministic TECfan run on a fresh system."""
    system = build_system()
    workload = splash2_workload("lu", 16, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=85.0),
        EngineConfig(max_time_s=MAX_TIME_S),
    )
    run = WorkloadRun(workload, system.chip, ref_freq_ghz=2.0)
    return engine.run(run, TECfanController())


@pytest.fixture(scope="module")
def profiled():
    """(telemetry, result) of one instrumented engine run."""
    tel = Telemetry()
    with telemetry_session(tel):
        result = _run_engine()
    return tel, result


def test_required_spans_recorded(profiled):
    tel, result = profiled
    spans = tel.snapshot()["spans"]
    for name in ("engine.prime", "engine.run", "engine.step",
                 "controller.decide", "thermal.solve", "thermal.step"):
        assert name in spans, f"span {name!r} missing"
        assert spans[name]["count"] >= 1
        assert spans[name]["total_s"] > 0.0
        assert spans[name]["mean_s"] > 0.0
    # engine.step spans cover priming + the recorded run; the parent
    # edges split them apart: exactly one step per recorded interval
    # nests under engine.run.
    edges = {(e["parent"], e["child"]): e["count"]
             for e in tel.snapshot()["span_edges"]}
    assert edges[("engine.run", "engine.step")] == len(result.trace)
    assert spans["engine.step"]["count"] >= len(result.trace)
    assert ("engine.prime", "engine.step") in edges


def test_contract_counters_present_even_at_zero(profiled):
    tel, result = profiled
    counters = tel.snapshot()["counters"]
    for name in ("engine.intervals", "temp.violations", "tec.switch_events",
                 "fan.level_changes", "controller.hot_iterations",
                 "controller.cool_iterations"):
        assert name in counters, f"counter {name!r} missing"
    assert counters["engine.intervals"] == len(result.trace)
    # TECfan always iterates (hot or cool) every decision.
    assert (counters["controller.hot_iterations"]
            + counters["controller.cool_iterations"]) > 0
    assert counters["estimator.evaluations"] > 0


def test_solver_histogram_and_interval_events(profiled):
    tel, result = profiled
    snap = tel.snapshot()
    hist = snap["histograms"]["thermal.solver_ms"]
    spans = snap["spans"]
    assert hist["count"] == (
        spans["thermal.solve"]["count"] + spans["thermal.solve_many"]["count"]
    )
    assert hist["mean"] > 0.0
    assert snap["histograms"]["engine.peak_temp_c"]["count"] == len(result.trace)

    events = [e for e in tel.events if e["kind"] == "interval"]
    assert len(events) == len(result.trace)
    first = events[0]
    for key in ("time_s", "dt_s", "peak_temp_c", "p_chip_w", "tec_on",
                "fan_level", "mean_dvfs_level"):
        assert key in first


def test_manifest_carries_run_context_and_metrics(profiled):
    tel, result = profiled
    manifest = run_manifest(tel, metrics=result.metrics)
    ctx = manifest["context"]
    assert ctx["workload"] == "lu"
    assert ctx["policy"] == result.metrics.policy
    assert ctx["metrics"]["peak_temp_c"] == result.metrics.peak_temp_c
    assert ctx["engine_config"]["max_time_s"] == MAX_TIME_S
    spans = manifest["telemetry"]["spans"]
    assert spans["thermal.solve"]["total_s"] > 0.0


def test_jsonl_export_round_trips(profiled, tmp_path):
    tel, result = profiled
    path = tmp_path / "run.jsonl"
    telemetry_to_jsonl(tel, path, metrics=result.metrics)
    parsed = read_jsonl(path)
    assert parsed["manifest"]["context"]["metrics"]["energy_j"] == (
        result.metrics.energy_j
    )
    assert parsed["spans"] == tel.snapshot()["spans"]
    assert parsed["counters"]["engine.intervals"] == len(result.trace)
    assert len(parsed["events"]) == len(result.trace)


def test_telemetry_has_no_observer_effect():
    """Enabling telemetry must not change the simulation one bit."""
    plain = _run_engine()
    with telemetry_session():
        observed = _run_engine()
    assert metrics_to_json(observed.metrics) == metrics_to_json(plain.metrics)
    assert observed.trace.peak_temp_c == pytest.approx(
        plain.trace.peak_temp_c, abs=0.0
    )


def test_cli_profile_renders_tables(capsys, tmp_path):
    path = tmp_path / "prof.jsonl"
    rc = main([
        "profile", "--max-time-s", "0.02", "--telemetry", str(path),
    ])
    assert rc == 0
    live = capsys.readouterr().out
    assert "engine.step" in live
    assert "thermal.solve" in live
    assert "controller.cool_iterations" in live
    assert path.exists()

    rc = main(["profile", "--load", str(path)])
    assert rc == 0
    loaded = capsys.readouterr().out
    assert "engine.step" in loaded
    assert "thermal.solver_ms" in loaded
