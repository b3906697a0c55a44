"""Live observability plane: status sidecar, watch/top, Prometheus.

The contracts under test (docs/OBSERVABILITY.md "Live monitoring"):

* the status sidecar is written atomically — a reader polling
  mid-rename always gets either the previous or the next *complete*
  snapshot, never a torn one, and sequence numbers never go backwards;
* one reporter writes every kind (``engine-run``, ``pool``, ``fleet``)
  under one envelope, and one renderer draws every kind;
* enabling ``status_path`` on an engine or fleet run is side-effect-free:
  the result is bit-identical (``result_digest`` / ``FleetResult.digest``)
  to the same run without;
* ``tecfan watch --once`` / ``tecfan top --once`` exit 0 against live
  and journal-resumed runs, exit 2 against a missing file;
* the Prometheus exposition renders counters/gauges/histograms in text
  format 0.0.4 and serves them over the ``--metrics-port`` thread.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.checkpoint import result_digest
from repro.cli import main
from repro.core.engine import EngineConfig, SimulationEngine, run_fan_sweep
from repro.core.problem import EnergyProblem
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.core.trace import TraceRecorder
from repro.exceptions import ConfigurationError, ObservabilityError
from repro.obs import Telemetry, telemetry_session
from repro.fleet import FleetConfig, run_fleet
from repro.obs.live import (
    STATUS_SCHEMA,
    MetricsServer,
    StatusReporter,
    _Cadence,
    prometheus_text,
    read_status,
    render_status,
    status_anomalies,
    write_status,
)
from repro.parallel import parallel_map
from repro.perf import splash2_workload
from repro.perf.splash2 import REF_FREQ_GHZ
from repro.perf.workload import WorkloadRun


# ----------------------------------------------------------------------
# Sidecar file: round trip, validation, atomicity
# ----------------------------------------------------------------------
def test_write_read_round_trip(tmp_path):
    path = tmp_path / "s.json"
    write_status(path, {"kind": "engine-run", "seq": 3, "done": False})
    status = read_status(path)
    assert status["schema"] == STATUS_SCHEMA
    assert status["kind"] == "engine-run"
    assert status["seq"] == 3


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(ObservabilityError, match="no status file"):
        read_status(tmp_path / "absent.json")


def test_read_rejects_non_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(b"not json at all {")
    with pytest.raises(ObservabilityError, match="not valid JSON"):
        read_status(path)


def test_read_rejects_unknown_schema(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"schema": 999, "kind": "engine-run"}))
    with pytest.raises(ObservabilityError, match="schema 999"):
        read_status(path)
    # schema-1 sidecars (one layout per reporter) are not read either
    path.write_text(json.dumps({"schema": 1, "kind": "engine-run"}))
    with pytest.raises(ObservabilityError, match="schema 1"):
        read_status(path)
    write_status(path, {"kind": "bogus"})
    with pytest.raises(ObservabilityError, match="unknown kind"):
        read_status(path)


def test_write_counts_snapshots(tmp_path):
    with telemetry_session() as tel:
        write_status(tmp_path / "s.json", {"kind": "pool"})
        counters = tel.metrics.snapshot()["counters"]
    assert counters["live.snapshots_written"] == 1
    assert counters["live.snapshot_bytes"] > 0


def test_concurrent_reads_never_torn(tmp_path):
    """A reader polling mid-rename sees only complete snapshots.

    The writer thread hammers ``write_status`` with increasing ``seq``
    and a payload whose checksum field must match its body; the reader
    polls as fast as it can. Every successful read must parse, carry a
    self-consistent payload, and have a seq no older than the last one
    observed (the tolerant-reader analogue of ``read_stream_parts``).
    """
    path = tmp_path / "s.json"
    n_writes = 300
    stop = threading.Event()
    errors: list[str] = []

    def writer():
        for seq in range(n_writes):
            body = "x" * (seq % 97)
            write_status(
                path,
                {"kind": "pool", "seq": seq, "body": body,
                 "body_len": len(body)},
            )
        stop.set()

    seen = []

    def reader():
        last = -1
        polling = True
        while polling:
            polling = not stop.is_set()  # one final read after the writer
            try:
                status = read_status(path)
            except ObservabilityError as exc:
                if "no status file" in str(exc):
                    continue  # writer has not created it yet
                errors.append(str(exc))
                break
            if status["body_len"] != len(status["body"]):
                errors.append(f"torn payload at seq {status['seq']}")
                break
            if status["seq"] < last:
                errors.append(
                    f"seq went backwards: {status['seq']} < {last}"
                )
                break
            last = status["seq"]
            seen.append(last)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    assert seen, "readers never observed a snapshot"


def test_cadence_first_call_due_then_throttled():
    c = _Cadence(10.0)
    assert c.due(0.0)
    c.advance(0.0)
    assert not c.due(9.99)
    assert c.due(10.0)
    with pytest.raises(ObservabilityError):
        _Cadence(0.0)


# ----------------------------------------------------------------------
# The reporter: one envelope for every kind, one section per kind
# ----------------------------------------------------------------------
KINDS = ("engine-run", "pool", "fleet")


class _StubSystem:
    def component_temps_c(self, t_nodes):
        return np.asarray(t_nodes, dtype=float)


def _loop(time_s, t_nodes, intervals, instructions, fan_level=2):
    return SimpleNamespace(
        time_s=time_s, t_nodes=t_nodes, intervals=intervals,
        total_instructions=instructions,
        state=SimpleNamespace(fan_level=fan_level),
    )


def _trace_with(rows):
    trace = TraceRecorder()
    for t, dt, peak, p in rows:
        trace.append(
            time_s=t, dt_s=dt, peak_temp_c=peak, p_chip_w=p,
            p_cores_w=p, p_tec_w=0.0, p_fan_w=0.0, ips_chip=1e9,
            tec_on=0, fan_level=2, mean_dvfs_level=0.0,
        )
    return trace


def _reporter(kind, path, **kw):
    """A reporter of ``kind`` whose :func:`_fields` snapshot sits at 50%
    progress with a current peak of 82 degC (headroom +3 vs 85)."""
    kw.setdefault("every_s", 1.0)
    kw.setdefault("t_threshold_c", 85.0)
    if kind == "engine-run":
        kw.setdefault("system", _StubSystem())
        return StatusReporter(
            path, kind, label="lu / TECfan", total=1.0, **kw
        )
    if kind == "pool":
        rep = StatusReporter(
            path, kind, label="sweep", total=6, journal="j.tfj",
            cells=[1, 2, 4, 5], replayed=[0, 3], **kw,
        )
        rep.worker_dispatch(101, 0)   # sub-index 0 -> outer cell 1
        rep.worker_dispatch(102, 1)   # sub-index 1 -> outer cell 2
        rep.worker_reply(101)
        rep.tasks["done"] += 1
        rep.tasks["retries"] += 1
        return rep
    return StatusReporter(path, kind, label="fleet x3", total=60.0, **kw)


def _fields(kind, **over):
    if kind == "engine-run":
        fields = dict(
            loop=_loop(0.5, [79.0, 82.0], 2, 2e6),
            trace=_trace_with(
                [(0.0, 0.002, 80.0, 100.0), (0.002, 0.002, 81.0, 110.0)]
            ),
        )
    elif kind == "pool":
        fields = dict(in_flight=1, queued=2)
    else:
        fields = dict(
            time_s=30.0, energy_j=3000.0, power_w=120.0, run_peak_c=84.0,
            node_peak_c=np.array([80.0, 82.0, 81.0]),
            fan_levels=np.array([3, 2, 4]),
            tec_rows=np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]),
            backlog_inst=5.0, p99_s=0.01, utilization=0.5, intervals=20,
            ff_intervals=10, class_groups=3,
        )
    fields.update(over)
    return fields


def _snapshot(kind, tmp_path, *, done=False, reporter=None, **over):
    """One real snapshot of ``kind``, read back, top-level keys overridden."""
    path = tmp_path / f"{kind}.json"
    rep = reporter or _reporter(kind, path)
    rep.report(done=done, **_fields(kind))
    status = read_status(rep.path)
    status.update(over)
    return status


@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_envelope_is_shared(tmp_path, kind):
    path = tmp_path / "s.json"
    rep = _reporter(kind, path)
    with telemetry_session() as tel:
        tel.metrics.counter("demo.count").inc(3)
        assert rep.due()
        rep.report(**_fields(kind))
        heartbeats = tel.metrics.snapshot()["counters"].get(
            "parallel.heartbeats"
        )
    assert heartbeats == (1 if kind == "pool" else None)
    assert not rep.due()  # throttled for every_s of wall time
    status = read_status(path)
    assert status["schema"] == STATUS_SCHEMA == 3
    assert (status["kind"], status["seq"], status["done"]) == (kind, 0, False)
    assert status["label"] == rep.label
    assert status["t_threshold_c"] == 85.0
    prog = status["progress"]
    assert prog["fraction"] == pytest.approx(0.5)
    assert prog["rate"] is None and prog["eta_s"] is None  # one sample
    assert prog["unit"] == ("cells" if kind == "pool" else "sim-s")
    assert status["counters"]["demo.count"] == 3
    assert isinstance(status[kind], dict)
    if kind == "pool":
        assert status["thermal"] is None and status["history"] == []
    else:
        assert status["thermal"]["peak_temp_c"] == pytest.approx(82.0)
        assert status["thermal"]["headroom_c"] == pytest.approx(3.0)
        assert status["history"][-1]["headroom_c"] is not None

    rep.report(done=True, **_fields(kind))
    final = read_status(path)
    assert final["done"] is True and final["seq"] == 1
    assert final["progress"]["fraction"] == 1.0
    assert final["progress"]["eta_s"] == 0.0


def test_reporter_rejects_unknown_kind(tmp_path):
    with pytest.raises(ObservabilityError, match="unknown status kind"):
        StatusReporter(tmp_path / "s.json", "bogus")


def test_run_reporter_snapshot_fields(tmp_path):
    path = tmp_path / "s.json"
    rep = _reporter("engine-run", path)
    trace = _trace_with([(0.0, 0.002, 80.0, 100.0), (0.002, 0.002, 81.0, 110.0)])
    rep.report(loop=_loop(0.004, [79.0, 81.0], 2, 2e6), trace=trace)
    status = read_status(path)
    assert status["progress"]["done"] == pytest.approx(0.004)
    assert status["progress"]["fraction"] == pytest.approx(0.004)
    assert status["thermal"]["peak_temp_c"] == pytest.approx(81.0)
    assert status["thermal"]["headroom_c"] == pytest.approx(4.0)
    assert status["thermal"]["run_peak_c"] == pytest.approx(81.0)
    engine = status["engine-run"]
    # energy folds sum(P * dt) incrementally
    assert engine["energy_j"] == pytest.approx(100.0 * 0.002 + 110.0 * 0.002)
    assert engine["epi_j"] == pytest.approx(0.42 / 2e6)
    assert engine["fan_level"] == 2
    assert engine["core_temps_c"] == [79.0, 81.0]
    assert engine["checkpoint"] is None
    assert len(status["history"]) == 1


def test_run_reporter_incremental_and_cadence(tmp_path):
    path = tmp_path / "s.json"
    rep = _reporter("engine-run", path, every_s=1000.0)
    trace = _trace_with([(0.0, 0.002, 80.0, 100.0)])
    assert rep.due()
    rep.report(loop=_loop(0.002, [80.0], 1, 1e6), trace=trace)
    # not due again for 1000 s of wall time
    assert not rep.due()
    # the terminal snapshot bypasses the cadence and folds only NEW rows
    trace.append(
        time_s=0.002, dt_s=0.002, peak_temp_c=90.0, p_chip_w=200.0,
        p_cores_w=200.0, p_tec_w=0.0, p_fan_w=0.0, ips_chip=1e9,
        tec_on=0, fan_level=2, mean_dvfs_level=0.0,
    )
    rep.report(loop=_loop(0.004, [80.0], 2, 2e6), trace=trace, done=True)
    status = read_status(path)
    assert status["done"] is True
    assert status["progress"]["fraction"] == 1.0
    assert status["engine-run"]["energy_j"] == pytest.approx(
        100.0 * 0.002 + 200.0 * 0.002
    )
    assert status["thermal"]["run_peak_c"] == pytest.approx(90.0)
    assert len(status["history"]) == 2


def test_run_reporter_eta_from_recent_throughput():
    rep = _reporter("engine-run", "unused.json")
    rep.total = 10.0
    rate, eta = rep._eta(100.0, 2.0)
    assert rate is None and eta is None
    rate, eta = rep._eta(101.0, 4.0)  # 2 sim-s per wall-s
    assert rate == pytest.approx(2.0)
    assert eta == pytest.approx((10.0 - 4.0) / 2.0)


def test_pool_reporter_snapshot_fields(tmp_path):
    path = tmp_path / "p.json"
    rep = _reporter("pool", path)
    rep.report(in_flight=1, queued=2)
    pool = read_status(path)["pool"]
    workers = {w["pid"]: w for w in pool.pop("workers")}
    assert pool == {
        "total": 6, "replayed": 2, "done": 1, "failed": 0, "retries": 1,
        "timeouts": 0, "in_flight": 1, "queued": 2,
        "replayed_indices": [0, 3], "journal": "j.tfj",
    }
    assert workers[101]["state"] == "idle"
    assert workers[101]["tasks_done"] == 1
    assert workers[101]["last_reply_unix"] is not None
    assert workers[102]["state"] == "busy"
    assert workers[102]["index"] == 2  # display-mapped outer cell
    rep.worker_retired(102)
    rep.report(done=True)
    assert [w["pid"] for w in read_status(path)["pool"]["workers"]] == [101]


def test_fleet_reporter_snapshot_fields(tmp_path):
    status = _snapshot("fleet", tmp_path)
    fleet = status["fleet"]
    # the hottest nodes first, each with its own actuation
    assert [nd["node"] for nd in fleet["nodes"]] == [1, 2, 0]
    assert fleet["nodes"][0] == {
        "node": 1, "peak_temp_c": 82.0, "fan_level": 2, "tec_on": 2.0,
    }
    assert fleet["n_nodes"] == 3
    # instantaneous power and the run average are separate keys
    assert fleet["power_w"] == 120.0
    assert fleet["avg_power_w"] == pytest.approx(3000.0 / 30.0)
    assert fleet["utilization"] == 0.5
    assert status["thermal"]["run_peak_c"] == 84.0
    sample = status["history"][-1]
    assert sample["fan_level"] == pytest.approx(3.0)
    assert sample["tec_on"] == 3.0


# ----------------------------------------------------------------------
# The renderer + anomaly reuse
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
def test_render_status_shared_lines(tmp_path, kind):
    text = render_status(_snapshot(kind, tmp_path))
    lines = text.splitlines()
    assert lines[0].startswith(f"tecfan {kind} — ")
    assert "[running]" in lines[0]
    assert lines[1].startswith("progress ") and "50.0%" in lines[1]
    assert lines[-1] == "anomalies: none detected"
    if kind != "pool":
        assert "headroom +3.00" in text
        assert any(line.startswith("headroom  ") for line in lines)
    done = render_status(_snapshot(kind, tmp_path, done=True))
    assert "[done]" in done and "100.0%" in done


@pytest.mark.parametrize("kind", ("engine-run", "fleet"))
def test_render_status_flags_threshold_excursion(tmp_path, kind):
    rep = _reporter(kind, tmp_path / "s.json", t_threshold_c=80.0)
    status = _snapshot(kind, tmp_path, reporter=rep)
    assert status["thermal"]["headroom_c"] == pytest.approx(-2.0)
    assert "OVER THRESHOLD" in render_status(status)


def test_render_status_engine_block(tmp_path):
    ckpt = SimpleNamespace(path="ck.pkl", last_write_unix=time.time() - 1.5)
    rep = _reporter("engine-run", tmp_path / "s.json", checkpoint=ckpt)
    with telemetry_session() as tel:
        tel.metrics.counter("thermal.propagator_hits").inc(9)
        tel.metrics.counter("thermal.propagator_misses").inc(1)
        text = render_status(_snapshot("engine-run", tmp_path, reporter=rep))
    assert "lu / TECfan" in text
    assert "EPI 2.100e-07 J/inst" in text
    assert "propagator 90.0% hit" in text
    assert "checkpoint: ck.pkl" in text


def test_render_status_pool_block(tmp_path):
    text = render_status(_snapshot("pool", tmp_path))
    assert "sweep" in text
    assert "3/6 settled" in text
    assert "2 replayed" in text
    assert "1 live" in text
    assert "101" in text
    assert "replayed cells: 0, 3" in text
    assert "journal: j.tfj" in text


def test_render_status_fleet_block(tmp_path):
    text = render_status(_snapshot("fleet", tmp_path))
    assert "fleet x3" in text
    assert "util 0.50" in text
    assert "power 120 W (run avg 100 W)" in text
    table = text.splitlines()
    head = next(i for i, line in enumerate(table) if "peak degC" in line)
    assert table[head + 1].split()[:2] == ["1", "82.00"]


def test_status_anomalies_reuses_tracetools_thresholds(tmp_path):
    # a history whose tail exceeds threshold + margin -> excursion
    hot = [
        {"time_s": i * 0.002, "peak_temp_c": 88.0, "p_chip_w": 100.0,
         "ips_chip": 1e9, "tec_on": 0, "fan_level": 2}
        for i in range(4)
    ]
    found = status_anomalies(_snapshot("engine-run", tmp_path, history=hot))
    assert any(a.kind == "thermal_excursion" for a in found)
    assert status_anomalies(_snapshot("engine-run", tmp_path, history=[])) == []


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_prometheus_text_format(tmp_path):
    snapshot = {
        "counters": {"engine.intervals": 10},
        "gauges": {"fan.level": 2.0},
        "histograms": {
            "thermal.solver_ms": {
                "edges": [1.0, 5.0], "counts": [3, 2], "count": 6,
                "total": 12.5, "mean": 2.08, "min": 0.1, "max": 9.0,
            }
        },
    }
    text = prometheus_text(snapshot, _snapshot("engine-run", tmp_path))
    assert "# TYPE tecfan_engine_intervals_total counter" in text
    assert "tecfan_engine_intervals_total 10" in text
    assert "tecfan_fan_level 2" in text
    # cumulative buckets: 3, then 3+2, then +Inf = count
    assert 'tecfan_thermal_solver_ms_bucket{le="1"} 3' in text
    assert 'tecfan_thermal_solver_ms_bucket{le="5"} 5' in text
    assert 'tecfan_thermal_solver_ms_bucket{le="+Inf"} 6' in text
    assert "tecfan_thermal_solver_ms_sum 12.5" in text
    assert "tecfan_thermal_solver_ms_count 6" in text
    # live status gauges ride along
    assert "tecfan_live_up 1" in text
    assert "tecfan_live_progress_fraction 0.5" in text
    assert "tecfan_live_peak_temp_celsius 82" in text
    assert text.endswith("\n")


#: One line (prefix) of each kind's own gauge table.
_KIND_GAUGE_LINES = {
    "engine-run": "tecfan_live_epi_joules 2.",
    "pool": "tecfan_pool_workers 2",
    "fleet": "tecfan_fleet_power_watts 120",
}


@pytest.mark.parametrize("kind", KINDS)
def test_prometheus_live_gauges_from_envelope(tmp_path, kind):
    text = prometheus_text(None, _snapshot(kind, tmp_path))
    lines = text.splitlines()
    assert "tecfan_live_up 1" in lines
    assert "tecfan_live_done 0" in lines
    assert "tecfan_live_snapshot_seq 0" in lines
    assert "tecfan_live_progress_fraction 0.5" in lines
    assert any(line.startswith(_KIND_GAUGE_LINES[kind]) for line in lines)
    if kind == "pool":
        assert "tecfan_live_peak_temp_celsius" not in text
    else:
        assert "tecfan_live_peak_temp_celsius 82" in lines
        assert "tecfan_live_headroom_celsius 3" in lines
    assert "fleet_peak_temp_celsius" not in text


def test_prometheus_text_pool_gauges(tmp_path):
    status = _snapshot("pool", tmp_path, done=True)
    text = prometheus_text(None, status)
    assert "tecfan_pool_tasks_total 6" in text
    assert "tecfan_pool_tasks_replayed 2" in text
    assert "tecfan_pool_workers 2" in text
    assert "tecfan_live_done 1" in text


def test_metrics_server_scrapes_live_registry(tmp_path):
    tel = Telemetry()
    tel.metrics.counter("engine.intervals").inc(7)
    status_path = tmp_path / "s.json"
    write_status(status_path, _snapshot("engine-run", tmp_path))
    server = MetricsServer(
        0, host="127.0.0.1", status_path=status_path,
        telemetry_getter=lambda: tel,
    )
    try:
        url = f"http://127.0.0.1:{server.port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as resp:
            assert resp.status == 200
            assert "text/plain" in resp.headers["Content-Type"]
            body = resp.read().decode()
        assert "tecfan_engine_intervals_total 7" in body
        assert "tecfan_live_up 1" in body
        # mutation between scrapes is visible (live registry, no cache)
        tel.metrics.counter("engine.intervals").inc(3)
        with urllib.request.urlopen(url, timeout=10) as resp:
            assert "tecfan_engine_intervals_total 10" in resp.read().decode()
    finally:
        server.close()


# ----------------------------------------------------------------------
# Engine integration: no observer effect, snapshots on run + resume
# ----------------------------------------------------------------------
def _small_run(extra: dict):
    system = build_system(rows=2, cols=2)
    wl = splash2_workload("lu", 4, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=70.0),
        EngineConfig(max_time_s=0.02, **extra),
    )
    return engine.run(
        WorkloadRun(wl, system.chip, REF_FREQ_GHZ), TECfanController()
    )


def test_status_file_is_side_effect_free(tmp_path):
    baseline = _small_run({})
    path = tmp_path / "s.json"
    with_status = _small_run(
        {"status_path": str(path), "status_every_s": 0.001}
    )
    assert result_digest(baseline) == result_digest(with_status)
    status = read_status(path)
    assert status["done"] is True
    assert status["progress"]["fraction"] == 1.0
    assert status["label"] == "lu / TECfan"
    assert status["t_threshold_c"] == 70.0


def test_engine_config_rejects_bad_cadence():
    with pytest.raises(ConfigurationError):
        EngineConfig(status_every_s=0.0)


def test_fan_sweep_status_sidecar(tmp_path):
    system = build_system(rows=2, cols=2)
    wl = splash2_workload("lu", 4, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=70.0),
        EngineConfig(max_time_s=0.004),
    )
    path = tmp_path / "p.json"
    run_fan_sweep(
        engine,
        lambda: WorkloadRun(wl, system.chip, REF_FREQ_GHZ),
        TECfanController(),
        status_path=str(path),
        status_every_s=0.01,
    )
    status = read_status(path)
    assert status["kind"] == "pool"
    assert status["done"] is True
    assert status["pool"]["done"] == status["pool"]["total"] > 0
    assert "fan-sweep lu/TECfan" in status["label"]


def test_parallel_map_journal_resume_reports_replayed(tmp_path):
    from repro.journal import TaskJournal

    jpath = tmp_path / "j.tfj"
    header = {"kind": "test", "n_tasks": 4}
    with TaskJournal(jpath, header=header) as journal:
        journal.record_task(0, 0.0)
        journal.record_task(2, 4.0)
    path = tmp_path / "p.json"
    with TaskJournal(jpath, header=header) as journal:
        out = parallel_map(
            _square, [0.0, 1.0, 2.0, 3.0], None,
            journal=journal,
            status_path=str(path),
            status_every_s=0.001,
        )
    assert out == [0.0, 1.0, 4.0, 9.0]
    status = read_status(path)
    assert status["done"] is True
    assert status["progress"]["fraction"] == 1.0
    assert status["pool"]["replayed"] == 2
    assert status["pool"]["done"] == 2
    assert status["pool"]["replayed_indices"] == [0, 2]
    assert status["pool"]["workers"][0]["tasks_done"] == 2


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# Fleet integration: no observer effect, the terminal snapshot
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def platform():
    from repro.server.platform import build_server_system

    return build_server_system()


_FLEET = FleetConfig(n_nodes=4, duration_s=60)


def test_fleet_status_file_is_side_effect_free(tmp_path, platform):
    baseline = run_fleet(_FLEET, platform=platform)
    path = tmp_path / "f.json"
    with_status = run_fleet(
        _FLEET, platform=platform, status_path=str(path),
        status_every_s=0.001,
    )
    assert with_status.digest == baseline.digest
    status = read_status(path)
    assert status["kind"] == "fleet"
    assert status["done"] is True
    assert status["progress"]["done"] == with_status.sim_time_s


def test_fleet_final_snapshot_keeps_last_interval(tmp_path, platform):
    """The ``done`` snapshot re-emits the last interval's state (not the
    run maximum as the current peak), with utilization and node table."""
    from repro import units
    from repro.fleet.sim import FleetSim
    from repro.fleet.traces import fleet_demand

    cfg = _FLEET
    path = tmp_path / "f.json"
    demand = fleet_demand(
        cfg.trace, cfg.duration_s, seed=cfg.seed, scale=cfg.scale,
        block_s=cfg.block_s,
    )
    sim = FleetSim(
        platform, cfg, demand, status_path=str(path), status_every_s=1000.0,
    )
    result = sim.run()
    comp = sim.system.nodes.component_slice
    node_peak = sim.policy.tile_peaks_c(
        units.k_to_c(result.final_t_nodes_k[:, comp])
    ).max(axis=1)

    status = read_status(path)
    fleet = status["fleet"]
    assert status["done"] is True
    assert fleet["utilization"] is not None
    assert [nd["peak_temp_c"] for nd in fleet["nodes"]] == sorted(
        (round(float(p), 3) for p in node_peak), reverse=True
    )
    assert status["thermal"]["peak_temp_c"] == float(node_peak.max())
    assert status["thermal"]["run_peak_c"] == result.peak_temp_c
    assert status["history"][-1]["peak_temp_c"] == float(node_peak.max())
    assert fleet["avg_power_w"] == pytest.approx(
        result.energy_j / result.sim_time_s
    )


@pytest.mark.parametrize(
    "drain_factor", [1.5, 1.0], ids=["drained-tec-on", "stopped-queued"]
)
def test_lockstep_fleet_status_lists_every_node(
    tmp_path, platform, monkeypatch, drain_factor
):
    """A fleet stepped as one group of bit-equal nodes still reports
    every node: peak, fan level and TEC row expanded from the group,
    and the backlog summed over nodes."""
    from repro import units
    from repro.fleet.sim import FleetSim
    from repro.fleet.traces import fleet_demand

    # 64 round-robin quanta over 8 nodes: one group for the whole run.
    # At x4 demand the drained run ends with every TEC on; stopped at
    # the horizon, every node still has queued work.
    monkeypatch.setattr(FleetConfig, "drain_factor", drain_factor)
    cfg = FleetConfig(n_nodes=8, duration_s=120, trace="wikipedia", scale=4.0)
    baseline = run_fleet(cfg, platform=platform)
    assert baseline.solved_rows == baseline.batched_steps
    path = tmp_path / "f.json"
    with_status = run_fleet(
        cfg, platform=platform, status_path=str(path), status_every_s=0.001,
    )
    assert with_status.digest == baseline.digest

    demand = fleet_demand(
        cfg.trace, cfg.duration_s, seed=cfg.seed, scale=cfg.scale,
        block_s=cfg.block_s,
    )
    sim = FleetSim(platform, cfg, demand)
    result = sim.run()
    comp = sim.system.nodes.component_slice
    node_peak = sim.policy.tile_peaks_c(
        units.k_to_c(result.final_t_nodes_k[:, comp])
    ).max(axis=1)
    if drain_factor > 1.0:
        assert result.final_tec.sum() > 0
    else:
        assert result.final_backlog_inst.min() > 0

    status = read_status(path)
    fleet = status["fleet"]
    assert status["done"] is True
    assert fleet["n_nodes"] == cfg.n_nodes
    assert sorted(nd["node"] for nd in fleet["nodes"]) == list(range(cfg.n_nodes))
    for nd in fleet["nodes"]:
        i = nd["node"]
        assert nd["peak_temp_c"] == round(float(node_peak[i]), 3)
        assert nd["fan_level"] == int(result.final_fan[i])
        assert nd["tec_on"] == float(result.final_tec[i].sum())
    assert fleet["backlog_inst"] == float(result.final_backlog_inst.sum())
    assert status["history"][-1]["tec_on"] == float(result.final_tec.sum())
    assert status["history"][-1]["fan_level"] == float(result.final_fan.mean())


# ----------------------------------------------------------------------
# CLI: watch/top --once against live and resumed runs
# ----------------------------------------------------------------------
def test_cli_watch_once_missing_file(tmp_path, capsys):
    assert main(["watch", str(tmp_path / "absent.json"), "--once"]) == 2
    assert "no status file" in capsys.readouterr().err


def test_cli_run_status_watch_once(tmp_path, capsys):
    path = tmp_path / "s.json"
    rc = main([
        "run", "--workload", "lu", "--threads", "4",
        "--max-time-s", "0.01", "--status-file", str(path),
        "--status-every-s", "0.001",
    ])
    assert rc == 0
    capsys.readouterr()
    assert main(["watch", str(path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "100.0%" in out
    assert "[done]" in out


def test_cli_sweep_status_top_once_live_and_resumed(tmp_path, capsys):
    path = tmp_path / "p.json"
    jpath = tmp_path / "sweep.tfj"
    base = [
        "sweep", "--workload", "lu", "--threads", "4",
        "--max-time-s", "0.004", "--journal", str(jpath),
        "--status-file", str(path), "--status-every-s", "0.01",
    ]
    assert main(base) == 0
    capsys.readouterr()
    assert main(["top", str(path), "--once"]) == 0
    first = capsys.readouterr().out
    assert "0 replayed" in first
    # resumed: the journal replays every cell, no live work left
    assert main(base) == 0
    capsys.readouterr()
    assert main(["top", str(path), "--once"]) == 0
    resumed = capsys.readouterr().out
    assert "replayed cells:" in resumed
    assert "0 live" in resumed
