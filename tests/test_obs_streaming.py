"""StreamingExporter: incremental flush, crash tolerance, schema validation."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    MANIFEST_SCHEMA,
    StreamingExporter,
    Telemetry,
    read_jsonl,
    read_stream,
    telemetry_session,
    write_jsonl,
)
from repro.obs import streaming
from repro.obs import telemetry as obs


def _stream_events(tel: Telemetry, n: int) -> None:
    with telemetry_session(tel):
        for i in range(n):
            obs.event("interval", i=i, peak_temp_c=80.0 + i)


def test_events_flush_incrementally(tmp_path, monkeypatch):
    monkeypatch.setattr(streaming, "FLUSH_EVERY", 4)
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path)
    tel = exp.attach(Telemetry())
    _stream_events(tel, 10)
    # Two full batches (8 events) are on disk before close.
    on_disk = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    assert sum(1 for r in on_disk if r["type"] == "event") == 8
    assert on_disk[0]["type"] == "stream_header"
    assert len(tel.events) == 0  # nothing retained in memory
    assert tel.events_streamed == 10
    exp.close()
    parsed = read_jsonl(path)
    assert len(parsed["events"]) == 10
    assert parsed["manifest"]["events_streamed"] == 10


def test_streaming_bypasses_event_cap(tmp_path, monkeypatch):
    # A small cap keeps the test fast; the stream is sized from it.
    monkeypatch.setattr("repro.obs.telemetry.MAX_EVENTS", 1000)
    n = obs.MAX_EVENTS + 50
    monkeypatch.setattr(streaming, "FLUSH_EVERY", 1024)
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path)
    tel = exp.attach(Telemetry())
    _stream_events(tel, n)
    exp.close()
    parsed = read_jsonl(path)
    assert len(parsed["events"]) == n
    assert parsed["manifest"]["events_dropped"] == 0


def test_close_is_idempotent_and_detaches(tmp_path):
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path)
    tel = exp.attach(Telemetry())
    _stream_events(tel, 3)
    exp.close()
    first = path.read_text()
    exp.close()
    assert path.read_text() == first
    assert tel.event_sink is None
    with pytest.raises(ObservabilityError, match="closed"):
        exp.write_event({"kind": "late"})


def test_context_manager_without_session_writes_header_only(tmp_path):
    path = tmp_path / "run.jsonl"
    with StreamingExporter(path):
        pass
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["type"] for r in records] == ["stream_header"]


def test_crashed_stream_keeps_flushed_events(tmp_path, monkeypatch):
    # No close(): whatever was flushed must still parse (no manifest).
    monkeypatch.setattr(streaming, "FLUSH_EVERY", 1)
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path)
    tel = exp.attach(Telemetry())
    _stream_events(tel, 5)
    parsed = read_jsonl(path)
    assert len(parsed["events"]) == 5
    assert parsed["manifest"] is None
    assert parsed["stream_header"]["schema"] == MANIFEST_SCHEMA


def test_invalid_parameters_rejected(tmp_path):
    with pytest.raises(ObservabilityError, match="fsync policy"):
        StreamingExporter(tmp_path / "x.jsonl", fsync="sometimes")


# ----------------------------------------------------------------------
# crash hardening: torn tails, fsync policies
# ----------------------------------------------------------------------
def test_torn_tail_is_dropped_and_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(streaming, "FLUSH_EVERY", 1)
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path)
    tel = exp.attach(Telemetry())
    _stream_events(tel, 6)
    exp._fh.close()  # crash: buffered writer gone mid-record
    torn = '{"type": "event", "i": 99, "trunca'
    with open(path, "a") as fh:
        fh.write(torn)
    merged = read_stream(path)
    # Intact prefix survives; the tear is reported, not raised.
    assert [e["i"] for e in merged["events"]] == list(range(6))
    assert len(merged["truncations"]) == 1
    report = merged["truncations"][0]
    assert report["path"] == str(path)
    assert report["bytes_dropped"] == len(torn)
    assert report["snippet"].startswith('{"type": "event", "i": 99')
    # The strict reader still refuses the same file: tolerance is an
    # explicit opt-in via read_stream, never silent.
    with pytest.raises(ObservabilityError):
        read_jsonl(path)


@pytest.mark.parametrize("policy", ["always", "close"])
def test_fsync_policy_streams_and_reads_back(tmp_path, monkeypatch, policy):
    monkeypatch.setattr(streaming, "FLUSH_EVERY", 2)
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path, fsync=policy)
    tel = exp.attach(Telemetry())
    _stream_events(tel, 5)
    exp.close()
    merged = read_stream(path)
    assert len(merged["events"]) == 5
    assert merged["truncations"] == []


# ----------------------------------------------------------------------
# schema validation on load
# ----------------------------------------------------------------------
def test_unknown_schema_version_is_a_clear_error(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text('{"type": "manifest", "schema": 99}\n')
    with pytest.raises(ObservabilityError, match="not supported"):
        read_jsonl(path)


def test_missing_schema_version_is_a_clear_error(tmp_path):
    path = tmp_path / "foreign.jsonl"
    path.write_text('{"type": "stream_header"}\n')
    with pytest.raises(ObservabilityError, match="no schema version"):
        read_jsonl(path)


def test_profile_load_exits_2_on_bad_schema(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "future.jsonl"
    path.write_text('{"type": "manifest", "schema": 99}\n')
    assert main(["profile", "--load", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not supported" in err
    assert "KeyError" not in err


def test_cli_streams_telemetry(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "hw.jsonl"
    assert main(["hwcost", "--telemetry", str(path)]) == 0
    capsys.readouterr()
    first = json.loads(path.read_text().splitlines()[0])
    assert first["type"] == "stream_header"
    parsed = read_jsonl(path)
    assert parsed["manifest"]["schema"] == MANIFEST_SCHEMA
    assert parsed["manifest"]["context"]["command"][0] == "hwcost"


def test_cli_telemetry_file_survives_a_raising_handler(
    tmp_path, monkeypatch, capsys
):
    from repro import cli

    def emit_then_raise(args):
        for i in range(3):
            obs.event("interval", i=i)
        obs.incr("test.before_raise")
        raise RuntimeError("handler failed")

    monkeypatch.setattr(cli, "_cmd_hwcost", emit_then_raise)
    path = tmp_path / "crash.jsonl"
    with pytest.raises(RuntimeError, match="handler failed"):
        cli.main(["hwcost", "--telemetry", str(path)])
    capsys.readouterr()
    parsed = read_jsonl(path)
    assert [e["i"] for e in parsed["events"]] == [0, 1, 2]
    assert parsed["counters"]["test.before_raise"] == 1
    assert parsed["manifest"]["events_streamed"] == 3
    assert parsed["manifest"]["context"]["command"][0] == "hwcost"


def test_profile_load_does_not_blame_the_file_for_a_closed_stdout(
    tmp_path, monkeypatch, capsys
):
    # `tecfan profile --load x.jsonl | head -4`: the reader closed the
    # pipe, the file loaded fine, so no "cannot load" and no exit 2.
    from repro.cli import main

    path = tmp_path / "run.jsonl"
    tel = Telemetry()
    _stream_events(tel, 2)
    path.write_text(write_jsonl(tel))

    class _ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    with monkeypatch.context() as m:
        m.setattr("sys.stdout", _ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["profile", "--load", str(path)])
    assert "cannot load" not in capsys.readouterr().err
