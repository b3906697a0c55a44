"""StreamingExporter: incremental flush, rotation, schema validation."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    MANIFEST_SCHEMA,
    StreamingExporter,
    Telemetry,
    read_jsonl,
    read_stream_parts,
    telemetry_session,
)
from repro.obs import telemetry as obs


def _stream_events(tel: Telemetry, n: int) -> None:
    with telemetry_session(tel):
        for i in range(n):
            obs.event("interval", i=i, peak_temp_c=80.0 + i)


def test_events_flush_incrementally(tmp_path):
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path, flush_every=4)
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
    exp.close(tel)
    parsed = read_jsonl(path)
    assert len(parsed["events"]) == 10
    assert parsed["manifest"]["events_streamed"] == 10


def test_streaming_bypasses_event_cap(tmp_path, monkeypatch):
    # A small cap keeps the test fast; the stream is sized from it.
    monkeypatch.setattr("repro.obs.telemetry.MAX_EVENTS", 1000)
    n = obs.MAX_EVENTS + 50
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path, flush_every=1024)
    tel = exp.attach(Telemetry())
    _stream_events(tel, n)
    exp.close(tel)
    parsed = read_jsonl(path)
    assert len(parsed["events"]) == n
    assert parsed["manifest"]["events_dropped"] == 0


def test_rotation_splits_parts_and_regroups(tmp_path):
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path, flush_every=2, rotate_bytes=300)
    tel = exp.attach(Telemetry())
    tel.metrics.counter("c").inc(7)
    _stream_events(tel, 20)
    paths = exp.close(tel)
    assert len(paths) > 1
    assert paths[0] == path
    assert paths[1].name == "run.part001.jsonl"
    # Each part is independently loadable and carries a typed header.
    for i, part in enumerate(paths):
        group = read_jsonl(part)
        assert group["stream_header"]["part"] == i
        assert group["stream_header"]["schema"] == MANIFEST_SCHEMA
    merged = read_stream_parts(paths)
    assert [e["i"] for e in merged["events"]] == list(range(20))
    assert merged["counters"]["c"] == 7
    assert merged["manifest"]["stream_parts"] == [str(p) for p in paths]


def test_close_is_idempotent_and_detaches(tmp_path):
    exp = StreamingExporter(tmp_path / "run.jsonl")
    tel = exp.attach(Telemetry())
    _stream_events(tel, 3)
    first = exp.close(tel)
    assert exp.close(tel) == first
    assert tel.event_sink is None
    with pytest.raises(ObservabilityError, match="closed"):
        exp.write_event({"kind": "late"})


def test_context_manager_without_session_writes_header_only(tmp_path):
    path = tmp_path / "run.jsonl"
    with StreamingExporter(path):
        pass
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["type"] for r in records] == ["stream_header"]


def test_crashed_stream_keeps_flushed_events(tmp_path):
    # No close(): whatever was flushed must still parse (no manifest).
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path, flush_every=1)
    tel = exp.attach(Telemetry())
    _stream_events(tel, 5)
    parsed = read_jsonl(path)
    assert len(parsed["events"]) == 5
    assert parsed["manifest"] is None
    assert parsed["stream_header"]["schema"] == MANIFEST_SCHEMA


def test_invalid_parameters_rejected(tmp_path):
    with pytest.raises(ObservabilityError):
        StreamingExporter(tmp_path / "x.jsonl", flush_every=0)
    with pytest.raises(ObservabilityError):
        StreamingExporter(tmp_path / "x.jsonl", rotate_bytes=0)
    with pytest.raises(ObservabilityError, match="fsync policy"):
        StreamingExporter(tmp_path / "x.jsonl", fsync="sometimes")


# ----------------------------------------------------------------------
# crash hardening: atomic parts, torn tails, .tmp fallback
# ----------------------------------------------------------------------
def test_atomic_parts_rename_only_complete_parts(tmp_path):
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(
        path, flush_every=2, rotate_bytes=300, atomic_parts=True,
        fsync="rotate",
    )
    tel = exp.attach(Telemetry())
    _stream_events(tel, 20)
    # Mid-stream: every part but the live one is at its final name;
    # the live part exists only as .tmp.
    assert len(exp.paths) > 1
    live = exp.paths[-1]
    assert not live.exists()
    assert live.with_name(live.name + ".tmp").exists()
    for done in exp.paths[:-1]:
        assert done.exists()
    paths = exp.close(tel)
    # After close everything is final and the set regroups cleanly.
    assert all(p.exists() for p in paths)
    assert not any(
        p.with_name(p.name + ".tmp").exists() for p in paths
    )
    merged = read_stream_parts(paths)
    assert [e["i"] for e in merged["events"]] == list(range(20))
    assert merged["truncations"] == []


def test_crashed_atomic_stream_reads_tmp_sibling(tmp_path):
    # SIGKILL model: no close(), the in-progress part never renamed.
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(
        path, flush_every=1, rotate_bytes=250, atomic_parts=True
    )
    tel = exp.attach(Telemetry())
    _stream_events(tel, 12)
    merged = read_stream_parts(exp.paths)
    assert [e["i"] for e in merged["events"]] == list(range(12))
    assert merged["manifest"] is None  # never closed
    assert merged["truncations"] == []


def test_torn_tail_is_dropped_and_reported(tmp_path):
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path, flush_every=1)
    tel = exp.attach(Telemetry())
    _stream_events(tel, 6)
    exp._fh.close()  # crash: buffered writer gone mid-record
    torn = '{"type": "event", "i": 99, "trunca'
    with open(path, "a") as fh:
        fh.write(torn)
    merged = read_stream_parts([path])
    # Intact prefix survives; the tear is reported, not raised.
    assert [e["i"] for e in merged["events"]] == list(range(6))
    assert len(merged["truncations"]) == 1
    report = merged["truncations"][0]
    assert report["path"] == str(path)
    assert report["bytes_dropped"] == len(torn)
    assert report["snippet"].startswith('{"type": "event", "i": 99')
    # The strict reader still refuses the same file: tolerance is an
    # explicit opt-in via read_stream_parts, never silent.
    with pytest.raises(ObservabilityError):
        read_jsonl(path)


def test_fsync_always_policy_streams_and_regroups(tmp_path):
    path = tmp_path / "run.jsonl"
    exp = StreamingExporter(path, flush_every=2, fsync="always")
    tel = exp.attach(Telemetry())
    _stream_events(tel, 5)
    exp.close(tel)
    merged = read_stream_parts([path])
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
    assert main(["hwcost", "--telemetry-stream", str(path)]) == 0
    capsys.readouterr()
    parsed = read_jsonl(path)
    assert parsed["manifest"]["schema"] == MANIFEST_SCHEMA
    assert parsed["manifest"]["context"]["command"][0] == "hwcost"
