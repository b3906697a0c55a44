"""Disabled-by-default contract: hooks record nothing without a session."""

import pytest

from repro.obs import (
    Telemetry,
    annotate,
    event,
    gauge,
    get_telemetry,
    incr,
    observe,
    set_telemetry,
    span,
    telemetry_session,
)
from repro.obs.telemetry import _NULL_SPAN


@pytest.fixture(autouse=True)
def _no_leaked_session():
    assert get_telemetry() is None, "a telemetry session leaked into tests"
    yield
    set_telemetry(None)


def test_hooks_are_noops_without_session():
    # None of these should raise or allocate state anywhere observable.
    with span("engine.step", hist_ms="engine.step_ms"):
        incr("engine.intervals")
        observe("thermal.solver_ms", 0.5)
        gauge("fan.level", 2.0)
        event("interval", time_s=0.0)
        annotate("key", "value")
    assert get_telemetry() is None


def test_disabled_span_is_shared_singleton():
    assert span("a") is _NULL_SPAN
    assert span("b") is _NULL_SPAN


def test_session_records_then_restores():
    tel = Telemetry()
    with telemetry_session(tel) as active:
        assert active is tel
        assert get_telemetry() is tel
        incr("engine.intervals", 3)
        with span("engine.step"):
            pass
    assert get_telemetry() is None
    snap = tel.snapshot()
    assert snap["counters"]["engine.intervals"] == 3
    assert snap["spans"]["engine.step"]["count"] == 1


def test_session_default_constructs_telemetry():
    with telemetry_session() as tel:
        assert isinstance(tel, Telemetry)
        assert get_telemetry() is tel
    assert get_telemetry() is None


def test_sessions_nest_and_restore_outer():
    outer, inner = Telemetry(), Telemetry()
    with telemetry_session(outer):
        incr("n")
        with telemetry_session(inner):
            assert get_telemetry() is inner
            incr("n")
        assert get_telemetry() is outer
        incr("n")
    assert outer.metrics.snapshot()["counters"]["n"] == 2
    assert inner.metrics.snapshot()["counters"]["n"] == 1


def test_events_recorded_only_inside_session():
    tel = Telemetry()
    event("orphan", x=1)  # no session: dropped silently
    with telemetry_session(tel):
        event("interval", time_s=0.25)
    assert len(tel.events) == 1
    rec = tel.events[0]
    assert rec["kind"] == "interval"
    assert rec["time_s"] == 0.25
    assert "t_rel_s" in rec


def test_record_events_false_discards_silently():
    # Opting out of event retention is not a "drop": the dropped counter
    # is reserved for hitting the MAX_EVENTS cap.
    tel = Telemetry(record_events=False)
    with telemetry_session(tel):
        event("interval", time_s=0.0)
    assert tel.events == []
    assert tel.events_dropped == 0


def test_max_events_drop_warns_once_and_counts(monkeypatch):
    monkeypatch.setattr("repro.obs.telemetry.MAX_EVENTS", 3)
    tel = Telemetry()
    with telemetry_session(tel):
        for i in range(3):
            event("interval", i=i)
        # the cap is hit: exactly one loud warning at drop onset, which
        # names the CLI's streaming writer ...
        with pytest.warns(
            RuntimeWarning, match=r"MAX_EVENTS=3 hit.*\(--telemetry PATH\)"
        ):
            event("interval", i=3)
        # ... and further drops stay silent but keep counting
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            event("interval", i=4)
    assert len(tel.events) == 3
    assert tel.events_dropped == 2
    # the truncation survives into aggregates (and thus merges/exports)
    assert tel.metrics.snapshot()["counters"]["obs.events_dropped"] == 2


def test_events_dropped_reaches_manifest_aggregates(monkeypatch):
    from repro.obs import build_manifest

    monkeypatch.setattr("repro.obs.telemetry.MAX_EVENTS", 1)
    tel = Telemetry()
    with telemetry_session(tel):
        event("interval", i=0)
        with pytest.warns(RuntimeWarning):
            event("interval", i=1)
    manifest = build_manifest(tel)
    assert manifest["events_dropped"] == 1
    assert manifest["telemetry"]["counters"]["obs.events_dropped"] == 1
