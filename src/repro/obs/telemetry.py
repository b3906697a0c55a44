"""The telemetry facade and the process-global active instance.

Hot paths never hold a :class:`Telemetry` reference; they call the
module-level hooks (:func:`span`, :func:`incr`, :func:`observe`,
:func:`event`, :func:`annotate`), which dispatch to the *active*
telemetry — or do nothing when none is installed. The disabled path is a
single global load plus an ``is None`` check, so leaving the hooks wired
into the per-interval loops costs effectively nothing for ordinary runs
and benchmarks.

Typical use::

    from repro.obs import Telemetry, telemetry_session

    tel = Telemetry()
    with telemetry_session(tel):
        result = engine.run(run, controller)
    print(tel.metrics.snapshot()["counters"])

The active instance is process-global (not thread-local): the simulator
is single-threaded, and a global keeps the disabled fast path to one
dict-free check.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import DEFAULT_MS_BUCKETS, MetricsRegistry
from repro.obs.spans import SpanTracker

#: Upper bound on retained structured events; beyond it events are
#: counted as dropped rather than stored (a 10-minute server run at 2 ms
#: intervals emits ~300k interval events — well under this).
MAX_EVENTS: int = 1_000_000


class _NullSpan:
    """Shared no-op context manager returned when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one span occurrence on exit."""

    __slots__ = ("_tel", "_name", "_hist_ms")

    def __init__(self, tel: "Telemetry", name: str, hist_ms: str | None):
        self._tel = tel
        self._name = name
        self._hist_ms = hist_ms

    def __enter__(self) -> "_Span":
        self._tel.spans.start(self._name)
        return self

    def __exit__(self, *exc) -> bool:
        _, duration_s = self._tel.spans.stop()
        if self._hist_ms is not None:
            self._tel.metrics.histogram(
                self._hist_ms, DEFAULT_MS_BUCKETS
            ).observe(duration_s * 1e3)
        return False


@dataclass
class Telemetry:
    """One observation session: spans + metrics + events + context.

    Parameters
    ----------
    record_events:
        Whether :meth:`event` retains structured records (the JSONL
        interval stream). Aggregates are always kept.
    """

    record_events: bool = True
    spans: SpanTracker = field(default_factory=SpanTracker)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Structured event records (dicts), in emission order.
    events: list = field(default_factory=list)
    #: Free-form run context merged into the manifest (engine config,
    #: workload/policy names, run metrics, ...).
    context: dict = field(default_factory=dict)
    events_dropped: int = 0
    #: Optional event consumer (e.g. a
    #: :class:`repro.obs.streaming.StreamingExporter`'s ``write_event``).
    #: When set, events are handed to the sink instead of retained, so
    #: memory stays bounded for arbitrarily long runs; ``MAX_EVENTS``
    #: does not apply on the sink path.
    event_sink: object = None
    #: Events handed to ``event_sink`` (not retained in ``events``).
    events_streamed: int = 0
    created_unix: float = field(default_factory=time.time)
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    # ------------------------------------------------------------------
    def span(self, name: str, hist_ms: str | None = None) -> _Span:
        """Context manager timing one region; nests under open spans.

        ``hist_ms`` additionally feeds each duration (in milliseconds)
        into the named histogram.
        """
        return _Span(self, name, hist_ms)

    def event(self, kind: str, **fields) -> None:
        """Record one structured event (if event recording is on).

        Past ``MAX_EVENTS`` retained records (sink-less sessions only),
        events are dropped: one loud ``warnings.warn`` fires at drop
        onset — a silently truncated event stream reads as a complete
        one otherwise — and every drop feeds both the
        ``events_dropped`` attribute (already in the manifest) and the
        ``obs.events_dropped`` counter, so the truncation survives into
        merged/exported aggregates too.
        """
        if not self.record_events:
            return
        if self.event_sink is None and len(self.events) >= MAX_EVENTS:
            if self.events_dropped == 0:
                import warnings

                warnings.warn(
                    f"telemetry event retention cap MAX_EVENTS="
                    f"{MAX_EVENTS} hit: further events will be DROPPED "
                    "(aggregates stay complete, the event stream is "
                    "truncated) — stream long runs to a file "
                    "(--telemetry PATH)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            self.events_dropped += 1
            self.metrics.counter("obs.events_dropped").inc()
            return
        record = {"kind": kind, "t_rel_s": time.perf_counter() - self._t0}
        record.update(fields)
        if self.event_sink is not None:
            self.event_sink(record)
            self.events_streamed += 1
        else:
            self.events.append(record)

    def annotate(self, key: str, value) -> None:
        """Attach one context entry (reported in the run manifest)."""
        self.context[key] = value

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe aggregate view: spans, edges, and all metrics."""
        out = {
            "spans": self.spans.snapshot(),
            "span_edges": self.spans.edge_snapshot(),
        }
        out.update(self.metrics.snapshot())
        return out

    def merge(self, worker, label: str | None = None) -> "Telemetry":
        """Fold a worker session's aggregates into this session.

        ``worker`` is a :class:`repro.obs.merge.WorkerTelemetry` capture
        (or another :class:`Telemetry`, captured on the fly). Counters
        sum, gauges take the last writer with a ``*.max`` companion,
        histograms require identical edges, and span stats sum — with
        the worker's root spans re-parented under ``label`` (the
        ``worker=N`` tag) so the merged call tree keeps per-worker
        subtrees. Worker events are *not* merged (aggregates only ship
        across the process boundary); they are accounted in the
        ``parallel.worker_events_dropped`` counter by the fan-out.
        Returns ``self`` so merges chain.
        """
        from repro.obs.merge import WorkerTelemetry, capture_worker_telemetry

        if isinstance(worker, Telemetry):
            worker = capture_worker_telemetry(worker)
        if not isinstance(worker, WorkerTelemetry):
            raise TypeError(
                f"cannot merge {type(worker).__name__!r} into a Telemetry "
                "session (expected WorkerTelemetry or Telemetry)"
            )
        self.spans.merge(worker.spans, worker.span_edges, label=label)
        self.metrics.merge(
            {
                "counters": worker.counters,
                "gauges": worker.gauges,
                "histograms": worker.histograms,
            }
        )
        if worker.context:
            workers = self.context.setdefault("workers", {})
            key = label if label is not None else f"worker={len(workers)}"
            workers[key] = worker.context
        return self

    def reset(self) -> None:
        """Drop every recording (aggregates, events, context)."""
        self.spans.reset()
        self.metrics.reset()
        self.events.clear()
        self.context.clear()
        self.events_dropped = 0
        self.events_streamed = 0


# ----------------------------------------------------------------------
# The active instance and the hot-path hooks.
# ----------------------------------------------------------------------

_ACTIVE: Telemetry | None = None


def get_telemetry() -> Telemetry | None:
    """The currently installed telemetry, or ``None`` when disabled."""
    return _ACTIVE


def set_telemetry(tel: Telemetry | None) -> Telemetry | None:
    """Install ``tel`` as the active instance; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tel
    return previous


@contextmanager
def telemetry_session(tel: Telemetry | None = None):
    """Install a telemetry instance for the duration of a ``with`` block.

    Yields the installed instance (a fresh one if none is given); the
    previously active instance is restored on exit, so sessions nest.
    """
    if tel is None:
        tel = Telemetry()
    previous = set_telemetry(tel)
    try:
        yield tel
    finally:
        set_telemetry(previous)


def span(name: str, hist_ms: str | None = None):
    """Hot-path span hook: no-op context manager when telemetry is off."""
    tel = _ACTIVE
    if tel is None:
        return _NULL_SPAN
    return tel.span(name, hist_ms=hist_ms)


def incr(name: str, n: int = 1) -> None:
    """Hot-path counter hook."""
    tel = _ACTIVE
    if tel is not None:
        tel.metrics.counter(name).inc(n)


def observe(name: str, value: float, edges: tuple = DEFAULT_MS_BUCKETS) -> None:
    """Hot-path histogram hook."""
    tel = _ACTIVE
    if tel is not None:
        tel.metrics.histogram(name, edges).observe(value)


def gauge(name: str, value: float) -> None:
    """Hot-path gauge hook."""
    tel = _ACTIVE
    if tel is not None:
        tel.metrics.gauge(name).set(value)


def event(kind: str, **fields) -> None:
    """Hot-path structured-event hook."""
    tel = _ACTIVE
    if tel is not None:
        tel.event(kind, **fields)


def annotate(key: str, value) -> None:
    """Attach run context to the active telemetry, if any."""
    tel = _ACTIVE
    if tel is not None:
        tel.annotate(key, value)
