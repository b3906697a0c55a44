"""Cross-process telemetry capture for the parallel fan-out.

A :func:`repro.parallel.parallel_map` worker is a spawned interpreter:
the parent's active :class:`~repro.obs.telemetry.Telemetry` session does
not exist there, so — before this module — every span and counter a
worker incurred was silently lost. The fix is the classic map-side
aggregation discipline: each worker installs its *own* session around
the task, condenses it to a picklable :class:`WorkerTelemetry` of plain
aggregates (span stats + edges, counters, gauges, histograms), and
ships that back alongside the result. The parent folds each capture
into its session via :meth:`Telemetry.merge` — counters sum, gauges
take the last writer with a ``*.max`` companion, histograms require
identical bucket edges, and span stats sum with the worker's root spans
re-parented under a ``worker=N`` label.

Worker *events* (the per-interval JSONL stream) deliberately do not
ship: a long sweep would pickle hundreds of thousands of dicts through
the result pipe. They are counted instead — each capture carries
``events_discarded`` and the parent accumulates it into the
``parallel.worker_events_dropped`` counter, so a merged manifest is
honest about what the fleet recorded but did not retain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs.manifest import jsonable
from repro.obs.telemetry import Telemetry, telemetry_session

__all__ = [
    "PersistentWorkerSession",
    "WorkerTelemetry",
    "capture_worker_telemetry",
]


@dataclass
class WorkerTelemetry:
    """Picklable aggregate condensate of one worker's telemetry session.

    Every field is the JSON-safe snapshot form (the same shapes
    :func:`repro.obs.read_jsonl` groups a stream into), so a capture
    pickles in microseconds and never drags live instrument objects —
    or anything unpicklable they might reference — across the process
    boundary.
    """

    #: ``{span_name: stats}`` (:meth:`SpanTracker.snapshot` form).
    spans: dict = field(default_factory=dict)
    #: ``[{"parent": ..., "child": ..., "count": ...}]`` nesting edges.
    span_edges: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    #: Run context the worker annotated (JSON-safe).
    context: dict = field(default_factory=dict)
    #: Events the worker emitted but that do not ship (plus any the
    #: worker itself dropped at the ``MAX_EVENTS`` cap).
    events_discarded: int = 0

    @property
    def empty(self) -> bool:
        """Did the worker record nothing at all?"""
        return not (
            self.spans
            or self.span_edges
            or self.counters
            or self.gauges
            or self.histograms
            or self.events_discarded
        )


def capture_worker_telemetry(tel: Telemetry) -> WorkerTelemetry:
    """Condense a live session to its picklable aggregate form."""
    snap = tel.snapshot()
    return WorkerTelemetry(
        spans=snap["spans"],
        span_edges=snap["span_edges"],
        counters=snap["counters"],
        gauges=snap["gauges"],
        histograms=snap["histograms"],
        context=jsonable(tel.context),
        events_discarded=len(tel.events)
        + tel.events_streamed
        + tel.events_dropped,
    )


class PersistentWorkerSession:
    """One reusable worker-side session for a pool worker's lifetime.

    A persistent :class:`~repro.parallel.WorkerPool` worker runs many
    tasks back to back under this one :class:`Telemetry` object. Its
    events go to a no-op sink, which retains nothing but still counts
    them, and :meth:`Telemetry.reset`\\ s it between tasks, so each
    capture covers exactly one task and the parent's task-index-order
    merge semantics hold.
    """

    def __init__(self) -> None:
        self._tel = Telemetry(event_sink=_discard_event)

    def run(self, fn: Callable) -> tuple:
        """Run ``fn()`` under the recycled session.

        Returns ``(result, WorkerTelemetry)``; exceptions propagate (the
        failed attempt's telemetry is discarded with it, and the next
        task starts from a reset session either way).
        """
        self._tel.reset()
        with telemetry_session(self._tel):
            result = fn()
        return result, capture_worker_telemetry(self._tel)


def _discard_event(record: dict) -> None:
    """Event sink for workers: drop the record (the count survives)."""
