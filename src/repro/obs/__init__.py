"""Observability: structured tracing, metrics, manifests, exporters.

The ``repro.obs`` package is the reproduction's telemetry substrate
(see ``docs/OBSERVABILITY.md``):

- :mod:`~repro.obs.spans` — hierarchical wall-time spans with
  call-count/self-time aggregation (``engine.step``, ``thermal.solve``);
- :mod:`~repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms (``controller.hot_iterations``, ``thermal.solver_ms``);
- :mod:`~repro.obs.telemetry` — the :class:`Telemetry` session facade
  and the zero-overhead module hooks the hot paths call;
- :mod:`~repro.obs.manifest` — run manifests (version, git SHA, config,
  timing/metric snapshot);
- :mod:`~repro.obs.exporters` — JSONL stream writer/reader and the
  profile summary renderer;
- :mod:`~repro.obs.merge` — picklable worker-session capture for the
  parallel fan-out (aggregates merge back via :meth:`Telemetry.merge`);
- :mod:`~repro.obs.streaming` — :class:`StreamingExporter`, incremental
  JSONL export to one file with bounded memory (``--telemetry PATH``),
  and the tolerant crashed-file reader :func:`read_stream`;
- :mod:`~repro.obs.live` — the in-flight plane: atomic status-snapshot
  sidecars (``tecfan watch`` / ``tecfan top``) and the Prometheus
  scrape endpoint (``--metrics-port``).

Telemetry is **off by default**: every hook degrades to a global
``is None`` check, so instrumented hot paths behave identically — and
produce byte-identical results — when no session is installed.

Quickstart
----------
>>> from repro.obs import Telemetry, telemetry_session, write_jsonl
>>> tel = Telemetry()
>>> with telemetry_session(tel):
...     result = engine.run(run, controller)   # doctest: +SKIP
>>> text = write_jsonl(tel)
"""

from repro.obs.exporters import (
    profile_summary,
    read_jsonl,
    telemetry_records,
    write_jsonl,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    SUPPORTED_SCHEMAS,
    build_manifest,
    git_sha,
    jsonable,
)
from repro.obs.merge import (
    PersistentWorkerSession,
    WorkerTelemetry,
    capture_worker_telemetry,
)
from repro.obs.live import (
    STATUS_SCHEMA,
    MetricsServer,
    StatusReporter,
    prometheus_text,
    read_status,
    render_status,
    status_anomalies,
    write_status,
)
from repro.obs.streaming import StreamingExporter, read_stream
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import SpanStats, SpanTracker
from repro.obs.telemetry import (
    MAX_EVENTS,
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

__all__ = [
    "profile_summary",
    "read_jsonl",
    "telemetry_records",
    "write_jsonl",
    "MANIFEST_SCHEMA",
    "SUPPORTED_SCHEMAS",
    "build_manifest",
    "git_sha",
    "jsonable",
    "PersistentWorkerSession",
    "WorkerTelemetry",
    "capture_worker_telemetry",
    "STATUS_SCHEMA",
    "MetricsServer",
    "StatusReporter",
    "prometheus_text",
    "read_status",
    "render_status",
    "status_anomalies",
    "write_status",
    "StreamingExporter",
    "read_stream",
    "DEFAULT_MS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanStats",
    "SpanTracker",
    "MAX_EVENTS",
    "Telemetry",
    "annotate",
    "event",
    "gauge",
    "get_telemetry",
    "incr",
    "observe",
    "set_telemetry",
    "span",
    "telemetry_session",
]
