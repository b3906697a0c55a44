"""Incremental JSONL telemetry export with bounded memory.

:func:`repro.obs.write_jsonl` serializes a session *after* the run — it
needs every event resident, which is exactly wrong for production-scale
runs (hours of 2 ms intervals blow straight past ``MAX_EVENTS``). The
:class:`StreamingExporter` inverts that: it plugs into a
:class:`~repro.obs.telemetry.Telemetry` as the ``event_sink``, flushes
interval events to one file in batches of :data:`FLUSH_EVERY` as they
are emitted, and appends the manifest plus all span/metric aggregates
when it closes. Memory stays O(``FLUSH_EVERY``) regardless of run
length, and a crashed run still leaves every flushed event on disk
behind a ``stream_header`` record identifying the schema. The CLI's
``--telemetry PATH`` writes through it, closing it in a ``finally`` so
a command that raises still leaves a complete file.

:func:`repro.obs.read_jsonl` reads the finished file (records are typed,
not positional); :func:`read_stream` reads a crashed one tolerantly.

Usage::

    from repro.obs import Telemetry, telemetry_session
    from repro.obs.streaming import StreamingExporter

    with StreamingExporter("run.jsonl") as exp:
        tel = exp.attach(Telemetry())
        with telemetry_session(tel):
            engine.run(run, controller)   # events stream to disk
    # exp.close() ran on exit: manifest + aggregates appended.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.exceptions import ObservabilityError
from repro.obs.exporters import read_jsonl, telemetry_records
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.telemetry import Telemetry

__all__ = ["StreamingExporter", "read_stream"]

#: Events buffered between writes. Small enough that a crash loses at
#: most a batch, large enough to amortize the encode+write.
FLUSH_EVERY: int = 256


class StreamingExporter:
    """Flush telemetry events to a JSONL file as they happen.

    Parameters
    ----------
    path:
        The stream file (truncated on open).
    fsync:
        Durability policy: ``"never"`` (default — the OS flushes),
        ``"close"`` (fsync once, when the stream closes) or ``"always"``
        (fsync after every batch write; the crash-durable but slowest
        option).
    """

    def __init__(self, path: str | Path, *, fsync: str = "never"):
        if fsync not in ("never", "close", "always"):
            raise ObservabilityError(
                f"fsync policy must be 'never', 'close' or 'always', "
                f"got {fsync!r}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self._pending: list[str] = []
        self._tel: Telemetry | None = None
        self._closed = False
        self._fh = open(self.path, "w")
        header = json.dumps(
            {
                "type": "stream_header",
                "schema": MANIFEST_SCHEMA,
                "created_unix": time.time(),
            },
            sort_keys=True,
        )
        self._write_lines([header])

    # ------------------------------------------------------------------
    def attach(self, tel: Telemetry) -> Telemetry:
        """Wire a session's events into this stream; returns the session."""
        tel.event_sink = self.write_event
        self._tel = tel
        return tel

    def write_event(self, record: dict) -> None:
        """Buffer one event record; flushes every ``FLUSH_EVERY`` events."""
        if self._closed:
            raise ObservabilityError(
                f"telemetry stream {self.path} is closed"
            )
        self._pending.append(
            json.dumps({"type": "event", **record}, sort_keys=True)
        )
        if len(self._pending) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Write buffered events out."""
        if self._pending:
            self._write_lines(self._pending)
            self._pending = []

    def close(self) -> None:
        """Flush, append the manifest + aggregates, and close the file.

        The manifest and aggregates come from the :meth:`attach`-ed
        session; with no session only the buffered events are flushed.
        Idempotent.
        """
        if self._closed:
            return
        self.flush()
        tel = self._tel
        if tel is not None:
            records = telemetry_records(tel, include_events=False)
            self._write_lines(
                json.dumps(rec, sort_keys=True) for rec in records
            )
            if getattr(tel.event_sink, "__self__", None) is self:
                tel.event_sink = None
        self._fh.flush()
        if self.fsync in ("close", "always"):
            os.fsync(self._fh.fileno())
        self._fh.close()
        self._closed = True

    # ------------------------------------------------------------------
    def __enter__(self) -> "StreamingExporter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def _write_lines(self, lines) -> None:
        self._fh.write("\n".join(lines) + "\n")
        self._fh.flush()
        if self.fsync == "always":
            os.fsync(self._fh.fileno())


def read_stream(path: str | Path) -> dict:
    """Read one stream file tolerantly, as a crashed run left it.

    Crash model: a SIGKILL mid-write can leave a torn *final* line. It
    is dropped and *reported* in the returned ``"truncations"`` list
    (path, line, bytes dropped, snippet) instead of raising; the list is
    empty for an intact file. Otherwise this returns what
    :func:`repro.obs.read_jsonl` returns — which still raises
    ``ObservabilityError`` on the same torn file, and on corruption
    anywhere but the tail, which is outside the crash model.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    truncations = []
    if lines:
        try:
            json.loads(lines[-1])
        except json.JSONDecodeError:
            torn = lines.pop()
            truncations.append(
                {
                    "path": str(path),
                    "line": len(lines) + 1,
                    "bytes_dropped": len(torn),
                    "snippet": torn[:120],
                }
            )
    out = read_jsonl("\n".join(lines) + "\n")
    out["truncations"] = truncations
    return out
