"""Live-run observability: status snapshots, watch/top views, Prometheus.

Until now every run was a black box until it exited — telemetry is
post-hoc (an in-memory session or a streamed JSONL file read after the
fact). This module is the *in-flight* plane, in three layers:

1. **Status snapshots.** One :class:`StatusReporter` serves every kind
   of live run — an engine run (``engine-run``), a pool/sweep fan-out
   (``pool``) and a fleet run (``fleet``). It periodically
   serializes a compact, versioned record to a single sidecar file: a
   common envelope (progress, wall-clock ETA from recent throughput,
   peak temperature and headroom vs ``t_threshold_c``, a history ring,
   telemetry counters) plus one section contributed by the kind.
   Writes reuse ``checkpoint.py``'s tmp+fsync+rename dance
   (:func:`write_status`), so a polling reader always sees either the
   previous or the next *complete* snapshot, never a torn one.
   Snapshots are pure reads of loop state: a run with a status file is
   bit-identical (same digest) to the same run without one.

2. **Consumers.** :func:`render_status` turns a snapshot of any kind
   into the ``tecfan watch`` / ``tecfan top`` terminal view: the shared
   header, progress bar, ETA, headroom sparkline over the snapshot
   history and anomaly flags reusing the ``tracetools`` thresholds, then
   one short block per kind (EPI and caches, per-worker rows and
   replayed cells, fleet totals and the hottest nodes).

3. **Exposition.** :class:`MetricsServer` serves the active
   :class:`~repro.obs.metrics.MetricsRegistry` plus live status gauges
   in Prometheus text format over a stdlib ``http.server`` thread
   (``tecfan ... --metrics-port N``), so a long simulation can be
   scraped like any production service.

Cadence is wall-clock (``every_s``): the per-interval cost when no
snapshot is due is one ``time.monotonic()`` call and a compare, and the
measured overhead of snapshotting at the default cadence is gated at
<= 3% by ``benchmarks/bench_overhead.py``. Counters:
``live.snapshots_written``, ``live.snapshot_bytes``, and
``parallel.heartbeats`` (pool snapshots).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, deque

from repro.exceptions import ObservabilityError
from repro.obs import telemetry as obs

__all__ = [
    "STATUS_SCHEMA",
    "MetricsServer",
    "StatusReporter",
    "prometheus_text",
    "read_status",
    "render_status",
    "status_anomalies",
    "write_status",
]

#: Version of the status-record layout. Bump on any incompatible change
#: to the keys or their meaning; :func:`read_status` rejects others.
STATUS_SCHEMA = 3

#: Snapshots retained in the in-file history ring (the watch sparkline
#: and anomaly scan read these, so consumers stay stateless).
HISTORY_LEN = 64

#: (wall, progress) samples used for the recent-throughput ETA.
RATE_WINDOW = 16

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


# ----------------------------------------------------------------------
# The sidecar file: atomic write, validated read
# ----------------------------------------------------------------------
def write_status(path, status: dict) -> str:
    """Atomically write one status snapshot as JSON; returns the path.

    Same crash-safety contract as a checkpoint (tmp + fsync + rename via
    :func:`repro.checkpoint.atomic_write_bytes`): a reader polling the
    file mid-write sees either the previous complete snapshot or the new
    one — never a torn file. JSON (not pickle) on purpose: ``tecfan
    watch``, Prometheus relabeling, and foreign tooling all read it.
    """
    from repro.checkpoint import atomic_write_bytes

    from repro.obs.manifest import jsonable

    status = dict(status)
    status.setdefault("schema", STATUS_SCHEMA)
    blob = (json.dumps(jsonable(status)) + "\n").encode()
    atomic_write_bytes(path, blob)
    obs.incr("live.snapshots_written")
    obs.incr("live.snapshot_bytes", len(blob))
    return os.fspath(path)


def read_status(path) -> dict:
    """Load and validate one status snapshot.

    Raises :class:`~repro.exceptions.ObservabilityError` when the file
    is missing, unparsable, or carries an unknown schema version. Thanks
    to the atomic writer there is no torn-file case to tolerate — a
    parse failure means the file is not a status sidecar at all.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise ObservabilityError(f"no status file at {path}") from None
    except OSError as exc:
        raise ObservabilityError(
            f"status file {path} is unreadable: {exc}"
        ) from exc
    try:
        status = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"status file {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(status, dict):
        raise ObservabilityError(f"status file {path} is not a snapshot")
    schema = status.get("schema")
    if schema != STATUS_SCHEMA:
        raise ObservabilityError(
            f"status file {path} has schema {schema!r}; this build "
            f"supports {STATUS_SCHEMA}"
        )
    if status.get("kind") not in _SECTIONS:
        raise ObservabilityError(
            f"status file {path} has unknown kind {status.get('kind')!r}"
        )
    return status


class _Cadence:
    """Wall-clock due-time bookkeeping of a :class:`StatusReporter`.

    The first call is always due (so watchers latch on immediately);
    afterwards snapshots fire at most once per ``every_s`` seconds of
    wall time. The hot-path cost between due points is one
    ``time.monotonic()`` call and a compare.
    """

    __slots__ = ("every_s", "_next_due")

    def __init__(self, every_s: float):
        every_s = float(every_s)
        if every_s <= 0:
            raise ObservabilityError("status cadence must be positive")
        self.every_s = every_s
        self._next_due = 0.0

    def due(self, now: float) -> bool:
        return now >= self._next_due

    def advance(self, now: float) -> None:
        self._next_due = now + self.every_s


# ----------------------------------------------------------------------
# The reporter: one envelope, one section per kind
# ----------------------------------------------------------------------
class StatusReporter:
    """Periodic status snapshots of one live run, of any kind.

    The reporter owns everything the kinds share — the cadence, ``seq``,
    the throughput/ETA window, the history ring, the envelope and the
    atomic write — and asks the kind's section builder only for its own
    part:

    * ``engine-run`` (built by ``SimulationEngine`` when
      ``EngineConfig.status_path`` is set; reported from the simulate
      loop top): the
      energy/EPI fold over the trace rows grown since the last snapshot,
      checkpoint age, per-core temperatures;
    * ``pool`` (``parallel_map``): task tallies, one row per worker and
      the journal-replayed cells, all maintained from the dispatch and
      reply messages the scheduler already observes — workers never
      send unsolicited traffic;
    * ``fleet`` (``FleetSim``, every fleet run): fleet totals and
      the eight hottest nodes.

    Callers poll :meth:`due` and call :meth:`report` when it is, plus
    once with ``done=True`` after the run. Reporting only reads the
    caller's state and never touches the plant, the RNGs or the trace,
    so a run's digest is identical with or without a status file.
    """

    def __init__(
        self,
        path,
        kind: str,
        *,
        every_s: float = 1.0,
        label: str = "",
        total: float = 0.0,
        t_threshold_c: float | None = None,
        **context,
    ):
        if kind not in _SECTIONS:
            raise ObservabilityError(f"unknown status kind {kind!r}")
        self.path = os.fspath(path)
        self.kind = kind
        self.cadence = _Cadence(every_s)
        self.label = label
        #: Progress units at completion: sim-seconds, or cells for pools.
        self.total = float(total)
        self.t_threshold_c = t_threshold_c
        #: Fixed inputs of the kind's section (engine: ``system`` and
        #: ``checkpoint``; pool: ``journal``, ``cells`` — the caller's
        #: cell number of each dispatched index — and ``replayed``).
        self.context = context
        self.seq = 0
        self._rate: deque = deque(maxlen=RATE_WINDOW)
        self._history: deque = deque(maxlen=HISTORY_LEN)
        # engine-run: the trace fold, O(new rows) per snapshot.
        self._rows = 0
        self._energy_j = 0.0
        self._run_peak_c = float("-inf")
        # pool: tallies and worker rows fed by the scheduler hooks.
        self.tasks: Counter = Counter()
        self._workers: dict = {}

    def due(self) -> bool:
        """Whether a snapshot is due; the first call always is."""
        return self.cadence.due(time.monotonic())

    def report(self, *, done: bool = False, **fields) -> None:
        """Write one snapshot now: the envelope plus the kind's section."""
        now = time.monotonic()
        self.cadence.advance(now)
        build, unit = _SECTIONS[self.kind]
        units, section, thermal, sample = build(self, **fields)
        rate, eta_s = self._eta(now, units)
        thr = self.t_threshold_c
        if thermal is not None:
            peak, run_peak = thermal
            thermal = {
                "peak_temp_c": peak,
                "run_peak_c": run_peak,
                "headroom_c": None if thr is None else thr - peak,
            }
        if sample is not None:
            self._history.append(dict(
                sample,
                headroom_c=None if thr is None else thr - sample["peak_temp_c"],
            ))
        tel = obs.get_telemetry()
        write_status(self.path, {
            "schema": STATUS_SCHEMA,
            "kind": self.kind,
            "seq": self.seq,
            "pid": os.getpid(),
            "written_unix": time.time(),
            "done": bool(done),
            "label": self.label,
            "t_threshold_c": thr,
            "progress": {
                "done": units,
                "total": self.total,
                "unit": unit,
                "fraction": (
                    1.0 if done
                    else min(1.0, units / self.total) if self.total > 0
                    else 0.0
                ),
                "rate": rate,
                "eta_s": 0.0 if done else eta_s,
            },
            "thermal": thermal,
            "history": list(self._history),
            "counters": {} if tel is None else {
                n: c.value for n, c in sorted(tel.metrics._counters.items())
            },
            self.kind: section,
        })
        if self.kind == "pool":
            obs.incr("parallel.heartbeats")
        self.seq += 1

    def _eta(self, now: float, units: float) -> tuple[float | None, float | None]:
        """(progress units per wall-second, seconds to ``total``)."""
        self._rate.append((now, units))
        (w0, u0), (w1, u1) = self._rate[0], self._rate[-1]
        if w1 <= w0 or u1 <= u0:
            return None, None
        rate = (u1 - u0) / (w1 - w0)
        return rate, max(0.0, self.total - units) / rate

    # -- pool scheduler hooks ------------------------------------------
    def worker_dispatch(self, pid: int, index: int) -> None:
        cells = self.context.get("cells")
        row = self._workers.setdefault(
            pid,
            {"pid": pid, "tasks_done": 0, "last_reply_unix": None},
        )
        row["state"] = "busy"
        row["index"] = cells[index] if cells is not None else index

    def worker_reply(self, pid: int) -> None:
        row = self._workers.get(pid)
        if row is not None:
            row.update(
                state="idle",
                index=None,
                tasks_done=row["tasks_done"] + 1,
                last_reply_unix=time.time(),
            )

    def worker_retired(self, pid: int) -> None:
        self._workers.pop(pid, None)


def _engine_section(rep: StatusReporter, *, loop, trace):
    """``engine-run``: fold the trace rows grown since the last snapshot."""
    rows = trace.rows_since(rep._rows)
    for r in rows:
        # columns: time_s, dt_s, peak_temp_c, p_chip_w, ...
        rep._energy_j += r[3] * r[1]
        rep._run_peak_c = max(rep._run_peak_c, r[2])
    rep._rows += len(rows)
    t_comp = rep.context["system"].component_temps_c(loop.t_nodes)
    peak = float(t_comp.max())
    inst = loop.total_instructions
    ckpt = rep.context.get("checkpoint")
    last = getattr(ckpt, "last_write_unix", None)
    section = {
        "intervals": loop.intervals,
        "instructions": inst,
        "energy_j": rep._energy_j,
        "epi_j": rep._energy_j / inst if inst > 0 else None,
        "avg_power_w": (
            rep._energy_j / loop.time_s if loop.time_s > 0 else None
        ),
        "fan_level": int(loop.state.fan_level),
        "core_temps_c": [round(float(t), 4) for t in t_comp],
        "checkpoint": None if ckpt is None else {
            "path": ckpt.path,
            "age_s": None if last is None else time.time() - last,
        },
    }
    sample = None
    if rows:
        r = rows[-1]
        sample = {
            "time_s": r[0],
            "peak_temp_c": r[2],
            "p_chip_w": r[3],
            "ips_chip": r[7],
            "tec_on": r[8],
            "fan_level": r[9],
        }
    run_peak = rep._run_peak_c if rep._rows else peak
    return loop.time_s, section, (peak, run_peak), sample


def _pool_section(rep: StatusReporter, *, in_flight: int = 0, queued: int = 0):
    """``pool``: task tallies, worker rows and journal-replayed cells."""
    replayed = rep.context.get("replayed") or []
    tasks = rep.tasks
    section = {
        "total": int(rep.total),
        "replayed": len(replayed),
        "done": tasks["done"],
        "failed": tasks["failed"],
        "retries": tasks["retries"],
        "timeouts": tasks["timeouts"],
        "in_flight": int(in_flight),
        "queued": int(queued),
        "workers": [dict(rep._workers[pid]) for pid in sorted(rep._workers)],
        "replayed_indices": replayed[:HISTORY_LEN],
        "journal": rep.context.get("journal"),
    }
    settled = tasks["done"] + tasks["failed"] + len(replayed)
    return settled, section, None, None


def _fleet_section(
    rep: StatusReporter,
    *,
    time_s: float,
    energy_j: float,
    power_w: float,
    run_peak_c: float,
    node_peak_c,
    fan_levels,
    tec_rows,
    backlog_inst: float,
    p99_s: float,
    utilization: float,
    intervals: int,
    ff_intervals: int,
    class_groups: int,
):
    """``fleet``: fleet totals and the eight hottest nodes."""
    tec_on = tec_rows.sum(axis=1)
    hottest = (-node_peak_c).argsort(kind="stable")[:8]
    peak = float(node_peak_c.max())
    section = {
        "n_nodes": len(node_peak_c),
        "power_w": power_w,
        "avg_power_w": energy_j / time_s if time_s > 0 else None,
        "energy_j": energy_j,
        "backlog_inst": backlog_inst,
        "p99_latency_s": p99_s,
        "utilization": utilization,
        "class_groups": class_groups,
        "intervals": intervals,
        "ff_intervals": ff_intervals,
        "nodes": [
            {
                "node": int(i),
                "peak_temp_c": round(float(node_peak_c[i]), 3),
                "fan_level": int(fan_levels[i]),
                "tec_on": float(tec_on[i]),
            }
            for i in hottest
        ],
    }
    # Interval-shaped, so the anomaly scan reads fleet-wide actuation:
    # the mean fan level and the total TEC on-count.
    sample = {
        "time_s": time_s,
        "peak_temp_c": peak,
        "power_w": power_w,
        "p99_s": p99_s,
        "fan_level": float(fan_levels.mean()),
        "tec_on": float(tec_on.sum()),
    }
    return time_s, section, (peak, run_peak_c), sample


#: Status kinds: section builder and the unit progress is counted in.
_SECTIONS = {
    "engine-run": (_engine_section, "sim-s"),
    "pool": (_pool_section, "cells"),
    "fleet": (_fleet_section, "sim-s"),
}


# ----------------------------------------------------------------------
# The renderer (tecfan watch / tecfan top)
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int = 30) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _sparkline(values: list) -> str:
    vals = [float(v) for v in values if v is not None]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(vals)
    return "".join(
        _SPARK_BLOCKS[
            min(len(_SPARK_BLOCKS) - 1,
                int((v - lo) / span * len(_SPARK_BLOCKS)))
        ]
        for v in vals
    )


def _fmt(value, spec: str = "{:.2f}", missing: str = "?") -> str:
    if value is None:
        return missing
    return spec.format(value)


def status_anomalies(status: dict) -> list:
    """Anomaly flags over the snapshot history ring.

    History entries are shaped like interval events on purpose, so this
    reuses :func:`repro.analysis.tracetools.detect_anomalies` — same
    thresholds as ``tecfan trace anomalies`` (excursion margin 0.5 degC,
    6 reversals / 20 samples, 10% EPI drift) — just at snapshot rather
    than interval granularity.
    """
    from repro.analysis import tracetools

    history = [
        dict(h, kind="interval") for h in status.get("history") or []
    ]
    if not history:
        return []
    return tracetools.detect_anomalies(
        {"events": history}, threshold_c=status.get("t_threshold_c")
    )


def _engine_lines(section: dict, status: dict) -> list:
    counters = status.get("counters") or {}
    lines = [
        f"EPI {_fmt(section.get('epi_j'), '{:.3e}')} J/inst  "
        f"power {_fmt(section.get('avg_power_w'), '{:.1f}')} W  "
        f"energy {_fmt(section.get('energy_j'), '{:.1f}')} J  "
        f"intervals {section.get('intervals', 0)}  "
        f"fan {_fmt(section.get('fan_level'), '{:d}')}"
    ]
    hits = counters.get("thermal.propagator_hits", 0)
    lookups = hits + counters.get("thermal.propagator_misses", 0)
    if lookups:
        lines.append(f"cache: propagator {hits / lookups * 100:.1f}% hit")
    ckpt = section.get("checkpoint")
    if ckpt:
        lines.append(
            f"checkpoint: {ckpt.get('path')} "
            f"(age {_fmt(ckpt.get('age_s'), '{:.1f}')} s)"
        )
    return lines


def _pool_lines(section: dict, status: dict) -> list:
    done, failed = section.get("done", 0), section.get("failed", 0)
    replayed = section.get("replayed", 0)
    lines = [
        f"cells {done + failed + replayed}/{section.get('total', 0)} settled "
        f"({replayed} replayed, {done} live, {failed} failed)  "
        f"in-flight {section.get('in_flight', 0)}  "
        f"queued {section.get('queued', 0)}  "
        f"retries {section.get('retries', 0)}  "
        f"timeouts {section.get('timeouts', 0)}"
    ]
    workers = section.get("workers") or []
    if workers:
        lines.append(f"{'worker':>8}  {'state':<5} {'cell':>5} "
                     f"{'done':>5}  last-reply")
        written = status.get("written_unix")
        for w in workers:
            cell = w.get("index")
            last = w.get("last_reply_unix")
            age = written - last if None not in (written, last) else None
            lines.append(
                f"{w.get('pid', '?'):>8}  {w.get('state', '?'):<5} "
                f"{'-' if cell is None else cell:>5} "
                f"{w.get('tasks_done', 0):>5}  "
                f"{_fmt(age, '{:.1f}', '-')} s"
            )
    indices = section.get("replayed_indices") or []
    if indices:
        shown = ", ".join(str(i) for i in indices[:16])
        more = f", … ({len(indices)} total)" if len(indices) > 16 else ""
        lines.append(f"replayed cells: {shown}{more}")
    if section.get("journal"):
        lines.append(f"journal: {section['journal']}")
    return lines


def _fleet_lines(section: dict, status: dict) -> list:
    lines = [
        f"power {_fmt(section.get('power_w'), '{:.0f}')} W "
        f"(run avg {_fmt(section.get('avg_power_w'), '{:.0f}')} W)  "
        f"energy {_fmt(section.get('energy_j'), '{:.3g}')} J  "
        f"p99 {_fmt(section.get('p99_latency_s'), '{:.3g}')} s  "
        f"backlog {_fmt(section.get('backlog_inst'), '{:.3g}')} inst  "
        f"util {_fmt(section.get('utilization'), '{:.2f}')}  "
        f"classes {section.get('class_groups', '?')}  "
        f"intervals {section.get('intervals', 0)} "
        f"(+{section.get('ff_intervals', 0)} fast-forwarded)"
    ]
    nodes = section.get("nodes") or []
    if nodes:
        lines.append(f"{'node':>6}  {'peak degC':>9}  {'fan':>3}  {'tec-on':>6}")
        for nd in nodes:
            lines.append(
                f"{nd.get('node', '?'):>6}  "
                f"{_fmt(nd.get('peak_temp_c')):>9}  "
                f"{_fmt(nd.get('fan_level'), '{:.0f}'):>3}  "
                f"{_fmt(nd.get('tec_on'), '{:.0f}'):>6}"
            )
    return lines


_KIND_LINES = {
    "engine-run": _engine_lines,
    "pool": _pool_lines,
    "fleet": _fleet_lines,
}


def render_status(status: dict) -> str:
    """Plain-text ``tecfan watch``/``top`` view of a snapshot of any kind."""
    kind = status.get("kind")
    state = "done" if status.get("done") else "running"
    prog = status.get("progress") or {}
    fraction = prog.get("fraction") or 0.0
    unit = prog.get("unit", "")
    lines = [
        f"tecfan {kind} — {status.get('label') or '?'} "
        f"(pid {status.get('pid', '?')}) [{state}] seq={status.get('seq', 0)}",
        f"progress {_bar(fraction)} {fraction * 100:5.1f}%  "
        f"{_fmt(prog.get('done'), '{:g}')}/{_fmt(prog.get('total'), '{:g}')} "
        f"{unit}  rate {_fmt(prog.get('rate'), '{:.3g}')} {unit}/s  "
        f"eta {_fmt(prog.get('eta_s'), '{:.1f}')} s",
    ]
    thermal = status.get("thermal")
    if thermal:
        headroom = thermal.get("headroom_c")
        flag = "  !! OVER THRESHOLD" if (
            headroom is not None and headroom < 0
        ) else ""
        lines.append(
            f"peak {_fmt(thermal.get('peak_temp_c'))} degC  "
            f"(run max {_fmt(thermal.get('run_peak_c'))})  "
            f"threshold {_fmt(status.get('t_threshold_c'))}  "
            f"headroom {_fmt(headroom, '{:+.2f}')} degC{flag}"
        )
    history = status.get("history") or []
    spark = _sparkline([h.get("headroom_c") for h in history])
    if spark:
        lines.append(f"headroom  {spark}  (last {len(history)} snapshots)")
    if kind in _KIND_LINES:
        lines.extend(_KIND_LINES[kind](status.get(kind) or {}, status))
    anomalies = status_anomalies(status)
    if anomalies:
        lines.append(f"anomalies: !! {len(anomalies)} finding(s)")
        for a in anomalies[:4]:
            lines.append(f"  - {a.kind}: {a.detail}")
    else:
        lines.append("anomalies: none detected")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch in "_:") else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "tecfan_" + sanitized


def _prom_number(value) -> str:
    v = float(value)
    if v == float("inf"):
        return "+Inf"
    return repr(v) if v != int(v) else str(int(v))


#: Per-kind status gauges: Prometheus name -> key of the kind's section
#: (a list-valued key exports its length).
_KIND_GAUGES = {
    "engine-run": {"live_epi_joules": "epi_j"},
    "fleet": {
        "fleet_nodes": "n_nodes",
        "fleet_power_watts": "power_w",
        "fleet_p99_latency_seconds": "p99_latency_s",
        "fleet_backlog_instructions": "backlog_inst",
    },
    "pool": {
        **{
            f"pool_tasks_{key}": key
            for key in ("total", "done", "failed", "replayed", "in_flight",
                        "queued")
        },
        "pool_workers": "workers",
    },
}


def prometheus_text(snapshot: dict | None, status: dict | None = None) -> str:
    """Render a metrics snapshot (+ live status gauges) in Prometheus
    text exposition format (version 0.0.4).

    Counters get the conventional ``_total`` suffix; histograms emit
    cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
    Dots and dashes in instrument names become underscores, and
    everything is prefixed ``tecfan_``. A status snapshot adds the
    ``live_*`` gauges from its envelope plus its kind's gauge table.
    """
    lines: list[str] = []
    snapshot = snapshot or {}
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        pname = _prom_name(name) + "_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_prom_number(value)}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_number(value)}")
    for name, hist in sorted((snapshot.get("histograms") or {}).items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for edge, count in zip(hist["edges"], hist["counts"]):
            cumulative += count
            lines.append(
                f'{pname}_bucket{{le="{_prom_number(edge)}"}} {cumulative}'
            )
        lines.append(f'{pname}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{pname}_sum {_prom_number(hist['total'])}")
        lines.append(f"{pname}_count {hist['count']}")
    if status is not None:
        kind = status.get("kind")
        prog = status.get("progress") or {}
        thermal = status.get("thermal") or {}
        live = {
            "live_up": 1,
            "live_done": 1 if status.get("done") else 0,
            "live_snapshot_seq": status.get("seq", 0),
            "live_progress_fraction": prog.get("fraction"),
            "live_eta_seconds": prog.get("eta_s"),
            "live_sim_time_seconds": (
                prog.get("done") if prog.get("unit") == "sim-s" else None
            ),
            "live_peak_temp_celsius": thermal.get("peak_temp_c"),
            "live_headroom_celsius": thermal.get("headroom_c"),
        }
        section = status.get(kind) or {}
        for name, key in _KIND_GAUGES.get(kind, {}).items():
            value = section.get(key)
            live[name] = len(value) if isinstance(value, list) else value
        for name, value in live.items():
            if value is None:
                continue
            pname = "tecfan_" + name
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_number(value)}")
    return "\n".join(lines) + "\n"


def _snapshot_safely(tel) -> dict:
    """Metrics snapshot tolerant of the single mutator thread.

    The registry has no locks (the simulator is single-threaded); the
    exposition thread only *reads*, but a new instrument created while
    the snapshot iterates can raise ``RuntimeError: dictionary changed
    size``. Retrying a handful of times makes a scrape effectively
    always succeed without adding a lock to the hot path.
    """
    for _ in range(8):
        try:
            return tel.metrics.snapshot()
        except RuntimeError:
            continue
    return {"counters": {}, "gauges": {}, "histograms": {}}


class MetricsServer:
    """Prometheus scrape endpoint over a stdlib ``http.server`` thread.

    Serves the *currently active* telemetry session's registry (so a
    scrape mid-run sees live counters) plus, when ``status_path`` is
    given, the latest status snapshot's gauges. ``port=0`` binds an
    ephemeral port (see :attr:`port`). The server thread is a daemon and
    only ever reads, so it cannot perturb the simulation.
    """

    def __init__(self, port: int = 0, *, host: str = "",
                 status_path=None, telemetry_getter=None):
        import http.server

        self.status_path = (
            os.fspath(status_path) if status_path is not None else None
        )
        self._get_tel = telemetry_getter or obs.get_telemetry
        server_self = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                body = server_self._render().encode()
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-scrape stderr
                pass

        self._server = http.server.ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        import threading

        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True,
            name="tecfan-metrics",
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def _render(self) -> str:
        tel = self._get_tel()
        snapshot = _snapshot_safely(tel) if tel is not None else None
        status = None
        if self.status_path is not None:
            try:
                status = read_status(self.status_path)
            except ObservabilityError:
                status = None
        return prometheus_text(snapshot, status)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
