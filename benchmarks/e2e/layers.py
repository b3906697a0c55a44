"""Outside-in per-layer spans for the end-to-end benchmark.

Each layer is one module of ``repro``. :class:`Tracer` replaces the
public callables of that module's classes, at class level, with thin
wrappers that record one span per call: which callable, start and end
(``perf_counter_ns``), the enclosing span, and a ``run_id`` that is new
for every engine, fleet or pool run. Nothing under ``src/`` changes; the
wrappers must be installed before the objects that bind these methods
(``build_system`` stores ``per_component_w`` as the leakage callback)
are built.

Spans live in flat in-memory columns and are written once, at exit
(:meth:`Tracer.save`). Self time is a span's duration minus what its
child spans cover; since a process runs one span at a time, children
nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

#: layer -> [(module, class, callables)]. The layer list of the
#: benchmark; a later change that adds spans inside ``src/`` should keep
#: these names.
LAYERS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "power": [
        ("repro.power.component_power", "ComponentPowerModel",
         ("dynamic_power_w", "dynamic_power_many")),
        ("repro.power.leakage", "LinearLeakage", ("per_component_w",)),
        ("repro.power.leakage", "QuadraticLeakage", ("per_component_w",)),
        ("repro.core.system", "CMPSystem", ("tec_power_w", "tec_power_many")),
    ],
    "thermal.steady_state": [
        ("repro.thermal.steady_state", "SteadyStateSolver",
         ("solve", "solve_many")),
    ],
    "thermal.leakage_loop": [
        ("repro.thermal.leakage_loop", "LeakageCoupledSolver", ("solve",)),
    ],
    "thermal.transient": [
        ("repro.thermal.transient", "PaperTransient",
         ("step", "interpolate", "betas")),
    ],
    "core.estimator": [
        ("repro.core.estimator", "NextIntervalEstimator",
         ("begin_interval", "evaluate", "evaluate_many")),
        ("repro.core.local_estimator", "LocalBandedEstimator",
         ("begin_interval", "evaluate", "evaluate_many")),
    ],
    "core.controller": [
        ("repro.core.controller", "Controller", ("decide_fan",)),
        ("repro.core.baselines", "FanOnlyController", ("decide",)),
        ("repro.core.baselines", "FanTECController", ("decide",)),
        ("repro.core.baselines", "FanDVFSController", ("decide",)),
        ("repro.core.baselines", "DVFSTECController", ("decide",)),
        ("repro.core.tecfan", "TECfanController", ("decide", "decide_fan")),
    ],
    "core.oracle": [
        ("repro.core.oracle", "ExhaustiveSearcher", ("decide", "decide_fan")),
    ],
    "core.engine": [
        ("repro.core.engine", "SimulationEngine", ("run",)),
    ],
    "core.trace": [
        ("repro.core.trace", "TraceRecorder", ("append", "extend")),
    ],
    "perf.workload": [
        ("repro.perf.workload", "WorkloadRun",
         ("advance", "activity_vector", "time_to_completion_s")),
        ("repro.server.trace_workload", "ServerTraceRun",
         ("advance", "activity_vector", "time_to_completion_s")),
    ],
    "fleet.router": [
        ("repro.fleet.router", "RoundRobinRouter", ("split",)),
        ("repro.fleet.router", "LeastLoadedRouter", ("split",)),
        ("repro.fleet.router", "ThermalAwareRouter", ("split",)),
    ],
    "fleet.stepper": [
        ("repro.fleet.stepper", "BatchedStepper", ("advance",)),
        ("repro.fleet.stepper", "SequentialStepper", ("advance",)),
    ],
    "fleet.control": [
        ("repro.fleet.control", "FleetPolicy",
         ("tile_peaks_c", "decide_tec", "decide_dvfs", "decide_fan")),
    ],
    "fleet.sim": [
        ("repro.fleet.sim", "FleetSim", ("run",)),
    ],
    "parallel": [
        ("repro.parallel", "WorkerPool", ("__init__", "map", "close")),
    ],
}

#: Callables whose call starts a new ``run_id``.
RUN_ROOTS = frozenset(
    {"SimulationEngine.run", "FleetSim.run", "WorkerPool.map"}
)


def _engine_seconds() -> float:
    """Engine seconds recorded by the active telemetry session, if any.

    Read around ``WorkerPool.map``: the pool folds each worker's
    telemetry into the parent's session when the map ends, so the
    difference is the engine time the workers spent on that map.
    """
    from repro.obs import get_telemetry

    tel = get_telemetry()
    if tel is None:
        return 0.0
    stats = tel.spans.stats
    return sum(stats[n].total_s for n in ("engine.run", "engine.prime") if n in stats)


class Tracer:
    """Class-level span recorder over :data:`LAYERS`.

    ``install()`` patches every listed callable for the rest of the
    process. Columns grow one entry per call: ``callable_ids``,
    ``starts``, ``ends`` (ns), ``parents`` (span index or -1) and
    ``run_ids``. ``worker_engine_s`` sums the engine seconds the pool's
    workers report during ``WorkerPool.map`` calls.
    """

    def __init__(self) -> None:
        self.names: list[str] = []  # callable id -> "Class.method"
        self.layer_of: list[str] = []  # callable id -> layer
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans (e.g. those of the set-up phase)."""
        self.callable_ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.run_ids: list[int] = []
        self._stack: list[int] = []
        self._runs = 0
        self.worker_engine_s = 0.0

    def __len__(self) -> int:
        return len(self.starts)

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for layer, targets in LAYERS.items():
            for module, cls_name, methods in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    cid = len(self.names)
                    self.names.append(f"{cls_name}.{method}")
                    self.layer_of.append(layer)
                    setattr(cls, method, self._wrap(fn, cid))
        return self

    def _wrap(self, fn, cid: int):
        name = self.names[cid]
        new_run = name in RUN_ROOTS
        probe = _engine_seconds if name == "WorkerPool.map" else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack
            idx = len(self.starts)
            parent = stack[-1] if stack else -1
            if new_run:
                self._runs += 1
                run_id = self._runs
            else:
                run_id = self.run_ids[parent] if parent >= 0 else 0
            self.callable_ids.append(cid)
            self.parents.append(parent)
            self.run_ids.append(run_id)
            self.ends.append(0)
            stack.append(idx)
            before = probe() if probe is not None else 0.0
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                stack.pop()
                if probe is not None:
                    self.worker_engine_s += probe() - before

        return span

    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The span columns as arrays (durations and self times derived)."""
        start = np.asarray(self.starts, dtype=np.int64)
        end = np.asarray(self.ends, dtype=np.int64)
        parent = np.asarray(self.parents, dtype=np.int64)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "callable": np.asarray(self.callable_ids, dtype=np.int32),
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "run_id": np.asarray(self.run_ids, dtype=np.int64),
            "duration_ns": duration,
            "self_ns": duration - child,
        }

    def save(self, path) -> None:
        """Write every span once, as a compressed ``.npz``."""
        cols = self.arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            layers=np.asarray(self.layer_of),
            **{k: cols[k] for k in ("callable", "start_ns", "end_ns", "parent", "run_id")},
        )


def _tail(durations_us: np.ndarray) -> float:
    """p99 with >= 1000 calls, p90 with >= 100, else the maximum."""
    n = durations_us.size
    if n == 0:
        return 0.0
    q = 99 if n >= 1000 else 90 if n >= 100 else 100
    return float(np.percentile(durations_us, q))


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer calls, self time, self share and call-time quantiles.

    ``wall_s`` is the traced timed section; ``trace.unattributed_s`` is
    the part of it no root span covers (benchmark glue, and program code
    between layer calls), so the self times plus it add up to the wall.
    """
    cols = tracer.arrays()
    layer_ids = np.asarray(
        [list(LAYERS).index(layer) for layer in tracer.layer_of], dtype=np.int64
    )
    span_layer = layer_ids[cols["callable"]] if len(tracer) else np.zeros(0, np.int64)
    out: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        mask = span_layer == i
        dur_us = cols["duration_ns"][mask] / 1e3
        self_s = float(cols["self_ns"][mask].sum()) / 1e9
        out[f"{layer}.calls"] = int(mask.sum())
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_share"] = self_s / wall_s if wall_s > 0 else 0.0
        out[f"{layer}.call_us_p50"] = float(np.median(dur_us)) if dur_us.size else 0.0
        out[f"{layer}.call_us_tail"] = _tail(dur_us)
    roots = cols["parent"] < 0
    out["trace.unattributed_s"] = wall_s - float(cols["duration_ns"][roots].sum()) / 1e9
    return out


def leakage_iterations(tracer: Tracer) -> float:
    """Steady-state solves per leakage fixed-point call."""
    cols = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    loop = cols["callable"] == ids["LeakageCoupledSolver.solve"]
    if not loop.any():
        return 0.0
    solve = cols["callable"] == ids["SteadyStateSolver.solve"]
    loop_spans = np.flatnonzero(loop)
    inner = np.isin(cols["parent"][solve], loop_spans).sum()
    return float(inner) / float(loop.sum())
