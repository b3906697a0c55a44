"""Cached arrival-stream sources for fleet simulations.

The same demand series is asked for from several places: every fleet
run builds its stream, the server experiment rebuilds the Wikipedia
protocol workload per run, and a pooled policy suite repeats that once
per worker process. The Wikipedia synthesizer in particular runs two
AR(1) recursions over ``days * 86400`` samples — about 0.15 s for the
7-day trace on a 2-vCPU Xeon host — so re-synthesizing per run would
still weigh on small fleets.

This module memoizes trace construction behind a process-local cache
keyed by the full parameter tuple. Pool workers are persistent and
module state survives across tasks, so the first task on each worker
builds the series once and every later request is a hit (counted by
``server.trace_cache_hits``). Cached arrays are returned read-only and
must not be mutated by callers.

Two stream kinds are provided:

* ``wikipedia`` — the paper's S8 trace (:func:`repro.server.wikipedia.
  generate_trace`), optionally tiled to cover longer horizons.
* ``diurnal`` — a fully vectorized synthetic day/night shape with a
  weekly modulation and a deterministic block-noise term. Unlike the
  Wikipedia AR(1) recursions it costs microseconds for a 24 h series, and
  demand is constant within ``block_s``-long blocks, which is what lets
  the fleet fast-forward across quiescent stretches.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import WorkloadError
from repro.fleet_names import TRACE_KINDS
from repro.obs import telemetry as obs
from repro.server.wikipedia import WikipediaTrace, generate_trace

#: Default block length of the synthetic diurnal stream [s]. Demand is
#: piecewise-constant at this resolution.
DIURNAL_BLOCK_S = 60

_CACHE: dict[tuple, np.ndarray] = {}
_WIKI_CACHE: dict[tuple, WikipediaTrace] = {}


def clear_trace_cache() -> None:
    """Drop every memoized series (tests / memory pressure)."""
    _CACHE.clear()
    _WIKI_CACHE.clear()


def trace_cache_size() -> int:
    """Number of memoized entries across both caches."""
    return len(_CACHE) + len(_WIKI_CACHE)


def cached_wikipedia_trace(seed: int = 2009, days: int = 7) -> WikipediaTrace:
    """Memoized :func:`repro.server.wikipedia.generate_trace`.

    The returned trace's ``utilization`` array is read-only; hits
    increment ``server.trace_cache_hits``.
    """
    key = ("wikipedia-trace", int(seed), int(days))
    hit = _WIKI_CACHE.get(key)
    if hit is not None:
        obs.incr("server.trace_cache_hits")
        return hit
    trace = generate_trace(seed=int(seed), days=int(days))
    trace.utilization.setflags(write=False)
    _WIKI_CACHE[key] = trace
    return trace


def diurnal_utilization(
    duration_s: int,
    seed: int = 2009,
    mean_utilization: float = 0.486,
    diurnal_amplitude: float = 0.33,
    weekly_amplitude: float = 0.10,
    noise_sigma: float = 0.05,
    block_s: int = DIURNAL_BLOCK_S,
) -> np.ndarray:
    """Vectorized synthetic diurnal utilization series, per-second.

    The shape mirrors the Wikipedia synthesizer's deterministic part —
    a daily sinusoid peaking mid-afternoon plus a weekly modulation —
    with i.i.d. Gaussian block noise instead of the sequential AR(1)
    loops, so a 24 h (or 7-day) series is a handful of numpy
    expressions. Demand is constant within each ``block_s`` block and
    the series is clipped to [0, 1].
    """
    duration_s = int(duration_s)
    block_s = int(block_s)
    if duration_s <= 0:
        raise WorkloadError("diurnal duration must be > 0 seconds")
    if block_s <= 0:
        raise WorkloadError("diurnal block length must be > 0 seconds")
    n_blocks = -(-duration_s // block_s)
    t = (np.arange(n_blocks) * block_s).astype(float)
    day = t / 86400.0
    week = day / 7.0
    shape = (
        1.0
        + diurnal_amplitude * np.sin(2.0 * np.pi * (day - 0.375))
        + weekly_amplitude * np.sin(2.0 * np.pi * (week - 0.25))
    )
    rng = np.random.default_rng(int(seed))
    shape = shape + noise_sigma * rng.standard_normal(n_blocks)
    shape = np.clip(shape, 0.0, None)
    mean = shape.mean()
    if mean > 0:
        shape = shape * (float(mean_utilization) / mean)
    series = np.clip(np.repeat(shape, block_s)[:duration_s], 0.0, 1.0)
    return series


def fleet_demand(
    kind: str,
    duration_s: int,
    seed: int = 2009,
    scale: float = 1.0,
    block_s: int = DIURNAL_BLOCK_S,
) -> np.ndarray:
    """Per-second aggregate utilization stream in [0, 1], memoized.

    ``kind`` selects the source (:data:`TRACE_KINDS`); ``scale``
    multiplies the series before the final clip (the FLEET.md trace-
    scaling study drives this from x1.5 through x100). The Wikipedia
    source tiles its 7-day series when ``duration_s`` exceeds it.
    Returns a read-only array; cache hits increment
    ``server.trace_cache_hits``.
    """
    kind = str(kind)
    if kind not in TRACE_KINDS:
        raise WorkloadError(
            f"unknown fleet trace kind {kind!r} (expected one of {TRACE_KINDS})"
        )
    key = (kind, int(duration_s), int(seed), float(scale), int(block_s))
    hit = _CACHE.get(key)
    if hit is not None:
        obs.incr("server.trace_cache_hits")
        return hit
    duration_s = int(duration_s)
    if duration_s <= 0:
        raise WorkloadError("fleet demand duration must be > 0 seconds")
    if kind == "wikipedia":
        trace = cached_wikipedia_trace(seed=seed)
        base = trace.utilization
        reps = -(-duration_s // len(base))
        series = np.tile(base, reps)[:duration_s]
    else:
        series = diurnal_utilization(
            duration_s, seed=seed, block_s=block_s
        )
    series = np.clip(series * float(scale), 0.0, 1.0)
    series.setflags(write=False)
    _CACHE[key] = series
    return series
