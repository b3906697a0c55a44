"""Utilization-trace-driven workload for the server experiment (Sec. V-E).

Unlike the closed SPLASH-2 runs (fixed instruction budget, always
backlogged), the server is an *open* system: each core receives the
request stream of one 10-minute Wikipedia trace piece. Per control
interval the offered work is ``u(t) * peak_ips * dt`` useful
instructions; the core serves at ``capacity(f) = perf(f) * peak_ips``
(quadratic SPECjbb model). Work the core cannot serve queues up and
drains later — that backlog-induced extension of the completion time is
the "delay" of Fig. 7 (Oracle trades ~3% of it for energy; TECfan stays
performance-neutral).

:class:`ServerTraceRun` implements the same duck-typed interface the
engine expects from :class:`repro.perf.workload.WorkloadRun`;
:class:`ServerIPSPredictor` is the matching controller-side IPS model
(demand-capped quadratic capacity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import WorkloadError
from repro.floorplan.chip import ChipFloorplan
from repro.power.dvfs import DVFSTable
from repro.server.specjbb import DEFAULT_PERF_MODEL, QuadraticPerfModel


@dataclass(frozen=True)
class ServerWorkload:
    """Static description of the trace-driven server workload."""

    name: str
    #: Per-core, per-second utilization demand in [0, 1] (demand at the
    #: reference frequency), shape (n_cores, duration_s).
    demand: np.ndarray
    #: Useful-IPS capacity of one core at the reference frequency.
    peak_ips: float
    perf: QuadraticPerfModel = DEFAULT_PERF_MODEL
    #: Per-component utilization shape (None = flat).
    component_profile: np.ndarray | None = None

    def __post_init__(self) -> None:
        d = np.asarray(self.demand, dtype=float)
        if d.ndim != 2:
            raise WorkloadError("demand must be (n_cores, duration_s)")
        if np.any(d < 0.0) or np.any(d > 1.0):
            raise WorkloadError("demand must lie in [0, 1]")
        if self.peak_ips <= 0:
            raise WorkloadError("peak IPS must be positive")
        object.__setattr__(self, "demand", d)

    @property
    def n_cores(self) -> int:
        """Cores driven by the trace."""
        return self.demand.shape[0]

    @property
    def duration_s(self) -> float:
        """Trace duration [s]."""
        return float(self.demand.shape[1])

    @property
    def total_instructions(self) -> float:
        """Total useful instructions offered by the trace."""
        return float(self.demand.sum() * self.peak_ips)


@dataclass
class ServerTraceRun:
    """Executable open-system state (duck-types ``WorkloadRun``)."""

    workload: ServerWorkload
    chip: ChipFloorplan
    ref_freq_ghz: float
    elapsed_s: float = 0.0
    backlog: np.ndarray = field(default=None)
    seed: int | None = None  # unused; API parity with WorkloadRun

    def __post_init__(self) -> None:
        if self.workload.n_cores != self.chip.n_tiles:
            raise WorkloadError(
                f"trace drives {self.workload.n_cores} cores but chip has "
                f"{self.chip.n_tiles} tiles"
            )
        if self.backlog is None:
            self.backlog = np.zeros(self.chip.n_tiles)
        self._freqs = np.full(self.chip.n_tiles, self.ref_freq_ghz)

    # ------------------------------------------------------------------
    def _demand_at(self, t_s: float) -> np.ndarray:
        """Per-core utilization demand at absolute time ``t_s``."""
        wl = self.workload
        idx = int(t_s)
        if idx >= wl.demand.shape[1]:
            return np.zeros(wl.n_cores)
        return wl.demand[:, idx]

    def _capacity_ips(self, freqs_ghz: np.ndarray) -> np.ndarray:
        """Per-core useful-IPS capacity at ``freqs_ghz``."""
        return self.workload.perf.capacity_ips(
            freqs_ghz, self.workload.peak_ips
        )

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def time_to_completion_s(self, freqs_ghz: np.ndarray) -> float:
        """Remaining time: rest of the trace plus backlog drain."""
        self._freqs = np.asarray(freqs_ghz, dtype=float)
        wl = self.workload
        remaining_trace = max(0.0, wl.duration_s - self.elapsed_s)
        if remaining_trace > 0.0:
            return np.inf  # the trace itself is still arriving
        cap = self._capacity_ips(self._freqs)
        with np.errstate(divide="ignore", invalid="ignore"):
            drain = np.where(
                self.backlog > 0.0, self.backlog / np.maximum(cap, 1e-9), 0.0
            )
        return float(drain.max())

    def activity_vector(self) -> np.ndarray:
        """Expected per-core busy fraction for the upcoming interval."""
        demand = self._demand_at(self.elapsed_s)
        cap = self._capacity_ips(self._freqs)
        offered = demand * self.workload.peak_ips + self.backlog  # per 1 s
        with np.errstate(divide="ignore", invalid="ignore"):
            busy = np.where(cap > 0.0, offered / cap, 1.0)
        return np.clip(busy, 0.0, 1.0)

    def ips_vector(self, freqs_ghz: np.ndarray) -> np.ndarray:
        """Useful IPS the cores would serve right now."""
        freqs = np.asarray(freqs_ghz, dtype=float)
        demand = self._demand_at(self.elapsed_s)
        offered = demand * self.workload.peak_ips + self.backlog
        return np.minimum(offered, self._capacity_ips(freqs))

    def advance(self, dt_s: float, freqs_ghz: np.ndarray) -> np.ndarray:
        """Serve ``dt_s`` seconds of the stream; returns useful
        instructions retired per core."""
        if dt_s <= 0:
            raise WorkloadError(f"non-positive step {dt_s}")
        freqs = np.asarray(freqs_ghz, dtype=float)
        wl = self.workload
        arriving = (
            self._demand_at(self.elapsed_s) * wl.peak_ips * dt_s
            if self.elapsed_s < wl.duration_s
            else np.zeros(wl.n_cores)
        )
        work = self.backlog + arriving
        served = np.minimum(work, self._capacity_ips(freqs) * dt_s)
        self.backlog = work - served
        self.elapsed_s += dt_s
        return served

    @property
    def finished(self) -> bool:
        """Trace fully arrived and every backlog drained."""
        return (
            self.elapsed_s >= self.workload.duration_s
            and bool(np.all(self.backlog < 1.0))
        )

    @property
    def progress(self) -> float:
        """Fraction of offered work served so far."""
        total = self.workload.total_instructions
        if total <= 0:
            return 1.0
        outstanding = float(self.backlog.sum())
        arrived = (
            self.workload.demand[:, : int(min(self.elapsed_s,
                self.workload.duration_s))].sum() * self.workload.peak_ips
        )
        return max(0.0, (arrived - outstanding) / total)


@dataclass
class ServerIPSPredictor:
    """Controller-side IPS model for the open server workload.

    Predicted per-core IPS = min(last measured demand, capacity(f)),
    with capacity from the quadratic SPECjbb model — so lowering DVFS is
    performance-neutral while capacity exceeds demand, which is how
    TECfan saves 29% energy "without degrading the performance"
    (Sec. V-E).
    """

    dvfs: DVFSTable
    peak_ips: float
    perf: QuadraticPerfModel = DEFAULT_PERF_MODEL
    #: A core serving at >= this fraction of its capacity is considered
    #: saturated: its true demand is unobservable, so raising must be
    #: assumed to gain throughput (the OS sees 100% utilization).
    saturation_frac: float = 0.98
    _demand: np.ndarray = field(default=None, repr=False)

    def observe(self, ips: np.ndarray, dvfs_levels: np.ndarray) -> None:
        """Record measured useful IPS (the visible demand).

        Saturated cores report demand = +inf: the backlog hides how much
        work is really waiting, and a saturated core always benefits
        from more capacity.
        """
        measured = np.asarray(ips, dtype=float).copy()
        freqs = self.dvfs.frequency_ghz(np.asarray(dvfs_levels, dtype=int))
        cap = self.perf.capacity_ips(freqs, self.peak_ips)
        saturated = measured >= self.saturation_frac * cap
        measured[saturated] = np.inf
        self._demand = measured

    @property
    def ready(self) -> bool:
        """True once one interval has been observed."""
        return self._demand is not None

    def predict(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-core IPS for a candidate level vector."""
        if self._demand is None:
            raise WorkloadError("no interval observed yet")
        freqs = self.dvfs.frequency_ghz(np.asarray(dvfs_levels, dtype=int))
        cap = self.perf.capacity_ips(freqs, self.peak_ips)
        return np.minimum(self._demand, cap)

    def predict_many(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-core IPS for a ``(batch, n_cores)`` level matrix.

        Row ``b`` is bit-identical to ``predict(dvfs_levels[b])``.
        """
        if self._demand is None:
            raise WorkloadError("no interval observed yet")
        freqs = self.dvfs.frequency_ghz(np.asarray(dvfs_levels, dtype=int))
        cap = self.perf.capacity_ips(freqs, self.peak_ips)
        return np.minimum(self._demand[None, :], cap)
