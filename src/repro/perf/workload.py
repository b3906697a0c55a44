"""Workload abstraction: calibrated multi-threaded instruction streams.

The paper's SESC runs give it, per benchmark: the thread count, the
instruction budget, and (implicitly, through Wattch) per-component
activity. A :class:`Workload` captures exactly those observables —
per-core IPC at the reference frequency, a per-tile activity level, a
per-component utilization *profile* shaping where the heat lands, and a
phase list providing temporal variation. :class:`WorkloadRun` is the
executable state: it advances instruction counts at the frequencies the
controller chose and reports when the benchmark completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import WorkloadError
from repro.floorplan.chip import ChipFloorplan


@dataclass(frozen=True)
class Phase:
    """One execution phase: a fraction of instructions at scaled activity."""

    inst_fraction: float
    activity_mult: float = 1.0
    ipc_mult: float = 1.0


@dataclass(frozen=True)
class Workload:
    """A calibrated multi-threaded benchmark.

    Parameters
    ----------
    name:
        Benchmark identifier (e.g. ``"cholesky"``).
    threads:
        Number of worker threads (one per active tile).
    total_instructions:
        Committed instructions across all threads (after fast-forward).
    ff_instructions:
        Fast-forwarded instructions (Table I's ``FF Inst``; bookkeeping
        only — not simulated).
    ipc_at_ref:
        Per-core committed IPC at the reference frequency.
    activity:
        Per-tile dynamic activity in [0, 1] at the reference point.
    active_tiles:
        Tile indices hosting threads.
    phases:
        Temporal phases; fractions must sum to 1.
    component_profile:
        Optional per-component multiplicative utilization shape
        (power-weighted mean must be ~1 so chip power stays calibrated).
    thread_weights:
        Relative instruction share per thread (mean 1), matching
        ``active_tiles`` order. SPLASH-2 kernels are load-imbalanced:
        threads that finish early *spin* at the barrier, burning
        near-compute power while retiring no useful instructions — the
        headroom TECfan's performance-neutral DVFS decreases harvest.
    spin_activity_frac:
        Dynamic activity of a spinning core relative to its computing
        activity (busy-wait loops hammer fetch/issue/branch units).
    input_file:
        Table I's input-file column (provenance bookkeeping).
    """

    name: str
    threads: int
    total_instructions: int
    ff_instructions: int
    ipc_at_ref: float
    activity: float
    active_tiles: tuple[int, ...]
    phases: tuple[Phase, ...] = (Phase(1.0),)
    component_profile: np.ndarray | None = None
    thread_weights: tuple[float, ...] | None = None
    spin_activity_frac: float = 0.85
    #: Std-dev of the chip-wide AR(1) activity fluctuation. Real codes
    #: jitter interval to interval (cache misses, lock contention); the
    #: one-interval-lag Eq. (7) estimator cannot foresee it, so slower
    #: fan levels (less thermal headroom) accumulate violations — the
    #: mechanism behind the paper's per-policy fan-level selection.
    activity_noise_sigma: float = 0.025
    #: AR(1) correlation of the activity fluctuation per control step
    #: (rho = 0.9 at 2 ms gives a ~20 ms drift the controllers chase).
    activity_noise_rho: float = 0.9
    input_file: str = ""

    def __post_init__(self) -> None:
        if self.threads != len(self.active_tiles):
            raise WorkloadError(
                f"{self.name}: {self.threads} threads but "
                f"{len(self.active_tiles)} active tiles"
            )
        if self.total_instructions <= 0:
            raise WorkloadError(f"{self.name}: non-positive instruction count")
        if not 0.0 < self.ipc_at_ref:
            raise WorkloadError(f"{self.name}: IPC must be positive")
        if not 0.0 < self.activity <= 1.0:
            raise WorkloadError(f"{self.name}: activity must lie in (0, 1]")
        total = sum(p.inst_fraction for p in self.phases)
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(
                f"{self.name}: phase fractions sum to {total}, expected 1"
            )
        if self.thread_weights is not None:
            if len(self.thread_weights) != self.threads:
                raise WorkloadError(
                    f"{self.name}: {len(self.thread_weights)} weights for "
                    f"{self.threads} threads"
                )
            if any(w <= 0 for w in self.thread_weights):
                raise WorkloadError(f"{self.name}: non-positive thread weight")
        if not 0.0 <= self.spin_activity_frac <= 1.0:
            raise WorkloadError(
                f"{self.name}: spin activity fraction must lie in [0, 1]"
            )

    def thread_budget(self, slot: int) -> float:
        """Instruction budget of the ``slot``-th thread (weighted)."""
        base = self.total_instructions / self.threads
        if self.thread_weights is None:
            return base
        mean = sum(self.thread_weights) / self.threads
        return base * self.thread_weights[slot] / mean

    @property
    def max_thread_weight(self) -> float:
        """Largest normalized thread weight (sets the critical path)."""
        if self.thread_weights is None:
            return 1.0
        mean = sum(self.thread_weights) / self.threads
        return max(self.thread_weights) / mean


@dataclass
class WorkloadRun:
    """Executable state of one workload on one chip.

    Tracks per-core progress; the engine calls :meth:`advance` once per
    control interval with the frequencies the policy selected.
    """

    workload: Workload
    chip: ChipFloorplan
    ref_freq_ghz: float
    executed: np.ndarray = field(default=None)
    elapsed_s: float = 0.0
    #: Noise seed; deterministic per workload name unless overridden.
    seed: int | None = None

    def __post_init__(self) -> None:
        for t in self.workload.active_tiles:
            if not 0 <= t < self.chip.n_tiles:
                raise WorkloadError(
                    f"active tile {t} outside chip with {self.chip.n_tiles}"
                )
        if self.executed is None:
            self.executed = np.zeros(self.chip.n_tiles, dtype=float)
        # Per-tile instruction budget (weighted threads; 0 = no thread).
        self._budget = np.zeros(self.chip.n_tiles)
        for slot, t in enumerate(self.workload.active_tiles):
            self._budget[t] = self.workload.thread_budget(slot)
        if self.seed is None:
            self.seed = sum(ord(c) for c in self.workload.name) * 7919
        self._rng = np.random.default_rng(self.seed)
        self._noise = 0.0  # current AR(1) activity deviation

    @property
    def noise_multiplier(self) -> float:
        """Current chip-wide activity fluctuation multiplier."""
        return 1.0 + self._noise

    def _step_noise(self) -> None:
        sigma = self.workload.activity_noise_sigma
        if sigma <= 0.0:
            return
        rho = self.workload.activity_noise_rho
        eps = self._rng.normal(0.0, sigma * np.sqrt(1.0 - rho**2))
        self._noise = float(
            np.clip(rho * self._noise + eps, -3.0 * sigma, 3.0 * sigma)
        )

    # ------------------------------------------------------------------
    def _progress_fraction(self) -> float:
        """Instruction progress of the least-advanced active thread."""
        return min(
            self.executed[t] / self._budget[t]
            for t in self.workload.active_tiles
        )

    def _phase_multipliers(self) -> tuple[float, float]:
        """(activity_mult, ipc_mult) with smooth phase transitions.

        Real benchmark phases drift rather than step; multipliers are
        piecewise-linearly interpolated between phase midpoints so the
        one-interval-lag Eq. (7) estimator faces realistic ramps.
        """
        phases = self.workload.phases
        if len(phases) == 1:
            return phases[0].activity_mult, phases[0].ipc_mult
        frac = self._progress_fraction()
        mids: list[float] = []
        acc = 0.0
        for ph in phases:
            mids.append(acc + 0.5 * ph.inst_fraction)
            acc += ph.inst_fraction
        acts = [ph.activity_mult for ph in phases]
        ipcs = [ph.ipc_mult for ph in phases]
        return (
            float(np.interp(frac, mids, acts)),
            float(np.interp(frac, mids, ipcs)),
        )

    def activity_vector(self) -> np.ndarray:
        """Per-tile dynamic activity for the current instant.

        Computing threads run at the workload's (phase-modulated)
        activity; threads that retired their share but whose peers have
        not — SPLASH barrier semantics — busy-wait at
        ``spin_activity_frac`` of it. Once every thread is done the run
        is over and activity is zero.
        """
        act_mult, _ = self._phase_multipliers()
        act = np.zeros(self.chip.n_tiles)
        level = min(
            self.workload.activity * act_mult * self.noise_multiplier, 1.0
        )
        spin = level * self.workload.spin_activity_frac
        for t in self.workload.active_tiles:
            act[t] = level if self.executed[t] < self._budget[t] else spin
        return act

    def ips_vector(self, freqs_ghz: np.ndarray) -> np.ndarray:
        """Per-core IPS at ``freqs_ghz`` (Eq. 11: linear in frequency)."""
        _, ipc_mult = self._phase_multipliers()
        ipc = self.workload.ipc_at_ref * ipc_mult
        ips = np.zeros(self.chip.n_tiles)
        for t in self.workload.active_tiles:
            # Spinning cores retire no *useful* (committed benchmark)
            # instructions; hardware counters filtered the way SESC
            # counts simulated instructions report ~0 for them.
            if self.executed[t] < self._budget[t]:
                ips[t] = ipc * freqs_ghz[t] * 1e9
        return ips

    def time_to_completion_s(self, freqs_ghz: np.ndarray) -> float:
        """Time for the slowest unfinished thread to retire its budget
        at the current phase's IPS (infinite if any active core has
        zero IPS)."""
        ips = self.ips_vector(np.asarray(freqs_ghz, dtype=float))
        worst = 0.0
        for t in self.workload.active_tiles:
            remaining = self._budget[t] - self.executed[t]
            if remaining <= 0:
                continue
            if ips[t] <= 0:
                return np.inf
            worst = max(worst, remaining / ips[t])
        return worst

    def advance(self, dt_s: float, freqs_ghz: np.ndarray) -> np.ndarray:
        """Execute ``dt_s`` seconds; returns instructions retired per core."""
        if dt_s <= 0:
            raise WorkloadError(f"non-positive step {dt_s}")
        ips = self.ips_vector(np.asarray(freqs_ghz, dtype=float))
        done_inst = np.minimum(
            ips * dt_s, np.maximum(self._budget - self.executed, 0)
        )
        self.executed += done_inst
        self.elapsed_s += dt_s
        self._step_noise()
        return done_inst

    @property
    def finished(self) -> bool:
        """True when every thread has retired its budget."""
        return all(
            self.executed[t] >= self._budget[t] - 0.5
            for t in self.workload.active_tiles
        )

    @property
    def progress(self) -> float:
        """Fraction of the total instruction budget retired."""
        total = sum(self._budget[t] for t in self.workload.active_tiles)
        done = sum(
            min(self.executed[t], self._budget[t])
            for t in self.workload.active_tiles
        )
        return done / total
