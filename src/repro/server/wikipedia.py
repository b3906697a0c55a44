"""Synthetic Wikipedia HTTP request trace (paper Sec. IV-B / V-E).

The paper drives its 4-core server comparison with a 7-day trace of HTTP
requests to Wikipedia (Urdaneta et al., Computer Networks 2009). The
original trace is not redistributable, so we synthesize a rate series
with its published characteristics: a strong diurnal cycle (peak-to-
trough roughly 2:1), a weekly modulation (weekend dip), short-term
self-similar noise, and second-scale jitter. As the paper does, the
derived CPU utilization is scaled up by 1.5x so the trace exercises the
TECs, giving an average utilization of ~48.6%.

The experiment protocol (Sec. V-E) cuts the first 40 minutes, splits
them into four 10-minute pieces, and runs one piece per core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import spsolve_triangular

from repro.exceptions import WorkloadError

#: Scale factor the paper applies to the derived utilization.
UTILIZATION_SCALE: float = 1.5

#: Average CPU utilization after scaling, as reported in Sec. V-E.
TARGET_MEAN_UTILIZATION: float = 0.486

#: Experiment protocol constants.
TRACE_DAYS: int = 7
CUT_MINUTES: int = 40
PIECES: int = 4
PIECE_MINUTES: int = 10


@dataclass(frozen=True)
class WikipediaTrace:
    """Per-second CPU-utilization demand derived from the request rate.

    ``utilization`` is the demand at the *maximum* frequency: the work
    offered per second divided by the core's peak service capacity.
    """

    utilization: np.ndarray  # per-second, in [0, 1]
    seed: int

    @property
    def duration_s(self) -> int:
        """Trace length [s]."""
        return len(self.utilization)

    def mean_utilization(self) -> float:
        """Average demand."""
        return float(self.utilization.mean())

    def piece(self, index: int, minutes: int = PIECE_MINUTES) -> np.ndarray:
        """One ``minutes``-long piece (paper: four 10-minute pieces)."""
        n = minutes * 60
        start = index * n
        if start + n > self.duration_s:
            raise WorkloadError(
                f"piece {index} ({minutes} min) exceeds trace length"
            )
        return self.utilization[start : start + n]

    def experiment_pieces(self) -> list[np.ndarray]:
        """The paper's protocol: first 40 min split into 4 pieces."""
        total = CUT_MINUTES * 60
        if total > self.duration_s:
            raise WorkloadError("trace shorter than the 40-minute cut")
        return [self.piece(i) for i in range(PIECES)]


def generate_trace(
    seed: int = 2009,
    days: int = TRACE_DAYS,
    mean_utilization: float = TARGET_MEAN_UTILIZATION,
    diurnal_amplitude: float = 0.33,
    weekly_amplitude: float = 0.10,
    noise_sigma: float = 0.10,
    noise_rho: float = 0.999,
    burst_sigma: float = 0.10,
    burst_rho: float = 0.985,
) -> WikipediaTrace:
    """Synthesize the scaled utilization series.

    Parameters
    ----------
    seed:
        RNG seed (default honours the trace's publication year).
    days:
        Trace length; the paper uses a 7-day trace.
    mean_utilization:
        Post-scaling average (the paper's 48.6%).
    diurnal_amplitude, weekly_amplitude:
        Relative amplitudes of the daily and weekly cycles.
    noise_sigma, noise_rho:
        Slow AR(1) traffic drift at 1 s resolution (hour-scale).
    burst_sigma, burst_rho:
        Fast AR(1) component producing the minute-scale bursts web
        traffic shows (self-similar short-range structure).
    """
    if days < 1:
        raise WorkloadError("trace must cover at least one day")
    n = days * 24 * 3600
    t = np.arange(n, dtype=float)
    rng = np.random.default_rng(seed)

    day = 86400.0
    # Diurnal peak in the evening (phase shift), weekly dip on days 5-6.
    diurnal = diurnal_amplitude * np.sin(2 * np.pi * (t / day - 0.35))
    weekly = weekly_amplitude * np.cos(2 * np.pi * t / (7 * day))
    def ar1(sigma: float, rho: float) -> np.ndarray:
        return _ar1(rng.normal(0.0, sigma * np.sqrt(1 - rho**2), n), rho)

    shape = (
        1.0
        + diurnal
        + weekly
        + ar1(noise_sigma, noise_rho)
        + ar1(burst_sigma, burst_rho)
    )
    shape = np.clip(shape, 0.05, None)
    # Normalize so the *experiment window* (the first 40 minutes, which
    # is what Sec. V-E actually runs) averages the published 48.6% after
    # the paper's 1.5x scaling.
    window = shape[: CUT_MINUTES * 60]
    unscaled = shape * (mean_utilization / UTILIZATION_SCALE) / window.mean()
    utilization = np.clip(unscaled * UTILIZATION_SCALE, 0.0, 1.0)
    return WikipediaTrace(utilization=utilization, seed=seed)


#: Samples per triangular solve in :func:`_ar1`. One 7-day solve would
#: hold ~30 MiB of sparse-matrix and solver buffers at once.
_AR1_BLOCK = 1 << 16


def _ar1(innov: np.ndarray, rho: float) -> np.ndarray:
    """The AR(1) recursion ``x[i] = rho * x[i-1] + innov[i]``, ``x[-1] = 0``.

    Each block of samples is the lower-bidiagonal system with 1 on the
    diagonal and ``-rho`` below it, its first innovation carrying the
    previous block's last value. Forward substitution computes each step
    as ``innov[i] - (-rho) * x[i-1]``: the sequential loop's own multiply
    and add, so the result is bit-identical to it (unless the compiled
    solver fuses them into an FMA, which the tests would catch).
    ``innov`` is overwritten with the result.
    """
    for start in range(0, len(innov), _AR1_BLOCK):
        block = innov[start : start + _AR1_BLOCK]
        if start:
            block[0] += rho * innov[start - 1]
        m = len(block)
        data = np.ones(2 * m - 1)
        data[1::2] = -rho
        rows = np.repeat(np.arange(m, dtype=np.intc), 2)[1:]
        indptr = np.append(np.arange(0, 2 * m, 2), 2 * m - 1).astype(np.intc)
        innov[start : start + m] = spsolve_triangular(
            csc_array((data, rows, indptr), shape=(m, m)), block,
            lower=True, unit_diagonal=True, overwrite_A=True,
        )
    return innov
