"""DVFS operating-point tables and the Eq. (7) scaling law.

Levels are indexed ``0 .. n_levels-1`` with **higher index = higher
frequency** ("raising the DVFS level" in the paper's wording improves
performance). Each level pairs a clock frequency with a supply voltage;
dynamic power scales as ``f * V^2`` between levels (Eq. 7) and IPS
scales linearly with ``f`` (Eq. 11).

Two default tables are provided:

* :data:`SCC_DVFS` — a 6-level table for the 16-core SCC-style CMP
  (Sec. IV-A): 1.0-2.0 GHz at 0.75-1.10 V, per-core regulators with
  ~100 ns transition overhead (Kim et al., JSSC'12).
* :data:`I7_DVFS` — a 6-level Core i7-3770K-style table for the 4-core
  server comparison of Sec. V-E.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.exceptions import ConfigurationError


@lru_cache(maxsize=None)
def _dynamic_scale_table(freq_ghz: tuple, vdd_v: tuple) -> np.ndarray:
    """:meth:`DVFSTable.dynamic_scale` of every level, computed once."""
    f = np.asarray(freq_ghz, dtype=float)
    v = np.asarray(vdd_v, dtype=float)
    scale = (f / f[-1]) * (v / v[-1]) ** 2
    scale.setflags(write=False)
    return scale


@dataclass(frozen=True)
class DVFSTable:
    """Immutable table of (frequency, voltage) operating points."""

    freq_ghz: tuple[float, ...]
    vdd_v: tuple[float, ...]
    #: Actuation overhead per transition [s] (on-chip VR, Sec. III-D).
    transition_overhead_s: float = 100e-9

    def __post_init__(self) -> None:
        if len(self.freq_ghz) != len(self.vdd_v):
            raise ConfigurationError("freq/vdd tables differ in length")
        if len(self.freq_ghz) < 2:
            raise ConfigurationError("need at least two DVFS levels")
        f = np.asarray(self.freq_ghz)
        v = np.asarray(self.vdd_v)
        if np.any(np.diff(f) <= 0) or np.any(np.diff(v) < 0):
            raise ConfigurationError(
                "DVFS tables must be ascending in frequency and "
                "non-decreasing in voltage"
            )
        if np.any(f <= 0) or np.any(v <= 0):
            raise ConfigurationError("frequencies and voltages must be > 0")

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of operating points."""
        return len(self.freq_ghz)

    @property
    def max_level(self) -> int:
        """Index of the fastest level."""
        return self.n_levels - 1

    def _check_level(self, level) -> None:
        lv = np.asarray(level)
        if np.any(lv < 0) or np.any(lv >= self.n_levels):
            raise ConfigurationError(
                f"DVFS level {level!r} outside 0..{self.max_level}"
            )

    def frequency_ghz(self, level) -> np.ndarray:
        """Frequency at ``level`` [GHz] (vectorized over level arrays)."""
        self._check_level(level)
        return np.asarray(self.freq_ghz)[level]

    def voltage_v(self, level) -> np.ndarray:
        """Supply voltage at ``level`` [V] (vectorized)."""
        self._check_level(level)
        return np.asarray(self.vdd_v)[level]

    def dynamic_scale(self, level) -> np.ndarray:
        """Dynamic power of ``level`` relative to the max level.

        ``(f / f_max) * (V / V_max)^2`` — the per-interval form of the
        paper's Eq. (7) anchored at the top operating point.
        """
        return _dynamic_scale_table(self.freq_ghz, self.vdd_v)[level]

    def dynamic_ratio(self, level_from, level_to) -> np.ndarray:
        """Eq. (7) exactly: power ratio between two operating points."""
        f = np.asarray(self.freq_ghz, dtype=float)
        v = np.asarray(self.vdd_v, dtype=float)
        return (f[level_to] / f[level_from]) * (v[level_to] / v[level_from]) ** 2

    def frequency_ratio(self, level_from, level_to) -> np.ndarray:
        """Eq. (11): IPS ratio between two operating points."""
        f = np.asarray(self.freq_ghz, dtype=float)
        return f[level_to] / f[level_from]


#: 16-core SCC-style CMP table (Sec. IV-A).
SCC_DVFS = DVFSTable(
    freq_ghz=(1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
    vdd_v=(0.75, 0.80, 0.85, 0.90, 1.00, 1.10),
)

#: Core i7-3770K-style table for the server comparison (Sec. IV-B/V-E).
I7_DVFS = DVFSTable(
    freq_ghz=(1.6, 2.0, 2.4, 2.8, 3.2, 3.5),
    vdd_v=(0.85, 0.90, 0.95, 1.00, 1.05, 1.10),
)

