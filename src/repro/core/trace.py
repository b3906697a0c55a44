"""Per-interval simulation trace recording.

The engine appends one record per lower-level control interval; the
analysis layer turns the arrays into the paper's figures (temperature
time series for Fig. 4, violation counting for Fig. 5(b), the
power-integral energy of Fig. 6(c) — "we add all the products of power
readings and time interval in the trace file of one execution").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TraceRecorder:
    """Growable arrays of per-interval simulation observables."""

    _rows: list = field(default_factory=list)

    def append(
        self,
        *,
        time_s: float,
        dt_s: float,
        peak_temp_c: float,
        p_chip_w: float,
        p_cores_w: float,
        p_tec_w: float,
        p_fan_w: float,
        ips_chip: float,
        tec_on: int,
        fan_level: int,
        mean_dvfs_level: float,
    ) -> None:
        """Record one control interval.

        Keyword-only on purpose: eleven positional floats in a row made
        silent argument-order bugs at engine call sites far too easy.
        """
        self._rows.append(
            (
                time_s,
                dt_s,
                peak_temp_c,
                p_chip_w,
                p_cores_w,
                p_tec_w,
                p_fan_w,
                ips_chip,
                float(tec_on),
                float(fan_level),
                mean_dvfs_level,
            )
        )

    def extend(
        self,
        *,
        time_s,
        dt_s,
        peak_temp_c,
        p_chip_w,
        p_cores_w,
        p_tec_w,
        p_fan_w,
        ips_chip,
        tec_on,
        fan_level,
        mean_dvfs_level,
    ) -> None:
        """Record a block of consecutive intervals in one call.

        Array arguments supply one value per interval; scalars broadcast
        across the block. Row ``j`` is exactly what ``append`` would have
        stored for the same values.
        """
        n = len(np.asarray(time_s, dtype=float).reshape(-1))
        cols = [
            np.broadcast_to(np.asarray(col, dtype=float).reshape(-1), n)
            for col in (
                time_s,
                dt_s,
                peak_temp_c,
                p_chip_w,
                p_cores_w,
                p_tec_w,
                p_fan_w,
                ips_chip,
                tec_on,
                fan_level,
                mean_dvfs_level,
            )
        ]
        self._rows.extend(zip(*(c.tolist() for c in cols)))

    def __len__(self) -> int:
        return len(self._rows)

    def rows_since(self, start: int) -> list:
        """Raw row tuples appended at index ``start`` or later.

        Lets incremental consumers (the live status reporter) fold only
        the new intervals each visit instead of rescanning the full
        trace; columns follow ``append``'s argument order.
        """
        return self._rows[start:]

    # ------------------------------------------------------------------
    def _column(self, idx: int) -> np.ndarray:
        return np.array([r[idx] for r in self._rows])

    @property
    def time_s(self) -> np.ndarray:
        """Interval start times [s]."""
        return self._column(0)

    @property
    def dt_s(self) -> np.ndarray:
        """Interval lengths [s]."""
        return self._column(1)

    @property
    def peak_temp_c(self) -> np.ndarray:
        """Peak die temperature per interval [degC]."""
        return self._column(2)

    @property
    def p_chip_w(self) -> np.ndarray:
        """Total chip power (cores + TEC + fan) [W]."""
        return self._column(3)

    @property
    def p_cores_w(self) -> np.ndarray:
        """Core (compute) power [W]."""
        return self._column(4)

    @property
    def p_tec_w(self) -> np.ndarray:
        """TEC electrical power [W]."""
        return self._column(5)

    @property
    def p_fan_w(self) -> np.ndarray:
        """Fan power [W]."""
        return self._column(6)

    @property
    def ips_chip(self) -> np.ndarray:
        """Chip IPS per interval."""
        return self._column(7)

    @property
    def tec_on(self) -> np.ndarray:
        """Active TEC device count per interval."""
        return self._column(8)

    @property
    def fan_level(self) -> np.ndarray:
        """Fan level per interval."""
        return self._column(9)

    @property
    def mean_dvfs_level(self) -> np.ndarray:
        """Mean per-core DVFS level index per interval."""
        return self._column(10)

    # ------------------------------------------------------------------
    def energy_j(self) -> float:
        """Trapezoid-free energy integral: sum of P * dt (paper's method)."""
        return float(np.sum(self.p_chip_w * self.dt_s))

    def average_power_w(self) -> float:
        """Time-weighted mean chip power [W]."""
        total_t = float(np.sum(self.dt_s))
        return self.energy_j() / total_t if total_t > 0 else 0.0
