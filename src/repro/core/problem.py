"""The energy optimization problem (paper Sec. III-C, Eq. 12-14).

Objective: minimize per-instruction chip energy

    EPI(k) = P_chip(k) / IPS_chip(k)
           = (sum_n P_core_n + sum_l P_TEC_l + P_fan) / sum_n IPS_n

subject to the peak-temperature constraint ``max(T(k)) <= T_th``.

:class:`EnergyProblem` evaluates the objective/constraint for candidate
configurations; it is shared by the TECfan heuristic, OFTEC, Oracle and
the metrics pipeline so every policy is scored identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

#: EPI assigned to configurations with zero IPS (idle chip); keeps the
#: objective totally ordered without dividing by zero.
_INFINITE_EPI: float = np.inf


@dataclass(frozen=True)
class EnergyProblem:
    """Objective and constraint of the TECfan optimization.

    Parameters
    ----------
    t_threshold_c:
        Peak-temperature constraint T_th [degC]. The paper sets it per
        experiment to the base-scenario peak temperature (Table I).
    violation_margin_c:
        Slack above T_th before an interval is *counted* as a violation
        in the metrics (Fig. 5(b)); the constraint itself uses T_th.
        Defaults to 0.5 degC — the paper's own temperature granularity
        (its HotSpot loop converges to 0.5 degC and its hardware encodes
        temperatures in 0.5 degC steps, Sec. III-E/IV-B).
    """

    t_threshold_c: float
    violation_margin_c: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.t_threshold_c < 150.0:
            raise ConfigurationError(
                f"implausible temperature threshold {self.t_threshold_c} degC"
            )
        if self.violation_margin_c < 0.0:
            raise ConfigurationError("violation margin must be >= 0")

    # ------------------------------------------------------------------
    @staticmethod
    def epi(p_chip_w: float, ips_chip: float) -> float:
        """Eq. (13): per-instruction energy [J/instruction]."""
        if p_chip_w < 0.0:
            raise ConfigurationError(f"negative chip power {p_chip_w}")
        if ips_chip <= 0.0:
            return _INFINITE_EPI
        return p_chip_w / ips_chip

    @staticmethod
    def epi_many(p_chip_w: np.ndarray, ips_chip: np.ndarray) -> np.ndarray:
        """:meth:`epi` over arrays; entry ``j`` equals ``epi(p[j], ips[j])``."""
        p = np.asarray(p_chip_w, dtype=float)
        ips = np.asarray(ips_chip, dtype=float)
        negative = p < 0.0
        if negative.any():
            raise ConfigurationError(f"negative chip power {p[negative][0]}")
        out = np.full(p.shape, _INFINITE_EPI)
        # ``~(ips <= 0)`` rather than ``ips > 0``: a NaN IPS divides, as
        # in the scalar form.
        np.divide(p, ips, out=out, where=~(ips <= 0.0))
        return out

    def satisfied(self, peak_temp_c: float) -> bool:
        """Eq. (14): does the peak temperature meet the constraint?"""
        return peak_temp_c <= self.t_threshold_c

    def violated(self, peak_temp_c: float) -> bool:
        """Violation with the metrics margin applied (Fig. 5(b) counting)."""
        return peak_temp_c > self.t_threshold_c + self.violation_margin_c

    def headroom_c(self, peak_temp_c: float) -> float:
        """Thermal headroom (positive = below threshold) [degC]."""
        return self.t_threshold_c - peak_temp_c
