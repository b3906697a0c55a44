"""Controller-side IPS estimation (paper Eq. 10-11).

The chip's computational performance metric is instructions per second;
TECfan predicts the next interval's per-core IPS by scaling the previous
interval's *measured* IPS with the frequency ratio:

    IPS_n(k) = IPS_n(k-1) * F_n(k) / F_n(k-1)        (Eq. 11)
    IPS_chip(k) = sum_n IPS_n(k)                     (Eq. 10)

:class:`IPSTracker` mirrors :class:`repro.power.dynamic.DynamicPowerTracker`
so the heuristic's what-if queries stay side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ControlError
from repro.power.dvfs import DVFSTable


@dataclass
class IPSTracker:
    """Eq. (11) relative IPS estimator over a shared DVFS table."""

    dvfs: DVFSTable
    _ips_prev: np.ndarray = field(default=None, repr=False)
    _levels_prev: np.ndarray = field(default=None, repr=False)

    def observe(self, ips: np.ndarray, dvfs_levels: np.ndarray) -> None:
        """Record the measured per-core IPS of the last interval."""
        self._ips_prev = np.asarray(ips, dtype=float).copy()
        self._levels_prev = np.asarray(dvfs_levels, dtype=int).copy()

    @property
    def ready(self) -> bool:
        """True once at least one interval has been observed."""
        return self._ips_prev is not None

    def predict(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-core IPS if cores ran at ``dvfs_levels``."""
        if not self.ready:
            raise ControlError("no previous interval observed yet")
        lv = np.asarray(dvfs_levels, dtype=int)
        return self._ips_prev * self.dvfs.frequency_ratio(self._levels_prev, lv)

    def predict_many(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-core IPS for a ``(batch, n_cores)`` level matrix.

        Row ``b`` is bit-identical to ``predict(dvfs_levels[b])``.
        """
        if not self.ready:
            raise ControlError("no previous interval observed yet")
        lv = np.asarray(dvfs_levels, dtype=int)
        if lv.ndim != 2:
            raise ControlError(
                f"predict_many expects a (batch, n_cores) level matrix, "
                f"got shape {lv.shape}"
            )
        return self._ips_prev[None, :] * self.dvfs.frequency_ratio(
            self._levels_prev[None, :], lv
        )
