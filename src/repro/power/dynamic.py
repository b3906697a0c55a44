"""Controller-side dynamic power estimation (paper Eq. 7).

TECfan's on-line estimator never sees the plant's activity factors; it
scales the *previous interval's measured* dynamic power by the DVFS
ratio, exactly as Eq. (7) prescribes (the previous interval's power is
what CAMP-style runtime monitoring provides — Powell et al., HPCA'09):

    P_dyn(k) = P_dyn(k-1) * (F(k)/F(k-1)) * (Vdd(k)/Vdd(k-1))^2

:class:`DynamicPowerTracker` holds the per-component history and answers
"what would the power be if core n moved to level l?" queries without
mutating state, which is what the heuristic's what-if evaluation needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ControlError
from repro.power.dvfs import DVFSTable


@dataclass
class DynamicPowerTracker:
    """Eq. (7) relative dynamic-power estimator.

    Parameters
    ----------
    dvfs:
        Shared DVFS table.
    tile_of:
        Component -> tile index map (from the floorplan).
    """

    dvfs: DVFSTable
    tile_of: np.ndarray
    #: Per-component mask: True = the component is in its core's DVFS
    #: domain (mesh-domain components do not rescale with Eq. 7).
    core_domain: np.ndarray | None = None
    _p_prev: np.ndarray = field(default=None, repr=False)
    _levels_prev: np.ndarray = field(default=None, repr=False)

    def observe(self, p_dynamic_w: np.ndarray, dvfs_levels: np.ndarray) -> None:
        """Record the measured per-component power of the last interval."""
        self._p_prev = np.asarray(p_dynamic_w, dtype=float).copy()
        self._levels_prev = np.asarray(dvfs_levels, dtype=int).copy()

    @property
    def ready(self) -> bool:
        """True once at least one interval has been observed."""
        return self._p_prev is not None

    def predict(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-component dynamic power if cores ran at ``dvfs_levels`` [W]."""
        if not self.ready:
            raise ControlError("no previous interval observed yet")
        lv = np.asarray(dvfs_levels, dtype=int)
        ratio = self.dvfs.dynamic_ratio(self._levels_prev, lv)
        comp_ratio = ratio[self.tile_of]
        if self.core_domain is not None:
            comp_ratio = np.where(self.core_domain, comp_ratio, 1.0)
        return self._p_prev * comp_ratio

    def predict_many(self, dvfs_levels: np.ndarray) -> np.ndarray:
        """Per-component power for a ``(batch, n_cores)`` level matrix [W].

        Row ``b`` is bit-identical to ``predict(dvfs_levels[b])`` — the
        ratio table lookup broadcasts over the leading axis and every
        per-element operation is unchanged.
        """
        if not self.ready:
            raise ControlError("no previous interval observed yet")
        lv = np.asarray(dvfs_levels, dtype=int)
        if lv.ndim != 2:
            raise ControlError(
                f"predict_many expects a (batch, n_cores) level matrix, "
                f"got shape {lv.shape}"
            )
        ratio = self.dvfs.dynamic_ratio(self._levels_prev[None, :], lv)
        comp_ratio = ratio[:, self.tile_of]
        if self.core_domain is not None:
            comp_ratio = np.where(self.core_domain[None, :], comp_ratio, 1.0)
        return self._p_prev[None, :] * comp_ratio
