"""Plant-side per-component dynamic power (the Wattch/CACTI stand-in).

The paper estimates per-component dynamic power with SESC+Wattch+CACTI
and calibrates the peak to the published Intel SCC measurement
(Sec. IV-B). We reproduce the quantities the controller consumes: a peak
dynamic power per component (area x power-density-weight allocation of
the calibrated chip peak) scaled by workload activity and the core's
DVFS operating point:

    P_dyn_m = P_peak_m * activity_tile(m) * profile_m * (f/f_max)(V/V_max)^2
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.floorplan.chip import ChipFloorplan
from repro.floorplan.component import ComponentCategory
from repro.power.dvfs import DVFSTable

#: Categories clocked by the chip-wide mesh/uncore domain rather than the
#: per-core DVFS domain. On the Intel SCC the routers and the L2 blocks
#: sit on the mesh's own voltage/frequency island, so per-core DVFS does
#: not scale their power — which bounds how much energy core throttling
#: can recover (a key term in the Fig. 6 trade-off).
MESH_DOMAIN_CATEGORIES: frozenset = frozenset(
    {ComponentCategory.ROUTER, ComponentCategory.L2_CACHE}
)


def core_dvfs_domain_mask(chip: ChipFloorplan) -> np.ndarray:
    """Boolean per-component mask: True = scales with the core's DVFS."""
    return np.array(
        [c.category not in MESH_DOMAIN_CATEGORIES for c in chip.components]
    )


@dataclass
class ComponentPowerModel:
    """Maps (activity, DVFS levels) -> per-component dynamic power.

    Parameters
    ----------
    chip:
        The floorplan; supplies areas, density weights, tile membership.
    dvfs:
        The DVFS table shared by all cores.
    chip_peak_dynamic_w:
        Chip dynamic power with every core at the top DVFS level and
        activity 1.0 (calibration constant; see
        :mod:`repro.power.calibration`).
    idle_activity:
        Activity floor of an idle (clock-gated) core.
    """

    chip: ChipFloorplan
    dvfs: DVFSTable
    chip_peak_dynamic_w: float
    idle_activity: float = 0.02
    _p_peak: np.ndarray = field(default=None, repr=False)
    _tile_of: np.ndarray = field(default=None, repr=False)
    _core_domain: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.chip_peak_dynamic_w <= 0:
            raise ConfigurationError("chip peak dynamic power must be > 0")
        if not 0.0 <= self.idle_activity <= 1.0:
            raise ConfigurationError("idle activity must lie in [0, 1]")
        weights = self.chip.power_weights()
        areas = self.chip.areas_mm2()
        alloc = weights * areas
        self._p_peak = self.chip_peak_dynamic_w * alloc / alloc.sum()
        self._tile_of = self.chip.tile_of()
        self._core_domain = core_dvfs_domain_mask(self.chip)

    # ------------------------------------------------------------------
    @property
    def peak_per_component_w(self) -> np.ndarray:
        """Per-component dynamic power at max DVFS, activity 1 [W]."""
        return self._p_peak

    def peak_core_power_w(self, tile: int) -> float:
        """Peak dynamic power of one core tile [W]."""
        return float(self._p_peak[self.chip.tile_slice(tile)].sum())

    def dynamic_power_w(
        self,
        core_activity: np.ndarray,
        dvfs_levels: np.ndarray,
        component_profile: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-component dynamic power [W].

        Parameters
        ----------
        core_activity:
            Per-tile activity in [0, 1]; idle cores are clamped up to the
            clock-gating floor.
        dvfs_levels:
            Per-tile DVFS level indices.
        component_profile:
            Optional per-component multiplicative shape (a workload's
            unit-utilization signature, mean ~1). Length must equal the
            component count.
        """
        act = np.asarray(core_activity, dtype=float)
        lv = np.asarray(dvfs_levels, dtype=int)
        if act.shape != (self.chip.n_tiles,) or lv.shape != (self.chip.n_tiles,):
            raise ConfigurationError(
                "activity/levels must have one entry per tile"
            )
        if np.any(act < 0.0) or np.any(act > 1.0):
            raise ConfigurationError("core activity must lie in [0, 1]")
        act = np.maximum(act, self.idle_activity)
        scale = self.dvfs.dynamic_scale(lv)
        comp_scale = np.where(
            self._core_domain, scale[self._tile_of], 1.0
        )
        per_comp = self._p_peak * act[self._tile_of] * comp_scale
        if component_profile is not None:
            prof = np.asarray(component_profile, dtype=float)
            if prof.shape != per_comp.shape:
                raise ConfigurationError(
                    "component profile length mismatches floorplan"
                )
            per_comp = per_comp * prof
        return per_comp

    def dynamic_power_many(
        self,
        core_activity: np.ndarray,
        dvfs_levels: np.ndarray,
        component_profile: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched :meth:`dynamic_power_w` over rows of nodes.

        ``core_activity`` and ``dvfs_levels`` are ``(batch, n_tiles)``
        arrays; returns ``(batch, n_components)``. Row ``b`` is
        bit-identical to ``dynamic_power_w(core_activity[b],
        dvfs_levels[b], component_profile)`` — every operation is the
        same elementwise expression broadcast over the batch axis, which
        is what lets the fleet stepper validate against the per-node
        loop exactly.
        """
        act = np.asarray(core_activity, dtype=float)
        lv = np.asarray(dvfs_levels, dtype=int)
        n_tiles = self.chip.n_tiles
        if act.ndim != 2 or act.shape[1] != n_tiles or lv.shape != act.shape:
            raise ConfigurationError(
                "activity/levels must be (batch, n_tiles) arrays"
            )
        if act.min(initial=0.0) < 0.0 or act.max(initial=1.0) > 1.0:
            raise ConfigurationError("core activity must lie in [0, 1]")
        act = np.maximum(act, self.idle_activity)
        scale = self.dvfs.dynamic_scale(lv)
        comp_scale = np.where(
            self._core_domain, scale[:, self._tile_of], 1.0
        )
        per_comp = self._p_peak * act[:, self._tile_of] * comp_scale
        if component_profile is not None:
            prof = np.asarray(component_profile, dtype=float)
            if prof.shape != (per_comp.shape[1],):
                raise ConfigurationError(
                    "component profile length mismatches floorplan"
                )
            per_comp = per_comp * prof
        # C order, not whatever layout broadcasting picked: callers
        # reduce rows with sum(axis=1), and numpy's pairwise summation
        # order follows memory layout — an F-ordered result would sum
        # in a different order than the per-node rows and break the
        # bit-identity contract by one ulp.
        return np.ascontiguousarray(per_comp)
