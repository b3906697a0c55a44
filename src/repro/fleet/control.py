"""Per-node TECfan control for fleet runs, vectorized across nodes.

The engine-tier fleet runs the full :class:`TECfanController` per node.
The batched tier needs decisions that are cheap at 1000 nodes and —
crucially for the stepper-equivalence contract — *identical* whether
computed one node at a time or as a batch. Every rule here is an
elementwise numpy expression over ``(n_nodes, ...)`` state arrays, so a
single-node decision is literally a 1-row batch:

* **TEC** (every interval): per-device on/off hysteresis on the
  device's tile peak temperature — engage above ``tec_on_c``, release
  below ``tec_off_c``, hold in between. Binary activations keep the
  actuation-class count small (the batched stepper groups nodes by
  exact actuator key) and match the paper's switched drive mode.
* **DVFS** (every interval): lowest level whose SPECjbb capacity covers
  the offered per-core load with ``dvfs_headroom`` margin
  (``searchsorted`` on the monotone capacity-per-level table), clamped
  down to ``throttle_level`` while the tile is over the thermal
  threshold. The clamp mask is reported so the fleet can attribute p99
  latency to thermal throttling.
* **Fan** (every fan period): hysteresis band on the node peak — speed
  up (level - 1; level 1 is fastest) when the peak crosses
  ``fan_up_margin_c`` below threshold, slow down when it falls
  ``fan_down_margin_c`` below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.system import CMPSystem
from repro.exceptions import ConfigurationError


@dataclass
class FleetPolicy:
    """Vectorized per-node TEC + DVFS + fan policy.

    Margins are in degC relative to the problem's thermal threshold.
    """

    system: CMPSystem
    t_threshold_c: float
    peak_ips: float
    tec_on_margin_c: float = 3.0
    tec_off_margin_c: float = 8.0
    fan_up_margin_c: float = 2.0
    fan_down_margin_c: float = 12.0
    dvfs_headroom: float = 1.1
    throttle_level: int = 1
    _cap_table: np.ndarray = field(default=None, repr=False)
    _tile_index: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        sys = self.system
        if not 0 <= self.throttle_level <= sys.dvfs.max_level:
            raise ConfigurationError("throttle level outside DVFS table")
        if self.tec_off_margin_c <= self.tec_on_margin_c:
            raise ConfigurationError(
                "TEC hysteresis band requires off margin > on margin"
            )
        if self.fan_down_margin_c <= self.fan_up_margin_c:
            raise ConfigurationError(
                "fan hysteresis band requires down margin > up margin"
            )
        from repro.server.specjbb import DEFAULT_PERF_MODEL

        levels = np.arange(sys.dvfs.n_levels)
        freqs = sys.dvfs.frequency_ghz(levels)
        self._cap_table = DEFAULT_PERF_MODEL.capacity_ips(
            freqs, self.peak_ips
        )
        if np.any(np.diff(self._cap_table) <= 0):
            raise ConfigurationError(
                "capacity-per-level table must be strictly increasing"
            )
        # (n_tiles, width) component indices of each tile, short rows
        # padded with the tile's own first component: max ignores the
        # repeat, so one gather + max(axis=2) gives every tile peak.
        tile_of = sys.chip.tile_of()
        members = [np.flatnonzero(tile_of == t) for t in range(sys.chip.n_tiles)]
        width = max(m.size for m in members)
        self._tile_index = np.array(
            [np.pad(m, (0, width - m.size), mode="edge") for m in members]
        )

    # ------------------------------------------------------------------
    def tile_peaks_c(self, t_comp_c: np.ndarray) -> np.ndarray:
        """Per-tile peak temperature, ``(n_nodes, n_tiles)`` [degC]."""
        return t_comp_c[:, self._tile_index].max(axis=2)

    def decide_tec(
        self, tile_peak_c: np.ndarray, tec_prev: np.ndarray
    ) -> np.ndarray:
        """Hysteresis on/off per device, ``(n_nodes, n_devices)``."""
        t_dev = tile_peak_c[:, self.system.tec.device_tile]
        on_c = self.t_threshold_c - self.tec_on_margin_c
        off_c = self.t_threshold_c - self.tec_off_margin_c
        return np.where(
            t_dev > on_c, 1.0, np.where(t_dev < off_c, 0.0, tec_prev)
        )

    def decide_dvfs(
        self, offered_core_ips: np.ndarray, tile_peak_c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-core levels and the thermal-throttle mask.

        ``offered_core_ips`` is the per-core offered service rate
        (arrivals + backlog over the interval); both arrays are
        ``(n_nodes, n_cores)``.
        """
        target = offered_core_ips * self.dvfs_headroom
        levels = np.searchsorted(self._cap_table, target, side="left")
        levels = np.minimum(levels, self.system.dvfs.max_level)
        hot = tile_peak_c > self.t_threshold_c
        throttled = hot & (levels > self.throttle_level)
        levels = np.where(hot, np.minimum(levels, self.throttle_level), levels)
        return levels.astype(int), throttled

    def decide_fan(
        self, node_peak_c: np.ndarray, fan_prev: np.ndarray
    ) -> np.ndarray:
        """Hysteresis band fan step, ``(n_nodes,)`` (level 1 = fastest)."""
        speed_up = node_peak_c > self.t_threshold_c - self.fan_up_margin_c
        slow_down = node_peak_c < self.t_threshold_c - self.fan_down_margin_c
        fan = np.where(
            speed_up,
            np.maximum(fan_prev - 1, 1),
            np.where(
                slow_down,
                np.minimum(fan_prev + 1, self.system.fan.n_levels),
                fan_prev,
            ),
        )
        return fan.astype(int)
