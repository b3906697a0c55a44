"""Actuator state: the decision variables of the TECfan problem.

One :class:`ActuatorState` captures the full knob setting the optimizer
searches over (Sec. III-C): per-device TEC activations, per-core DVFS
levels, and the fan speed level. States are treated as immutable values;
the ``with_*`` helpers produce modified copies so controllers can build
candidate moves without aliasing bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ActuatorState:
    """One complete (TEC, DVFS, fan) configuration.

    Parameters
    ----------
    tec:
        Per-device activation in [0, 1]. On/off control uses {0, 1};
        the fan controller's "average state" estimate may be fractional.
    dvfs:
        Per-core DVFS level indices (higher = faster).
    fan_level:
        Fan speed level, 1 = fastest.
    """

    tec: np.ndarray
    dvfs: np.ndarray
    fan_level: int

    def __post_init__(self) -> None:
        tec = np.asarray(self.tec, dtype=float)
        dvfs = np.asarray(self.dvfs, dtype=int)
        if not np.all((tec >= 0.0) & (tec <= 1.0)):  # NaN fails too
            raise ConfigurationError("TEC activations must lie in [0, 1]")
        if self.fan_level < 1:
            raise ConfigurationError("fan level must be >= 1")
        object.__setattr__(self, "tec", tec)
        object.__setattr__(self, "dvfs", dvfs)
        # Freeze the arrays so the dataclass is genuinely immutable.
        self.tec.setflags(write=False)
        self.dvfs.setflags(write=False)

    # ------------------------------------------------------------------
    @classmethod
    def initial(
        cls, n_devices: int, n_cores: int, max_dvfs_level: int, fan_level: int = 1
    ) -> "ActuatorState":
        """Base scenario: all TECs off, all cores at max DVFS, given fan."""
        return cls(
            tec=np.zeros(n_devices),
            dvfs=np.full(n_cores, max_dvfs_level, dtype=int),
            fan_level=fan_level,
        )

    def with_tec(self, device: int, value: float) -> "ActuatorState":
        """Copy with one device's activation changed."""
        tec = self.tec.copy()
        tec[device] = value
        return ActuatorState(tec=tec, dvfs=self.dvfs, fan_level=self.fan_level)

    def with_tec_vector(self, tec: np.ndarray) -> "ActuatorState":
        """Copy with the whole activation vector replaced."""
        return ActuatorState(
            tec=np.asarray(tec, dtype=float).copy(),
            dvfs=self.dvfs,
            fan_level=self.fan_level,
        )

    def with_dvfs(self, core: int, level: int) -> "ActuatorState":
        """Copy with one core's DVFS level changed."""
        dvfs = self.dvfs.copy()
        dvfs[core] = level
        return self._derive(dvfs, self.fan_level)

    def with_dvfs_vector(self, dvfs: np.ndarray) -> "ActuatorState":
        """Copy with the whole DVFS vector replaced."""
        return self._derive(np.array(dvfs, dtype=int), self.fan_level)

    def with_fan(self, fan_level: int) -> "ActuatorState":
        """Copy with the fan level changed."""
        if fan_level < 1:
            raise ConfigurationError("fan level must be >= 1")
        return self._derive(self.dvfs, fan_level)

    def _derive(self, dvfs: np.ndarray, fan_level: int) -> "ActuatorState":
        """Copy sharing this state's validated, write-frozen ``tec``.

        ``dvfs`` must be an int array the copy may own; it is frozen
        here. Skips ``__post_init__``, whose only check is on ``tec``
        and the fan level (checked by the callers that change it).
        """
        new = object.__new__(ActuatorState)
        dvfs.setflags(write=False)
        object.__setattr__(new, "tec", self.tec)
        object.__setattr__(new, "dvfs", dvfs)
        object.__setattr__(new, "fan_level", fan_level)
        return new

    # ------------------------------------------------------------------
    @property
    def tec_on_count(self) -> int:
        """Number of devices with activation > 1/2."""
        return int(np.count_nonzero(self.tec > 0.5))

    def tec_on_mask(self) -> np.ndarray:
        """Boolean on/off view of the activation vector."""
        return self.tec > 0.5
