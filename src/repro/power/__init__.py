"""Power substrate: DVFS tables, dynamic and leakage power models.

Public API
----------
- :class:`~repro.power.dvfs.DVFSTable`, :data:`~repro.power.dvfs.SCC_DVFS`,
  :data:`~repro.power.dvfs.I7_DVFS`
- :class:`~repro.power.leakage.LinearLeakage` (Eq. 6, controller side),
  :class:`~repro.power.leakage.QuadraticLeakage` (plant side)
- :class:`~repro.power.component_power.ComponentPowerModel`
- :class:`~repro.power.dynamic.DynamicPowerTracker` (Eq. 7)
- :func:`~repro.power.calibration.build_power_models`
"""

from repro.power.calibration import (
    CHIP_PEAK_DYNAMIC_W,
    CalibratedPowerModels,
    LEAKAGE_SLOPE_W_PER_K,
    P_TDP_LEAK_W,
    T_TDP_C,
    build_power_models,
)
from repro.power.component_power import ComponentPowerModel
from repro.power.dvfs import DVFSTable, I7_DVFS, SCC_DVFS
from repro.power.dynamic import DynamicPowerTracker
from repro.power.leakage import LinearLeakage, QuadraticLeakage

__all__ = [
    "CHIP_PEAK_DYNAMIC_W",
    "CalibratedPowerModels",
    "LEAKAGE_SLOPE_W_PER_K",
    "P_TDP_LEAK_W",
    "T_TDP_C",
    "build_power_models",
    "ComponentPowerModel",
    "DVFSTable",
    "I7_DVFS",
    "SCC_DVFS",
    "DynamicPowerTracker",
    "LinearLeakage",
    "QuadraticLeakage",
]
