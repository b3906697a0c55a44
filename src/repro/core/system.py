"""System bundle: one CMP with its cooling stack and calibrated models.

:class:`CMPSystem` wires together every substrate — floorplan, thermal
network, TEC array, fan, DVFS table, power models — and owns the shared
steady-state solver. Both the simulation plant and the controllers'
estimators operate on the same bundle (they differ in *which* leakage
model and power source they use, mirroring the paper's split between the
HotSpot/Wattch simulation and the on-line Eq. (6)/(7) estimation).

:meth:`CMPSystem.advance` is the plant's one interval step, for the
engine's chip and the fleet's node rows alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cooling.datasheets import DEFAULT_TEC_DEVICE, TECDeviceSpec
from repro.cooling.fan import FanModel
from repro.cooling.tec import TECArray, build_tec_array
from repro.floorplan.chip import ChipFloorplan, build_chip
from repro.floorplan.validate import validate_floorplan
from repro.power.calibration import CalibratedPowerModels, build_power_models
from repro.power.dvfs import DVFSTable, SCC_DVFS
from repro.obs import telemetry as obs
from repro.thermal.conductance import ConductanceModel
from repro.thermal.keys import exact_actuator_key
from repro.thermal.leakage_loop import LeakageCoupledSolver
from repro.thermal.package import PackageStack
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import PaperTransient
from repro import units


@dataclass
class StepResult:
    """Per-row plant outputs of one control interval."""

    t_nodes_k: np.ndarray  # (rows, n_thermal_nodes)
    p_dyn_w: np.ndarray  # (rows, n_components)
    p_leak_w: np.ndarray  # (rows, n_components)
    p_tec_w: np.ndarray  # (rows,)
    t_steady_k: np.ndarray  # (rows, n_thermal_nodes)


@dataclass
class CMPSystem:
    """Everything that defines one chip + package + actuator platform."""

    chip: ChipFloorplan
    package: PackageStack
    tec: TECArray
    fan: FanModel
    dvfs: DVFSTable
    power: CalibratedPowerModels
    cond: ConductanceModel = field(default=None)
    solver: SteadyStateSolver = field(default=None)
    transient: PaperTransient = field(default=None)
    plant_thermal: LeakageCoupledSolver = field(default=None)

    def __post_init__(self) -> None:
        if self.cond is None:
            self.cond = ConductanceModel(
                chip=self.chip, package=self.package, tec=self.tec, fan=self.fan
            )
        if self.solver is None:
            self.solver = SteadyStateSolver(self.cond)
        if self.transient is None:
            self.transient = PaperTransient(self.cond)
        if self.plant_thermal is None:
            self.plant_thermal = LeakageCoupledSolver(
                solver=self.solver,
                leakage_fn=self.power.plant_leakage.per_component_w,
            )

    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        """Number of core tiles."""
        return self.chip.n_tiles

    @property
    def n_tec_devices(self) -> int:
        """Number of TEC devices."""
        return self.tec.n_devices

    @property
    def nodes(self):
        """The thermal node map."""
        return self.cond.nodes

    @property
    def ambient_k(self) -> float:
        """Ambient temperature [K]."""
        return self.package.ambient_k

    def uniform_initial_temps_k(self) -> np.ndarray:
        """Default uniform initial temperature field [K].

        The paper starts HotSpot from a uniform default and iterates; we
        start from ambient and let the leakage loop converge.
        """
        return np.full(self.nodes.n_nodes, self.ambient_k)

    def component_temps_c(self, t_nodes_k: np.ndarray) -> np.ndarray:
        """Die component temperatures [degC] from a node vector [K]."""
        return units.k_to_c(t_nodes_k[self.nodes.component_slice])

    def tec_power_w(self, state_tec: np.ndarray, t_nodes_k: np.ndarray) -> float:
        """Total TEC electrical power (Eq. 9) for the current field [W]."""
        t_cold = self.tec.cold_side_temperature_k(
            t_nodes_k[self.nodes.component_slice]
        )
        t_hot = t_nodes_k[self.nodes.n_components + self.tec.device_tile]
        return float(
            self.tec.electrical_power_w(state_tec, t_cold, t_hot).sum()
        )

    def tec_power_many(
        self, state_tec: np.ndarray, t_rows_k: np.ndarray
    ) -> np.ndarray:
        """:meth:`tec_power_w` over ``(batch, n_nodes)`` field rows [W].

        ``state_tec`` is one activation vector for every row (its Eq. (9)
        activation terms are computed once) or a ``(batch, n_devices)``
        matrix of per-row activations. Entry ``b`` is bit-identical to
        ``tec_power_w(state_tec[b], t_rows_k[b])`` (or
        ``tec_power_w(state_tec, t_rows_k[b])``): the cold-side gather
        keeps the 1-D accumulation order per row and each row is
        pairwise-summed on its own.
        """
        t_cold = self.tec.cold_side_temperature_many(
            t_rows_k[:, self.nodes.component_slice]
        )
        t_hot = t_rows_k[:, self.nodes.n_components + self.tec.device_tile]
        p = self.tec.electrical_power_many(state_tec, t_cold, t_hot)
        # The contiguous copy keeps each row's pairwise-summation order
        # identical to the scalar call's 1-D ``.sum()``.
        return np.ascontiguousarray(p).sum(axis=1)

    def advance(
        self,
        activity: np.ndarray,
        dvfs_levels: np.ndarray,
        fan_levels: np.ndarray,
        tec: np.ndarray,
        t_nodes_k: np.ndarray,
        dt_s: float,
        component_profile: np.ndarray | None = None,
    ) -> tuple[StepResult, int]:
        """Advance chip rows one interval: ``(StepResult, class count)``.

        One row per chip in every argument but ``dt_s`` and
        ``component_profile``. Dynamic power, then the leakage fixed
        point (Sec. IV-B) of every actuation class in one lockstep
        :meth:`~repro.thermal.leakage_loop.LeakageCoupledSolver.solve_many`,
        the Eq. (5) blend and the Eq. (9) TEC power. Row ``b`` is
        bit-identical to the scalar chain ``dynamic_power_w`` ->
        ``plant_thermal.solve`` -> ``transient.step`` -> :meth:`tec_power_w`.
        """
        plant = self.plant_thermal
        p_dyn = self.power.component_power.dynamic_power_many(
            activity, dvfs_levels, component_profile
        )
        groups: dict[tuple, list[int]] = {}
        for i in range(t_nodes_k.shape[0]):
            key = exact_actuator_key(int(fan_levels[i]), tec[i])
            groups.setdefault(key, []).append(i)

        # Each class's LU and Eq. (5) beta row, resolved once per step.
        classes = []
        betas = []
        for (fan, _), members in groups.items():
            tec_row = tec[members[0]]
            classes.append(
                (np.asarray(members), plant.solver.factorization(fan, tec_row))
            )
            betas.append(self.transient.betas(dt_s, fan, tec_row))
        t_steady, p_leak = plant.solve_many(
            p_dyn, classes, t_nodes_k[:, self.nodes.component_slice]
        )
        with obs.span("thermal.step"):
            if len(classes) == 1:
                # Broadcast: the Eq. (9) activation terms are computed once.
                beta, state = betas[0], tec_row
            else:
                beta = np.empty_like(t_nodes_k)
                for (idx, _), b in zip(classes, betas):
                    beta[idx] = b
                state = tec
            t_new = (1.0 - beta) * t_steady + beta * t_nodes_k
        p_tec = self.tec_power_many(state, t_new)
        return StepResult(t_new, p_dyn, p_leak, p_tec, t_steady), len(groups)


def build_system(
    rows: int = 4,
    cols: int = 4,
    dvfs: DVFSTable = SCC_DVFS,
    package: PackageStack | None = None,
    fan: FanModel | None = None,
    tec_device: TECDeviceSpec = DEFAULT_TEC_DEVICE,
    tec_grid: tuple[int, int] = (3, 3),
    tec_drive_mode: str = "switched",
    validate: bool = True,
    **power_kwargs,
) -> CMPSystem:
    """Construct the paper's CMP platform.

    Defaults build the 16-core SCC-style target of Sec. IV; pass
    ``rows=cols=2`` plus the I7 DVFS table for the server setup of
    Sec. V-E (or use :func:`repro.server.platform.build_server_system`).
    """
    chip = build_chip(rows=rows, cols=cols)
    if validate:
        validate_floorplan(chip)
    if package is None:
        package = PackageStack()
    if fan is None:
        fan = FanModel()
    tec = build_tec_array(
        chip, device=tec_device, grid=tec_grid, drive_mode=tec_drive_mode
    )
    power = build_power_models(chip, dvfs=dvfs, **power_kwargs)
    return CMPSystem(
        chip=chip, package=package, tec=tec, fan=fan, dvfs=dvfs, power=power
    )
