"""Thermoelectric cooler (TEC) array model.

TEC devices are thin films embedded in the thermal-interface-material
layer between the die and the heat spreader (paper Fig. 1). Each core
tile carries a 3 x 3 array of 0.5 mm x 0.5 mm devices (Sec. IV-C), each
switched on/off independently by a power transistor fed through a TSV.

Physics
-------
When driven with current ``I`` the device pumps heat from its cold side
(the die) to its hot side (the spreader):

    Q_c = a I T_c - 1/2 I^2 r - K (T_c - T_s)      [leaves the die]
    Q_h = a I T_s + 1/2 I^2 r - K (T_s - T_c)      [enters the spreader]

with Seebeck coefficient ``a``, electrical resistance ``r`` and body
thermal conductance ``K``. ``Q_h - Q_c = I^2 r + a I (T_s - T_c)`` equals
the electrical power of the paper's Eq. (9), so the model is exactly
energy-consistent. Both expressions are linear in temperature, so a TEC
contributes *linear* (but asymmetric) terms to the conductance matrix G
and constant terms to the power vector P — the steady-state problem
``G Ts = P`` (Eq. 1) stays a single linear solve.

When off, the device is a passive slab of conductance ``K`` (the film is
still in the heat path). The on-state is therefore expressed as a *delta*
on top of the off-state, scaled by an activation in [0, 1]; fractional
activations implement the paper's "average TEC state" used by the
higher-level fan controller (Sec. III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cooling.datasheets import (
    DEFAULT_TEC_DEVICE,
    TEC_GRID_PER_TILE,
    TECDeviceSpec,
)
from repro.exceptions import ConfigurationError
from repro.floorplan.chip import ChipFloorplan


@dataclass(frozen=True)
class TECPlacement:
    """One physical device and its footprint over die components."""

    device: int  # global device index
    tile: int  # core tile (== spreader node) the device sits on
    x: float  # lower-left corner, chip coordinates [mm]
    y: float
    #: Flat component indices under the device footprint.
    component_idx: np.ndarray
    #: Fraction of the device area over each component (sums to 1).
    weights: np.ndarray


@dataclass
class TECArray:
    """All TEC devices on a chip, with footprint-resolved coupling.

    Build with :func:`build_tec_array`. The ``coo_*`` arrays flatten the
    (device, component) coupling triplets for vectorized G-matrix
    assembly in :mod:`repro.thermal.conductance`.

    ``drive_mode`` selects the actuation electronics (Sec. III of the
    paper): ``"switched"`` — power transistors give on/off (or PWM
    duty-cycled) control, so a fractional activation scales *both* the
    pumping and the Joule loss linearly; ``"current"`` — a dedicated
    on-chip regulator scales the drive current, so activation ``s``
    means current ``s*I``: pumping stays linear in ``s`` but Joule loss
    falls *quadratically* (``(sI)^2 r``) — more efficient at partial
    drive, at the regulator cost the paper declines to pay. The
    ablation benchmark quantifies the difference.
    """

    device: TECDeviceSpec
    placements: list[TECPlacement]
    grid: tuple[int, int] = TEC_GRID_PER_TILE
    drive_mode: str = "switched"

    # Flattened coupling triplets: device id, component id, weight.
    coo_device: np.ndarray = field(default=None, repr=False)
    coo_component: np.ndarray = field(default=None, repr=False)
    coo_weight: np.ndarray = field(default=None, repr=False)
    #: Tile (spreader node) per device.
    device_tile: np.ndarray = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def n_devices(self) -> int:
        """Total number of TEC devices on the chip."""
        return len(self.placements)

    @property
    def devices_per_tile(self) -> int:
        """TEC devices per core tile (paper: 9)."""
        return self.grid[0] * self.grid[1]

    @property
    def alpha_i(self) -> float:
        """Peltier pumping coefficient a*I [W/K] per device."""
        return self.device.seebeck_v_per_k * self.device.current_a

    @property
    def body_k(self) -> float:
        """Device body thermal conductance K [W/K]."""
        return self.device.conductance_w_per_k

    @property
    def joule_w(self) -> float:
        """Joule dissipation I^2 r [W] per device at full drive."""
        return self.device.current_a**2 * self.device.resistance_ohm

    def joule_scale(self, state: np.ndarray) -> np.ndarray:
        """Joule-loss scaling for an activation vector.

        Linear for switched/PWM drive (time-averaged duty cycle),
        quadratic for current control (``(sI)^2 r``).
        """
        s = np.asarray(state, dtype=float)
        return s * s if self.drive_mode == "current" else s

    def tile_devices(self, tile: int) -> np.ndarray:
        """Global device indices on ``tile``."""
        return np.flatnonzero(self.device_tile == tile)

    def device_starts(self) -> np.ndarray:
        """Start of each device's run in the ``coo_*`` arrays.

        The builder emits the triplets grouped per device, so these are
        the segment offsets for per-device ``ufunc.reduceat`` reductions.
        """
        starts = getattr(self, "_device_starts", None)
        if starts is None:
            d = self.coo_device
            if np.any(np.diff(d) < 0):
                raise ConfigurationError("coo_device is not device-sorted")
            starts = np.searchsorted(d, np.arange(self.n_devices))
            object.__setattr__(self, "_device_starts", starts)
        return starts

    def devices_over_component(self, comp_idx: int) -> np.ndarray:
        """Global indices of devices whose footprint covers ``comp_idx``."""
        mask = self.coo_component == comp_idx
        return np.unique(self.coo_device[mask])

    # ------------------------------------------------------------------
    def electrical_power_w(
        self,
        state: np.ndarray,
        t_cold_k: np.ndarray,
        t_hot_k: np.ndarray,
    ) -> np.ndarray:
        """Per-device electrical power, Eq. (9): ``r I^2 + a I (Th - Tc)``.

        Parameters
        ----------
        state:
            Activation per device in [0, 1].
        t_cold_k, t_hot_k:
            Cold-side (die, footprint-weighted) and hot-side (spreader)
            absolute temperatures per device [K].
        """
        state = np.asarray(state, dtype=float)
        if state.shape != (self.n_devices,):
            raise ConfigurationError(
                f"state has shape {state.shape}, expected ({self.n_devices},)"
            )
        joule, pump = self.activation_terms(state)
        d_theta = np.asarray(t_hot_k) - np.asarray(t_cold_k)
        return joule + pump * d_theta

    def _cold_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Rank-by-device component index and weight tables.

        Column ``d`` lists device ``d``'s footprint entries in COO entry
        order (a stable sort by device, so unsorted COO arrays keep each
        device's order); row ``e`` holds every device's ``e``-th entry.
        Devices with fewer entries are padded with weight 0.0 on their
        own first component, so a pad adds ``+0.0`` to the device's sum.
        """
        table = getattr(self, "_cold_table", None)
        if table is None:
            order = np.argsort(self.coo_device, kind="stable")
            dev = self.coo_device[order]
            counts = np.bincount(dev, minlength=self.n_devices)
            rank = np.arange(dev.size) - (np.cumsum(counts) - counts)[dev]
            shape = (max(int(counts.max(initial=0)), 1), self.n_devices)
            idx = np.zeros(shape, dtype=np.intp)
            weight = np.zeros(shape)
            real = np.zeros(shape, dtype=bool)
            idx[rank, dev] = self.coo_component[order]
            weight[rank, dev] = self.coo_weight[order]
            real[rank, dev] = True
            idx = np.where(real, idx, idx[0])
            table = (idx, weight)
            object.__setattr__(self, "_cold_table", table)
        return table

    def cold_side_temperature_k(self, t_components_k: np.ndarray) -> np.ndarray:
        """Footprint-weighted die temperature under each device [K].

        Also takes a ``(batch, n_components)`` matrix, one row per
        field; see :meth:`cold_side_temperature_many`.
        """
        idx, weight = self._cold_gather()
        vals = np.asarray(t_components_k, dtype=float)[..., idx] * weight
        # Each device sums its entries in COO entry order, rank by rank.
        out = vals[..., 0, :]
        for e in range(1, idx.shape[0]):
            out = out + vals[..., e, :]
        return out

    def cold_side_temperature_many(
        self, t_components_rows_k: np.ndarray
    ) -> np.ndarray:
        """:meth:`cold_side_temperature_k` over a ``(batch, n_comp)``
        matrix, one row per candidate field; row ``b`` is bit-identical
        to the single-field call (the same gather, products and
        rank-ordered adds, elementwise per row)."""
        return self.cold_side_temperature_k(t_components_rows_k)

    def activation_terms(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eq. (9)'s activation factors ``(r I^2 scale, a I s)`` [W, W/K].

        ``state`` is one ``(n_devices,)`` activation vector or a
        ``(batch, n_devices)`` matrix, range-checked to [0, 1]. The
        electrical power is ``joule + pump * (T_hot - T_cold)``.
        """
        state = np.asarray(state, dtype=float)
        if state.ndim not in (1, 2) or state.shape[-1] != self.n_devices:
            raise ConfigurationError(
                f"state has shape {state.shape}, expected ({self.n_devices},)"
                f" or (batch, {self.n_devices})"
            )
        # NaN fails both compares: min and max propagate it.
        if not (state.min(initial=0.0) >= 0.0 and state.max(initial=1.0) <= 1.0):
            raise ConfigurationError("TEC activations must lie in [0, 1]")
        return self.joule_scale(state) * self.joule_w, state * self.alpha_i

    def electrical_power_many(
        self,
        state: np.ndarray,
        t_cold_rows_k: np.ndarray,
        t_hot_rows_k: np.ndarray,
    ) -> np.ndarray:
        """:meth:`electrical_power_w` against ``(batch, n_devices)``
        temperature rows; ``state`` is one activation vector shared by
        every row or a ``(batch, n_devices)`` matrix, one per row. Row
        ``b`` is bit-identical to the per-row call (the Eq. (9)
        arithmetic is elementwise, so broadcasting changes nothing)."""
        joule, pump = self.activation_terms(state)
        d_theta = np.asarray(t_hot_rows_k) - np.asarray(t_cold_rows_k)
        return joule + pump * d_theta


def build_tec_array(
    chip: ChipFloorplan,
    device: TECDeviceSpec = DEFAULT_TEC_DEVICE,
    grid: tuple[int, int] = TEC_GRID_PER_TILE,
    drive_mode: str = "switched",
) -> TECArray:
    """Place a ``grid`` of TEC devices centred on each core tile.

    Devices are laid out on a regular grid over the tile so the array
    covers "the most core area" (Sec. IV-C); each device's cold-side
    coupling is split across the die components under its footprint in
    proportion to overlap area.
    """
    gx, gy = grid
    if gx < 1 or gy < 1:
        raise ConfigurationError(f"invalid TEC grid {grid}")
    size = device.size_mm
    if size * gx > chip.tile_width_mm or size * gy > chip.tile_height_mm:
        raise ConfigurationError("TEC grid does not fit on the tile")

    placements: list[TECPlacement] = []
    cell_w = chip.tile_width_mm / gx
    cell_h = chip.tile_height_mm / gy
    dev_id = 0
    for tile in range(chip.n_tiles):
        ox, oy = chip.tile_origin(tile)
        s = chip.tile_slice(tile)
        tile_comps = list(range(s.start, s.stop))
        for iy in range(gy):
            for ix in range(gx):
                # Device centred in its grid cell.
                dx = ox + (ix + 0.5) * cell_w - 0.5 * size
                dy = oy + (iy + 0.5) * cell_h - 0.5 * size
                idx: list[int] = []
                wts: list[float] = []
                for ci in tile_comps:
                    comp = chip.components[ci]
                    a = comp.overlap_area(dx, dy, dx + size, dy + size)
                    if a > 0.0:
                        idx.append(ci)
                        wts.append(a)
                w = np.asarray(wts, dtype=float)
                total = w.sum()
                if total <= 0.0:
                    raise ConfigurationError(
                        f"TEC device {dev_id} covers no component"
                    )
                placements.append(
                    TECPlacement(
                        device=dev_id,
                        tile=tile,
                        x=dx,
                        y=dy,
                        component_idx=np.asarray(idx, dtype=np.intp),
                        weights=w / total,
                    )
                )
                dev_id += 1

    if drive_mode not in ("switched", "current"):
        raise ConfigurationError(f"unknown TEC drive mode {drive_mode!r}")
    arr = TECArray(
        device=device, placements=placements, grid=grid,
        drive_mode=drive_mode,
    )
    coo_d: list[int] = []
    coo_c: list[int] = []
    coo_w: list[float] = []
    for p in placements:
        coo_d.extend([p.device] * len(p.component_idx))
        coo_c.extend(int(c) for c in p.component_idx)
        coo_w.extend(float(w) for w in p.weights)
    arr.coo_device = np.asarray(coo_d, dtype=np.intp)
    arr.coo_component = np.asarray(coo_c, dtype=np.intp)
    arr.coo_weight = np.asarray(coo_w, dtype=float)
    arr.device_tile = np.asarray([p.tile for p in placements], dtype=np.intp)
    return arr
