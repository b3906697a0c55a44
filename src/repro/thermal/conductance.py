"""Assembly of the thermal conductance matrix G (paper Eq. 1-2).

Structure exploited throughout the solver stack: for *any* actuator
setting, the matrix factors as

    G(fan, tec) = G0 + diag(d_fan + d_tec)

where ``G0`` is a fixed sparse matrix (die lateral conduction, TIM and
TEC-off vertical paths, spreader lateral, spreader->sink), ``d_fan`` puts
the fan-level-dependent convective conductance on the sink diagonal, and
``d_tec`` holds the Peltier pumping terms ``+/- a*I`` (see
:mod:`repro.cooling.tec`): activating a TEC adds ``a I`` to the diagonal
of every die component under its footprint (weighted) and subtracts
``a I`` from its spreader node's diagonal. Off-diagonal entries never
change, so one sparsity pattern serves every configuration and updating
G for a new actuator setting is an O(n) diagonal rewrite.

The right-hand side is ``P = P_components + P_joule(tec) + g_conv T_amb``
(the ambient is a boundary node folded into diagonal + RHS).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.cooling.fan import FanModel
from repro.cooling.tec import TECArray
from repro.exceptions import ThermalModelError
from repro.floorplan.chip import ChipFloorplan
from repro.thermal.package import PackageStack
from repro.thermal.rc_network import ThermalNodes


@dataclass
class ConductanceModel:
    """Precomputed G-matrix machinery for one chip + package + actuators."""

    chip: ChipFloorplan
    package: PackageStack
    tec: TECArray
    fan: FanModel
    nodes: ThermalNodes = field(default=None)

    # Internals built once in __post_init__:
    _g0: sp.csc_matrix = field(default=None, repr=False)
    _diag_pos: np.ndarray = field(default=None, repr=False)  # position of
    # each node's diagonal entry inside g0.data
    _tec_comp_alpha: sp.csr_matrix = field(default=None, repr=False)
    _tec_joule_comp: sp.csr_matrix = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.nodes is None:
            self.nodes = ThermalNodes(self.chip, self.package)
        self._assemble_base()
        self._build_tec_operators()

    # ------------------------------------------------------------------
    # Base matrix
    # ------------------------------------------------------------------
    def _assemble_base(self) -> None:
        nd = self.nodes
        n = nd.n_nodes
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        diag = np.zeros(n)

        def couple(i: int, j: int, g: float) -> None:
            """Symmetric conductance g between nodes i and j."""
            rows.append(i)
            cols.append(j)
            vals.append(-g)
            rows.append(j)
            cols.append(i)
            vals.append(-g)
            diag[i] += g
            diag[j] += g

        pkg = self.package
        chip = self.chip

        # 1. Die lateral conduction (within and across tiles).
        for adj in chip.adjacencies:
            g = pkg.die_lateral_conductance(
                adj.shared_edge_mm, adj.center_distance_mm
            )
            couple(adj.i, adj.j, g)

        # 2. Vertical die -> spreader: TIM over the area not occupied by
        #    TEC film, plus the TEC bodies' passive conductance K.
        areas = chip.areas_mm2()
        tec_area_per_comp = np.zeros(nd.n_components)
        dev_area = self.tec.device.area_mm2
        # coo_weight is the fraction of the *device* over the component,
        # so the covered component area is weight * device_area.
        np.add.at(
            tec_area_per_comp,
            self.tec.coo_component,
            self.tec.coo_weight * dev_area,
        )
        free_area = areas - tec_area_per_comp
        if np.any(free_area < -1e-9):
            raise ThermalModelError("TEC coverage exceeds component area")
        free_area = np.clip(free_area, 0.0, None)
        k_body = self.tec.body_k
        # Per-(device, component) passive body conductance.
        for ci in range(nd.n_components):
            tile = chip.components[ci].tile
            g_tim = pkg.tim_vertical_conductance(free_area[ci])
            if g_tim > 0.0:
                couple(ci, nd.spreader_index(tile), g_tim)
        for d, c, w in zip(
            self.tec.coo_device, self.tec.coo_component, self.tec.coo_weight
        ):
            sp_node = nd.spreader_index(int(self.tec.device_tile[d]))
            couple(int(c), sp_node, w * k_body)

        # 3. Spreader lateral conduction between adjacent tiles.
        for tile in range(chip.n_tiles):
            for nb in chip.tile_neighbours(tile):
                if nb <= tile:
                    continue
                r1, c1 = divmod(tile, chip.cols)
                r2, c2 = divmod(nb, chip.cols)
                if r1 == r2:  # horizontal neighbours share the tile height
                    edge, dist = chip.tile_height_mm, chip.tile_width_mm
                else:
                    edge, dist = chip.tile_width_mm, chip.tile_height_mm
                g = pkg.spreader_lateral_conductance(edge, dist)
                couple(nd.spreader_index(tile), nd.spreader_index(nb), g)

        # 4. Spreader tiles -> sink tiles, and sink lateral conduction.
        g_ss = pkg.spreader_sink_conductance()
        for tile in range(chip.n_tiles):
            couple(nd.spreader_index(tile), nd.sink_index(tile), g_ss)
        for tile in range(chip.n_tiles):
            for nb in chip.tile_neighbours(tile):
                if nb <= tile:
                    continue
                r1, c1 = divmod(tile, chip.cols)
                r2, c2 = divmod(nb, chip.cols)
                if r1 == r2:
                    edge, dist = chip.tile_height_mm, chip.tile_width_mm
                else:
                    edge, dist = chip.tile_width_mm, chip.tile_height_mm
                g = pkg.sink_lateral_conductance(edge, dist)
                couple(nd.sink_index(tile), nd.sink_index(nb), g)

        # Diagonal entries (must exist in the pattern even when the base
        # value is zero, so fan/TEC diagonal updates have a slot).
        for i in range(n):
            rows.append(i)
            cols.append(i)
            vals.append(diag[i])

        g0 = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        g0.sum_duplicates()
        self._g0 = g0
        self._diag_pos = self._locate_diagonal(g0)

    @staticmethod
    def _locate_diagonal(m: sp.csc_matrix) -> np.ndarray:
        """Index into ``m.data`` of each column's diagonal entry."""
        n = m.shape[0]
        pos = np.full(n, -1, dtype=np.intp)
        indptr, indices = m.indptr, m.indices
        for j in range(n):
            sl = slice(indptr[j], indptr[j + 1])
            hits = np.flatnonzero(indices[sl] == j)
            if hits.size != 1:
                raise ThermalModelError(f"missing diagonal entry at {j}")
            pos[j] = indptr[j] + hits[0]
        return pos

    def _build_tec_operators(self) -> None:
        """Sparse maps device-activation -> per-node diagonal/Joule terms."""
        nd = self.nodes
        n_dev = self.tec.n_devices
        # alpha_op[c, d] = w_(d,c): component share of device d's footprint.
        alpha_op = sp.coo_matrix(
            (
                self.tec.coo_weight,
                (self.tec.coo_component, self.tec.coo_device),
            ),
            shape=(nd.n_components, n_dev),
        ).tocsr()
        self._tec_comp_alpha = alpha_op
        self._tec_joule_comp = alpha_op  # same weights distribute Joule heat

    # ------------------------------------------------------------------
    # Public assembly API
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total thermal unknowns."""
        return self.nodes.n_nodes

    def diag_delta(
        self, fan_level: int, tec_activation: np.ndarray
    ) -> np.ndarray:
        """Per-node diagonal addition for an actuator setting."""
        nd = self.nodes
        d = np.zeros(nd.n_nodes)
        d[nd.sink_slice] += (
            self.fan.convection_conductance_w_per_k(fan_level) / nd.n_tiles
        )
        s = np.asarray(tec_activation, dtype=float)
        ai = self.tec.alpha_i
        # Pumping: +a*I on covered components, -a*I on hot-side spreaders.
        d[nd.component_slice] += ai * (self._tec_comp_alpha @ s)
        np.subtract.at(
            d,
            nd.n_components + self.tec.device_tile,
            ai * s,
        )
        return d

    def diag(self, fan_level: int, tec_activation: np.ndarray) -> np.ndarray:
        """Diagonal of ``G(fan, tec)`` [W/K] without assembling the matrix.

        The public accessor for the per-node total conductance ``G_ii``
        the transient models build their RC time constants from.
        """
        return self._g0.data[self._diag_pos] + self.diag_delta(
            fan_level, tec_activation
        )

    def matrix(
        self, fan_level: int, tec_activation: np.ndarray
    ) -> sp.csc_matrix:
        """Full G for the given actuator setting (fresh CSC copy)."""
        g = self._g0.copy()
        delta = self.diag_delta(fan_level, tec_activation)
        g.data[self._diag_pos] += delta
        return g

    def rhs(
        self,
        p_components_w: np.ndarray,
        fan_level: int,
        tec_activation: np.ndarray,
    ) -> np.ndarray:
        """Power vector P for ``G T = P`` [W], temperatures in Kelvin.

        Includes component dissipation, the TEC Joule heat (half to each
        side of every active device), and the ambient boundary term.
        """
        nd = self.nodes
        p = np.zeros(nd.n_nodes)
        p[nd.component_slice] = p_components_w
        s = np.asarray(tec_activation, dtype=float)
        half_joule = 0.5 * self.tec.joule_w * self.tec.joule_scale(s)
        p[nd.component_slice] += self._tec_joule_comp @ half_joule
        np.add.at(p, nd.n_components + self.tec.device_tile, half_joule)
        g_conv = self.fan.convection_conductance_w_per_k(fan_level)
        p[nd.sink_slice] += (g_conv / nd.n_tiles) * self.package.ambient_k
        return p

    def base_matrix(self) -> sp.csc_matrix:
        """The actuator-independent part G0 (copy)."""
        return self._g0.copy()
