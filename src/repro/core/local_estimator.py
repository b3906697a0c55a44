"""The paper's hardware temperature estimator: banded, one core at a time.

Sec. III-E describes TECfan's on-chip estimation pipeline: G is a band
matrix (thermal influence is local), implemented as a systolic array that
evaluates **one core per cycle** using ``M x K = 18 x 3 = 54`` fixed-point
multiplies — i.e. candidate evaluation sees only the candidate core's own
components; everything outside (neighbouring cores' boundary components,
the heat spreader, the sink) is frozen at its last known temperature.

:class:`LocalBandedEstimator` reproduces that locality:

* per control interval, one full-model bookkeeping solve anchors the
  observer (firmware can afford this at the measurement rate; candidate
  screening cannot);
* every candidate evaluation re-solves only the cores whose knobs differ
  from the applied configuration, against *frozen boundary temperatures*.

A core's local solve depends on nothing but the observer field, the
core's own DVFS level and its tile's TEC pattern: Eq. (7) rescales each
component by its own tile's level ratio, and leakage and the frozen
boundary stay fixed until the field moves. So the estimator keeps a
**core table** mapping (tile-TEC pattern, core, level) to that core's
quantized prediction. A batch encodes every changed (candidate, core)
pair as one integer key, fills only the keys the table lacks with one
stacked LAPACK solve (each system is solved on its own, so a row is the
same LU solve the per-pair datapath runs), and assembles every
candidate's prediction with one gather. The table lives exactly as long
as the observer field: :meth:`LocalBandedEstimator.begin_interval` and
:meth:`LocalBandedEstimator.commit` drop it. ``n_core_solves``
(``estimator.core_solves``) still counts the hardware's systolic passes,
one per demanded (candidate, changed core) pair;
``estimator.core_table_fills`` counts the solves actually run.

The locality is exactly why the hardware heuristic struggles at slow fan
speeds: each locally-evaluated move looks safe, but the global
spreader/sink warm-up that a chip-wide decision causes is invisible until
the next interval's sensors report it. The ablation benchmark
(``benchmarks/bench_ablation.py``) quantifies this against the idealized
full-model estimator of :class:`repro.core.estimator.NextIntervalEstimator`.

Temperatures handled by this estimator are quantized to the 8-bit /
0.5 degC encoding the paper budgets for the comparator datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.core.estimator import Estimate, NextIntervalEstimator
from repro.core.state import ActuatorState
from repro.obs import telemetry as obs

#: Temperature quantization step of the 8-bit hardware encoding [K].
HW_TEMP_STEP_K: float = 0.5


def _quantize(t_k: np.ndarray) -> np.ndarray:
    """Round temperatures to the hardware's 0.5 degC resolution."""
    return np.round(t_k / HW_TEMP_STEP_K) * HW_TEMP_STEP_K


@dataclass
class _CoreBlock:
    """Precomputed local model of one core tile."""

    comp_idx: np.ndarray  # flat indices of this core's components
    g_local: np.ndarray  # dense (m, m) intra-core conductance block
    # External couplings: for each local component, lists of (node, g).
    ext_node: list  # list of np.ndarray of external node indices
    ext_g: list  # matching conductances
    capacities: np.ndarray  # per local component [J/K]


@dataclass
class LocalBandedEstimator(NextIntervalEstimator):
    """Sec. III-E's per-core banded what-if evaluator.

    A :class:`repro.core.estimator.NextIntervalEstimator` whose
    :meth:`begin_interval` anchors the observer and whose field
    prediction is the core-table gather; see module docstring for the
    locality semantics and the core table.
    """

    #: Core re-solves demanded (the hardware's "systolic array passes").
    n_core_solves: int = 0

    _blocks: list = field(default=None, repr=False)
    #: (n_cores, devices per tile) global device indices, tile-major.
    _tile_devs: np.ndarray = field(default=None, repr=False)
    _base_state: ActuatorState = field(default=None, repr=False)
    _base_pred_comp_k: np.ndarray = field(default=None, repr=False)
    _p_leak: np.ndarray = field(default=None, repr=False)
    # Everything below is valid for the current observer field only and
    # is dropped whenever ``_t_nodes_k`` moves (see ``_clear_table``).
    # (core, pattern id) -> (a, b_base, beta): the power-independent
    # part of a core solve.
    _ctx_cache: dict = field(default_factory=dict, repr=False)
    # Tile-TEC pattern bytes -> pattern id, and the id's activations.
    _patterns: dict = field(default_factory=dict, repr=False)
    _pattern_rows: list = field(default_factory=list, repr=False)
    # id(TEC vector) -> (vector, per-core pattern ids); holding the
    # vector keeps its id from being reused while the entry lives.
    _tec_pids: dict = field(default_factory=dict, repr=False)
    # The core table: row ``(pid * n_cores + core) * n_levels + level``
    # holds that core's quantized prediction once ``_have[row]``.
    _table: np.ndarray = field(default=None, repr=False)
    _have: np.ndarray = field(default=None, repr=False)
    # (n_levels, n_cores, m): dynamic + leakage power per core level.
    _p_by_level: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._build_blocks()
        self._table = np.empty((0, self.system.chip.components_per_tile))
        self._have = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------------
    def _build_blocks(self) -> None:
        system = self.system
        nodes = system.nodes
        g_full = system.cond.base_matrix().tocsr()
        blocks: list[_CoreBlock] = []
        for core in range(system.n_cores):
            sl = system.chip.tile_slice(core)
            idx = np.arange(sl.start, sl.stop)
            local_pos = {int(i): k for k, i in enumerate(idx)}
            m = len(idx)
            g_local = np.zeros((m, m))
            ext_node: list[np.ndarray] = []
            ext_g: list[np.ndarray] = []
            for k, i in enumerate(idx):
                row = g_full.getrow(int(i))
                cols = row.indices
                vals = row.data
                e_nodes: list[int] = []
                e_gs: list[float] = []
                for c, v in zip(cols, vals):
                    if int(c) in local_pos:
                        g_local[k, local_pos[int(c)]] = v
                    else:
                        # Off-diagonal entries are -g; boundary nodes are
                        # frozen, so they contribute g*T_ext to the RHS
                        # and +g to the diagonal (already included in the
                        # full matrix's diagonal, which we copied above
                        # via the (i, i) entry).
                        e_nodes.append(int(c))
                        e_gs.append(-float(v))
                ext_node.append(np.asarray(e_nodes, dtype=np.intp))
                ext_g.append(np.asarray(e_gs, dtype=float))
            blocks.append(
                _CoreBlock(
                    comp_idx=idx,
                    g_local=g_local,
                    ext_node=ext_node,
                    ext_g=ext_g,
                    capacities=nodes.capacities[sl],
                )
            )
        self._blocks = blocks
        self._tile_devs = np.stack(
            [system.tec.tile_devices(core) for core in range(system.n_cores)]
        )

    # ------------------------------------------------------------------
    def begin_interval(
        self,
        sensor_temps_c: np.ndarray,
        p_dyn_measured_w: np.ndarray,
        ips_measured: np.ndarray,
        state: ActuatorState,
        dt_s: float,
    ) -> None:
        """Load one control period's measurements (see full estimator)."""
        system = self.system
        nodes = system.nodes
        first_call = self._t_nodes_k is None
        t = self._observe(p_dyn_measured_w, ips_measured, state, dt_s)
        # Firmware bookkeeping: one full steady solve at the *applied*
        # configuration anchors the spreader/sink observer. Components
        # come from the (quantized) sensors.
        t[nodes.component_slice] = _quantize(units.c_to_k(sensor_temps_c))
        p_leak = system.power.controller_leakage.per_component_w(
            t[nodes.component_slice]
        )
        p_dyn = self.dyn_tracker.predict(state.dvfs)
        t_anchor = system.solver.solve(p_dyn + p_leak, state.fan_level, state.tec)
        rest = slice(nodes.n_components, nodes.n_nodes)
        if first_call:
            # Boot the observer at the anchored steady state; afterwards
            # the slow nodes track it with their own RC dynamics.
            t[rest] = t_anchor[rest]
        else:
            beta = system.transient.betas(dt_s, state.fan_level, state.tec)
            t[rest] = (
                (1.0 - beta[rest]) * t_anchor[rest] + beta[rest] * t[rest]
            )
        self._t_nodes_k = t
        self._p_leak = system.power.controller_leakage.per_component_w(
            t[nodes.component_slice]
        )
        self._base_state = state
        self._base_pred_comp_k = None
        self._clear_table()

    def commit(self, estimate: Estimate) -> None:
        """Adopt an accepted candidate's field; the core table goes with
        the old one."""
        super().commit(estimate)
        self._clear_table()

    def _clear_table(self) -> None:
        """Drop every per-field cache: the core table and its inputs."""
        self._ctx_cache.clear()
        self._patterns.clear()
        self._pattern_rows.clear()
        self._tec_pids.clear()
        self._have[:] = False
        self._p_by_level = None

    # ------------------------------------------------------------------
    def _tile_pattern_ids(self, tec: np.ndarray) -> np.ndarray:
        """Per-core pattern ids of a TEC vector (memoized per object).

        Equal ids mean equal tile activations: ``+ 0.0`` folds ``-0.0``
        into ``0.0`` before the byte-level interning.
        """
        hit = self._tec_pids.get(id(tec))
        if hit is not None:
            return hit[1]
        rows = np.asarray(tec)[self._tile_devs] + 0.0
        pids = np.empty(len(rows), dtype=np.intp)
        for core, row in enumerate(rows):
            b = row.tobytes()
            pid = self._patterns.get(b)
            if pid is None:
                pid = self._patterns[b] = len(self._pattern_rows)
                self._pattern_rows.append(row)
            pids[core] = pid
        self._tec_pids[id(tec)] = (tec, pids)
        return pids

    def _core_context(self, core: int, pid: int):
        """Power-independent pieces of one core solve: ``(a, b_base, beta)``.

        ``a`` is the local conductance block with the TEC pump terms on
        the diagonal, ``b_base`` the frozen-boundary inflow plus Joule
        injection, ``beta`` the Eq. (5) relaxation factors. Depends on
        the observer field and this tile's TEC pattern only, so one
        context serves every DVFS level of the core.
        """
        key = (core, pid)
        ctx = self._ctx_cache.get(key)
        if ctx is not None:
            return ctx
        system = self.system
        blk: _CoreBlock = self._blocks[core]
        idx = blk.comp_idx
        m = len(idx)
        a = blk.g_local.copy()
        b_base = np.zeros(m)
        t_now = self._t_nodes_k

        # Frozen-boundary inflow.
        for k in range(m):
            if blk.ext_node[k].size:
                b_base[k] += float(
                    np.dot(blk.ext_g[k], t_now[blk.ext_node[k]])
                )

        # TEC terms for devices on this tile (pump on diagonal, Joule in
        # RHS; the hot side is the frozen spreader).
        tec = system.tec
        for dev, s in zip(self._tile_devs[core], self._pattern_rows[pid]):
            s = float(s)
            if s <= 0.0:
                continue
            placement = tec.placements[dev]
            s_joule = float(tec.joule_scale(np.array([s]))[0])
            for ci, w in zip(placement.component_idx, placement.weights):
                k = int(ci - idx[0])
                a[k, k] += s * w * tec.alpha_i
                b_base[k] += s_joule * w * 0.5 * tec.joule_w

        # Eq. (5) per local node with the local diagonal conductance.
        beta = np.exp(-self._dt_s * np.diag(a) / blk.capacities)
        ctx = (a, b_base, beta)
        self._ctx_cache[key] = ctx
        return ctx

    def _lookup(
        self, pids: np.ndarray, cores: np.ndarray, levels: np.ndarray
    ) -> np.ndarray:
        """Core-table rows for ``(pattern, core, level)`` triples [K].

        Missing keys are filled first, each distinct key once, with one
        stacked ``np.linalg.solve``: LAPACK solves every ``(m, m)``
        system independently, so a row equals the single-system solve.
        """
        n_cores = self.system.n_cores
        n_levels = self.dyn_tracker.dvfs.n_levels
        per_pattern = n_cores * n_levels
        keys = (pids * n_cores + cores) * n_levels + levels
        n_rows = len(self._pattern_rows) * per_pattern
        if n_rows > len(self._have):
            n_rows = max(n_rows, 2 * len(self._have))
            table = np.empty((n_rows, self._table.shape[1]))
            table[: len(self._table)] = self._table
            have = np.zeros(n_rows, dtype=bool)
            have[: len(self._have)] = self._have
            self._table, self._have = table, have
        fill = np.unique(keys[~self._have[keys]])
        if fill.size:
            if self._p_by_level is None:
                every = np.repeat(np.arange(n_levels)[:, None], n_cores, axis=1)
                self._p_by_level = (
                    self.dyn_tracker.predict_many(every) + self._p_leak[None, :]
                ).reshape(n_levels, n_cores, -1)
            f_pid, rest = np.divmod(fill, per_pattern)
            f_core, f_level = np.divmod(rest, n_levels)
            ctxs = [
                self._core_context(c, p)
                for c, p in zip(f_core.tolist(), f_pid.tolist())
            ]
            a, b_base, beta = (np.stack(part) for part in zip(*ctxs))
            rhs = self._p_by_level[f_level, f_core] + b_base
            t_steady = np.linalg.solve(a, rhs[:, :, None])[..., 0]
            t_now = self._t_nodes_k[self.system.nodes.component_slice]
            t_now = t_now.reshape(n_cores, -1)[f_core]
            self._table[fill] = _quantize(
                (1.0 - beta) * t_steady + beta * t_now
            )
            self._have[fill] = True
            obs.incr("estimator.core_table_fills", fill.size)
        return self._table[keys]

    def _base_prediction(self) -> np.ndarray:
        """Every core's prediction at the applied state (N passes, once
        per interval)."""
        if self._base_pred_comp_k is None:
            base = self._base_state
            n_cores = self.system.n_cores
            self._base_pred_comp_k = self._lookup(
                self._tile_pattern_ids(base.tec), np.arange(n_cores), base.dvfs
            ).reshape(-1)
            self.n_core_solves += n_cores
            obs.incr("estimator.core_solves", n_cores)
        return self._base_pred_comp_k

    # ------------------------------------------------------------------
    # The memo front is the base class's, defined again in this class
    # body so per-class instrumentation (``benchmarks/e2e/layers.py``)
    # binds the banded estimator's calls on their own.
    evaluate = NextIntervalEstimator.evaluate
    evaluate_many = NextIntervalEstimator.evaluate_many

    def _predict_fields(
        self, states: list, levels: np.ndarray, p_dyn_many: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Observer field with every candidate's changed cores re-solved.

        Only the cores whose knobs differ from the applied configuration
        are the hardware's passes — the paper's one-core-per-cycle
        datapath; each reads its core-table row and every other core keeps
        the base prediction. Leakage stays the one fixed at
        :meth:`begin_interval`.
        """
        n_miss = len(states)
        n_cores = self.system.n_cores
        base_pred = self._base_prediction()
        base = self._base_state
        pids = np.stack([self._tile_pattern_ids(s.tec) for s in states])
        diff = (levels != base.dvfs) | (
            pids != self._tile_pattern_ids(base.tec)
        )
        jj, cc = np.nonzero(diff)
        preds = np.repeat(base_pred[None, :], n_miss, axis=0)
        preds.reshape(n_miss, n_cores, -1)[jj, cc] = self._lookup(
            pids[jj, cc], cc, levels[jj, cc]
        )
        self.n_core_solves += jj.size
        obs.incr("estimator.core_solves", jj.size)
        t_rows = np.repeat(self._t_nodes_k[None, :], n_miss, axis=0)
        t_rows[:, self.system.nodes.component_slice] = preds
        return t_rows, self._p_leak
