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
from repro.core.estimator import Estimate, IPSPredictor, predict_ips_many
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import CMPSystem
from repro.exceptions import ControlError
from repro.obs import telemetry as obs
from repro.power.component_power import core_dvfs_domain_mask
from repro.power.dynamic import DynamicPowerTracker

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
class LocalBandedEstimator:
    """Sec. III-E's per-core banded what-if evaluator.

    Drop-in replacement for
    :class:`repro.core.estimator.NextIntervalEstimator`; see module
    docstring for the locality semantics and the core table.
    """

    system: CMPSystem
    ips_predictor: IPSPredictor
    dyn_tracker: DynamicPowerTracker = field(default=None)
    n_evaluations: int = 0
    #: Core re-solves demanded (the hardware's "systolic array passes").
    n_core_solves: int = 0

    _blocks: list = field(default=None, repr=False)
    #: (n_cores, devices per tile) global device indices, tile-major.
    _tile_devs: np.ndarray = field(default=None, repr=False)
    _t_nodes_k: np.ndarray = field(default=None, repr=False)
    _dt_s: float = 0.0
    _base_state: ActuatorState = field(default=None, repr=False)
    _base_pred_comp_k: np.ndarray = field(default=None, repr=False)
    _p_leak: np.ndarray = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)
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
        if self.dyn_tracker is None:
            self.dyn_tracker = DynamicPowerTracker(
                dvfs=self.system.dvfs,
                tile_of=self.system.chip.tile_of(),
                core_domain=core_dvfs_domain_mask(self.system.chip),
            )
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
        if dt_s <= 0:
            raise ControlError(f"non-positive control period {dt_s}")
        system = self.system
        nodes = system.nodes
        first_call = self._t_nodes_k is None
        if first_call:
            self._t_nodes_k = system.uniform_initial_temps_k()
        self.dyn_tracker.observe(p_dyn_measured_w, state.dvfs)
        self.ips_predictor.observe(ips_measured, state.dvfs)
        self._dt_s = dt_s
        # Firmware bookkeeping: one full steady solve at the *applied*
        # configuration anchors the spreader/sink observer. Components
        # come from the (quantized) sensors.
        t = self._t_nodes_k.copy()
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
        self._cache.clear()
        self._clear_table()

    def commit(self, estimate: Estimate) -> None:
        """Adopt an accepted candidate's components into the observer."""
        self._t_nodes_k = estimate.t_nodes_k
        self._clear_table()

    def _clear_table(self) -> None:
        """Drop every per-field cache: the core table and its inputs."""
        self._ctx_cache.clear()
        self._patterns.clear()
        self._pattern_rows.clear()
        self._tec_pids.clear()
        self._have[:] = False
        self._p_by_level = None

    def predicted_component_temps_c(self) -> np.ndarray | None:
        """The observer's current component temperatures [degC].

        Same contract as
        :meth:`repro.core.estimator.NextIntervalEstimator.predicted_component_temps_c`;
        the engine's sensor validator uses it as the plausibility
        reference for raw readings. ``None`` until the first interval.
        """
        if self._t_nodes_k is None:
            return None
        return units.k_to_c(
            self._t_nodes_k[self.system.nodes.component_slice]
        )

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
    def evaluate(self, state: ActuatorState) -> Estimate:
        """Predict next-interval peak temperature and EPI for ``state``.

        A one-candidate :meth:`evaluate_many` (without the batch
        counters): only the cores whose knobs differ from the applied
        configuration are re-solved — the paper's one-core-per-cycle
        datapath.
        """
        if self._t_nodes_k is None:
            raise ControlError("begin_interval must be called first")
        key = state.key()
        hit = self._cache.get(key)
        if hit is not None:
            obs.incr("estimator.cache_hits")
            return hit
        results: list = [None]
        self._evaluate_misses([(0, state, key)], results)
        return results[0]

    def evaluate_many(self, states: list) -> list:
        """Batched :meth:`evaluate` over many candidate states.

        Positionally matches ``states``; every row is bit-identical to
        the single-candidate call. All computed estimates enter the memo
        cache.
        """
        if self._t_nodes_k is None:
            raise ControlError("begin_interval must be called first")
        results: list = [None] * len(states)
        misses: list[tuple[int, ActuatorState, tuple]] = []
        seen: set = set()
        for i, state in enumerate(states):
            key = state.key()
            hit = self._cache.get(key)
            if hit is not None:
                obs.incr("estimator.cache_hits")
                results[i] = hit
            elif key not in seen:
                seen.add(key)
                misses.append((i, state, key))
        if misses:
            obs.incr("estimator.batch_calls")
            obs.incr("estimator.batch_candidates", len(misses))
            self._evaluate_misses(misses, results)
        for i, state in enumerate(states):
            if results[i] is None:  # in-batch duplicate of a miss
                obs.incr("estimator.cache_hits")
                results[i] = self._cache[state.key()]
        return results

    def _evaluate_misses(self, misses: list, results: list) -> None:
        system = self.system
        nodes = system.nodes
        n_miss = len(misses)
        n_cores = system.n_cores
        levels = np.stack([s.dvfs for _, s, _ in misses])
        if levels.min() < 0 or levels.max() >= self.dyn_tracker.dvfs.n_levels:
            raise ControlError("candidate DVFS level outside the DVFS table")
        p_dyn_many = self.dyn_tracker.predict_many(levels)
        ips_many = predict_ips_many(self.ips_predictor, levels)
        base_pred = self._base_prediction()
        base = self._base_state

        # The (candidate, core) pairs whose knobs differ from the applied
        # state are the hardware's passes; each reads its core-table row,
        # every other core keeps the base prediction.
        tec_objs = [s.tec for _, s, _ in misses]
        pids = np.stack([self._tile_pattern_ids(t) for t in tec_objs])
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

        # Shared per-candidate tail: one field matrix, one TEC-power
        # scatter per distinct activation vector, hoisted leakage sum.
        t_rows = np.repeat(self._t_nodes_k[None, :], n_miss, axis=0)
        t_rows[:, nodes.component_slice] = preds
        peaks = units.k_to_c(preds).max(axis=1)
        # Contiguous copies keep the row-wise pairwise-summation order of
        # the sequential per-candidate ``.sum()`` calls.
        p_dyn_sums = np.ascontiguousarray(p_dyn_many).sum(axis=1)
        ips_sums = np.ascontiguousarray(ips_many).sum(axis=1)
        p_leak_sum = self._p_leak.sum()
        p_tec_arr = np.empty(n_miss)
        tec_groups: dict = {}
        for j, t in enumerate(tec_objs):
            tec_groups.setdefault(t.tobytes(), []).append(j)
        for members in tec_groups.values():
            p_tec_arr[members] = system.tec_power_many(
                tec_objs[members[0]], t_rows[members]
            )

        self.n_evaluations += n_miss
        obs.incr("estimator.evaluations", n_miss)
        fan_pw: dict = {}
        for j, (i, state, key) in enumerate(misses):
            p_cores = float(p_dyn_sums[j] + p_leak_sum)
            p_tec = float(p_tec_arr[j])
            p_fan = fan_pw.get(state.fan_level)
            if p_fan is None:
                p_fan = system.fan.power_w(state.fan_level)
                fan_pw[state.fan_level] = p_fan
            p_chip = p_cores + p_tec + p_fan
            ips = float(ips_sums[j])
            est = Estimate(
                state=state,
                t_nodes_k=t_rows[j],
                peak_temp_c=float(peaks[j]),
                p_chip_w=p_chip,
                p_cores_w=p_cores,
                p_tec_w=p_tec,
                p_fan_w=p_fan,
                ips_chip=ips,
                epi=EnergyProblem.epi(p_chip, ips),
            )
            self._cache[key] = est
            results[i] = est

    # ------------------------------------------------------------------
    def evaluate_fan_setting(
        self,
        avg_p_components_w: np.ndarray,
        avg_tec: np.ndarray,
        fan_level: int,
    ) -> float:
        """Higher-level fan estimate — full model (firmware, not the
        systolic datapath; it runs at seconds scale)."""
        self.n_evaluations += 1
        t = self.system.solver.solve(avg_p_components_w, fan_level, avg_tec)
        return float(
            units.k_to_c(t[self.system.nodes.component_slice]).max()
        )
