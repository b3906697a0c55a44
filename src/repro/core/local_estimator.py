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
quantized prediction. A (pattern, core) pair the table lacks is filled
at every DVFS level at once, in one stacked LAPACK solve with the batch's
other new pairs (each system is solved on its own, so a row is the same
LU solve the per-pair datapath runs). Each row also keeps two summaries:
its maximum temperature and the Eq. (9) power of its tile's TEC devices
(cold side from the row, hot side the frozen spreader node). A
candidate's scores are then gathers over its cores' rows: the peak is
the largest row maximum (``k_to_c`` is a rounded subtraction, which is
monotone, so converting the maximum equals maximizing the converted
field), the TEC power the 1-D
sum of the gathered device powers (devices are tile-major), the core
power the sum of a per-interval (level, core) Eq. (7) table. No
candidate field is built; :class:`repro.core.estimator.EstimateBatch`
assembles one only for a row a controller reads as an ``Estimate``.

The table lives exactly as long as the observer field:
:meth:`LocalBandedEstimator.begin_interval` and
:meth:`LocalBandedEstimator.commit` drop it. The field-independent part
of a core solve (pump diagonal, Joule injection, Eq. (5) factors) is kept
for the estimator's lifetime, keyed by (core, pattern, period).
``n_core_solves`` (``estimator.core_solves``) still counts the hardware's
systolic passes, one per demanded (candidate, changed core) pair;
``estimator.core_table_fills`` counts the rows actually solved, ``n_levels``
per filled pair.

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
from repro.exceptions import ConfigurationError
from repro.obs import telemetry as obs

#: Temperature quantization step of the 8-bit hardware encoding [K].
HW_TEMP_STEP_K: float = 0.5


def _quantize(t_k: np.ndarray) -> np.ndarray:
    """Round temperatures to the hardware's 0.5 degC resolution."""
    return np.round(t_k / HW_TEMP_STEP_K) * HW_TEMP_STEP_K


def _grown(a: np.ndarray, n: int, fill=None) -> np.ndarray:
    """``a`` extended to ``n`` rows; new rows hold ``fill`` (or garbage)."""
    out = np.empty((n,) + a.shape[1:], dtype=a.dtype)
    out[: len(a)] = a
    if fill is not None:
        out[len(a) :] = fill
    return out


@dataclass
class _CoreBlock:
    """Precomputed local model of one core tile."""

    comp_idx: np.ndarray  # flat indices of this core's components
    g_local: np.ndarray  # dense (m, m) intra-core conductance block
    # External couplings: for each local component, lists of (node, g).
    ext_node: list  # list of np.ndarray of external node indices
    ext_g: list  # matching conductances
    capacities: np.ndarray  # per local component [J/K]


#: Caches a pickled estimator leaves behind: ``__setstate__`` rebuilds the
#: core blocks from the system and starts every cache empty. ``_cache``
#: (the candidate memo) and ``_ctx_cache`` (the per-field context cache)
#: are fields of older checkpoints.
_NOT_PICKLED = (
    "_blocks", "_ext_nodes", "_ext_runs", "_ext_at", "_tile_devs",
    "_foot_comp", "_foot_w", "_static_ctx",
    "_bnd", "_patterns", "_pattern_rows", "_tec_pids", "_table",
    "_row_max", "_row_dev_w", "_have", "_p_dyn", "_p_by_level",
    "_cache", "_ctx_cache",
)


@dataclass
class LocalBandedEstimator(NextIntervalEstimator):
    """Sec. III-E's per-core banded what-if evaluator.

    A :class:`repro.core.estimator.NextIntervalEstimator` whose
    :meth:`begin_interval` anchors the observer and whose scores are
    core-table gathers; see module docstring for the locality semantics
    and the core table.
    """

    #: Core re-solves demanded (the hardware's "systolic array passes").
    n_core_solves: int = 0

    _base_state: ActuatorState = field(default=None, repr=False)
    # The applied state's prediction and its per-core row summaries (max
    # temperature [K], tile TEC device powers [W]); they outlive a
    # ``commit`` until the next ``begin_interval``.
    _base_pred_comp_k: np.ndarray = field(default=None, repr=False)
    _base_row_max: np.ndarray = field(default=None, repr=False)
    _base_dev_w: np.ndarray = field(default=None, repr=False)
    _p_leak: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._build_blocks()
        self._drop_caches()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in _NOT_PICKLED:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in _NOT_PICKLED:
            self.__dict__.pop(name, None)
        if self._base_row_max is None:
            # An older payload has a base prediction without row summaries;
            # it is rebuilt on first use (``begin_interval`` drops it anyway).
            self._base_pred_comp_k = None
        self._build_blocks()
        self._drop_caches()

    def _drop_caches(self) -> None:
        """Start every cache empty.

        Lifetime: ``_static_ctx`` maps (core, tile-TEC pattern bytes,
        period) to the field-independent part of a core solve. Per
        observer field (see :meth:`_clear_table`): ``_bnd`` (the
        frozen-boundary inflow), the pattern interning (bytes -> id,
        id -> activations, ``id(TEC vector)`` -> per-core ids; holding the
        vector keeps its id from being reused while the entry lives), the
        (level, core) Eq. (7) power tables and the core table. Table row
        ``(pid * n_cores + core) * n_levels + level`` holds that core's
        quantized prediction, its maximum and its tile's TEC device powers
        once ``_have[pid * n_cores + core]``.
        """
        m = self.system.chip.components_per_tile
        self._static_ctx: dict = {}
        self._bnd = None
        self._patterns: dict = {}
        self._pattern_rows: list = []
        self._tec_pids: dict = {}
        self._table = np.empty((0, m))
        self._row_max = np.empty(0)
        self._row_dev_w = np.empty((0, self._tile_devs.shape[1]))
        self._have = np.zeros(0, dtype=bool)
        self._p_dyn = self._p_by_level = None

    # ------------------------------------------------------------------
    def _build_blocks(self) -> None:
        """Per-core local models from CSR slices of G, and the tile-local
        TEC footprints."""
        system = self.system
        g = system.cond.base_matrix().tocsr()
        m = system.chip.components_per_tile
        blocks: list[_CoreBlock] = []
        for core in range(system.n_cores):
            sl = system.chip.tile_slice(core)
            lo, hi = g.indptr[sl.start], g.indptr[sl.stop]
            cols = g.indices[lo:hi].astype(np.intp)
            vals = g.data[lo:hi]
            rows = np.repeat(
                np.arange(m), np.diff(g.indptr[sl.start : sl.stop + 1])
            )
            local = (cols >= sl.start) & (cols < sl.stop)
            g_local = np.zeros((m, m))
            g_local[rows[local], cols[local] - sl.start] = vals[local]
            # Off-diagonal entries are -g; boundary nodes are frozen, so
            # they contribute g*T_ext to the RHS and +g to the diagonal
            # (already in the full matrix's (i, i) entry copied above).
            ext = ~local
            cuts = np.cumsum(np.bincount(rows[ext], minlength=m))[:-1]
            blocks.append(
                _CoreBlock(
                    comp_idx=np.arange(sl.start, sl.stop),
                    g_local=g_local,
                    ext_node=np.split(cols[ext], cuts),
                    ext_g=np.split(-vals[ext], cuts),
                    capacities=system.nodes.capacities[sl],
                )
            )
        self._blocks = blocks
        # The chip's external couplings in one run per coupled component:
        # (g, slice of ``_ext_nodes``), at flat component ``_ext_at``.
        self._ext_nodes = np.concatenate(
            [node for blk in blocks for node in blk.ext_node]
        )
        self._ext_runs, self._ext_at = [], []
        start = 0
        for core, blk in enumerate(blocks):
            for k, g_ext in enumerate(blk.ext_g):
                if g_ext.size:
                    stop = start + g_ext.size
                    self._ext_runs.append((g_ext, slice(start, stop)))
                    self._ext_at.append(core * m + k)
                    start = stop
        self._ext_at = np.asarray(self._ext_at, dtype=np.intp)

        # Footprints, (n_cores, devices per tile, entries): tile-local
        # component and weight of each device's e-th coupling entry, in
        # the 1-D scatter's order. Short footprints pad with weight 0, an
        # exact no-op in the cold-side sum of positive terms.
        tec = system.tec
        tile_devs = np.stack(
            [tec.tile_devices(core) for core in range(system.n_cores)]
        )
        if not np.array_equal(tile_devs.ravel(), np.arange(tec.n_devices)):
            raise ConfigurationError("TEC devices are not numbered tile-major")
        self._tile_devs = tile_devs
        starts = tec.device_starts()
        counts = np.bincount(tec.coo_device, minlength=tec.n_devices)
        width = int(counts.max())
        foot_comp = np.zeros((tec.n_devices, width), dtype=np.intp)
        foot_w = np.zeros((tec.n_devices, width))
        tile_start = tec.device_tile * m
        for e in range(width):
            has = counts > e
            at = starts[has] + e
            foot_comp[has, e] = tec.coo_component[at] - tile_start[has]
            foot_w[has, e] = tec.coo_weight[at]
        self._foot_comp = foot_comp.reshape(system.n_cores, -1, width)
        self._foot_w = foot_w.reshape(system.n_cores, -1, width)

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
        self._p_leak = p_leak  # the components did not move since
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
        self._bnd = None
        self._patterns.clear()
        self._pattern_rows.clear()
        self._tec_pids.clear()
        self._have[:] = False
        self._p_dyn = self._p_by_level = None

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

    def _static_context(self, core: int, pid: int):
        """Field-independent pieces of one core solve: ``(a, joule, beta)``.

        ``a`` is the local conductance block with the TEC pump terms on
        the diagonal, ``joule`` the tile's Joule injections as
        ``(components, watts)`` rounds, ``beta`` the Eq. (5) relaxation
        factors. Depends on the core, its tile's TEC pattern and the
        control period only, so it is kept across fields.
        """
        row = self._pattern_rows[pid]
        key = (core, row.tobytes(), self._dt_s)
        ctx = self._static_ctx.get(key)
        if ctx is not None:
            return ctx
        blk: _CoreBlock = self._blocks[core]
        idx0 = int(blk.comp_idx[0])
        a = blk.g_local.copy()
        # Pump on the diagonal, Joule into the RHS (the hot side is the
        # frozen spreader). Round r holds every component's r-th Joule
        # increment: components are distinct within a round, so adding
        # round by round keeps each component's 1-D addition order.
        tec = self.system.tec
        rounds: list = []
        seen: dict = {}
        for dev, s in zip(self._tile_devs[core], row):
            s = float(s)
            if s <= 0.0:
                continue
            placement = tec.placements[dev]
            s_joule = float(tec.joule_scale(np.array([s]))[0])
            for ci, w in zip(placement.component_idx, placement.weights):
                k = int(ci) - idx0
                a[k, k] += s * w * tec.alpha_i
                r = seen[k] = seen.get(k, -1) + 1
                if r == len(rounds):
                    rounds.append(([], []))
                rounds[r][0].append(k)
                rounds[r][1].append(s_joule * w * 0.5 * tec.joule_w)
        joule = [(np.array(ks, dtype=np.intp), np.array(ws)) for ks, ws in rounds]
        beta = np.exp(-self._dt_s * np.diag(a) / blk.capacities)
        ctx = self._static_ctx[key] = (a, joule, beta)
        return ctx

    def _boundary_inflow(self) -> np.ndarray:
        """``(n_cores, m)`` frozen-boundary inflow at the observer field
        [W], one ``np.dot`` per coupled component (a vectorized sum would
        round differently)."""
        if self._bnd is None:
            t_ext = self._t_nodes_k[self._ext_nodes]
            bnd = np.zeros(self.system.nodes.n_components)
            bnd[self._ext_at] += [g.dot(t_ext[run]) for g, run in self._ext_runs]
            self._bnd = bnd.reshape(self.system.n_cores, -1)
        return self._bnd

    def _level_power(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-field Eq. (7) power of every core at every level [W]:
        dynamic power ``(n_levels * n_cores, m)`` (row ``level * n_cores
        + core``) and dynamic + leakage ``(n_cores, n_levels, m)``."""
        if self._p_dyn is None:
            n_cores = self.system.n_cores
            n_levels = self.dyn_tracker.dvfs.n_levels
            every = np.repeat(np.arange(n_levels)[:, None], n_cores, axis=1)
            p_dyn = self.dyn_tracker.predict_many(every)
            self._p_dyn = p_dyn.reshape(n_levels * n_cores, -1)
            self._p_by_level = np.ascontiguousarray(
                (p_dyn + self._p_leak[None, :])
                .reshape(n_levels, n_cores, -1)
                .transpose(1, 0, 2)
            )
        return self._p_dyn, self._p_by_level

    def _rows(
        self, pids: np.ndarray, cores: np.ndarray, levels: np.ndarray
    ) -> np.ndarray:
        """Core-table rows of ``(pattern, core, level)`` triples, filling
        the missing (pattern, core) pairs first."""
        n_cores = self.system.n_cores
        n_levels = self.dyn_tracker.dvfs.n_levels
        pairs = pids * n_cores + cores
        n_pairs = len(self._pattern_rows) * n_cores
        if n_pairs > len(self._have):
            n_pairs = max(n_pairs, 2 * len(self._have))
            self._have = _grown(self._have, n_pairs, fill=False)
            self._table, self._row_max, self._row_dev_w = (
                _grown(rows, n_pairs * n_levels)
                for rows in (self._table, self._row_max, self._row_dev_w)
            )
        have = self._have[pairs]
        if not have.all():
            self._fill(np.unique(pairs[~have]))
        return pairs * n_levels + levels

    def _fill(self, pairs: np.ndarray) -> None:
        """Solve every DVFS level of the ``pid * n_cores + core`` pairs
        into the table, with each row's summaries.

        One stacked ``np.linalg.solve``: LAPACK solves every ``(m, m)``
        system independently (the levels of a pair broadcast one matrix),
        so a row equals the single-system solve.
        """
        system = self.system
        n_cores = system.n_cores
        n_levels = self.dyn_tracker.dvfs.n_levels
        m = self._table.shape[1]
        f_pid, f_core = np.divmod(pairs, n_cores)
        b_base = self._boundary_inflow()[f_core]
        parts = []
        for b, core, pid in zip(b_base, f_core.tolist(), f_pid.tolist()):
            a, joule, beta = self._static_context(core, pid)
            for ks, ws in joule:
                b[ks] += ws
            parts.append((a, beta, self._pattern_rows[pid]))
        a, beta, s = (np.stack(part) for part in zip(*parts))
        # (pair, level, m) from here on.
        rhs = self._level_power()[1][f_core] + b_base[:, None, :]
        t_steady = np.linalg.solve(a[:, None], rhs[..., None])[..., 0]
        t_now = self._t_nodes_k[system.nodes.component_slice]
        t_now = t_now.reshape(n_cores, 1, m)[f_core]
        beta = beta[:, None, :]
        t = _quantize((1.0 - beta) * t_steady + beta * t_now)

        # Eq. (9) per tile device, as ``CMPSystem.tec_power_w`` computes it
        # on the assembled field: cold side accumulated entry by entry,
        # hot side the frozen spreader node of the tile.
        foot_w = self._foot_w[f_core][:, None]
        at = self._foot_comp[f_core][:, None] + (
            m * np.arange(t.shape[0] * n_levels).reshape(-1, n_levels, 1, 1)
        )
        vals = foot_w * t.ravel()[at]
        t_cold = np.zeros(vals.shape[:3])
        for e in range(vals.shape[3]):
            t_cold += vals[..., e]
        t_hot = self._t_nodes_k[system.nodes.n_components + f_core]
        s = s[:, None, :]
        tec = system.tec
        dev_w = tec.joule_scale(s) * tec.joule_w + s * tec.alpha_i * (
            t_hot[:, None, None] - t_cold
        )
        self._table.reshape(-1, n_levels, m)[pairs] = t
        self._row_max.reshape(-1, n_levels)[pairs] = t.max(axis=2)
        self._row_dev_w.reshape(-1, n_levels, dev_w.shape[2])[pairs] = dev_w
        self._have[pairs] = True
        obs.incr("estimator.core_table_fills", pairs.size * n_levels)

    def _base_prediction(self) -> None:
        """Every core's prediction at the applied state, with its row
        summaries (N passes, once per interval)."""
        if self._base_pred_comp_k is None:
            base = self._base_state
            n_cores = self.system.n_cores
            rows = self._rows(
                self._tile_pattern_ids(base.tec), np.arange(n_cores), base.dvfs
            )
            self._base_pred_comp_k = self._table[rows].reshape(-1)
            self._base_row_max = self._row_max[rows]
            self._base_dev_w = self._row_dev_w[rows]
            self.n_core_solves += n_cores
            obs.incr("estimator.core_solves", n_cores)

    # ------------------------------------------------------------------
    # The evaluation front is the base class's, defined again in this
    # class body so per-class instrumentation (``benchmarks/e2e/layers.py``)
    # binds the banded estimator's calls on their own.
    evaluate = NextIntervalEstimator.evaluate
    evaluate_many = NextIntervalEstimator.evaluate_many

    def _score(self, states: list, levels: np.ndarray):
        """Scores with every candidate's changed cores re-solved.

        Only the cores whose knobs differ from the applied configuration
        are the hardware's passes — the paper's one-core-per-cycle
        datapath; each reads its core-table row and every other core keeps
        the base prediction. Leakage stays the one fixed at
        :meth:`begin_interval`. A row's field is assembled only when asked
        for, from the rows gathered here.
        """
        n = len(states)
        system = self.system
        n_cores = system.n_cores
        self._base_prediction()
        base = self._base_state
        pids = np.array([self._tile_pattern_ids(s.tec) for s in states])
        diff = (levels != base.dvfs) | (
            pids != self._tile_pattern_ids(base.tec)
        )
        # Changed (candidate, core) pairs as flat ``j * n_cores + core``.
        flat = diff.ravel().nonzero()[0]
        cc = flat % n_cores
        rows = self._rows(pids.ravel()[flat], cc, levels.ravel()[flat])
        self.n_core_solves += flat.size
        obs.incr("estimator.core_solves", flat.size)

        row_max = self._base_row_max[None, :].repeat(n, axis=0).ravel()
        row_max[flat] = self._row_max[rows]
        dev_w = self._base_dev_w[None].repeat(n, axis=0)
        dev_w.reshape(-1, dev_w.shape[2])[flat] = self._row_dev_w[rows]
        p_dyn = self._level_power()[0].take(
            levels * n_cores + np.arange(n_cores), axis=0
        )
        p_cores = p_dyn.reshape(n, -1).sum(axis=1) + self._p_leak.sum()

        t_obs, base_pred = self._t_nodes_k, self._base_pred_comp_k
        changed = self._table[rows]
        comp = system.nodes.component_slice

        def field_of(j: int) -> np.ndarray:
            t = t_obs.copy()
            pred = t[comp].reshape(n_cores, -1)
            pred[:] = base_pred.reshape(n_cores, -1)
            mine = flat // n_cores == j
            pred[cc[mine]] = changed[mine]
            return t

        return (
            units.k_to_c(row_max.reshape(n, n_cores).max(axis=1)),
            p_cores,
            dev_w.reshape(n, -1).sum(axis=1),
            field_of,
        )
