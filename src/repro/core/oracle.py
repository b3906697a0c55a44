"""Exhaustive optimizers: Oracle, Oracle-P and OFTEC (paper Sec. V-A/V-E).

* **Oracle** minimizes the full EPI objective (Eq. 13) by enumerating the
  entire discrete configuration space — per-core TEC banks x per-core
  DVFS levels x fan levels — and is therefore ``O(M^N 2^{N L})``:
  exponential, usable only on the 4-core server setup, exactly as the
  paper argues.
* **Oracle-P** adds a per-interval performance floor so its delay equals
  TECfan's ("the exactly same performance degradation", Sec. V-E).
* **OFTEC** (Dousti & Pedram, DAC'14) pins DVFS at the maximum level and
  minimizes the *cooling* power (TEC + fan) subject to the temperature
  constraint, considering the temperature-leakage coupling. The paper
  runs OFTEC with exhaustive search too ("we make OFTEC do exhaustive
  search like Oracle"), complexity ``O(2^{N L})``.

Tractability note (documented in DESIGN.md): per-core TECs are ganged
into ``tec_gangs_per_core`` banks for the exhaustive space — with nine
independent devices per core even a 4-core space has 2^36 TEC states,
which no per-interval exhaustive search (the authors' included) can
enumerate. The heuristic TECfan keeps full per-device control.

Implementation: an exact objective-first search. Every configuration
is judged by one two-pass formula: the DVFS power vector plus the
leakage at the measured temperatures gives ``T1 = G_k^-1 P``, the
leakage at ``T1`` (clipped at zero) gives ``T2``, whose component peak
is checked against the threshold and whose hot/cold-side temperatures
give the TEC power (Eq. 9). ``G_k^-1`` is inverted once per system for
each of the ``K = 2^(N*gangs) * F`` (TEC banks, fan) variants and kept
in one variant table that OFTEC, Oracle and Oracle-P on that system
share. While the clip cannot bind, the objective (EPI numerator or
cooling power) is affine in the dynamic-power vector. Eq. (7) scales
each core's tile by that core's own level ratio, so the objective's
dynamic-power term is a sum of per-core terms: one ``K x (N+1)*M``
product gives every (variant, core, level) term and broadcast adds over
the Cartesian DVFS grid give it for all ``K * M^N`` configurations. The
same per-core structure gives any configuration's power vector by a
gather from the ``M`` one-level rows, so power rows are built only for
the configurations that are scored. The configurations are walked in
objective order, batch by doubling batch drawn from the variants with
the smallest minima, and only the first few are run through the
two-pass formula to check the thermal limit. Exactness rests on two
facts:

* G is an M-matrix, so ``G_k^-1 >= 0`` (checked per variant) and
  temperatures are nondecreasing in power. One bound row per variant,
  at the elementwise-minimum power vector, certifies that the clip
  cannot bind (an uncertified variant is scored in full) and drops
  variants that are too hot even there.
* Every candidate whose affine objective is within a relative
  ``_TIE_RTOL`` of the first feasible one is scored exactly, so a
  rounding-level near-tie resolves as the two-pass formula orders it,
  ties going to the lowest (variant, DVFS) index.

With nothing feasible the thermally safest configuration (least peak
over the whole space, scored in full) is taken.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.core.controller import Controller
from repro.core.estimator import NextIntervalEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.exceptions import ConfigurationError
from repro.obs import telemetry as obs
from repro.power.component_power import core_dvfs_domain_mask

#: Relative objective window scored exactly around the first feasible
#: candidate; far above the affine form's rounding error (at most 2.8e-15
#: against the two-pass formula over the server platform's whole space,
#: both objectives, six random primings).
_TIE_RTOL = 1e-9
#: Rounding slack [K] for the monotone temperature bounds.
_BOUND_SLACK_K = 1e-6
#: Candidates in the first walk batch; each further batch doubles.
_FIRST_BATCH = 8
#: Most rows one exact-scoring call takes, unless one variant's DVFS grid
#: has more: whole variants only, so a wide walk batch or the
#: all-infeasible fallback keeps its working arrays at a few MB.
_SCORE_ROWS = 1024


@dataclass
class _VariantTable:
    """The (TEC bank pattern, fan level) variants of one system and gang
    count, built once and shared by every searcher on that system.

    Variant ``k`` has dense inverse ``inv[k]`` and actuator RHS
    ``rhs1[k]`` (TEC Joule heat and ambient term; pass 2 of the two-pass
    formula rewrites its component entries). Eq. (9) is affine in the
    pass-2 component input ``u = p_dyn + leak1``:
    ``p_tec = a[k] + g[k, comp] @ u``. ``t1c[k]`` is the component
    temperature of ``rhs1[k]`` alone.
    """

    fan: np.ndarray  # (K,) fan level
    fan_w: np.ndarray  # (K,) fan power
    tec: np.ndarray  # (K, L) 0/1 device activations
    inv: np.ndarray  # (K, n, n)
    rhs1: np.ndarray  # (K, n)
    cold_w: np.ndarray  # (L, n_comp) cold-side footprint weights
    nonneg: np.ndarray  # (K,) G^-1 >= 0 on the component block
    g: np.ndarray  # (K, n)
    a: np.ndarray  # (K,)
    t1c: np.ndarray  # (K, n_comp)


@dataclass
class _SearchSpace(_VariantTable):
    """One searcher's exhaustive space on one system, built by
    ``_prepare``: the system's variant table (its arrays, not copies)
    plus what depends on the objective and the searched DVFS levels.

    While the leakage clip cannot bind, the objective at dynamic power
    ``p`` and measured leakage ``leak0`` is
    ``weight[k] @ p + offset[k] + leak_gain[k] @ leak0``. Component ``i``
    of ``p`` scales with the level of core ``tile_of[i]`` (Eq. 7) or, where
    ``tile_mask[N, i] = 1``, with none; ``tile_mask[c, i] = 1`` marks core
    ``c``'s scaled components.
    """

    system: object
    dvfs: np.ndarray  # (D, N) Cartesian product of ``levels``
    levels: np.ndarray  # DVFS levels each core ranges over (M, or 1: OFTEC)
    one_level: np.ndarray  # (system levels, N) row m: every core at m
    tile_of: np.ndarray  # (n_comp,) tile of each component
    tile_mask: np.ndarray  # (N + 1, n_comp) core tiles, then the rest
    weight: np.ndarray  # (K, n_comp)
    offset: np.ndarray  # (K,)
    leak_gain: np.ndarray  # (K, n_comp)


def _gang_devices(system, per_core: int) -> list[np.ndarray]:
    """Device index sets per (core, gang)."""
    gangs: list[np.ndarray] = []
    for core in range(system.n_cores):
        devs = system.tec.tile_devices(core)
        for part in np.array_split(devs, per_core):
            gangs.append(part)
    return gangs


def _build_table(system, per_core: int) -> _VariantTable:
    n_gangs = system.n_cores * per_core
    if n_gangs > 16:
        raise ConfigurationError(
            f"{n_gangs} TEC gangs -> 2^{n_gangs} variants: exhaustive "
            "search is intractable (that is the paper's point; use a "
            "smaller platform or fewer gangs)"
        )
    nodes = system.nodes
    comp = nodes.component_slice
    n_comp = nodes.n_components
    gangs = _gang_devices(system, per_core)
    invs, rhs1, v_fan, v_tec = [], [], [], []
    for bits in itertools.product((0.0, 1.0), repeat=n_gangs):
        tec = np.zeros(system.n_tec_devices)
        for g, on in enumerate(bits):
            if on:
                tec[gangs[g]] = 1.0
        for fan in range(1, system.fan.n_levels + 1):
            g_dense = system.cond.matrix(fan, tec).toarray()
            invs.append(np.linalg.inv(g_dense))
            rhs1.append(system.cond.rhs(np.zeros(n_comp), fan, tec))
            v_fan.append(fan)
            v_tec.append(tec)
    inv = np.stack(invs)
    rhs1 = np.stack(rhs1)
    rhs2 = rhs1.copy()  # pass 2 overwrites the component entries
    rhs2[:, comp] = 0.0
    fan = np.asarray(v_fan, dtype=int)
    tec = np.stack(v_tec)

    dev = system.tec
    cold_w = np.zeros((dev.n_devices, n_comp))
    cold_w[dev.coo_device, dev.coo_component] = dev.coo_weight
    # Eq. (9) is linear in T2: p_tec = joule_w * sum(tec) + h_k @ T2,
    # and T2 = G_k^-1 (rhs2 + [u, 0]) with u = p_dyn + leak1, so
    # p_tec = a_k + g_k[comp] @ u where g_k = h_k G_k^-1.
    per_dev = np.zeros((dev.n_devices, nodes.n_nodes))
    per_dev[np.arange(dev.n_devices), n_comp + dev.device_tile] = 1.0
    per_dev[:, comp] -= cold_w
    h = dev.alpha_i * (tec @ per_dev)
    g = np.einsum("kji,kj->ki", inv, h)
    return _VariantTable(
        fan=fan, fan_w=system.fan.power_table()[fan - 1], tec=tec,
        inv=inv, rhs1=rhs1, cold_w=cold_w,
        nonneg=inv[:, comp, comp].min(axis=(1, 2)) >= 0.0,
        g=g,
        a=dev.joule_w * tec.sum(axis=1) + np.einsum("ki,ki->k", g, rhs2),
        t1c=np.einsum("kij,kj->ki", inv[:, comp, :], rhs1),
    )


#: Variant tables by (``id(system)``, gangs per core). Each entry holds a
#: weak reference to its system, so the table keeps no system alive, is
#: dropped when the system is freed and is never served to a later
#: object that reuses the id. A system must not be modified after its
#: first search. The tables live here, not on the system, so a pickled
#: system carries none.
_TABLES: dict[tuple[int, int], tuple[weakref.ref, _VariantTable]] = {}


def _variant_table(system, per_core: int) -> _VariantTable:
    key = (id(system), per_core)
    entry = _TABLES.get(key)
    if entry is None or entry[0]() is not system:
        def drop(ref, key=key):
            if _TABLES.get(key, (None,))[0] is ref:
                del _TABLES[key]

        entry = (weakref.ref(system, drop), _build_table(system, per_core))
        _TABLES[key] = entry
    return entry[1]


@dataclass
class ExhaustiveSearcher(Controller):
    """Exact exhaustive optimizer over (TEC banks, DVFS, fan).

    Parameters
    ----------
    objective:
        ``"epi"`` (Oracle) or ``"cooling"`` (OFTEC).
    dvfs_exhaustive:
        Enumerate per-core DVFS levels; ``False`` pins all cores at the
        top level (OFTEC does not actuate DVFS).
    tec_gangs_per_core:
        TEC banks per core in the exhaustive space.
    perf_floor:
        Optional per-decision chip-IPS floor series (Oracle-P): the
        ``k``-th decision must keep IPS >= ``perf_floor[k]``.
    """

    name: str = "Oracle"
    objective: str = "epi"
    dvfs_exhaustive: bool = True
    tec_gangs_per_core: int = 1
    perf_floor: np.ndarray | None = None
    #: Re-optimize every this many decide() calls, holding the last
    #: configuration in between. The paper's own argument (prohibitive
    #: search time) applies to the simulation too; re-deciding at the
    #: fan's time scale loses nothing on the slow-moving server trace.
    decision_period: int = 10
    #: Total configurations in the searched spaces (complexity
    #: accounting; the search itself scores only a few exactly).
    n_configurations: int = 0

    _space: _SearchSpace = field(default=None, repr=False)
    _decision_index: int = 0
    _chosen_fan: int = 1
    _held: ActuatorState = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.objective not in ("epi", "cooling"):
            raise ConfigurationError(f"unknown objective {self.objective!r}")
        if self.tec_gangs_per_core < 1:
            raise ConfigurationError("need at least one TEC gang per core")

    def __getstate__(self) -> dict:
        # The space shares its system's variant table (megabytes of dense
        # inverses); an unpickled searcher rebuilds it on first use.
        return {**self.__dict__, "_space": None}

    def reset(self) -> None:
        self._decision_index = 0
        self._held = None

    # ------------------------------------------------------------------
    # Space construction (lazy; bound to the system it was built for)
    # ------------------------------------------------------------------
    def _prepare(self, system) -> _SearchSpace:
        if self._space is not None and self._space.system is system:
            return self._space
        table = _variant_table(system, self.tec_gangs_per_core)
        comp = system.nodes.component_slice
        # Objective = s_k @ u + a_k + fan_w (EPI numerator adds sum(u)).
        s = table.g[:, comp] + (1.0 if self.objective == "epi" else 0.0)
        # Unclipped leak1 = frac * (p_tdp + alpha (T1c - t_tdp)) with
        # T1c = t1c_k + A_k (p_dyn + leak0), A_k = G_k^-1[comp, comp].
        lk = system.power.controller_leakage
        frac = lk.areas_mm2 / lk.chip_area_mm2
        block = table.inv[:, comp, comp]
        leak_gain = lk.alpha_w_per_k * np.einsum("kji,kj->ki", block, frac * s)
        offset = (
            (frac * s)
            * (lk.p_tdp_leak_w + lk.alpha_w_per_k * (table.t1c - lk.t_tdp_k))
        ).sum(axis=1) + table.a + table.fan_w

        n_levels = system.dvfs.n_levels
        levels = (
            np.arange(n_levels) if self.dvfs_exhaustive
            else np.array([system.dvfs.max_level])
        )
        dvfs = np.array(
            list(itertools.product(levels, repeat=system.n_cores)), dtype=int
        )
        # The same tiles the estimator's Eq. (7) tracker rescales by.
        tile_of = system.chip.tile_of()
        owner = np.where(
            core_dvfs_domain_mask(system.chip), tile_of, system.n_cores
        )
        tile_mask = (
            owner[None, :] == np.arange(system.n_cores + 1)[:, None]
        ).astype(float)
        self._space = _SearchSpace(
            **vars(table), system=system, dvfs=dvfs, levels=levels,
            one_level=np.repeat(
                np.arange(n_levels)[:, None], system.n_cores, axis=1
            ),
            tile_of=tile_of, tile_mask=tile_mask,
            weight=s + leak_gain, offset=offset, leak_gain=leak_gain,
        )
        return self._space

    # ------------------------------------------------------------------
    # Exact scoring: the two-pass temperature-leakage formula
    # ------------------------------------------------------------------
    def _score(self, sp, ks, p_dyn, ips, leak0):
        """Component peak [K] and objective of variant ``ks[j]`` at the
        dynamic-power row ``p_dyn[j]`` (b, n_comp), ``ks`` sorted.

        Each dense product runs once per variant, on that variant's rows,
        so every row rounds as in a call on that variant alone.
        """
        system = sp.system
        nodes = system.nodes
        comp = nodes.component_slice
        lk = system.power.controller_leakage
        dev = system.tec
        bounds = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1).tolist(), len(ks)]
        spans = list(zip(bounds[:-1], bounds[1:]))
        inv_t = [sp.inv[ks[lo]].T for lo, _ in spans]
        rhs = np.zeros((len(p_dyn), nodes.n_nodes))
        rhs[:, comp] = p_dyn + leak0[None, :]
        rhs += sp.rhs1[ks]
        t1 = _matmul_spans(rhs, spans, inv_t)
        frac = lk.areas_mm2 / lk.chip_area_mm2
        leak1 = (
            np.clip(
                lk.p_tdp_leak_w + lk.alpha_w_per_k * (t1[:, comp] - lk.t_tdp_k),
                0.0,
                None,
            )
            * frac[None, :]
        )
        rhs[:, comp] = p_dyn + leak1
        t2 = _matmul_spans(rhs, spans, inv_t)
        t_comp = t2[:, comp]
        t_cold = _matmul_spans(t_comp, spans, [sp.cold_w.T] * len(spans))
        t_hot = t2[:, nodes.n_components + dev.device_tile]
        p_tec = (
            sp.tec[ks] * (dev.joule_w + dev.alpha_i * (t_hot - t_cold))
        ).sum(axis=1)
        if self.objective == "cooling":
            obj = p_tec + sp.fan_w[ks]
        else:
            p_chip = p_dyn.sum(axis=1) + leak1.sum(axis=1) + p_tec + sp.fan_w[ks]
            with np.errstate(divide="ignore"):
                obj = np.where(
                    ips > 0, p_chip / np.maximum(ips, 1e-9), np.inf
                )
        return t_comp.max(axis=1), obj

    def _score_flat(self, sp, flat, p_lvl, ips, leak0):
        """:meth:`_score` for flat candidate indices ``k * D + d``, their
        power rows gathered from the one-level rows ``p_lvl``."""
        d_count = len(sp.dvfs)
        cap = max(_SCORE_ROWS, d_count)
        order = np.argsort(flat // d_count, kind="stable")
        ks, ds = np.divmod(flat[order], d_count)
        ends = np.append(np.flatnonzero(ks[1:] != ks[:-1]) + 1, len(ks))
        peak = np.empty(len(flat))
        obj = np.empty(len(flat))
        lo = 0
        while lo < len(ks):
            hi = ends[np.searchsorted(ends, lo + cap, side="right") - 1]
            at, d = order[lo:hi], ds[lo:hi]
            peak[at], obj[at] = self._score(
                sp, ks[lo:hi], _dyn_rows(sp, p_lvl, d), ips[d], leak0
            )
            lo = hi
        obs.incr("oracle.candidates_scored", len(flat))
        return peak, obj

    def _affine_objective(self, sp, p_lvl, ips, leak0) -> np.ndarray:
        """(K, D) objective of every configuration from per-core sums;
        equal to :meth:`_score`'s up to rounding where the clip cannot
        bind."""
        num = _weighted_power(sp, p_lvl, sp.offset + sp.leak_gain @ leak0)
        if self.objective == "epi":
            num /= np.maximum(ips, 1e-9)
            num[:, ~(ips > 0)] = np.inf
        return num

    def _search(self, sp, p_lvl, ips, leak0, allowed, th_k) -> int:
        """Flat index ``k * D + d`` of the best feasible configuration
        among the allowed DVFS rows, else of the least-peak one.

        The (K, D) key array is never compacted into a candidate list.
        Candidates are walked in (key, flat index) order, batch after
        doubling batch: the ``s`` smallest keys lie in the ``s`` variants
        with the smallest minima (over the allowed DVFS rows), so each
        batch is drawn from those rows only. Eligibility (viable variant,
        allowed DVFS row) stays an index set of its own: an infinite key
        (IPS <= 0) is a real key, not a marker.
        """
        system = sp.system
        comp = system.nodes.component_slice
        lk = system.power.controller_leakage
        frac = lk.areas_mm2 / lk.chip_area_mm2
        n_var, d_count = len(sp.fan), len(sp.dvfs)
        comp_rows = sp.inv[:, comp, :]

        # One bound row per variant at the elementwise-minimum power:
        # with G_k^-1 >= 0 every configuration is at least this hot.
        # Each core ranges over every level in ``levels``, so the minimum
        # over the grid is the minimum over the one-level rows.
        p_min = p_lvl[sp.levels].min(axis=0)
        rhs = sp.rhs1.copy()
        rhs[:, comp] += p_min + leak0
        t1 = (comp_rows @ rhs[:, :, None])[..., 0]
        lk_min = lk.p_tdp_leak_w + lk.alpha_w_per_k * (
            t1 - _BOUND_SLACK_K - lk.t_tdp_k
        )
        certified = sp.nonneg & (lk_min.min(axis=1) >= 0.0)
        rhs = sp.rhs1.copy()
        rhs[:, comp] = p_min + np.clip(lk_min, 0.0, None) * frac
        t2 = (comp_rows @ rhs[:, :, None])[..., 0]
        viable = ~sp.nonneg | (t2.max(axis=1) - _BOUND_SLACK_K <= th_k)

        obj = self._affine_objective(sp, p_lvl, ips, leak0)
        for k in np.flatnonzero(viable & ~certified):
            # The clip may bind here: score the whole variant exactly.
            obj[k] = self._score_flat(
                sp, k * d_count + np.arange(d_count), p_lvl, ips, leak0
            )[1]

        # Walk the eligible candidates in nondecreasing objective order;
        # the first feasible one bounds the optimum to within rounding.
        rows = np.flatnonzero(viable)
        cols = np.flatnonzero(allowed)
        row_min = (obj if cols.size == d_count else obj[:, cols]).min(axis=1)
        order = rows[np.argsort(row_min[rows], kind="stable")]
        n_eligible = rows.size * cols.size
        taken, size = 0, _FIRST_BATCH
        while taken < n_eligible:
            upto = min(taken + size, n_eligible)
            batch = _smallest(obj, order[:upto], cols, upto)[taken:]
            peak, _ = self._score_flat(sp, batch, p_lvl, ips, leak0)
            hit = np.flatnonzero(peak <= th_k)
            if hit.size:
                o = obj.flat[batch[hit[0]]]
                break
            taken, size = upto, 2 * size
        else:
            # Nothing feasible: the thermally safest configuration,
            # ties to the lowest flat index.
            peak, _ = self._score_flat(
                sp, np.arange(n_var * d_count), p_lvl, ips, leak0
            )
            return int(np.argmin(peak))
        # Every key below o is infeasible. Score the near-ties exactly and
        # take the exact minimum, ties to the lowest flat index. Only
        # variants whose minimum is inside the window can hold one.
        top = o + _TIE_RTOL * abs(o)
        near = rows[row_min[rows] <= top]
        keys = np.take(obj[near], cols, axis=1)
        r, c = np.nonzero((keys >= o) & (keys <= top))
        window = near[r] * d_count + cols[c]
        peak, exact = self._score_flat(sp, window, p_lvl, ips, leak0)
        ok = peak <= th_k
        window, exact = window[ok], exact[ok]
        return int(window[np.lexsort((window, exact))[0]])

    # ------------------------------------------------------------------
    def decide(
        self,
        state: ActuatorState,
        sensor_temps_c: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> ActuatorState:
        call = self._decision_index
        self._decision_index += 1
        if call % self.decision_period != 0 and self._held is not None:
            return self._held
        system = estimator.system
        sp = self._prepare(system)

        # Batched dynamic power: Eq. (7) ratios from the last measured
        # interval (same information TECfan gets), one row per level.
        tracker = estimator.dyn_tracker
        if not tracker.ready:
            return state
        obs.incr("oracle.searches")
        p_lvl = tracker.predict_many(sp.one_level)  # (n_levels, ncomp)

        t_meas_k = units.c_to_k(np.asarray(sensor_temps_c, dtype=float))
        leak0 = system.power.controller_leakage.per_component_w(t_meas_k)

        ips = estimator.ips_predictor.predict_many(sp.dvfs).sum(axis=1)  # (D,)
        if self.perf_floor is not None:
            step = min(call, len(self.perf_floor) - 1)
            # Cap at what is achievable under the *current* demand — the
            # reference trace's timing can differ by an interval.
            floor = min(float(self.perf_floor[step]), float(ips.max()))
            allowed = ips >= floor * (1.0 - 1e-9)
        else:
            allowed = np.ones(len(ips), dtype=bool)

        self.n_configurations += len(sp.fan) * len(sp.dvfs)
        th_k = units.c_to_k(problem.t_threshold_c)
        k, d = divmod(self._search(sp, p_lvl, ips, leak0, allowed, th_k),
                      len(sp.dvfs))
        self._chosen_fan = int(sp.fan[k])
        self._held = ActuatorState(
            tec=sp.tec[k].copy(),
            dvfs=sp.dvfs[d].copy(),
            fan_level=self._chosen_fan,
        )
        return self._held

    def decide_fan(
        self,
        state: ActuatorState,
        avg_p_components_w: np.ndarray,
        avg_tec: np.ndarray,
        estimator: NextIntervalEstimator,
        problem: EnergyProblem,
    ) -> int:
        """The exhaustive search already chose the fan jointly."""
        return self._chosen_fan


def _dyn_rows(sp: _SearchSpace, p_lvl: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Dynamic-power rows of the DVFS rows ``d`` gathered from the
    one-level rows ``p_lvl``.

    Eq. (7) scales component ``i`` by the level ratio of core
    ``tile_of[i]`` alone (or not at all), so row ``d`` holds, bit for bit,
    the one-level row at that core's level: the same rows
    ``predict_many(sp.dvfs[d])`` gives (tested).
    """
    return p_lvl[sp.dvfs[d][:, sp.tile_of], np.arange(len(sp.tile_of))]


def _weighted_power(sp: _SearchSpace, p_lvl: np.ndarray,
                    base: np.ndarray) -> np.ndarray:
    """``base[:, None] + sp.weight @ p_dyn.T`` (K, D) without the dense
    product or the (D, n_comp) power rows.

    Row ``d`` of ``p_dyn`` holds core ``c``'s tile at that core's level
    ``d_c``, bit for bit as in the one-level row ``p_lvl[d_c]``
    (:func:`_dyn_rows`), so ``weight[k] @ p_dyn[d] = sum_c T[k, c, d_c]``
    plus a level-free term. One product builds T from the space's one-level
    rows; broadcast adds then sum it over the grid in
    :func:`itertools.product` order (first core slowest): about
    ``1.2 K D`` adds instead of ``K D n_comp`` multiply-adds. On the
    server platform the product is 96 x 72 x 30, below the size at which
    OpenBLAS starts a second thread, which would spin between searches.
    The grid of cores ``1..N-1`` is built first so that the last,
    full-size add runs ``M^(N-1)``-long inner loops.
    """
    n_var = len(sp.weight)
    n_cores, n_levels = sp.dvfs.shape[1], len(sp.levels)
    x = sp.tile_mask[:, None, :] * p_lvl[sp.levels][None, :, :]
    t = (sp.weight @ x.reshape(-1, x.shape[-1]).T).reshape(
        n_var, n_cores + 1, n_levels
    )
    tail = np.zeros((n_var, 1))
    for c in range(n_cores - 1, 0, -1):
        tail = (t[:, c, :, None] + tail[:, None, :]).reshape(n_var, -1)
    head = t[:, 0, :] + (base + t[:, n_cores, 0])[:, None]
    return (head[:, :, None] + tail[:, None, :]).reshape(n_var, -1)


def _smallest(keys: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              n: int) -> np.ndarray:
    """Flat indices of the ``n`` smallest entries of ``keys[rows][:, cols]``
    in (key, flat index) order, without sorting the block.

    The order is total, so the ``n`` smallest of a larger block begin
    with the ``m < n`` smallest of a smaller one: a walk that widens its
    block scores every candidate once.
    """
    rows = np.sort(rows)
    vals = np.take(keys[rows], cols, axis=1).ravel()  # flat-index order
    pos = np.arange(vals.size)
    if n < vals.size:
        v = np.partition(vals, n - 1)[n - 1]
        below = np.flatnonzero(vals < v)
        ties = np.flatnonzero(vals == v)[: n - below.size]
        pos = np.concatenate((below, ties))
    pos = pos[np.argsort(vals[pos], kind="stable")]
    r, c = np.divmod(pos, cols.size)
    return rows[r] * keys.shape[1] + cols[c]


def _matmul_spans(x: np.ndarray, spans: list, mats: list) -> np.ndarray:
    """``x[lo:hi] @ m`` for each row span ``(lo, hi)`` and its matrix."""
    out = np.empty((len(x), mats[0].shape[1]))
    for (lo, hi), m in zip(spans, mats):
        np.matmul(x[lo:hi], m, out=out[lo:hi])
    return out


def make_oracle(perf_floor: np.ndarray | None = None) -> ExhaustiveSearcher:
    """The paper's Oracle (or Oracle-P when ``perf_floor`` is given)."""
    return ExhaustiveSearcher(
        name="Oracle-P" if perf_floor is not None else "Oracle",
        objective="epi",
        dvfs_exhaustive=True,
        perf_floor=perf_floor,
    )


def make_oftec() -> ExhaustiveSearcher:
    """OFTEC: exhaustive cooling-power minimization, DVFS pinned."""
    return ExhaustiveSearcher(
        name="OFTEC", objective="cooling", dvfs_exhaustive=False
    )
