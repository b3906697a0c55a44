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
give the TEC power (Eq. 9). ``G_k^-1`` is cached once per system for
each of the ``K = 2^(N*gangs) * F`` (TEC banks, fan) variants. While
the clip cannot bind, the objective (EPI numerator or cooling power) is
affine in the dynamic-power vector. Eq. (7) scales each core's tile by
that core's own level ratio, so the objective's dynamic-power term is a
sum of per-core terms: one ``K x (N+1)*M`` product gives every
(variant, core, level) term and broadcast adds over the Cartesian DVFS
grid give it for all ``K * M^N`` configurations. They are then walked
in objective order and only the first few are run through the two-pass
formula to check the thermal limit. Exactness rests on two facts:

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
from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.core.controller import Controller
from repro.core.estimator import NextIntervalEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.exceptions import ConfigurationError, ControlError
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


@dataclass
class _SearchSpace:
    """One system's exhaustive space, built once by ``_prepare``.

    Variant ``k`` is one (TEC bank pattern, fan level) with dense inverse
    ``inv[k]`` and actuator RHS ``rhs1[k]`` (TEC Joule heat and ambient
    term; pass 2 of the two-pass formula rewrites its component
    entries). While the leakage clip cannot bind, the objective at
    dynamic power ``p`` and measured leakage ``leak0`` is
    ``weight[k] @ p + offset[k] + leak_gain[k] @ leak0``. Component
    ``i`` of ``p`` scales with the level of the core whose tile holds it
    (``tile_mask[c, i] = 1``) or with none (``tile_mask[N, i] = 1``).
    """

    system: object
    fan: np.ndarray  # (K,) fan level
    fan_w: np.ndarray  # (K,) fan power
    tec: np.ndarray  # (K, L) 0/1 device activations
    dvfs: np.ndarray  # (D, N) Cartesian product of per-core levels
    level_rows: np.ndarray  # (M,) rows of dvfs with every core at one level
    tile_mask: np.ndarray  # (N + 1, n_comp) core tiles, then the rest
    inv: np.ndarray  # (K, n, n)
    rhs1: np.ndarray  # (K, n)
    cold_w: np.ndarray  # (L, n_comp) cold-side footprint weights
    nonneg: np.ndarray  # (K,) G^-1 >= 0 on the component block
    weight: np.ndarray  # (K, n_comp)
    offset: np.ndarray  # (K,)
    leak_gain: np.ndarray  # (K, n_comp)


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

    def reset(self) -> None:
        self._decision_index = 0
        self._held = None

    # ------------------------------------------------------------------
    # Space construction (lazy; bound to the system it was built for)
    # ------------------------------------------------------------------
    def _gang_devices(self, system) -> list[np.ndarray]:
        """Device index sets per (core, gang)."""
        gangs: list[np.ndarray] = []
        for core in range(system.n_cores):
            devs = system.tec.tile_devices(core)
            for part in np.array_split(devs, self.tec_gangs_per_core):
                gangs.append(part)
        return gangs

    def _prepare(self, system) -> _SearchSpace:
        if self._space is not None and self._space.system is system:
            return self._space
        n_gangs = system.n_cores * self.tec_gangs_per_core
        if n_gangs > 16:
            raise ConfigurationError(
                f"{n_gangs} TEC gangs -> 2^{n_gangs} variants: exhaustive "
                "search is intractable (that is the paper's point; use a "
                "smaller platform or fewer gangs)"
            )
        nodes = system.nodes
        comp = nodes.component_slice
        n_comp = nodes.n_components
        gangs = self._gang_devices(system)
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
        fan_w = system.fan.power_table()[fan - 1]
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
        a = dev.joule_w * tec.sum(axis=1) + np.einsum("ki,ki->k", g, rhs2)
        # Objective = s_k @ u + a_k + fan_w (EPI numerator adds sum(u)).
        s = g[:, comp] + (1.0 if self.objective == "epi" else 0.0)
        # Unclipped leak1 = frac * (p_tdp + alpha (T1c - t_tdp)) with
        # T1c = t1c_k + A_k (p_dyn + leak0), A_k = G_k^-1[comp, comp].
        lk = system.power.controller_leakage
        frac = lk.areas_mm2 / lk.chip_area_mm2
        block = inv[:, comp, comp]
        t1c = np.einsum("kij,kj->ki", inv[:, comp, :], rhs1)
        leak_gain = lk.alpha_w_per_k * np.einsum("kji,kj->ki", block, frac * s)
        offset = (
            (frac * s)
            * (lk.p_tdp_leak_w + lk.alpha_w_per_k * (t1c - lk.t_tdp_k))
        ).sum(axis=1) + a + fan_w

        levels = (
            range(system.dvfs.n_levels) if self.dvfs_exhaustive
            else (system.dvfs.max_level,)
        )
        dvfs = np.array(
            list(itertools.product(levels, repeat=system.n_cores)), dtype=int
        )
        # The same tiles the estimator's Eq. (7) tracker rescales by.
        owner = np.where(
            core_dvfs_domain_mask(system.chip),
            system.chip.tile_of(),
            system.n_cores,
        )
        tile_mask = (
            owner[None, :] == np.arange(system.n_cores + 1)[:, None]
        ).astype(float)
        self._space = _SearchSpace(
            system=system, fan=fan, fan_w=fan_w, tec=tec, dvfs=dvfs,
            level_rows=np.flatnonzero((dvfs == dvfs[:, :1]).all(axis=1)),
            tile_mask=tile_mask,
            inv=inv, rhs1=rhs1, cold_w=cold_w,
            nonneg=block.min(axis=(1, 2)) >= 0.0,
            weight=s + leak_gain, offset=offset, leak_gain=leak_gain,
        )
        return self._space

    # ------------------------------------------------------------------
    # Exact scoring: the two-pass temperature-leakage formula
    # ------------------------------------------------------------------
    def _score(self, sp, k, p_dyn, ips, leak0):
        """Component peak [K] and objective of variant ``k`` at the
        dynamic-power rows ``p_dyn`` (b, n_comp)."""
        system = sp.system
        nodes = system.nodes
        comp = nodes.component_slice
        lk = system.power.controller_leakage
        dev = system.tec
        inv_t = sp.inv[k].T
        rhs = np.zeros((len(p_dyn), nodes.n_nodes))
        rhs[:, comp] = p_dyn + leak0[None, :]
        rhs += sp.rhs1[k][None, :]
        t1 = rhs @ inv_t
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
        t2 = rhs @ inv_t
        t_comp = t2[:, comp]
        t_cold = t_comp @ sp.cold_w.T
        t_hot = t2[:, nodes.n_components + dev.device_tile]
        p_tec = (
            sp.tec[k][None, :]
            * (dev.joule_w + dev.alpha_i * (t_hot - t_cold))
        ).sum(axis=1)
        if self.objective == "cooling":
            obj = p_tec + sp.fan_w[k]
        else:
            p_chip = p_dyn.sum(axis=1) + leak1.sum(axis=1) + p_tec + sp.fan_w[k]
            with np.errstate(divide="ignore"):
                obj = np.where(
                    ips > 0, p_chip / np.maximum(ips, 1e-9), np.inf
                )
        return t_comp.max(axis=1), obj

    def _score_flat(self, sp, flat, p_dyn, ips, leak0):
        """:meth:`_score` for flat candidate indices ``k * D + d``."""
        ks, ds = np.divmod(flat, len(sp.dvfs))
        peak = np.empty(len(flat))
        obj = np.empty(len(flat))
        for k in np.unique(ks):
            rows = ks == k
            d = ds[rows]
            peak[rows], obj[rows] = self._score(sp, k, p_dyn[d], ips[d], leak0)
        obs.incr("oracle.candidates_scored", len(flat))
        return peak, obj

    def _affine_objective(self, sp, p_dyn, ips, leak0) -> np.ndarray:
        """(K, D) objective of every configuration from per-core sums;
        equal to :meth:`_score`'s up to rounding where the clip cannot
        bind."""
        num = _weighted_power(sp, p_dyn, sp.offset + sp.leak_gain @ leak0)
        if self.objective == "epi":
            num /= np.maximum(ips, 1e-9)
            num[:, ~(ips > 0)] = np.inf
        return num

    def _search(self, sp, p_dyn, ips, leak0, allowed, th_k) -> int:
        """Flat index of the best feasible configuration, else of the
        least-peak one."""
        system = sp.system
        comp = system.nodes.component_slice
        lk = system.power.controller_leakage
        frac = lk.areas_mm2 / lk.chip_area_mm2
        n_var, d_count = len(sp.fan), len(sp.dvfs)
        comp_rows = sp.inv[:, comp, :]

        # One bound row per variant at the elementwise-minimum power:
        # with G_k^-1 >= 0 every configuration is at least this hot.
        p_min = p_dyn.min(axis=0)
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

        obj = self._affine_objective(sp, p_dyn, ips, leak0)
        for k in np.flatnonzero(viable & ~certified):
            # The clip may bind here: score the whole variant exactly.
            obj[k] = self._score_flat(
                sp, k * d_count + np.arange(d_count), p_dyn, ips, leak0
            )[1]

        # Walk candidates in nondecreasing objective order; the first
        # feasible one bounds the optimum to within rounding.
        cand = np.flatnonzero((viable[:, None] & allowed[None, :]).ravel())
        keys = obj.ravel()[cand]
        for batch in _ascending(keys, _FIRST_BATCH):
            peak, _ = self._score_flat(sp, cand[batch], p_dyn, ips, leak0)
            hit = np.flatnonzero(peak <= th_k)
            if hit.size:
                o = keys[batch[hit[0]]]
                break
        else:
            # Nothing feasible: the thermally safest configuration,
            # ties to the lowest flat index.
            peak, _ = self._score_flat(
                sp, np.arange(n_var * d_count), p_dyn, ips, leak0
            )
            return int(np.argmin(peak))
        # Every key below o is infeasible. Score the near-ties exactly and
        # take the exact minimum, ties to the lowest flat index.
        window = cand[(keys >= o) & (keys <= o + _TIE_RTOL * abs(o))]
        peak, exact = self._score_flat(sp, window, p_dyn, ips, leak0)
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
        # interval (same information TECfan gets).
        tracker = estimator.dyn_tracker
        if not tracker.ready:
            return state
        obs.incr("oracle.searches")
        p_dyn = tracker.predict_many(sp.dvfs)  # (D, ncomp)

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
        k, d = divmod(self._search(sp, p_dyn, ips, leak0, allowed, th_k),
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


def _weighted_power(sp: _SearchSpace, p_dyn: np.ndarray,
                    base: np.ndarray) -> np.ndarray:
    """``base[:, None] + sp.weight @ p_dyn.T`` (K, D) without the dense
    product.

    Row ``d`` of ``p_dyn`` holds core ``c``'s tile at that core's level
    ``d_c``, bit for bit as in the row with every core at ``d_c``, so
    ``weight[k] @ p_dyn[d] = sum_c T[k, c, d_c]`` plus a level-free term.
    One product builds T from the ``M`` one-level rows; broadcast adds
    then sum it over the grid in :func:`itertools.product` order (first
    core slowest): about ``1.2 K D`` adds instead of ``K D n_comp``
    multiply-adds. On the server platform the product is 96 x 72 x 30,
    below the size at which OpenBLAS starts a second thread, which would
    spin between searches. The grid of cores ``1..N-1`` is built first
    so that the last, full-size add runs ``M^(N-1)``-long inner loops.
    """
    n_var = len(sp.weight)
    n_cores, n_levels = sp.dvfs.shape[1], len(sp.level_rows)
    x = sp.tile_mask[:, None, :] * p_dyn[sp.level_rows][None, :, :]
    t = (sp.weight @ x.reshape(-1, x.shape[-1]).T).reshape(
        n_var, n_cores + 1, n_levels
    )
    tail = np.zeros((n_var, 1))
    for c in range(n_cores - 1, 0, -1):
        tail = (t[:, c, :, None] + tail[:, None, :]).reshape(n_var, -1)
    head = t[:, 0, :] + (base + t[:, n_cores, 0])[:, None]
    return (head[:, :, None] + tail[:, None, :]).reshape(n_var, -1)


def _ascending(keys: np.ndarray, first: int):
    """Yield index batches of ``keys`` in nondecreasing key order: the
    ``first`` smallest, then doubling, each sorted (no full sort)."""
    rest = np.arange(len(keys))
    size = first
    while rest.size:
        if size < rest.size:
            part = np.argpartition(keys[rest], size - 1)
            head, rest = rest[part[:size]], rest[part[size:]]
        else:
            head, rest = rest, rest[:0]
        yield head[np.argsort(keys[head])]
        size *= 2


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
