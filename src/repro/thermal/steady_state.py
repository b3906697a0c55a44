"""Steady-state thermal solve: ``G(fan, tec) Ts = P`` (paper Eq. 1).

The solver caches sparse LU factorizations keyed by actuator setting:
controllers evaluate many candidate DVFS levels against the *same* G (a
DVFS change only moves the power vector), so the common case is a cached
triangular solve rather than a refactorization. TEC activations are
quantized to 1/256 for the cache key (see :mod:`repro.thermal.keys`),
but a hit must also match the exact activation the entry was built
for: two fractional "average states" that share a key are different
matrices, and serving one for the other would make a result depend on
the cache's history (and so on which pool worker ran a task).

Candidate screening goes one step further: :meth:`SteadyStateSolver.solve_many`
pushes a whole batch of power vectors through one multi-RHS triangular
solve against the cached factorization. SuperLU back-substitutes each
column independently, so every column is bit-identical to the
corresponding single-RHS :meth:`~SteadyStateSolver.solve` — the batched
controller path produces exactly the same decisions as the sequential
one, just without B round trips through Python and the RHS assembly.

Low-rank updates (opt-in, ``use_woodbury``): a TEC on/off toggle changes
``G`` only on the diagonal entries its device touches, so a cache miss
whose diagonal differs from a cached *exact* factorization in at most
``woodbury_max_rank`` entries is served by a Sherman–Morrison–Woodbury
rank-k correction instead of a fresh ``splu``. Every corrected solve is
validated against the true residual ``|G x - P|``; if it exceeds
``woodbury_rtol`` (relative to the RHS scale) the solver falls back to a
full refactorization, replaces the corrected operator in the cache, and
re-solves exactly — accuracy degrades to *never*, only speed does.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from repro.exceptions import ThermalModelError
from repro.obs import telemetry as obs
from repro.thermal.conductance import ConductanceModel
from repro.thermal.keys import ActuatorKeyer, tec_key

# Backwards-compatible alias: the quantization helper began life here
# and moved to repro.thermal.keys when the transient caches started
# sharing it.
_tec_key = tec_key


class _WoodburyOperator:
    """Sherman–Morrison–Woodbury diagonal rank-k correction.

    Solves ``(A + E diag(d) E^T) x = b`` through the cached base
    ``A = LU``: with ``y = A^{-1} b`` and ``Z = A^{-1} E``,

        ``x = y - Z (diag(1/d) + Z[idx, :])^{-1} y[idx]``

    where ``E`` selects the ``k`` diagonal positions that changed and
    ``d`` holds the changes. The k-by-k capacitance matrix is LU-factored
    once at build time; a singular correction surfaces as
    ``LinAlgError`` there and the caller falls back to ``splu``.
    """

    def __init__(self, base_lu, idx: np.ndarray, diff: np.ndarray) -> None:
        n = base_lu.shape[0]
        e = np.zeros((n, idx.size))
        e[idx, np.arange(idx.size)] = 1.0
        z = base_lu.solve(e)
        m = np.diag(1.0 / diff) + z[idx, :]
        self._m_lu = scipy.linalg.lu_factor(m)
        self._z = z
        self._idx = idx
        self.base_lu = base_lu
        self.rank = int(idx.size)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Corrected solve; accepts a vector or an ``(n, batch)`` block."""
        y = self.base_lu.solve(rhs)
        corr = scipy.linalg.lu_solve(self._m_lu, y[self._idx])
        return y - self._z @ corr


@dataclass
class SteadyStateSolver:
    """LU-cached solver for the steady-state temperature field.

    Parameters
    ----------
    model:
        The assembled conductance machinery.
    cache_size:
        Maximum number of retained factorizations (LRU eviction). The
        TECfan heuristic revisits neighbouring TEC configurations many
        times within a control period, so even a small cache removes
        nearly all refactorizations.
    use_woodbury:
        Serve cache misses by low-rank correction against the nearest
        cached exact base when possible. Off by default: corrected
        solves agree with exact ones only to ``woodbury_rtol``, so the
        engine arms this solely on interval-kernel runs
        (``EngineConfig.interval_kernel``, see docs/PERFORMANCE.md).
    woodbury_max_rank:
        Largest diagonal-difference rank served by correction; misses
        further than this from every cached base refactorize.
    woodbury_rtol:
        Residual acceptance threshold, relative to ``max|P|``.
    """

    model: ConductanceModel
    cache_size: int = 64
    use_woodbury: bool = False
    woodbury_max_rank: int = 8
    woodbury_rtol: float = 1e-9
    _lu_cache: OrderedDict = field(default_factory=OrderedDict, repr=False)
    #: Diagonal deltas of the *exact* cached factorizations, by key —
    #: the search space for the nearest Woodbury base.
    _delta_cache: dict = field(default_factory=dict, repr=False)
    #: Rebuild recipes by cache key: how each live entry was built, so a
    #: checkpoint can replay the cache deterministically (SuperLU objects
    #: cannot pickle). See :meth:`snapshot_cache`.
    _recipe_cache: dict = field(default_factory=dict, repr=False)
    _keyer: ActuatorKeyer = field(default_factory=ActuatorKeyer, repr=False)
    #: Statistics: factorizations performed / solves served / LRU drops,
    #: plus Woodbury corrections built / solves validated / fallbacks.
    n_factorizations: int = 0
    n_solves: int = 0
    n_evictions: int = 0
    n_woodbury_builds: int = 0
    n_woodbury_solves: int = 0
    n_woodbury_fallbacks: int = 0

    # ------------------------------------------------------------------
    # Pickling: SuperLU factorization objects cannot cross a process
    # boundary (repro.parallel ships systems to worker processes); the
    # cache is pure memoization, so workers simply refactorize on demand.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lu_cache"] = OrderedDict()
        state["_delta_cache"] = {}
        state["_recipe_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def _cache_key(self, fan_level: int, tec_activation: np.ndarray) -> tuple:
        return self._keyer.key(fan_level, tec_activation)

    def _store(self, key: tuple, entry) -> None:
        self._lu_cache[key] = entry
        self._lu_cache.move_to_end(key)
        if len(self._lu_cache) > self.cache_size:
            old, _ = self._lu_cache.popitem(last=False)
            self._delta_cache.pop(old, None)
            self._recipe_cache.pop(old, None)
            self.n_evictions += 1
            obs.incr("thermal.lu_evictions")

    def _factorize_exact(
        self, key: tuple, fan_level: int, tec_activation: np.ndarray
    ):
        """Full ``splu`` for one setting; registered as a Woodbury base."""
        g = self.model.matrix(fan_level, tec_activation)
        try:
            lu = spla.splu(g)
        except RuntimeError as exc:  # singular matrix
            raise ThermalModelError(
                f"G matrix is singular for fan={fan_level}"
            ) from exc
        self._delta_cache[key] = self.model.diag_delta(
            fan_level, tec_activation
        )
        self._recipe_cache[key] = (
            "exact",
            int(fan_level),
            np.asarray(tec_activation, dtype=float).copy(),
        )
        self._store(key, lu)
        self.n_factorizations += 1
        obs.incr("thermal.factorizations")
        return lu

    def _woodbury_operator(
        self, key: tuple, fan_level: int, tec_activation: np.ndarray
    ):
        """Correction against the nearest cached exact base, or None.

        "Nearest" means the same fan level and the fewest changed
        diagonal entries; only exact factorizations serve as bases
        (corrections never chain), and a rank above
        ``woodbury_max_rank`` or a singular capacitance matrix declines
        the correction so the caller refactorizes.
        """
        delta_new = self.model.diag_delta(fan_level, tec_activation)
        best = None
        for bkey, entry in self._lu_cache.items():
            if isinstance(entry, _WoodburyOperator) or bkey[0] != key[0]:
                continue
            base_delta = self._delta_cache.get(bkey)
            if base_delta is None:
                continue
            diff = delta_new - base_delta
            idx = np.flatnonzero(diff)
            if best is None or idx.size < best[0].size:
                best = (idx, diff, entry, bkey)
        if best is None:
            return None
        idx, diff, base_lu, bkey = best
        if idx.size == 0:
            # Distinct quantized keys, same exact G (e.g. activations
            # differing below 1/256): the base factorization *is* exact
            # for this setting too. Recorded under the alias key's *own*
            # setting — splu of the identical matrix rebuilds the same
            # factorization, and the alias key lands in the right LRU slot.
            self._delta_cache[key] = delta_new
            self._recipe_cache[key] = (
                "exact",
                int(fan_level),
                np.asarray(tec_activation, dtype=float).copy(),
            )
            return base_lu
        if idx.size > self.woodbury_max_rank:
            return None
        base_recipe = self._recipe_cache.get(bkey)
        if base_recipe is None:
            return None
        try:
            op = _WoodburyOperator(base_lu, idx, diff[idx])
        except np.linalg.LinAlgError:
            return None
        self._recipe_cache[key] = (
            "woodbury",
            int(fan_level),
            np.asarray(tec_activation, dtype=float).copy(),
            base_recipe[1],
            base_recipe[2],
        )
        self.n_woodbury_builds += 1
        return op

    def _factorization(self, fan_level: int, tec_activation: np.ndarray):
        key = self._cache_key(fan_level, tec_activation)
        entry = self._lu_cache.get(key)
        recipe = self._recipe_cache.get(key)
        if entry is not None and np.array_equal(recipe[2], tec_activation):
            self._lu_cache.move_to_end(key)
            return entry
        if self.use_woodbury:
            op = self._woodbury_operator(key, fan_level, tec_activation)
            if op is not None:
                self._store(key, op)
                return op
        return self._factorize_exact(key, fan_level, tec_activation)

    def _verify_woodbury(
        self,
        t: np.ndarray,
        rhs: np.ndarray,
        fan_level: int,
        tec_activation: np.ndarray,
    ) -> np.ndarray:
        """Residual-check a corrected solve; refactorize on failure.

        The fallback replaces the corrected operator in the cache with
        the exact factorization, so a base that has drifted out of
        tolerance is repaired once and stops serving bad corrections.
        """
        resid = self.model.apply(t, fan_level, tec_activation) - rhs
        scale = max(float(np.max(np.abs(rhs))), 1.0)
        if float(np.max(np.abs(resid))) <= self.woodbury_rtol * scale:
            self.n_woodbury_solves += 1
            obs.incr("thermal.woodbury_solves")
            return t
        self.n_woodbury_fallbacks += 1
        obs.incr("thermal.woodbury_fallbacks")
        key = self._cache_key(fan_level, tec_activation)
        lu = self._factorize_exact(key, fan_level, tec_activation)
        return lu.solve(rhs)

    # ------------------------------------------------------------------
    def solve(
        self,
        p_components_w: np.ndarray,
        fan_level: int,
        tec_activation: np.ndarray,
    ) -> np.ndarray:
        """Steady-state node temperatures [K] for one actuator setting.

        Parameters
        ----------
        p_components_w:
            Per-die-component dissipation [W] (length ``n_components``).
        fan_level:
            Fan speed level (1 = fastest).
        tec_activation:
            Per-device activation in [0, 1].
        """
        with obs.span("thermal.solve", hist_ms="thermal.solver_ms"):
            lu = self._factorization(fan_level, tec_activation)
            rhs = self.model.rhs(p_components_w, fan_level, tec_activation)
            self.n_solves += 1
            t = lu.solve(rhs)
            if isinstance(lu, _WoodburyOperator):
                t = self._verify_woodbury(t, rhs, fan_level, tec_activation)
        if not np.all(np.isfinite(t)):
            raise ThermalModelError("non-finite steady-state temperatures")
        return t

    def solve_many(
        self,
        p_components_w: np.ndarray,
        fan_level: int,
        tec_activation: np.ndarray,
    ) -> np.ndarray:
        """Batched steady states for one actuator setting, many powers.

        Parameters
        ----------
        p_components_w:
            ``(batch, n_components)`` per-die-component dissipation [W]:
            one row per candidate power vector.
        fan_level, tec_activation:
            Shared actuator setting (the whole point: one factorization,
            one multi-RHS back-substitution).

        Returns
        -------
        ``(batch, n_nodes)`` temperatures [K]; row ``b`` is bit-identical
        to ``solve(p_components_w[b], fan_level, tec_activation)``.
        """
        p = np.asarray(p_components_w, dtype=float)
        if p.ndim != 2:
            raise ThermalModelError(
                f"solve_many expects a (batch, n_components) power matrix, "
                f"got shape {p.shape}"
            )
        with obs.span("thermal.solve_many", hist_ms="thermal.solver_ms"):
            lu = self._factorization(fan_level, tec_activation)
            # The Joule + ambient pieces of the RHS are shared by every
            # candidate; only the component power differs per column.
            base = self.model.rhs(
                np.zeros(p.shape[1]), fan_level, tec_activation
            )
            rhs = np.repeat(base[:, None], p.shape[0], axis=1)
            rhs[self.model.nodes.component_slice, :] += p.T
            self.n_solves += p.shape[0]
            obs.incr("thermal.batch_solves")
            t = lu.solve(rhs)
            if isinstance(lu, _WoodburyOperator):
                t = self._verify_woodbury(t, rhs, fan_level, tec_activation)
        if not np.all(np.isfinite(t)):
            raise ThermalModelError("non-finite steady-state temperatures")
        return np.ascontiguousarray(t.T)

    def clear_cache(self) -> None:
        """Drop all cached factorizations (exact and corrected)."""
        self._lu_cache.clear()
        self._delta_cache.clear()
        self._recipe_cache.clear()

    # ------------------------------------------------------------------
    # Deterministic cache snapshot/restore (repro.checkpoint).
    #
    # Why this matters: with ``use_woodbury`` on, a cache miss is served
    # by an SMW correction against the *nearest cached* exact base — the
    # solver's answers depend on its cache history. A resumed run must
    # therefore rebuild the same cache contents in the same LRU order,
    # or it would diverge (within woodbury_rtol) from the uninterrupted
    # run. SuperLU handles cannot pickle, but ``splu`` of the identical
    # matrix is deterministic, so we snapshot *recipes* and replay them.
    def snapshot_cache(self) -> list:
        """Picklable rebuild recipes for the live cache, oldest→newest.

        Each entry is ``("exact", fan, tec)`` or
        ``("woodbury", fan, tec, base_fan, base_tec)``. Iterating the
        LRU dict preserves recency order so a replayed cache evicts (and
        picks Woodbury bases) exactly like the original.
        """
        out = []
        for key in self._lu_cache:
            recipe = self._recipe_cache.get(key)
            if recipe is not None:
                out.append(recipe)
        return out

    def restore_cache(self, entries: list) -> None:
        """Replay :meth:`snapshot_cache` recipes into an empty cache.

        Exact entries refactorize from scratch; Woodbury entries rebuild
        their correction against the base's *matrix* (the base may have
        been evicted since — a temporary ``splu`` of the identical
        matrix yields the same factorization, so corrected solves stay
        bit-identical).
        """
        self.clear_cache()
        for recipe in entries:
            if recipe[0] == "exact":
                _, fan, tec = recipe
                self._factorize_exact(self._cache_key(fan, tec), fan, tec)
                continue
            _, fan, tec, base_fan, base_tec = recipe
            bkey = self._cache_key(base_fan, base_tec)
            base = self._lu_cache.get(bkey)
            if base is None or isinstance(base, _WoodburyOperator):
                g = self.model.matrix(base_fan, base_tec)
                try:
                    base = spla.splu(g)
                except RuntimeError as exc:  # pragma: no cover
                    raise ThermalModelError(
                        f"G matrix is singular for fan={base_fan}"
                    ) from exc
            diff = self.model.diag_delta(fan, tec) - self.model.diag_delta(
                base_fan, base_tec
            )
            idx = np.flatnonzero(diff)
            key = self._cache_key(fan, tec)
            op = _WoodburyOperator(base, idx, diff[idx])
            self._recipe_cache[key] = recipe
            self._store(key, op)
            self.n_woodbury_builds += 1
