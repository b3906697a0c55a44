"""Steady-state thermal solve: ``G(fan, tec) Ts = P`` (paper Eq. 1).

The solver caches sparse LU factorizations keyed by actuator setting:
controllers evaluate many candidate DVFS levels against the *same* G (a
DVFS change only moves the power vector), so the common case is a cached
triangular solve rather than a refactorization. The cache key is exact
(:func:`~repro.thermal.keys.exact_actuator_key`: the fan level and the
activation's float64 bytes), so a hit is one dict lookup and always
serves the LU of that very ``G``: no result depends on the cache's
history (and so on which pool worker ran a task).

Candidate screening goes one step further: :meth:`SteadyStateSolver.solve_many`
pushes a whole batch of power vectors through one multi-RHS triangular
solve against the cached factorization. SuperLU back-substitutes each
column independently, so every column is bit-identical to the
corresponding single-RHS :meth:`~SteadyStateSolver.solve` — the batched
controller path produces exactly the same decisions as the sequential
one, just without B round trips through Python and the RHS assembly.

Each cache entry is a :class:`Factorization`: the exact activation, the
LU of ``G``, and the actuator-only part of the right-hand side (TEC
Joule heat plus the ambient boundary term). A solve adds the component
powers to a copy of that base instead of reassembling it; a caller that
solves repeatedly against one setting (the fleet's leakage fixed point)
looks the entry up once with :meth:`SteadyStateSolver.factorization`
and passes it to :meth:`~SteadyStateSolver.solve_many`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from repro.exceptions import ThermalModelError
from repro.obs import telemetry as obs
from repro.thermal.conductance import ConductanceModel
from repro.thermal.keys import ActuatorKeyer


@dataclass(frozen=True)
class Factorization:
    """One cached actuator setting of :class:`SteadyStateSolver`.

    ``base_rhs`` is ``model.rhs(0, fan, tec)``: the right-hand side with
    no component power. Adding powers to the component entries of a
    copy gives ``model.rhs(p, fan, tec)`` bit for bit, because those
    entries start from the same Joule term and addition commutes.
    """

    fan_level: int
    activation: np.ndarray
    lu: spla.SuperLU
    base_rhs: np.ndarray


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
    """

    model: ConductanceModel
    cache_size: int = 64
    #: ``exact_actuator_key -> Factorization`` in LRU order.
    _lu_cache: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _keyer: ActuatorKeyer = field(default_factory=ActuatorKeyer, repr=False)
    #: Statistics: factorizations performed / solves served / LRU drops.
    n_factorizations: int = 0
    n_solves: int = 0
    n_evictions: int = 0

    # ------------------------------------------------------------------
    # Pickling: SuperLU factorization objects cannot cross a process
    # boundary (repro.parallel ships systems to worker processes); the
    # cache is pure memoization, so workers simply refactorize on demand.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lu_cache"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def factorization(
        self, fan_level: int, tec_activation: np.ndarray
    ) -> Factorization:
        """The cached LU and base RHS of ``G(fan, tec)``, built on a miss."""
        key = self._keyer.key(fan_level, tec_activation)
        entry = self._lu_cache.get(key)
        if entry is not None:
            self._lu_cache.move_to_end(key)
            return entry
        g = self.model.matrix(fan_level, tec_activation)
        try:
            lu = spla.splu(g)
        except RuntimeError as exc:  # singular matrix
            raise ThermalModelError(
                f"G matrix is singular for fan={fan_level}"
            ) from exc
        activation = np.array(tec_activation, dtype=float)
        entry = Factorization(
            fan_level=fan_level,
            activation=activation,
            lu=lu,
            base_rhs=self.model.rhs(
                np.zeros(self.model.nodes.n_components), fan_level, activation
            ),
        )
        self._lu_cache[key] = entry
        self._lu_cache.move_to_end(key)
        if len(self._lu_cache) > self.cache_size:
            self._lu_cache.popitem(last=False)
            self.n_evictions += 1
            obs.incr("thermal.lu_evictions")
        self.n_factorizations += 1
        obs.incr("thermal.factorizations")
        return entry

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
            f = self.factorization(fan_level, tec_activation)
            rhs = f.base_rhs.copy()
            rhs[self.model.nodes.component_slice] += p_components_w
            self.n_solves += 1
            t = f.lu.solve(rhs)
        if not np.all(np.isfinite(t)):
            raise ThermalModelError("non-finite steady-state temperatures")
        return t

    def solve_many(
        self,
        p_components_w: np.ndarray,
        fan_level: int,
        tec_activation: np.ndarray,
        factorization: Factorization | None = None,
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
        factorization:
            :meth:`factorization` of this same setting, when the caller
            already holds it; skips the cache lookup.

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
            f = factorization
            if f is None:
                f = self.factorization(fan_level, tec_activation)
            # The Joule + ambient pieces of the RHS are shared by every
            # candidate; only the component power differs per row.
            # SuperLU wants F-ordered columns: the rows' transpose is one
            # as it stands, and the F-ordered answer's transpose is
            # C-ordered rows again, so neither side is reordered.
            rhs = np.empty((p.shape[0], f.base_rhs.size))
            rhs[:] = f.base_rhs
            rhs[:, self.model.nodes.component_slice] += p
            self.n_solves += p.shape[0]
            obs.incr("thermal.batch_solves")
            t = f.lu.solve(rhs.T).T
        if not np.isfinite(t).all():
            raise ThermalModelError("non-finite steady-state temperatures")
        return t
