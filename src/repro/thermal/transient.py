"""Transient temperature models.

Two integrators are provided:

* :class:`PaperTransient` — the paper's Eq. (5): every node relaxes
  exponentially toward its *steady-state* value with its own RC time
  constant, ``T(k) = (1 - beta) Ts + beta T(k-1)``,
  ``beta = exp(-dt / (R C))``. We take ``R_i = 1 / G_ii`` (the total
  conductance incident on node ``i``), which reduces exactly to the
  scalar RC model of Eq. (3)-(4) for a single node. This decoupled
  update is what TECfan's on-line estimator can afford in hardware.

* :class:`ExactTransient` — the exact solution of the full linear ODE
  ``C dT/dt = P - G T``, i.e. ``T(t) = Ts + expm(-C^-1 G t)(T0 - Ts)``,
  used to validate the decoupled approximation (see
  ``benchmarks/bench_thermal_solver.py``). Dense; intended for small
  networks or occasional cross-checks.

Both integrators memoize their propagators through
:class:`~repro.thermal.keys.PropagatorCache`: under piecewise-constant
actuation — thousands of 2 ms intervals per fan decision — the G
diagonal, the beta vector, and the dense ``expm`` factor are all
functions of ``(dt, fan_level, tec)`` alone, so repeated steps reduce to
one cached lookup plus a vector multiply. Cache hits are bit-identical
to the uncached computation: the cached quantity is the *final* operator
(no re-ordered floating-point arithmetic on the hit path) and the key is
the exact actuator setting (:func:`~repro.thermal.keys.exact_actuator_key`),
so a hit never serves another setting's operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from repro.exceptions import ThermalModelError
from repro.obs import telemetry as obs
from repro.thermal.conductance import ConductanceModel
from repro.thermal.keys import ActuatorKeyer, PropagatorCache


@dataclass
class PaperTransient:
    """Eq. (5) decoupled exponential relaxation toward steady state."""

    model: ConductanceModel
    #: Retained ``(dt, fan, tec)`` beta vectors / ``(fan, tec)`` G
    #: diagonals (LRU).
    cache_size: int = 128
    _keyer: ActuatorKeyer = field(default_factory=ActuatorKeyer, repr=False)
    _diag_cache: PropagatorCache = field(default=None, repr=False)
    _beta_cache: PropagatorCache = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._diag_cache is None:
            self._diag_cache = PropagatorCache(max_entries=self.cache_size)
        if self._beta_cache is None:
            self._beta_cache = PropagatorCache(max_entries=self.cache_size)

    def _diag(self, fan_level: int, tec: np.ndarray) -> np.ndarray:
        """Cached ``G_ii`` for one actuator setting (read-only view)."""
        key = self._keyer.key(fan_level, tec)
        diag = self._diag_cache.lookup(key)
        if diag is None:
            diag = self.model.diag(fan_level, tec)
            diag.setflags(write=False)
            self._diag_cache.insert(key, diag)
        return diag

    def betas(
        self, dt_s: float, fan_level: int, tec_activation: np.ndarray
    ) -> np.ndarray:
        """Per-node relaxation factor ``beta = exp(-dt G_ii / C_i)``.

        Returned arrays are cached and marked read-only; callers use
        them in elementwise arithmetic only.
        """
        if dt_s <= 0:
            raise ThermalModelError(f"non-positive time step {dt_s}")
        key = (dt_s, *self._keyer.key(fan_level, tec_activation))
        beta = self._beta_cache.lookup(key)
        if beta is None:
            diag = self._diag(fan_level, np.asarray(tec_activation, dtype=float))
            c = self.model.nodes.capacities
            beta = np.exp(-dt_s * diag / c)
            beta.setflags(write=False)
            self._beta_cache.insert(key, beta)
        return beta

    def step(
        self,
        t_prev_k: np.ndarray,
        t_steady_k: np.ndarray,
        dt_s: float,
        fan_level: int,
        tec_activation: np.ndarray,
    ) -> np.ndarray:
        """Advance one interval: ``(1 - beta) Ts + beta T_prev`` [K]."""
        with obs.span("thermal.step"):
            beta = self.betas(dt_s, fan_level, tec_activation)
            return (1.0 - beta) * t_steady_k + beta * t_prev_k

    def interpolate(
        self,
        t_initial_k: np.ndarray,
        t_steady_k: np.ndarray,
        times_s: np.ndarray,
        fan_level: int,
        tec_activation: np.ndarray,
    ) -> np.ndarray:
        """Eq. (4) continuous-time form: the trajectory at many instants.

        Returns an array of shape ``(len(times_s), n_nodes)`` [K] — the
        per-node exponential relaxation from ``t_initial_k`` toward
        ``t_steady_k`` evaluated at each requested time, exactly the
        interpolation the paper derives before discretizing into Eq. (5).
        """
        times = np.asarray(times_s, dtype=float)
        if np.any(times < 0):
            raise ThermalModelError("interpolation times must be >= 0")
        t = np.asarray(tec_activation, dtype=float)
        diag = self._diag(fan_level, t)
        rate = diag / self.model.nodes.capacities  # 1 / (R C) per node
        beta = np.exp(-np.outer(times, rate))
        return (1.0 - beta) * t_steady_k[None, :] + beta * t_initial_k[None, :]


@dataclass
class ExactTransient:
    """Exact matrix-exponential integrator for the full linear network."""

    model: ConductanceModel
    #: Retained dense-G / expm propagators. Dense ``n_nodes**2`` blocks
    #: are heavy, so the default is deliberately small.
    cache_size: int = 16
    _keyer: ActuatorKeyer = field(default_factory=ActuatorKeyer, repr=False)
    _dense_cache: PropagatorCache = field(default=None, repr=False)
    _phi_cache: PropagatorCache = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._dense_cache is None:
            self._dense_cache = PropagatorCache(max_entries=self.cache_size)
        if self._phi_cache is None:
            self._phi_cache = PropagatorCache(max_entries=self.cache_size)

    def _dense_g(self, fan_level: int, tec: np.ndarray) -> np.ndarray:
        """Cached dense ``G(fan, tec)`` (read-only) — densify once, not
        per step."""
        key = self._keyer.key(fan_level, tec)
        g = self._dense_cache.lookup(key)
        if g is None:
            g = self.model.matrix(fan_level, tec).toarray()
            g.setflags(write=False)
            self._dense_cache.insert(key, g)
        return g

    def step(
        self,
        t_prev_k: np.ndarray,
        t_steady_k: np.ndarray,
        dt_s: float,
        fan_level: int,
        tec_activation: np.ndarray,
    ) -> np.ndarray:
        """Advance one interval with ``expm(-C^-1 G dt)`` [K].

        ``t_steady_k`` must be the steady state of the *same* actuator
        setting and power vector (it defines the affine offset).
        """
        if dt_s <= 0:
            raise ThermalModelError(f"non-positive time step {dt_s}")
        with obs.span("thermal.exact_step"):
            t = np.asarray(tec_activation, dtype=float)
            key = (dt_s, *self._keyer.key(fan_level, t))
            phi = self._phi_cache.lookup(key)
            if phi is None:
                g = self._dense_g(fan_level, t)
                c_inv = 1.0 / self.model.nodes.capacities
                a = -c_inv[:, None] * g
                phi = scipy.linalg.expm(a * dt_s)
                phi.setflags(write=False)
                self._phi_cache.insert(key, phi)
            return t_steady_k + phi @ (t_prev_k - t_steady_k)

    def time_constants_s(
        self, fan_level: int, tec_activation: np.ndarray
    ) -> np.ndarray:
        """Eigen time constants of the network (sorted ascending) [s].

        Useful to verify the paper's claims about the separation between
        TEC/DVFS (sub-ms) and fan/heat-sink (tens of seconds) scales.
        """
        g = self._dense_g(fan_level, np.asarray(tec_activation, dtype=float))
        c_inv = 1.0 / self.model.nodes.capacities
        eig = np.linalg.eigvals(c_inv[:, None] * g)
        real = np.real(eig)
        if np.any(real <= 0):
            raise ThermalModelError("network has non-decaying thermal modes")
        return np.sort(1.0 / real)
