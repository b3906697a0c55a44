"""Temperature-leakage fixed-point loop.

Leakage power rises with temperature, which raises temperature, which
raises leakage — the paper modifies HotSpot 5.02's transient routine to
iterate this loop at run time until the peak temperature moves by less
than 0.5 degC between consecutive passes (Sec. IV-B). This module
implements that coupling for any leakage model of signature
``leakage(T_components_K) -> per-component leakage [W]``, for one row
(:meth:`LeakageCoupledSolver.solve`) or for many rows under one
actuator setting (:meth:`LeakageCoupledSolver.solve_many`, the fleet's
path), with one convergence policy for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import ConvergenceError
from repro.thermal.steady_state import SteadyStateSolver

#: The paper's convergence criterion on peak temperature [degC == K delta].
PEAK_TOLERANCE_K: float = 0.5

#: Iteration budget; the loop contracts fast (leakage slope << 1/R_th).
MAX_ITERATIONS: int = 50


@dataclass
class LeakageCoupledSolver:
    """Steady-state solve with self-consistent leakage power.

    Parameters
    ----------
    solver:
        The LU-cached steady-state solver.
    leakage_fn:
        Maps per-component absolute temperature [K] to per-component
        leakage power [W].
    """

    solver: SteadyStateSolver
    leakage_fn: Callable[[np.ndarray], np.ndarray]
    tolerance_k: float = PEAK_TOLERANCE_K
    max_iterations: int = MAX_ITERATIONS

    def solve(
        self,
        p_dynamic_w: np.ndarray,
        fan_level: int,
        tec_activation: np.ndarray,
        t_guess_k: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(T_nodes [K], P_leak_components [W])`` at the fixed point.

        Parameters
        ----------
        p_dynamic_w:
            Per-component dynamic power [W].
        t_guess_k:
            Optional warm-start component temperatures [K]; the previous
            interval's temperatures make the loop converge in 1-2 passes.
        """
        nd = self.solver.model.nodes
        comp = nd.component_slice
        if t_guess_k is None:
            t_comp = np.full(nd.n_components, self.solver.model.package.ambient_k)
        else:
            t_comp = np.asarray(t_guess_k, dtype=float)[:nd.n_components]

        prev_peak = np.inf
        for _ in range(self.max_iterations):
            p_leak = self.leakage_fn(t_comp)
            t_nodes = self.solver.solve(
                p_dynamic_w + p_leak, fan_level, tec_activation
            )
            t_comp = t_nodes[comp]
            peak = float(t_comp.max())
            residual = abs(peak - prev_peak)
            if residual < self.tolerance_k:
                return t_nodes, p_leak
            prev_peak = peak
        raise ConvergenceError(
            "temperature-leakage loop did not converge",
            iterations=self.max_iterations,
            residual=residual,
        )

    def solve_many(
        self,
        p_dynamic_w: np.ndarray,
        fan_level: int,
        tec_activation: np.ndarray,
        t_guess_k: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-batched :meth:`solve` under one shared actuator setting.

        ``p_dynamic_w`` and the warm start ``t_guess_k`` are
        ``(batch, n_components)`` rows; returns ``(T_nodes, P_leak)`` as
        ``(batch, n_nodes)`` and ``(batch, n_components)``. Rows converge
        independently: a converged row is frozen with the iteration's
        outputs while the remaining rows continue, so row ``b`` matches
        a solo :meth:`solve` of that row exactly — same leakage inputs,
        same RHS, same stopping pass. The factorization is looked up
        once, outside the loop.
        """
        solver = self.solver
        nd = solver.model.nodes
        factored = solver.factorization(fan_level, tec_activation)
        comp = nd.component_slice
        b = p_dynamic_w.shape[0]
        t_out = np.empty((b, nd.n_nodes))
        p_leak_out = np.empty_like(p_dynamic_w)
        t_comp = np.array(t_guess_k, dtype=float)
        prev_peak = np.full(b, np.inf)
        active = np.arange(b)
        for _ in range(self.max_iterations):
            p_leak = self.leakage_fn(t_comp[active])
            t_nodes = solver.solve_many(
                p_dynamic_w[active] + p_leak,
                fan_level,
                tec_activation,
                factorization=factored,
            )
            t_comp_a = t_nodes[:, comp]
            peak = t_comp_a.max(axis=1)
            residual = np.abs(peak - prev_peak[active])
            done = residual < self.tolerance_k
            if np.any(done):
                idx = active[done]
                t_out[idx] = t_nodes[done]
                p_leak_out[idx] = p_leak[done]
            t_comp[active] = t_comp_a
            prev_peak[active] = peak
            active = active[~done]
            if active.size == 0:
                return t_out, p_leak_out
        raise ConvergenceError(
            "temperature-leakage loop did not converge",
            iterations=self.max_iterations,
            residual=float(residual[~done].max()),
        )
