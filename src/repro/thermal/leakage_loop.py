"""Temperature-leakage fixed-point loop.

Leakage power rises with temperature, which raises temperature, which
raises leakage — the paper modifies HotSpot 5.02's transient routine to
iterate this loop at run time until the peak temperature moves by less
than 0.5 degC between consecutive passes (Sec. IV-B). This module
implements that coupling for any leakage model of signature
``leakage(T_components_K) -> per-component leakage [W]``.
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
