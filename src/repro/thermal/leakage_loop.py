"""Temperature-leakage fixed-point loop.

Leakage power rises with temperature, which raises temperature, which
raises leakage — the paper modifies HotSpot 5.02's transient routine to
iterate this loop at run time until the peak temperature moves by less
than 0.5 degC between consecutive passes (Sec. IV-B). This module
implements that coupling for any leakage model of signature
``leakage(T_components_K) -> per-component leakage [W]``, for one row
(:meth:`LeakageCoupledSolver.solve`) or for many rows under any number
of actuator settings (:meth:`LeakageCoupledSolver.solve_many`, the
fleet's path), with one convergence policy for both.

The batched loop runs every row of a fleet step in lockstep, whatever
its actuation class: each pass is one leakage call over the rows still
iterating, one multi-RHS triangular solve per class against that
class's cached LU, and one vectorized peak/residual test. Rows that
converge leave with that pass's outputs, so each row is bit-identical
to its own :meth:`~LeakageCoupledSolver.solve`. Every pass of either
loop counts ``thermal.leakage_passes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError, ThermalModelError
from repro.obs import telemetry as obs
from repro.thermal.steady_state import Factorization, SteadyStateSolver

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

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not self.tolerance_k > 0.0:
            raise ConfigurationError(
                f"tolerance_k must be > 0, got {self.tolerance_k}"
            )

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
            obs.incr("thermal.leakage_passes")
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
        classes: Sequence[tuple[np.ndarray, Factorization]],
        t_guess_k: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-batched :meth:`solve` over actuation classes, in lockstep.

        ``p_dynamic_w`` and the warm start ``t_guess_k`` are
        ``(batch, n_components)`` rows. ``classes`` partitions the rows:
        each ``(rows, factorization)`` pair holds the indices of the rows
        under one actuator setting and that setting's
        :meth:`SteadyStateSolver.factorization`. Returns
        ``(T_nodes, P_leak)`` as ``(batch, n_nodes)`` and
        ``(batch, n_components)``.

        Each pass makes one leakage call over the active rows, one
        :meth:`SteadyStateSolver.solve_many` per class that still has
        active rows, and one vectorized peak/residual test over all of
        them. A converged row is frozen with that pass's outputs while
        the rest continue, so row ``b`` matches a solo :meth:`solve` of
        that row exactly — same leakage inputs, same RHS, same stopping
        pass. The working arrays shrink to the rows still iterating; a
        one-class call (a fleet step of one actuation class) permutes
        nothing and, when every row stops on the same pass, returns that
        pass's arrays as they are.
        """
        solver = self.solver
        comp = solver.model.nodes.component_slice
        b = p_dynamic_w.shape[0]
        factors = [f for _, f in classes]
        if len(classes) == 1:
            # One class: rows are solved independently, so the loop runs
            # in the given row order and needs no permutation.
            order = None
            bounds = [0, b]
            covered = len(classes[0][0])
            p_dyn, t_comp = p_dynamic_w, t_guess_k
        else:
            # Position j of the loop holds row order[j]: class c owns
            # positions bounds[c]:bounds[c + 1], so its live rows are one
            # run of the ascending live positions.
            order = np.concatenate([rows for rows, _ in classes])
            bounds = [0, *accumulate(len(rows) for rows, _ in classes)]
            covered = order.size
            p_dyn, t_comp = p_dynamic_w[order], t_guess_k[order]
        if covered != b:
            raise ThermalModelError(
                f"classes cover {covered} rows of a batch of {b}"
            )
        # The working arrays hold the live rows only; ``live`` holds
        # their positions (None: every position, in order). Outputs are
        # allocated once a row converges ahead of the rest.
        live = None
        t_out = p_leak_out = None
        prev_peak = np.inf
        for _ in range(self.max_iterations):
            obs.incr("thermal.leakage_passes")
            p_leak = self.leakage_fn(t_comp)
            p_total = p_dyn + p_leak
            cuts = bounds
            if live is not None and len(factors) > 1:
                cuts = np.searchsorted(live, bounds).tolist()
            parts = [
                solver.solve_many(
                    p_total[lo:hi], f.fan_level, f.activation, factorization=f
                )
                for f, lo, hi in zip(factors, cuts, cuts[1:])
                if hi > lo
            ]
            t_nodes = parts[0] if len(parts) == 1 else np.concatenate(parts)
            t_comp = t_nodes[:, comp]
            peak = t_comp.max(axis=1)
            residual = np.abs(peak - prev_peak)
            done = residual < self.tolerance_k
            n_done = np.count_nonzero(done)
            if n_done == done.size and live is None and order is None:
                return t_nodes, p_leak
            if n_done:
                if t_out is None:
                    t_out = np.empty((b, t_nodes.shape[1]))
                    p_leak_out = np.empty((b, p_leak.shape[1]))
                pos = np.flatnonzero(done) if live is None else live[done]
                rows = pos if order is None else order[pos]
                t_out[rows] = t_nodes[done]
                p_leak_out[rows] = p_leak[done]
                if n_done == done.size:
                    return t_out, p_leak_out
                keep = ~done
                live = np.flatnonzero(keep) if live is None else live[keep]
                p_dyn, t_comp, peak = p_dyn[keep], t_comp[keep], peak[keep]
            prev_peak = peak
        raise ConvergenceError(
            "temperature-leakage loop did not converge",
            iterations=self.max_iterations,
            residual=float(residual[~done].max()),
        )
