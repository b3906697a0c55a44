"""Fleet plant stepper: the fleet's counted call into the plant kernel.

Advancing a fleet one control interval is one
:meth:`~repro.core.system.CMPSystem.advance` call over the node rows,
the plant kernel the simulation engine steps its one chip with too:
dynamic power, one lockstep leakage fixed point over every actuation
class, the transient relaxation and the TEC electrical power.
:class:`BatchedStepper` is the fleet's plant path: that call plus the
fleet counters. :class:`SequentialStepper` is the per-node reference
loop (the scalar chain an engine-per-node design would pay): the
equivalence tests and ``benchmarks/bench_fleet.py`` compare against it,
and the end-to-end tracer times it by name, so it stays here rather
than in the tests.

Lockstep across nodes is carried by the fleet loop, not found here:
:class:`~repro.fleet.sim.FleetSim` keeps one state row per group of
bit-equal nodes (:mod:`repro.fleet.groups`) and hands the stepper one
row per group, so the 64-node diurnal day is a one-row call on every
interval. The stepper advances every row it is given: groups apart
only in backlog could share a row, but too rarely for a per-step
search to pay (docs/PERFORMANCE.md §6, step 0).

Equivalence contract (test-enforced to <= 1e-9 K, in practice exact):
every row the batched stepper produces is bit-identical to the
reference loop's output for that node, because ``solve_many``
reproduces :meth:`~repro.thermal.leakage_loop.LeakageCoupledSolver.solve`
row by row.
"""

from __future__ import annotations

import numpy as np

from repro.core.system import CMPSystem, StepResult
from repro.obs import telemetry as obs


class SequentialStepper:
    """Per-node reference loop: one engine-style solve chain per node.

    Not a plant path of the fleet; the tests and ``bench_fleet.py``
    check :class:`BatchedStepper` against it.
    """

    def __init__(self, system: CMPSystem):
        self.system = system

    def advance(
        self,
        activity: np.ndarray,
        dvfs_levels: np.ndarray,
        fan_levels: np.ndarray,
        tec: np.ndarray,
        t_nodes_k: np.ndarray,
        dt_s: float,
    ) -> StepResult:
        sys = self.system
        comp = sys.nodes.component_slice
        n = t_nodes_k.shape[0]
        t_new = np.empty_like(t_nodes_k)
        t_steady = np.empty_like(t_nodes_k)
        p_dyn = np.empty((n, sys.nodes.n_components))
        p_leak = np.empty((n, sys.nodes.n_components))
        p_tec = np.empty(n)
        for i in range(n):
            fan = int(fan_levels[i])
            p_dyn[i] = sys.power.component_power.dynamic_power_w(
                activity[i], dvfs_levels[i]
            )
            t_steady[i], p_leak[i] = sys.plant_thermal.solve(
                p_dyn[i], fan, tec[i], t_guess_k=t_nodes_k[i][comp]
            )
            t_new[i] = sys.transient.step(
                t_nodes_k[i], t_steady[i], dt_s, fan, tec[i]
            )
            p_tec[i] = sys.tec_power_w(tec[i], t_new[i])
        return StepResult(t_new, p_dyn, p_leak, p_tec, t_steady)


class BatchedStepper:
    """The fleet's plant path: one kernel call per interval, counted."""

    def __init__(self, system: CMPSystem):
        self.system = system
        self.class_groups = 0
        self.solved_rows = 0

    def advance(
        self,
        activity: np.ndarray,
        dvfs_levels: np.ndarray,
        fan_levels: np.ndarray,
        tec: np.ndarray,
        t_nodes_k: np.ndarray,
        dt_s: float,
    ) -> StepResult:
        res, n_classes = self.system.advance(
            activity, dvfs_levels, fan_levels, tec, t_nodes_k, dt_s
        )
        n_rows = t_nodes_k.shape[0]
        self.class_groups += n_classes
        self.solved_rows += n_rows
        obs.incr("fleet.batched_steps")
        obs.incr("fleet.class_groups", n_classes)
        obs.incr("fleet.solved_rows", n_rows)
        return res
