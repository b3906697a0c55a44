"""Fleet plant stepper: the batched class-grouped kernel.

Advancing a fleet one control interval means, for every node: dynamic
power from (activity, DVFS), the temperature-leakage fixed point at the
node's actuators, one transient relaxation step, and the TEC electrical
power at the new temperatures. :class:`BatchedStepper` computes that as
a handful of NumPy-batched operations; it is the fleet's one plant
path. :class:`SequentialStepper` is the per-node reference loop (the
chain an engine-per-node design would pay): the equivalence tests and
``benchmarks/bench_fleet.py`` compare against it, and the end-to-end
tracer times it by name, so it stays here rather than in the tests.

Nodes sharing an actuator setting ``(fan_level, tec)`` share a
conductance matrix, so their leakage fixed points are one
:meth:`~repro.thermal.leakage_loop.LeakageCoupledSolver.solve_many`
call (multi-RHS solves against a single cached LU), and their
relaxation factors are one cached
:meth:`~repro.thermal.transient.PaperTransient.betas` lookup broadcast
over the rows. Nodes are grouped by
:func:`repro.thermal.keys.exact_actuator_key` — exact, not quantized,
because the fleet policy emits binary TEC activations, so within-class
vectors are *equal* and the shared-actuator precondition of
``solve_many`` holds bit-for-bit.

Before any of that, the batched stepper advances each *distinct* node
row once. A row is the node's (activity, DVFS levels, fan level, TEC
row, temperatures); every output of the step is a function of that row
alone, so byte-identical rows give byte-identical results. A
homogeneous fleet starts every node from one tiled state and the
routers split work equally between equal nodes, so whole cohorts stay
bit-identical in lockstep: the 64-node diurnal day steps 1 distinct row
per interval, the 56-node overload hour 7. :func:`distinct_rows` finds
the representatives (a hash proposes, one compare verifies), the class
kernel runs on them, and the inverse index expands every output back to
all nodes.

Equivalence contract (test-enforced to <= 1e-9 K, in practice exact):
every row the batched stepper produces is bit-identical to the
reference loop's output for that node, because ``solve_many``
reproduces :meth:`~repro.thermal.leakage_loop.LeakageCoupledSolver.solve`
row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from repro.core.system import CMPSystem
from repro.obs import telemetry as obs
from repro.thermal.keys import exact_actuator_key


@dataclass
class StepResult:
    """Per-node plant outputs of one fleet interval."""

    t_nodes_k: np.ndarray  # (n_nodes, n_thermal_nodes)
    p_dyn_w: np.ndarray  # (n_nodes, n_components)
    p_leak_w: np.ndarray  # (n_nodes, n_components)
    p_tec_w: np.ndarray  # (n_nodes,)
    t_steady_k: np.ndarray  # (n_nodes, n_thermal_nodes)


@lru_cache(maxsize=None)
def _hash_weights(width: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers of the row hash, one per word."""
    rng = np.random.default_rng(width)
    w = rng.integers(0, np.iinfo(np.uint64).max, size=width, dtype=np.uint64)
    w |= np.uint64(1)
    w.setflags(write=False)  # shared by every call of this width
    return w


def distinct_rows(*arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Byte-exact distinct rows across row-aligned ``arrays``.

    Returns ``(reps, inverse)``: ``reps`` holds ascending indices of one
    representative per distinct row, and row ``i`` equals row
    ``reps[inverse[i]]`` of every array byte for byte. A multiplicative
    hash over each row's ``uint64`` words proposes the groups and one
    vectorized compare verifies every row against its representative,
    so a hash collision costs a missed merge, never a wrong one.
    """
    n = len(arrays[0])
    raw = np.concatenate(
        [np.ascontiguousarray(a).reshape(n, -1).view(np.uint8) for a in arrays],
        axis=1,
    )
    pad = -raw.shape[1] % 8
    if pad:
        raw = np.concatenate([raw, np.zeros((n, pad), np.uint8)], axis=1)
    words = raw.view(np.uint64)
    h = words @ _hash_weights(words.shape[1])
    _, first, inverse = np.unique(h, return_index=True, return_inverse=True)
    rep = first[inverse]  # each row's first row with the same hash
    same = (words == words[rep]).all(axis=1)
    if not same.all():  # a collision: unverified rows stand alone
        rep = np.where(same, rep, np.arange(n))
    reps = np.flatnonzero(rep == np.arange(n))
    return reps, np.searchsorted(reps, rep)


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
    """Distinct-row, class-grouped kernel: one solve_many per class."""

    def __init__(self, system: CMPSystem):
        self.system = system
        self.class_groups = 0
        self.solved_rows = 0

    def _advance_rows(
        self,
        activity: np.ndarray,
        dvfs_levels: np.ndarray,
        fan_levels: np.ndarray,
        tec: np.ndarray,
        t_nodes_k: np.ndarray,
        dt_s: float,
    ) -> tuple[StepResult, int]:
        """The class-grouped kernel over the given rows, and its class count."""
        sys = self.system
        comp = sys.nodes.component_slice
        n = t_nodes_k.shape[0]
        p_dyn = sys.power.component_power.dynamic_power_many(
            activity, dvfs_levels
        )
        t_new = np.empty_like(t_nodes_k)
        t_steady = np.empty_like(t_nodes_k)
        p_leak = np.empty_like(p_dyn)
        p_tec = np.empty(n)

        groups: dict[tuple, list[int]] = {}
        for i in range(n):
            key = exact_actuator_key(int(fan_levels[i]), tec[i])
            groups.setdefault(key, []).append(i)

        for members in groups.values():
            idx = np.asarray(members, dtype=np.intp)
            fan = int(fan_levels[idx[0]])
            tec_row = tec[idx[0]]
            t_s, p_l = sys.plant_thermal.solve_many(
                p_dyn[idx], fan, tec_row, t_nodes_k[idx][:, comp]
            )
            beta = sys.transient.betas(dt_s, fan, tec_row)
            t_n = (1.0 - beta) * t_s + beta * t_nodes_k[idx]
            t_steady[idx] = t_s
            p_leak[idx] = p_l
            t_new[idx] = t_n
            p_tec[idx] = sys.tec_power_many(tec_row, t_n)
        return StepResult(t_new, p_dyn, p_leak, p_tec, t_steady), len(groups)

    def advance(
        self,
        activity: np.ndarray,
        dvfs_levels: np.ndarray,
        fan_levels: np.ndarray,
        tec: np.ndarray,
        t_nodes_k: np.ndarray,
        dt_s: float,
    ) -> StepResult:
        rows = (activity, dvfs_levels, fan_levels, tec, t_nodes_k)
        reps, inverse = distinct_rows(*rows)
        if reps.size == t_nodes_k.shape[0]:
            res, n_groups = self._advance_rows(*rows, dt_s)
        else:
            res, n_groups = self._advance_rows(
                *(np.asarray(a)[reps] for a in rows), dt_s
            )
            res = StepResult(
                *(getattr(res, f.name)[inverse] for f in fields(StepResult))
            )

        self.class_groups += n_groups
        self.solved_rows += reps.size
        obs.incr("fleet.batched_steps")
        obs.incr("fleet.class_groups", n_groups)
        obs.incr("fleet.solved_rows", reps.size)
        return res
