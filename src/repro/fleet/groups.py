"""Node groups: the fleet loop carries lockstep across intervals.

A homogeneous fleet starts every node from one tiled warm state, and
the routers split work equally between equal nodes, so whole cohorts of
nodes stay bit-identical for long stretches: the 64-node diurnal day is
one cohort on every stepped interval, the 56-node overload hour about
seven. :class:`~repro.fleet.sim.FleetSim` therefore keeps one state row
per **group** of bit-equal nodes, and :class:`NodeGroups` holds the
partition: ``group_of`` maps each node to its group's row.

Three operations keep the partition exact:

* :meth:`NodeGroups.split`, after routing: a group whose members were
  routed different shares (the round-robin remainder) splits, keyed on
  (group, share bytes), so every member of a group sees the same input.
* :meth:`NodeGroups.merge`, after the step: groups whose full state rows
  are byte-equal join again. A hash proposes and a compare verifies
  (:func:`~repro.fleet.stepper.distinct_rows`), so a collision costs a
  missed merge, never a wrong one.
* :meth:`NodeGroups.expand`: a per-group array in node order, for the
  router's view, the float sums across nodes and the outputs.

:class:`PerNodeGroups` is the reference partition: every node its own
group, never split and never merged. With it, and with
:class:`~repro.fleet.stepper.SequentialStepper` as the plant, the fleet
loop is the engine-per-node loop the equivalence tests and
``benchmarks/bench_fleet.py`` compare against.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.stepper import distinct_rows


class NodeGroups:
    """Partition of a fleet's nodes into groups of bit-equal state.

    ``group_of`` is the ``(n_nodes,)`` group index of every node,
    ``sizes`` the member count of every group, and ``first`` one member
    of every group. A fleet starts as one group.
    """

    def __init__(self, n_nodes: int):
        self.group_of = np.zeros(int(n_nodes), dtype=np.intp)
        self.sizes = np.array([int(n_nodes)], dtype=np.intp)
        self.first = np.zeros(1, dtype=np.intp)

    @property
    def n_groups(self) -> int:
        return self.sizes.size

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Per-group rows ``x`` as per-node rows, in node order."""
        return x[self.group_of]

    def count(self, mask: np.ndarray) -> int:
        """Nodes in the groups where the per-group ``mask`` holds."""
        return int(self.sizes[mask].sum())

    def split(self, shares: np.ndarray) -> np.ndarray | None:
        """Split groups whose members were routed different shares.

        ``shares`` is the router's ``(n_nodes,)`` output. Returns, for
        every new group, the index of the group it came from (gather the
        state rows with it), or ``None`` when no group splits. After the
        call ``shares[self.first]`` is the share of every group.
        """
        bits = shares.view(np.int64)
        if (bits == bits[self.first][self.group_of]).all():
            return None
        # Sort nodes by (group, share bytes); a stable sort keeps each
        # run's lowest node first, and every run is one new group.
        order = np.lexsort((bits, self.group_of))
        g, b = self.group_of[order], bits[order]
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = (g[1:] != g[:-1]) | (b[1:] != b[:-1])
        reps = order[starts]
        self.group_of = np.empty_like(order)
        self.group_of[order] = np.cumsum(starts) - 1
        self.sizes = np.bincount(self.group_of)
        self.first = reps
        return g[starts]

    def merge(self, *rows: np.ndarray) -> np.ndarray | None:
        """Join groups whose ``rows`` are byte-equal in every array.

        Returns the indices of the surviving groups' rows (gather every
        per-group array with it), or ``None`` when nothing merges.
        """
        if self.n_groups == 1:
            return None
        reps, inverse = distinct_rows(*rows)
        if reps.size == self.n_groups:
            return None
        self.group_of = inverse[self.group_of]
        self.sizes = np.bincount(self.group_of)
        self.first = self.first[reps]
        return reps


class PerNodeGroups(NodeGroups):
    """Reference partition: every node its own group, never merged."""

    def __init__(self, n_nodes: int):
        self.group_of = np.arange(int(n_nodes))
        self.sizes = np.ones(int(n_nodes), dtype=np.intp)
        self.first = self.group_of

    def split(self, shares: np.ndarray) -> None:
        return None

    def merge(self, *rows: np.ndarray) -> None:
        return None
