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
  (:func:`distinct_rows`), so a collision costs a missed merge, never a
  wrong one. Groups apart only in backlog stay apart and step as rows
  of their own.
* :meth:`NodeGroups.expand`: a per-group array in node order, for the
  router's view, the float sums across nodes and the outputs.

:class:`PerNodeGroups` is the reference partition: every node its own
group, never split and never merged. With it, and with
:class:`~repro.fleet.stepper.SequentialStepper` as the plant, the fleet
loop is the engine-per-node loop the equivalence tests and
``benchmarks/bench_fleet.py`` compare against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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
    so a hash collision costs a missed merge, never a wrong one. Equal
    rows hash equal, so when every hash is distinct so is every row,
    and the compare is skipped.
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
    # Fold each word's high half into its low half first: a round float
    # (1.0, 0.5, ...) has all-zero low bits, and a product modulo 2**64
    # keeps only the low bits of its factors.
    h = (words ^ (words >> np.uint64(32))) @ _hash_weights(words.shape[1])
    first: dict[int, int] = {}
    # Each row's first row with the same hash.
    rep = [first.setdefault(x, j) for j, x in enumerate(h.tolist())]
    if len(first) == n:
        return np.arange(n), np.arange(n)
    rep = np.array(rep)
    same = (words == words[rep]).all(axis=1)
    if not same.all():  # a collision: unverified rows stand alone
        rep = np.where(same, rep, np.arange(n))
    reps = np.flatnonzero(rep == np.arange(n))
    return reps, np.searchsorted(reps, rep)


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
