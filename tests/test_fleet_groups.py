"""Node groups: the fleet loop's carried lockstep is exact.

A group's row stands for every member node, so the partition must only
ever hold nodes that are byte-equal in state and input: a split keys
on (group, routed share bytes), a merge on the full state row, and a
hash collision must never join different rows. The end-to-end check
runs a fleet whose groups split and merge against the per-node
reference (every node its own group, stepped by the sequential loop).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fleet.groups as groups_mod
import repro.fleet.sim as sim_mod
from repro.fleet import FleetConfig
from repro.fleet.groups import NodeGroups
from repro.fleet.sim import FleetSim
from repro.fleet.traces import fleet_demand
from repro.server.platform import build_server_system


@pytest.fixture(scope="module")
def platform():
    return build_server_system()


def _state(n_groups, rng):
    """Per-group full state rows: temperatures, backlog, fan, TEC, DVFS."""
    return [
        rng.uniform(300.0, 340.0, size=(n_groups, 5)),
        rng.uniform(0.0, 1e9, size=(n_groups, 4)),
        rng.integers(1, 7, size=n_groups),
        rng.integers(0, 2, size=(n_groups, 3)).astype(float),
        rng.integers(0, 5, size=(n_groups, 4)),
    ]


def _bytes(row_arrays, i):
    return b"".join(np.ascontiguousarray(a[i]).tobytes() for a in row_arrays)


def test_split_by_share_keeps_members_bit_equal_to_their_row():
    rng = np.random.default_rng(1)
    groups = NodeGroups(9)
    state = _state(1, rng)
    # Two of nine nodes get one more quantum (the round-robin remainder);
    # -0.0 and 0.0 compare equal but are different bytes.
    shares = np.array([2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, -0.0, 0.0])
    parent = groups.split(shares)
    assert parent is not None
    state = [a[parent] for a in state]
    assert groups.n_groups == 4
    assert groups.sizes.sum() == 9
    per_node = [groups.expand(a) for a in state]
    share_of = shares[groups.first][groups.group_of]
    for i in range(9):
        assert share_of[i].tobytes() == shares[i].tobytes()
        assert _bytes(per_node, i) == _bytes(state, 0)
    # The same shares again split nothing.
    assert groups.split(shares) is None


def test_merge_joins_only_byte_equal_full_state_rows():
    rng = np.random.default_rng(2)
    groups = NodeGroups(8)
    groups.split(np.repeat([1.0, 2.0, 3.0, 4.0], 2))
    assert groups.n_groups == 4
    t, backlog, fan, tec, dvfs = (np.repeat(a, 4, axis=0) for a in _state(1, rng))
    # Group 1 is group 0 one ulp warmer in one temperature; group 2 is
    # group 0 with another backlog only; group 3 equals group 0.
    t[1, 3] = np.nextafter(t[1, 3], np.inf)
    backlog[2, 0] += 1.0
    keep = groups.merge(t, backlog, fan, tec, dvfs)
    assert list(keep) == [0, 1, 2]
    assert groups.n_groups == 3
    assert list(groups.group_of) == [0, 0, 1, 1, 2, 2, 0, 0]
    assert list(groups.sizes) == [4, 2, 2]
    # Nothing left to merge.
    rows = [a[keep] for a in (t, backlog, fan, tec, dvfs)]
    assert groups.merge(*rows) is None


def test_constant_hash_never_merges_different_groups(monkeypatch):
    rng = np.random.default_rng(3)
    groups = NodeGroups(12)
    groups.split(np.arange(12.0) % 6)  # group k holds nodes k and k + 6
    assert groups.n_groups == 6
    pool = _state(3, rng)
    state = [a[[0, 1, 0, 2, 1, 0]] for a in pool]
    # A constant hash puts every group in one bucket: only the compare
    # against the bucket's first row may merge.
    monkeypatch.setattr(
        groups_mod, "_hash_weights", lambda width: np.zeros(width, np.uint64)
    )
    keep = groups.merge(*state)
    per_node = [groups.expand(a[keep]) for a in state]
    expect = [a[np.arange(12) % 6] for a in state]
    for i in range(12):
        assert _bytes(per_node, i) == _bytes(expect, i)
    # Groups 0, 2 and 5 equal the first row and join it; groups 1 and 4
    # are equal too, but unverified, so they stand alone.
    assert groups.n_groups == 4


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_nodes=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=30, deadline=None)
def test_grouped_walk_matches_per_node_walk(seed, n_nodes):
    """Split, step and merge over a toy plant keep every node's row
    byte-equal to a per-node walk, and never hold two equal groups."""
    rng = np.random.default_rng(seed)
    groups = NodeGroups(n_nodes)
    g_state = np.full((1, 2), 1.0)
    n_state = np.full((n_nodes, 2), 1.0)

    def step(state, share):
        # Saturating: equal-share nodes with different histories can
        # meet again, so merges happen.
        return np.minimum(np.round(state * 0.5 + share[:, None], 1), 4.0)

    for _ in range(12):
        shares = rng.choice([0.0, 1.0, 2.0, 3.0], size=n_nodes)
        parent = groups.split(shares)
        if parent is not None:
            g_state = g_state[parent]
        g_state = step(g_state, shares[groups.first])
        n_state = step(n_state, shares)
        keep = groups.merge(g_state)
        if keep is not None:
            g_state = g_state[keep]
        assert np.array_equal(groups.expand(g_state), n_state)
        assert len({r.tobytes() for r in g_state}) == groups.n_groups
        assert groups.sizes.sum() == n_nodes


def _run(platform, cfg):
    demand = fleet_demand(
        cfg.trace, cfg.duration_s, seed=cfg.seed, scale=cfg.scale,
        block_s=cfg.block_s,
    )
    return FleetSim(platform, cfg, demand).run()


@pytest.mark.parametrize(
    "fleet",
    [
        # 63 nodes share 64 quanta: one node a step gets two, so a group
        # splits on every step; cohorts meet again once a demand
        # block's quanta have evened out their backlogs.
        pytest.param(
            dict(n_nodes=63, duration_s=60, scale=1.3), id="split-merge"
        ),
        # At x2 demand, saturated cohorts run at activity 1 and equal
        # temperatures while their backlogs differ: groups apart in
        # backlog alone step equal rows but must not merge.
        pytest.param(
            dict(n_nodes=15, duration_s=120, scale=2.0, seed=7),
            id="backlog-apart",
        ),
    ],
)
def test_split_and_merge_fleet_is_bit_equal_to_per_node(
    platform, monkeypatch, per_node_fleet, fleet
):
    cfg = FleetConfig(trace="wikipedia", **fleet)
    tally = {"splits": 0, "merges": 0, "group_rows": 0}

    class Counted(NodeGroups):
        def split(self, shares):
            parent = super().split(shares)
            tally["splits"] += parent is not None
            tally["group_rows"] += self.n_groups
            return parent

        def merge(self, *rows):
            keep = super().merge(*rows)
            tally["merges"] += keep is not None
            return keep

    monkeypatch.setattr(sim_mod, "NodeGroups", Counted)
    grouped = _run(platform, cfg)
    assert tally["splits"] > 0 and tally["merges"] > 0
    # The stepper advances one row per group, equal rows included.
    assert grouped.solved_rows == tally["group_rows"]

    per_node_fleet()
    reference = _run(platform, cfg)
    assert grouped.energy_j == reference.energy_j
    assert grouped.inst_served == reference.inst_served
    assert grouped.digest == reference.digest


@pytest.mark.parametrize("n_nodes", [5, 12])
def test_short_fleet_float_sums_match_per_node(platform, per_node_fleet, n_nodes):
    # Over three intervals the run totals are three per-interval sums,
    # so a group's power or served work weighted by its size, instead
    # of summed over the node-order expansion, shows in the last bit
    # before a long run's accumulators absorb it.
    cfg = FleetConfig(
        n_nodes=n_nodes, duration_s=3, trace="wikipedia", scale=1.37
    )
    grouped = _run(platform, cfg)
    per_node_fleet()
    reference = _run(platform, cfg)
    assert grouped.energy_j == reference.energy_j
    assert grouped.inst_served == reference.inst_served
    assert grouped.digest == reference.digest
