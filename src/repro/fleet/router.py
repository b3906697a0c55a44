"""Request routing policies: split the arrival stream across nodes.

Each control interval the fleet has a scalar amount of offered work
(instructions arriving during the interval) that must be split into
per-node shares. Routers are deterministic, vectorized, and stateful
only in ways that serialize trivially (a round-robin cursor), so a
fleet run's routing sequence is a pure function of the stream and the
observed node state.

The router sees a :class:`RouterView` snapshot of the fleet taken at
the *start* of the interval (backlog, temperatures, capacities) — the
same information a front-end load balancer would have — and returns a
``(n_nodes,)`` share vector summing to the offered work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fleet_names import ROUTER_POLICIES


@dataclass
class RouterView:
    """Per-node state snapshot offered to the routing policy.

    Attributes
    ----------
    backlog_inst:
        Total queued instructions per node (sum over cores).
    peak_temp_c:
        Peak die temperature per node [degC].
    capacity_ips:
        Total service capacity per node at current DVFS [IPS].
    t_threshold_c:
        The thermal threshold shared by all nodes [degC].
    """

    backlog_inst: np.ndarray
    peak_temp_c: np.ndarray
    capacity_ips: np.ndarray
    t_threshold_c: float


class Router:
    """Base policy: uniform split (also the N=1 identity router)."""

    name = "identity"

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ConfigurationError("router needs at least one node")
        self.n_nodes = int(n_nodes)

    def split(self, offered_inst: float, view: RouterView) -> np.ndarray:
        """Per-node instruction shares for this interval."""
        return np.full(self.n_nodes, offered_inst / self.n_nodes)

    def _weighted(self, offered_inst: float, w: np.ndarray) -> np.ndarray:
        """Proportional split along non-negative weights, uniform fallback."""
        total = w.sum()
        if not np.isfinite(total) or total <= 0.0:
            return np.full(self.n_nodes, offered_inst / self.n_nodes)
        return offered_inst * (w / total)


class RoundRobinRouter(Router):
    """Cycle request quanta across nodes with a persistent cursor.

    Work is split into ``granularity`` equal quanta per interval; each
    quantum goes to the next node in cyclic order. Over many intervals
    every node receives the same share, but instantaneous assignments
    rotate — the classic DNS/edge round-robin behaviour.
    """

    name = "round-robin"

    def __init__(self, n_nodes: int, granularity: int = 64):
        super().__init__(n_nodes)
        self.granularity = max(int(granularity), n_nodes)
        self._cursor = 0

    def split(self, offered_inst: float, view: RouterView) -> np.ndarray:
        q = self.granularity
        base, extra = divmod(q, self.n_nodes)
        counts = np.full(self.n_nodes, base, dtype=float)
        if extra:
            # extra < n_nodes: the indices are distinct.
            idx = (self._cursor + np.arange(extra)) % self.n_nodes
            counts[idx] += 1.0
            self._cursor = (self._cursor + extra) % self.n_nodes
        return offered_inst * (counts / q)


class LeastLoadedRouter(Router):
    """Send work where the queues are shortest.

    Weights each node by its spare service capacity over the next
    interval — ``max(capacity * dt - backlog, 0)`` — so a node with a
    deep backlog receives nothing until it drains. Falls back to a
    uniform split when every node is saturated.
    """

    name = "least-loaded"

    def __init__(self, n_nodes: int, dt_s: float = 1.0):
        super().__init__(n_nodes)
        self.dt_s = float(dt_s)

    def split(self, offered_inst: float, view: RouterView) -> np.ndarray:
        spare = np.maximum(
            view.capacity_ips * self.dt_s - view.backlog_inst, 0.0
        )
        return self._weighted(offered_inst, spare)


class ThermalAwareRouter(Router):
    """Steer work toward thermally cool nodes with spare capacity.

    The weight is the product of spare capacity (as in least-loaded)
    and thermal headroom below the threshold, clipped at a small floor
    so a fleet running uniformly hot degrades to least-loaded rather
    than starving itself. This is the energy-aware policy: keeping hot
    nodes lighter delays TEC engagement and fan speed-ups fleet-wide.
    """

    name = "thermal"

    def __init__(
        self, n_nodes: int, dt_s: float = 1.0, headroom_floor_c: float = 0.5
    ):
        super().__init__(n_nodes)
        self.dt_s = float(dt_s)
        self.headroom_floor_c = float(headroom_floor_c)

    def split(self, offered_inst: float, view: RouterView) -> np.ndarray:
        spare = np.maximum(
            view.capacity_ips * self.dt_s - view.backlog_inst, 0.0
        )
        headroom = np.maximum(
            view.t_threshold_c - view.peak_temp_c, self.headroom_floor_c
        )
        return self._weighted(offered_inst, spare * headroom)


def make_router(policy: str, n_nodes: int, dt_s: float = 1.0) -> Router:
    """Instantiate a router by CLI policy name."""
    if policy == "identity":
        return Router(n_nodes)
    if policy == "round-robin":
        return RoundRobinRouter(n_nodes)
    if policy == "least-loaded":
        return LeastLoadedRouter(n_nodes, dt_s=dt_s)
    if policy == "thermal":
        return ThermalAwareRouter(n_nodes, dt_s=dt_s)
    raise ConfigurationError(
        f"unknown router policy {policy!r} (expected one of {ROUTER_POLICIES})"
    )
