"""Fleet-scale datacenter simulation of S8-style TECfan servers.

:class:`FleetSim` and :func:`run_fleet` keep the fleet's state in
arrays with one row per **node group**: nodes whose state rows are
byte-equal share one row, and a ``group_of`` index maps every node to
its group (:class:`~repro.fleet.groups.NodeGroups`). Each control
interval routes the arrival stream over per-node views gathered from the
group rows, splits a group only where its members were routed different
shares, advances one plant row per group through the class-grouped
batched kernel (:mod:`repro.fleet.stepper`), applies the vectorized
TECfan policy (:mod:`repro.fleet.control`) once per group, and merges
groups whose full state rows (temperatures, backlog, fan, TEC, DVFS)
became byte-equal. A homogeneous fleet in lockstep thus costs one row
per interval whatever its size.

Accounting stays bit-identical to a per-node loop. Integer tallies
(latency bucket counts, violation and throttle node-intervals) add each
group's member count. Float reductions across nodes (power, served
work, the status backlog) sum the node-order expansion
``x[group_of]``, because ``n`` equal doubles do not always sum to
exactly ``n`` times one of them. Outputs and live-status node tables
expand to nodes.

Fleet-level quiescent fast-forward: when every node is settled (no
actuator changes, identical routed arrivals, drained backlogs, and
``|T - T_steady|`` within tolerance) the loop jumps whole blocks of
intervals at once — bounded by the next demand-block change and the
next fan decision — accounting energy, served work, and latency
analytically. With the piecewise-constant diurnal stream this is what
makes 1000-node multi-day runs tractable.

Determinism: a fleet run is one in-process loop and a pure function of
(platform, config), so the :class:`FleetResult` digest is reproducible
across processes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro import units
from repro.core.problem import EnergyProblem
from repro.exceptions import ConfigurationError
from repro.fleet.control import FleetPolicy
from repro.fleet.groups import NodeGroups
from repro.fleet.router import RouterView, make_router
from repro.fleet.stepper import BatchedStepper
from repro.fleet.traces import fleet_demand
from repro.obs import telemetry as obs

#: Latency histogram bucket edges [s]: an exact-zero bucket plus 50
#: log-spaced buckets from 1 ms to 100 s. Fixed edges make the bucket
#: counts integer tallies and the p99 deterministic.
LATENCY_EDGES_S: np.ndarray = np.concatenate(
    ([0.0], np.logspace(-3.0, 2.0, 51))
)
LATENCY_EDGES_S.setflags(write=False)

_NO_SHARDS = "fleet runs are one serial loop; sharding was removed"


@dataclass
class FleetConfig:
    """Knobs of a fleet run (see docs/FLEET.md for the tour)."""

    n_nodes: int = 64
    duration_s: int = 3600
    trace: str = "diurnal"
    seed: int = 2009
    scale: float = 1.0
    router: str = "round-robin"
    fast_forward: bool = True
    #: Accepted only as 1 (``_NO_SHARDS``); kept for callers that pin it.
    shards: int = 1

    # Model constants: fixed for every run, readable as ``cfg.dt_s`` etc.
    dt_s: ClassVar[float] = 1.0
    fan_period_s: ClassVar[float] = 10.0
    block_s: ClassVar[int] = 60
    #: Hard stop at ``duration_s * drain_factor`` while backlogs drain.
    drain_factor: ClassVar[float] = 1.5
    ff_quiet: ClassVar[int] = 2
    ff_max: ClassVar[int] = 512
    #: Settledness bound for holding temperatures across a jump [K].
    ff_temp_tol_k: ClassVar[float] = 1e-4
    #: Accounting unit: a core at peak frequency serves this many
    #: requests per second (defines instructions-per-request).
    requests_per_core_s: ClassVar[float] = 1000.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("fleet needs at least one node")
        if self.duration_s < 1:
            raise ConfigurationError("fleet duration must be >= 1 s")
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ConfigurationError(
                f"fleet scale must be finite and >= 0, got {self.scale!r}"
            )
        if self.shards != 1:
            raise ConfigurationError(f"{_NO_SHARDS} (shards={self.shards!r})")


@dataclass
class FleetResult:
    """One fleet run: run totals, derived metrics and final node state."""

    n_nodes: int
    router: str
    intervals: int
    ff_intervals: int
    sim_time_s: float
    energy_j: float
    inst_served: float
    requests_served: float
    requests_routed: float
    latency_counts: np.ndarray
    peak_temp_c: float
    violation_node_intervals: int
    throttled_node_intervals: int
    node_intervals: int
    class_groups: int
    solved_rows: int
    final_t_nodes_k: np.ndarray
    final_backlog_inst: np.ndarray
    final_fan: np.ndarray
    final_tec: np.ndarray
    final_dvfs: np.ndarray
    #: SHA-256 over the numeric outcome (bit-exact oracle).
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        # The literal 0 and the outer hash over the inner hex digest keep
        # every pinned digest (e2e store, fleet_small.txt) valid.
        h = hashlib.sha256()
        h.update(
            repr(
                (
                    0,
                    self.n_nodes,
                    self.intervals,
                    self.ff_intervals,
                    self.sim_time_s,
                    self.energy_j,
                    self.inst_served,
                    self.requests_routed,
                    self.peak_temp_c,
                    self.violation_node_intervals,
                    self.throttled_node_intervals,
                )
            ).encode()
        )
        for arr in (
            self.latency_counts,
            self.final_t_nodes_k,
            self.final_backlog_inst,
            self.final_fan,
            self.final_tec,
            self.final_dvfs,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        self.digest = hashlib.sha256(h.hexdigest().encode()).hexdigest()

    @property
    def batched_steps(self) -> int:
        """Stepper advances: one per executed interval."""
        return self.intervals

    @property
    def avg_power_w(self) -> float:
        return self.energy_j / self.sim_time_s if self.sim_time_s > 0 else 0.0

    @property
    def energy_per_request_j(self) -> float:
        served = self.requests_served
        return self.energy_j / served if served > 0 else 0.0

    @property
    def p99_latency_s(self) -> float:
        return latency_quantile(self.latency_counts, 0.99)

    @property
    def violation_rate(self) -> float:
        n = self.node_intervals
        return self.violation_node_intervals / n if n else 0.0

    @property
    def throttle_rate(self) -> float:
        n = self.node_intervals
        return self.throttled_node_intervals / n if n else 0.0

    def summary(self) -> dict:
        """Flat dict for the CLI / JSON output."""
        return {
            "n_nodes": self.n_nodes,
            "router": self.router,
            "sim_time_s": self.sim_time_s,
            "intervals": self.intervals,
            "ff_intervals": self.ff_intervals,
            "energy_j": self.energy_j,
            "avg_power_w": self.avg_power_w,
            "requests_served": self.requests_served,
            "requests_routed": self.requests_routed,
            "energy_per_request_j": self.energy_per_request_j,
            "p99_latency_s": self.p99_latency_s,
            "peak_temp_c": self.peak_temp_c,
            "violation_rate": self.violation_rate,
            "throttle_rate": self.throttle_rate,
            "batched_steps": self.batched_steps,
            "class_groups": self.class_groups,
            "solved_rows": self.solved_rows,
            "digest": self.digest,
        }


def latency_quantile(counts: np.ndarray, q: float) -> float:
    """Quantile from fixed-edge bucket counts (upper-edge convention)."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    cum = np.cumsum(counts)
    idx = int(np.searchsorted(cum, q * total, side="left"))
    idx = min(idx, len(LATENCY_EDGES_S) - 1)
    return float(LATENCY_EDGES_S[idx])


class FleetSim:
    """The fleet's vectorized simulation loop.

    ``demand`` is the per-second utilization stream; the fleet is
    offered ``u * peak_ips * n_cores * n_nodes`` instructions per
    second of it. Temperatures, actuators, and backlogs live in arrays
    with one row per group of bit-equal nodes, and the plant advances
    through the batched kernel.
    """

    def __init__(
        self,
        platform,
        cfg: FleetConfig,
        demand: np.ndarray,
        status_path=None,
        status_every_s: float = 1.0,
    ):
        self.platform = platform
        self.cfg = cfg
        self.n_nodes = cfg.n_nodes
        self.demand = demand
        sys = platform.system
        self.system = sys
        self.problem = EnergyProblem(t_threshold_c=platform.t_threshold_c)
        self.policy = FleetPolicy(
            system=sys,
            t_threshold_c=platform.t_threshold_c,
            peak_ips=platform.params.peak_ips,
        )
        self.router = make_router(cfg.router, self.n_nodes, dt_s=cfg.dt_s)
        self.stepper = BatchedStepper(sys)
        self.inst_per_request = (
            platform.params.peak_ips / cfg.requests_per_core_s
        )
        self._fan_power = np.array(
            [sys.fan.power_w(lv) for lv in range(1, sys.fan.n_levels + 1)]
        )
        self._status = None
        if status_path is not None:
            from repro.obs.live import StatusReporter

            self._status = StatusReporter(
                status_path,
                "fleet",
                every_s=status_every_s,
                label=f"fleet x{self.n_nodes} {cfg.router}",
                total=cfg.duration_s * cfg.drain_factor,
                t_threshold_c=platform.t_threshold_c,
            )

    # ------------------------------------------------------------------
    def _initial_temps(self) -> np.ndarray:
        """Idle-power warm start: one solve, the row every node starts from."""
        sys = self.system
        n_cores = sys.n_cores
        act0 = np.zeros(n_cores)
        lv0 = np.full(n_cores, sys.dvfs.max_level, dtype=int)
        p0 = sys.power.component_power.dynamic_power_w(act0, lv0)
        tec0 = np.zeros(sys.n_tec_devices)
        t0, _ = sys.plant_thermal.solve(p0, sys.fan.n_levels, tec0)
        return t0

    def _next_demand_change(self, idx: int) -> int:
        """First second index > ``idx`` where the stream value changes."""
        d = self.demand
        if idx + 1 >= len(d):
            return len(d)
        changes = self._change_points
        j = int(np.searchsorted(changes, idx, side="right"))
        return int(changes[j]) if j < len(changes) else len(d)

    def run(self) -> FleetResult:
        cfg = self.cfg
        sys = self.system
        n = self.n_nodes
        n_cores = sys.n_cores
        comp = sys.nodes.component_slice
        dt = cfg.dt_s
        peak_ips = self.platform.params.peak_ips
        fan_every = max(1, int(round(cfg.fan_period_s / dt)))
        max_time_s = cfg.duration_s * cfg.drain_factor
        thr_c = self.platform.t_threshold_c
        viol_c = thr_c + self.problem.violation_margin_c

        d = np.asarray(self.demand, dtype=float)
        self._change_points = np.flatnonzero(np.diff(d) != 0.0) + 1

        obs.incr("fleet.nodes", n)

        # Per-group state arrays: one row per group of bit-equal nodes;
        # ``groups`` maps nodes to rows.
        groups = NodeGroups(n)
        expand = groups.expand
        g = groups.n_groups
        t_rows = np.tile(self._initial_temps(), (g, 1))
        backlog = np.zeros((g, n_cores))
        fan_arr = np.full(g, sys.fan.n_levels, dtype=int)
        tec_rows = np.zeros((g, sys.n_tec_devices))
        dvfs_rows = np.full((g, n_cores), sys.dvfs.max_level, dtype=int)

        # Accumulators.
        counts = np.zeros(len(LATENCY_EDGES_S), dtype=np.int64)
        energy_j = 0.0
        inst_served = 0.0
        requests_routed = 0.0
        intervals = 0
        ff_intervals = 0
        peak_run_c = float("-inf")
        viol_node_iv = 0
        throttle_node_iv = 0
        node_iv = 0

        prev_shares = None
        quiet = 0
        i = 0
        cap_per_level = self.policy._cap_table
        status = self._status

        def peaks(t_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Per-tile and per-node peaks [degC] of a temperature field."""
            tile = self.policy.tile_peaks_c(units.k_to_c(t_rows[:, comp]))
            return tile, tile.max(axis=1)

        # Peaks of the current field: computed once after each step and
        # reused by the next interval's router (fast-forward holds them).
        _, node_peak = peaks(t_rows)

        def status_fields() -> dict:
            """Live-status fields: run totals so far, and the state of
            the last executed interval (fast-forward holds it)."""
            return dict(
                time_s=i * dt,
                energy_j=energy_j,
                power_w=p_total,
                run_peak_c=peak_run_c,
                node_peak_c=expand(node_peak),
                fan_levels=expand(fan_arr),
                tec_rows=expand(tec_rows),
                backlog_inst=float(expand(backlog).sum()),
                p99_s=latency_quantile(counts, 0.99),
                utilization=u,
                intervals=intervals,
                ff_intervals=ff_intervals,
                class_groups=self.stepper.class_groups,
            )

        while True:
            time_s = i * dt
            arriving_done = time_s >= cfg.duration_s
            if arriving_done and bool(np.all(backlog < 1.0)):
                break
            if time_s >= max_time_s:
                break

            u = 0.0 if arriving_done else float(d[min(int(time_s), len(d) - 1)])
            offered_inst = u * peak_ips * n_cores * n * dt

            cap = cap_per_level[dvfs_rows]

            view = RouterView(
                backlog_inst=expand(backlog.sum(axis=1)),
                peak_temp_c=expand(node_peak),
                capacity_ips=expand(cap.sum(axis=1)),
                t_threshold_c=thr_c,
            )
            if offered_inst > 0.0:
                shares = self.router.split(offered_inst, view)
            else:
                shares = np.zeros(n)
            requests_routed += offered_inst / self.inst_per_request
            obs.incr(
                "fleet.requests_routed",
                int(round(offered_inst / self.inst_per_request)),
            )
            parent = groups.split(shares)
            if parent is not None:
                t_rows, backlog, fan_arr, tec_rows, dvfs_rows, cap = (
                    a[parent]
                    for a in (t_rows, backlog, fan_arr, tec_rows, dvfs_rows, cap)
                )

            arriving = shares[groups.first][:, None] / n_cores
            work = backlog + arriving
            offered_rate = work / dt
            activity = np.minimum(np.maximum(offered_rate / cap, 0.0), 1.0)

            res = self.stepper.advance(
                activity, dvfs_rows, fan_arr, tec_rows, t_rows, dt
            )
            t_rows = res.t_nodes_k

            served = np.minimum(work, cap * dt)
            backlog = work - served
            # Float sums across nodes run over the node-order expansion:
            # n equal doubles do not always sum to exactly n times one.
            served_inst = float(expand(served).sum())
            inst_served += served_inst

            lat = (backlog / cap).max(axis=1)
            # Backlogs are never negative, so every bucket index is in
            # range: the first edge is 0 and the last bucket is open.
            bucket = np.searchsorted(LATENCY_EDGES_S, lat, side="right") - 1
            # Float weights: exact, every tally stays far below 2**53.
            counts += np.bincount(
                bucket, weights=groups.sizes, minlength=counts.size
            ).astype(np.int64)

            p_cores = res.p_dyn_w.sum(axis=1) + res.p_leak_w.sum(axis=1)
            p_node = p_cores + res.p_tec_w + self._fan_power[fan_arr - 1]
            p_total = float(expand(p_node).sum())
            energy_j += p_total * dt

            tile_peak, node_peak = peaks(t_rows)
            peak_run_c = max(peak_run_c, float(node_peak.max()))
            n_viol = groups.count(node_peak > viol_c)
            viol_node_iv += n_viol
            node_iv += n

            tec_new = self.policy.decide_tec(tile_peak, tec_rows)
            dvfs_new, throttled = self.policy.decide_dvfs(
                offered_rate, tile_peak
            )
            n_throttled = groups.count(throttled.any(axis=1))
            throttle_node_iv += n_throttled
            fan_boundary = (i + 1) % fan_every == 0
            fan_new = (
                self.policy.decide_fan(node_peak, fan_arr)
                if fan_boundary
                else fan_arr
            )

            # Same-shape compares: the policy keeps one row per group.
            unchanged = (
                (tec_new == tec_rows).all()
                and (dvfs_new == dvfs_rows).all()
                and (fan_new == fan_arr).all()
            )
            same_arrivals = (
                prev_shares is not None and (shares == prev_shares).all()
            )
            settled = (
                np.abs(t_rows - res.t_steady_k).max() <= cfg.ff_temp_tol_k
            )
            drained = not backlog.any()  # backlogs are never negative
            quiet = (
                quiet + 1
                if (unchanged and same_arrivals and settled and drained)
                else 0
            )

            tec_rows = tec_new
            dvfs_rows = dvfs_new
            fan_arr = fan_new
            prev_shares = shares
            intervals += 1
            i += 1

            keep = groups.merge(t_rows, backlog, fan_arr, tec_rows, dvfs_rows)
            if keep is not None:
                t_rows, backlog, fan_arr, tec_rows, dvfs_rows, node_peak = (
                    a[keep]
                    for a in (
                        t_rows, backlog, fan_arr, tec_rows, dvfs_rows, node_peak
                    )
                )

            if status is not None and status.due():
                status.report(**status_fields())

            # ---- quiescent fast-forward --------------------------------
            if not (
                cfg.fast_forward
                and quiet >= cfg.ff_quiet
                and not arriving_done
            ):
                continue
            # Demand must stay on the block of the interval just
            # executed (index i-1); anything at or past the next change
            # point runs through the classic loop.
            last_idx = min(int((i - 1) * dt), len(d) - 1)
            next_change = self._next_demand_change(last_idx)
            k_demand = int((next_change - i * dt) // dt)
            k_fan = (fan_every - (i % fan_every)) % fan_every
            if k_fan == 0:
                k_fan = fan_every
            k_fan -= 1  # stop before the next fan-decision interval
            k_horizon = int((cfg.duration_s - i * dt) // dt)
            k = min(cfg.ff_max, k_demand, k_fan, k_horizon)
            if k <= 0:
                continue
            energy_j += p_total * dt * k
            inst_served += served_inst * k
            requests_routed += (offered_inst / self.inst_per_request) * k
            counts[0] += k * n
            viol_node_iv += n_viol * k
            throttle_node_iv += n_throttled * k
            node_iv += n * k
            ff_intervals += k
            i += k
            obs.incr("fleet.fast_forwarded_intervals", k)
            obs.incr(
                "fleet.requests_routed",
                int(round((offered_inst / self.inst_per_request) * k)),
            )

        if status is not None and intervals:  # no interval: no state yet
            status.report(done=True, **status_fields())
        return FleetResult(
            n_nodes=n,
            router=cfg.router,
            intervals=intervals,
            ff_intervals=ff_intervals,
            sim_time_s=i * dt,
            energy_j=energy_j,
            inst_served=inst_served,
            requests_served=inst_served / self.inst_per_request,
            requests_routed=requests_routed,
            latency_counts=counts,
            peak_temp_c=peak_run_c,
            violation_node_intervals=viol_node_iv,
            throttled_node_intervals=throttle_node_iv,
            node_intervals=node_iv,
            class_groups=self.stepper.class_groups,
            solved_rows=self.stepper.solved_rows,
            final_t_nodes_k=expand(t_rows),
            final_backlog_inst=expand(backlog),
            final_fan=expand(fan_arr),
            final_tec=expand(tec_rows),
            final_dvfs=expand(dvfs_rows),
        )


def run_fleet(
    cfg: FleetConfig,
    platform=None,
    jobs: int | None = None,
    status_path=None,
    status_every_s: float = 1.0,
) -> FleetResult:
    """Run a fleet simulation in process; a status file is ``fleet``-kind.

    ``jobs`` accepts only ``None`` or ``1``: a fleet run is one serial
    loop, and any other value is refused rather than ignored.
    """
    if jobs not in (None, 1):
        raise ConfigurationError(f"{_NO_SHARDS} (jobs={jobs!r})")
    if platform is None:
        from repro.server.platform import build_server_system

        platform = build_server_system()
    demand = fleet_demand(
        cfg.trace,
        cfg.duration_s,
        seed=cfg.seed,
        scale=cfg.scale,
        block_s=cfg.block_s,
    )
    return FleetSim(
        platform,
        cfg,
        demand,
        status_path=status_path,
        status_every_s=status_every_s,
    ).run()
