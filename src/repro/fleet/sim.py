"""Fleet-scale datacenter simulation of S8-style TECfan servers.

:class:`FleetSim` and :func:`run_fleet` keep all per-node state in
``(n_nodes, ...)`` arrays; each control interval routes the arrival
stream, advances every node's plant through the class-grouped batched
kernel (:mod:`repro.fleet.stepper`), and applies the vectorized
per-node TECfan policy (:mod:`repro.fleet.control`). Node groups shard
across the persistent :class:`~repro.parallel.WorkerPool` using the
:func:`~repro.parallel.plan_shards` plan, with journal resume and
live-status heartbeats riding the existing ``parallel_map`` plumbing.

Fleet-level quiescent fast-forward: when every node is settled (no
actuator changes, identical routed arrivals, drained backlogs, and
``|T - T_steady|`` within tolerance) the loop jumps whole blocks of
intervals at once — bounded by the next demand-block change and the
next fan decision — accounting energy, served work, and latency
analytically. With the piecewise-constant diurnal stream this is what
makes 1000-node multi-day runs tractable.

Determinism: a fleet run is a pure function of (platform, config,
shard plan). Shards are independent sub-fleets — each routes its own
proportional share of the stream — so results are invariant to worker
count for a fixed shard count, and the merged
:class:`FleetResult` digest is reproducible across processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import units
from repro.core.problem import EnergyProblem
from repro.exceptions import ConfigurationError
from repro.fleet.control import FleetPolicy
from repro.fleet.router import RouterView, make_router
from repro.fleet.stepper import BatchedStepper
from repro.fleet.traces import fleet_demand
from repro.obs import telemetry as obs
from repro.parallel import parallel_map, plan_shards, resolve_jobs

#: Latency histogram bucket edges [s]: an exact-zero bucket plus 50
#: log-spaced buckets from 1 ms to 100 s. Fixed edges make shard merges
#: a vector add and the p99 deterministic.
LATENCY_EDGES_S: np.ndarray = np.concatenate(
    ([0.0], np.logspace(-3.0, 2.0, 51))
)
LATENCY_EDGES_S.setflags(write=False)


@dataclass
class FleetConfig:
    """Knobs of a fleet run (see docs/FLEET.md for the tour)."""

    n_nodes: int = 64
    duration_s: int = 3600
    dt_s: float = 1.0
    fan_period_s: float = 10.0
    trace: str = "diurnal"
    seed: int = 2009
    scale: float = 1.0
    block_s: int = 60
    router: str = "round-robin"
    #: Hard stop at ``duration_s * drain_factor`` while backlogs drain.
    drain_factor: float = 1.5
    fast_forward: bool = True
    ff_quiet: int = 2
    ff_max: int = 512
    #: Settledness bound for holding temperatures across a jump [K].
    ff_temp_tol_k: float = 1e-4
    #: Accounting unit: a core at peak frequency serves this many
    #: requests per second (defines instructions-per-request).
    requests_per_core_s: float = 1000.0
    #: Shard count: part of the experiment (a router balances only
    #: within its shard), so results never depend on the worker count.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("fleet needs at least one node")
        if self.duration_s < 1:
            raise ConfigurationError("fleet duration must be >= 1 s")
        if self.dt_s <= 0 or self.fan_period_s < self.dt_s:
            raise ConfigurationError("need dt > 0 and fan period >= dt")
        if self.requests_per_core_s <= 0:
            raise ConfigurationError("requests_per_core_s must be > 0")
        if self.shards < 1:
            raise ConfigurationError("fleet needs at least one shard")


@dataclass
class FleetShardResult:
    """One shard's (sub-fleet's) accumulated run outputs."""

    shard: int
    n_nodes: int
    intervals: int
    ff_intervals: int
    sim_time_s: float
    energy_j: float
    inst_served: float
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

    def digest(self) -> str:
        """SHA-256 over the shard's numeric outcome (bit-exact oracle)."""
        h = hashlib.sha256()
        h.update(
            repr(
                (
                    self.shard,
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
        return h.hexdigest()


@dataclass
class FleetResult:
    """Merged fleet metrics across all shards."""

    n_nodes: int
    shards: int
    router: str
    sim_time_s: float
    intervals: int
    ff_intervals: int
    energy_j: float
    avg_power_w: float
    requests_served: float
    requests_routed: float
    energy_per_request_j: float
    p99_latency_s: float
    peak_temp_c: float
    violation_rate: float
    throttle_rate: float
    batched_steps: int
    class_groups: int
    solved_rows: int
    digest: str
    shard_digests: list = field(default_factory=list)
    latency_counts: np.ndarray | None = None

    def summary(self) -> dict:
        """Flat dict for the CLI / JSON output."""
        return {
            "n_nodes": self.n_nodes,
            "shards": self.shards,
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
    """One shard's vectorized simulation loop.

    ``demand`` is the fleet-wide per-second utilization stream; the
    shard offers ``u * peak_ips * n_cores * n_nodes`` of it per second
    (its proportional share). Temperatures, actuators, and backlogs for
    all shard nodes live in arrays, and the plant advances through the
    batched kernel.
    """

    def __init__(
        self,
        platform,
        cfg: FleetConfig,
        n_nodes: int,
        demand: np.ndarray,
        shard: int = 0,
        status_path=None,
        status_every_s: float = 1.0,
    ):
        self.platform = platform
        self.cfg = cfg
        self.n_nodes = int(n_nodes)
        self.demand = demand
        self.shard = int(shard)
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
        """Idle-power warm start, one solve broadcast to every node."""
        sys = self.system
        n_cores = sys.n_cores
        act0 = np.zeros(n_cores)
        lv0 = np.full(n_cores, sys.dvfs.max_level, dtype=int)
        p0 = sys.power.component_power.dynamic_power_w(act0, lv0)
        tec0 = np.zeros(sys.n_tec_devices)
        t0, _ = sys.plant_thermal.solve(p0, sys.fan.n_levels, tec0)
        return np.tile(t0, (self.n_nodes, 1))

    def _next_demand_change(self, idx: int) -> int:
        """First second index > ``idx`` where the stream value changes."""
        d = self.demand
        if idx + 1 >= len(d):
            return len(d)
        changes = self._change_points
        j = int(np.searchsorted(changes, idx, side="right"))
        return int(changes[j]) if j < len(changes) else len(d)

    def run(self) -> FleetShardResult:
        cfg = self.cfg
        sys = self.system
        n = self.n_nodes
        n_cores = sys.n_cores
        comp = sys.nodes.component_slice
        dt = cfg.dt_s
        peak_ips = self.platform.params.peak_ips
        perf = self.policy  # capacity table lives on the policy
        fan_every = max(1, int(round(cfg.fan_period_s / dt)))
        max_time_s = cfg.duration_s * cfg.drain_factor
        thr_c = self.platform.t_threshold_c
        viol_c = thr_c + self.problem.violation_margin_c

        d = np.asarray(self.demand, dtype=float)
        self._change_points = np.flatnonzero(np.diff(d) != 0.0) + 1

        obs.incr("fleet.nodes", n)

        # Per-node state arrays.
        t_rows = self._initial_temps()
        backlog = np.zeros((n, n_cores))
        fan_arr = np.full(n, sys.fan.n_levels, dtype=int)
        tec_rows = np.zeros((n, sys.n_tec_devices))
        dvfs_rows = np.full((n, n_cores), sys.dvfs.max_level, dtype=int)

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
        tile_peak, node_peak = peaks(t_rows)

        def status_fields() -> dict:
            """Live-status fields: run totals so far, and the state of
            the last executed interval (fast-forward holds it)."""
            return dict(
                time_s=i * dt,
                energy_j=energy_j,
                power_w=p_total,
                run_peak_c=peak_run_c,
                node_peak_c=node_peak,
                fan_levels=fan_arr,
                tec_rows=tec_rows,
                backlog_inst=float(backlog.sum()),
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
            node_cap_ips = cap.sum(axis=1)

            view = RouterView(
                backlog_inst=backlog.sum(axis=1),
                peak_temp_c=node_peak,
                capacity_ips=node_cap_ips,
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

            arriving = shares[:, None] / n_cores
            work = backlog + arriving
            offered_rate = work / dt
            activity = np.clip(offered_rate / cap, 0.0, 1.0)

            res = self.stepper.advance(
                activity, dvfs_rows, fan_arr, tec_rows, t_rows, dt
            )
            t_rows = res.t_nodes_k

            served = np.minimum(work, cap * dt)
            backlog = work - served
            inst_served += float(served.sum())

            lat = (backlog / cap).max(axis=1)
            bucket = np.searchsorted(LATENCY_EDGES_S, lat, side="right") - 1
            np.add.at(counts, np.clip(bucket, 0, len(counts) - 1), 1)

            p_cores = res.p_dyn_w.sum(axis=1) + res.p_leak_w.sum(axis=1)
            p_node = p_cores + res.p_tec_w + self._fan_power[fan_arr - 1]
            p_total = float(p_node.sum())
            energy_j += p_total * dt

            tile_peak, node_peak = peaks(t_rows)
            peak_run_c = max(peak_run_c, float(node_peak.max()))
            n_viol = int(np.count_nonzero(node_peak > viol_c))
            viol_node_iv += n_viol
            node_iv += n

            tec_new = self.policy.decide_tec(tile_peak, tec_rows)
            dvfs_new, throttled = self.policy.decide_dvfs(
                offered_rate, tile_peak
            )
            n_throttled = int(np.count_nonzero(throttled.any(axis=1)))
            throttle_node_iv += n_throttled
            fan_boundary = (i + 1) % fan_every == 0
            fan_new = (
                self.policy.decide_fan(node_peak, fan_arr)
                if fan_boundary
                else fan_arr
            )

            unchanged = (
                np.array_equal(tec_new, tec_rows)
                and np.array_equal(dvfs_new, dvfs_rows)
                and np.array_equal(fan_new, fan_arr)
            )
            same_arrivals = prev_shares is not None and np.array_equal(
                shares, prev_shares
            )
            settled = (
                float(np.max(np.abs(t_rows - res.t_steady_k)))
                <= cfg.ff_temp_tol_k
            )
            drained = float(backlog.sum()) == 0.0
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
            inst_served += float(served.sum()) * k
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
        return FleetShardResult(
            shard=self.shard,
            n_nodes=n,
            intervals=intervals,
            ff_intervals=ff_intervals,
            sim_time_s=i * dt,
            energy_j=energy_j,
            inst_served=inst_served,
            requests_routed=requests_routed,
            latency_counts=counts,
            peak_temp_c=peak_run_c,
            violation_node_intervals=viol_node_iv,
            throttled_node_intervals=throttle_node_iv,
            node_intervals=node_iv,
            class_groups=self.stepper.class_groups,
            solved_rows=self.stepper.solved_rows,
            final_t_nodes_k=t_rows,
            final_backlog_inst=backlog,
            final_fan=fan_arr,
            final_tec=tec_rows,
            final_dvfs=dvfs_rows,
        )


# ----------------------------------------------------------------------
# Shard fan-out across the worker pool
# ----------------------------------------------------------------------
def _fleet_shard_task(common, payload):
    """Pool task: simulate one shard (module-level for spawn pickling)."""
    platform, cfg = common
    shard_idx, start, stop = payload
    demand = fleet_demand(
        cfg.trace,
        cfg.duration_s,
        seed=cfg.seed,
        scale=cfg.scale,
        block_s=cfg.block_s,
    )
    sim = FleetSim(platform, cfg, n_nodes=stop - start, demand=demand,
                   shard=shard_idx)
    return sim.run()


def merge_shard_results(
    cfg: FleetConfig, shard_results: list
) -> FleetResult:
    """Deterministic fold of shard outputs into fleet metrics."""
    counts = np.zeros(len(LATENCY_EDGES_S), dtype=np.int64)
    energy = inst = routed = 0.0
    intervals = ff = bsteps = groups = solved = 0
    viol = thr = node_iv = 0
    peak = float("-inf")
    sim_time = 0.0
    digests = []
    for r in shard_results:
        counts += r.latency_counts
        energy += r.energy_j
        inst += r.inst_served
        routed += r.requests_routed
        intervals = max(intervals, r.intervals)
        ff += r.ff_intervals
        bsteps += r.intervals  # one stepper advance per executed interval
        groups += r.class_groups
        solved += r.solved_rows
        viol += r.violation_node_intervals
        thr += r.throttled_node_intervals
        node_iv += r.node_intervals
        peak = max(peak, r.peak_temp_c)
        sim_time = max(sim_time, r.sim_time_s)
        digests.append(r.digest())
    h = hashlib.sha256()
    for dg in digests:
        h.update(dg.encode())
    # requests_served / energy_per_request are filled by run_fleet once
    # the platform's instructions-per-request constant is known.
    return FleetResult(
        n_nodes=sum(r.n_nodes for r in shard_results),
        shards=len(shard_results),
        router=cfg.router,
        sim_time_s=sim_time,
        intervals=intervals,
        ff_intervals=ff,
        energy_j=energy,
        avg_power_w=energy / sim_time if sim_time > 0 else 0.0,
        requests_served=0.0,  # filled below once inst/request known
        requests_routed=routed,
        energy_per_request_j=0.0,
        p99_latency_s=latency_quantile(counts, 0.99),
        peak_temp_c=peak,
        violation_rate=viol / node_iv if node_iv else 0.0,
        throttle_rate=thr / node_iv if node_iv else 0.0,
        batched_steps=bsteps,
        class_groups=groups,
        solved_rows=solved,
        digest=h.hexdigest(),
        shard_digests=digests,
        latency_counts=counts,
    )


def run_fleet(
    cfg: FleetConfig,
    platform=None,
    jobs: int | None = None,
    pool=None,
    journal_path=None,
    status_path=None,
    status_every_s: float = 1.0,
) -> FleetResult:
    """Run a fleet simulation, optionally sharded across the pool.

    The shard plan is :func:`plan_shards(cfg.n_nodes, cfg.shards)
    <repro.parallel.plan_shards>`; the worker count never changes it,
    so ``jobs`` only sets how many shards run at once. A single-shard
    serial run writes ``fleet``-kind live status directly; multi-shard
    runs report pool heartbeats through ``parallel_map``.
    """
    if platform is None:
        from repro.server.platform import build_server_system

        platform = build_server_system()
    n_jobs = resolve_jobs(jobs)
    plan = plan_shards(cfg.n_nodes, cfg.shards)
    payloads = [(idx, a, b) for idx, (a, b) in enumerate(plan)]

    if len(payloads) == 1 and pool is None and n_jobs <= 1:
        demand = fleet_demand(
            cfg.trace,
            cfg.duration_s,
            seed=cfg.seed,
            scale=cfg.scale,
            block_s=cfg.block_s,
        )
        sim = FleetSim(
            platform,
            cfg,
            n_nodes=cfg.n_nodes,
            demand=demand,
            status_path=status_path,
            status_every_s=status_every_s,
        )
        shard_results = [sim.run()]
    else:
        journal = None
        if journal_path is not None:
            from repro.journal import TaskJournal

            # Every knob shapes the shard results, so the whole config
            # is the journal's identity: a resume under any other
            # setting is refused instead of mixing cells.
            journal = TaskJournal(
                journal_path,
                header={
                    "kind": "fleet",
                    **asdict(cfg),
                    "tasks": len(payloads),
                },
            )
        shard_results = parallel_map(
            _fleet_shard_task,
            payloads,
            jobs=jobs if pool is None else None,
            context=(platform, cfg),
            pool=pool,
            journal=journal,
            status_path=status_path,
            status_every_s=status_every_s,
            status_meta={"label": f"fleet:{cfg.trace} x{cfg.n_nodes} {cfg.router}"},
        )
    result = merge_shard_results(cfg, shard_results)
    inst_per_request = platform.params.peak_ips / cfg.requests_per_core_s
    total_inst = sum(r.inst_served for r in shard_results)
    result.requests_served = total_inst / inst_per_request
    result.energy_per_request_j = (
        result.energy_j / result.requests_served
        if result.requests_served > 0
        else 0.0
    )
    return result
