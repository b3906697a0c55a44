"""Fleet-scale server simulation (see docs/FLEET.md).

Public surface: :class:`FleetConfig`/:func:`run_fleet` for the batched
N-node simulation, routers and the stepper for composition, and the
memoized trace sources shared with the server analysis layer.
"""

from repro.fleet.control import FleetPolicy
from repro.fleet.router import ROUTER_POLICIES, Router, RouterView, make_router
from repro.fleet.sim import (
    FleetConfig,
    FleetResult,
    FleetSim,
    latency_quantile,
    run_fleet,
)
from repro.fleet.stepper import BatchedStepper, StepResult
from repro.fleet.traces import (
    TRACE_KINDS,
    cached_wikipedia_trace,
    clear_trace_cache,
    diurnal_utilization,
    fleet_demand,
    trace_cache_size,
)

__all__ = [
    "BatchedStepper",
    "FleetConfig",
    "FleetPolicy",
    "FleetResult",
    "FleetSim",
    "ROUTER_POLICIES",
    "Router",
    "RouterView",
    "StepResult",
    "TRACE_KINDS",
    "cached_wikipedia_trace",
    "clear_trace_cache",
    "diurnal_utilization",
    "fleet_demand",
    "latency_quantile",
    "make_router",
    "run_fleet",
    "trace_cache_size",
]
