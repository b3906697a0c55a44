"""Names the fleet accepts for its routing policy and arrival stream.

This module imports nothing, so the CLI can offer these names as
``--router``/``--trace`` choices without loading numpy or scipy;
:mod:`repro.fleet.router` and :mod:`repro.fleet.traces` validate
against the same tuples.
"""

#: Registered router policy names (CLI ``--router`` choices).
ROUTER_POLICIES = ("identity", "round-robin", "least-loaded", "thermal")

#: Stream kinds accepted by :func:`repro.fleet.traces.fleet_demand`.
TRACE_KINDS = ("diurnal", "wikipedia")
