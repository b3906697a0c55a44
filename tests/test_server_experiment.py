"""Server experiment flow (Sec. V-E) at reduced scale."""

import numpy as np
import pytest

from repro.analysis import server_experiment
from repro.analysis.server_experiment import (
    _run,
    build_server_workload,
    run_server_comparison,
)
from repro.checkpoint import result_digest
from repro.core.oracle import make_oftec, make_oracle
from repro.core.tecfan import TECfanController
from repro.server.platform import build_server_system
from tests.test_core_oracle import ReferenceSearcher


@pytest.fixture(scope="module")
def platform():
    return build_server_system()


@pytest.fixture(scope="module")
def workload(platform):
    return build_server_workload(platform, minutes=1)


def test_workload_protocol(platform, workload):
    assert workload.n_cores == 4
    assert workload.duration_s == 60.0
    assert 0.3 < workload.demand.mean() < 0.7


@pytest.mark.slow
def test_oftec_runs_with_dynamic_fan(platform, workload):
    res = _run(platform, workload, make_oftec(), minutes=1)
    tr = res.trace
    # OFTEC never touches DVFS...
    assert np.all(
        tr.mean_dvfs_level == platform.system.dvfs.max_level
    )
    # ...and at ~50% utilization it slows the fan well below level 1.
    assert tr.fan_level[-1] > 1
    assert res.metrics.violation_rate <= 0.05


@pytest.mark.slow
def test_tecfan_lowers_dvfs_on_open_workload(platform, workload):
    res = _run(platform, workload, TECfanController(), minutes=1)
    # The demand-limited workload lets TECfan sit far below max DVFS —
    # the Sec. V-E mechanism (performance-neutral decreases).
    assert res.trace.mean_dvfs_level.mean() < 2.0
    # Without losing throughput: all offered work served on time.
    assert res.metrics.execution_time_s <= 60.0 + 1.5


@pytest.mark.slow
def test_oracle_p_floor_from_reference_trace(platform, workload):
    ref = _run(platform, workload, TECfanController(), minutes=1)
    floor = ref.trace.ips_chip
    res = _run(platform, workload, make_oracle(perf_floor=floor), minutes=1)
    # Performance-matched: same completion behaviour as the reference.
    assert res.metrics.execution_time_s <= (
        ref.metrics.execution_time_s + 1.5
    )
    assert res.metrics.violation_rate <= 0.05


@pytest.mark.slow
def test_comparison_matches_brute_force_reference(monkeypatch):
    """Fig. 7 with the objective-first search is bit-identical to Fig. 7
    with the brute-force per-variant loop, policy by policy."""
    fast = run_server_comparison(minutes=1).results
    monkeypatch.setattr(
        server_experiment,
        "make_oracle",
        lambda perf_floor=None: ReferenceSearcher(
            name="Oracle-P" if perf_floor is not None else "Oracle",
            perf_floor=perf_floor,
        ),
    )
    monkeypatch.setattr(
        server_experiment,
        "make_oftec",
        lambda: ReferenceSearcher(
            name="OFTEC", objective="cooling", dvfs_exhaustive=False
        ),
    )
    brute = run_server_comparison(minutes=1).results
    assert list(fast) == list(brute)
    for name in fast:
        assert result_digest(fast[name]) == result_digest(brute[name]), name
