"""Experiment flows: base scenarios and policy suites at small scale."""

import numpy as np
import pytest

from repro.analysis.experiments import (
    BaseScenario,
    make_policies,
    run_base_scenario,
    run_policy_suite,
    run_policy_suites,
)
from repro.core.baselines import FanTECController
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.exceptions import ConfigurationError


def test_make_policies_order_and_names():
    names = [p.name for p in make_policies()]
    assert names == ["Fan-only", "Fan+TEC", "Fan+DVFS", "DVFS+TEC", "TECfan"]


def test_policy_suites_reject_duplicate_policy_names():
    # Outcomes are keyed by name: a duplicate would silently drop runs.
    with pytest.raises(ConfigurationError, match=r"Fan\+TEC"):
        run_policy_suites(
            build_system(rows=2, cols=2),
            [("lu", 4)],
            policies=[FanTECController(), FanTECController()],
        )


@pytest.mark.slow
def test_base_scenario_fields(system16):
    base = run_base_scenario(system16, "fmm", 16)
    assert isinstance(base, BaseScenario)
    assert base.t_threshold_c == base.result.metrics.peak_temp_c
    assert base.processor_power_w < base.result.metrics.average_power_w


@pytest.mark.slow
def test_policy_suite_structure(system16):
    base, outcomes = run_policy_suite(
        system16,
        "lu",
        16,
        policies=[TECfanController()],
    )
    assert "TECfan" in outcomes
    oc = outcomes["TECfan"]
    assert oc.chosen.metrics.policy == "TECfan"
    assert len(oc.sweep) >= 1
    # TECfan never exceeds the base peak by more than noise.
    assert oc.chosen.metrics.violation_rate <= 0.05


@pytest.mark.slow
def test_fan_only_outcome_is_base(system16):
    from repro.core.baselines import FanOnlyController

    base, outcomes = run_policy_suite(
        system16, "fmm", 16, policies=[FanOnlyController()]
    )
    m = outcomes["Fan-only"].chosen.metrics
    assert m.energy_j == base.result.metrics.energy_j
    assert m.fan_level == 1
