"""Analysis layer: regenerate the paper's tables and figures.

Public API
----------
- :mod:`~repro.analysis.experiments` — base scenario, policy suites,
  TECfan's hierarchical fan-level rule
- :mod:`~repro.analysis.tables` — Table I regeneration
- :mod:`~repro.analysis.figures` — Figs. 4-6 series + formatting
- :mod:`~repro.analysis.server_experiment` — the Fig. 7 comparison
- :mod:`~repro.analysis.report` — text table rendering
"""

from repro.analysis.experiments import (
    BaseScenario,
    PolicyOutcome,
    make_policies,
    run_base_scenario,
    run_policy_suite,
    run_policy_suites,
)
from repro.analysis.figures import (
    SplashComparison,
    figure4,
    figure4_timeseries,
    figure5,
    figure6,
    figure6_averages,
    format_figure4,
    format_figure4_timeseries,
    format_figure5,
    format_figure6,
    format_figure7,
    splash_comparison,
)
from repro.analysis.report import render_normalized, render_table
from repro.analysis.sweeps import (
    FanLevelPoint,
    TECDensityPoint,
    fan_level_sweep,
    tec_density_sweep,
)
from repro.analysis.server_experiment import (
    ServerComparison,
    run_server_comparison,
)
from repro.analysis.tables import (
    Table1Comparison,
    format_table1,
    regenerate_table1,
)

__all__ = [
    "BaseScenario",
    "PolicyOutcome",
    "make_policies",
    "run_base_scenario",
    "run_policy_suite",
    "run_policy_suites",
    "SplashComparison",
    "figure4",
    "figure4_timeseries",
    "figure5",
    "figure6",
    "figure6_averages",
    "format_figure4",
    "format_figure4_timeseries",
    "format_figure5",
    "format_figure6",
    "format_figure7",
    "splash_comparison",
    "render_normalized",
    "render_table",
    "FanLevelPoint",
    "TECDensityPoint",
    "fan_level_sweep",
    "tec_density_sweep",
    "ServerComparison",
    "run_server_comparison",
    "Table1Comparison",
    "format_table1",
    "regenerate_table1",
]
