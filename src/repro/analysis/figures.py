"""Data-series generators for the paper's Figures 4-7.

Each ``figure*`` function returns plain data structures (and a
``format_*`` twin renders them as text) so the benchmark harness can
print exactly the rows/series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.experiments import run_base_scenario, run_policy_suites
from repro.analysis.report import render_normalized, render_table
from repro.core.baselines import FanOnlyController, FanTECController
from repro.core.engine import EngineConfig, SimulationEngine
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import CMPSystem
from repro.perf.splash2 import (
    FIGURE_CASES,
    TABLE1_CASES,
    REF_FREQ_GHZ,
    splash2_workload,
)
from repro.perf.workload import WorkloadRun

# ---------------------------------------------------------------------------
# Figure 4 — importance of integrating TEC with fan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure4Row:
    """One workload case of Fig. 4's three panels."""

    workload: str
    threads: int
    t_threshold_c: float
    peak_fan1_c: float  # Fan-only, fastest fan (a)
    peak_fan2_c: float  # Fan-only, 2nd fan level (a)
    peak_fantec2_c: float  # Fan+TEC at the 2nd level (b)
    fan1_power_w: float  # (c)
    fan2_power_w: float
    tec_power_w: float  # average TEC power of the Fan+TEC run


def _figure4_runs(system: CMPSystem, workload: str, threads: int) -> tuple:
    """Fig. 4's three runs: the base (Fan-only at the fastest fan, which
    fixes T_th), Fan-only at the 2nd level and Fan+TEC at the 2nd level."""
    base = run_base_scenario(system, workload, threads)
    problem = EnergyProblem(t_threshold_c=base.t_threshold_c)
    engine = SimulationEngine(system, problem, EngineConfig(max_time_s=2.0))
    wl = splash2_workload(workload, threads, system.chip)

    def run_at_l2(controller):
        state = ActuatorState.initial(
            system.n_tec_devices, system.n_cores, system.dvfs.max_level, fan_level=2
        )
        return engine.run(
            WorkloadRun(wl, system.chip, REF_FREQ_GHZ), controller, initial_state=state
        )

    return base, run_at_l2(FanOnlyController()), run_at_l2(FanTECController())


def figure4(
    system: CMPSystem, cases: tuple = TABLE1_CASES
) -> list[Figure4Row]:
    """Regenerate Fig. 4: Fan-only L1 vs L2 vs Fan+TEC at L2."""
    rows: list[Figure4Row] = []
    for workload, threads in cases:
        base, fan2, fantec2 = _figure4_runs(system, workload, threads)
        tr = fantec2.trace
        dur = float(tr.dt_s.sum())
        rows.append(
            Figure4Row(
                workload=workload,
                threads=threads,
                t_threshold_c=base.t_threshold_c,
                peak_fan1_c=base.result.metrics.peak_temp_c,
                peak_fan2_c=fan2.metrics.peak_temp_c,
                peak_fantec2_c=fantec2.metrics.peak_temp_c,
                fan1_power_w=system.fan.power_w(1),
                fan2_power_w=system.fan.power_w(2),
                tec_power_w=float((tr.p_tec_w * tr.dt_s).sum() / dur),
            )
        )
    return rows


def format_figure4(rows: list[Figure4Row]) -> str:
    """Render the Fig. 4 comparison."""
    table = [
        [
            r.workload,
            r.threads,
            r.t_threshold_c,
            r.peak_fan1_c,
            r.peak_fan2_c,
            r.peak_fantec2_c,
            r.fan2_power_w + r.tec_power_w,
        ]
        for r in rows
    ]
    header = (
        "Figure 4 — peak temperature: Fan-only@L1 vs Fan-only@L2 vs "
        "Fan+TEC@L2;\ncooling power: fan L1 = "
        f"{rows[0].fan1_power_w:.1f} W vs fan L2 + TEC (last column)"
    )
    return render_table(
        ["workload", "thr", "T_th", "fan L1", "fan L2", "F+T L2", "cool[W]"],
        table,
        floatfmt="{:.2f}",
        title=header,
    )


@dataclass(frozen=True)
class Figure4Series:
    """Peak-temperature time series for one workload (Fig. 4(a)/(b))."""

    workload: str
    threads: int
    t_threshold_c: float
    time_ms: np.ndarray
    fan1_peak_c: np.ndarray  # Fan-only at level 1
    fan2_peak_c: np.ndarray  # Fan-only at level 2
    fantec2_peak_c: np.ndarray  # Fan+TEC at level 2


def figure4_timeseries(
    system: CMPSystem, workload: str = "cholesky", threads: int = 16
) -> Figure4Series:
    """The temperature-vs-time traces Fig. 4(a)/(b) actually plot."""
    base, fan2, fantec2 = _figure4_runs(system, workload, threads)
    n = min(
        len(base.result.trace),
        len(fan2.trace),
        len(fantec2.trace),
    )
    return Figure4Series(
        workload=workload,
        threads=threads,
        t_threshold_c=base.t_threshold_c,
        time_ms=base.result.trace.time_s[:n] * 1e3,
        fan1_peak_c=base.result.trace.peak_temp_c[:n],
        fan2_peak_c=fan2.trace.peak_temp_c[:n],
        fantec2_peak_c=fantec2.trace.peak_temp_c[:n],
    )


def format_figure4_timeseries(series: Figure4Series, stride: int = 2) -> str:
    """Render the Fig. 4(a)/(b) traces as an aligned table."""
    rows = [
        [
            series.time_ms[i],
            series.fan1_peak_c[i],
            series.fan2_peak_c[i],
            series.fantec2_peak_c[i],
        ]
        for i in range(0, len(series.time_ms), stride)
    ]
    return render_table(
        ["t [ms]", "fan L1", "fan L2", "Fan+TEC L2"],
        rows,
        floatfmt="{:.2f}",
        title=(
            f"Figure 4(a)/(b) time series — {series.workload}/"
            f"{series.threads}t, T_th = {series.t_threshold_c:.2f} degC"
        ),
    )


# ---------------------------------------------------------------------------
# Figures 5 & 6 — cooling performance and energy efficiency
# ---------------------------------------------------------------------------


@dataclass
class SplashComparison:
    """All policy outcomes for the Figs. 5-6 benchmark set."""

    cases: tuple
    bases: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)  # (case) -> {policy: ...}

    def policies(self) -> list[str]:
        """Policy names in run order."""
        first = next(iter(self.outcomes.values()))
        return list(first.keys())


def splash_comparison(
    system: CMPSystem,
    cases: tuple = FIGURE_CASES,
    jobs: int | None = None,
) -> SplashComparison:
    """Run the full policy suite on the Figs. 5-6 benchmark set.

    Every case's policy runs share one fan-out (see
    :func:`repro.analysis.experiments.run_policy_suites`): ``jobs``
    workers, spawned once for the whole comparison, keep ``system``'s
    thermal caches warm across cases.
    """
    comp = SplashComparison(cases=cases)
    for case, (base, outcomes) in run_policy_suites(system, cases, jobs=jobs).items():
        comp.bases[case] = base
        comp.outcomes[case] = outcomes
    return comp


def figure5(comp: SplashComparison) -> dict[str, dict[str, float]]:
    """Fig. 5 series: peak temperature (a) and violation rate (b)."""
    out: dict[str, dict[str, float]] = {}
    for (workload, threads), outcomes in comp.outcomes.items():
        label = f"{workload}"
        out[label] = {}
        for name, oc in outcomes.items():
            m = oc.chosen.metrics
            out[label][f"{name}.peak_c"] = m.peak_temp_c
            out[label][f"{name}.violation_pct"] = 100.0 * m.violation_rate
    return out


def format_figure5(comp: SplashComparison) -> str:
    """Render Fig. 5(a) peaks and 5(b) violation rates."""
    policies = comp.policies()
    rows_a, rows_b = [], []
    for (workload, threads), outcomes in comp.outcomes.items():
        base = comp.bases[(workload, threads)]
        rows_a.append(
            [workload, base.t_threshold_c]
            + [outcomes[p].chosen.metrics.peak_temp_c for p in policies]
        )
        rows_b.append(
            [workload]
            + [
                100.0 * outcomes[p].chosen.metrics.violation_rate
                for p in policies
            ]
        )
    a = render_table(
        ["workload", "T_th", *policies],
        rows_a,
        floatfmt="{:.2f}",
        title="Figure 5(a) — peak temperature per policy [degC]",
    )
    b = render_table(
        ["workload", *policies],
        rows_b,
        floatfmt="{:.2f}",
        title="Figure 5(b) — temperature violation rate [%]",
    )
    return a + "\n\n" + b


def figure6(comp: SplashComparison) -> dict[str, dict[str, dict[str, float]]]:
    """Fig. 6 series: normalized delay/power/energy/EDP per benchmark."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for (workload, threads), outcomes in comp.outcomes.items():
        base_metrics = comp.bases[(workload, threads)].result.metrics
        out[workload] = {
            name: oc.chosen.metrics.normalized_to(base_metrics)
            for name, oc in outcomes.items()
        }
    return out


def figure6_averages(comp: SplashComparison) -> dict[str, dict[str, float]]:
    """Across-benchmark averages (the numbers quoted in Sec. V-D)."""
    per_bench = figure6(comp)
    policies = comp.policies()
    metrics = ("delay", "power", "energy", "edp")
    return {
        p: {
            m: float(
                np.mean([per_bench[b][p][m] for b in per_bench])
            )
            for m in metrics
        }
        for p in policies
    }


def format_figure6(comp: SplashComparison) -> str:
    """Render Fig. 6(a-d), per benchmark plus the average."""
    blocks = []
    for bench, series in figure6(comp).items():
        blocks.append(
            render_normalized(
                f"Figure 6 — {bench} (normalized to base scenario)", series
            )
        )
    blocks.append(
        render_normalized(
            "Figure 6 — AVERAGE across benchmarks", figure6_averages(comp)
        )
    )
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Figure 7 — comparison with OFTEC and Oracle
# ---------------------------------------------------------------------------


def format_figure7(normalized: dict[str, dict[str, float]]) -> str:
    """Render Fig. 7 (normalized to OFTEC)."""
    return render_normalized(
        "Figure 7 — 4-core server, normalized to OFTEC", normalized
    )
