"""Benchmark: the grouped, batched fleet loop vs the per-node loop.

Measures the fleet tentpole (docs/FLEET.md): advancing N servers per
control interval as one row per group of bit-equal nodes, with one
lockstep leakage fixed point over every actuation class (one multi-RHS
solve per class and pass), instead of N independent solve chains. The
sequential side is the same run as an engine-per-node loop: every node
its own group (``PerNodeGroups`` in place of ``NodeGroups``) and
``BatchedStepper.advance`` swapped for the per-node reference
(``SequentialStepper``). Fast-forwarding is disabled so the timing
isolates stepping throughput; equivalence is asserted via the run
digests — the two runs must be bit-identical, not merely close.

Two measurements:

1. **Batched vs sequential at 64 nodes** — the acceptance gate: the
   batched loop must be >= 4x faster on the full run. Round-robin
   splits its 64 quanta evenly over 64 nodes, so every node stays in
   lockstep and the loop carries one group, one row per interval
   (``solved_rows``). Its microseconds per stepped interval are the
   cost of one one-row fleet step, loop included.
2. **The same at 63 nodes** — one node fewer, so the quanta no longer
   divide evenly: groups split and merge, and the class kernel solves
   many group rows in more than one actuation class per step.
   Digest-asserted and reported, not gated.

Run directly (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke

The full run writes ``benchmarks/results/BENCH_fleet.json`` — the
tracked perf baseline; refresh it whenever the fleet stepper changes.
``--smoke`` is the CI configuration: the same lockstep (64 nodes) and
diverging (63 nodes) fleets over 60 s, digest equivalence asserted on
both, printed speedups, no timing gate and no baseline rewrite. In both
modes the diverging fleet must solve a class of more than one row and
step more than one actuation class per interval on average.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE = RESULTS_DIR / "BENCH_fleet.json"

SPEEDUP_GATE = 4.0


def _cfg(n_nodes: int, duration_s: int):
    from repro.fleet import FleetConfig

    return FleetConfig(
        n_nodes=n_nodes,
        duration_s=duration_s,
        trace="diurnal",
        router="round-robin",
        fast_forward=False,
    )


@contextlib.contextmanager
def _plant(stepper: str):
    """Run the fleet grouped and batched, or as the per-node reference."""
    import repro.fleet.sim as sim_mod
    from repro.fleet.groups import NodeGroups, PerNodeGroups
    from repro.fleet.stepper import BatchedStepper, SequentialStepper

    batched_advance = BatchedStepper.advance
    if stepper == "sequential":
        sim_mod.NodeGroups = PerNodeGroups
        BatchedStepper.advance = (
            lambda self, *a, **k: SequentialStepper(self.system).advance(*a, **k)
        )
    try:
        yield
    finally:
        sim_mod.NodeGroups = NodeGroups
        BatchedStepper.advance = batched_advance


def bench_steppers(platform, n_nodes: int, duration_s: int) -> dict:
    """Batched vs sequential, digest-asserted bit-identical."""
    from repro.fleet import run_fleet

    timings = {}
    digests = {}
    for stepper in ("sequential", "batched"):
        with _plant(stepper):
            t0 = time.perf_counter()
            result = run_fleet(_cfg(n_nodes, duration_s), platform=platform)
            timings[stepper] = time.perf_counter() - t0
        digests[stepper] = result.digest
    batched = result  # the loop's last run

    assert digests["batched"] == digests["sequential"], (
        "batched stepper diverged from sequential reference"
    )
    speedup = (
        timings["sequential"] / timings["batched"]
        if timings["batched"] > 0
        else float("inf")
    )
    return {
        "n_nodes": n_nodes,
        "sim_time_s": duration_s,
        "sequential_s": timings["sequential"],
        "batched_s": timings["batched"],
        "speedup": speedup,
        "node_sim_s_per_s": n_nodes * duration_s / timings["batched"],
        "us_per_step": 1e6 * timings["batched"] / batched.batched_steps,
        "batched_steps": batched.batched_steps,
        "class_groups": batched.class_groups,
        "solved_rows": batched.solved_rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: small fleet, digest equivalence only, no baseline",
    )
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--sim-time", type=int, default=None)
    args = parser.parse_args(argv)

    from repro.server.platform import build_server_system

    platform = build_server_system()
    if args.smoke:
        n_nodes = args.nodes or 64
        duration_s = args.sim_time or 60
    else:
        n_nodes = args.nodes or 64
        duration_s = args.sim_time or 240

    report = {"mode": "smoke" if args.smoke else "full"}
    ok = True

    for key, nodes in (("steppers", n_nodes), ("steppers_diverging", n_nodes - 1)):
        st = bench_steppers(platform, nodes, duration_s)
        report[key] = st
        print(
            f"{key}: {st['n_nodes']} nodes x {st['sim_time_s']} s, sequential "
            f"{st['sequential_s']:.2f} s, batched {st['batched_s']:.2f} s "
            f"-> {st['speedup']:.2f}x ({st['node_sim_s_per_s']:.0f} node-sim-s/s), "
            f"{st['solved_rows'] / st['batched_steps']:.2f} rows "
            f"in {st['class_groups'] / st['batched_steps']:.2f} classes per step"
        )
    st = report["steppers"]
    print(
        f"one-row lockstep fleet: {st['us_per_step']:.0f} us per stepped "
        f"interval ({st['solved_rows'] / st['batched_steps']:.2f} rows per step)"
    )
    if not args.smoke and st["speedup"] < SPEEDUP_GATE:
        print(f"FAIL: batched speedup {st['speedup']:.2f}x < {SPEEDUP_GATE}x")
        ok = False
    div = report["steppers_diverging"]
    if div["solved_rows"] <= div["class_groups"]:
        print("FAIL: the diverging fleet never solved a multi-row class")
        ok = False
    if div["class_groups"] <= div["batched_steps"]:
        print("FAIL: the diverging fleet stepped one actuation class per step")
        ok = False

    if not args.smoke and ok:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[saved to {BASELINE}]")
    print("equivalence: OK (batched runs digest-identical to sequential)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
