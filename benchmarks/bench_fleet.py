"""Benchmark: batched fleet stepper vs the sequential per-node loop.

Measures the fleet tentpole (docs/FLEET.md): advancing N servers per
control interval with one multi-RHS ``solve_many`` per actuation class
instead of N independent solve chains. The sequential side is the same
run with ``BatchedStepper.advance`` swapped for the per-node reference
loop (``SequentialStepper``). Fast-forwarding is disabled so the timing
isolates stepping throughput; equivalence is asserted via shard
digests — the two runs must be bit-identical, not merely close.

Three measurements:

1. **Batched vs sequential at 64 nodes** — the acceptance gate: the
   batched stepper must be >= 4x faster on the full run. Round-robin
   splits its 64 quanta evenly over 64 nodes, so every node stays in
   lockstep and the batched stepper advances one distinct row per
   interval (``solved_rows``).
2. **The same at 63 nodes** — one node fewer, so the quanta no longer
   divide evenly and node rows diverge: the class kernel solves many
   distinct rows per class. Digest-asserted and reported, not gated.
3. **Sharded scaling** — the lockstep fleet split across worker-pool
   shards (reported, not gated: the win depends on core count and
   node/shard ratio).

Run directly (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke

The full run writes ``benchmarks/results/BENCH_fleet.json`` — the
tracked perf baseline; refresh it whenever the fleet stepper changes.
``--smoke`` is the CI configuration: small lockstep (8 nodes) and
diverging (7 nodes) fleets, digest equivalence asserted on both, the
diverging one required to solve a class of more than one distinct row,
printed speedups, no timing gate and no baseline rewrite.
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


def _cfg(n_nodes: int, duration_s: int, shards: int = 1):
    from repro.fleet import FleetConfig

    return FleetConfig(
        n_nodes=n_nodes,
        duration_s=duration_s,
        trace="diurnal",
        router="round-robin",
        fast_forward=False,
        shards=shards,
    )


@contextlib.contextmanager
def _plant(stepper: str):
    """Run the fleet on the batched kernel or on the per-node reference."""
    from repro.fleet.stepper import BatchedStepper, SequentialStepper

    batched_advance = BatchedStepper.advance
    if stepper == "sequential":
        BatchedStepper.advance = (
            lambda self, *a, **k: SequentialStepper(self.system).advance(*a, **k)
        )
    try:
        yield
    finally:
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
        "batched_steps": batched.batched_steps,
        "class_groups": batched.class_groups,
        "solved_rows": batched.solved_rows,
    }


def bench_sharded(platform, n_nodes: int, duration_s: int, jobs: int) -> dict:
    """Batched fleet split across warm pool shards (scaling, not gated).

    Uses a primed :class:`~repro.parallel.WorkerPool` so the timing
    reflects the intended warm-cache usage, not process spawn + import.
    """
    from repro.fleet import run_fleet
    from repro.parallel import WorkerPool

    t0 = time.perf_counter()
    serial = run_fleet(
        _cfg(n_nodes, duration_s, shards=jobs), platform=platform, jobs=1
    )
    t_serial = time.perf_counter() - t0

    with WorkerPool(jobs) as pool:
        pool.prime()
        t0 = time.perf_counter()
        pooled = run_fleet(
            _cfg(n_nodes, duration_s, shards=jobs),
            platform=platform,
            pool=pool,
        )
        t_pooled = time.perf_counter() - t0

    assert serial.digest == pooled.digest, (
        "pooled shard run diverged from serial shard run"
    )
    return {
        "n_nodes": n_nodes,
        "sim_time_s": duration_s,
        "shards": jobs,
        "serial_s": t_serial,
        "pooled_s": t_pooled,
        "speedup": t_serial / t_pooled if t_pooled > 0 else float("inf"),
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
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args(argv)

    from repro.server.platform import build_server_system

    platform = build_server_system()
    if args.smoke:
        n_nodes = args.nodes or 8
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
            f"{st['solved_rows'] / st['batched_steps']:.2f} distinct rows "
            f"in {st['class_groups'] / st['batched_steps']:.2f} classes per step"
        )
    st = report["steppers"]
    if not args.smoke and st["speedup"] < SPEEDUP_GATE:
        print(f"FAIL: batched speedup {st['speedup']:.2f}x < {SPEEDUP_GATE}x")
        ok = False
    div = report["steppers_diverging"]
    if div["solved_rows"] <= div["class_groups"]:
        print("FAIL: the diverging fleet never solved a multi-row class")
        ok = False

    if not args.smoke:
        from repro.parallel import resolve_jobs

        cores = resolve_jobs(0)
        report["effective_cores"] = cores
        if cores >= 2:
            sh = bench_sharded(platform, n_nodes * 4, duration_s, args.jobs)
            report["sharded"] = sh
            print(
                f"sharded: {sh['n_nodes']} nodes over {sh['shards']} shards, "
                f"serial {sh['serial_s']:.2f} s, pooled {sh['pooled_s']:.2f} s "
                f"-> {sh['speedup']:.2f}x"
            )
        else:
            # Workers would timeshare a single core; the number would
            # measure the scheduler, not the sharding.
            report["sharded"] = None
            print("sharded: skipped (1 effective core)")

    if not args.smoke and ok:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[saved to {BASELINE}]")
    print("equivalence: OK (batched runs digest-identical to sequential)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
