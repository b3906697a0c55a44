"""Live-observability smoke gate: watch a real run, top a real sweep.

Drives the CLI in subprocesses, exactly like a user's terminal pair:

1. **Run + watch** — launch ``tecfan run --status-file`` in the
   background, poll the sidecar until a snapshot with progress > 0
   lands (proving snapshots flow *while the run is live*), and require
   ``tecfan watch --once`` to exit 0 with a parsed progress line. After
   the run exits, the final snapshot must report done/100%.
2. **Sweep + top** — run a journaled ``tecfan sweep --status-file`` to
   completion and require ``tecfan top --once`` to exit 0 against its
   sidecar; re-run the same sweep (journal resume, every cell replayed)
   and require ``top`` to show the replayed cells.
3. **Fleet + top** — run a small ``tecfan fleet --status-file`` and
   require ``tecfan top --once`` to show the finished run (done, 100%)
   with its hottest-node table.

Exit status is the gate: 0 when every view renders, 1 otherwise.
Accepts ``--smoke`` (the CI flag other benchmarks use) as a no-op —
this script *is* the smoke.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN_ARGS = [
    "run", "--max-time-s", "0.5",
    "--status-every-s", "0.02",
]
SWEEP_ARGS = [
    "sweep", "--max-time-s", "0.02", "--jobs", "2",
    "--status-every-s", "0.02",
]
FLEET_ARGS = [
    "fleet", "--nodes", "4", "--seconds", "60",
    "--status-every-s", "0.02",
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def _cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_env(),
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")


def _poll_status(path: str, ready, deadline_s: float = 300.0) -> dict:
    """Poll the sidecar until ``ready(status)``; returns that snapshot.

    The atomic writer guarantees any successful read is a complete
    snapshot, so a transiently missing file is the only case to
    tolerate.
    """
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            with open(path, "rb") as fh:
                status = json.loads(fh.read())
        except FileNotFoundError:
            status = None
        if status is not None and ready(status):
            return status
        time.sleep(0.02)
    raise SystemExit(f"FAIL: no qualifying status snapshot in {path}")


def phase_run_watch(tmp: str) -> None:
    status_path = os.path.join(tmp, "run-status.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *RUN_ARGS,
         "--status-file", status_path],
        env=_env(),
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        live = _poll_status(
            status_path,
            lambda s: (s.get("progress") or {}).get("fraction", 0) > 0,
        )
        _check(
            live["progress"]["fraction"] > 0,
            "live snapshot has no progress",
        )
        watch = _cli(["watch", status_path, "--once"])
        _check(watch.returncode == 0, f"watch --once exited {watch.returncode}")
        _check("progress" in watch.stdout, "watch output has no progress line")
        print(
            f"watch at {live['progress']['fraction'] * 100:.1f}%: OK "
            f"(seq {live['seq']})"
        )
    finally:
        rc = proc.wait(timeout=600)
    _check(rc == 0, f"tecfan run exited {rc}")
    final = _cli(["watch", status_path, "--once"])
    _check(final.returncode == 0, "watch --once failed after completion")
    _check("[done]" in final.stdout, "final snapshot not marked done")
    _check("100.0%" in final.stdout, "final snapshot not at 100%")
    print("watch after completion: OK (done, 100%)")


def phase_sweep_top(tmp: str) -> None:
    status_path = os.path.join(tmp, "sweep-status.json")
    journal_path = os.path.join(tmp, "sweep.journal")
    args = SWEEP_ARGS + [
        "--status-file", status_path, "--journal", journal_path,
    ]
    sweep = _cli(args)
    _check(sweep.returncode == 0, f"tecfan sweep exited {sweep.returncode}")
    top = _cli(["top", status_path, "--once"])
    _check(top.returncode == 0, f"top --once exited {top.returncode}")
    _check("settled" in top.stdout, "top output has no settled count")
    _check("0 replayed" in top.stdout, "fresh sweep should replay nothing")
    print("top after live sweep: OK")

    resumed = _cli(args)
    _check(resumed.returncode == 0, f"resumed sweep exited {resumed.returncode}")
    _check(
        sweep.stdout == resumed.stdout,
        "journal-resumed sweep output differs from the live sweep",
    )
    top2 = _cli(["top", status_path, "--once"])
    _check(top2.returncode == 0, "top --once failed after journal resume")
    _check("replayed cells:" in top2.stdout, "resumed top shows no replays")
    _check("0 live" in top2.stdout, "resumed sweep should re-run nothing")
    print("top after journal resume: OK (all cells replayed)")


def phase_fleet_top(tmp: str) -> None:
    status_path = os.path.join(tmp, "fleet-status.json")
    fleet = _cli(FLEET_ARGS + ["--status-file", status_path])
    _check(fleet.returncode == 0, f"tecfan fleet exited {fleet.returncode}")
    top = _cli(["top", status_path, "--once"])
    _check(top.returncode == 0, f"top --once exited {top.returncode}")
    _check("[done]" in top.stdout, "final fleet snapshot not marked done")
    _check("100.0%" in top.stdout, "final fleet snapshot not at 100%")
    _check("peak degC" in top.stdout, "fleet top shows no node table")
    print("top after fleet run: OK (done, 100%, node table)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="accepted for CI symmetry; this script is the smoke",
    )
    parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        phase_run_watch(tmp)
        phase_sweep_top(tmp)
        phase_fleet_top(tmp)
    print("live-observability smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
