"""End-to-end benchmark of the TECfan reproduction.

Measure (every workload, one pass each, or one workload for a time
budget)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 2009] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--out DIR]

Each pass runs in a fresh process (``workloads.py``), serially. The
untraced passes give the end-to-end metrics of ``BENCHMARK.json``
(medians over the passes of the run); ``--trace`` adds traced passes that
give the per-layer metrics instead. Every pass's outputs are checked,
and a result file with the host fingerprint lands in ``--out``. With
``--workload`` the last line of standard output is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.

Compare two result sets (files or directories of them)::

    python3 benchmarks/e2e/run.py compare A B [--claim wall_s@server_fig7]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (imports no repro code)

#: ``setup_s`` is the median of at least this many set-ups per run;
#: set-up-only processes make up what the passes do not provide.
MIN_SETUPS = 3

#: One workload's measurement ends within this many seconds: a pass
#: still running at that point is killed and counted failed.
MEASURE_LIMIT_S = 170.0


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout is no repository
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def host_fingerprint() -> dict:
    """What a result needs to be compared with another: host and build."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "affinity_cpus": sorted(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def format_host(host: dict) -> str:
    return (
        f"host: nproc={host['nproc']} affinity={host['affinity_cpus']} "
        f"cpu={host['cpu_model']!r} python={host['python']} numpy={host['numpy']} "
        f"scipy={host['scipy']} blas={host['blas']!r} "
        f"OPENBLAS_NUM_THREADS={host['OPENBLAS_NUM_THREADS']} "
        f"OMP_NUM_THREADS={host['OMP_NUM_THREADS']} "
        f"git={host['git_sha']} dirty={host['git_dirty']}"
    )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def source_hash() -> str:
    """Hash of the program sources: digests are compared within one."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def spawn_pass(name: str, seed: int, smoke: bool, deadline: float, trace: bool = False,
               setup_only: bool = False, spans: Path | None = None) -> dict:
    """Run one pass in a fresh interpreter; returns its record.

    ``deadline`` is a ``time.monotonic()`` instant the pass must end by.
    """
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(seed)]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace + ["--setup-only"] * setup_only
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launch_ns = time.monotonic_ns()
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd + ["--launch-ns", str(launch_ns)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"workload": name, "seed": seed, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"workload": name, "seed": seed,
                  "error": f"exit {proc.returncode} without a record"}
    return record


class DigestStore:
    """Digests by (sources, digest group, inputs), kept across runs.

    Passes of equal inputs must produce identical digests, and
    ``splash_suite``/``splash_pooled`` share a group, so whichever runs
    second checks the other (pooled results equal serial ones).
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.prefix = source_hash()
        try:
            self.digests = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.digests = {}

    def check(self, record: dict, seeded: bool, smoke: bool) -> str | None:
        """Record the digest; returns a failure reason on a mismatch."""
        seed = record["seed"] if seeded else "-"
        key = f"{self.prefix}:{record['digest_group']}:{seed}:{'smoke' if smoke else 'full'}"
        known = self.digests.setdefault(key, record["digest"])
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True))
        tmp.replace(self.path)
        if known != record["digest"]:
            return f"digest {record['digest'][:12]} differs from {known[:12]} ({key})"
        return None


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            out: Path, stamp: str, store: DigestStore) -> dict:
    """Passes of one workload until ``seconds`` is used; medians of them.

    A round is one untraced pass, plus one traced pass with ``trace``.
    Another round starts only if it is expected to end within
    ``seconds``, so ``--seconds 0`` runs exactly one round.
    """
    workload = WORKLOADS[name]
    passes, failures = [], []
    t_start = time.monotonic()
    deadline = t_start + MEASURE_LIMIT_S
    rounds = 0
    while True:
        rounds += 1
        for traced in (False, True) if trace else (False,):
            spans = out / f"{stamp}-{name}-spans{rounds}.npz" if traced else None
            rec = spawn_pass(name, seed, smoke, deadline, trace=traced, spans=spans)
            passes.append(rec)
            reason = rec.get("error")
            if reason is None:
                bad = [k for k, c in rec["checks"].items() if not c["ok"]]
                reason = f"checks failed: {bad}" if bad else store.check(
                    rec, workload.seeded, smoke)
            if reason:
                rec["failure"] = reason
                failures.append(reason)
        elapsed = time.monotonic() - t_start
        if elapsed + elapsed / rounds > seconds:
            break
    ok = [p for p in passes if "failure" not in p]
    plain = [p for p in ok if not p["traced"]]
    setups = [p["setup_s"] for p in plain]
    while len(setups) < MIN_SETUPS:
        rec = spawn_pass(name, seed, smoke, deadline, setup_only=True)
        if "error" in rec:
            failures.append(rec["error"])
            break
        setups.append(rec["setup_s"])

    result = {
        "workload": name, "seed": seed, "smoke": smoke, "rounds": rounds,
        "attempted": len(passes), "failed": len(failures), "failures": failures,
        "setup_samples": setups, "passes": passes,
    }
    if plain:
        values = {
            "wall_s": _median([p["wall_s"] for p in plain]),
            "cpu_s": _median([p["cpu_s"] for p in plain]),
            "sim_s_per_s": _median([p["sim_node_s"] / p["wall_s"] for p in plain]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
            "sim_epi_nj": _median([p["sim_epi_nj"] for p in plain]),
            "setup_s": _median(setups),
        }
        result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        result["checks"] = plain[0]["checks"]
        result["digest"] = plain[0]["digest"]
    traced = [p for p in ok if p["traced"]]
    if traced and plain:
        layers = {k: _median([p["layers"][k] for p in traced]) for k in traced[0]["layers"]}
        untraced_wall = result["metrics"]["wall_s"]["value"]
        layers["trace.overhead_pct"] = 100.0 * (
            _median([p["wall_s"] for p in traced]) / untraced_wall - 1.0)
        result["layers"] = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
    return result


def print_workload(res: dict) -> None:
    print(f"workload {res['workload']} seed={res['seed']} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for reason in res["failures"]:
        print(f"  FAILED {reason.strip().splitlines()[-1]}")
    for section in ("metrics", "layers"):
        for key, m in res.get(section, {}).items():
            print(f"  metric {key} = {m['value']:.6g} {m['unit']}")
    for key, c in res.get("checks", {}).items():
        limit = f" (limit {c['limit']})" if c["limit"] else ""
        verdict = "ok" if c["ok"] else "FAIL"
        print(f"  check {key} = {c['value']:.6g} {c['unit']}{limit} {verdict}")


def cmd_measure(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    host = host_fingerprint()
    print(format_host(host))
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    store = DigestStore(out / "digests.json")
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace),
                                args.smoke, out, stamp, store)
        print_workload(results[name])
    label = args.workload or "all"
    path = out / f"{stamp}-{label}-s{args.seed}{'-trace' * bool(args.trace)}.json"
    path.write_text(json.dumps({
        "schema": 1, "host": host, "argv": sys.argv[1:], "seed": args.seed,
        "smoke": args.smoke, "trace": bool(args.trace), "seconds": args.seconds,
        "workloads": results,
    }, indent=1))
    print(f"result: {path}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        res = results[args.workload]
        section = "layers" if args.trace else "metrics"
        if section not in res:
            return 1  # no pass produced numbers: nothing to report
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": res[section]}))
    return 0 if failed == 0 or args.workload else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def load_set(path: str) -> list[dict]:
    """Result records of a file, or of every result file in a directory."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = []
    for f in files:
        data = json.loads(f.read_text())
        if isinstance(data, dict) and "workloads" in data:
            records.append(data)
    if not records:
        raise SystemExit(f"error: no result files in {path}")
    return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _better(a: float, b: float, direction: str) -> bool:
    return b < a if direction == "lower" else b > a


def compare(a_path: str, b_path: str, claims: list[str]) -> int:
    """``choosing-metrics`` section 8 over two result sets."""
    a_set, b_set = load_set(a_path), load_set(b_path)
    print(f"A: {len(a_set)} result files from {a_path}")
    print(f"B: {len(b_set)} result files from {b_path}")
    regressed = 0

    def values(records, workload, metric):
        return [r["workloads"][workload]["metrics"][metric]["value"] for r in records
                if "metrics" in r["workloads"].get(workload, {})]

    workloads = [w for w in WORKLOADS
                 if any(w in r["workloads"] for r in a_set)
                 and any(w in r["workloads"] for r in b_set)]
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<12} {'A median [q1, q3] n':>32} {'B median [q1, q3] n':>32}"
              f" {'change':>8}  verdict")
        for metric, spec in BOUNDS.items():
            a, b = values(a_set, w, metric), values(b_set, w, metric)
            if not a or not b:
                continue
            a1, am, a3 = _quartiles(a)
            b1, bm, b3 = _quartiles(b)
            change = (bm - am) / am
            worse = change if spec["better"] == "lower" else -change
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            all_better = all(_better(x, y, spec["better"]) for x in a for y in b)
            if worse <= spec["bound"] and (spread <= spec["bound"] or all_better):
                verdict = "ok"
            elif spread > spec["bound"] and not all_better:
                verdict = f"unresolved (spread {spread:.1%} > bound {spec['bound']:.1%})"
            else:
                verdict = f"regressed (> bound {spec['bound']:.1%})"
                regressed += 1
            print(f"  {metric:<12} {am:>12.5g} [{a1:.5g}, {a3:.5g}] {len(a):>2}"
                  f" {bm:>12.5g} [{b1:.5g}, {b3:.5g}] {len(b):>2} {change:>+8.2%}  {verdict}")
        for side, records in (("A", a_set), ("B", b_set)):
            att = sum(r["workloads"][w]["attempted"] for r in records if w in r["workloads"])
            fail = sum(r["workloads"][w]["failed"] for r in records if w in r["workloads"])
            print(f"  failed runs {side}: {fail}/{att}")
        digests: dict = {}
        checks: dict = {}
        for records in (a_set, b_set):
            for r in records:
                res = r["workloads"].get(w, {})
                if "digest" in res:
                    digests.setdefault(res["seed"], set()).add(res["digest"])
                    for k, c in res["checks"].items():
                        checks.setdefault((res["seed"], k), set()).add(c["value"])
        same = all(len(d) == 1 for d in digests.values())
        print(f"  digests per seed identical across A and B: {'yes' if same else 'NO'}"
              f" (seeds {sorted(digests)})")
        moved = sorted({k for (_, k), v in checks.items() if len(v) > 1})
        print(f"  simulated check values identical: {'yes' if not moved else 'NO ' + str(moved)}")

    for claim in claims:
        metric, _, w = claim.partition("@")
        spec = BOUNDS[metric]
        a, b = values(a_set, w, metric), values(b_set, w, metric)
        pairs = list(zip(a, b))
        wins = sum(_better(x, y, spec["better"]) for x, y in pairs)
        a1, am, a3 = _quartiles(a)
        bm = _quartiles(b)[1]
        gap_ok = abs(bm - am) > (a3 - a1) and _better(am, bm, spec["better"])
        held = pairs and wins / len(pairs) >= 0.9 and gap_ok
        print(f"\nclaim {claim}: B wins {wins}/{len(pairs)} pairs; median gap "
              f"{bm - am:+.5g} vs A IQR {a3 - a1:.5g} -> {'met' if held else 'NOT met'}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", help="parent result file or directory")
        parser.add_argument("b", help="change result file or directory")
        parser.add_argument("--claim", action="append", default=[],
                            help="metric@workload the change claims to improve")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, args.claim)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time budget per workload (default: one pass)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="small sizes (~20 s in all)")
    parser.add_argument("--out", default=str(HERE / "results"))
    return cmd_measure(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
