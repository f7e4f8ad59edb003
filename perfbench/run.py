"""polydet benchmark: one command, four workloads, checked results.

    python3 perfbench/run.py --workload {hankel,euler,strip,cli} --seed N \
        --seconds S --trace {0,1} [--repeat K]

Run from the repository root; the program is imported from ./src.  Each
run starts fresh single-threaded interpreters (worker.py): set-up is timed
in several of them (for cli: cold `import polydet` children) and the median
reported, and the last of them then times a fixed number of whole rounds of
the seeded operation list, about S seconds of work at seed.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
environment and details of the run.

``--repeat K`` runs seeds N .. N+K-1 and prints the median and quartiles of
every metric instead.  See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Set-ups timed per run (worker start-ups; cli: cold imports).  Fewer on
# euler, where one set-up sieves for 6-10 s.
SETUP_SAMPLES = {"hankel": 7, "euler": 4, "strip": 7, "cli": 7}
RUN_BUDGET_S = 170.0      # one run, all its workers included
OUT_DIR = HERE / "out"      # raw per-operation records of each run

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "accuracy_digits": "digits",
}

EXTRA_LAYER_UNITS = {
    "zero_data.missed_ordinates": "count",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.exit_mismatch": "count",
    "trace.ops_per_s_untraced": "ops/s",
    "trace.ops_per_s_traced": "ops/s",
    "trace.overhead_frac": "ratio",
    "trace.absent_entry_points": "count",
}


class BenchError(RuntimeError):
    pass


def worker_cmd(workload, seed, seconds, mode) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
    return left


def spawn_worker(cmd: list[str], deadline: float) -> tuple[float, dict]:
    """Run a worker to its end; return (set-up seconds, result).

    Set-up runs from the spawn to the monotonic stamp on the worker's READY
    line.  The worker has its own process group, so a worker that runs past
    the deadline is killed together with its calibration helper and any
    CLI child it started.
    """
    t0 = time.monotonic()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         env=wl.child_env(), cwd=ROOT,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
    ready, result = None, None
    for line in out.splitlines():
        if line.startswith("READY ") and ready is None:
            ready = float(line.split()[1]) - t0
        elif line.startswith("{"):
            result = json.loads(line)
    if p.returncode != 0 or ready is None:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited {p.returncode}")
    return ready, result


def cold_import_s(deadline: float) -> float:
    """Wall seconds of a cold `import polydet` child."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import polydet"], check=True,
                   env=wl.child_env(), cwd=ROOT,
                   timeout=remaining(deadline))
    return time.monotonic() - t0


def tail(lat: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it."""
    xs = sorted(lat)
    n = len(xs)
    k = max(0, n - 11)
    return xs[k], 100.0 * (k + 1) / n, n


def end_to_end(setup: list[float], res: dict, workload: str) -> dict:
    """The end-to-end metrics.  Set-up is scaled by the median calibration
    sample of the whole timed phase, which follows the machine's drift
    between runs without the jitter of a few passes (cli: not scaled)."""
    recs = res["timed"]["records"]
    cal = res["timed"]["calibration_s"]
    lat = [r["lat"] for r in recs]
    gaps = [r["gap"] for r in recs if r["gap"] is not None]
    rss = res["children_rss_kb"] if workload == "cli" else res["rss_kb"]
    t_val, _, _ = tail(lat)
    failed = sum(1 for r in recs if not r["ok"])
    return {
        "setup_s": statistics.median(setup)
        * (calib.REF_S / statistics.median(cal) if cal else 1.0),
        "ops_per_s": len(recs) / res["timed"]["busy_s"],
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * t_val,
        "peak_rss_mb": rss / 1024.0,
        "pass_frac": (len(recs) - failed) / len(recs),
        "accuracy_digits": min(-math.log10(max(g, 1e-16)) for g in gaps),
    }


def per_layer(res: dict) -> dict:
    m = tr.layer_metrics(res["totals"])
    traced = res["traced"]
    k = traced["rounds"]
    children = [r["child"] for r in traced["records"] if r["child"]]
    m["zero_data.missed_ordinates"] = \
        sum(r["missed"] for r in traced["records"]) / k
    m["cli.import_s"] = statistics.median(
        [c["import_s"] for c in children]) if children else 0.0
    m["cli.main_s"] = statistics.median(
        [c["main_s"] for c in children]) if children else 0.0
    m["cli.exit_mismatch"] = \
        sum(r["exit_mismatch"] for r in traced["records"]) / k
    plain = len(res["timed"]["records"]) / res["timed"]["busy_s"]
    traced_rate = len(traced["records"]) / traced["busy_s"]
    m["trace.ops_per_s_untraced"] = plain
    m["trace.ops_per_s_traced"] = traced_rate
    # both phases ran the same number of whole rounds of the same ops
    m["trace.overhead_frac"] = plain / traced_rate - 1.0
    m["trace.absent_entry_points"] = len(res["absent"])
    return m


def environment(res: dict) -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git = rev.stdout.strip() if rev.returncode == 0 else None
        except OSError:
            pass
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "git_revision": git, "src_sha256": h.hexdigest()[:16]}


def raw_figures(setup: list[float], timed: dict) -> dict:
    """The timing metrics from unscaled wall times."""
    wall = [r["wall"] for r in timed["records"]]
    return {"setup_s": statistics.median(setup) if setup else None,
            "ops_per_s": len(wall) / sum(wall),
            "op_p50_ms": 1e3 * statistics.median(wall),
            "op_tail_ms": 1e3 * tail(wall)[0]}


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        setup = []   # set-up time is reported by the untraced run only
    elif workload == "cli":
        setup = [cold_import_s(deadline)
                 for _ in range(SETUP_SAMPLES[workload])]
    else:
        setup = [spawn_worker(worker_cmd(workload, seed, seconds, "setup"),
                              deadline)[0]
                 for _ in range(SETUP_SAMPLES[workload] - 1)]
    ready, res = spawn_worker(worker_cmd(workload, seed, seconds,
                                         "trace" if trace else "run"),
                              deadline)
    if workload != "cli" and not trace:
        setup.append(ready)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(res))
    recs = list(res["timed"]["records"])
    if trace:
        recs += res["traced"]["records"]
    failed = [r for r in recs if not r["ok"]]
    if trace:
        metrics = per_layer(res)
        units = {**tr.LAYER_UNITS, **EXTRA_LAYER_UNITS}
    else:
        metrics = end_to_end(setup, res, workload)
        units = END_TO_END_UNITS
    timed = res["timed"]
    _, pct, n = tail([r["lat"] for r in timed["records"]])
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "env": environment(res),
            "setup_samples_s": setup, "rounds": timed["rounds"],
            "wall_s": timed["wall_s"], "busy_s": timed["busy_s"],
            "calibration_s": timed["calibration_s"],
            "raw": raw_figures(setup, timed),
            "op_tail_percentile": pct, "op_samples": n,
            "absent_entry_points": res.get("absent", []),
            "failures": sorted({f"{r['op']}: {r['note']}"
                                + (" [known defect]" * r["known"])
                                for r in failed})}
    summary = {
        "correct": all(r["known"] for r in failed),
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return {"info": info, "summary": summary}


def quartiles(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
        else (vals[0],) * 3
    return {"q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def repeat(args) -> int:
    """Runs seeds N..N+K-1; prints quartiles of every metric, and of the
    unscaled timing figures as raw.<metric>."""
    rows = []
    for i in range(args.repeat):
        out = run_once(args.workload, args.seed + i, args.seconds,
                       bool(args.trace))
        vals = {k: v["value"] for k, v in out["summary"]["metrics"].items()}
        if not args.trace:
            vals.update({f"raw.{k}": v
                         for k, v in out["info"]["raw"].items()
                         if v is not None})
        rows.append((out["summary"], vals))
        print(json.dumps(out["summary"]), flush=True)
    print(f"\n{args.workload}: {args.repeat} runs, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}")
    print(f"{'metric':<42}{'q1':>12}{'median':>12}{'q3':>12}{'iqr/med':>9}")
    summary = {}
    for name in rows[0][1]:
        q = summary[name] = quartiles([v[name] for _, v in rows])
        print(f"{name:<42}{q['q1']:>12.5g}{q['median']:>12.5g}"
              f"{q['q3']:>12.5g}{q['spread']:>9.3f}")
    print(json.dumps({"workload": args.workload, "runs": len(rows),
                      "correct": all(r["correct"] for r, _ in rows),
                      "summary": summary}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="polydet benchmark")
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many seeds and print quartiles")
    args = ap.parse_args()
    if not (ROOT / "src" / "polydet" / "__init__.py").is_file():
        print("error: no polydet source under ./src next to the benchmark",
              file=sys.stderr)
        return 2
    if not wl.POOL_PATH.is_file():
        print(f"error: missing reference pool {wl.POOL_PATH}", file=sys.stderr)
        return 2
    try:
        if args.repeat:
            return repeat(args)
        out = run_once(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["info"]))
    print(json.dumps(out["summary"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
