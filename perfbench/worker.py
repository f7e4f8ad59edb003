"""One benchmark run inside a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` stops after set-up; ``run`` times the number of whole
rounds of the seeded operation list that workloads.rounds_for gives for S
seconds; ``trace`` times the rounds for S/2 seconds untraced, then the same
rounds with the tracer installed.  Prints ``READY <time.monotonic()>``
when set-up is done (run.py times set-up from the spawn to that stamp) and
one JSON line of results at the end.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import numpy

import calib
import tracer as tr
import workloads as wl

OUT_DIR = wl.HERE / "out"


def run_op(op: wl.Op) -> tuple[float, wl.Outcome]:
    """(wall seconds, outcome) of one operation."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an operation that raises has failed
        out = wl.Outcome(False, note=f"{type(exc).__name__}: {exc}"[:300])
    return time.perf_counter() - t0, out


def run_rounds(ops, rounds: int, kernel: calib.Kernel | None,
               tracer=None) -> dict:
    """Time `rounds` whole passes over the operation list.

    Each record's ``lat`` is its wall time (``wall``) scaled to the
    reference speed by the calibration samples taken nearest to it, or
    the wall time itself without a kernel.
    """
    recs, cal = [], []

    def stamp():
        if kernel is not None:
            cal.append(kernel.stamp())
    stamp()
    t0 = last = time.perf_counter()
    for done in range(rounds):
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{done}:{i}"
            start = time.perf_counter()
            wall, out = run_op(op)
            recs.append({"op": op.name, "t": start + wall / 2, "wall": wall,
                         "ok": out.ok, "gap": out.gap,
                         "known": out.known and not out.ok,
                         "missed": out.missed,
                         "exit_mismatch": out.exit_mismatch,
                         "child": out.child, "note": out.note})
            if time.perf_counter() - last >= calib.EVERY_S:
                stamp()
                last = time.perf_counter()
    wall_s = time.perf_counter() - t0
    stamp()
    for rec in recs:
        t = rec.pop("t")
        rec["lat"] = rec["wall"] * (calib.factor(cal, t) if cal else 1.0)
    return {"records": recs, "rounds": rounds,
            "busy_s": sum(r["lat"] for r in recs), "wall_s": wall_s,
            "calibration_s": [c for _, c in cal]}


def build(workload: str, seed: int):
    pool = wl.load_pool()
    rng = random.Random(seed)
    if workload == "cli":
        OUT_DIR.mkdir(exist_ok=True)
        cli = wl.CliRunner(OUT_DIR)
        return wl.cli_ops(cli, pool, rng), (lambda: None), cli
    api = wl.Api()
    make = {"hankel": wl.hankel_ops, "euler": wl.euler_ops,
            "strip": wl.strip_ops}[workload]
    ops = make(api, pool, rng)

    def setup():
        # first touch of every lazily built prime-ideal table
        if workload == "euler":
            # one untimed op per (pair, prime bound the program picks)
            for group in sorted({op.group for op in ops}):
                run_op(next(op for op in ops if op.group == group))
        else:
            for label in sorted({op.group for op in ops}):
                api.touch_tables(label)
    return ops, setup, None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    args = ap.parse_args()

    ops, setup, cli = build(args.workload, args.seed)
    tracer = tr.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    setup()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        return 0
    # CLI ops run in child processes, whose start-up the kernel does not
    # follow (README.md); their times stay raw.
    kernel = calib.Kernel() if cli is None else None

    result: dict = {"workload": args.workload, "seed": args.seed}
    if tracer is None:
        result["timed"] = run_rounds(
            ops, wl.rounds_for(args.workload, args.seconds), kernel)
    else:
        setup_totals = tracer.totals()
        tracer.reset()
        tracer.uninstall()
        k = wl.rounds_for(args.workload, args.seconds / 2)
        plain = run_rounds(ops, k, kernel)
        if cli is not None:
            cli.traced = True
        tracer.install()
        traced = run_rounds(ops, k, kernel, tracer=tracer)
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}.tsv")
        phase = tracer.totals()
        absent = set(tracer.absent)
        children = [r["child"] for r in traced["records"] if r["child"]]
        if cli is not None:
            # the program runs in the children; this process never imports it
            absent = set().union(*(c["absent"] for c in children))
        for c in children:
            tr.merge(phase, c["totals"])
        totals = tr.merge(dict(setup_totals), tr.scaled(phase, 1.0 / k))
        result.update(timed=plain, traced=traced, totals=totals,
                      absent=sorted(absent))
    if kernel is not None:
        kernel.close()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_rss_kb"] = \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
