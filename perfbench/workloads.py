"""The four workloads: seeded operation lists drawn from the pinned pool,
each operation checked against a reference from the route it does not time.

An operation passes when it returns finite values whose gap to the
reference is at most the operation's claimed error plus the reference's
claimed error (or, for the CLI, when it exits with the expected code and
without a traceback).  A few operations hit defects of polydet 1.0.0 and
are kept in the lists on purpose.  Each such defect is pinned to the failure
seen at seed: a failure that matches it exactly is marked ``known`` and
counts as failed without marking the run incorrect; any other failure of the
same operation (it raises, fails worse, or fails differently) is not known.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_PATH = HERE / "data" / "reference.json"

# Claimed ordinate accuracy of a scanned zero (the CLI's zeros records carry
# it) plus the reference's own error.
ORDINATE_TOL = 1e-9 + 1e-12
# erh_monodromy_defect returns no error estimate; the verify suite's
# tolerance for the same quantity is used instead.
DEFECT_TOL = 1e-6
CLI_TIMEOUT_S = 120.0

# Pool entries where polydet 1.0.0 under-states its error, found while pinning
# the references.  Each runs in every round so the defect shows on every
# seed; seeded draws take the other entries.
XI_UNDERCLAIM = {"s": [5.867, -0.28], "z": [1.907, 2.619]}
XI_SEED_GAP = 5.462e-10
#   xi_hankel: gap 5.5e-10 > claimed 4.2e-10 + reference 6.1e-11
BOTH_UNDERCLAIM = {"pair": "Q", "r": 1, "z": [1.987, 0.39]}
BOTH_SEED_GAP = 7.765e-14
#   determinant_closed at depth 1: gap 7.8e-14 > claimed 7.5e-16 + 1.9e-17
# The pool's least accurate xi point (7.3 digits at seed), run in every round
# like the z = 1.3 anchor on euler, so accuracy_digits on hankel does not
# depend on which xi points a seed draws.
XI_WORST = {"s": [6.123, -0.923], "z": [2.288, -0.259]}
# A pinned under-claim is the seed defect while its absolute gap stays
# within this factor of the gap at seed.
KNOWN_GAP_FACTOR = 2.0
# The Q(i) scan to 200 misses the close zeta/chi_-4 pairs (reference
# ordinates, rounded to 3 decimals).
QI_SCAN_MISSED = (84.732, 84.735, 131.088, 131.094, 173.412, 173.443,
                  178.362, 178.377)
# The invalid CLI inputs at seed: exit code and the text it shows (the last
# stderr line for exit 1, the value column for exit 0).
CLI_SEED_DEFECTS = {
    "det --z nan --depth 2":
        (1, "ValueError: cannot convert float NaN to integer"),
    "det --depth 1 --z 1000 --closed": (1, "OverflowError: math range error"),
    "lfun --s nan": (0, "nan +nani"),
    "eval --fn hurwitz --s -200 --z 1": (0, "nan +nani"),
}
ENV_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


@dataclass
class Outcome:
    ok: bool
    gap: float | None = None       # relative gap to the reference
    missed: int = 0                # reference zero ordinates not found
    exit_mismatch: int = 0         # CLI invocations with a wrong exit code
    child: dict | None = None      # CLI child timings and layer totals
    note: str = ""
    known: bool = False            # failed exactly as the pinned seed defect


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]     # raising counts as failed
    group: str = ""                # the prime-ideal table it first touches


def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text())


def cplx(v) -> complex:
    return complex(v[0], v[1])


def rel_gap(value: complex, ref: complex) -> float:
    gap = abs(value - ref)
    return gap / abs(ref) if ref != 0 else gap


def check_value(value, claimed: float, ref, ref_err: float,
                seed_gap: float | None = None) -> Outcome:
    """Gap within claimed + ref_err.  With seed_gap (a pinned under-claim),
    a failure whose gap stays within KNOWN_GAP_FACTOR of it is known."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)
            and math.isfinite(claimed)):
        return Outcome(False, note="non-finite result")
    ref = complex(ref)
    gap = abs(value - ref)
    ok = gap <= claimed + ref_err
    known = (not ok and seed_gap is not None
             and gap <= KNOWN_GAP_FACTOR * seed_gap)
    note = "" if ok else (f"gap {gap:.3e} > claimed "
                          f"{claimed:.3e} + ref {ref_err:.3e}")
    return Outcome(ok, rel_gap(value, ref), note=note, known=known)


def check_ordinates(found, ref_ords, height: float,
                    seed_missed: tuple = ()) -> Outcome:
    """Every reference ordinate up to height found once, nothing extra.  A
    failure that misses exactly seed_missed, with no extra, is known."""
    found = sorted(float(g) for g in found)
    want = [g for g in ref_ords if g <= height]
    matched, missed, worst = 0, [], 0.0
    j = 0
    for g in want:
        while j < len(found) and found[j] < g - ORDINATE_TOL:
            j += 1
        if j < len(found) and abs(found[j] - g) <= ORDINATE_TOL:
            worst = max(worst, abs(found[j] - g) / g)
            matched += 1
            j += 1
        else:
            missed.append(round(g, 3))
    extra = len(found) - matched
    ok = not missed and extra == 0
    known = not ok and extra == 0 and tuple(missed) == tuple(seed_missed)
    return Outcome(ok, worst, missed=len(missed), known=known,
                   note="" if ok else f"{len(missed)} missed, {extra} extra "
                                      f"of {len(want)} ordinates")


# ---------------------------------------------------------------------------
# In-process workloads


class Api:
    """polydet objects shared by the in-process operations."""

    def __init__(self):
        import polydet as pd
        self.pd = pd
        q = pd.NumberField.rational()
        qi = pd.NumberField.quadratic(-1)
        self.pairs = {
            "Q": (q, pd.trivial_character(q)),
            "chi4": (q, pd.kronecker_character(-4)),
            "Qi": (qi, pd.trivial_character(qi)),
            "chi23": (q, pd.kronecker_character(-23)),
        }

    def touch_tables(self, label: str) -> None:
        """First touch of the pair's prime-ideal table at the default bound."""
        fld, chi = self.pairs[label]
        self.pd.log_l_series(fld, chi, 3.0)


def _det_op(api: Api, e: dict, route: str) -> Op:
    fld, chi = api.pairs[e["pair"]]
    z, r = cplx(e["z"]), e["r"]

    def run():
        # looked up per call, so an installed tracer sees it
        fn = getattr(api.pd, f"determinant_{route}")
        v = fn(fld, chi, r, z)
        return check_value(v.value, v.error_estimate, cplx(e["ref"]),
                           e["ref_err"])
    return Op(f"{route}:{e['pair']}:r{r}:z{e['z']}", run, group=e["pair"])


def _pick(entries: list[dict], key: dict) -> tuple[dict, list[dict]]:
    """The entry matching key, and all the others."""
    hit = [e for e in entries if all(e[k] == v for k, v in key.items())]
    if len(hit) != 1:
        raise LookupError(f"pool has no single entry {key}")
    return hit[0], [e for e in entries if e is not hit[0]]


def _xi_op(api: Api, e: dict, seed_gap: float | None = None) -> Op:
    fld, chi = api.pairs[e["pair"]]
    s, z = cplx(e["s"]), cplx(e["z"])

    def run():
        v = api.pd.xi_hankel(fld, chi, s, z)
        return check_value(v.value, v.error_estimate, cplx(e["ref"]),
                           e["ref_err"], seed_gap)
    return Op(f"xi:{e['pair']}:s{e['s']}:z{e['z']}", run, group=e["pair"])


def hankel_ops(api: Api, pool: dict, rng: random.Random) -> list[Op]:
    """Two direct determinants per (pair, depth), four xi at Re s > 1 (the
    pinned under-claim, the pinned least accurate point and two drawn) and
    one conductor-23 determinant: 23
    operations, about a sixth xi.  The median falls inside the chi_-4
    cluster and the tail inside the Q(i) cluster."""
    entries = pool["hankel"]
    ops = []
    for label in ("Q", "chi4", "Qi"):
        for r in (1, 2, 3):
            cands = [e for e in entries if e["kind"] == "direct"
                     and e["pair"] == label and e["r"] == r]
            ops += [_det_op(api, e, "direct") for e in rng.sample(cands, 2)]
    pinned, xis = _pick([e for e in entries if e["kind"] == "xi"],
                        XI_UNDERCLAIM)
    worst, xis = _pick(xis, XI_WORST)
    ops.append(_xi_op(api, pinned, XI_SEED_GAP))
    ops.append(_xi_op(api, worst))
    ops += [_xi_op(api, e) for e in rng.sample(xis, 2)]
    c23 = [e for e in entries if e["pair"] == "chi23"]
    ops.append(_det_op(api, rng.choice(c23), "direct"))
    rng.shuffle(ops)
    return ops


def euler_ops(api: Api, pool: dict, rng: random.Random) -> list[Op]:
    """Per (pair, depth): the z = 1.3 anchor, two points from each of the
    five Re z bands at the 8M bound and one from each of the five others
    (three mid, two at 100k): 144 operations, eleven sixteenths of them at
    the 8M bound, so the median lands well inside that cluster.

    Each op's group is its pair and the prime bound the program picks for
    its z, so set-up touches every table the timed ops use; if the program
    no longer exposes that choice, every op is its own group."""
    auto = getattr(api.pd.determinants, "_auto_prime_bound", None)
    ops = []
    for label in ("Q", "chi4", "Qi"):
        for r in (2, 3, 4):
            cands = [e for e in pool["euler"]
                     if e["pair"] == label and e["r"] == r]
            bands = sorted({e["band"] for e in cands} - {"anchor"})
            pick = [e for e in cands if e["band"] == "anchor"]
            for b in bands:
                pick += rng.sample([e for e in cands if e["band"] == b],
                                   2 if b.startswith("h") else 1)
            for e in pick:
                op = _det_op(api, e, "closed")
                fld = api.pairs[label][0]
                op.group = (f"{label}:{auto(fld, cplx(e['z']))}" if auto
                            else op.name)
                ops.append(op)
    rng.shuffle(ops)
    return ops


def strip_ops(api: Api, pool: dict, rng: random.Random) -> list[Op]:
    """Zero scans to height 200, continuation along straight and bent paths,
    the monodromy defect and four argument-principle counts: 12 operations.
    The median falls among the counts, the tail among the chi_-4 scan and
    the monodromy loop."""
    pd = api.pd
    st = pool["strip"]
    ops = []
    for label in ("Q", "chi4", "Qi"):
        fld, chi = api.pairs[label]
        ref = st["ordinates"][label]

        # the sign scan of polydet 1.0.0 misses close zeta/chi_-4 pairs of Q(i)
        seed_missed = QI_SCAN_MISSED if label == "Qi" else ()

        def scan(fld=fld, chi=chi, ref=ref, seed_missed=seed_missed):
            return check_ordinates(pd.scan_ordinates(fld, chi, 200.0), ref,
                                   200.0, seed_missed)
        ops.append(Op(f"scan:{label}:200", scan, group=label))
    fld, chi = api.pairs["Q"]
    for r, e in zip((2, 3), rng.sample(st["continued"], 2)):
        s = cplx(e["s"])
        for bent in (False, True):
            path = pd.PathSpec((3.0 + 0j, 0.5 * (3.0 + s) + 1.2j, s)) \
                if bent else None

            def cont(r=r, s=s, path=path, e=e):
                v = pd.poly_l_continued(fld, chi, r, s, path=path)
                return check_value(v.value, v.tail_bound,
                                   cplx(e[f"ref_r{r}"]), e[f"ref_err_r{r}"])
            shape = "bent" if bent else "straight"
            ops.append(Op(f"continued:Q:r{r}:s{e['s']}:{shape}", cont,
                          group="Q"))
    rect = st["monodromy"]

    def defect():
        d = pd.erh_monodromy_defect(fld, chi, pd.PathSpec.rectangle(*rect))
        return check_value(d, DEFECT_TOL, 0j, 0.0)
    ops.append(Op(f"monodromy:Q:{rect}", defect, group="Q"))
    # one-zero rectangles only: their cost barely depends on the height
    singles = [e for e in st["count"] if e["ref"] == 1]
    for e in rng.sample(singles, 4):
        def count(e=e):
            n = pd.argument_principle_count(fld, chi,
                                            pd.PathSpec.rectangle(*e["rect"]))
            return Outcome(n == e["ref"], 0.0 if n == e["ref"] else 1.0,
                           note=f"count {n}, expected {e['ref']}")
        ops.append(Op(f"count:Q:{e['rect']}", count, group="Q"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# CLI workload: one child process per operation


def child_env(traced_out: str | None = None) -> dict:
    env = dict(os.environ, **ENV_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("POLYDET_CONFIG", None)
    if traced_out:
        env["PERFBENCH_CHILD_OUT"] = traced_out
    return env


class CliRunner:
    """Spawns `python -m polydet.cli`, or the tracing shim when traced."""

    def __init__(self, out_dir: Path):
        self.traced = False
        self.out_dir = out_dir
        self.n = 0

    def __call__(self, argv: list[str]) -> tuple[int, str, str, dict | None]:
        self.n += 1
        out_file = None
        if self.traced:
            out_file = self.out_dir / f"child-{os.getpid()}-{self.n}.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "polydet.cli", *argv]
        t_spawn = time.monotonic()
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               env=child_env(str(out_file) if out_file
                                             else None),
                               timeout=CLI_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return -1, "", "timeout", None
        child = None
        if out_file is not None and out_file.exists():
            child = json.loads(out_file.read_text())
            out_file.unlink()
            child["import_s"] = child.pop("t_imported") - t_spawn
        return p.returncode, p.stdout, p.stderr, child


def _cli_value_op(cli: CliRunner, name: str, argv: list[str], checks) -> Op:
    """checks(records) -> Outcome; expected exit code 0."""
    def run():
        code, out, err, child = cli(argv + ["--format", "json"])
        if code != 0 or "Traceback" in err:
            return Outcome(False, exit_mismatch=int(code != 0), child=child,
                           note=f"exit {code}: {err.strip()[-200:]}")
        o = checks(json.loads(out))
        o.child = child
        return o
    return Op(name, run, group="cli")


def _cli_error_op(cli: CliRunner, argv: list[str]) -> Op:
    """Invalid input: the contract is exit code 2 and no traceback.

    All four break it at seed (CLI_SEED_DEFECTS): exit 1 with a traceback,
    or exit 0 with a NaN value."""
    seed_code, seed_text = CLI_SEED_DEFECTS[" ".join(argv)]

    def run():
        code, out, err, child = cli(argv)
        ok = code == 2 and "Traceback" not in err
        shown = out if code == 0 else (err.strip().splitlines() or [""])[-1]
        return Outcome(ok, exit_mismatch=int(code != 2), child=child,
                       known=(not ok and code == seed_code
                              and seed_text in shown),
                       note="" if ok else f"exit {code}, stdout "
                                          f"{out.strip()[-60:]!r}, stderr "
                                          f"{err.strip()[-80:]!r}")
    return Op("cli:" + " ".join(argv), run, group="cli")


def _fmt(v: list) -> str:
    return f"{v[0]!r}{v[1]:+.17g}j"


def _rec_value(rec: dict) -> complex:
    return complex(rec["value_re"], rec["value_im"])


def cli_ops(cli: CliRunner, pool: dict, rng: random.Random) -> list[Op]:
    """Six valid invocations (the depth-1 `det --both` pinned at the
    under-claim) and four invalid ones: 10 child processes."""
    c = pool["cli"]
    pairs = pool["pairs"]
    ops = []

    h = rng.choice(c["hurwitz"])
    ops.append(_cli_value_op(
        cli, f"cli:eval hurwitz s{h['s']} z{h['z']}",
        ["eval", "--fn", "hurwitz", f"--s={_fmt(h['s'])}",
         f"--z={_fmt(h['z'])}"],
        lambda recs, h=h: check_value(_rec_value(recs[0]),
                                      recs[0]["error_estimate"],
                                      cplx(h["ref"]), h["ref_err"])))

    lf = rng.choice(c["lfun"])
    fld, ch = pairs[lf["pair"]]
    ops.append(_cli_value_op(
        cli, f"cli:lfun {lf['pair']} s{lf['s']}",
        ["lfun", "--field", fld, "--char", ch, f"--s={_fmt(lf['s'])}"],
        lambda recs, lf=lf: check_value(_rec_value(recs[0]),
                                        recs[0]["error_estimate"],
                                        cplx(lf["ref"]), lf["ref_err"])))

    d, _ = _pick([e for e in pool["hankel"] if e["kind"] == "direct"],
                 BOTH_UNDERCLAIM)
    fld, ch = pairs[d["pair"]]

    def both(recs, d=d):
        # at seed the direct record passes and the closed one under-claims
        outs = {r["route"]: check_value(
                    _rec_value(r), r["error_estimate"], cplx(d["ref"]),
                    d["ref_err"],
                    BOTH_SEED_GAP if r["route"] == "closed" else None)
                for r in recs if r["route"] in ("closed", "direct")}
        if len(outs) != 2:
            return Outcome(False, note="expected closed and direct records")
        return Outcome(all(o.ok for o in outs.values()),
                       max((o.gap for o in outs.values()
                            if o.gap is not None), default=None),
                       known=outs["direct"].ok and outs["closed"].known,
                       note="; ".join(f"{k}: {o.note}"
                                      for k, o in outs.items() if o.note))
    ops.append(_cli_value_op(cli, f"cli:det --both {d['pair']} r1 z{d['z']}",
                             ["det", "--field", fld, "--char", ch, "--depth",
                              "1", f"--z={_fmt(d['z'])}", "--both"], both))

    k = c["closed_8m"]
    fld, ch = pairs[k["pair"]]
    ops.append(_cli_value_op(
        cli, "cli:det --closed quad:-1 r2 z1.6",
        ["det", "--closed", "--field", fld, "--char", ch, "--depth",
         str(k["r"]), f"--z={_fmt(k['z'])}"],
        lambda recs, k=k: check_value(_rec_value(recs[0]),
                                      recs[0]["error_estimate"],
                                      cplx(k["ref"]), k["ref_err"])))

    def verify_ok(recs):
        bad = [r["inputs"]["check"] for r in recs if r["route"] != "pass"]
        return Outcome(not bad and bool(recs), None,
                       note=f"failed checks {bad}" if bad else "")
    ops.append(_cli_value_op(cli, "cli:verify --suite special",
                             ["verify", "--suite", "special"], verify_ok))

    # the default height (30); its cost grows with the height, so it is
    # not drawn
    ops.append(_cli_value_op(
        cli, "cli:zeros --find", ["zeros", "--find"],
        lambda recs: check_ordinates([r["value_re"] for r in recs],
                                     c["zeros"]["Q"], 30.0)))

    for argv in (["det", "--z", "nan", "--depth", "2"],
                 ["det", "--depth", "1", "--z", "1000", "--closed"],
                 ["lfun", "--s", "nan"],
                 ["eval", "--fn", "hurwitz", "--s", "-200", "--z", "1"]):
        ops.append(_cli_error_op(cli, argv))
    rng.shuffle(ops)
    return ops


WORKLOADS = ("hankel", "euler", "strip", "cli")

# Whole rounds timed per 20 s of run length (15 to 22 s of work for
# polydet 1.0.0 on two cores).  A fixed count, not a deadline, keeps the
# sample identical across program versions, so the tail (ten operations
# above it) always lands inside the same latency cluster: the Q(i)
# determinants on hankel, the 8M-bound ops on euler, the Q scans on strip
# and the 0.3-0.5 s invocations (`det --both`, `eval`) on cli.
ROUNDS_PER_20S = {"hankel": 2, "euler": 3, "strip": 3, "cli": 3}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS_PER_20S[workload] * seconds / 20.0))
