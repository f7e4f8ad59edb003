"""The benchmark's own tests.

    python3 perfbench/selftest.py          (from the repository root)

Takes a few minutes: the smoke test runs every workload once untraced and
once traced at the shortest run length (one round of operations each).
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_rounds(ops, tracer=None) -> dict:
    """One timed round of ops, as a worker runs it."""
    kernel = calib.Kernel()
    try:
        return worker.run_rounds(ops, 1, kernel, tracer=tracer)
    finally:
        kernel.close()


class SmokeRun(unittest.TestCase):
    """Every workload emits every metric BENCHMARK.json names, and units."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, workload: str, trace: int, key: str):
        p = subprocess.run([sys.executable, *self.spec["command"][1:],
                            "--workload", workload, "--seed", "7",
                            "--seconds", "0.1", "--trace", str(trace)],
                           capture_output=True, text=True, cwd=ROOT,
                           timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        out = last_json(p.stdout)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"], p.stdout[-2000:])
        self.assertGreaterEqual(out["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)
        for k, v in out["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)
        return out

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(wl.WORKLOADS))
        for name in names:
            with self.subTest(workload=name):
                self.check(name, 0, "end_to_end")
                self.check(name, 1, "per_layer")


class PlantedReference(unittest.TestCase):
    def test_wrong_reference_fails(self):
        pool = wl.load_pool()
        for e in pool["euler"]:
            e["ref"] = [e["ref"][0] * 1.001, e["ref"][1]]
        ops = [op for op in wl.euler_ops(wl.Api(), pool, random.Random(1))
               if "r2" in op.name][:3]
        res = {"timed": run_rounds(ops), "rss_kb": 1,
               "children_rss_kb": 1}
        m = bench.end_to_end([1.0], res, "euler")
        self.assertLess(m["pass_frac"], 1.0)
        self.assertTrue(all(not r["ok"] for r in res["timed"]["records"]))


class PinnedDefects(unittest.TestCase):
    """An op kept for a seed defect is known only when it fails exactly as
    at seed; a planted failure of any other kind makes the run incorrect."""

    @classmethod
    def setUpClass(cls):
        import polydet
        cls.pd = polydet
        cls.pool = wl.load_pool()
        cls.api = wl.Api()

    def outcomes(self, op, module, name, replies):
        """known flag of op's record for each fake reply of module.name."""
        real = getattr(module, name)
        known = []
        try:
            for reply in replies:
                setattr(module, name, reply)
                rec = run_rounds([op])["records"][0]
                self.assertFalse(rec["ok"], rec)
                known.append(rec["known"])
        finally:
            setattr(module, name, real)
        return known

    @staticmethod
    def raises(*args, **kw):
        raise RuntimeError("planted")

    def test_qi_scan(self):
        ref = self.pool["strip"]["ordinates"]["Qi"]
        seed = [g for g in ref if round(g, 3) not in wl.QI_SCAN_MISSED]
        self.assertEqual(len(ref) - len(seed), len(wl.QI_SCAN_MISSED))
        op = next(op for op in wl.strip_ops(self.api, self.pool,
                                            random.Random(1))
                  if op.name == "scan:Qi:200")
        known = self.outcomes(op, self.pd, "scan_ordinates", [
            lambda *a: seed,                  # the seed defect
            lambda *a: seed[1:],              # one more ordinate missed
            lambda *a: seed + [150.0],        # an extra ordinate
            self.raises])
        self.assertEqual(known, [True, False, False, False])

    def test_xi_underclaim(self):
        e, _ = wl._pick([e for e in self.pool["hankel"] if e["kind"] == "xi"],
                        wl.XI_UNDERCLAIM)
        ref = wl.cplx(e["ref"])
        op = next(op for op in wl.hankel_ops(self.api, self.pool,
                                             random.Random(1))
                  if op.name.startswith(f"xi:Q:s{e['s']}"))

        def off(gap):
            return lambda *a: SimpleNamespace(value=ref + gap,
                                              error_estimate=4.2e-10)
        known = self.outcomes(op, self.pd, "xi_hankel", [
            off(wl.XI_SEED_GAP), off(10 * wl.XI_SEED_GAP), self.raises])
        self.assertEqual(known, [True, False, False])

    def cli_known(self, name, replies):
        fake = SimpleNamespace(reply=None)
        ops = wl.cli_ops(lambda argv: fake.reply, self.pool, random.Random(1))
        op = next(op for op in ops if op.name.startswith(name))
        return self.outcomes(op, fake, "reply", replies)

    def test_cli_invalid_inputs(self):
        nan = "value\neuler-maclaurin  nan +nani   nan\n"
        tb = "Traceback (most recent call last):\n  ...\n"
        self.assertEqual(self.cli_known("cli:eval --fn hurwitz", [
            (0, nan, "", None),                              # seed
            (1, "", tb + "ValueError: planted", None),
            (0, "value\neuler-maclaurin  1.0 +0.0i\n", "", None)]),
            [True, False, False])
        self.assertEqual(self.cli_known("cli:det --z nan", [
            (1, "", tb + wl.CLI_SEED_DEFECTS["det --z nan --depth 2"][1],
             None),                                          # seed
            (1, "", tb + "TypeError: planted", None),
            (0, nan, "", None)]),
            [True, False, False])

    def test_cli_det_both(self):
        d, _ = wl._pick([e for e in self.pool["hankel"]
                         if e["kind"] == "direct"], wl.BOTH_UNDERCLAIM)
        ref = wl.cplx(d["ref"])

        def reply(closed_gap, direct_gap):
            recs = [{"route": route, "value_re": (ref + gap).real,
                     "value_im": (ref + gap).imag, "error_estimate": 8e-16}
                    for route, gap in (("closed", closed_gap),
                                       ("direct", direct_gap))]
            return 0, json.dumps(recs), "", None
        seed = wl.BOTH_SEED_GAP
        self.assertEqual(self.cli_known("cli:det --both", [
            reply(seed, 0.0),                                # seed
            reply(10 * seed, 0.0),                           # closed worse
            reply(seed, seed),                               # direct off
            (1, "", "Traceback (most recent call last):\n", None)]),
            [True, False, False, False])


class TracerChecks(unittest.TestCase):
    def test_self_time_within_wall(self):
        api = wl.Api()
        pool = wl.load_pool()
        ops = wl.hankel_ops(api, pool, random.Random(3))[:2]
        t = tr.Tracer()
        t.install()
        try:
            t0 = time.perf_counter()
            res = run_rounds(ops, tracer=t)
            wall = time.perf_counter() - t0
        finally:
            t.uninstall()
        self.assertTrue(all(r["ok"] for r in res["records"]))
        totals = t.totals()
        self.assertGreater(totals["em_calls"], 0)
        self.assertLessEqual(totals["self_s_total"],
                             totals["outer_s_total"] + 1e-9)
        self.assertLessEqual(totals["outer_s_total"], wall)

    def test_missing_entry_point_is_absent(self):
        import polydet.special_functions as sf
        before = sf._em_core
        t = tr.Tracer(entry_points=(("special_functions", "_em_core"),
                                    ("special_functions", "_no_such_kernel"),
                                    ("no_such_module", "f")))
        t.install()
        try:
            self.assertIsNot(sf._em_core, before)
        finally:
            t.uninstall()
        self.assertIs(sf._em_core, before)
        self.assertEqual(t.absent, ["special_functions._no_such_kernel",
                                    "no_such_module.f"])


class BareCheckout(unittest.TestCase):
    def test_fails_without_program(self):
        tmp = HERE / "out" / "bare"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            shutil.copytree(HERE, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            p = subprocess.run([sys.executable, "perfbench/run.py",
                                "--workload", "euler", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               capture_output=True, text=True, cwd=tmp,
                               timeout=180)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
