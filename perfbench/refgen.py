"""Regenerate the benchmark's pinned input pool and reference values.

    PYTHONPATH=src python3 perfbench/refgen.py [--out FILE]

Every reference comes from a route the benchmarked operation does not time:

* direct (Hankel) determinants and depth-r L-values: an mpmath evaluation
  of the closed form with the exact depth-r L-value
  log L^(r)(z) = int_0^inf x^(r-2)/(r-2)! log L(z+x) dx (no Euler
  truncation); at depth 1 this is the completed L-function;
* closed-form determinants: polydet's direct route at a ten times tighter
  quadrature tolerance;
* xi at Re s > 1: the zero sum over mpmath.zetazero ordinates plus the
  smooth-density tail integral;
* zero ordinates: mpmath.zetazero for zeta, an mpmath sign scan of the
  Hardy function of L(s, chi_-4) for chi_-4, and their union for Q(i);
* special functions and L-values for the CLI: mpmath.

The pool is drawn from a fixed generator seed; the benchmark's --seed only
picks operations from it.  Takes a few minutes on one core.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent

CHI4 = [0, 1, 0, -1]
CHI23 = [0] + [1 if pow(a, 11, 23) == 1 else -1 for a in range(1, 23)]

# label -> (cli field, cli char, epsilon, places [(N_v, |m_v|)], L factors)
PAIRS = {
    "Q": ("Q", "trivial", 1, [(1, 0)], [None]),
    "chi4": ("Q", "kronecker:-4", 0, [(1, 1)], [CHI4]),
    "Qi": ("quad:-1", "trivial", 1, [(2, 0)], [None, CHI4]),
    "chi23": ("Q", "kronecker:-23", 0, [(1, 1)], [CHI23]),
}

POOL_SEED = 20091008
EULER_BANDS = {"h1": (1.3, 1.4), "h2": (1.4, 1.5), "h3": (1.5, 1.6),
               "h4": (1.6, 1.7), "h5": (1.7, 1.8), "m1": (1.895, 1.93),
               "m2": (1.985, 2.025), "m3": (2.035, 2.11), "l1": (2.18, 2.6),
               "l2": (2.6, 3.0)}
mp.mp.dps = 25


def c2(x) -> list[float]:
    x = complex(x)
    return [x.real, x.imag]


def log_l(label: str, s):
    """Principal log L(s) per Euler factor; |Im log| < pi for Re s >= 1.3."""
    out = mp.mpc(0)
    for tab in PAIRS[label][4]:
        out += mp.log(mp.zeta(s) if tab is None else mp.dirichlet(s, tab))
    return out


def log_lr(label: str, r: int, s):
    """Exact log L^(r)(s) by the repeated-integral form of the ladder."""
    s = mp.mpc(s)
    if r == 1:
        return log_l(label, s), mp.mpf(0)
    w = 1 / mp.factorial(r - 2)
    v, e = mp.quad(lambda x: w * x ** (r - 2) * log_l(label, s + x),
                   [0, 2, 8, 30, 100], error=True)
    # the dropped piece beyond x = 100 is below 2^-100 * 100^(r-2)
    return v, e + mp.mpf(2) ** -95


def closed_form(label: str, r: int, z, log_lr_value=None):
    """Depth-r determinant from the closed formula, in mpmath."""
    _, _, eps, places, _ = PAIRS[label]
    z = mp.mpc(z)
    two_pi = 2 * mp.pi
    logv = mp.mpc(0)
    if eps:
        for u in (z, z - 1):
            lg = mp.log(u / two_pi)
            logv += mp.exp((r - 1) * lg) * lg
    llr, qerr = log_lr(label, r, z) if log_lr_value is None else log_lr_value
    lcoef = (-1) ** (r - 1) * mp.factorial(r - 1) * two_pi ** (1 - r)
    logv += lcoef * llr
    for nv, m in places:
        base = nv * mp.pi
        w = (nv * z + m) / 2
        coef = base ** (1 - r)
        logv += -(coef / r) * mp.bernpoly(r, w) * mp.log(base)
        logv += coef * mp.zeta(1 - r, w, 1)
    value = mp.exp(logv)
    err = abs(value) * (abs(lcoef) * qerr + mp.mpf(10) ** -15)
    return complex(value), float(err)


def zeta_ordinates(height: float) -> list[float]:
    out, n = [], 1
    while True:
        g = float(mp.im(mp.zetazero(n)))
        if g > height:
            return out
        out.append(g)
        n += 1


def chi4_ordinates(height: float, step: float = 0.025) -> list[float]:
    """Sign changes of the Hardy function of L(s, chi_-4) (root number 1)."""
    def hardy(t):
        s = mp.mpc(0.5, t)
        theta = (t / 2) * mp.log(4 / mp.pi) + mp.im(mp.loggamma((s + 1) / 2))
        return mp.re(mp.expj(theta) * mp.dirichlet(s, CHI4))

    with mp.workdps(15):
        n = int(height / step)
        ts = [k * step for k in range(1, n + 1)]
        vals = [hardy(t) for t in ts]
        roots = []
        for a, b, fa, fb in zip(ts, ts[1:], vals, vals[1:]):
            if fa * fb < 0:
                lo, hi = a, b
                while hi - lo > 1e-12:
                    mid = 0.5 * (lo + hi)
                    if hardy(mid) * fa < 0:
                        hi = mid
                    else:
                        lo = mid
                roots.append(0.5 * (lo + hi))
    # completeness sanity: Riemann-von Mangoldt main term for q = 4, odd
    t = height / (2 * math.pi)
    smooth = t * math.log(4 * t / math.e) + 0.25
    if abs(len(roots) - smooth) > 2.0:
        raise RuntimeError(f"chi_-4 scan found {len(roots)} zeros, "
                           f"density predicts {smooth:.1f}")
    return roots


def xi_zero_sum_ref(ords: list[float], height: float, s, z):
    """Zero sum to height plus the smooth-density tail, with its bound.

    The tail integrates against dN = (1/2pi) log(t/2pi) dt; the remainder
    is the S(t) part, bounded by integration by parts with |S| <= 2.
    """
    s, z = mp.mpc(s), mp.mpc(z)
    two_pi = 2 * mp.pi

    def f(t, sign):
        return mp.exp(-s * mp.log((z - mp.mpf(0.5) - sign * 1j * t) / two_pi))

    total = mp.mpc(0)
    for g in ords:
        total += f(g, 1) + f(g, -1)
    for sign in (1, -1):
        total += mp.quad(lambda t: f(t, sign) * mp.log(t / two_pi) / two_pi,
                         [height, 2 * height, 8 * height, mp.inf])
    err = 16 * abs(f(height, 1)) + 1e-15 * abs(total)
    return complex(total), float(err)


def rnd(x: float, nd: int = 3) -> float:
    return round(x, nd)


def build(progress) -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    import polydet as pd

    rng = random.Random(POOL_SEED)
    fields = {"Q": pd.NumberField.rational(),
              "quad:-1": pd.NumberField.quadratic(-1)}

    def pair_objs(label):
        fname, cname, *_ = PAIRS[label]
        fld = fields[fname]
        chi = (pd.trivial_character(fld) if cname == "trivial"
               else pd.kronecker_character(int(cname.split(":")[1])))
        return fld, chi

    # ten times tighter than the default; the refinement cap bounds the cost
    # where rounding noise keeps the level difference above the tolerance
    tight = pd.DEFAULT_CONFIG.with_updates(quad_tol=1e-11, max_refinements=5)

    def direct_ref(label, r, z):
        fld, chi = pair_objs(label)
        v = pd.determinant_direct(fld, chi, r, complex(z), tight)
        return c2(v.value), float(v.error_estimate)

    def z_draw(lo, hi, im):
        return [rnd(rng.uniform(lo, hi)), rnd(rng.uniform(-im, im))]

    # -- hankel: direct determinants, xi at Re s > 1, one conductor-23 op
    hankel = []
    for label in ("Q", "chi4", "Qi"):
        for r in (1, 2, 3):
            for _ in range(6):
                z = z_draw(1.8, 3.5, 4.0)
                ref, err = closed_form(label, r, complex(*z))
                hankel.append({"kind": "direct", "pair": label, "r": r,
                               "z": z, "ref": c2(ref), "ref_err": err})
                progress("hankel", hankel[-1])
    for r in (1, 2):
        for _ in range(2):
            z = z_draw(1.8, 3.5, 4.0)
            ref, err = closed_form("chi23", r, complex(*z))
            hankel.append({"kind": "direct", "pair": "chi23", "r": r,
                           "z": z, "ref": c2(ref), "ref_err": err})
            progress("hankel", hankel[-1])
    zeta600 = zeta_ordinates(600.0)
    nxt = float(mp.im(mp.zetazero(len(zeta600) + 1)))
    t_cut = 0.5 * (zeta600[-1] + nxt)
    for _ in range(12):
        z = z_draw(1.8, 3.5, 4.0)
        s = [rnd(rng.uniform(5.0, 7.0)), rnd(rng.uniform(-1.0, 1.0))]
        ref, err = xi_zero_sum_ref(zeta600, t_cut, complex(*s), complex(*z))
        hankel.append({"kind": "xi", "pair": "Q", "s": s, "z": z,
                       "ref": c2(ref), "ref_err": err})
        progress("hankel", hankel[-1])

    # -- euler: closed determinants in narrow Re z bands; z = 1.3 is the
    # worst case of the Euler truncation and is always drawn.  The bands
    # avoid the prime-bound switch points of polydet 1.0.0 (Q: 1.847,
    # 1.888, 1.981, 2.118; Q(i): 1.889, 1.932, 2.03, 2.174), so every draw
    # from a band builds the same tables: h* 8M, m1 2M/4M, m2 0.5M/2M,
    # m3 0.5M, l* 100k.
    euler = []
    for label in ("Q", "chi4", "Qi"):
        for r in (2, 3, 4):
            zs = [("anchor", [1.3, 0.0])]
            for band, (lo, hi) in EULER_BANDS.items():
                zs += [(band, z_draw(lo, hi, 3.0)) for _ in range(3)]
            for band, z in zs:
                ref, err = direct_ref(label, r, complex(*z))
                euler.append({"kind": "closed", "pair": label, "r": r,
                              "z": z, "band": band, "ref": ref,
                              "ref_err": err})
                progress("euler", euler[-1])

    # -- strip: zero scans, continuation, monodromy, argument principle
    zeta200 = [g for g in zeta600 if g <= 200.0]
    chi4_200 = chi4_ordinates(200.0)
    strip = {"ordinates": {"Q": zeta200, "chi4": chi4_200,
                           "Qi": sorted(zeta200 + chi4_200)},
             "continued": [], "monodromy": [], "count": []}
    for _ in range(12):
        s = [rnd(rng.uniform(1.5, 4.0)), rnd(rng.uniform(-1.5, 1.5))]
        entry = {"s": s}
        for r in (2, 3):
            v, e = log_lr("Q", r, complex(*s))
            entry[f"ref_r{r}"] = c2(mp.exp(v))
            entry[f"ref_err_r{r}"] = float(abs(mp.exp(v)) * (e + 1e-15))
        strip["continued"].append(entry)
        progress("strip", entry)
    # the verify suite's zero-free rectangle; its cost grows with the height,
    # so it is not drawn
    strip["monodromy"] = [0.6, 0.9, -30.0, 30.0]
    for n in range(12):
        g = zeta200[n]
        lo_gap = g - (zeta200[n - 1] if n else 0.0)
        hi_gap = zeta200[n + 1] - g
        d = min(1.0, 0.45 * lo_gap, 0.45 * hi_gap)
        strip["count"].append({"rect": [0.2, 0.8, rnd(g - d, 2),
                                        rnd(g + d, 2)], "ref": 1})
    for n in range(0, 10, 3):
        a = zeta200[n] - 0.45 * (zeta200[n] - (zeta200[n - 1] if n else 0.0))
        b = zeta200[n + 1] + 0.45 * (zeta200[n + 2] - zeta200[n + 1])
        strip["count"].append({"rect": [0.2, 0.8, rnd(a, 2), rnd(b, 2)],
                               "ref": 2})

    # -- cli: special functions, L-values, both routes, a cold 8M sieve
    cli = {"hurwitz": [], "lfun": [], "zeros": {"Q": zeta200}}
    for _ in range(8):
        s = [rnd(rng.uniform(-2.5, 3.5)), rnd(rng.uniform(-3.0, 3.0))]
        z = [rnd(rng.uniform(0.2, 2.0)), 0.0]
        ref = mp.zeta(mp.mpc(*s), mp.mpc(*z))
        cli["hurwitz"].append({"s": s, "z": z, "ref": c2(ref),
                               "ref_err": float(abs(ref)) * 1e-15})
    for label in ("Q", "chi4", "Qi"):
        for _ in range(4):
            s = [rnd(rng.uniform(0.3, 3.0)), rnd(rng.uniform(0.5, 5.0))]
            ref = mp.exp(log_l(label, mp.mpc(*s)))
            cli["lfun"].append({"pair": label, "s": s, "ref": c2(ref),
                                "ref_err": float(abs(ref)) * 1e-15})
    ref, err = direct_ref("Qi", 2, 1.6)
    cli["closed_8m"] = {"pair": "Qi", "r": 2, "z": [1.6, 0.0], "ref": ref,
                        "ref_err": err}
    return {"pairs": {k: list(v[:2]) for k, v in PAIRS.items()},
            "hankel": hankel, "euler": euler, "strip": strip, "cli": cli}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "data" / "reference.json"))
    args = ap.parse_args()
    t0 = time.time()

    def progress(section, entry):
        print(f"[{time.time() - t0:7.1f}s] {section}: "
              f"{json.dumps(entry)[:100]}", file=sys.stderr, flush=True)

    data = build(progress)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out} in {time.time() - t0:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
