"""Outside-in span tracer for polydet's layer entry points.

The tracer rebinds each entry point in every loaded ``polydet.*`` module that
holds a binding to it (the package imports names with ``from .x import y``),
so calls between modules are caught without touching the program.  Each call
records a span (name, start, end, parent span, operation id) in memory; the
spans are reduced to per-layer totals when the run ends.  Entry points that
a later refactor removes are reported as absent instead of failing.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "polydet"
# (module, function): the public entry points the per-layer metrics read,
# plus the three private ones named as layer entry points.
ENTRY_POINTS = (
    ("special_functions", "_em_core"),
    ("special_functions", "log_gamma"),
    ("l_functions", "_l_and_ds"),
    ("l_functions", "l_value"),
    ("l_functions", "l_log_derivative"),
    ("l_functions", "completed_lambda"),
    ("l_functions", "_ideal_arrays"),
    ("fields_and_characters", "primes_up_to"),
    ("fields_and_characters", "enumerate_prime_ideals"),
    ("poly_l", "poly_l_log_euler"),
    ("poly_l", "poly_l_continued"),
    ("quadrature", "integrate_polyline"),
    ("quadrature", "tracked_log_polyline"),
    ("determinants", "determinant_direct"),
    ("determinants", "determinant_closed"),
    ("determinants", "xi_hankel"),
    ("zero_data", "scan_ordinates"),
)

_L_EVALS = ("l_functions.l_value", "l_functions.l_log_derivative",
            "l_functions.completed_lambda")
_L_SELF = _L_EVALS + ("l_functions._l_and_ds",)
_SIEVE = ("fields_and_characters.primes_up_to",
          "fields_and_characters.enumerate_prime_ideals")
_RECORDS = _SIEVE + ("l_functions._ideal_arrays", "poly_l.poly_l_log_euler",
                     "zero_data.scan_ordinates")


class Tracer:
    """Span recorder; install() rebinds, uninstall() restores."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans: list[tuple] = []      # (id, name, parent, op, t0, t1)
        self.stack: list[int] = []
        self.op = None
        self.absent: list[str] = []
        # (span, nodes, accepted-level nodes, levels, unconverged, ray)
        self.quad: list[tuple] = []
        self.tracked: list[tuple] = []    # (span, nodes, levels)
        self.results: dict[int, int] = {}  # span -> length of a table/result
        self.table_len: dict[tuple, int] = {}
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        mods = self._modules()
        self.absent = []
        for modname, fname in self.entry_points:
            home = sys.modules.get(f"{PACKAGE}.{modname}")
            orig = getattr(home, fname, None) if home is not None else None
            if orig is None:
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved = []

    # -- span recording ---------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)
        records = name in _RECORDS

        if name == "quadrature.integrate_polyline":
            return self._wrap_quad(name, fn, tracked=False)
        if name == "quadrature.tracked_log_polyline":
            return self._wrap_quad(name, fn, tracked=True)

        def wrapper(*args, **kw):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            misses = cache_info().misses if records and cache_info else 0
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, name, parent, tracer.op, t0, t1)
            if records:
                tracer._after(name, sid, args, out,
                              cache_info is not None
                              and cache_info().misses > misses)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, name, sid, args, out, missed) -> None:
        if name == "l_functions._ideal_arrays":
            self.table_len[args[:3]] = len(out[0])
            if missed:
                self.results[sid] = len(out[0])
        elif name in _SIEVE and missed:
            self.results[sid] = len(out)
        elif name == "poly_l.poly_l_log_euler":
            key = (args[0], args[1], out[2])
            self.results[sid] = self.table_len.get(key, 0)
        elif name == "zero_data.scan_ordinates":
            self.results[sid] = len(out)

    def _wrap_quad(self, name, fn, tracked: bool):
        tracer = self
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(f, waypoints, *args, **kw):
            count = [0]

            def counted(x):
                count[0] += 1
                return f(x)

            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(counted, waypoints, *args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, name, parent, tracer.op, t0, t1)
            if tracked:
                tracer.tracked.append((sid, count[0], out.levels))
                return out
            cfg = args[0] if args else kw.get("cfg")
            gl = getattr(cfg, "gl_nodes", 32)
            tol = kw.get("tol")
            if tol is None:
                tol = getattr(cfg, "quad_tol", 1e-10)
            unconverged = out.error > max(tol, tol * abs(out.value))
            wps = [complex(u) for u in waypoints]
            ray = all(u.imag == 0.0 for u in wps) and wps[0].real >= 0.0
            tracer.quad.append((sid, count[0], out.panels * gl, out.levels,
                                unconverged, ray))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction --------------------------------------------------------

    def totals(self) -> dict:
        """Mergeable per-layer sums over every recorded span."""
        spans = self.spans
        child = defaultdict(float)
        for sid, _, parent, _, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        names = {s[0]: s[1] for s in spans}
        parents = {s[0]: s[2] for s in spans}

        def under(sid, prefix):
            p = parents.get(sid, -1)
            while p >= 0:
                if names[p].startswith(prefix):
                    return True
                p = parents.get(p, -1)
            return False

        calls = defaultdict(int)
        self_s = defaultdict(float)
        busy = defaultdict(float)
        lam_in_scan = 0
        for sid, name, parent, _, t0, t1 in spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
            # inclusive time, counted once per outermost call of a name
            if parent < 0 or names[parent] != name:
                busy[name] += t1 - t0
            if name == "l_functions.completed_lambda" \
                    and under(sid, "zero_data.scan_ordinates"):
                lam_in_scan += 1
        res = self.results
        t = {
            "em_calls": calls["special_functions._em_core"],
            "em_self_s": self_s["special_functions._em_core"],
            "log_gamma_calls": calls["special_functions.log_gamma"],
            "l_evals": sum(calls[n] for n in _L_EVALS),
            "l_self_s": sum(self_s[n] for n in _L_SELF),
            "ideal_table_s": self_s["l_functions._ideal_arrays"],
            "sieve_s": sum(self_s[n] for n in _SIEVE),
            "ideals_built": sum(v for sid, v in res.items()
                                if names.get(sid) in _SIEVE),
            "euler_calls": calls["poly_l.poly_l_log_euler"],
            "euler_self_s": self_s["poly_l.poly_l_log_euler"],
            "euler_terms": sum(v for sid, v in res.items()
                               if names.get(sid) == "poly_l.poly_l_log_euler"),
            "continued_calls": calls["poly_l.poly_l_continued"],
            "continued_self_s": self_s["poly_l.poly_l_continued"],
            "integrals": len(self.quad),
            "nodes": sum(q[1] for q in self.quad),
            "accepted_nodes": sum(q[2] for q in self.quad),
            "levels": sum(q[3] for q in self.quad),
            "unconverged": sum(1 for q in self.quad if q[4]),
            "ray_integrals": sum(1 for q in self.quad
                                 if q[5] and under(q[0], "determinants.")),
            "ray_nodes": sum(q[1] for q in self.quad
                             if q[5] and under(q[0], "determinants.")),
            "quad_self_s": self_s["quadrature.integrate_polyline"],
            "tracked_calls": len(self.tracked),
            "tracked_nodes": sum(q[1] for q in self.tracked),
            "tracked_levels": sum(q[2] for q in self.tracked),
            "tracked_self_s": self_s["quadrature.tracked_log_polyline"],
            "direct_s": busy["determinants.determinant_direct"],
            "closed_s": busy["determinants.determinant_closed"],
            "xi_hankel_s": busy["determinants.xi_hankel"],
            "scan_s": busy["zero_data.scan_ordinates"],
            "scan_lambda_evals": lam_in_scan,
            "scan_ordinates": sum(
                v for sid, v in res.items()
                if names.get(sid) == "zero_data.scan_ordinates"),
            "self_s_total": sum(self_s.values()),
            "outer_s_total": sum(t1 - t0 for _, _, p, _, t0, t1 in spans
                                 if p < 0),
        }
        return t

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.quad.clear()
        self.tracked.clear()
        self.results.clear()

    def dump(self, path) -> None:
        """Write the raw spans as tab-separated lines."""
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\top\tstart\tend\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def merge(into: dict, other: dict) -> dict:
    for k, v in other.items():
        into[k] = into.get(k, 0) + v
    return into


def _ratio(a, b):
    return a / b if b else 0.0


def scaled(t: dict, factor: float) -> dict:
    return {k: v * factor for k, v in t.items()}


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics from totals of set-up plus one round of the ops."""
    return {
        "special_functions.em_calls": t["em_calls"],
        "special_functions.em_self_s": t["em_self_s"],
        "special_functions.us_per_em": 1e6 * _ratio(t["em_self_s"],
                                                    t["em_calls"]),
        "special_functions.log_gamma_calls": t["log_gamma_calls"],
        "l_functions.evals": t["l_evals"],
        "l_functions.self_s": t["l_self_s"],
        "l_functions.us_per_eval": 1e6 * _ratio(t["l_self_s"],
                                                t["l_evals"]),
        "l_functions.ideal_table_s": t["ideal_table_s"],
        "fields_and_characters.sieve_s": t["sieve_s"],
        "fields_and_characters.ideals_built": t["ideals_built"],
        "poly_l.euler_calls": t["euler_calls"],
        "poly_l.euler_self_s": t["euler_self_s"],
        "poly_l.ideal_terms_per_s": _ratio(t["euler_terms"],
                                           t["euler_self_s"]),
        "poly_l.continued_calls": t["continued_calls"],
        "poly_l.continued_self_s": t["continued_self_s"],
        "quadrature.integrals": t["integrals"],
        "quadrature.nodes": t["nodes"],
        "quadrature.nodes_per_integral": _ratio(t["nodes"],
                                                t["integrals"]),
        "quadrature.ray_nodes_per_integral": _ratio(t["ray_nodes"],
                                                    t["ray_integrals"]),
        "quadrature.levels_mean": _ratio(t["levels"],
                                         t["integrals"]),
        "quadrature.useful_node_frac": _ratio(t["accepted_nodes"],
                                              t["nodes"]),
        "quadrature.unconverged": t["unconverged"],
        "quadrature.self_s": t["quad_self_s"],
        "quadrature.tracked_nodes": t["tracked_nodes"],
        "quadrature.tracked_levels_mean": _ratio(t["tracked_levels"],
                                                 t["tracked_calls"]),
        "quadrature.tracked_self_s": t["tracked_self_s"],
        "determinants.direct_s": t["direct_s"],
        "determinants.closed_s": t["closed_s"],
        "determinants.xi_hankel_s": t["xi_hankel_s"],
        "zero_data.scan_s": t["scan_s"],
        "zero_data.lambda_evals_per_ordinate": _ratio(
            t["scan_lambda_evals"], t["scan_ordinates"]),
    }


LAYER_UNITS = {
    "special_functions.em_calls": "count",
    "special_functions.em_self_s": "s",
    "special_functions.us_per_em": "us",
    "special_functions.log_gamma_calls": "count",
    "l_functions.evals": "count",
    "l_functions.self_s": "s",
    "l_functions.us_per_eval": "us",
    "l_functions.ideal_table_s": "s",
    "fields_and_characters.sieve_s": "s",
    "fields_and_characters.ideals_built": "count",
    "poly_l.euler_calls": "count",
    "poly_l.euler_self_s": "s",
    "poly_l.ideal_terms_per_s": "1/s",
    "poly_l.continued_calls": "count",
    "poly_l.continued_self_s": "s",
    "quadrature.integrals": "count",
    "quadrature.nodes": "count",
    "quadrature.nodes_per_integral": "count",
    "quadrature.ray_nodes_per_integral": "count",
    "quadrature.levels_mean": "count",
    "quadrature.useful_node_frac": "ratio",
    "quadrature.unconverged": "count",
    "quadrature.self_s": "s",
    "quadrature.tracked_nodes": "count",
    "quadrature.tracked_levels_mean": "count",
    "quadrature.tracked_self_s": "s",
    "determinants.direct_s": "s",
    "determinants.closed_s": "s",
    "determinants.xi_hankel_s": "s",
    "zero_data.scan_s": "s",
    "zero_data.lambda_evals_per_ordinate": "count",
}
