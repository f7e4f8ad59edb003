"""Command line front end.

One subcommand per operation family: special functions (eval), L-functions
(lfun), truncated poly L-functions (polyl), the zero-side xi function (xi),
depth-r determinants (det), zero tables (zeros), and the verification
suites (verify).  Results print as a small text table by default or as
JSON/CSV records with a stable schema:

    {inputs, value_re, value_im, error_estimate, route}

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
The CLI takes no configuration: every route runs the quadrature at its
defaults (tolerance 1e-10, at most 12 bisections of a panel).  Each
subparser carries its handler as the `run` default, which returns
(records, exit code).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .determinants import (_circle_radius, determinant_closed,
                           determinant_direct, xi_hankel, xi_zero_sum)
from .errors import ParseError, PolydetError
from .fields_and_characters import (HeckeCharacter, NumberField,
                                    dirichlet_character_by_index,
                                    kronecker_character, trivial_character)
from .l_functions import (PathSpec, _completed, _l_and_ds, l_log_derivative,
                          root_number)
from .poly_l import _ANCHOR, poly_l_continued, poly_l_euler
from .special_functions import (Result, _abel_plana, _bernoulli_zero_value,
                                bernoulli_poly, hurwitz_zeta_em)
from .verification import SUITES, format_results, run_suite
from .zero_data import (_BISECT_TOL, ZeroTable, builtin_zeta_zeros, find_zeros,
                        load_zeros, save_zeros)


# ---------------------------------------------------------------------------
# Argument parsing helpers


def parse_complex(text: str) -> complex:
    """Complex numbers in the usual calculator spellings: 2, 2.5+1.5i, -3j."""
    t = text.strip().replace(" ", "").lower().replace("i", "j")
    try:
        return complex(t)
    except ValueError:
        raise ParseError(f"cannot parse complex number {text!r}") from None


def parse_field(text: str) -> NumberField:
    t = text.strip()
    if t in ("Q", "q"):
        return NumberField.rational()
    if t.lower().startswith("quad:"):
        try:
            d = int(t.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad quadratic field spec {text!r}") from None
        return NumberField.quadratic(d)
    raise ParseError(f"field must be Q or quad:d, got {text!r}")


def parse_character(fld: NumberField, text: str) -> HeckeCharacter:
    t = text.strip()
    if t == "trivial":
        return trivial_character(fld)
    if t.startswith("dirichlet:"):
        parts = t.split(":")
        if len(parts) != 3:
            raise ParseError("dirichlet characters are spelled dirichlet:q:index")
        try:
            q, index = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"bad dirichlet spec {text!r}") from None
        chi = dirichlet_character_by_index(q, index)
    elif t.startswith("kronecker:"):
        try:
            disc = int(t.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad kronecker spec {text!r}") from None
        chi = kronecker_character(disc)
    elif t == "kronecker":
        raise ParseError("kronecker needs a discriminant: kronecker:D")
    else:
        raise ParseError(f"unknown character spec {text!r}")
    if chi.fld != fld:
        raise ParseError(
            f"character {text!r} is attached to {chi.fld.label}; "
            f"pass --field accordingly")
    return chi


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_waypoints(text: str) -> tuple[complex, ...]:
    return tuple(parse_complex(p) for p in text.split(",") if p.strip())


# ---------------------------------------------------------------------------
# Record emission


def make_record(inputs: dict, value: complex, err: float, route: str) -> dict:
    return {
        "inputs": inputs,
        "value_re": float(value.real),
        "value_im": float(value.imag),
        "error_estimate": float(err),
        "route": route,
    }


def _fmt_value(re: float, im: float) -> str:
    if im == 0.0:
        return f"{re:.12e}"
    return f"{re:.12e} {im:+.12e}i"


def emit_records(records: list[dict], fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        print(json.dumps(records, indent=2), file=out)
        return
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["inputs", "value_re", "value_im", "error_estimate",
                         "route"])
        for rec in records:
            inputs = ";".join(f"{k}={v}" for k, v in sorted(rec["inputs"].items()))
            writer.writerow([inputs, repr(rec["value_re"]), repr(rec["value_im"]),
                             repr(rec["error_estimate"]), rec["route"]])
        return
    # plain table
    if records:
        inputs = records[0]["inputs"]
        print("inputs: " + " ".join(f"{k}={v}" for k, v in sorted(inputs.items())),
              file=out)
    print(f"{'route':<16} {'value':<42} error_estimate", file=out)
    for rec in records:
        val = _fmt_value(rec["value_re"], rec["value_im"])
        print(f"{rec['route']:<16} {val:<42} {rec['error_estimate']:.2e}",
              file=out)


# ---------------------------------------------------------------------------
# Subcommand bodies: each returns (records, exit code)


def _pair(args) -> tuple[NumberField, HeckeCharacter, dict]:
    """The --field/--char pair, and the record inputs it starts."""
    fld = parse_field(args.field)
    chi = parse_character(fld, args.char)
    return fld, chi, {"field": args.field, "char": args.char}


def run_eval(args) -> tuple[list[dict], int]:
    fn = args.fn
    inputs = {"fn": fn}

    def need(name):
        v = getattr(args, name)
        if v is None:
            raise ParseError(f"eval --fn {fn} needs --{name}")
        inputs[name] = str(v)
        return v

    if fn in ("hurwitz", "hurwitz-ds"):
        s, z = need("s"), need("z")
        em = hurwitz_zeta_em(s, z)
        if fn == "hurwitz":
            rec = make_record(inputs, em.value, em.err_value, "euler-maclaurin")
        else:
            rec = make_record(inputs, em.ds, em.err_ds, "euler-maclaurin")
    elif fn == "milnor-gamma":
        r, z = int(need("r")), need("z")
        # one Abel-Plana evaluation gives the value and its claim
        em = _abel_plana(r, z)
        res = Result.from_log(em.ds, em.err_ds, "lerch")
        rec = make_record(inputs, res.value, res.error_estimate, "lerch")
    elif fn == "bernoulli":
        r, z = int(need("r")), need("z")
        value = bernoulli_poly(r, z)
        # B_r(z) = -r zeta(1 - r, z): r times that value's Horner bound
        err = r * _bernoulli_zero_value(r, z)[1] if r else 0.0
        rec = make_record(inputs, value, err, "exact")
    else:  # pragma: no cover - argparse choices guard this
        raise ParseError(f"unknown --fn {fn!r}")
    return [rec], 0


def run_lfun(args) -> tuple[list[dict], int]:
    fld, chi, inputs = _pair(args)
    s = args.s
    if s is not None:
        inputs["s"] = str(s)
    if args.root_number:
        value = root_number(fld, chi)
        # rounding bound of the Gauss sum: ~20 ulp on each of its q unit
        # terms, over |tau(chi)| = sqrt(q)
        err = 20.0 * chi.conductor_norm ** 0.5 * np.finfo(float).eps
        return [make_record(inputs, value, err, "root-number")], 0
    if s is None:
        raise ParseError("lfun needs --s (only --root-number does not)")
    if args.completed:
        (value, err), route = _completed(fld, chi, s), "completed"
    elif args.log_derivative:
        value = l_log_derivative(fld, chi, s)
        L, _, err_l, err_dl = _l_and_ds(fld, chi, s)
        err = (err_dl + abs(value) * err_l) / (abs(L) - err_l)
        route = "log-derivative"
    else:
        (value, _, err, _), route = _l_and_ds(fld, chi, s), "euler-maclaurin"
    return [make_record(inputs, value, err, route)], 0


def run_polyl(args) -> tuple[list[dict], int]:
    fld, chi, inputs = _pair(args)
    inputs.update(depth=args.depth, s=str(args.s))
    if args.continued:
        path = None
        if args.path:
            path = PathSpec(parse_waypoints(args.path))
            inputs["path"] = args.path
        inputs["anchor"] = _ANCHOR
        res = poly_l_continued(fld, chi, args.depth, args.s, path=path)
    else:
        res = poly_l_euler(fld, chi, args.depth, args.s)
    return [make_record(inputs, res.value, res.error_estimate, res.route)], 0


def run_xi(args) -> tuple[list[dict], int]:
    fld, chi, inputs = _pair(args)
    s, z = args.s, args.z
    inputs.update(s=str(s), z=str(z), route=args.route)
    if args.route == "zeros":
        if args.zeros_file:
            table = load_zeros(args.zeros_file)
            inputs["zeros_file"] = args.zeros_file
        elif fld.degree == 1 and chi.is_principal:
            table = builtin_zeta_zeros()
            inputs["zeros_file"] = "(bundled)"
        else:
            raise ParseError("the zeros route needs --zeros-file for this "
                             "field/character (try `zeros --find --export`)")
        res = xi_zero_sum(fld, chi, s, z, table)
    else:
        inputs["delta"] = _circle_radius(z)
        res = xi_hankel(fld, chi, s, z)
    return [make_record(inputs, res.value, res.error_estimate, res.route)], 0


def run_det(args) -> tuple[list[dict], int]:
    fld, chi, inputs = _pair(args)
    inputs.update(depth=args.depth, z=str(args.z))
    results = []
    if not args.numeric:
        results.append(determinant_closed(fld, chi, args.depth, args.z))
    if not args.closed:
        results.append(determinant_direct(fld, chi, args.depth, args.z))
    records = [make_record(inputs, res.value, res.error_estimate, res.route)
               for res in results]
    if len(results) == 2:
        gap = abs(results[0].value - results[1].value)
        records.append(make_record(inputs, complex(gap), 0.0, "residual"))
    return records, 0


def run_zeros(args) -> tuple[list[dict], int]:
    fld, chi, inputs_base = _pair(args)
    if args.find and args.import_path:
        raise ParseError("choose one of --find or --import")
    table: ZeroTable | None = None
    route = ""
    if args.import_path:
        table = load_zeros(args.import_path)
        route = "file"
    elif args.find:
        table = find_zeros(fld, chi, args.height)
        route = "scan"
    elif args.export:
        if not (fld.degree == 1 and chi.is_principal):
            raise ParseError("bare --export only covers the bundled zeta "
                             "table; add --find for other pairs")
        table = builtin_zeta_zeros()
        route = "bundled"
    else:
        raise ParseError("zeros needs one of --find, --import, --export")
    if args.export:
        save_zeros(table, args.export)
    inputs_base.update(label=table.label,
                       completeness_height=table.completeness_height)
    records = []
    for idx, (gamma, mult) in enumerate(zip(table.ordinates,
                                            table.multiplicities), 1):
        inputs = dict(inputs_base, index=idx, multiplicity=mult)
        records.append(make_record(inputs, complex(gamma), _BISECT_TOL,
                                   route))
    return records, 0


def run_verify(args) -> tuple[list[dict], int]:
    results = run_suite(args.suite)
    if args.format == "table":
        print(format_results(results))
    records = []
    for res in results:
        inputs = {"suite": res.suite, "check": res.name,
                  "tolerance": res.tolerance}
        records.append(make_record(inputs, complex(res.measured), res.tolerance,
                                   "pass" if res.passed else "fail"))
    code = 0 if all(r.passed for r in results) else 1
    return records, code


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format")
    common.add_argument("--manifest", metavar="PATH",
                        help="also write a JSON run manifest to PATH")

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--field", default="Q", help="Q or quad:d")
    pair.add_argument("--char", default="trivial",
                      help="trivial, dirichlet:q:index, or kronecker:D")

    parser = argparse.ArgumentParser(
        prog="polydet",
        description="Higher depth determinants of Hecke L-function zeros: "
                    "evaluate, cross-check, verify.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="special function evaluation")
    p.set_defaults(run=run_eval)
    p.add_argument("--fn", required=True,
                   choices=("hurwitz", "hurwitz-ds", "milnor-gamma",
                            "bernoulli"))
    p.add_argument("--r", type=int, help="depth/order for the r-indexed families")
    p.add_argument("--s", type=_complex_arg, help="first argument")
    p.add_argument("--z", type=_complex_arg, help="second argument")

    p = sub.add_parser("lfun", parents=[common, pair],
                       help="Hecke/Dirichlet L-function values")
    p.set_defaults(run=run_lfun)
    p.add_argument("--s", type=_complex_arg,
                   help="argument (every mode but --root-number)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--log-derivative", action="store_true",
                       dest="log_derivative", help="L'/L instead of L")
    group.add_argument("--completed", action="store_true",
                       help="completed Lambda instead of L")
    group.add_argument("--root-number", action="store_true",
                       dest="root_number",
                       help="functional equation root number (no --s)")

    p = sub.add_parser("polyl", parents=[common, pair],
                       help="depth-r poly L-function")
    p.set_defaults(run=run_polyl)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--s", type=_complex_arg, required=True)
    p.add_argument("--continued", action="store_true",
                   help="integrate from the anchor 3 instead of the Euler sum")
    p.add_argument("--path", help="comma-separated waypoints, 3 to s")

    p = sub.add_parser("xi", parents=[common, pair],
                       help="zero-side xi function, two routes")
    p.set_defaults(run=run_xi)
    p.add_argument("--s", type=_complex_arg, required=True)
    p.add_argument("--z", type=_complex_arg, required=True)
    p.add_argument("--route", choices=("zeros", "hankel"), default="hankel")
    p.add_argument("--zeros-file", dest="zeros_file")

    p = sub.add_parser("det", parents=[common, pair],
                       help="depth-r determinant of the shifted zeros")
    p.set_defaults(run=run_det)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--z", type=_complex_arg, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--closed", action="store_true",
                       help="closed form only")
    group.add_argument("--numeric", action="store_true",
                       help="contour route only")
    group.add_argument("--both", action="store_true",
                       help="both routes plus residual (default)")

    p = sub.add_parser("zeros", parents=[common, pair],
                       help="find, import, or export zero tables")
    p.set_defaults(run=run_zeros)
    p.add_argument("--find", action="store_true",
                   help="scan the critical line up to --height")
    p.add_argument("--height", type=float, default=30.0)
    p.add_argument("--import", dest="import_path", metavar="FILE")
    p.add_argument("--export", metavar="FILE")

    p = sub.add_parser("verify", parents=[common],
                       help="run verification suites")
    p.set_defaults(run=run_verify)
    p.add_argument("--suite", default="all",
                   choices=tuple(SUITES) + ("all",))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fmt = args.format
        if args.manifest:
            params = {k: (str(v) if isinstance(v, complex) else v)
                      for k, v in vars(args).items()
                      if k not in ("subcommand", "format", "manifest", "run")
                      and v is not None}
            with open(args.manifest, "w") as fh:
                json.dump({"subcommand": args.subcommand, "params": params,
                           "version": __version__, "output_format": fmt},
                          fh, sort_keys=True)
        # keep numpy's overflow warnings off stderr, which carries only the
        # error line; hurwitz_zeta_em reports such an overflow as DomainError
        with np.errstate(over="ignore", invalid="ignore"):
            records, code = args.run(args)
        if args.subcommand == "verify" and fmt == "table":
            return code    # run_verify printed its own table
        emit_records(records, fmt)
        return code
    except PolydetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
