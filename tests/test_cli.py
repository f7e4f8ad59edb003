"""Command line interface: parsing, output schema, exit codes, and the
absence of any configuration."""
import argparse
import json
import os
import subprocess
import sys
import warnings

import mpmath as mp
import pytest

import polydet
from polydet import NumberField, ParseError, cli, verification
from polydet.cli import (
    build_parser,
    main,
    parse_character,
    parse_complex,
    parse_field,
    parse_waypoints,
)
from polydet.verification import CheckResult
from polydet.zero_data import _BISECT_TOL

SCHEMA_KEYS = {"inputs", "value_re", "value_im", "error_estimate", "route"}


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_complex_forms():
    assert parse_complex("2") == 2.0 + 0.0j
    assert parse_complex("2.5+1.5i") == 2.5 + 1.5j
    assert parse_complex("2.5 + 1.5j") == 2.5 + 1.5j
    assert parse_complex("-3i") == -3.0j
    assert parse_complex("i") == 1.0j
    with pytest.raises(ParseError):
        parse_complex("two")


def test_parse_field_and_character():
    assert parse_field("Q").degree == 1
    assert parse_field("quad:-1").discriminant == -4
    with pytest.raises(ParseError):
        parse_field("cubic:2")
    q = NumberField.rational()
    assert parse_character(q, "trivial").is_principal
    assert parse_character(q, "kronecker:-4").conductor_norm == 4
    assert parse_character(q, "dirichlet:4:1").parity == 1
    with pytest.raises(ParseError):
        parse_character(q, "kronecker")           # discriminant required
    with pytest.raises(ParseError):
        parse_character(q, "dirichlet:4")
    with pytest.raises(ParseError):
        # kronecker characters attach to Q, not the quadratic field
        parse_character(parse_field("quad:-1"), "kronecker:-4")
    assert parse_waypoints("3, 3+1.2j, 2+1i") == (3 + 0j, 3 + 1.2j, 2 + 1j)


def test_eval_bernoulli_zero(capsys):
    code, recs = run_json(capsys, ["eval", "--fn", "bernoulli", "--r", "1",
                                   "--z", "0.5"])
    assert code == 0
    assert recs[0]["value_re"] == 0.0
    assert set(recs[0]) == SCHEMA_KEYS


def test_eval_schema_all_functions(capsys):
    cases = [
        ["eval", "--fn", "hurwitz", "--s", "2", "--z", "1"],
        ["eval", "--fn", "hurwitz-ds", "--s", "-1", "--z", "1"],
        ["eval", "--fn", "milnor-gamma", "--r", "1", "--z", "3.7"],
        ["polyl", "--depth", "2", "--s", "2.5", "--continued"],
        ["polyl", "--depth", "2", "--s", "3"],
    ]
    for argv in cases:
        code, recs = run_json(capsys, argv)
        assert code == 0
        assert set(recs[0]) == SCHEMA_KEYS


def test_eval_milnor_gamma_reads_one_evaluation(capsys, monkeypatch):
    # exp(zeta'(-17, 1)) = 22.8430138759943 (mpmath); the kernel's
    # derivative there is 1.3e8, and the record took its claim from a
    # second kernel call
    calls = []
    abel_plana = cli._abel_plana

    def counted(r, z):
        calls.append((r, z))
        return abel_plana(r, z)
    monkeypatch.setattr(cli, "_abel_plana", counted)
    code, recs = run_json(capsys, ["eval", "--fn", "milnor-gamma",
                                   "--r", "18", "--z", "1"])
    assert code == 0 and len(calls) == 1
    gap = abs(complex(recs[0]["value_re"], recs[0]["value_im"])
              - 22.8430138759943)
    assert gap <= recs[0]["error_estimate"] <= 1e-7


def test_eval_polylog_is_an_unknown_choice(capsys):
    # the poly-L layer sums its polylogarithms inside the prime-power
    # kernel; there is no standalone series to evaluate
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--fn", "polylog", "--r", "2", "--z", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "Traceback" not in err


def test_polyl_has_no_anchor_flag(capsys):
    # the continuation's anchor is fixed at 3; paths start there
    with pytest.raises(SystemExit) as exc:
        main(["polyl", "--depth", "2", "--s", "1.5", "--continued",
              "--anchor", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --anchor 3" in err
    assert "Traceback" not in err


def test_polyl_has_no_prime_bound_flag(capsys):
    # the Euler route sums a fixed table plus an exact tail, so a bound
    # flag would be silently ignored; argparse rejects it instead
    with pytest.raises(SystemExit) as exc:
        main(["polyl", "--depth", "2", "--s", "2.5", "--continued",
              "--prime-bound", "20"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--prime-bound" in err and "Traceback" not in err


def test_xi_has_no_cut_depth_flag(capsys):
    # the double-exponential ray bounds its own cut ends, so there is no
    # depth to set
    with pytest.raises(SystemExit) as exc:
        main(["xi", "--s", "3", "--z", "2", "--cut-depth", "40"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "--cut-depth" in err
    assert "Traceback" not in err


def test_xi_has_no_delta_flag(capsys):
    # xi does not depend on the circle radius, so the code chooses it
    with pytest.raises(SystemExit) as exc:
        main(["xi", "--s", "3", "--z", "2", "--delta", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --delta" in err
    assert "Traceback" not in err


def test_every_subcommand_has_a_handler():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 7
    for name, p in sub.choices.items():
        assert callable(p.get_default("run")), name


def test_det_both_routes(capsys):
    code, recs = run_json(capsys, ["det", "--depth", "1", "--z", "2",
                                   "--both"])
    assert code == 0
    routes = [r["route"] for r in recs]
    assert routes == ["closed", "direct", "residual"]
    for rec in recs[:2]:
        assert abs(rec["value_re"] - 0.0187565899199397) < 1e-9
    assert recs[2]["value_re"] < 1e-9


def test_det_single_route(capsys):
    code, recs = run_json(capsys, ["det", "--depth", "2", "--z", "2.5",
                                   "--closed"])
    assert code == 0
    assert len(recs) == 1 and recs[0]["route"] == "closed"


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["det", "--depth", "1"])
    assert exc.value.code == 2


def test_domain_error_exits_2(capsys):
    assert main(["det", "--depth", "1", "--z", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lfun", "--s", "nan"],
    ["eval", "--fn", "hurwitz", "--s", "-200", "--z", "1"],
    ["det", "--depth", "1", "--z", "1000", "--closed"],
    ["eval", "--fn", "milnor-gamma", "--r", "1", "--z", "500"],
    ["eval", "--fn", "hurwitz", "--s", "-400", "--z", "1"],
    ["lfun", "--s", "nan", "--completed"],
    ["xi", "--s", "400", "--z", "2"],
    ["xi", "--s", "-400", "--z", "2"],
    ["det", "--depth", "200", "--z", "2", "--closed"],
    ["det", "--depth", "200", "--z", "2", "--numeric"],
    ["zeros", "--find", "--height", "nan"],
    ["eval", "--fn", "hurwitz", "--s", "2", "--z", "1e300"],
    ["polyl", "--depth", "200", "--s", "3"],
    ["polyl", "--depth", "400", "--s", "3"],
    ["det", "--depth", "18", "--z", "2.5"],
    ["lfun", "--s", "nan", "--log-derivative"],
    ["eval", "--fn", "hurwitz-ds", "--s", "nan", "--z", "1"],
    ["eval", "--fn", "milnor-gamma", "--r", "2", "--z", "nan"],
    ["xi", "--s", "nan", "--z", "2"],
    ["xi", "--s", "3", "--z", "nan", "--route", "zeros"],
    ["det", "--depth", "1", "--z", "nan", "--closed"],
    ["polyl", "--depth", "2", "--s", "nan"],
    ["zeros", "--find", "--height", "inf"],
    ["eval", "--fn", "bernoulli", "--r", "3", "--z", "nan"],
    ["eval", "--fn", "bernoulli", "--r", "3", "--z", "1e200"],
    ["eval", "--fn", "bernoulli", "--r", "400", "--z", "1e300"],
    ["polyl", "--depth", "2", "--s", "3", "--continued", "--path", "3,nan"],
])
def test_non_finite_input_or_overflow_exits_2(capsys, argv):
    # a numpy RuntimeWarning would reach stderr ahead of the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bad_character_exits_2(capsys):
    assert main(["lfun", "--s", "2", "--char", "kronecker"]) == 2


def test_verify_suite_json(capsys):
    code, recs = run_json(capsys, ["verify", "--suite", "special"])
    assert code == 0
    assert len(recs) == 3
    assert all(r["route"] == "pass" for r in recs)
    assert all(set(r) == SCHEMA_KEYS for r in recs)


def test_verify_table_output(capsys):
    code = main(["verify", "--suite", "special"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] special:hurwitz-ds-abel-plana" in out
    assert "3/3 checks passed" in out


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = [CheckResult("special", "planted", 1.0, 0.5)]
    monkeypatch.setitem(verification.SUITES, "special", lambda: failing)
    code = main(["verify", "--suite", "special"])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out


def _assert_unrecognized(capsys, argv, flag):
    # argparse's usage error: exit 2, one error line, nothing on stdout
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert f"unrecognized arguments: {flag}" in captured.err
    assert "Traceback" not in captured.err


def test_config_env_var(tmp_path, capsys, monkeypatch):
    # $POLYDET_CONFIG is not read: a garbage file there changes nothing
    monkeypatch.delenv("POLYDET_CONFIG", raising=False)
    argv = ["det", "--depth", "1", "--z", "2", "--both"]
    code, plain = run_json(capsys, argv)
    assert code == 0
    cfgfile = tmp_path / "env.cfg"
    cfgfile.write_text("quad_tol = nan\nno_such_knob\n\x00garbage\n")
    monkeypatch.setenv("POLYDET_CONFIG", str(cfgfile))
    assert run_json(capsys, argv) == (0, plain)


# The CLI takes no configuration: --config and --set are unknown options.
# No file is read, and no key is known: not the quadrature's two (every
# route runs the quadrature at its constants), nor the split, Bernoulli,
# series, prime-bound and pole guard values, module constants of the
# L-value layer
CONFIG_FILE_LINES = [
    "max_refinements = inf", "max_refinements = 1e400",
    "max_refinements = -inf", "target_abs_error = inf", "quad_tol = inf",
    "max_refinements = 2.7", "max_refinements = 0.5"]
KERNEL_CONSTANTS = ["bernoulli_terms", "euler_maclaurin_shift",
                    "series_max_terms", "prime_bound", "pole_guard"]


@pytest.mark.parametrize("case", ["quad_tol", *CONFIG_FILE_LINES,
                                  *KERNEL_CONSTANTS])
def test_unknown_config_key_exits_2(tmp_path, capsys, case):
    bernoulli = ["eval", "--fn", "bernoulli", "--r", "1", "--z", "0"]
    if case == "quad_tol":
        argv = bernoulli + ["--set", "quad_tol=1e-9", "--set",
                            "no_such_knob=3"]
        flag = "--set quad_tol=1e-9 --set no_such_knob=3"
    elif case in CONFIG_FILE_LINES:
        cfgfile = tmp_path / "polydet.cfg"
        cfgfile.write_text(case + "\n")
        argv, flag = ["lfun", "--s", "2", "--config", str(cfgfile)], "--config"
    else:
        argv, flag = bernoulli + ["--set", f"{case}=2"], "--set"
    _assert_unrecognized(capsys, argv, flag)


def test_records_leave_hashlib_unloaded():
    # hashlib loads OpenSSL; a record carries no digest, so printing one
    # needs none
    code = ("import sys; from polydet.cli import main; "
            "main(['eval', '--fn', 'bernoulli', '--r', '2', '--z', '1', "
            "'--format', 'json']); "
            "assert 'hashlib' not in sys.modules, 'hashlib loaded'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_manifest_round_trip(tmp_path, capsys):
    path = tmp_path / "run.json"
    code = main(["det", "--depth", "1", "--z", "2", "--closed",
                 "--manifest", str(path), "--format", "json"])
    capsys.readouterr()
    assert code == 0
    manifest = json.loads(path.read_text())
    assert manifest["subcommand"] == "det"
    assert manifest["params"] == {"field": "Q", "char": "trivial",
                                  "depth": 1, "z": "(2+0j)", "closed": True,
                                  "numeric": False, "both": False}
    assert set(manifest) == {"subcommand", "params", "version",
                             "output_format"}
    assert manifest["version"] == polydet.__version__
    assert manifest["output_format"] == "json"


def test_csv_output(capsys):
    code = main(["eval", "--fn", "bernoulli", "--r", "2", "--z", "1",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    header = out.splitlines()[0]
    assert header == "inputs,value_re,value_im,error_estimate,route"
    assert len(out.splitlines()) == 2


def test_zeros_export_import_cycle(tmp_path, capsys):
    path = tmp_path / "zeros.txt"
    code = main(["zeros", "--export", str(path)])
    capsys.readouterr()
    assert code == 0 and path.exists()
    code, recs = run_json(capsys, ["zeros", "--import", str(path)])
    assert code == 0
    assert len(recs) >= 100
    assert abs(recs[0]["value_re"] - 14.134725) < 1e-6
    assert recs[0]["route"] == "file"


@pytest.mark.parametrize("text", ["14.134725\nnan\n",
                                  "height: nan\n14.134725\n"])
def test_zeros_import_of_non_finite_table_exits_2(tmp_path, capsys, text):
    path = tmp_path / "zeros.txt"
    path.write_text(text)
    assert main(["zeros", "--import", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ") \
        and captured.err.count("\n") == 1


def test_zeros_find(capsys):
    code, recs = run_json(capsys, ["zeros", "--find", "--height", "26"])
    assert code == 0
    assert len(recs) == 3
    # the claimed error is the scan's final bracket width, and it holds
    # against mpmath's zetazero(3)
    assert all(r["error_estimate"] == _BISECT_TOL for r in recs)
    assert abs(recs[2]["value_re"] - 25.010857580145689) \
        <= recs[2]["error_estimate"]


def test_zeros_needs_an_action(capsys):
    assert main(["zeros"]) == 2


POLYL_PATH = ["polyl", "--depth", "2", "--s", "1.5", "--path",
              "3, 3+1.2j, 1.5"]
XI_ZEROS_FILE = ["xi", "--s", "3", "--z", "2", "--zeros-file"]


@pytest.mark.parametrize("argv, needs", [
    (POLYL_PATH, "--continued"),
    (XI_ZEROS_FILE + ["FILE"], "--route zeros"),
    (XI_ZEROS_FILE + ["FILE", "--route", "hankel"], "--route zeros"),
    (["zeros", "--height", "26", "--export", "FILE"], "--find"),
    (["zeros", "--height", "26", "--import", "FILE"], "--find"),
], ids=["polyl-path", "xi-zeros-file", "xi-hankel-zeros-file",
        "zeros-export-height", "zeros-import-height"])
def test_flag_the_mode_ignores_exits_2(tmp_path, capsys, argv, needs):
    # a flag that the chosen mode would drop is a usage error naming the
    # flag it needs; FILE does not exist, and nothing is written to it
    path = tmp_path / "zeros.txt"
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert needs in captured.err and "Traceback" not in captured.err
    assert not path.exists()


def test_flags_in_their_modes_keep_their_records(tmp_path, capsys):
    # --path under --continued is the path the library takes
    code, recs = run_json(capsys, POLYL_PATH + ["--continued"])
    q = NumberField.rational()
    want = polydet.poly_l_continued(
        q, polydet.trivial_character(q), 2, 1.5,
        path=polydet.PathSpec((3, 3 + 1.2j, 1.5)))
    assert code == 0 and recs[0]["inputs"]["path"] == "3, 3+1.2j, 1.5"
    assert (recs[0]["value_re"], recs[0]["value_im"]) \
        == (want.value.real, want.value.imag)
    # --zeros-file under --route zeros: the exported bundled table sums as
    # the bundled one does
    path = tmp_path / "zeros.txt"
    assert main(["zeros", "--export", str(path)]) == 0
    capsys.readouterr()
    code, from_file = run_json(capsys, XI_ZEROS_FILE + [str(path), "--route",
                                                        "zeros"])
    assert code == 0 and from_file[0]["inputs"]["zeros_file"] == str(path)
    code, bundled = run_json(capsys, XI_ZEROS_FILE[:-1] + ["--route",
                                                           "zeros"])
    assert code == 0
    for key in ("value_re", "value_im", "error_estimate"):
        assert from_file[0][key] == bundled[0][key]
    # --find scans to 30 when no --height is given
    code, default = run_json(capsys, ["zeros", "--find"])
    assert code == 0 and len(default) == 3
    assert run_json(capsys, ["zeros", "--find", "--height", "30"]) \
        == (0, default)


def test_xi_routes_agree_within_estimates(capsys):
    code, zs = run_json(capsys, ["xi", "--s", "3", "--z", "2",
                                 "--route", "zeros"])
    assert code == 0
    code, hk = run_json(capsys, ["xi", "--s", "3", "--z", "2",
                                 "--route", "hankel"])
    assert code == 0
    assert set(hk[0]["inputs"]) == {"field", "char", "s", "z", "route",
                                    "delta"}
    gap = abs(zs[0]["value_re"] - hk[0]["value_re"])
    assert gap <= zs[0]["error_estimate"] + hk[0]["error_estimate"]


def test_lfun_root_number(capsys):
    code, recs = run_json(capsys, ["lfun", "--s", "2", "--root-number",
                                   "--char", "kronecker:-4"])
    assert code == 0
    assert abs(recs[0]["value_re"] - 1.0) < 1e-9
    assert recs[0]["route"] == "root-number"


def test_lfun_value_route_is_euler_maclaurin(capsys):
    # L(s) is assembled from Hurwitz zeta values, as `eval --fn hurwitz` is
    code, recs = run_json(capsys, ["lfun", "--s", "2", "--char",
                                   "kronecker:-4"])
    assert code == 0
    assert recs[0]["route"] == "euler-maclaurin"


def _gap_and_claim(capsys, argv, ref):
    """The record's distance to an mpmath reference, and its claim."""
    code, recs = run_json(capsys, argv)
    assert code == 0
    got = complex(recs[0]["value_re"], recs[0]["value_im"])
    return abs(complex(ref) - got), recs[0]["error_estimate"]


def test_lfun_claims_cover_the_gap_left_of_the_strip(capsys):
    # L(-5.5, chi_-4) is 2.3e-7 from mpmath, where a fixed 1e-12 was
    # claimed; the claims are the kernel's bounds on L and L'
    with mp.workdps(30):
        c = [0, 1, 0, -1]
        ref, dref = mp.dirichlet(-5.5, c), mp.dirichlet(-5.5, c, 1)
        argv = ["lfun", "--s", "-5.5", "--char", "kronecker:-4"]
        gap, claim = _gap_and_claim(capsys, argv, ref)
        assert 1e-8 < gap <= claim
        gap, claim = _gap_and_claim(capsys, argv + ["--log-derivative"],
                                    dref / ref)
        assert gap <= claim
    # at the trivial zero L(-8, chi_5) = 0 the computed L (1.6e-11) is
    # within its claim of 0, and so L'/L is unbounded
    assert main(["lfun", "--s", "-8", "--char", "kronecker:5",
                 "--log-derivative"]) == 2
    assert "or its bound" in capsys.readouterr().err


@pytest.mark.parametrize("field, char, s", [
    ("Q", "trivial", 0.5 + 200.0j),
    ("Q", "kronecker:-4", 2.0 - 199.5j),
    ("quad:-1", "trivial", 0.75 + 201.0j),
])
def test_lfun_completed_claim_covers_the_gap_high_up(capsys, field, char, s):
    # Lambda = A^(s/2) Gamma-factors L (times s(s-1)/2 for zeta and zeta_K)
    with mp.workdps(30):
        u = mp.mpc(s.real, s.imag)
        if char == "kronecker:-4":
            ref = (4 / mp.pi) ** (u / 2) * mp.gamma((u + 1) / 2) \
                * mp.dirichlet(u, [0, 1, 0, -1])
        elif field == "Q":
            ref = u * (u - 1) / 2 * mp.pi ** (-u / 2) * mp.gamma(u / 2) \
                * mp.zeta(u)
        else:
            ref = u * (u - 1) / 2 * mp.pi ** -u * mp.gamma(u) * mp.zeta(u) \
                * mp.dirichlet(u, [0, 1, 0, -1])
        gap, claim = _gap_and_claim(capsys, [
            "lfun", "--field", field, "--char", char, "--completed",
            f"--s={s.real}{s.imag:+}i"], ref)
    assert gap <= claim <= 1e-10 * abs(complex(ref))


def test_eval_bernoulli_claims_its_horner_bound(capsys):
    # B_20(3.7) rounds to 6.4e-5 off in doubles; it claimed exactness
    with mp.workdps(30):
        gap, claim = _gap_and_claim(
            capsys, ["eval", "--fn", "bernoulli", "--r", "20", "--z", "3.7"],
            mp.bernpoly(20, mp.mpf("3.7")))
    assert 1e-5 < gap <= claim < 0.1
    # a constant is exact
    _, claim = _gap_and_claim(
        capsys, ["eval", "--fn", "bernoulli", "--r", "0", "--z", "3.7"], 1.0)
    assert claim == 0.0


def test_lfun_root_number_needs_no_s(capsys):
    # W does not depend on s
    code, recs = run_json(capsys, ["lfun", "--root-number", "--char",
                                   "dirichlet:5:1"])
    assert code == 0 and recs[0]["route"] == "root-number"
    assert abs(abs(complex(recs[0]["value_re"], recs[0]["value_im"])) - 1.0) \
        < 1e-12


def test_lfun_other_modes_need_s(capsys):
    for argv in (["lfun", "--char", "kronecker:-4"],
                 ["lfun", "--completed"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--s" in err
        assert "Traceback" not in err
    assert main(["lfun", "--s", "nan"]) == 2


def test_lfun_mode_flags_exclusive(capsys):
    # one argparse group, as for det: a second mode flag is a usage error
    for flags in (["--completed", "--root-number"],
                  ["--log-derivative", "--completed"]):
        with pytest.raises(SystemExit) as exc:
            main(["lfun", "--s", "2", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with" in err and "Traceback" not in err
