"""The Click front end: exit codes, the real-axis tables and the periods at both ends."""

import json
import sys

import click
import mpmath
import pytest
from click.testing import CliRunner

import sig4.cli as cli
import sig4.verify as verify
from sig4.cli import main, parse_complex
from sig4.dd import d_real, dd, forward_integral, make_context, phi, phi_many
from sig4.numerics import ConvergenceError, DomainError
from sig4.y4 import make_y4_context, y4_plus


def _invoke(args, env=None):
    return CliRunner().invoke(main, args, env=env)


def _table(function, kappa, start, stop, steps):
    result = _invoke(["table", function, "--kappa", repr(kappa), "--from", repr(start),
                      "--to", repr(stop), "--steps", str(steps)])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "re(z),im(z),re(f),im(f)"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == steps + 1
    return rows


@pytest.mark.parametrize("kappa", [1e-4, 1e-3, 0.9999, 0.999999])
def test_periods_near_one(kappa):
    result = _invoke(["periods", "--kappa", repr(kappa)])
    assert result.exit_code == 0, result.output
    values = dict(line.split(" = ") for line in result.output.splitlines())
    with mpmath.workdps(30):
        k = mpmath.mpf(kappa)
        lam = mpmath.sqrt(1 - k * k)
        omega = mpmath.pi / 2 * mpmath.hyp2f1(0.25, 0.75, 1, k * k)
        omega_p = mpmath.pi / mpmath.sqrt(2) * mpmath.hyp2f1(0.25, 0.75, 1, lam * lam)
        assert abs(float(values["omega"]) / omega - 1) <= 1e-12
        # the y4 lattice has half-periods |omega'|/2 and omega/2
        expected = {
            "omega": omega, "omega_prime_mag": omega_p,
            "Omega": omega_p / 2, "Omega_prime_mag": omega / 2,
            "ratio_dd": 1j * omega_p / omega, "ratio_y4": 1j * omega / omega_p,
        }
        for name, ref in expected.items():
            got = parse_complex(values[name])
            assert abs(got - complex(ref)) <= 1e-9 * abs(ref), name


def test_small_kappa_commands_succeed():
    # the float discriminant of the dd invariants is exactly 0 here
    invariants = _invoke(["invariants", "--kappa", "1e-4"])
    assert invariants.exit_code == 0, invariants.output
    assert invariants.output.splitlines()[3].startswith("midpoints = ")
    value = _invoke(["eval", "dd", "--kappa", "1e-4", "--z", "0.7+0.2i"])
    assert value.exit_code == 0, value.output


def test_table_phi_matches_scalar_phi():
    ctx = make_context(0.5)
    for x, y, re_f, im_f in _table("phi", 0.5, -3.0, 7.0, 20):
        assert y == 0.0 and im_f == 0.0
        assert re_f == phi(x, ctx)


def test_table_d_matches_jacobi_form():
    # d = 1 - (1 - lam) sn^2(sqrt((1 + lam)/2) u | (1 - lam)/(1 + lam))
    with mpmath.workdps(40):
        lam = mpmath.sqrt(1 - mpmath.mpf(0.5) ** 2)
        scale, m = mpmath.sqrt((1 + lam) / 2), (1 - lam) / (1 + lam)
        for x, y, re_f, im_f in _table("d", 0.5, -3.0, 7.0, 20):
            assert y == 0.0 and im_f == 0.0
            assert abs(re_f - (1 - (1 - lam) * mpmath.ellipfun("sn", scale * x, m=m) ** 2)) <= 1e-15


def test_eval_d_is_real_part_of_dd():
    result = _invoke(["eval", "d", "--kappa", "0.5", "--z", "1.3"])
    assert result.exit_code == 0
    assert float(result.output) == dd(1.3, make_context(0.5)).real == d_real(1.3, make_context(0.5))


def test_real_axis_runs_without_quadrature(monkeypatch):
    # phi, u(T) and d are closed forms: quadrature and the 2F1 series stay unused
    def unused(*args, **kwargs):
        raise AssertionError("quadrature or series called on a real-axis path")

    for name, module in list(sys.modules.items()):
        if name == "sig4" or name.startswith("sig4."):
            for attr in ("integrate", "hyp2f1"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, unused)
    for kappa in (1e-4, 0.5, 1.0 - 2.0 ** -52):
        ctx = make_context(kappa)
        assert phi_many([-9.0, 0.3, 40.0], ctx) == [phi(u, ctx) for u in (-9.0, 0.3, 40.0)]
        assert forward_integral(7.0, ctx) > 0.0
        assert ctx.modulus.lam <= d_real(2.5, ctx) <= 1.0
        _table("phi", kappa, -30.0, 30.0, 40)


def test_y4_worst_z_replays_through_eval():
    # --kappa is the dd modulus for y4 too, so the suite's worst sample
    # reproduces its value, and so its residual, through the CLI
    row = next(c for c in verify.run_suite(1e-3, 200, 0, 1e-8).checks if c.name == "y4-ode")
    z = row.worst_z
    result = _invoke(["eval", "y4plus", "--kappa", "0.001", "--z", f"{z.real!r}{z.imag:+}i"])
    assert result.exit_code == 0, result.output
    value = parse_complex(result.output)
    ctx = make_context(1e-3)
    assert value == y4_plus(z, ctx)
    assert verify._y4_ode_residual(value, z, ctx, verify.y4_lattice(ctx)) == row.max_residual


def test_eval_y4plus_with_a_bare_lambda():
    z = 0.3 + 0.2j
    result = _invoke(["eval", "y4plus", "--lambda", "0.6", "--z", "0.3+0.2i"])
    assert result.exit_code == 0, result.output
    assert parse_complex(result.output) == y4_plus(z, make_y4_context(0.6))


@pytest.mark.parametrize("function", ["y4plus", "y4minus"])
@pytest.mark.parametrize("command", [["eval", "--z", "0.3+0.2i"],
                                     ["table", "--from", "0", "--to", "1", "--steps", "2"]])
def test_kappa_and_lambda_together_are_a_usage_error(command, function):
    # both name the pair (kappa, lam); kappa = 0.5 and lam = 0.6 name two pairs
    result = _invoke([command[0], function, "--kappa", "0.5", "--lambda", "0.6", *command[1:]])
    assert result.exit_code == 2, result.output
    assert f"{function} takes --kappa or --lambda, not both" in result.output


def test_eval_prints_pole_at_a_pole():
    half_imag_mag = make_context(0.5).lattice.periods.half_imag_mag
    for args in (["wp", "--g2", "1", "--g3", "0", "--z", "0"],
                 ["dd", "--kappa", "0.5", "--z", f"0+{half_imag_mag!r}i"]):
        result = _invoke(["eval", *args])
        assert (result.exit_code, result.stdout) == (0, "pole\n"), result.output


def test_table_prints_pole_rows():
    result = _invoke(["table", "wp", "--g2", "1", "--g3", "0", "--from", "0", "--to", "1",
                      "--steps", "2"])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    assert lines[:2] == ["re(z),im(z),re(f),im(f)", "0.0,0.0,pole,pole"]
    assert len(lines) == 4 and "pole" not in lines[2] + lines[3]


def test_periods_csv_agrees_with_the_plain_output():
    plain = _invoke(["periods", "--kappa", "0.5"])
    csv = _invoke(["periods", "--kappa", "0.5", "--csv"])
    assert plain.exit_code == csv.exit_code == 0, (plain.output, csv.output)
    header, row = csv.output.splitlines()
    assert header == "omega,omega_prime_mag,Omega,Omega_prime_mag,ratio_dd,ratio_y4"
    assert dict(zip(header.split(","), row.split(","))) == dict(
        line.split(" = ") for line in plain.output.splitlines())


@pytest.mark.parametrize("function, options, extra", [
    ("dd", ["--kappa", "0.5"], ["--lambda", "0.6"]),
    ("dd", ["--kappa", "0.5"], ["--g2", "3"]),
    ("phi", ["--kappa", "0.5"], ["--g2", "3"]),
    ("phi", ["--kappa", "0.5"], ["--lambda", "0.9"]),
    ("d", ["--kappa", "0.5"], ["--lambda", "0.9", "--g3", "1"]),
    ("y4plus", ["--lambda", "0.6"], ["--g2", "3"]),
    ("y4minus", ["--kappa", "0.5"], ["--g3", "1"]),
    ("wp", ["--g2", "1", "--g3", "0"], ["--kappa", "0.5"]),
    ("wp", ["--g2", "1", "--g3", "0"], ["--lambda", "0.6"]),
])
@pytest.mark.parametrize("command", [["eval", "--z", "0.3"],
                                     ["table", "--from", "0", "--to", "1", "--steps", "2"]])
def test_an_option_the_function_does_not_take_is_a_usage_error(command, function, options, extra):
    result = _invoke([command[0], function, *options, *extra, *command[1:]])
    assert result.exit_code == 2, result.output
    named = ", ".join(extra[::2])
    assert f"{function} does not take {named}" in result.output


@pytest.mark.parametrize("function", ["phi", "d"])
def test_real_line_usage_errors(function):
    off_axis = _invoke(["table", function, "--kappa", "0.5", "--from", "0", "--to", "1",
                        "--steps", "2", "--imag", "0.5"])
    assert off_axis.exit_code == 2
    assert "takes a real argument" in off_axis.output
    no_kappa = _invoke(["table", function, "--from", "0", "--to", "1", "--steps", "2"])
    assert no_kappa.exit_code == 2
    assert f"{function} requires --kappa" in no_kappa.output


@pytest.mark.parametrize("literal", ["1e400", "1-1e400i", "-1e400i"])
def test_parse_complex_rejects_overflow(literal):
    with pytest.raises(click.BadParameter):
        parse_complex(literal)


@pytest.mark.parametrize("literal, real, imag", [
    ("1", 1.0, 0.0), ("-2.5e-3", -2.5e-3, 0.0), ("1+2i", 1.0, 2.0), ("1 - 2 i", 1.0, -2.0),
    ("3i", 0.0, 3.0), ("- 3.5i", 0.0, -3.5), (".5-.25i", 0.5, -0.25), ("+1e5i", 0.0, 1e5),
    ("-0i", 0.0, -0.0),
])
def test_parse_complex_accepts(literal, real, imag):
    # exact parts, down to the sign of a zero
    z = parse_complex(literal)
    assert (repr(z.real), repr(z.imag)) == (repr(real), repr(imag))


@pytest.mark.parametrize("literal", ["i", "1+i", "1 2i", "inf", "nan", "1e400"])
def test_parse_complex_rejects(literal):
    with pytest.raises(click.BadParameter):
        parse_complex(literal)


@pytest.mark.parametrize("args", [
    pytest.param(["eval", "phi", "--kappa", "0.5", "--z", "1e400"], id="eval-phi"),
    pytest.param(["eval", "dd", "--kappa", "0.5", "--z", "1e400"], id="eval-dd"),
    pytest.param(["eval", "wp", "--g2", "1", "--g3", "0", "--z", "1e400"], id="eval-wp"),
    pytest.param(["table", "phi", "--kappa", "0.5", "--from", "0", "--to", "inf",
                  "--steps", "2"], id="table-phi-inf"),
    pytest.param(["table", "d", "--kappa", "0.5", "--from", "nan", "--to", "1",
                  "--steps", "2"], id="table-d-nan"),
    pytest.param(["table", "wp", "--g2", "1", "--g3", "0", "--from", "-1e308",
                  "--to", "1e308", "--steps", "2"], id="table-wp-grid-overflow"),
])
def test_non_finite_arguments_are_usage_errors(args):
    result = _invoke(args)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args", [
    ["wp", "--g2", "1", "--g3", "0"], ["dd", "--kappa", "0.5"], ["y4plus", "--kappa", "0.5"],
], ids=["wp", "dd", "y4plus"])
def test_huge_finite_argument_is_an_error(args):
    # 1e300 lies far past 2^53 half-periods: its reduction keeps no digits; the
    # message names the z given, also for y4plus, which evaluates p at 2iz
    result = _invoke(["eval", *args, "--z", "1e300"])
    assert result.exit_code == 1, result.output
    assert result.output == "error: argument (1e+300+0j) lies 2^53 or more half-periods out\n"


@pytest.mark.parametrize("args", [
    ["eval", "dd", "--kappa", "0.5", "--z", "0.3"],
    ["periods", "--kappa", "0.5"],
    ["invariants", "--kappa", "0.5"],
    ["table", "dd", "--kappa", "0.5", "--from", "0", "--to", "1", "--steps", "2"],
    ["verify", "--kappa", "0.5", "--n", "2"],
], ids=lambda args: args[0])
def test_a_domain_error_leaves_through_the_one_error_exit(args, monkeypatch):
    def refuse(kappa):
        raise DomainError("refused")

    monkeypatch.setattr(cli, "make_context", refuse)
    monkeypatch.setattr(verify, "make_context", refuse)
    result = _invoke(args)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.endswith("refused\n")


def test_help_passes_the_error_exit():
    # click's Exit is a RuntimeError; the error exit catches DomainError only
    result = _invoke(["eval", "--help"])
    assert result.exit_code == 0, result.output
    assert "Evaluate FUNCTION at one point" in result.stdout


def test_non_numeric_sig4_tol_is_usage_error():
    result = _invoke(["verify", "--kappa", "0.5", "--n", "2"], env={"SIG4_TOL": "tight"})
    assert result.exit_code == 2
    assert "'tight' is not a valid float" in result.output


@pytest.mark.parametrize("env, args, tol", [
    ({"SIG4_TOL": "1e-3"}, [], 1e-3),
    ({"SIG4_TOL": "1e-3"}, ["--tol", "1e-5"], 1e-5),   # the option wins
    ({"SIG4_TOL": ""}, [], 1e-8),                      # empty means the default
])
def test_sig4_tol_sets_the_report_tolerance(env, args, tol):
    result = _invoke(["verify", "--kappa", "0.5", "--n", "2", *args], env=env)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["tol"] == tol


def test_verify_help_names_sig4_tol():
    result = _invoke(["verify", "--help"])
    assert result.exit_code == 0 and "env var: SIG4_TOL" in result.stdout, result.output


def test_verify_out_writes_the_report_that_stdout_gets(tmp_path):
    def untimed(text):
        data = json.loads(text)
        del data["wall_time_ms"]
        for row in data["checks"]:
            del row["elapsed_ms"]
        return data

    path = tmp_path / "r.json"
    written = _invoke(["verify", "--kappa", "0.5", "--n", "2", "--out", str(path)])
    printed = _invoke(["verify", "--kappa", "0.5", "--n", "2", "--out", "-"])
    assert written.exit_code == printed.exit_code == 0, (written.output, printed.output)
    assert written.stdout == ""
    assert untimed(path.read_text(encoding="utf-8")) == untimed(printed.stdout)


@pytest.mark.parametrize("tol", ["0", "-1e-8"])
def test_non_positive_tol_is_usage_error(tol):
    result = _invoke(["verify", "--kappa", "0.5", "--n", "2", "--tol", tol])
    assert result.exit_code == 2
    assert "tolerance must be positive" in result.output


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["option", "env"])
def test_non_finite_tol_is_usage_error(tol, source):
    # inf would reach the report and fail its strict JSON; nan would pass no row
    args = ["verify", "--kappa", "0.5", "--n", "2"]
    if source == "option":
        result = _invoke(args + [f"--tol={tol}"])
    else:
        result = _invoke(args, env={"SIG4_TOL": tol})
    assert result.exit_code == 2, result.output
    assert f"tolerance must be positive and finite, got {float(tol)!r}" in result.output


def test_verify_passes_at_extreme_kappa():
    result = _invoke(["verify", "--kappa", "0.999999"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert [c["name"] for c in report["checks"]] == list(verify.REGISTRY_NAMES)
    assert all(c["passed"] for c in report["checks"])


def test_verify_prints_report_when_an_identity_raises(monkeypatch):
    def broken(suite):
        raise ConvergenceError("walk stalled")

    registry = ((verify.REGISTRY[0][0], broken),) + verify.REGISTRY[1:]
    monkeypatch.setattr(verify, "REGISTRY", registry)
    result = _invoke(["verify", "--kappa", "0.5", "--n", "20"])
    assert result.exit_code == 1
    report = json.loads(result.output)
    first, rest = report["checks"][0], report["checks"][1:]
    assert first["error"] == "ConvergenceError: walk stalled" and not first["passed"]
    assert len(rest) == 13 and all(c["passed"] for c in rest)


def test_verify_writes_strict_json_for_nan_residuals():
    # at kappa = 1e-160 some residuals are NaN; RFC 8259 has no NaN, so such
    # a row reads "max_residual": null with "nan": true, and still fails
    def strict(token):
        raise ValueError(f"non-JSON constant {token}")

    result = _invoke(["verify", "--kappa", "1e-160"])
    assert result.exit_code == 1
    rows = {c["name"]: c for c in json.loads(result.output, parse_constant=strict)["checks"]}
    flagged = {name for name, c in rows.items() if c.get("nan")}
    nan = {"dd-wp-product", "y4-ode", "y4-shifts", "y4-zero-start", "wp-quarter-turn",
           "dd-y4-bridge"}
    assert nan <= flagged, nan - flagged
    assert all(rows[name]["max_residual"] is None and not rows[name]["passed"] for name in flagged)
    assert all("nan" not in c for c in rows.values() if c["max_residual"] is not None)


def test_invariants_print_the_quarter_turn_scaling():
    output = _invoke(["invariants", "--kappa", "0.6"]).output
    lines = dict(line.split(" = ") for line in output.splitlines())
    g2, g3 = float(lines["g2"]), float(lines["g3"])
    assert (float(lines["G2"]), float(lines["G3"])) == (16.0 * g2, -64.0 * g3)
    e = [float(v) for v in lines["midpoints"].split(", ")]
    assert [float(v) for v in lines["Midpoints"].split(", ")] == [-4.0 * x for x in e[::-1]]
    assert float(lines["G2"]) == pytest.approx(15.573333333333332, rel=1e-15)
    assert float(lines["G3"]) == pytest.approx(-11.282962962962962, rel=1e-15)
