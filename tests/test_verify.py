"""The identity suite: sampling, extreme moduli and the report of a runner that raises."""

import json
import math
import sys

import pytest

import sig4.verify as verify
from sig4.dd import make_context
from sig4.hypergeometric import complete_f
from sig4.numerics import ConvergenceError, DomainError, PoleError
from sig4.verify import (
    REGISTRY_NAMES,
    Lcg64,
    _draw,
    check_ddy4,
    check_final_remark,
    check_pP,
    omega_prime,
    omega_three_ways,
    run_suite,
    y4_lattice,
)


@pytest.mark.parametrize("kappa", [0.05, 0.5, 0.9])
def test_y4_zero_start_avoids_every_pole_image(kappa):
    # suite seed 15 draws a point near the (Omega, -i Omega') pole image
    report = run_suite(kappa, 200, 15, 1e-8)
    check = next(c for c in report.checks if c.name == "y4-zero-start")
    assert check.passed, check.max_residual


@pytest.mark.parametrize("kappa", [0.999, 0.9999, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0 ** -52])
def test_all_identities_near_kappa_one(kappa):
    # the omega integrals carry no inverse square root, so they converge
    # where lam, the width of their near-singularity, is 1e-12 or less
    report = run_suite(kappa, 200, 0, 1e-8)
    assert [c.name for c in report.checks if not c.passed] == []


@pytest.mark.parametrize("kappa", [1e-4, 1e-3, 1e-8])
def test_y4_equation_rows_at_small_kappa(kappa):
    # y' comes from p', which must keep its relative accuracy where |p'| is
    # small on the nearly degenerate y4 lattice; dd-y4-bridge needs dd and
    # y4 to take p - e_j from one modulus pair, and is checked multiplied
    # out, as y + mu_plus ~ 1e-8 at kappa = 1e-8.  Only the quartic solver's
    # rows, whose roots come from the invariants by Viete, may fail here
    report = run_suite(kappa, 200, 0, 1e-8)
    failed = {c.name: c.max_residual for c in report.checks if not c.passed}
    assert set(failed) <= {"quartic-ivp-dd", "quartic-ivp-y4"}, failed


@pytest.mark.parametrize("kappa", [1e-300, 1e-160, 1e-100, 1e-15, 1e-8, 0.5, 1.0 - 1e-12,
                                   1.0 - 2.0 ** -53])
def test_half_period_quadrature_at_both_ends(kappa):
    ctx = make_context(kappa)
    closed, _, via_trig = omega_three_ways(ctx)
    assert abs(via_trig - closed) <= 2e-14 * closed
    closed_prime = math.pi / math.sqrt(2.0) * complete_f(ctx.modulus.lam, kappa)
    assert abs(omega_prime(ctx) - closed_prime) <= 2e-14 * closed_prime


def _perturbed(value):
    return value * (1.0 + 1e-7)


def test_period_transfer_and_bridge_can_fail(monkeypatch):
    # each row compares two routes, so an error in one of them shows
    original_periods, original_dd = verify.y4_periods, verify.dd

    def skewed_periods(ctx):
        pp = original_periods(ctx)
        return pp._replace(half_real=_perturbed(pp.half_real))

    monkeypatch.setattr(verify, "y4_periods", skewed_periods)
    monkeypatch.setattr(verify, "dd", lambda z, ctx: _perturbed(original_dd(z, ctx)))
    rows = {c.name: c for c in run_suite(0.5, 20, 0, 1e-8).checks}
    assert not rows["period-transfer"].passed and rows["period-transfer"].max_residual > 1e-8
    assert not rows["dd-y4-bridge"].passed and rows["dd-y4-bridge"].max_residual > 1e-8


def test_real_axis_equation_at_kappa_nearest_one():
    # phi, read off p - e1, keeps its accuracy at the integrand's 1/lam peak
    report = run_suite(1.0 - 1e-9, 200, 0, 1e-8)
    row = next(c for c in report.checks if c.name == "d-ode-real-axis")
    assert row.error is None and row.passed, (row.error, row.max_residual)


@pytest.mark.parametrize("kappa", [1e-4, 0.5, 0.9999, 1.0 - 1e-9])
def test_real_axis_equation_work(kappa, monkeypatch):
    # phi is closed form: one p - e1 evaluation per point of the three-point
    # stencils
    dd_module = sys.modules["sig4.dd"]
    original = dd_module._evaluate
    evaluations = 0

    def counted(*args):
        nonlocal evaluations
        evaluations += 1
        return original(*args)

    monkeypatch.setattr(dd_module, "_evaluate", counted)
    monkeypatch.setattr(verify, "REGISTRY", verify.REGISTRY[:1])
    row = run_suite(kappa, 200, 0, 1e-8).checks[0]
    assert row.name == "d-ode-real-axis" and row.passed, (row.error, row.max_residual)
    assert evaluations == 3 * 200


@pytest.mark.parametrize("kappa", [1e-6, 1e-8, 1e-12, 1e-15])
def test_y4_rows_at_tiny_kappa(kappa):
    # y4 reads P - E1 on the scale of kappa; taken as a theta quotient it
    # keeps its relative accuracy however small kappa is
    report = run_suite(kappa, 200, 0, 1e-8)
    rows = {c.name: (c.max_residual, c.error) for c in report.checks if c.name.startswith("y4-")}
    assert len(rows) == 4
    assert all(c.passed for c in report.checks if c.name in rows), rows


@pytest.mark.parametrize("kappa", [1.0 - 1e-12, 1.0 - 2.0 ** -52])
def test_y4_shifts_at_kappa_nearest_one(kappa):
    # the y4_minus pole nears E2 as kappa -> 1, and y4_minus reads P - E2
    report = run_suite(kappa, 200, 0, 1e-8)
    row = next(c for c in report.checks if c.name == "y4-shifts")
    assert row.error is None and row.passed, (row.error, row.max_residual)


@pytest.mark.parametrize("kappa", [0.05, 0.5, 0.9, 0.99])
def test_final_remark_over_the_dd_cell(kappa):
    # dd(z) = 1 - 2 y4p(z/sqrt8 + zero)^2, y4 built on kappa as its parameter
    ctx = make_context(kappa)
    pp = ctx.lattice.periods
    rng = Lcg64(0)
    poles = (complex(0.0, pp.half_imag_mag), complex(0.0, -pp.half_imag_mag))
    for _ in range(200):
        z = _draw(rng, pp, poles)
        assert check_final_remark(ctx, z) <= 1e-10, z


def test_suite_reports_every_row_at_small_kappa():
    # at kappa = 1e-4 the float discriminant of the dd invariants is 0
    report = run_suite(1e-4, 200, 0, 1e-8)
    assert [c.name for c in report.checks] == list(REGISTRY_NAMES)


def test_raising_runner_becomes_failed_row(monkeypatch):
    def broken(suite):
        raise ConvergenceError("walk stalled")

    registry = tuple(
        (name, broken if name == "omega-trig-vs-forward" else runner)
        for name, runner in verify.REGISTRY
    )
    monkeypatch.setattr(verify, "REGISTRY", registry)
    report = run_suite(0.5, 20, 0, 1e-8)
    assert [c.name for c in report.checks] == list(REGISTRY_NAMES)
    assert not report.all_passed
    rows = report.to_json_dict()["checks"]
    failed = [row for row in rows if not row["passed"]]
    assert len(failed) == 1 and failed[0].pop("elapsed_ms") >= 0.0
    assert failed == [{
        "name": "omega-trig-vs-forward",
        "samples": 0,
        "max_residual": None,
        "worst_z": None,
        "passed": False,
        "error": "ConvergenceError: walk stalled",
    }]
    assert all("error" not in row for row in rows if row["passed"])


def test_pole_at_a_sampled_point_fails_its_row(monkeypatch):
    # a sampled PoleError is not redrawn: it fails the row under its own name
    def at_a_pole(z, ctx):
        raise PoleError(f"dd has a pole at {z!r}")

    monkeypatch.setattr(verify, "dd", at_a_pole)
    rows = {c.name: c for c in run_suite(0.5, 20, 0, 1e-8).checks}
    row = rows["dd-wp-product"]
    assert not row.passed and (row.samples, row.max_residual) == (0, None)
    assert row.error.startswith("PoleError: dd has a pole at "), row.error
    assert rows["y4-ode"].passed


def _without_times(report) -> str:
    data = report.to_json_dict()
    del data["wall_time_ms"]
    for row in data["checks"]:
        del row["elapsed_ms"]
    return json.dumps(data)


@pytest.mark.parametrize("kappa", [1e-3, 0.5])
def test_equal_inputs_give_identical_reports(kappa):
    first = run_suite(kappa, 20, 7, 1e-8)
    assert _without_times(run_suite(kappa, 20, 7, 1e-8)) == _without_times(first)
    assert all(c.elapsed_ms >= 0.0 for c in first.checks)


def test_worst_z_reproduces_the_worst_residual():
    report = run_suite(0.5, 20, 0, 1e-8)
    rows = {row["name"]: row for row in report.to_json_dict()["checks"]}
    sampled = ("dd-wp-product", "y4-shifts", "dd-y4-bridge", "d-ode-real-axis")
    assert all(rows[name]["worst_z"] is not None for name in sampled)
    assert all(rows[name]["worst_z"] is None for name in (
        "omega-trig-vs-forward", "omega-trig-vs-series", "omega-prime-two-routes",
        "y4-zero-pole", "period-transfer",
    ))
    x, y = rows["dd-y4-bridge"]["worst_z"]
    ctx = make_context(0.5)
    assert check_ddy4(ctx, y4_lattice(ctx), complex(x, y)) == rows["dd-y4-bridge"]["max_residual"]


def test_check_pp_replays_the_quarter_turn_worst_z():
    row = next(c for c in run_suite(0.99, 200, 0, 1e-8).checks if c.name == "wp-quarter-turn")
    assert row.worst_z is not None
    ctx = make_context(0.99)
    assert check_pP(ctx, y4_lattice(ctx), row.worst_z) == row.max_residual


def test_nan_residual_fails_its_row():
    # kappa^2 underflows far below the normal range: some samples give NaN,
    # and a NaN must become the row's worst residual, not drop out of it
    rows = {c.name: c for c in run_suite(1e-160, 200, 0, 1e-8).checks}
    for name in ("dd-wp-product", "y4-ode", "y4-shifts", "y4-zero-start", "wp-quarter-turn",
                 "dd-y4-bridge"):
        row = rows[name]
        assert math.isnan(row.max_residual) and not row.passed, name
        assert row.worst_z is not None and row.error is None, name


def test_omega_routes_computed_once_per_suite(monkeypatch):
    calls = []
    original = verify.omega_three_ways

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "omega_three_ways", counted)
    report = run_suite(0.5, 5, 0, 1e-8)
    assert len(calls) == 1
    rows = {c.name: c.max_residual for c in report.checks}
    closed, via_integral, via_trig = original(make_context(0.5))
    assert rows["omega-trig-vs-forward"] == abs(via_trig - via_integral)
    assert rows["omega-trig-vs-series"] == abs(via_trig - closed)


def test_run_suite_names_the_stage_whose_context_fails():
    # a DomainError, so the CLI's one error exit reports it
    with pytest.raises(DomainError, match="context construction failed at stage 'dd'"):
        run_suite(1.5, 5, 0, 1e-8)


def test_run_suite_rejects_zero_samples():
    with pytest.raises(DomainError, match="^n_samples must be at least 1$"):
        run_suite(0.5, 0, 0, 1e-8)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8])
def test_run_suite_rejects_a_tolerance_outside_zero_to_infinity(tol):
    # an infinite tolerance would pass every row and write a report that
    # strict JSON cannot hold
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        run_suite(0.5, 2, 0, tol)
