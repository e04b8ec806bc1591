"""The identity suite: sampling, extreme moduli and the report of a runner that raises."""

import pytest

import sig4.verify as verify
from sig4.numerics import ConvergenceError
from sig4.verify import REGISTRY_NAMES, run_suite


@pytest.mark.parametrize("kappa", [0.05, 0.5, 0.9])
def test_y4_zero_start_avoids_every_pole_image(kappa):
    # suite seed 15 draws a point near the (Omega, -i Omega') pole image
    report = run_suite(kappa, 200, 15, 1e-8)
    check = next(c for c in report.checks if c.name == "y4-zero-start")
    assert check.passed, check.max_residual


@pytest.mark.parametrize("kappa", [0.999, 0.9999])
def test_all_identities_near_kappa_one(kappa):
    report = run_suite(kappa, 200, 0, 1e-8)
    assert [c.name for c in report.checks if not c.passed] == []


def test_suite_reports_every_row_at_small_kappa():
    # at kappa = 1e-4 the float discriminant of the dd invariants is 0
    report = run_suite(1e-4, 200, 0, 1e-8)
    assert [c.name for c in report.checks] == list(REGISTRY_NAMES)


def test_raising_runner_becomes_failed_row(monkeypatch):
    def broken(ctx, yctx, n, rng):
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
    assert failed == [{
        "name": "omega-trig-vs-forward",
        "samples": 0,
        "max_residual": None,
        "passed": False,
        "error": "ConvergenceError: walk stalled",
    }]
    assert all("error" not in row for row in rows if row["passed"])
