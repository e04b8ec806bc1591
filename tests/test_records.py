"""The value records: immutable NamedTuples, compared and hashed by value."""

import math
import os
import subprocess
import sys

import pytest

import sig4
from sig4 import (
    DDContext,
    IdentityCheck,
    Interval,
    Invariants,
    Lattice,
    MidpointTriple,
    Modulus,
    PeriodPair,
    QuarticCoefficients,
    VerificationReport,
    Y4Context,
    lattice,
    make_context,
    make_y4_context,
)
from sig4.numerics import DomainError


def _records():
    """(type, field names in order, field values) for each of the eleven records."""
    ctx = make_context(0.5)
    yctx = make_y4_context(ctx.modulus)
    check = IdentityCheck("y4-ode", 200, 1e-15, 1e-8, True, 0.25, 0.5 + 0.25j, None)
    return [
        (Interval, ("lo", "hi"), (0.0, 1.5)),
        (Invariants, ("g2", "g3"), (1.0, 0.25)),
        (MidpointTriple, ("e1", "e2", "e3"), (1.0, 0.0, -1.0)),
        (PeriodPair, ("half_real", "half_imag_mag"), (1.5, 2.5)),
        (Lattice, ("invariants", "roots", "periods", "rotated", "scale", "nome", "theta",
                   "table", "slopes"), tuple(ctx.lattice)),
        (Modulus, ("kappa", "lam"), tuple(ctx.modulus)),
        (DDContext, ("modulus", "lattice"), (ctx.modulus, ctx.lattice)),
        (Y4Context, ("lam", "kappa", "mu_plus", "mu_minus", "dd_lattice", "periods"), tuple(yctx)),
        (QuarticCoefficients, ("a0", "a1", "a2", "a3", "a4"), (1.0, 0.5, 0.25, 0.125, 2.0)),
        (IdentityCheck, ("name", "samples", "max_residual", "tolerance", "passed", "elapsed_ms",
                         "worst_z", "error"), tuple(check)),
        (VerificationReport, ("kappa", "seed", "tol", "checks", "wall_time_ms"),
         (0.5, 0, 1e-8, (check,), 3.5)),
    ]


@pytest.mark.parametrize("kind, names, values",
                         [pytest.param(*record, id=record[0].__name__) for record in _records()])
def test_record_is_an_immutable_value(kind, names, values):
    record = kind(*values)
    assert tuple(getattr(record, name) for name in names) == values
    twin = kind(*values)
    assert twin == record and hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])
    with pytest.raises(AttributeError):
        record.extra = 0.0
    text = repr(record)
    assert text.startswith(kind.__name__ + "(")
    assert all(f"{name}=" in text for name in names)


def test_equal_invariants_share_one_cached_lattice():
    assert lattice(Invariants(1.0, 0.1)) is lattice(Invariants(1.0, 0.1))


@pytest.mark.parametrize("kind, valid, invalid", [
    (Interval, (0.0, 1.0), (1.0, 1.0)),
    (Invariants, (1.0, 0.1), (math.inf, 0.0)),
    (QuarticCoefficients, (0.0, 0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0, 1.0)),
])
def test_record_rejects_invalid_values(kind, valid, invalid):
    with pytest.raises(DomainError):
        kind(*invalid)
    with pytest.raises(DomainError):
        kind(*valid)._replace(**dict(zip(kind._fields, invalid)))


def test_import_generates_no_dataclasses_and_loads_every_module():
    # -S: only what sig4 itself imports is loaded
    src = os.path.dirname(os.path.dirname(sig4.__file__))
    code = ("import sys, sig4; print('dataclasses' in sys.modules, "
            "all('sig4.' + m in sys.modules for m in "
            "('numerics', 'hypergeometric', 'weierstrass', 'dd', 'y4', 'quartic', 'verify')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
