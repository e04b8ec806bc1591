"""The value records: immutable NamedTuples, compared and hashed by value."""

import json
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


_SUITE_EXPORTS = {
    "verify": ("run_suite", "IdentityCheck", "VerificationReport", "Lcg64", "REGISTRY_NAMES",
               "check_ddy4", "check_final_remark", "check_ooOO", "check_pP", "omega_prime",
               "omega_three_ways"),
    "hypergeometric": ("complete_f", "hyp2f1"),
}


def test_identity_suite_loads_on_first_use():
    # a fresh interpreter: import sig4 and the table command leave the suite
    # modules registered but unexecuted; the first re-exported name runs them
    src = os.path.dirname(os.path.dirname(sig4.__file__))
    code = f"""
import json, sys
import sig4
from sig4.cli import main

def executed():
    # object.__getattribute__ reads the namespace without triggering the load
    return [name for name, first in (("verify", "run_suite"), ("hypergeometric", "hyp2f1"))
            if first in object.__getattribute__(sys.modules["sig4." + name], "__dict__")]

out = {{"after_import": executed(),
        "first": [name for name in sys.modules if name.startswith("sig4.")][:2]}}
main(["table", "phi", "--kappa", "0.5", "--from", "0", "--to", "1", "--steps", "2"],
     standalone_mode=False)
out["after_table"] = executed()
try:
    sig4.no_such_name
    out["missing"] = "resolved"
except AttributeError:
    out["missing"] = "AttributeError"
out["same"] = {{name: getattr(sig4, name) is getattr(sys.modules["sig4." + module], name)
               for module, names in {_SUITE_EXPORTS!r}.items() for name in names}}
out["after_names"] = executed()
from sig4 import run_suite
import sig4.verify
out["import_forms"] = run_suite is sig4.verify.run_suite is sig4.run_suite
print(json.dumps(out))
"""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["after_import"] == [] and result["after_table"] == []
    # registered ahead of the eager modules: a tracer that patches sys.modules in
    # order runs them before it has wrapped anything they import
    assert result["first"] == ["sig4.hypergeometric", "sig4.verify"]
    assert result["missing"] == "AttributeError"
    assert result["same"] == {name: True for names in _SUITE_EXPORTS.values() for name in names}
    assert result["after_names"] == ["verify", "hypergeometric"]
    assert result["import_forms"] is True


def test_star_import_takes_the_suite_names_and_no_loader_helpers():
    namespace = {}
    exec("from sig4 import *", namespace)
    for names in _SUITE_EXPORTS.values():
        assert all(namespace[name] is getattr(sig4, name) for name in names)
    assert not namespace.keys() & {"sys", "LazyLoader", "find_spec", "module_from_spec"}
