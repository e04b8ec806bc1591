"""Signature-four elliptic functions.

The two function families built on the hypergeometric parameters
(1/4, 3/4): the dn-analogue dd and the Chebyshev-quartic solutions
y4_plus / y4_minus, together with the Weierstrass machinery relating
them, a general quartic initial-value solver, and a verification engine
that turns each defining identity into a checked residual.  The value
records (``Invariants``, ``Lattice``, the contexts, the report rows, ...)
are NamedTuples: immutable, compared and hashed by value, and tuples.

The identity suite (``sig4.verify`` and the series reference
``sig4.hypergeometric``) loads on first use: ``import sig4`` registers
both modules in ``sys.modules`` through ``importlib.util.LazyLoader``
without executing them, and the suite's re-exported names (``run_suite``,
``hyp2f1``, ...) resolve through the module ``__getattr__``.  They stay
registered, ahead of the eagerly loaded modules, because the benchmark
tracer looks them up in ``sys.modules`` by name and patches the modules in
that order; a module first run mid-patch would otherwise bind some
already-wrapped functions.
"""

import importlib.util as _util
import sys as _sys


def _register_lazily(name: str):
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hypergeometric = _register_lazily("hypergeometric")
verify = _register_lazily("verify")

from .numerics import (
    ConvergenceError,
    DomainError,
    Interval,
    PoleError,
    UnsupportedLatticeError,
    integrate,
    solve_depressed_cubic,
)
from .weierstrass import (
    Invariants,
    Lattice,
    MidpointTriple,
    PeriodPair,
    build_lattice,
    half_periods,
    lattice,
    midpoints,
    wp,
    wp_prime,
)
from .dd import (
    DDContext,
    Modulus,
    d_real,
    dd,
    forward_integral,
    make_context,
    make_modulus,
    phi,
    phi_many,
)
from .y4 import (
    Y4Context,
    make_y4_context,
    y4_minus,
    y4_plus,
    y4_zero_ivp_solution,
    y4_zeros_poles,
)
from .quartic import (
    QuarticCoefficients,
    cubinvariant,
    quadrinvariant,
    recentered,
    solve_quartic_ivp,
    taylor_shift,
)

# name -> the lazily loaded module that defines it
_SUITE_NAMES = dict.fromkeys(
    ("IdentityCheck", "Lcg64", "REGISTRY_NAMES", "VerificationReport", "check_ddy4",
     "check_final_remark", "check_ooOO", "check_pP", "omega_prime", "omega_three_ways",
     "run_suite"),
    "verify",
) | dict.fromkeys(("complete_f", "hyp2f1"), "hypergeometric")


def __getattr__(name: str):
    module = _SUITE_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(globals().keys() | _SUITE_NAMES.keys())


__version__ = "0.1.0"
# a star import takes the public globals and the deferred suite names
__all__ = [n for n in globals() if not n.startswith("_")] + list(_SUITE_NAMES)
