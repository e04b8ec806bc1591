"""Signature-four elliptic functions.

The two function families built on the hypergeometric parameters
(1/4, 3/4): the dn-analogue dd and the Chebyshev-quartic solutions
y4_plus / y4_minus, together with the Weierstrass machinery relating
them, a general quartic initial-value solver, and a verification engine
that turns each defining identity into a checked residual.  The value
records (``Invariants``, ``Lattice``, the contexts, the report rows, ...)
are NamedTuples: immutable, compared and hashed by value, and tuples.
"""

from .numerics import (
    ConvergenceError,
    DomainError,
    Interval,
    PoleError,
    UnsupportedLatticeError,
    integrate,
    solve_depressed_cubic,
)
from .hypergeometric import complete_f, hyp2f1
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
from .verify import (
    IdentityCheck,
    Lcg64,
    REGISTRY_NAMES,
    VerificationReport,
    check_ddy4,
    check_final_remark,
    check_ooOO,
    check_pP,
    omega_prime,
    omega_three_ways,
    run_suite,
)

__version__ = "0.1.0"
