"""Independent mpmath reference values for the benchmark's correctness check.

Nothing here calls sig4.  Every reference is built from the inputs the
benchmark handed to the program (float kappa, lam, invariants, quartic
coefficients, CLI grid points) and evaluated at 30 (or, for the real-axis
inverse, 20) significant digits:

* p from the Jacobi form  e3 + (e1 - e3) / sn^2(sqrt(e1 - e3) z | m),
  m = (e2 - e3)/(e1 - e3), with e_i the roots of 4t^3 - g2 t - g3 from
  ``mpmath.polyroots`` (DLMF 23.6.16);
* dd, y4_plus, y4_minus and the quartic initial-value solutions as their
  documented Moebius transforms of that p;
* phi by Newton's method on ``mpmath.quad`` of 2F1(1/4, 3/4; 1/2; k^2 sin^2 t);
* the half-periods from 2F1(1/4, 3/4; 1; .).

An output passes when it is within ``TOL * max(1, |value|)`` of the reference.
"""

from __future__ import annotations

import math

import mpmath as mp

TOL = 1e-8
_DPS = 30
_PHI_DPS = 20


def close(value: complex, ref) -> bool:
    """True when ``value`` is within TOL * max(1, |value|) of ``ref``."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return False
    return abs(value - complex(ref)) <= TOL * max(1.0, abs(value))


class WpRef:
    """Reference p-function for real invariants with three real midpoints."""

    def __init__(self, g2, g3):
        with mp.workdps(_DPS):
            g2, g3 = mp.mpf(g2), mp.mpf(g3)
            e1, e2, e3 = sorted((mp.re(r) for r in mp.polyroots([4, 0, -g2, -g3], maxsteps=200,
                                                                 extraprec=60)), reverse=True)
            self._e3 = e3
            self._gap = e1 - e3
            self._root = mp.sqrt(e1 - e3)
            self._m = (e2 - e3) / (e1 - e3)

    def __call__(self, z: complex):
        with mp.workdps(_DPS):
            sn = mp.ellipfun("sn", self._root * mp.mpc(z), self._m)
            return self._e3 + self._gap / sn ** 2


def dd_invariants(kappa: float):
    """(g2, g3) of the dd lattice, exact in mp for the float ``kappa``."""
    with mp.workdps(_DPS):
        lam2 = 1 - mp.mpf(kappa) ** 2
        return (3 * lam2 + 1) / 3, (9 * lam2 - 1) / 27


class DDRef:
    """dd = 1 - (kappa^2/2) / (1/3 + p) on the dd lattice of ``kappa``."""

    def __init__(self, kappa: float):
        self._half_k2 = mp.mpf(kappa) ** 2 / 2
        self.wp = WpRef(*dd_invariants(kappa))

    def __call__(self, z: complex):
        with mp.workdps(_DPS):
            return 1 - self._half_k2 / (mp.mpf(1) / 3 + self.wp(z))


class Y4Ref:
    """y4_plus / y4_minus for the quartic parameter ``lam``."""

    def __init__(self, lam: float):
        with mp.workdps(_DPS):
            lam2 = mp.mpf(lam) ** 2
            self._k = mp.sqrt(1 - lam2)
            self.wp = WpRef(mp.mpf(16) / 3 * (1 + 3 * lam2), mp.mpf(64) / 27 * (1 - 9 * lam2))

    def __call__(self, z: complex, sign: int = 1):
        with mp.workdps(_DPS):
            k = sign * self._k
            mu = mp.sqrt((1 + k) / 2)
            return mu * (1 + 4 * k / (self.wp(z) - (mp.mpf(4) / 3 + 2 * k)))


class QuarticRef:
    """w0 + (f'(w0)/4) / (p(z; g2, g3) - f''(w0)/24) for f = c4 w^4 + c3 w^3 + ... + c0."""

    def __init__(self, monomial, w0: float):
        with mp.workdps(_DPS):
            c4, c3, c2, c1, c0 = (mp.mpf(c) for c in monomial)
            a0, a1, a2, a3, a4 = c4, c3 / 4, c2 / 6, c1 / 4, c0   # binomial normalization
            w = mp.mpf(w0)
            g2 = a0 * a4 - 4 * a1 * a3 + 3 * a2 ** 2
            g3 = a0 * a2 * a4 + 2 * a1 * a2 * a3 - a2 ** 3 - a0 * a3 ** 2 - a1 ** 2 * a4
            self._w0 = w
            self._residue = ((4 * c4 * w + 3 * c3) * w + 2 * c2) * w + c1   # f'(w0)
            self._residue /= 4
            self._offset = ((12 * c4 * w + 6 * c3) * w + 2 * c2) / 24       # f''(w0)/24
            self.wp = WpRef(g2, g3)

    def __call__(self, z: complex):
        with mp.workdps(_DPS):
            return self._w0 + self._residue / (self.wp(z) - self._offset)


def complete_f(x):
    """2F1(1/4, 3/4; 1; x)."""
    return mp.hyp2f1(mp.mpf(1) / 4, mp.mpf(3) / 4, 1, x)


def periods(kappa: float) -> dict:
    """Reference values of the ``sig4 periods`` rows, as mp numbers.

    omega = (pi/2) F(kappa^2), |omega'| = (pi/sqrt2) F(lam^2); the y4
    lattice has Omega = |omega'|/2 and |Omega'| = omega/2.
    """
    with mp.workdps(_DPS):
        k = mp.mpf(kappa)
        omega = mp.pi / 2 * complete_f(k ** 2)
        omega_p = mp.pi / mp.sqrt(2) * complete_f(1 - k ** 2)
        return {
            "omega": omega,
            "omega_prime_mag": omega_p,
            "Omega": omega_p / 2,
            "Omega_prime_mag": omega / 2,
            "ratio_dd": mp.mpc(0, omega_p / omega),
            "ratio_y4": mp.mpc(0, omega / omega_p),
        }


class PhiRef:
    """The inverse of u(T) = int_0^T 2F1(1/4,3/4;1/2; k^2 sin^2 t) dt on [0, 2 omega].

    The integrand is even about pi/2, so u(T) = 2 omega - u(pi - T) and
    every quadrature runs from an end of [0, pi] to T, never across the
    peak at pi/2.
    """

    def __init__(self, kappa: float):
        with mp.workdps(_PHI_DPS):
            self._k2 = mp.mpf(kappa) ** 2
            self.two_omega = mp.pi * complete_f(self._k2)

    def _f(self, t):
        return mp.hyp2f1(mp.mpf(1) / 4, mp.mpf(3) / 4, mp.mpf(1) / 2, self._k2 * mp.sin(t) ** 2)

    def _u(self, T):
        if T <= mp.pi / 2:
            return mp.quad(self._f, [0, T])
        return self.two_omega - mp.quad(self._f, [T, mp.pi])

    def __call__(self, u: float, start: float | None = None):
        """phi(u), by phi(u + 2 omega) = phi(u) + pi and Newton's method on [0, pi].

        ``start`` only seeds the iteration.
        """
        with mp.workdps(_PHI_DPS):
            u = mp.mpf(u)
            wraps = mp.floor(u / self.two_omega)
            u -= wraps * self.two_omega
            T = mp.pi * u / self.two_omega if start is None else mp.mpf(start) - wraps * mp.pi
            for _ in range(30):
                T = min(max(T, mp.mpf(0)), mp.pi)
                step = (self._u(T) - u) / self._f(T)
                T -= step
                if abs(step) < mp.mpf(10) ** -17:
                    return T + wraps * mp.pi
            raise ArithmeticError(f"reference phi did not converge at u={u}")


def d_real(phi_value, kappa: float):
    """d = sqrt(1 - kappa^2 sin^2 phi)."""
    with mp.workdps(_PHI_DPS):
        return mp.sqrt(1 - mp.mpf(kappa) ** 2 * mp.sin(phi_value) ** 2)


class Checker:
    """Reference objects keyed as the workloads key their outputs, built on first use.

    Keys: ("wp", g2, g3), ("dd", kappa), ("y4", lam, sign),
    ("quartic", monomial coefficients, w0), ("phi", kappa), ("d", kappa),
    ("periods", kappa).
    """

    def __init__(self):
        self._refs = {}
        self._phi = {}   # (kappa, u) -> reference phi, shared by the phi and d rows

    def _ref(self, kind, *args):
        key = (kind, *args)
        if key not in self._refs:
            make = {"wp": WpRef, "dd": DDRef, "y4": Y4Ref, "quartic": QuarticRef,
                    "phi": PhiRef, "periods": periods}[kind]
            self._refs[key] = make(*args)
        return self._refs[key]

    def reference(self, key, arg, value=None):
        kind = key[0]
        if kind == "y4":
            return self._ref("y4", key[1])(arg, key[2])
        if kind == "periods":
            return self._ref("periods", key[1])[arg]
        if kind in ("phi", "d"):
            kappa = key[1]
            if (kappa, arg) not in self._phi:
                start = value.real if kind == "phi" and value is not None else None
                if start is not None and not math.isfinite(start):
                    start = None
                self._phi[kappa, arg] = self._ref("phi", kappa)(arg, start)
            phi_value = self._phi[kappa, arg]
            return phi_value if kind == "phi" else d_real(phi_value, kappa)
        return self._ref(*key)(arg)

    def ok(self, key, arg, value) -> bool:
        return close(value, self.reference(key, arg, value))


def count_failed(ops, checker: Checker) -> int:
    """Operations that failed outright or have an output off its reference."""
    return sum(op.failed or not all(checker.ok(*item) for item in op.items) for op in ops)


def canary(ops, checker: Checker) -> bool | None:
    """Whether the check rejects a passing output moved by 1e-6 * max(1, |value|).

    None when the sample holds no passing oracle-checked output to move.
    """
    for op in ops:
        if op.failed or not op.items:
            continue
        key, arg, value = op.items[0]
        if checker.ok(key, arg, value):
            moved = complex(value) + 1e-6 * max(1.0, abs(complex(value)))
            return not checker.ok(key, arg, moved)
    return None
