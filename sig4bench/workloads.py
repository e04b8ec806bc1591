"""The four benchmark workloads.

Each workload is a closed loop with one caller.  It calls sig4 only
through public names looked up on the imported modules at call time, so
that the traced run can replace them from outside.  A workload's unit of
work is a *pass* over a fixed, seeded input set; ``run_pass(i)`` draws the
inputs of pass ``i`` from ``(seed, workload, i)`` alone, times only the
calls into sig4, and returns a ``Pass``.  The outputs of pass 0 are kept
and are the sample that the mpmath oracle checks.

Inputs never come from sig4 itself: the half-periods that bound the
sampled cells are computed here in floating point by the AGM closed form
F(k^2) = 2F1(1/4, 3/4; 1; k^2) = 1/AGM(sqrt(1+k), sqrt(1-k)).
"""

from __future__ import annotations

import csv
import importlib
import math
import random
import sys
import time
from dataclasses import dataclass, field

#: exceptions that count as a failed operation of the program; anything
#: else (TypeError, AttributeError, ...) means the benchmark no longer
#: matches the program's interface and is allowed to crash the run
ERRORS = (ArithmeticError, ValueError, RuntimeError)

_MARGIN_FRAC = 0.05  # pole margin, share of the lattice's shortest half-period
_clock = time.perf_counter


@dataclass
class Op:
    """One operation of the check sample.

    ``failed`` is set when the outcome is known without the oracle: the
    call raised, a CLI row was lost to an error exit, or run_suite
    reported or never reached the identity.  ``items`` holds
    ``(reference key, argument, output)`` triples for the oracle.
    """

    failed: bool
    items: list = field(default_factory=list)


@dataclass
class Pass:
    ops: int                 # operations attempted
    raised: int              # operations that raised, or rows lost to an error exit
    seconds: float           # time spent inside sig4
    samples: list            # (seconds per operation, operations) of each timed call group
    records: list | None     # Op list, kept for pass 0 only


def _agm(a: float, b: float) -> float:
    for _ in range(60):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _complete_f(x: float, xc: float) -> float:
    """2F1(1/4, 3/4; 1; x^2) for x in [0, 1) with complement xc = sqrt(1 - x^2)."""
    s = math.sqrt(1.0 + x)
    return 1.0 / _agm(s, xc / s)


def dd_half_periods(kappa: float) -> tuple[float, float]:
    """(omega, |omega'|) of the dd lattice."""
    lam = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    return (0.5 * math.pi * _complete_f(kappa, lam),
            math.pi / math.sqrt(2.0) * _complete_f(lam, kappa))


def _grid(rng: random.Random, hr: float, hi: float, n: int, avoid, margin: float) -> list:
    """Jittered n x n grid over the cell [-hr, hr] x [-hi, hi], away from ``avoid``.

    One point per sub-rectangle keeps every region of the cell, including
    the neighbourhoods of the poles, equally represented in every pass.
    """
    points = []
    for a in range(n):
        for b in range(n):
            for _ in range(64):
                z = complex(hr * (2.0 * (a + rng.random()) / n - 1.0),
                            hi * (2.0 * (b + rng.random()) / n - 1.0))
                if all(abs(z - p) >= margin for p in avoid):
                    break
            points.append(z)
    return points


def _dd_cell(rng, kappa, n):
    omega, omega_p = dd_half_periods(kappa)
    avoid = (0j, complex(0.0, omega_p), complex(0.0, -omega_p))
    return _grid(rng, omega, omega_p, n, avoid, _MARGIN_FRAC * min(omega, omega_p))


def _y4_cell(rng, kappa, n):
    omega, omega_p = dd_half_periods(kappa)
    hr, hi = 0.5 * omega_p, 0.5 * omega   # period transfer: Omega = |omega'|/2, |Omega'| = omega/2
    q = 0.5 * hr
    avoid = (0j, complex(q, 0.0), complex(-q, 0.0)) + tuple(
        complex(sr * q, si * hi) for sr in (-1.0, 1.0) for si in (-1.0, 1.0))
    return _grid(rng, hr, hi, n, avoid, _MARGIN_FRAC * min(hr, hi))


def _dd_quartic(lam2: float) -> tuple:
    """Monomial coefficients of 2 (1 - w)(w^2 - lam^2), solved by dd from w0 = 1."""
    return (0.0, -2.0, 2.0, 2.0 * lam2, -2.0 * lam2)


def _y4_quartic(lam2: float) -> tuple:
    """Monomial coefficients of 8 w^4 - 8 w^2 + 2 lam^2, solved by y4_plus from mu_plus."""
    return (8.0, 0.0, -8.0, 0.0, 2.0 * lam2)


def _bound(call, state):
    return lambda z: call(z, state)


def _rebuilding(call, build):
    return lambda z: call(z, build())


class Workload:
    name = ""
    min_passes = 1     # passes a timed run makes even when --seconds is up
    trace_passes = 1   # passes on each side of a traced run
    check_passes = 1   # leading passes whose outputs the oracle checks

    def __init__(self, sig4, seed: int):
        self.sig4 = sig4
        self.seed = seed

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{index}")

    def setup(self) -> None:
        """Build the contexts and make one warm-up call per function."""

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError


class CellPoints(Workload):
    """Scalar evaluation at points of the centred fundamental cell."""

    name = "cell-points"
    trace_passes = 150
    KAPPAS = (1e-4, 1e-3, 0.5, 0.99, 1.0 - 1e-6)
    FUNCTIONS = ("wp", "dd", "sol_dd", "y4_plus", "y4_minus", "sol_y4")
    DD_LATTICE = ("wp", "dd", "sol_dd")

    def __init__(self, sig4, seed, quick):
        super().__init__(sig4, seed)
        self.side = 2 if quick else 6   # batch = side^2 points of one function at one kappa
        self.ops = {}

    def _builders(self, kappa):
        api = self.sig4
        lam = math.sqrt(1.0 - kappa * kappa)
        lam2 = lam * lam
        g2, g3 = (3.0 * lam2 + 1.0) / 3.0, (9.0 * lam2 - 1.0) / 27.0
        mu = math.sqrt(0.5 * (1.0 + math.sqrt(1.0 - lam2)))
        dd_q, y4_q = _dd_quartic(lam2), _y4_quartic(lam2)

        def solver(coeffs, w0):
            return lambda: api.solve_quartic_ivp(api.QuarticCoefficients.from_monomial(*coeffs), w0)[0]

        return {
            "wp": (lambda: api.Invariants(g2, g3), lambda z, s: api.wp(z, s), ("wp", g2, g3)),
            "dd": (lambda: api.make_context(kappa), lambda z, s: api.dd(z, s), ("dd", kappa)),
            "sol_dd": (solver(dd_q, 1.0), lambda z, s: s(z), ("quartic", dd_q, 1.0)),
            "y4_plus": (lambda: api.make_y4_context(lam), lambda z, s: api.y4_plus(z, s),
                        ("y4", lam, 1)),
            "y4_minus": (lambda: api.make_y4_context(lam), lambda z, s: api.y4_minus(z, s),
                         ("y4", lam, -1)),
            "sol_y4": (solver(y4_q, mu), lambda z, s: s(z), ("quartic", y4_q, mu)),
        }

    def setup(self):
        for kappa in self.KAPPAS:
            for fname, (build, call, key) in self._builders(kappa).items():
                try:
                    op = _bound(call, build())
                except ERRORS:
                    # no context at this kappa: every operation retries the build, and fails
                    op = _rebuilding(call, build)
                self.ops[kappa, fname] = (op, key)
                try:
                    op(complex(0.3, 0.2))
                except ERRORS:
                    pass

    def run_pass(self, index):
        rng = self.rng(index)
        keep = 0 <= index < self.check_passes
        ops = raised = 0
        seconds = 0.0
        samples, records = [], []
        for kappa in self.KAPPAS:
            grids = {"dd": _dd_cell(rng, kappa, self.side), "y4": _y4_cell(rng, kappa, self.side)}
            for fname in self.FUNCTIONS:
                op, key = self.ops[kappa, fname]
                points = grids["dd" if fname in self.DD_LATTICE else "y4"]
                out = []
                start = _clock()
                for z in points:
                    try:
                        out.append(op(z))
                    except ERRORS:
                        out.append(None)
                elapsed = _clock() - start
                seconds += elapsed
                failures = out.count(None)
                ops += len(points)
                raised += failures
                if not failures:
                    samples.append((elapsed / len(points), len(points)))
                if keep:
                    records.extend(Op(v is None, [(key, z, v)]) for z, v in zip(points, out))
        return Pass(ops, raised, seconds, samples, records if keep else None)


class FreshLattice(Workload):
    """Build fresh lattices and use each briefly: setup-heavy, cache-missing."""

    name = "fresh-lattice"
    trace_passes = 150
    check_passes = 16
    POINTS = 2  # each evaluation uses a POINTS x POINTS jittered grid

    def __init__(self, sig4, seed, quick):
        super().__init__(sig4, seed)
        self.strata = 2 if quick else 16  # per half of the kappa distribution

    def _kappa(self, rng, j):
        """Stratified draw: half log-uniform in kappa, half log-uniform in 1 - kappa."""
        half, s = divmod(j, self.strata)
        t = (s + rng.random()) / self.strata
        if half == 0:
            return math.exp(math.log(1e-3) + t * (math.log(0.5) - math.log(1e-3)))
        return 1.0 - math.exp(math.log(1e-6) + t * (math.log(0.5) - math.log(1e-6)))

    def _quartic(self, rng):
        """Quartic a (w-r1)(w-r2)(w-r3)(w-r4), a < 0, four roots at least 0.25 apart.

        With a < 0 the real solution from r1 oscillates in [r2, r1] and its
        poles lie at +-i t_p (mod periods) with t_p >= 1/(sqrt|a| (r1 - r4)),
        so points with |Im z| below half that bound stay clear of them.
        Returns monomial coefficients, the start root r1, and the half-width
        of the real period cell and of the pole-free strip.
        """
        while True:
            roots = sorted((rng.uniform(-2.0, 2.0) for _ in range(4)), reverse=True)
            if min(roots[i] - roots[i + 1] for i in range(3)) >= 0.25:
                break
        a = -rng.uniform(0.5, 2.0)
        r1, r2, r3, r4 = roots
        s1 = r1 + r2 + r3 + r4
        s2 = r1 * r2 + r1 * r3 + r1 * r4 + r2 * r3 + r2 * r4 + r3 * r4
        s3 = r1 * r2 * r3 + r1 * r2 * r4 + r1 * r3 * r4 + r2 * r3 * r4
        s4 = r1 * r2 * r3 * r4
        coeffs = (a, -a * s1, a * s2, -a * s3, a * s4)
        # p at the half-periods: e_j = f''(r1)/24 + f'(r1) / (4 (r_j - r1))
        d1 = a * (r1 - r2) * (r1 - r3) * (r1 - r4)
        d2 = 2.0 * a * ((r1 - r2) * (r1 - r3) + (r1 - r2) * (r1 - r4) + (r1 - r3) * (r1 - r4))
        e1, e2, e3 = sorted((d2 / 24.0 + d1 / (4.0 * (r - r1)) for r in (r2, r3, r4)), reverse=True)
        m = (e2 - e3) / (e1 - e3)
        half_real = 0.5 * math.pi / _agm(1.0, math.sqrt(1.0 - m)) / math.sqrt(e1 - e3)
        strip = 0.45 / (math.sqrt(-a) * (r1 - r4))
        return coeffs, r1, half_real, strip

    def run_pass(self, index):
        api = self.sig4
        rng = self.rng(index)
        keep = 0 <= index < self.check_passes
        raised = 0
        seconds = 0.0
        samples, records = [], []
        count = 2 * self.strata
        n = self.POINTS
        for j in range(count):
            kappa = self._kappa(rng, j)
            lam = math.sqrt(1.0 - kappa * kappa)
            dd_points = _dd_cell(rng, kappa, n)
            y4_points = _y4_cell(rng, kappa, n)
            coeffs, w0, half_real, strip = self._quartic(rng)
            q_points = _grid(rng, half_real, strip, n, (0j,), _MARGIN_FRAC * min(half_real, strip))
            start = _clock()
            try:
                ctx = api.make_context(kappa)
                yctx = api.make_y4_context(lam)
                dd_values = [api.dd(z, ctx) for z in dd_points]
                y4_values = [api.y4_plus(z, yctx) for z in y4_points]
                solution, _ = api.solve_quartic_ivp(api.QuarticCoefficients.from_monomial(*coeffs), w0)
                q_values = [solution(z) for z in q_points]
                failed = False
            except ERRORS:
                failed = True
            elapsed = _clock() - start
            seconds += elapsed
            if failed:
                raised += 1
            else:
                samples.append((elapsed, 1))
            if keep:
                items = []
                if not failed:
                    items = ([(("dd", kappa), z, v) for z, v in zip(dd_points, dd_values)]
                             + [(("y4", lam, 1), z, v) for z, v in zip(y4_points, y4_values)]
                             + [(("quartic", coeffs, w0), z, v) for z, v in zip(q_points, q_values)])
                records.append(Op(failed, items))
        return Pass(count, raised, seconds, samples, records if keep else None)

    def setup(self):
        self.run_pass(-1)


class RealAxis(Workload):
    """``sig4 table phi``, ``sig4 table d`` and ``sig4 periods`` through the Click group.

    Tables have 11 rows over one quasi-period, so that a 10 s run holds
    several passes: single CLI calls here vary by up to 2x from one call to
    the next on a shared machine, and only medians over passes are steady.
    """

    name = "real-axis"
    KAPPAS = (1e-3, 0.5, 0.9, 0.99, 0.9999)
    STEPS = 10
    PERIOD_ROWS = ("omega", "omega_prime_mag", "Omega", "Omega_prime_mag", "ratio_dd", "ratio_y4")

    def __init__(self, sig4, seed, quick):
        super().__init__(sig4, seed)
        self.steps = 4 if quick else self.STEPS
        self.kappas = (0.5, 0.9999) if quick else self.KAPPAS
        self.runner = None

    def _invocations(self):
        out = []
        for kappa in self.kappas:
            two_omega = 2.0 * dd_half_periods(kappa)[0]
            for fn in ("phi", "d"):
                args = ["table", fn, "--kappa", repr(kappa), "--from", "0",
                        "--to", repr(two_omega), "--steps", str(self.steps)]
                out.append((fn, kappa, args, self.steps + 1))
            out.append(("periods", kappa, ["periods", "--kappa", repr(kappa)], len(self.PERIOD_ROWS)))
        return out

    def _invoke(self, args):
        result = self.runner.invoke(sys.modules["sig4.cli"].main, args)
        exc = result.exception
        if exc is not None and not isinstance(exc, (SystemExit, *ERRORS)):
            raise exc
        return result

    def setup(self):
        from click.testing import CliRunner  # click is part of this workload's set-up only

        importlib.import_module("sig4.cli")
        self.runner = CliRunner()
        for kappa in self.kappas:
            try:
                self.sig4.make_context(kappa)
            except ERRORS:
                pass
        self._invoke(["periods", "--kappa", "0.5"])
        for fn in ("phi", "d"):
            self._invoke(["table", fn, "--kappa", "0.5", "--from", "0", "--to", "1", "--steps", "1"])

    def run_pass(self, index):
        keep = 0 <= index < self.check_passes
        ops = raised = 0
        seconds = 0.0
        samples, records = [], []
        for kind, kappa, args, rows in self._invocations():
            start = _clock()
            result = self._invoke(args)
            elapsed = _clock() - start
            seconds += elapsed
            ops += rows
            got = self._parse(kind, kappa, result.stdout)
            lost = rows - len(got)
            raised += lost
            if result.exit_code == 0:
                samples.append((elapsed / rows, rows))
            if keep:
                records.extend(Op(False, [item]) for item in got)
                records.extend(Op(True) for _ in range(lost))
        return Pass(ops, raised, seconds, samples, records if keep else None)

    def _parse(self, kind, kappa, stdout):
        """Oracle items for the rows the invocation printed."""
        if kind == "periods":
            items = []
            for line in stdout.splitlines():
                name, _, value = line.partition(" = ")
                if name in self.PERIOD_ROWS:
                    items.append((("periods", kappa), name, _parse_complex(value)))
            return items
        lines = stdout.splitlines()[1:]
        items = []
        for row in csv.reader(lines):
            x, y, re_f, im_f = (float(v) for v in row)
            if y != 0.0:
                raise ValueError(f"table row off the real axis: {row}")
            items.append(((kind, kappa), x, complex(re_f, im_f)))
        return items


def _parse_complex(text: str) -> complex:
    """Parse the CLI's ``a`` / ``a+bi`` / ``a-bi`` output."""
    text = text.strip()
    if not text.endswith("i"):
        return complex(float(text))
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    while cut > 0 and body[cut - 1] in "eE":
        cut = max(body.rfind("+", 0, cut), body.rfind("-", 0, cut))
    return complex(float(body[:cut]), float(body[cut:]))


class VerifyGrid(Workload):
    """``run_suite`` with the CLI defaults (n=200, seed 0, tol=1e-8) over a modulus grid.

    The suite's own seed stays at the CLI default: its samples decide how
    far the kappa=0.9999 walk gets before it aborts, which moves the pass
    time by a factor of three between suite seeds.  The benchmark seed
    only orders the moduli.
    """

    name = "verify-grid"
    min_passes = 3
    KAPPAS = (1e-4, 1e-3, 0.05, 0.5, 0.9, 0.99, 0.9999)
    IDENTITIES = 14
    SAMPLES = 200
    SUITE_SEED = 0

    def __init__(self, sig4, seed, quick):
        super().__init__(sig4, seed)
        kappas = list((1e-4, 0.5) if quick else self.KAPPAS)
        self.rng(0).shuffle(kappas)
        self.kappas = tuple(kappas)
        self.samples = 5 if quick else self.SAMPLES

    def setup(self):
        api = self.sig4
        for kappa in self.kappas:
            try:
                ctx = api.make_context(kappa)
                api.make_y4_context(ctx.modulus.lam)
            except ERRORS:
                pass
        api.run_suite(0.5, 1, self.SUITE_SEED, 1e-8)

    def run_pass(self, index):
        ops = raised = 0
        seconds = 0.0
        samples, records = [], []
        for kappa in self.kappas:
            start = _clock()
            try:
                report = self.sig4.run_suite(kappa, self.samples, self.SUITE_SEED, 1e-8)
            except ERRORS:
                report = None
            elapsed = _clock() - start
            seconds += elapsed
            ops += self.IDENTITIES
            if report is None:
                raised += self.IDENTITIES
                records.extend(Op(True) for _ in range(self.IDENTITIES))
                continue
            samples.append((elapsed / self.IDENTITIES, self.IDENTITIES))
            records.extend(Op(not c.passed) for c in report.checks)
            records.extend(Op(True) for _ in range(self.IDENTITIES - len(report.checks)))
        return Pass(ops, raised, seconds, samples, records if 0 <= index < self.check_passes else None)


WORKLOADS = {w.name: w for w in (CellPoints, FreshLattice, RealAxis, VerifyGrid)}
