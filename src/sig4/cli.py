"""Command-line front end.

Subcommands: ``eval`` (single function value), ``periods`` (half-period
table), ``invariants`` (invariant pairs and midpoint values), ``table``
(CSV grid of function values), ``verify`` (identity suite, JSON report).

Every value comes from the closed forms on the one dd lattice of a
modulus: ``d`` is the real part of ``dd`` (the Weierstrass product form),
``phi`` is read off p - e1 on the real axis and y4plus and y4minus off
p(2iz); ``periods`` and ``invariants`` give the y4 values by the quarter
turn: Omega = |omega'|/2, |Omega'| = omega/2, (G2, G3) = (16 g2, -64 g3)
and E_j = -4 e_(4-j).  ``--kappa`` is the dd modulus everywhere, so a
``worst_z`` of a y4 row reproduces through ``eval``; ``--lambda`` gives
y4plus and y4minus a bare lam.

Exit codes: 0 success, 1 numerical or verification failure, 2 usage
error; a literal or grid point that overflows a float is a usage error.
The environment variable SIG4_TOL overrides the default verification
tolerance.  ``verify`` prints its report even when some identities failed
or raised; it exits 1 then.  Only ``verify`` loads the identity suite
(``sig4.verify``): ``eval``, ``table``, ``periods`` and ``invariants``
never execute it.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
import sys

import click

from .dd import dd, make_context, phi
from .numerics import DomainError, PoleError
from .weierstrass import Invariants, wp
from .y4 import make_y4_context, y4_minus, y4_plus

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^\s*(?P<re>[+-]?\s*{_NUM})\s*(?:(?P<sign>[+-])\s*(?P<im>{_NUM})\s*i)?\s*$"
)
_IMAG_RE = re.compile(rf"^\s*(?P<sign>[+-]?)\s*(?P<im>{_NUM})\s*i\s*$")


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi', 'a-bi' or 'bi', spaces allowed; both parts finite."""
    m = _COMPLEX_RE.match(text)
    if m:
        re_part = float(m.group("re").replace(" ", ""))
        im_part = 0.0
        if m.group("im") is not None:
            im_part = float(m.group("im"))
            if m.group("sign") == "-":
                im_part = -im_part
        z = complex(re_part, im_part)
    else:
        m = _IMAG_RE.match(text)
        if not m:
            raise click.BadParameter(f"cannot parse complex literal {text!r}; expected 'a+bi'")
        im_part = float(m.group("im"))
        if m.group("sign") == "-":
            im_part = -im_part
        z = complex(0.0, im_part)
    if not cmath.isfinite(z):
        raise click.BadParameter(f"complex literal {text!r} overflows a float")
    return z


def fmt_real(x: float) -> str:
    return repr(float(x))


def fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 or math.isnan(z.imag) else "-"
    return f"{fmt_real(z.real)}{sign}{fmt_real(abs(z.imag))}i"


_UNIT_OPEN = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)

_EVAL_FUNCTIONS = ("dd", "y4plus", "y4minus", "wp", "phi", "d")


def _default_tol() -> float:
    raw = os.environ.get("SIG4_TOL")
    if raw is None:
        return 1e-8
    try:
        return float(raw)
    except ValueError:
        raise click.UsageError(f"SIG4_TOL is not a number: {raw!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise click.UsageError(message)


def _require_real_line(function: str, imag: float, kappa) -> None:
    """phi and d act on the real line and need a modulus."""
    _require(kappa is not None, f"{function} requires --kappa")
    _require(imag == 0.0, f"{function} takes a real argument; got imaginary part")


def _evaluate(function: str, z: complex, kappa, lam, g2, g3):
    """Dispatch one evaluation; returns a float, complex, or the string 'pole'."""
    try:
        if function == "dd":
            _require(kappa is not None, "dd requires --kappa")
            return dd(z, make_context(kappa))
        if function in ("y4plus", "y4minus"):
            _require(lam is not None or kappa is not None, f"{function} requires --kappa or --lambda")
            ctx = make_y4_context(lam if lam is not None else make_context(kappa).modulus)
            return y4_plus(z, ctx) if function == "y4plus" else y4_minus(z, ctx)
        if function == "wp":
            _require(g2 is not None and g3 is not None, "wp requires --g2 and --g3")
            return wp(z, Invariants(g2, g3))
        _require_real_line(function, z.imag, kappa)
        if function == "phi":
            return phi(z.real, make_context(kappa).modulus)
        return dd(z.real, make_context(kappa)).real
    except PoleError:
        return "pole"


@click.group()
def main() -> None:
    """Signature-four elliptic function toolkit."""


@main.command("eval")
@click.argument("function", type=click.Choice(_EVAL_FUNCTIONS))
@click.option("--z", "z_text", required=True, help="complex argument, 'a+bi'")
@click.option("--kappa", type=_UNIT_OPEN, default=None,
              help="dd modulus in (0,1); y4plus/y4minus use its complement as lam")
@click.option("--lambda", "lam", type=_UNIT_OPEN, default=None,
              help="bare quartic parameter lam in (0,1) for y4plus/y4minus")
@click.option("--g2", type=float, default=None, help="invariant g2 (wp only)")
@click.option("--g3", type=float, default=None, help="invariant g3 (wp only)")
def cmd_eval(function, z_text, kappa, lam, g2, g3):
    """Evaluate FUNCTION at one point and print the value."""
    z = parse_complex(z_text)
    try:
        value = _evaluate(function, z, kappa, lam, g2, g3)
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if isinstance(value, str):
        click.echo(value)
    elif isinstance(value, complex):
        click.echo(fmt_complex(value))
    else:
        click.echo(fmt_real(value))


@main.command()
@click.option("--kappa", type=_UNIT_OPEN, required=True)
@click.option("--csv", "as_csv", is_flag=True, help="emit one CSV row with header")
def periods(kappa, as_csv):
    """Half-periods of dd and of y4 at a modulus, plus both period ratios."""
    try:
        ctx = make_context(kappa)
        yctx = make_y4_context(ctx.modulus)
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    pp, ypp = ctx.lattice.periods, yctx.periods
    rows = [
        ("omega", fmt_real(pp.half_real)),
        ("omega_prime_mag", fmt_real(pp.half_imag_mag)),
        ("Omega", fmt_real(ypp.half_real)),
        ("Omega_prime_mag", fmt_real(ypp.half_imag_mag)),
        ("ratio_dd", fmt_complex(complex(0.0, pp.half_imag_mag / pp.half_real))),
        ("ratio_y4", fmt_complex(complex(0.0, ypp.half_imag_mag / ypp.half_real))),
    ]
    if as_csv:
        click.echo(",".join(name for name, _ in rows))
        click.echo(",".join(value for _, value in rows))
    else:
        for name, value in rows:
            click.echo(f"{name} = {value}")


@main.command()
@click.option("--kappa", type=_UNIT_OPEN, required=True)
def invariants(kappa):
    """Invariants and midpoint values of the dd and, by the quarter turn, the y4 p-function."""
    try:
        ctx = make_context(kappa)
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    inv, mid = ctx.lattice.invariants, ctx.lattice.roots
    yinv = Invariants(16.0 * inv.g2, -64.0 * inv.g3)
    click.echo(f"g2 = {fmt_real(inv.g2)}")
    click.echo(f"g3 = {fmt_real(inv.g3)}")
    click.echo(f"discriminant = {fmt_real(inv.discriminant)}")
    click.echo(f"midpoints = {fmt_real(mid.e1)}, {fmt_real(mid.e2)}, {fmt_real(mid.e3)}")
    click.echo(f"G2 = {fmt_real(yinv.g2)}")
    click.echo(f"G3 = {fmt_real(yinv.g3)}")
    click.echo(f"Discriminant = {fmt_real(yinv.discriminant)}")
    click.echo("Midpoints = " + ", ".join(fmt_real(-4.0 * e) for e in reversed(mid)))


@main.command()
@click.argument("function", type=click.Choice(_EVAL_FUNCTIONS))
@click.option("--kappa", type=_UNIT_OPEN, default=None)
@click.option("--lambda", "lam", type=_UNIT_OPEN, default=None)
@click.option("--g2", type=float, default=None)
@click.option("--g3", type=float, default=None)
@click.option("--from", "start", type=float, required=True, help="grid start (real part)")
@click.option("--to", "stop", type=float, required=True, help="grid end (real part)")
@click.option("--steps", type=click.IntRange(min=1), required=True,
              help="number of grid intervals; steps+1 rows")
@click.option("--imag", type=float, default=0.0, help="fixed imaginary part of z")
def table(function, kappa, lam, g2, g3, start, stop, steps, imag):
    """CSV table of FUNCTION over a grid: re(z), im(z), re(f), im(f)."""
    import csv as _csv

    xs = [start + (stop - start) * k / steps for k in range(steps + 1)]
    _require(all(map(math.isfinite, xs)) and math.isfinite(imag),
             "--from, --to and --imag must give finite grid points")
    try:
        values = [_evaluate(function, complex(x, imag), kappa, lam, g2, g3) for x in xs]
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    writer = _csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["re(z)", "im(z)", "re(f)", "im(f)"])
    for x, value in zip(xs, values):
        if isinstance(value, str):
            writer.writerow([fmt_real(x), fmt_real(imag), "pole", "pole"])
        else:
            value = complex(value)
            writer.writerow(
                [fmt_real(x), fmt_real(imag), fmt_real(value.real), fmt_real(value.imag)]
            )


@main.command()
@click.option("--kappa", type=_UNIT_OPEN, required=True)
@click.option("--n", type=click.IntRange(min=1), default=200, help="samples per identity")
@click.option("--seed", type=int, default=0, help="PRNG seed (default 0)")
@click.option("--tol", type=float, default=None,
              help="pass tolerance (default SIG4_TOL or 1e-8)")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="write the JSON report to a file instead of stdout")
def verify(kappa, n, seed, tol, out):
    """Run the identity suite; exit 0 only if every check passes."""
    from .verify import run_suite

    if tol is None:
        tol = _default_tol()
    if tol <= 0.0:
        raise click.UsageError("tolerance must be positive")
    try:
        report = run_suite(kappa, n, seed, tol)
    except (DomainError, RuntimeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    payload = json.dumps(report.to_json_dict(), indent=2, allow_nan=False)
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        click.echo(payload)
    sys.exit(0 if report.all_passed else 1)


if __name__ == "__main__":
    main()
