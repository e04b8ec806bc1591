"""Command-line front end.

Subcommands: ``eval`` (single function value), ``periods`` (half-period
table), ``invariants`` (invariant pairs and midpoint values), ``table``
(CSV grid of function values), ``verify`` (identity suite, JSON report).

Every value but wp's comes from the closed forms on the one context of
a modulus pair: ``d`` is the real part of ``dd`` (the Weierstrass product
form), ``phi`` is read off p - e1 on the real axis and y4plus and y4minus
off p(2iz); ``periods`` and ``invariants`` give the y4 values by the
quarter turn: Omega = |omega'|/2, |Omega'| = omega/2, (G2, G3) =
(16 g2, -64 g3) and E_j = -4 e_(4-j).  Each function takes only its own
options (``_OPTIONS``).  ``--kappa`` is the dd modulus everywhere, so a
``worst_z`` of a y4 row reproduces through ``eval``; ``--lambda`` gives
y4plus and y4minus a bare lam instead, and the two exclude each other.

Exit codes: 0 success, 1 numerical or verification failure, 2 usage
error; a literal or grid point that overflows a float, an option the
function does not take and a tolerance outside (0, inf) are usage errors.
Every DomainError a command raises leaves through one error exit, the
``invoke`` of the group class ``_Sig4Group``, which prints
``error: <message>`` to stderr and exits 1; at a pole ``eval`` and
``table`` print ``pole`` instead.  click reads the environment variable
SIG4_TOL as ``verify --tol``, which wins over it; an empty SIG4_TOL means
the default 1e-8, and ``verify --help`` names the variable.  ``verify``
writes its report to ``--out``, where ``-`` (the default) means stdout, and
prints it even when some identities failed or raised; it exits 1 then.
``table`` and ``periods --csv`` share one CSV form: a header row, then
fields joined by commas, unquoted, since no field holds a comma.  Only
``verify`` loads the identity suite (``sig4.verify``): ``eval``,
``table``, ``periods`` and ``invariants`` never execute it.
"""

from __future__ import annotations

import cmath
import math
import re
import sys

import click

from .dd import d_real, dd, make_context, phi
from .numerics import DomainError, PoleError
from .weierstrass import Invariants, wp
from .y4 import make_y4_context, y4_minus, y4_periods, y4_plus

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# 'a' or 'a+bi' (groups re, im), or 'bi' (group imag); each part keeps its sign
_COMPLEX_RE = re.compile(
    rf"^\s*(?:(?P<re>[+-]?\s*{_NUM})\s*(?:(?P<im>[+-]\s*{_NUM})\s*i)?"
    rf"|(?P<imag>[+-]?\s*{_NUM})\s*i)\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi', 'a-bi' or 'bi', spaces allowed; both parts finite."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise click.BadParameter(f"cannot parse complex literal {text!r}; expected 'a+bi'")
    part = {name: float(v.replace(" ", "")) for name, v in m.groupdict().items() if v is not None}
    z = complex(part.get("re", 0.0), part.get("im", part.get("imag", 0.0)))
    if not cmath.isfinite(z):
        raise click.BadParameter(f"complex literal {text!r} overflows a float")
    return z


def fmt_real(x: float) -> str:
    return repr(float(x))


def fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 or math.isnan(z.imag) else "-"
    return f"{fmt_real(z.real)}{sign}{fmt_real(abs(z.imag))}i"


_UNIT_OPEN = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)

#: function -> ("and" to need all or "or" exactly one of its options, the options)
_OPTIONS = {"dd": ("and", "--kappa"), "y4plus": ("or", "--kappa", "--lambda"),
            "y4minus": ("or", "--kappa", "--lambda"), "wp": ("and", "--g2", "--g3"),
            "phi": ("and", "--kappa"), "d": ("and", "--kappa")}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise click.UsageError(message)


def _check_options(function: str, kappa, lam, g2, g3) -> None:
    """Usage error unless the options given are those ``function`` takes in ``_OPTIONS``."""
    combine, *takes = _OPTIONS[function]
    given = [k for k, v in zip(("--kappa", "--lambda", "--g2", "--g3"), (kappa, lam, g2, g3))
             if v is not None]
    extra = [name for name in given if name not in takes]
    _require(not extra, f"{function} does not take {', '.join(extra)}")
    needed = len(takes) if combine == "and" else 1
    _require(len(given) >= needed, f"{function} requires {f' {combine} '.join(takes)}")
    _require(len(given) <= needed, f"{function} takes {' or '.join(takes)}, not both")


def _evaluate(function: str, z: complex, kappa, lam, g2, g3):
    """One evaluation, after ``_check_options``; returns a float, complex, or the string 'pole'."""
    try:
        if function == "wp":
            return wp(z, Invariants(g2, g3))
        ctx = make_context(kappa) if lam is None else make_y4_context(lam)
        if function == "dd":
            return dd(z, ctx)
        if function in ("y4plus", "y4minus"):
            return y4_plus(z, ctx) if function == "y4plus" else y4_minus(z, ctx)
        _require(z.imag == 0.0, f"{function} takes a real argument; got imaginary part")
        if function == "phi":
            return phi(z.real, ctx)
        return d_real(z.real, ctx)
    except PoleError:
        return "pole"


class _Sig4Group(click.Group):
    """The one error exit: a DomainError from any command prints 'error: ...'
    and exits 1.  Only DomainError: click's Exit and Abort, which --help and
    Ctrl-C raise, are RuntimeErrors and must pass."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Sig4Group)
def main() -> None:
    """Signature-four elliptic function toolkit."""


@main.command("eval")
@click.argument("function", type=click.Choice(list(_OPTIONS)))
@click.option("--z", "z_text", required=True, help="complex argument, 'a+bi'")
@click.option("--kappa", type=_UNIT_OPEN, default=None,
              help="dd modulus in (0,1); y4plus/y4minus use its complement as lam")
@click.option("--lambda", "lam", type=_UNIT_OPEN, default=None,
              help="bare quartic parameter lam in (0,1) for y4plus/y4minus, instead of --kappa")
@click.option("--g2", type=float, default=None, help="invariant g2 (wp only)")
@click.option("--g3", type=float, default=None, help="invariant g3 (wp only)")
def cmd_eval(function, z_text, kappa, lam, g2, g3):
    """Evaluate FUNCTION at one point and print the value."""
    z = parse_complex(z_text)
    _check_options(function, kappa, lam, g2, g3)
    value = _evaluate(function, z, kappa, lam, g2, g3)
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
    ctx = make_context(kappa)
    pp, ypp = ctx.lattice.periods, y4_periods(ctx)
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
    ctx = make_context(kappa)
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
@click.argument("function", type=click.Choice(list(_OPTIONS)))
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
    _check_options(function, kappa, lam, g2, g3)
    xs = [start + (stop - start) * k / steps for k in range(steps + 1)]
    _require(all(map(math.isfinite, xs)) and math.isfinite(imag),
             "--from, --to and --imag must give finite grid points")
    values = [_evaluate(function, complex(x, imag), kappa, lam, g2, g3) for x in xs]
    rows = ["re(z),im(z),re(f),im(f)"]
    for x, value in zip(xs, values):
        if isinstance(value, str):
            fields = ("pole", "pole")
        else:
            value = complex(value)
            fields = (fmt_real(value.real), fmt_real(value.imag))
        rows.append(",".join((fmt_real(x), fmt_real(imag), *fields)))
    click.echo("\n".join(rows))


@main.command()
@click.option("--kappa", type=_UNIT_OPEN, required=True)
@click.option("--n", type=click.IntRange(min=1), default=200, help="samples per identity")
@click.option("--seed", type=int, default=0, help="PRNG seed (default 0)")
@click.option("--tol", type=float, envvar="SIG4_TOL", show_envvar=True, default=1e-8,
              help="pass tolerance (default 1e-8)")
@click.option("--out", type=click.Path(dir_okay=False, writable=True, allow_dash=True),
              default="-", help="JSON report file; '-' (the default) is stdout")
def verify(kappa, n, seed, tol, out):
    """Run the identity suite; exit 0 only if every check passes."""
    import json

    from .verify import run_suite

    _require(0.0 < tol < math.inf, f"tolerance must be positive and finite, got {tol!r}")
    report = run_suite(kappa, n, seed, tol)
    payload = json.dumps(report.to_json_dict(), indent=2, allow_nan=False)
    with click.open_file(out, "w", encoding="utf-8") as handle:
        click.echo(payload, file=handle)
    sys.exit(0 if report.all_passed else 1)


if __name__ == "__main__":
    main()
