"""Command-line entry point.

One binary with a subcommand tree mirroring the library modules
(``qeuler``, ``lfun``, ``verify``).  Every invocation emits exactly one
output envelope: human-readable lines by default, or a single JSON object
with ``--json``.  Exit codes: 0 ok, 1 verification assertion failed,
2 usage, domain, or convergence error.

The envelope is built in one place, the leaf command class ``_Command``: it
gives every leaf its ``--json`` flag, takes the envelope's params from the
leaf's declared options by name, and emits the one envelope of what the leaf's
callback returns, ``(result, status)``, or of the error it raises.
``_EnvelopeGroup`` emits the error envelope of a usage error click raises
before a leaf runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Union

import click

from . import verify as verify_mod
from .characters import CharacterError, parse_character
from .lfun import (H_pq, K_full, K_partial, PartialZetaParams, T_full, T_partial, l_pq,
                   series_cache)
from .numerics import (
    INF,
    PadicExponent,
    PadicNumber,
    QContext,
    SeriesDivergenceError,
    SeriesResult,
    require_odd_prime,
)
from .qeuler import gen_euler_number, volkenborn_approx
from . import qeuler as qeuler_mod

DEFAULT_PRECISION = 8


def _default_precision() -> int:
    env = os.environ.get("QEULER_PREC")
    if env:
        try:
            return int(env)
        except ValueError:
            raise click.UsageError(f"QEULER_PREC must be an integer, got {env!r}")
    return DEFAULT_PRECISION


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"cannot parse rational {text!r}: {exc}")


def _resolve_q(q: Optional[str], p: Optional[int]) -> Fraction:
    if q is not None:
        return parse_fraction(q)
    if p is not None:
        return Fraction(1 + p)
    raise click.UsageError("--q is required when --p is not given")


def _parse_exponent(_ctx, _param, text: str) -> Union[int, Fraction]:
    """-s: an integer, kept an int, or a fraction A/B (see :func:`_exponent`)."""
    try:
        s = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"{text!r} is not a valid integer or fraction A/B.")
    return int(s) if s.denominator == 1 else s


def _exponent(s: Union[int, Fraction], ctx: QContext) -> PadicExponent:
    """An integer s as it is; a fraction as the p-adic integer ctx.embed(s)."""
    if isinstance(s, int):
        return s
    if s.denominator % ctx.p == 0:
        raise ValueError(f"-s {fmt_fraction(s)} is not a p-adic integer: "
                         f"{ctx.p} divides its denominator")
    return ctx.embed(s)


def _context(p: int, q: Optional[str], prec: Optional[int]) -> QContext:
    return QContext(p=p, q=_resolve_q(q, p),
                    precision=prec if prec is not None else _default_precision())


def fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def at_target(result, ctx: QContext):
    """Report p-adic output mod p**precision; exact output passes through."""
    if isinstance(result, PadicNumber):
        return result.at_absolute_precision(ctx.precision)
    if isinstance(result, SeriesResult):
        return dataclasses.replace(result, value=at_target(result.value, ctx))
    return result


def _encode(result):
    if isinstance(result, Fraction):
        return fmt_fraction(result)
    if isinstance(result, (PadicNumber, SeriesResult)):
        return result.to_json_dict()
    if isinstance(result, dict):
        return {k: _encode(v) for k, v in result.items()}
    if isinstance(result, (list, tuple)):
        return [_encode(v) for v in result]
    if result == INF:
        return "inf"
    return result


def emit(command: str, params: dict, result, status: str,
         started: float, as_json: bool) -> None:
    """Emit the single output envelope for this invocation."""
    envelope = {
        "command": command,
        "params": _encode(params),
        "result": _encode(result),
        "status": status,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    if as_json:
        click.echo(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    else:
        click.echo(f"command: {command}")
        for key, value in envelope["params"].items():
            click.echo(f"  {key}: {value}")
        click.echo(f"status: {status}")
        click.echo(f"result: {json.dumps(envelope['result'], sort_keys=True, default=str)}")


EXIT_CODES = {"ok": 0, "assertion_failed": 1, "error": 2}


def _twisted_euler(n: int, chi: str, p: Optional[int], q: Optional[str],
                   prec: Optional[int]):
    """Body of ``qeuler gen`` and ``lfun lq``: the n-th twisted q-Euler
    number, exact for {0,+-1}-valued characters and p-adic otherwise.  Only
    the p-adic case builds a context, whose q and --prec checks an exact
    character with no --p must not meet."""
    if p is not None:
        require_odd_prime(p)
    character = parse_character(chi, p)
    if character.is_plus_minus_one_valued:
        return gen_euler_number(n, character, q=_resolve_q(q, p)), "ok"
    ctx = _context(p, q, prec)  # not {0,+-1}-valued: a teich:T atom, which needs --p
    return at_target(gen_euler_number(n, character, ctx=ctx), ctx), "ok"


def _command_name(ctx: click.Context) -> str:
    """The invoked command's path below the root, whatever the root is called."""
    return ctx.command_path[len(ctx.find_root().command_path):].strip()


class _Command(click.Command):
    """A leaf command that keeps the envelope contract: it appends the --json
    flag to the leaf's options, and its callback returns (result, status).
    The envelope's params are the declared options by name, in declared order,
    --json left out; an error the callback raises gets the error envelope."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(["--json", "as_json"], is_flag=True,
                                        help="emit a single JSON envelope"))

    def parse_args(self, ctx, args):
        # the option parser raises some errors (an option missing its value)
        # without a context: name the command being parsed for the envelope
        ctx.meta["qlfun.parsing"] = ctx
        return super().parse_args(ctx, args)

    def invoke(self, ctx):
        as_json = ctx.params.pop("as_json")
        command = _command_name(ctx)
        params = {param.name: ctx.params[param.name]
                  for param in self.params if param.name in ctx.params}
        started = time.monotonic()
        try:
            result, status = super().invoke(ctx)
        except (ValueError, ZeroDivisionError, CharacterError, click.ClickException) as exc:
            # a usage error raised inside the body gets its envelope too
            result, status = {"message": str(exc)}, "error"
            if isinstance(exc, SeriesDivergenceError):
                result["partial"] = exc.partial.to_json_dict()
        emit(command, params, result, status, started, as_json)
        sys.exit(EXIT_CODES[status])


class _EnvelopeGroup(click.Group):
    """A group whose commands keep the envelope contract before their body
    runs: with --json among the arguments, an error click raises while
    parsing them (a bad option value, a missing required option, an unknown
    option or command, the root group's own options included) is printed as
    the error envelope, exit 2."""

    command_class = _Command
    group_class = type  # the subgroups are _EnvelopeGroups too

    def parse_args(self, ctx, args):
        # the root group parses its own options before any group invokes
        return self._enveloped(ctx, "--json" in args, super().parse_args, ctx, args)

    def invoke(self, ctx):
        return self._enveloped(ctx, "--json" in ctx.args, super().invoke, ctx)

    @staticmethod
    def _enveloped(ctx, as_json, fn, *args):
        started = time.monotonic()
        try:
            return fn(*args)
        except click.UsageError as exc:
            if not as_json:
                raise
            command = _command_name(exc.ctx or ctx.meta.get("qlfun.parsing", ctx))
            emit(command, {}, {"message": exc.format_message()}, "error", started, True)
            sys.exit(2)


@click.group(cls=_EnvelopeGroup)
def main() -> None:
    """Exact q-Euler numbers, q-l-values, and p-adic q-l-functions."""


# ---------------------------------------------------------------------------
# qeuler
# ---------------------------------------------------------------------------

@main.group()
def qeuler() -> None:
    """q-Euler numbers and polynomials (exact rational arithmetic)."""


@qeuler.command("number")
@click.option("-m", type=int, required=True)
@click.option("--q", "q", type=str, required=True)
def qeuler_number(m: int, q: str):
    return qeuler_mod.euler_number(m, parse_fraction(q)), "ok"


@qeuler.command("poly")
@click.option("-n", type=int, required=True)
@click.option("-x", type=int, required=True)
@click.option("--q", "q", type=str, required=True)
def qeuler_poly(n: int, x: int, q: str):
    return qeuler_mod.euler_poly(n, x, parse_fraction(q)), "ok"


@qeuler.command("gen")
@click.option("-n", type=int, required=True)
@click.option("--chi", type=str, required=True)
@click.option("--p", type=int, default=None)
@click.option("--q", "q", type=str, default=None)
@click.option("--prec", type=int, default=None)
def qeuler_gen(n: int, chi: str, p: Optional[int], q: Optional[str], prec: Optional[int]):
    return _twisted_euler(n, chi, p, q, prec)


@qeuler.command("volkenborn")
@click.option("-m", type=int, required=True)
@click.option("--level", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--q", "q", type=str, default=None)
def qeuler_volkenborn(m: int, level: int, p: int, q: Optional[str]):
    return volkenborn_approx(m, level, _context(p, q, None)), "ok"


# ---------------------------------------------------------------------------
# lfun
# ---------------------------------------------------------------------------

@main.group()
def lfun() -> None:
    """q-l-values at negative integers and their p-adic interpolations."""


@lfun.command("lq")
@click.option("-k", type=int, required=True)
@click.option("--chi", type=str, default="trivial")
@click.option("--q", "q", type=str, default=None)
@click.option("--p", type=int, default=None)
@click.option("--prec", type=int, default=None)
def lfun_lq(k: int, chi: str, q: Optional[str], p: Optional[int], prec: Optional[int]):
    """Dirichlet-type q-l-value at -k: the k-th twisted q-Euler number."""
    return _twisted_euler(k, chi, p, q, prec)


@lfun.command("lpq")
@click.option("-s", callback=_parse_exponent, required=True)
@click.option("--chi", type=str, default="trivial")
@click.option("--p", type=int, required=True)
@click.option("--q", "q", type=str, default=None)
@click.option("--prec", type=int, default=None)
@click.option("--modulus", "-F", "modulus", type=int, default=None,
              help="odd positive multiple of p (default lcm(p, conductor))")
def lfun_lpq(s: Union[int, Fraction], chi: str, p: int, q: Optional[str], prec: Optional[int],
             modulus: Optional[int]):
    ctx = _context(p, q, prec)
    character = parse_character(chi, p)
    return at_target(l_pq(_exponent(s, ctx), character, ctx, F=modulus), ctx), "ok"


@lfun.command("hpq")
@click.option("-s", callback=_parse_exponent, required=True)
@click.option("-a", type=int, required=True)
@click.option("-F", "--modulus", "F", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--q", "q", type=str, default=None)
@click.option("--prec", type=int, default=None)
def lfun_hpq(s: Union[int, Fraction], a: int, F: int, p: int, q: Optional[str],
             prec: Optional[int]):
    ctx = _context(p, q, prec)
    return at_target(H_pq(_exponent(s, ctx), PartialZetaParams(a, F), ctx), ctx), "ok"


@lfun.command("tk")
@click.option("-n", type=int, required=True)
@click.option("-s", callback=_parse_exponent, required=True)
@click.option("-a", type=int, default=None)
@click.option("-F", "--modulus", "F", type=int, default=None)
@click.option("--chi", type=str, default=None)
@click.option("--p", type=int, required=True)
@click.option("--q", "q", type=str, default=None)
@click.option("--prec", type=int, default=None)
def lfun_tk(n: int, s: Union[int, Fraction], a: Optional[int], F: Optional[int],
            chi: Optional[str], p: int, q: Optional[str], prec: Optional[int]):
    """Boundary (T) and correction (K) series, partial (-a/-F) or full (--chi)."""
    if a is not None and chi is not None:
        raise click.UsageError("-a (partial) and --chi (full) cannot be combined")
    if a is None and F is not None:
        raise click.UsageError("-F needs -a: the full aggregate runs at F = p")
    ctx = _context(p, q, prec)
    s_arg = _exponent(s, ctx)
    with series_cache():  # T reads the K (and H) values it shares with K
        if a is not None:
            prm = PartialZetaParams(a, F if F is not None else p)
            return {"T": at_target(T_partial(n, s_arg, prm, ctx), ctx),
                    "K": at_target(K_partial(n, s_arg, prm, ctx), ctx)}, "ok"
        character = parse_character(chi if chi is not None else "trivial", p)
        return {"T": at_target(T_full(n, s_arg, character, ctx), ctx),
                "K": at_target(K_full(n, s_arg, character, ctx), ctx)}, "ok"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@main.group()
def verify() -> None:
    """Verification suites; exit 0 only if all asserted invariants hold."""


@verify.command("thm5")
@click.option("--p", type=int, required=True)
@click.option("--q", "q", type=str, default=None)
@click.option("-n", type=str, required=True, help="value or comma list")
@click.option("-r", type=str, required=True, help="value or comma list")
@click.option("--prec", type=int, default=None)
def verify_thm5(p: int, q: Optional[str], n: str, r: str, prec: Optional[int]):
    """Power-sum expansion harness over the n x r grid, in one series cache."""
    ctx = _context(p, q, prec)
    ns, rs = _int_list(n, "-n"), _int_list(r, "-r")
    reports = [dict(rep.to_json_dict(), n=point_n, r=point_r, p=p, passes=rep.passes())
               for (point_n, point_r), rep in zip(itertools.product(ns, rs),
                                                  verify_mod.thm5_grid(ns, rs, ctx))]
    ok = all(rep["passes"] for rep in reports)
    return reports[0] if len(reports) == 1 else reports, "ok" if ok else "assertion_failed"


def _int_list(text: str, option: str) -> list:
    """The integers of a comma list; an empty list is a usage error, since a
    check over no values verifies nothing."""
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise click.UsageError(f"{option} needs at least one integer, got {text!r}")
    return values


@verify.command("congruences")
@click.option("--p", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--s", type=str, required=True, help="comma list of integers")
@click.option("--q", "q", type=str, default=None)
@click.option("--prec", type=int, default=None)
def verify_congruences(p: int, t: int, s: str, q: Optional[str], prec: Optional[int]):
    ctx = _context(p, q, prec)
    return verify_mod.congruence_scan_eq21(t, _int_list(s, "--s"), ctx), "ok"


@verify.command("remark")
@click.option("--p", type=int, required=True)
@click.option("--q", "q", type=str, required=True)
def verify_remark(p: int, q: str):
    require_odd_prime(p)
    ok = verify_mod.remark_check(p, parse_fraction(q))
    return {"holds": ok}, "ok" if ok else "assertion_failed"


@verify.command("identities")
def verify_identities():
    """Exact identity suite: dual-path polynomial values, the
    multiplication-by-m relation, power-sum closed forms (with the
    misprinted-variant regression pinned), the inverse power-sum identity,
    and the binomial coefficient identities."""
    checks = verify_mod.identity_suite()
    return checks, "ok" if all(checks.values()) else "assertion_failed"


@verify.command("limits")
@click.option("--p", type=str, default="3,5")
@click.option("--m-max", type=int, default=4)
@click.option("--k-max", type=int, default=5)
def verify_limits(p: str, m_max: int, k_max: int):
    """Classical-limit checks against the Bernoulli-number oracle."""
    if m_max < 0:
        raise click.UsageError(f"--m-max must be >= 0, got {m_max}")
    if k_max < 1:
        raise click.UsageError(f"--k-max must be >= 1, got {k_max}")
    reports = [verify_mod.classical_limit_check(m_max, pp, list(range(1, k_max + 1)))
               for pp in _int_list(p, "--p")]
    return reports, "ok" if all(rep["ok"] for rep in reports) else "assertion_failed"


if __name__ == "__main__":
    main()
