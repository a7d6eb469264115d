"""Turn planned operations into calls on the library's public API, a
canonical JSON form of their results, and an independent check of each.

Every timed call looks its function up on the ``qlfun`` package at call
time, so that the tracer's wrappers (see ``tracing.py``) see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import qlfun

from workloads import Op

#: Kummer-pair depth per prime: the check compares l_pq(s) with the exact
#: value at a negative integer -n congruent to s mod p^k, and n <= p^k
#: keeps that exact oracle cheap
KUMMER_DEPTH = {3: 3, 5: 2, 7: 2}


@dataclass
class Task:
    """A prepared operation: ``run`` is timed, the rest is not."""

    op: Op
    run: Callable[[], Any]
    canonical: Callable[[Any], Any]
    check: Callable[[Any], bool]


def fraction_text(x: Fraction) -> str:
    """Exact text of a fraction; hexadecimal, because exact values can run
    past the interpreter's limit on decimal conversion."""
    return f"{x.numerator:x}/{x.denominator:x}"


# ---------------------------------------------------------------------------
# thm5_grid
# ---------------------------------------------------------------------------

def _thm5_task(op: Op) -> Task:
    prm = op.params
    precision = prm["precision"]
    ctx = qlfun.QContext(p=prm["p"], q=prm["q"], precision=precision)
    n, r = prm["n"], prm["r"]

    def canonical(report):
        out = report.to_json_dict()
        out["passes"] = report.passes(precision)
        return out

    def check(report):
        return (report.passes(precision)
                and report.chain_residual_valuation >= precision
                and report.first_failing_step == "assembly")

    return Task(op, lambda: qlfun.thm5_report(n, r, ctx), canonical, check)


# ---------------------------------------------------------------------------
# lpq_sweep
# ---------------------------------------------------------------------------

def lq_oracle(n: int, chi, ctx) -> Any:
    """Exact route to l_pq(-n, chi): E_{n,psi,q} - [p]^n psi(p) E_{n,psi,q^p}
    with psi = chi w^(-n), from the finite twisted q-Euler sums alone."""
    p = ctx.p
    psi = qlfun.twist(chi, -n, p)
    first = qlfun.gen_euler_number(n, psi, q=ctx.q, ctx=ctx)
    if isinstance(first, Fraction):
        first = ctx.embed(first)
    if psi.conductor % p == 0:
        return first  # psi(p) = 0
    psi_at_p = qlfun.chi_eval_exact(psi, p)
    if psi_at_p == 0:
        return first
    shifted = qlfun.QContext(p=p, q=ctx.q**p, precision=ctx.precision)
    second = qlfun.gen_euler_number(n, psi, q=ctx.q**p, ctx=shifted)
    return first - ctx.embed(qlfun.q_int(p, ctx.q) ** n * psi_at_p * second)


def kummer_partner(s, p: int, k: int) -> int:
    """The least n >= 1 with -n congruent to s mod p^k."""
    modulus = p**k
    s = Fraction(s)
    residue = s.numerator * pow(s.denominator, -1, modulus) % modulus
    return (-residue) % modulus or modulus


def _lpq_task(op: Op) -> Task:
    prm = op.params
    p, precision = prm["p"], prm["precision"]
    ctx = qlfun.QContext(p=p, q=prm["q"], precision=precision)
    chi = qlfun.parse_character(prm["chi"], p)
    s = prm["s"]
    s_arg = ctx.embed(s) if isinstance(s, Fraction) else s

    def canonical(res):
        return qlfun.SeriesResult(
            value=res.value.at_absolute_precision(precision),
            last_index=res.last_index,
            tail_valuation_bound=res.tail_valuation_bound,
            converged=res.converged).to_json_dict()

    def check(res):
        if prm["s_kind"] == "neg":
            n = -s
            tolerance = precision - int(qlfun.v_p(math.factorial(n), p)) - 2
            return qlfun.residual_valuation(res.value, lq_oracle(n, chi, ctx)) >= tolerance
        # continuity in s: s + n lies in p^k Z_p, and such a step changes
        # both <a>^(-s) and the binomial series only modulo p^(k+1)
        k = KUMMER_DEPTH[p]
        n = kummer_partner(s, p, k)
        return qlfun.residual_valuation(res.value, lq_oracle(n, chi, ctx)) >= k + 1

    return Task(op, lambda: qlfun.l_pq(s_arg, chi, ctx), canonical, check)


# ---------------------------------------------------------------------------
# exact_identities
# ---------------------------------------------------------------------------

def _exact_task(op: Op) -> Task:
    """Each run returns both sides of an identity (or the library's own
    verdict for the checks that return one); the check compares them."""
    prm = op.params
    kind = op.stratum
    q = prm.get("q")
    check = _sides_equal
    if kind == "poly_paths":
        n, x = prm["n"], prm["x"]
        run = lambda: (qlfun.euler_poly(n, x, q), qlfun.euler_poly_moments(n, x, q))
    elif kind == "distribution":
        n, x, m = prm["n"], prm["x"], prm["m"]
        run = lambda: (qlfun.euler_poly(n, x, q), qlfun.distribution_sum(n, x, m, q))
    elif kind == "power_sum":
        n, m = prm["n"], prm["m"]
        run = lambda: (qlfun.alt_power_sum_brute(n, m, q),
                       qlfun.alt_power_sum_closed(n, m, q))
    elif kind == "remark":
        p = prm["p"]
        run = lambda: qlfun.remark_check(p, q)
        check = _is_true
    elif kind == "binomial":
        r0 = prm["r0"]
        ranges = (range(r0, r0 + prm["r_count"]), range(prm["k_count"]),
                  range(prm["j_count"]))
        run = lambda: qlfun.binom_identities_check(*ranges)
        check = _is_true
    elif kind == "gen_vs_series":
        k = prm["k"]
        chi = qlfun.DirichletCharacter.quadratic(prm["d"])
        run = lambda: (qlfun.gen_euler_number(k, chi, q=q),
                       qlfun.lq_neg_series_path(k, chi, q=q))
    elif kind == "volkenborn":
        m, level, p = prm["m"], prm["level"], prm["p"]
        ctx = qlfun.QContext(p=p, q=q, precision=8)
        run = lambda: (qlfun.volkenborn_approx(m, level, ctx), qlfun.euler_number(m, q))
        # the level-L measure sum pins the moment down mod p^L
        check = lambda sides: qlfun.v_p(sides[0] - sides[1], p) >= level
    elif kind == "classical_limit":
        m_max, p, k_max = prm["m_max"], prm["p"], prm["k_max"]
        run = lambda: qlfun.classical_limit_check(m_max, p, list(range(1, k_max + 1)))
        check = lambda report: report["ok"] is True
    else:
        raise ValueError(f"unknown exact_identities stratum {kind!r}")
    return Task(op, run, _canonical_exact, check)


def _sides_equal(sides) -> bool:
    return sides[0] == sides[1]


def _is_true(verdict) -> bool:
    return verdict is True


def _canonical_exact(result):
    if isinstance(result, tuple):
        return [fraction_text(Fraction(x)) for x in result]
    return result


PREPARE = {"thm5_grid": _thm5_task, "lpq_sweep": _lpq_task,
           "exact_identities": _exact_task}


def prepare(workload: str, op: Op) -> Task:
    return PREPARE[workload](op)
