"""q-deformed Euler numbers and polynomials, exactly.

All values here are closed finite sums evaluated in exact rational
arithmetic; they only meet p-adic arithmetic at the reduction boundary.
One weighted closed form, ``_closed_form``, gives every q-Euler number and
polynomial value, the character-twisted (generalized) numbers, one per
character value (``characters.chi_sum``), and the multiplication-by-m
relation.  The module also provides the alternating power-sum identities and
the finite-level analogue of the q-measure integral that these numbers arise
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

from .characters import DirichletCharacter, chi_sum
from .numerics import IntOrRational, PadicNumber, QContext, exact_sum_pairs, q_int


class QEulerDomainError(ValueError):
    """q outside the domain of a closed form (q = 1, or a vanishing 1 + q^k)."""


@dataclass(frozen=True)
class FractionalArg:
    """Polynomial argument a/F evaluated in base q**F, encoded exactly.

    Since (q**F)**(a/F) = q**a for rational q, only the integer pair is
    ever needed; a may exceed F (shifted arguments (a+x)/F are used by the
    multiplication-by-F identity).
    """

    a: int
    F: int

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError("FractionalArg requires a >= 0")
        if self.F < 1 or self.F % 2 == 0:
            raise ValueError("FractionalArg requires odd F >= 1")


def _check_base(q: Fraction, operation: str) -> None:
    if q == 1:
        raise QEulerDomainError(f"{operation}: q = 1, use classical limit path")


def _closed_form_row(n: int, Q: Fraction, operation: str) -> Tuple[list, int, int]:
    """The part of :func:`_closed_form_pair` that depends on n and Q = qa/qb alone:
    for k <= n, d_k = qb^k + qa^k, C(n,k) qb^k and prod_{i<k} d_i, then the
    scales 2 qb^n and (qb - qa)^n prod_k d_k; errors name the public ``operation``."""
    _check_base(Q, operation)
    qa, qb = Q.numerator, Q.denominator
    row, den, qa_k, qb_k = [], 1, 1, 1
    for k in range(n + 1):
        d = qb_k + qa_k
        if d == 0:
            raise QEulerDomainError(f"{operation}: pole at 1 + q^{k} = 0")
        row.append((d, math.comb(n, k) * qb_k, den))
        den *= d
        qa_k, qb_k = qa_k * qa, qb_k * qb
    return row, 2 * qb**n, (qb - qa) ** n * den


def _closed_form_pair(row: Tuple[list, int, int], xb: int,
                      weights: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """sum_i c_i E_{n,Q}(xa_i/xb) over the ``weights`` (c_i, xa_i) and the
    :func:`_closed_form_row` of (n, Q), where E_{n,Q}(X) = 2 (1/(1-Q))^n sum_k
    C(n,k) (-X)^k / (1+Q^k), as an integer pair not in lowest terms: for Q =
    qa/qb the k-th numerator C(n,k) (sum_i c_i (-xa_i)^k) qb^k xb^(n-k) over
    xb^n prod_k (qb^k + qa^k); one weight per value or residue summed."""
    factors, scale, den = row
    n = len(factors) - 1
    power_sums = [0] * (n + 1)  # sum_i c_i (-xa_i)^k
    for c, xa in weights:
        for k in range(n + 1):
            power_sums[k] += c
            c *= -xa
    num = 0
    for (d, weight, prefix), power_sum, k in zip(factors, power_sums, range(n, -1, -1)):
        num = num * d + power_sum * weight * xb**k * prefix
    return scale * num, den * xb**n


def _closed_form(n: int, Q: Fraction, xb: int, weights: Sequence[Tuple[int, int]],
                 operation: str) -> Fraction:
    """:func:`_closed_form_pair` over the row of (n, Q), normalized once."""
    return Fraction(*_closed_form_pair(_closed_form_row(n, Q, operation), xb, weights))


def _shifted_sum(n: int, q: Fraction, F: int, x: int, signs: Sequence[int],
                 operation: str) -> Fraction:
    """sum_{a<F} signs[a] E_{n,q^F}((a+x)/F) as one closed form: the arguments
    q^(a+x) = qa^(a+x) qb^(F-1-a) / qb^(F-1+x) share one denominator."""
    qa, qb = q.numerator, q.denominator
    weights = [(c, qa ** (a + x) * qb ** (F - 1 - a)) for a, c in enumerate(signs) if c]
    return _closed_form(n, q**F, qb ** (F - 1 + x), weights, operation)


@lru_cache(maxsize=None)
def _euler_number_cached(m: int, q: Fraction) -> Fraction:
    return _closed_form(m, q, 1, [(1, 1)], "euler_number")


def euler_number(m: int, q: IntOrRational) -> Fraction:
    """q-Euler number: the m-th moment of the alternating q-measure,
    as the exact closed sum 2 (1/(1-q))^m sum_i C(m,i) (-1)^i / (1+q^i)."""
    if m < 0:
        raise ValueError("euler_number requires m >= 0")
    return _euler_number_cached(m, Fraction(q))


def euler_poly(n: int, x: int, q: IntOrRational) -> Fraction:
    """q-Euler polynomial value at a nonnegative integer argument x."""
    if n < 0 or x < 0:
        raise ValueError("euler_poly requires n, x >= 0")
    q = Fraction(q)
    return _closed_form(n, q, q.denominator**x, [(1, q.numerator**x)], "euler_poly")


def euler_poly_frac(n: int, arg: FractionalArg, q: IntOrRational,
                    operation: str = "euler_poly_frac") -> Fraction:
    """q**F-Euler polynomial at the fractional argument a/F: the base becomes
    q**F and the argument power (q**F)**(a/F) collapses to q**a, exactly.
    Its errors name ``operation``, the public function a caller called."""
    if n < 0:
        raise ValueError(f"{operation} requires n >= 0")
    q = Fraction(q)
    return _closed_form(n, q**arg.F, q.denominator**arg.a, [(1, q.numerator**arg.a)],
                        operation)


def euler_poly_moments(n: int, x: int, q: IntOrRational) -> Fraction:
    """The same polynomial value assembled from the q-Euler numbers:
    sum_j C(n,j) q^(jx) E_j [x]^(n-j); an independent computation path, so it
    stays a sum over j of the numbers E_j, never a closed form.  Each term is one
    integer pair, numerator C(n,j) qa^(jx) num(E_j) num([x])^(n-j) over
    qb^(jx) den(E_j) den([x])^(n-j) with q^x = qa^x/qb^x a running power, and
    ``exact_sum_pairs`` adds them over one lcm, normalized once."""
    if n < 0 or x < 0:
        raise ValueError("euler_poly_moments requires n, x >= 0")
    q = Fraction(q)
    _check_base(q, "euler_poly_moments")
    qa_x, qb_x = q.numerator**x, q.denominator**x
    cnt = q_int(x, q)
    terms, qa_jx, qb_jx = [], 1, 1
    for j in range(n + 1):
        e = euler_number(j, q)
        terms.append((math.comb(n, j) * qa_jx * e.numerator * cnt.numerator ** (n - j),
                      qb_jx * e.denominator * cnt.denominator ** (n - j)))
        qa_jx, qb_jx = qa_jx * qa_x, qb_jx * qb_x
    return exact_sum_pairs(terms)


def _alt_level_sum(count: int, m: int, q: Fraction) -> Fraction:
    """sum_{x<count} (-1)^x [x]^m term by term, never a closed form: the independent
    route that the closed forms are checked against.  With q = a/b,
    [x] = b (b^x - a^x)/(b^x (b - a)), and Horner's rule over x keeps one integer
    numerator sum (-1)^x (b^x - a^x)^m b^((count-1-x)m) ([0]^0 = 1; [x] = x at q = 1).
    Each (-1)^x (b^x - a^x)^m is formed on its own as sum_i C(m,i) (-1)^i
    (-a^i b^(m-i))^x from m + 1 running powers, one product by a small integer each
    per x (no big power); the sums over i and x are never swapped.  At an integer
    q (b^m = 1) the Horner step is a plain add."""
    a, b = q.numerator, q.denominator
    if a == b:
        return Fraction(sum((-1) ** x * x**m for x in range(count)))
    bm, num = b**m, 0
    steps = [-(a**i) * b ** (m - i) for i in range(m + 1)]
    powers = [(-1) ** i * math.comb(m, i) for i in range(m + 1)]  # at x = 0
    for x in range(count):
        term = 0
        for i, power in enumerate(powers):
            term += power
            powers[i] = power * steps[i]
        num = num * bm + term if bm != 1 else num + term
    # powers[0] is now (-1)^count b^(m count)
    return Fraction(num * bm * bm, (b - a) ** m * abs(powers[0]))


def alt_power_sum_brute(n: int, m: int, q: IntOrRational) -> Fraction:
    """Literal alternating power sum 2 sum_{l<n} (-1)^l [l]^m, term by term."""
    if n < 1 or m < 1:
        raise ValueError("alt_power_sum_brute requires n, m >= 1")
    return 2 * _alt_level_sum(n, m, Fraction(q))


def alt_power_sum_closed(n: int, m: int, q: IntOrRational) -> Fraction:
    """Closed form of the alternating power sum: (-1)^(n+1) E_m(n) + E_m, with the
    polynomial value E_m(n) assembled from the q-Euler numbers (``euler_poly_moments``)."""
    if n < 1 or m < 1:
        raise ValueError("alt_power_sum_closed requires n, m >= 1")
    q = Fraction(q)
    _check_base(q, "alt_power_sum_closed")
    return (-1) ** (n + 1) * euler_poly_moments(m, n, q) + euler_number(m, q)


def distribution_sum(n: int, x: int, m: int, q: IntOrRational) -> Fraction:
    """Multiplication-by-m assembly [m]^n sum_a (-1)^a E_{n,q^m}((a+x)/m) for odd m,
    one closed form in base q^m; must reproduce euler_poly(n, x, q) exactly."""
    if m < 1 or m % 2 == 0:
        raise ValueError("distribution_sum requires odd m >= 1")
    q = Fraction(q)
    FractionalArg(x, m)  # the arguments (a+x)/m need a + x >= 0
    if n < 0:
        raise ValueError("distribution_sum requires n >= 0")
    return q_int(m, q) ** n * _shifted_sum(n, q, m, x, [(-1) ** a for a in range(m)],
                                           "distribution_sum")


def _twist_base(q: Optional[IntOrRational], ctx: Optional[QContext], operation: str) -> Fraction:
    """The q of a twisted number: q, else the context's; a q that disagrees with
    the context is a ValueError.  Errors name the public ``operation``."""
    if q is None:
        if ctx is None:
            raise ValueError(f"{operation} needs q or a context")
        return ctx.q
    q = Fraction(q)
    if ctx is not None and ctx.q != q:
        raise ValueError("q argument disagrees with the context")
    return q


def gen_euler_number(
    n: int,
    chi: DirichletCharacter,
    q: Optional[IntOrRational] = None,
    ctx: Optional[QContext] = None,
) -> Union[Fraction, PadicNumber]:
    """Character-twisted q-Euler number
    [f]^n sum_{a<f} chi(a) (-1)^a E_{n,q^f}(a/f)  over the conductor f
    (odd: the atoms refuse p = 2 and even d).

    One :func:`chi_sum` over a < f, each class one closed form in base q^f over
    the weighted arguments q^a (:func:`_shifted_sum`): an exact Fraction when
    the character is {0,+-1}-valued (q alone suffices); otherwise the character
    values are p-adic and a context is required, giving a PadicNumber mod
    p**working_precision, one closed form per character value.
    """
    if n < 0:
        raise ValueError("gen_euler_number requires n >= 0")
    q = _twist_base(q, ctx, "gen_euler_number")
    f = chi.conductor
    scale = q_int(f, q) ** n
    return chi_sum(chi, range(f), lambda weights: scale * _shifted_sum(
        n, q, f, 0, [(-1) ** a * weights.get(a, 0) for a in range(f)], "gen_euler_number"), ctx)


def volkenborn_approx(m: int, level: int, ctx: QContext) -> Fraction:
    """Finite-level q-measure approximation of the m-th q-Euler number:
    (2/[2]_q) (1/[p^level]_{-q}) sum_{x<p^level} (-1)^x [x]^m, exact.

    The q^(-x) in the integrand cancels the q^x of the alternating measure
    weight, leaving the plain sign (-1)^x; for odd p^level the front factor is 2/(1 + q^(p^level)).
    """
    if m < 0:
        raise ValueError("volkenborn_approx requires m >= 0")
    if level < 1:
        raise ValueError("volkenborn_approx requires level >= 1")
    size = ctx.p**level
    return 2 * _alt_level_sum(size, m, ctx.q) / (1 + ctx.q**size)
