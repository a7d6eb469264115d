"""Exact rational and truncated p-adic arithmetic.

Everything downstream is built on two substrates:

* exact rationals (``fractions.Fraction``) for the closed finite-sum values,
  so that no p-adic cancellation can corrupt a result before it is reduced;
* :class:`PadicNumber`, a truncated p-adic number carrying an explicit
  significant-digit count, used once values cross into p-adic territory
  (Teichmuller lifts, binomial series in a p-adic exponent, guarded series).

The ambient parameters (odd prime p, rational q close to 1, target and
working precision, truncation guard) travel in a :class:`QContext`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

IntOrRational = Union[int, Fraction]
Valuation = Union[int, float]  # int, or math.inf for "zero as far as we know"
#: (valuation, unit, precision) of a PadicNumber; a zero's parts are (bound, 0, 0)
Parts = Tuple[Valuation, int, int]

INF = math.inf


def valuation_json(v: Valuation) -> Union[Valuation, str]:
    """JSON form of a valuation: the string "inf" for infinity."""
    return "inf" if v == INF else v


class PadicError(ValueError):
    """Invalid p-adic operation: non-unit argument, prime mismatch, ..."""


class SeriesDivergenceError(PadicError):
    """A guarded series read ``ctx.column_length`` terms, or ran out of terms,
    before its guard was satisfied: a broken valuation bound."""

    def __init__(self, message: str, partial: "SeriesResult"):
        super().__init__(message)
        self.partial = partial


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def require_odd_prime(p: int) -> None:
    """The check every prime parameter gets: ValueError unless p is an odd prime."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p}")


def _strip_p(n: int, p: int) -> tuple[int, int]:
    """(n / p**v, v) for the largest v with p**v dividing the nonzero integer n."""
    if p < 2:
        raise ValueError(f"cannot strip powers of {p} (p must be >= 2)")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return n, v


def v_p(x: IntOrRational, p: int) -> Valuation:
    """p-adic valuation of an exact integer or fraction (inf for 0)."""
    if x == 0:
        return INF
    x = Fraction(x)
    return _strip_p(x.numerator, p)[1] - _strip_p(x.denominator, p)[1]


# ---------------------------------------------------------------------------
# q-integers and binomial coefficients
# ---------------------------------------------------------------------------

def q_int(x: int, q: IntOrRational) -> Fraction:
    """The base-q count of x: 1 + q + q^2 + ... + q^(x-1)  (equals x at q=1)."""
    if x < 0:
        raise ValueError("q_int requires x >= 0")
    q = Fraction(q)
    if q == 1:
        return Fraction(x)
    return (1 - q**x) / (1 - q)


def exact_sum(terms: Iterable[IntOrRational]) -> Fraction:
    """The sum of exact rationals, through :func:`exact_sum_pairs`."""
    return exact_sum_pairs((term.numerator, term.denominator) for term in terms)


def exact_sum_pairs(pairs: Iterable[Tuple[int, int]]) -> Fraction:
    """The sum of the n/d over integer pairs (n, d), d != 0 and not necessarily in
    lowest terms, as one integer numerator over the running lcm of the d,
    normalized once (not one gcd per ``Fraction`` add or product)."""
    num, den = 0, 1
    for n, d in pairs:
        g = math.gcd(den, d)
        num, den = num * (d // g) + n * (den // g), den // g * d
    return Fraction(num, den)


def binom_int(t: int, k: int) -> int:
    """binom(t, k) for an integer t (by upper negation when t < 0) and k >= 0."""
    return math.comb(t, k) if t >= 0 else (-1) ** k * math.comb(k - t - 1, k)


# ---------------------------------------------------------------------------
# Truncated p-adic numbers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _modulus(p: int, precision: int) -> int:
    """p**precision, computed once per (p, precision): the product rule's modulus."""
    return p**precision


def mul_parts(p: int, x: Parts, y: Parts) -> Parts:
    """The product rule of :class:`PadicNumber`, on plain integer parts:
    valuations add and the unit product is reduced mod p**(least precision).
    A zero has precision 0, so a zero factor gives the zero (v1 + v2, 0, 0)."""
    (v1, u1, prec1), (v2, u2, prec2) = x, y
    prec = prec1 if prec1 < prec2 else prec2
    return v1 + v2, u1 * u2 % _modulus(p, prec), prec


def neg_parts(p: int, x: Parts) -> Parts:
    """The negation of :class:`PadicNumber` on plain parts: the unit negated mod p**precision."""
    v, unit, prec = x
    return v, -unit % _modulus(p, prec), prec


def residue_parts(p: int, valuation: int, residue: int, precision: int) -> Parts:
    """The parts of ``residue * p**valuation`` known mod p**(valuation + precision),
    normalized: p stripped from the residue mod p**precision, a zero's parts
    (valuation + precision, 0, 0) when nothing is left (``PadicNumber.make``)."""
    if precision <= 0:
        return valuation + precision, 0, 0
    residue %= _modulus(p, precision)
    if residue == 0:
        return valuation + precision, 0, 0
    residue, shift = _strip_p(residue, p)
    return valuation + shift, residue, precision - shift


def int_parts(r: int, p: int, N: int) -> Parts:
    """The parts of an exact integer's image mod p**N (``reduce_mod_pN``): p
    stripped and the unit mod p**N, no ``Fraction``; an exact 0 is (inf, 0, 0)."""
    if r == 0:
        return INF, 0, 0
    unit, v = _strip_p(r, p)
    return v, unit % _modulus(p, N), N


def _at_absolute_precision(p: int, x: Parts, bound: Valuation) -> Parts:
    """x's parts with everything beyond p**bound forgotten."""
    v, unit, prec = x
    if not prec:
        return (v if v < bound else bound), 0, 0
    rel = bound - v
    if rel <= 0:
        return bound, 0, 0
    if rel >= prec:
        return x
    rel = int(rel)
    return v, unit % _modulus(p, rel), rel


def add_parts(p: int, x: Parts, y: Parts) -> Parts:
    """The sum rule of :class:`PadicNumber`, on plain integer parts: the sum is
    known to the lesser absolute precision, a zero summand only truncates the
    other, and two units are added at their least valuation and normalized
    (:func:`residue_parts`)."""
    (v1, u1, prec1), (v2, u2, prec2) = x, y
    end1, end2 = v1 + prec1, v2 + prec2
    bound = end1 if end1 < end2 else end2
    if not prec1:
        return (bound, 0, 0) if not prec2 else _at_absolute_precision(p, y, bound)
    if not prec2:
        return _at_absolute_precision(p, x, bound)
    base = v1 if v1 < v2 else v2
    rel = int(bound - base)
    if rel <= 0:
        return bound, 0, 0
    total = u1 * p ** int(v1 - base) + u2 * p ** int(v2 - base)
    return residue_parts(p, int(base), total, rel)


def power_column(p: int, start: Parts, step: Parts, length: int) -> List[Parts]:
    """start * step**k for k < length (length >= 1), each entry the
    :func:`mul_parts` product of the one before and step: from k = 1 on, a
    running integer unit reduced mod one p**min(start's precision, step's)."""
    v, unit, prec = start
    v_step, u_step, prec_step = step
    prec = prec if prec < prec_step else prec_step
    mod = _modulus(p, prec)
    column = [start]
    for _ in range(length - 1):
        v, unit = v + v_step, unit * u_step % mod
        column.append((v, unit, prec))
    return column


@dataclass(frozen=True)
class PadicNumber:
    """A p-adic number known to ``precision`` significant base-p digits.

    A nonzero value represents ``unit * p**valuation`` where the unit is an
    integer in [1, p**precision) coprime to p; the value is known modulo
    ``p**(valuation + precision)``.  A zero value represents "congruent to 0
    mod p**valuation": exact zero carries valuation ``math.inf``.  The last
    three fields are the value's :data:`Parts`: a zero's are (bound, 0, 0),
    and ``unit == 0`` exactly when ``precision == 0``.
    """

    p: int
    valuation: Valuation
    unit: int
    precision: int

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int, bound: Valuation = INF) -> "PadicNumber":
        return cls(p, bound, 0, 0)

    @classmethod
    def make(cls, p: int, valuation: int, residue: int, precision: int) -> "PadicNumber":
        """Normalize ``residue * p**valuation`` known mod p**(valuation+precision)."""
        return cls(p, *residue_parts(p, valuation, residue, precision))

    @classmethod
    def one(cls, p: int, precision: int) -> "PadicNumber":
        if precision < 1:  # precision 0 is a zero's
            raise ValueError("PadicNumber.one requires precision >= 1")
        return cls(p=p, valuation=0, unit=1, precision=precision)

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.precision == 0

    @property
    def parts(self) -> Parts:
        return self.valuation, self.unit, self.precision

    @property
    def abs_precision(self) -> Valuation:
        """The value is pinned down modulo p**abs_precision."""
        return self.valuation + self.precision

    def digits(self) -> list:
        """Base-p digits of the unit, least significant first, length == precision."""
        out = []
        u = self.unit
        for _ in range(self.precision):
            u, d = divmod(u, self.p)
            out.append(d)
        return out

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "valuation": None if self.valuation == INF else self.valuation,
            "digits": self.digits(),
            "precision": self.precision,
        }

    def __str__(self) -> str:
        if self.is_zero:
            bound = "inf" if self.valuation == INF else str(self.valuation)
            return f"0 (mod {self.p}^{bound})"
        return f"{self.unit}*{self.p}^{self.valuation} (mod {self.p}^{self.abs_precision})"

    # -- precision management -------------------------------------------------

    def at_absolute_precision(self, bound: Valuation) -> "PadicNumber":
        """Forget everything beyond p**bound."""
        return PadicNumber(self.p, *_at_absolute_precision(self.p, self.parts, bound))

    # -- arithmetic -----------------------------------------------------------

    def _check_same_prime(self, other: "PadicNumber") -> None:
        if not isinstance(other, PadicNumber):
            raise TypeError(f"expected PadicNumber, got {type(other).__name__}")
        if self.p != other.p:
            raise PadicError(f"prime mismatch: {self.p} vs {other.p}")

    def __neg__(self) -> "PadicNumber":
        return PadicNumber(self.p, *neg_parts(self.p, self.parts))

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        return PadicNumber(self.p, *add_parts(self.p, self.parts, other.parts))

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        return PadicNumber(self.p, *mul_parts(self.p, self.parts, other.parts))

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_prime(other)
        if other.is_zero:
            raise ZeroDivisionError("division by a p-adic zero")
        prec = min(self.precision, other.precision)  # 0 keeps a zero numerator a zero
        inv = pow(other.unit, -1, self.p**prec)
        return PadicNumber(p=self.p, valuation=self.valuation - other.valuation,
                           unit=(self.unit * inv) % self.p**prec,
                           precision=prec)

    def __pow__(self, exponent: int) -> "PadicNumber":
        """Direct integer power by repeated multiplication (no series)."""
        if not isinstance(exponent, int):
            raise TypeError("use padic_pow for non-integer exponents")
        if self.is_zero:
            if exponent <= 0:
                raise ZeroDivisionError("zero to a nonpositive power")
            return PadicNumber.zero(self.p, bound=self.valuation * exponent)
        if exponent < 0:
            base = PadicNumber.one(self.p, self.precision) / self
            exponent = -exponent
        else:
            base = self
        result = PadicNumber.one(self.p, base.precision)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result


def reduce_mod_pN(r: IntOrRational, p: int, N: int) -> PadicNumber:
    """Image of an exact rational: valuation v_p(r), unit correct mod p**N.
    An integer takes no ``Fraction`` and no inverse: p stripped, unit mod p**N."""
    if N < 1:
        raise ValueError("reduce_mod_pN requires N >= 1")
    if isinstance(r, int):
        return PadicNumber(p, *int_parts(r, p, N))
    r = Fraction(r)
    if r == 0:
        return PadicNumber.zero(p)
    # strip p from numerator and denominator as integers: no gcd on the
    # (often very large) numerator and denominator
    num, v_num = _strip_p(r.numerator, p)
    den, v_den = _strip_p(r.denominator, p)
    modulus = _modulus(p, N)
    unit = num % modulus * pow(den % modulus, -1, modulus) % modulus
    return PadicNumber(p=p, valuation=v_num - v_den, unit=unit, precision=N)


def residual_valuation(a: PadicNumber, b: PadicNumber) -> Valuation:
    """Known lower bound for v_p(a - b).  When a and b are indistinguishable
    this is the zero difference's finite bound (the smaller absolute
    precision), not inf."""
    return (a - b).valuation


def teichmuller(a: int, p: int, N: int) -> PadicNumber:
    """The (p-1)-th root of unity congruent to a mod p, correct mod p**N.

    Computed as the Frobenius limit a**(p**(N-1)) mod p**N, memoized process-wide
    on (a mod p, p, N), all it depends on: at most p - 1 entries per (p, N).
    """
    if not is_odd_prime(p):
        raise PadicError(f"p must be an odd prime, got {p}")
    if N < 1:
        raise ValueError("teichmuller requires N >= 1")
    if a % p == 0:
        raise PadicError("Teichmuller undefined at non-unit")
    return _teichmuller_lift(a % p, p, N)


@functools.lru_cache(maxsize=None)
def _teichmuller_lift(a: int, p: int, N: int) -> PadicNumber:
    return PadicNumber(p=p, valuation=0, unit=pow(a, p ** (N - 1), p**N), precision=N)


# ---------------------------------------------------------------------------
# Ambient parameters
# ---------------------------------------------------------------------------

#: extra digits carried beyond the target so that guard-window bookkeeping and
#: binomial-coefficient losses never eat into reported precision
WORKING_MARGIN = 10


@dataclass(frozen=True)
class QContext:
    """Fixed parameters: odd prime p, rational q with v_p(q-1) >= 1, precisions.

    ``precision`` is the target digit count for reported results;
    ``working_precision``, precision + WORKING_MARGIN, is used internally;
    ``guard`` consecutive high-valuation terms stop a truncated series,
    which reads at most ``column_length`` = working_precision + guard terms.
    """

    p: int
    q: Fraction
    precision: int = 8
    guard: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", Fraction(self.q))
        require_odd_prime(self.p)
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.guard < 1:
            raise ValueError("guard must be >= 1")
        if self.working_precision < self.precision + self.guard:
            raise ValueError("working_precision must be >= precision + guard")
        if v_p(self.q - 1, self.p) < 1:
            raise ValueError(
                f"q must satisfy v_{self.p}(q - 1) >= 1, got q = {self.q}")
        object.__setattr__(self, "_hash", hash(
            (self.p, self.q, self.precision, self.guard)))

    def __hash__(self) -> int:  # the dataclass hash, computed once: table lookups hash it
        return self._hash

    @property
    def working_precision(self) -> int:
        return self.precision + WORKING_MARGIN

    @property
    def embed_precision(self) -> int:
        """The digits :meth:`embed` keeps: working_precision + WORKING_MARGIN."""
        return self.working_precision + WORKING_MARGIN

    @property
    def column_length(self) -> int:
        """The most terms :func:`scan_products` reads, and the entries of a scoped
        column of an infinite series: a series whose j-th term has valuation >= j
        meets its guard by index working_precision + guard - 1."""
        return self.working_precision + self.guard

    @property
    def q_is_one(self) -> bool:
        return self.q == 1

    def require_q_not_one(self, operation: str) -> None:
        if self.q_is_one:
            raise ValueError(f"{operation} divides by (1 - q): use classical limit path")

    def embed(self, r: IntOrRational) -> PadicNumber:
        """Reduce an exact rational at a precision that never binds results."""
        return reduce_mod_pN(r, self.p, self.embed_precision)

    def zero(self) -> PadicNumber:
        return PadicNumber.zero(self.p)

    def one(self) -> PadicNumber:
        return PadicNumber.one(self.p, self.working_precision)

    def with_doubled_truncation(self) -> "QContext":
        """Guard doubled, for the doubling check: the working precision,
        precision + WORKING_MARGIN, holds a doubled guard up to WORKING_MARGIN // 2.
        The doubled guard also lengthens ``column_length`` and moves every stop."""
        if 2 * self.guard > WORKING_MARGIN:
            raise ValueError(f"with_doubled_truncation requires guard <= {WORKING_MARGIN // 2}"
                             f" (WORKING_MARGIN // 2), got guard = {self.guard}")
        return QContext(p=self.p, q=self.q, precision=self.precision,
                        guard=2 * self.guard)


# ---------------------------------------------------------------------------
# Guarded series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesResult:
    """A truncated-series value plus the evidence the truncation was sound."""

    value: PadicNumber
    last_index: int
    tail_valuation_bound: Valuation
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value.to_json_dict(),
            "last_index": self.last_index,
            "tail_valuation_bound": valuation_json(self.tail_valuation_bound),
            "converged": self.converged,
        }


#: a converged SeriesResult's (value parts, last_index, tail_valuation_bound)
SeriesParts = Tuple[Parts, int, Valuation]


def series_result(p: int, series: SeriesParts) -> SeriesResult:
    """The converged SeriesResult of a series' parts and stop."""
    return SeriesResult(PadicNumber(p, *series[0]), *series[1:], True)


def merge_stops(value: Parts, series: Iterable[SeriesParts]) -> SeriesParts:
    """value with :func:`merge_series`' metadata of the series read: the greatest
    last_index (0 for none) and the least tail bound (inf for none)."""
    last, bound = 0, INF
    for _, index, tail in series:
        last, bound = max(last, index), min(bound, tail)
    return value, last, bound


class SeriesScan(NamedTuple):
    """What :func:`scan_products` read: ``terms[j]`` is u_j p^(v_j - base), u_j the
    unreduced unit product, for a term kept below the bound, else 0."""

    p: int
    base: Valuation
    bound: Valuation
    terms: Tuple[int, ...]
    tail_bound: Valuation
    error: Optional[str]  # a missed guard's message

    def at(self, rho: int = 1) -> SeriesParts:
        """The series with its j-th term times rho^j (an integer), by Horner's
        rule mod p^(bound - base), as parts with the scan's stop: the scan of (x_j)
        against (v_j, rho^j u_j mod p^prec_j, prec_j) for the scanned y_j = (v_j,
        u_j, prec_j), field for field, as no term's valuation or precision moves
        and a kept term's unit moves mod p^(bound - v_j) only.  A missed guard raises."""
        p, base, bound, total = self.p, self.base, self.bound, 0
        if bound > base and rho == 1:  # bound <= base: nothing is known below it
            total = sum(self.terms)
        elif bound > base:
            mod = _modulus(p, bound - base)
            for term in reversed(self.terms):
                total = (total * rho + term) % mod
        return self.result(residue_parts(p, base, total, bound - base) if total
                           else (bound, 0, 0))

    def result(self, value: Parts) -> SeriesParts:
        """value's parts with this scan's stop and tail bound: a missed guard
        raises here, value the partial's (``converged`` False)."""
        if self.error:
            raise SeriesDivergenceError(self.error, SeriesResult(
                PadicNumber(self.p, *value), len(self.terms) - 1, self.tail_bound, False))
        return value, len(self.terms) - 1, self.tail_bound


def scan_products(xs: Iterable[Parts], ys: Iterable[Parts], ctx: QContext, *,
                  description: str = "series") -> SeriesScan:
    """The one guarded fold over the products x_j y_j of two columns of parts:
    it stops after ``ctx.guard`` terms in a row of valuation >= the working
    precision, and reads at most ``ctx.column_length`` pairs, by which a series
    whose j-th term has valuation >= j meets its guard; one that ends or reaches
    that length first breaks that bound (``SeriesScan.error``).

    The j-th term is the :func:`mul_parts` product of x_j and y_j, and the
    value (:meth:`SeriesScan.at`) is one integer reduction, equal to the left
    fold of ``PadicNumber.__add__`` over those products: terms below the
    running ``bound`` (the least absolute precision so far; a zero term
    counts with its bound) accumulate as ``total * p**base``, reduced mod
    p**(bound - base) once.  Each fold step keeps the sum mod p**(running
    bound), the bound only falls, and a value mod p**bound has one normalized
    form.  So u1 u2 is kept unreduced: every term read has valuation +
    precision >= bound, so reducing it moves the total by a multiple of p**(bound - base)."""
    p, target, guard, length = ctx.p, ctx.working_precision, ctx.guard, ctx.column_length
    bound = base = INF  # the least absolute precision, the least kept valuation
    terms, valuations = [], []
    run, error = 0, None  # run: terms of valuation >= target in a row
    for (v1, u1, prec1), (v2, u2, prec2) in itertools.islice(zip(xs, ys), length):
        v = v1 + v2
        end = v + (prec1 if prec1 < prec2 else prec2)
        if end < bound:
            bound = end
        if v < bound and v < base:  # a new least valuation: rebase the kept terms
            terms, base = [t * p ** (base - v) if t else 0 for t in terms], v
        terms.append(u1 * u2 * p ** (v - base) if v < bound else 0)
        valuations.append(v)
        run = run + 1 if v >= target else 0
        if run >= guard:
            break
    else:
        error = f"{description}: guard not satisfied within its {length} column entries"
    return SeriesScan(p, base, bound, tuple(terms), min(valuations[-guard:], default=INF), error)


def sum_products(xs: Iterable[Parts], ys: Iterable[Parts], ctx: QContext, *,
                 description: str = "series") -> SeriesResult:
    """The value of :func:`scan_products`: the guarded sum of x_j y_j."""
    return series_result(ctx.p, scan_products(xs, ys, ctx, description=description).at())


def sum_guarded(terms: Iterable[Union[PadicNumber, Parts]], ctx: QContext, *,
                description: str = "series") -> SeriesResult:
    """The guarded sum of :func:`sum_products` over single terms, each a
    PadicNumber of ctx.p or its parts, paired with the parts (0, 1, inf) of an
    exact 1: the same stop rule, the same result and at most
    ``ctx.column_length`` terms drawn."""
    check = ctx.zero()._check_same_prime

    def parts(term: Union[PadicNumber, Parts]) -> Parts:
        if type(term) is tuple:
            return term
        check(term)
        return term.parts

    return sum_products(map(parts, terms), itertools.repeat((0, 1, INF)), ctx,
                        description=description)


def merge_series(value: PadicNumber, parts: Iterable[SeriesResult]) -> SeriesResult:
    """Combine sub-series metadata for a value assembled from several series."""
    last = 0
    bound: Valuation = INF
    converged = True
    for part in parts:
        last = max(last, part.last_index)
        bound = min(bound, part.tail_valuation_bound)
        converged = converged and part.converged
    return SeriesResult(value=value, last_index=last,
                        tail_valuation_bound=bound, converged=converged)


# ---------------------------------------------------------------------------
# p-adic exponentiation and binomial coefficients
# ---------------------------------------------------------------------------

PadicExponent = Union[int, PadicNumber]


def binom_parts(s: PadicExponent, ctx: QContext) -> Iterator[Parts]:
    """The parts of binom(s, k) = s(s-1)...(s-k+1)/k! for k = 0, 1, 2, ... and a
    p-adic integer s.

    For an integer s each value is the exact binomial's parts (:func:`int_parts`
    of :func:`binom_int`), those of its ``ctx.embed``.  For a PadicNumber s
    they come from one running product of the factors s - k, divided by k!,
    each step the rule of the ``PadicNumber`` operation it replaces, on plain
    integer parts: the product is :func:`mul_parts`, from ``ctx.one()``, and
    each factor is s - ctx.embed(k) by :func:`add_parts`; the division by k!
    then costs v_p(k!) digits of absolute precision, which each value's
    precision field reflects.  The division is ``PadicNumber.__truediv__``'s:
    valuations subtract and the unit is multiplied by the inverse of k!'s unit
    mod p**(the product's precision), here from one running inverse mod p**N
    (N = the digits ``ctx.embed`` keeps).  Once the product is a p-adic zero
    (s an embedded integer with 0 <= s < k) it is no longer multiplied.  An s
    that is not a p-adic integer is a PadicError when the first value is drawn."""
    p, N = ctx.p, ctx.embed_precision
    if isinstance(s, int):
        for k in itertools.count():
            yield int_parts(binom_int(s, k), p, N)
    ctx.zero()._check_same_prime(s)
    if not s.is_zero and s.valuation < 0:
        raise PadicError("binom_stream requires a p-adic integer")
    mod, prod, s_parts = _modulus(p, N), ctx.one().parts, s.parts
    fact_v, fact_inv = 0, 1  # v_p(k!) and the inverse of k!'s unit mod p**N
    for k in itertools.count():
        v, unit, prec = prod
        yield v - fact_v, unit * fact_inv % _modulus(p, prec), prec
        if prec:
            prod = mul_parts(p, prod, add_parts(p, s_parts, int_parts(-k, p, N)))
        unit, shift = _strip_p(k + 1, p)
        fact_v, fact_inv = fact_v + shift, fact_inv * pow(unit, -1, mod) % mod


def binom_stream(s: PadicExponent, ctx: QContext) -> Iterator[PadicNumber]:
    """binom(s, k) for k = 0, 1, 2, ... and a p-adic integer s, as PadicNumbers
    built from the parts of :func:`binom_parts`: for an integer s each value is
    ``ctx.embed`` of the exact binomial; for a PadicNumber s the division by
    k! costs v_p(k!) digits of absolute precision."""
    return (PadicNumber(ctx.p, *parts) for parts in binom_parts(s, ctx))


def padic_pow(u: PadicNumber, s: PadicExponent, ctx: QContext) -> SeriesResult:
    """u**s for u congruent to 1 mod p and a p-adic integer exponent s,
    via the binomial series sum_k binom(s, k) (u-1)**k with guarded truncation,
    the parts of :func:`binom_parts` against a :func:`power_column` of u - 1;
    its k-th term has valuation >= k, so the guard fires within the column length."""
    if u.is_zero or u.valuation != 0 or u.unit % ctx.p != 1:
        raise PadicError("binomial series diverges: base must be congruent to 1 mod p")
    if isinstance(s, PadicNumber):
        if not s.is_zero and s.valuation < 0:
            raise PadicError("exponent must be a p-adic integer")
    powers = power_column(ctx.p, ctx.one().parts, (u - ctx.one()).parts, ctx.column_length)
    return sum_products(binom_parts(s, ctx), powers, ctx, description="binomial power series")


def unit_residues(F: int, ctx: QContext) -> Dict[int, Tuple[int, int, int]]:
    """{a: (<a>, q^a, [a]_q)} for the units 0 < a < F, as integer residues mod
    p**N, N = ``ctx.embed_precision`` (the digits ``ctx.embed`` keeps).

    q is reduced once; q^a is a running power and [a]_q = [a-1]_q + q^(a-1) a
    running sum.  Reduction mod p**N is a ring map on the p-integral rationals,
    so each residue is the exact value's, and for p not dividing a,
    [a]_q = a mod p is a unit: its residue is its unit to all N digits, and the
    sum, though formed from reduced parts, loses none.  <a> = [a]_q / w(a),
    with 1 / w(a) = w(a') for a a' = 1 mod p, read from the memoized lift.
    At q = 1, [a]_q = a."""
    p, N = ctx.p, ctx.embed_precision
    mod = _modulus(p, N)
    q = ctx.q.numerator * pow(ctx.q.denominator, -1, mod) % mod
    table = {}
    power, bracket = 1, 0  # q^a and [a]_q at a = 0
    for a in range(1, F):
        power, bracket = power * q % mod, (bracket + power) % mod
        if a % p:
            inverse_lift = teichmuller(pow(a, -1, p), p, N).unit
            table[a] = bracket * inverse_lift % mod, power, bracket
    return table


def angle_bracket(a: int, ctx: QContext) -> PadicNumber:
    """Principal-unit part of the base-q count of a unit a:
    q_int(a, q) divided by its Teichmuller lift; congruent to 1 mod p.
    Read from :func:`unit_residues`, to the digits ``ctx.embed`` keeps."""
    if a % ctx.p == 0:
        raise PadicError("angle_bracket undefined at non-unit")
    if a < 0:
        raise ValueError("q_int requires x >= 0")
    return PadicNumber(ctx.p, 0, unit_residues(a + 1, ctx)[a][0], ctx.embed_precision)
