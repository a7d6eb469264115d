"""Alternating partial zeta values and their p-adic interpolations.

At negative integers everything here has an exact rational closed form
built from the q-Euler polynomials; the p-adic functions reproduce those
closed forms (up to a Teichmuller twist) and extend them to p-adic integer
arguments through guarded binomial series.  The twisted sum at -k reads its
character values from ``characters.chi_sum``, one class per value; the
p-adic unit sums read ``characters.chi_residue``.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .characters import DirichletCharacter, chi_residue, chi_sum
from .numerics import (
    WORKING_MARGIN,
    PadicExponent,
    PadicNumber,
    Parts,
    QContext,
    SeriesResult,
    SeriesScan,
    _strip_p,
    binom_parts,
    exact_sum_pairs,
    merge_series,
    mul_parts,
    power_column,
    q_int,
    residue_parts,
    scan_products,
    unit_residues,
    v_p,
)
from .qeuler import (FractionalArg, _closed_form_pair, _closed_form_row, _twist_base,
                     euler_number, euler_poly_frac)


@dataclass(frozen=True)
class PartialZetaParams:
    """Residue class a mod F with 0 < a < F and F odd."""

    a: int
    F: int

    def __post_init__(self) -> None:
        if self.F < 1 or self.F % 2 == 0:
            raise ValueError("PartialZetaParams requires odd F")
        if not 0 < self.a < self.F:
            raise ValueError("PartialZetaParams requires 0 < a < F")


def partial_zeta_neg(n: int, prm: PartialZetaParams, q) -> Fraction:
    """Value of the alternating partial zeta function over the residue class
    a mod F at the negative integer -n, as an exact rational:
    (-1)^a ([F]^n / 2) E_{n,q^F}(a/F)."""
    if n < 0:
        raise ValueError("partial_zeta_neg requires n >= 0")
    q = Fraction(q)
    if q == 1:
        raise ValueError("partial_zeta_neg: q = 1, use classical limit path")
    return (-1) ** prm.a * q_int(prm.F, q) ** n / 2 * euler_poly_frac(
        n, FractionalArg(prm.a, prm.F), q, "partial_zeta_neg")


def lq_neg_series_path(
    k: int,
    chi: DirichletCharacter,
    q=None,
    ctx: Optional[QContext] = None,
) -> Union[Fraction, PadicNumber]:
    """Independent route to the Dirichlet-type q-l-value at -k (the k-th
    twisted q-Euler number, :func:`gen_euler_number`): 2 sum_{a=1}^{F}
    chi(a) H(-k, a:F) = [F]^k sum_{a=1}^{F} chi(a) (-1)^a E_{k,q^F}(a/F) over
    the conductor F, the a = F term at argument 1: one closed form per a, summed
    with a outside, where gen_euler_number's one closed form has k outside.
    Each closed form is its integer pair with chi(a) (-1)^a in its weight, over
    one row of q^F's factors (``_closed_form_row``) for every a, and the pairs
    of one class of :func:`chi_sum` (one class for a {0,+-1}-valued chi, one
    per character value otherwise) are added by ``exact_sum_pairs``, normalized
    once.  A q that disagrees with the context is a ValueError, as there."""
    if k < 0:
        raise ValueError("lq_neg_series_path requires k >= 0")
    q = _twist_base(q, ctx, "lq_neg_series_path")
    F, qa, qb = chi.conductor, q.numerator, q.denominator
    row, scale = _closed_form_row(k, q**F, "lq_neg_series_path"), q_int(F, q) ** k
    return chi_sum(chi, range(1, F + 1), lambda weights: scale * exact_sum_pairs(
        _closed_form_pair(row, qb**a, [((-1) ** a * c, qa**a)]) for a, c in weights.items()), ctx)


@dataclass
class SeriesCache:
    """Values computed inside one evaluation scope, keyed on the function and
    its arguments (the QContext among them), with hit and miss counts."""

    values: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


_ACTIVE_CACHE: ContextVar[Optional[SeriesCache]] = ContextVar(
    "qlfun_series_cache", default=None)


@contextmanager
def series_cache() -> Iterator[SeriesCache]:
    """Open a fresh evaluation scope.  Inside it H_pq, K_partial and the unit
    power <a>^(-s) are each computed once per key (T_partial reads the cached
    H_pq and K_partial values), and so is every table they read, none per
    unit: the unit table per F (:func:`_unit_table`), the character column
    per (chi, F), the binomial column per s, Delta_j and the unit-free H/K
    column per (n, F) (:func:`_term_column`), one body scan per (n, s, F),
    evaluated at each unit's own point, and per (s, shape of <a> - 1) a power
    scan at a p-adic s, evaluated likewise, or at an integer s, where <a>^(-s)
    is one modular power, the stop of its series (:func:`_power_stop`);
    columns per the length their series reads (:func:`_series_length`).  Every value
    that depends on s has s in its key.  The values are dropped (the counts
    kept) when the scope exits: the scope is the cache's only bound."""
    cache = SeriesCache()
    token = _ACTIVE_CACHE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE_CACHE.reset(token)
        cache.values.clear()


def _scoped(fn):
    """Memoize ``fn`` in the active series cache; outside a scope, call through."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cache = _ACTIVE_CACHE.get()
        if cache is None:
            return fn(*args, **kwargs)
        key = (fn, args, frozenset(kwargs.items())) if kwargs else (fn, args)
        if key in cache.values:
            cache.hits += 1
            return cache.values[key]
        cache.misses += 1
        value = cache.values[key] = fn(*args, **kwargs)
        return value

    return wrapper


def _require_padic_params(prm: PartialZetaParams, ctx: QContext, name: str) -> None:
    if prm.F % ctx.p != 0:
        raise ValueError(f"{name} requires p | F")
    if prm.a % ctx.p == 0:
        raise ValueError(f"{name} requires gcd(a, p) = 1")
    ctx.require_q_not_one(name)


def _series_length(s: PadicExponent, ctx: QContext) -> int:
    """The length of the columns the H, K and <a>^(-s) series at s read: at
    s = -n <= 0 binom(n, j) = 0 for j > n, so the guard fires by index n + guard;
    else ctx.column_length.  The place for a certified J (``_term_column``)."""
    if isinstance(s, int) and s <= 0:
        return min(ctx.column_length, ctx.guard + 1 - s)
    return ctx.column_length


@_scoped
def _binomials(s: PadicExponent, ctx: QContext) -> List[Parts]:
    """The parts of binom(-s, j) for j < _series_length(s, ctx), read from
    :func:`binom_parts` (the exact binomials' at an integer s): one column per
    s, shared by <a>^(-s) and the H and K series of every unit a and every n
    in one scope.  binom_parts refuses an s that is not a p-adic integer."""
    return list(itertools.islice(binom_parts(-s, ctx), _series_length(s, ctx)))


@_scoped
def _unit_table(F: int, ctx: QContext) -> Dict[int, Tuple[Parts, Parts]]:
    """{a: (the parts of <a> - 1, of q^a/(1-q^a))} for the units a < F, from
    the integer residues of :func:`qlfun.numerics.unit_residues`: one table
    per (F, ctx), shared by every s, n and series length in one scope.

    <a> - 1 is ``angle_bracket(a, ctx) - ctx.one()``, known to the working
    precision.  q^a/(1-q^a) = q^a/((1-q)[a]_q) has valuation -v_p(1-q), as
    [a]_q is a unit, and the unit of ``ctx.embed(q^a/(1-q^a))``: 1 - q is
    reduced once, and each entry takes one inverse of [a]_q mod p^N.  The
    series that read the table refuse q = 1 first."""
    p, W, N = ctx.p, ctx.working_precision, ctx.working_precision + WORKING_MARGIN
    mod = p**N
    v, unit, _ = ctx.embed(1 - ctx.q).parts
    inverse = pow(unit, -1, mod)
    return {a: (residue_parts(p, 0, angle - 1, W),
                (-v, power * pow(bracket, -1, mod) * inverse % mod, N))
            for a, (angle, power, bracket) in unit_residues(F, ctx).items()}


@_scoped
def _power_scan(s: PadicNumber, v: int, precision: int, ctx: QContext) -> SeriesScan:
    """The scan of sum_k binom(-s, k) (<a> - 1)^k at a p-adic s, one per (s, v,
    precision, ctx) for every unit a with <a> - 1 = p^v t known to ``precision``
    digits (0 for a zero): the powers (p^v)^k from ``ctx.one()`` have the
    valuations and precisions of the (<a> - 1)^k, whose units are t^k, so
    <a>'s series is this scan at t.  Its k-th term has valuation >= k."""
    shape = power_column(ctx.p, ctx.one().parts, (v, 1, precision), _series_length(s, ctx))
    return scan_products(_binomials(s, ctx), shape, ctx, description="binomial power series")


@_scoped
def _power_stop(s: int, v: int, ctx: QContext) -> SeriesScan:
    """Where sum_k binom(-s, k) (<a> - 1)^k stops at an integer s, one scan per
    (s, v, ctx) for every unit a whose <a> - 1 has the parts' valuation v (W,
    the working precision, for a zero): the binomials against the zeros
    (k v, 0, 0), a column of valuations alone, give the terms the valuations
    v_p(binom(-s, k)) + k v of the series', all that its stop reads."""
    zeros = ((k * v, 0, 0) for k in itertools.count())
    return scan_products(_binomials(s, ctx), zeros, ctx, description="binomial power series")


@_scoped
def _unit_pow(s: PadicExponent, angle: Parts, ctx: QContext) -> SeriesResult:
    """<a>^(-s), the series of ``padic_pow(<a>, -s)``, for the H and K series of
    (a, s), with ``angle`` = (v, t, precision) the parts of <a> - 1
    (:func:`_unit_table`): at a p-adic s the :func:`_power_scan` at t.

    At an integer s the value is one modular power, (1 + p^v t)^(-s) mod p^W,
    W the working precision, with the stop, tail bound and flag of
    :func:`_power_stop` (a missed guard raises with the power as the partial).
    The series' value is the same power, its k = 0 term setting its bound to
    W, whenever every term after its stop has valuation >= W; a guard of 1
    can stop before a term of lower valuation, where the series' value is
    wrong and the power is not."""
    v, unit, precision = angle
    if not isinstance(s, int):
        return _power_scan(s, v, precision, ctx).at(unit)
    p, W = ctx.p, ctx.working_precision
    return _power_stop(s, v, ctx).result(PadicNumber.make(p, 0, pow(1 + p**v * unit, -s, p**W), W))


#: digits the Delta_j residues carry beyond N + J e (see :func:`_deltas`)
RESIDUE_MARGIN = 4


@_scoped
def _deltas(F: int, J: int, ctx: QContext) -> List[Parts]:
    """Delta_j = sum_k C(j,k) (-1)^k / (1 + Q^k), Q = q^F, for j < J (the column's
    length, :func:`_series_length`) in integers mod p^M: one column per (F, J, ctx),
    shared by every series of that length in one scope, each value equal to the
    parts of ``ctx.embed(euler_number(j, Q) (1-Q)^j / 2)`` (the closed form of
    :func:`qlfun.qeuler.euler_number` is E_{j,Q} = 2 Delta_j / (1-Q)^j).

    Q = q^F = 1 mod p, so 1 + Q^k = 2 mod p is a unit, and Delta_j mod p^M is
    the j-th difference of the integers 1/(1 + Q^k) mod p^M, from a running
    Q^k and one ``pow(., -1, p^M)`` (of the row's prefix product): the one
    place where a difference is formed from reduced parts, not exact values
    (the running sum [a]_q of :func:`qlfun.numerics.unit_residues` is the one
    such sum).  The differences are taken in plain integers and each Delta_j
    is reduced mod p^M once (reduction is additive).  The values use
    M = N + J e + RESIDUE_MARGIN, with N = working precision + WORKING_MARGIN
    (the digits ``ctx.embed`` keeps) and e = v_p(Q - 1).  A nonzero residue
    p^v u gives v = v_p(Delta_j) and u mod p^(M - v), accepted when
    M - v >= N, so a shorter column is a prefix of a longer one.  The bound
    v_p(Delta_j) >= j e (proved in :func:`_term_column`) is why that holds almost
    always; it is checked per value: a zero or short residue takes the exact route.
    """
    p, N, Q = ctx.p, ctx.working_precision + WORKING_MARGIN, ctx.q**F
    M = N + J * v_p(Q - 1, p) + RESIDUE_MARGIN
    mod = p**M
    Qm = Q.numerator * pow(Q.denominator, -1, mod) % mod
    dens = [1 + Qk for Qk in itertools.accumulate(
        itertools.repeat(Qm, J - 1), lambda x, y: x * y % mod, initial=1)]
    prefix = list(itertools.accumulate(dens, lambda x, y: x * y % mod))
    inv, row = pow(prefix[-1], -1, mod), [0] * J
    for k in range(J - 1, 0, -1):  # inv is 1/(dens[0] ... dens[k]) here
        row[k], inv = inv * prefix[k - 1] % mod, inv * dens[k] % mod
    row[0] = inv

    def value(j: int, delta: int) -> Parts:
        if delta:
            unit, v = _strip_p(delta, p)
            if M - v >= N:
                return v, unit % p**N, N
        return ctx.embed(euler_number(j, Q) * (1 - Q) ** j / 2).parts

    # Delta_j is the first entry after j steps of row[k] - row[k+1], in plain
    # integers: reduction is additive, so each Delta_j is reduced once
    column = []
    for j in range(J):
        column.append(value(j, row[0] % mod))
        row = [x - y for x, y in zip(row, row[1:])]
    return column


@_scoped
def _term_column(n: int, F: int, J: int, ctx: QContext) -> List[Parts]:
    """The unit-free part p^(-j v) Delta_j [q^(nFj) - 1], v = v_p(1 - q), of
    the j-th H (n = 0) or K (n >= 1) term for j < J, one column per (n, F, J,
    ctx).  Unit a's term base is (q^a/(1-q^a))^j Delta_j [q^(nFj) - 1], half
    the paper's (q^a [F]/[a])^j E_{j,q^F} [q^(nFj) - 1], as [F]/(1-q^F) =
    [a]/(1-q^a) = 1/(1-q).  Every q^a/(1-q^a) has valuation -v and N digits
    (:func:`_unit_table`), so with r_a its unit, unit a's base (one
    :func:`mul_parts`, which reduces once) has this entry's valuation and
    precision and its unit times r_a^j: its series is this column's scan at r_a.

    Every entry has valuation >= j v_p(F).  Proof, with Q = q^F and
    e = v_p(Q - 1) = v_p(q - 1) + v_p(F) (p odd and q = 1 mod p):

    * Put y_k = Q^k - 1, so y_0 = 0 and v_p(y_k) >= e for k >= 1.  As
      1 + Q^k = 2 + y_k with 2 a unit, 1/(1 + Q^k) = (1/2) sum_m (-y_k/2)^m,
      and Delta_j = (1/2) sum_m (-1/2)^m D(j, m) with
      D(j, m) = sum_k C(j,k) (-1)^k y_k^m, which is (-1)^j times the j-th
      difference of k -> y_k^m at 0.
    * v_p(D(j, m)) >= m e: each y_k^m has valuation >= m e (y_0^m = 0, m >= 1).
    * v_p(D(j, m)) >= j e: y_k^m = sum_i C(m,i) (-1)^(m-i) Q^(ik), and the
      j-th difference of k -> Q^(ik) at 0 is (Q^i - 1)^j, of valuation
      >= j e for i >= 1 and zero for i = 0 (j >= 1).
    * So v_p(D(j, m)) >= max(j, m) e: the sum over m converges and
      v_p(Delta_j) >= j e.
    * So the entry has valuation >= j e - j v = j v_p(F); K's factor
      q^(nFj) - 1 adds >= e for j >= 1 and is 0 at j = 0.
    * binom(-s, j) is a p-adic integer for every p-adic integer s and
      <a>^(-s) is a unit, so the j-th H or K term has valuation >= j v_p(F)
      too, and the tail after index J has valuation >= (J + 1) v_p(F),
      plus e for K.  As v_p(F) >= 1, the guard fires within the columns.

    Delta_j is read from :func:`_deltas`; K's q^(nFj) - 1 is formed exactly
    first, so that it keeps its relative digits, and embedded once per j."""
    p, N, v = ctx.p, ctx.working_precision + WORKING_MARGIN, v_p(ctx.q - 1, ctx.p)
    column = [mul_parts(p, (-j * v, 1, N), delta) for j, delta in enumerate(_deltas(F, J, ctx))]
    if n:
        qnF = ctx.q ** (n * F)
        column = [mul_parts(p, base, ctx.embed(qnF**j - 1).parts)
                  for j, base in enumerate(column)]
    return column


@_scoped
def _body_scan(n: int, s: PadicExponent, F: int, ctx: QContext) -> SeriesScan:
    """The scan of the H (n = 0) or K (n >= 1) body, sum_j binom(-s, j) times
    :func:`_term_column`'s j-th entry, one per (n, s, F, ctx)."""
    return scan_products(_binomials(s, ctx), _term_column(n, F, _series_length(s, ctx), ctx),
                         ctx, description="K series" if n else "H_pq series")


def _twisted_series(n: int, s: PadicExponent, prm: PartialZetaParams,
                    ctx: QContext) -> SeriesResult:
    """(-1)^a <a>^(-s) sum_j binom(-s, j) (q^a/(1-q^a))^j Delta_j [q^(nFj) - 1],
    the series behind H_pq (n = 0, no last factor) and K_partial (n >= 1),
    whose 2 cancels the paper's 1/2, its body the :func:`_body_scan` at the
    unit of q^a/(1-q^a).  The sign (-1)^a is a negation: the same value as a
    product with embed(-1), as no factor's precision exceeds embed's."""
    a, F = prm.a, prm.F
    angle, (_, ratio, _) = _unit_table(F, ctx)[a]
    unit_pow = _unit_pow(s, angle, ctx)
    body = _body_scan(n, s, F, ctx).at(ratio)
    value = unit_pow.value * body.value
    return merge_series(-value if a % 2 else value, [unit_pow, body])


@_scoped
def H_pq(s: PadicExponent, prm: PartialZetaParams, ctx: QContext) -> SeriesResult:
    """p-adic interpolation of the partial zeta value:
    ((-1)^a / 2) <a>^(-s) sum_j binom(-s, j) q^(ja) ([F]/[a])^j E_{j,q^F},
    as a guarded truncated series.  At s = -n the series is finite and the
    value is the Teichmuller-twisted exact partial zeta value.
    """
    _require_padic_params(prm, ctx, "H_pq")
    return _twisted_series(0, s, prm, ctx)


@_scoped
def _chi_column(chi: DirichletCharacter, F: int, ctx: QContext) -> List[Tuple[int, PadicNumber]]:
    """(a, chi(a)) over the units a <= F where chi(a) is not zero, from the
    integer residue :func:`qlfun.characters.chi_residue` that ``chi_eval`` also
    reads, mod p^(working precision): one column per (chi, F, ctx), shared by
    every s."""
    p, W = ctx.p, ctx.working_precision
    values = ((a, chi_residue(chi, a, p, W)) for a in range(1, F + 1) if a % p)
    return [(a, PadicNumber(p, 0, c, W)) for a, c in values if c]


def _unit_sum(partial: Callable[[PartialZetaParams], SeriesResult],
              chi: DirichletCharacter, F: int, ctx: QContext) -> SeriesResult:
    """2 sum over units a <= F of chi(a) partial(a : F), the character-weighted
    sum behind l_pq, T_full and K_full, which check conductor(chi) | F: the units
    a <= F then run over whole periods of chi.  Without an active series cache
    it opens one, so that its units share one scan per series."""
    if _ACTIVE_CACHE.get() is None:
        with series_cache():
            return _unit_sum(partial, chi, F, ctx)
    acc = ctx.zero()
    parts: List[SeriesResult] = []
    for a, c in _chi_column(chi, F, ctx):
        part = partial(PartialZetaParams(a, F))
        parts.append(part)
        acc = acc + c * part.value
    return merge_series(acc + acc, parts)


def l_pq(
    s: PadicExponent,
    chi: DirichletCharacter,
    ctx: QContext,
    F: Optional[int] = None,
) -> SeriesResult:
    """p-adic l-function: 2 sum over units a <= F of chi(a) H_pq(s, a : F)."""
    if F is None:
        F = math.lcm(ctx.p, chi.conductor)
    if F < 1 or F % 2 == 0 or F % ctx.p != 0:
        raise ValueError("l_pq requires an odd positive multiple of p for F")
    if F % chi.conductor != 0:
        raise ValueError("l_pq requires conductor(chi) | F")
    return _unit_sum(lambda prm: H_pq(s, prm, ctx), chi, F, ctx)


@_scoped
def K_partial(n: int, s: PadicExponent, prm: PartialZetaParams, ctx: QContext) -> SeriesResult:
    """Correction series carrying the q-power twist left over when q^(nFl)
    is expanded around 1:
    ((-1)^a / 2) <a>^(-s) sum_l binom(-s,l) q^(al) ([F]/[a])^l E_{l,q^F}
                              sum_{j=1}^{l} C(l,j) [nF]^j (q-1)^j.

    The inner sum is q^(nFl) - 1, since [nF] (q-1) = q^(nF) - 1.  Every term
    carries at least one factor (q-1), so the value dies as q -> 1."""
    if n < 1:
        raise ValueError("K_partial requires n >= 1")
    _require_padic_params(prm, ctx, "K_partial")
    return _twisted_series(n, s, prm, ctx)


def T_partial(n: int, s: PadicExponent, prm: PartialZetaParams, ctx: QContext) -> SeriesResult:
    """Boundary-term series of the alternating power-sum expansion:
    (-1)^a <a>^(-s) sum_k binom(-s,k) ([F]/[a])^k q^(ak) ((-1)^n q^(nFk) - 1) E_{k,q^F}.

    Derived, not summed: T has twice the scale of H and K, and its factor
    is K's q^(nFk) - 1 for even n and -(q^(nFk) - 1) - 2 for odd n, so term
    by term T = 2 K (n even) and T = -(2 K + 4 H) (n odd), from the scoped
    values.  The equal form 2 ((-1)^n (H + K) - H) would subtract the
    unit-size H for even n too and cap 2 K at H's absolute precision,
    dropping the digits K's valuation adds.  The metadata is merged from the
    series read, as l_pq's is.  Vanishes as q -> 1 for even n."""
    if n < 1:
        raise ValueError("T_partial requires n >= 1")
    _require_padic_params(prm, ctx, "T_partial")
    k_part = K_partial(n, s, prm, ctx)
    twice_k = ctx.embed(2) * k_part.value
    if n % 2 == 0:
        return merge_series(twice_k, [k_part])
    h_part = H_pq(s, prm, ctx)
    return merge_series(-(twice_k + ctx.embed(4) * h_part.value), [h_part, k_part])


def _full_sum(name: str, partial: Callable[[PartialZetaParams], SeriesResult],
              chi: DirichletCharacter, ctx: QContext) -> SeriesResult:
    """The unit sum at F = p of T_full and K_full, which take no F."""
    if ctx.p % chi.conductor != 0:
        raise ValueError(f"{name} requires conductor(chi) = {chi.conductor} "
                         f"to divide F = p = {ctx.p}")
    return _unit_sum(partial, chi, ctx.p, ctx)


def T_full(n: int, s: PadicExponent, chi: DirichletCharacter, ctx: QContext) -> SeriesResult:
    """Character-weighted aggregate of the boundary-term series at F = p."""
    return _full_sum("T_full", lambda prm: T_partial(n, s, prm, ctx), chi, ctx)


def K_full(n: int, s: PadicExponent, chi: DirichletCharacter, ctx: QContext) -> SeriesResult:
    """Character-weighted aggregate of the correction series at F = p."""
    return _full_sum("K_full", lambda prm: K_partial(n, s, prm, ctx), chi, ctx)
