"""Alternating partial zeta values and their p-adic interpolations.

At negative integers everything here has an exact rational closed form
built from the q-Euler polynomials; the p-adic functions reproduce those
closed forms (up to a Teichmuller twist) and extend them to p-adic integer
arguments through guarded binomial series, whose tables one evaluation scope
(:func:`series_cache`) holds per (F, ctx) in a :class:`SeriesTables`.  The
twisted sum at -k reads its character values from ``characters.chi_sum``, one
class per value; the p-adic unit sums read ``characters.chi_residue``.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .characters import DirichletCharacter, chi_residue, chi_sum
from .numerics import (PadicExponent, PadicNumber, Parts, QContext, SeriesParts, SeriesResult,
                       SeriesScan, _strip_p, add_parts, binom_parts, exact_sum_pairs, int_parts,
                       merge_stops, mul_parts, neg_parts, power_column, q_int, residue_parts,
                       scan_products, series_result, unit_residues, v_p)
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


def lq_neg_series_path(k: int, chi: DirichletCharacter, q=None,
                       ctx: Optional[QContext] = None) -> Union[Fraction, PadicNumber]:
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


class SeriesTables:
    """The tables of one (F, ctx) in a series scope, plain dicts keyed by ints, s
    (an int or a PadicNumber) and chi: ``unit_tables`` {F}; ``chi_columns`` {chi};
    ``binomials`` {s}; ``power_scans`` {(s, v, precision)}; ``shapes``
    {(v, precision or None, length)}, the power scans' columns; ``deltas``
    {J}; ``terms`` {(n, J)}; ``scans`` {(n, s)}; ``powers`` {(s, the parts of <a> - 1)};
    ``hk`` {(n, s, a)}, the H/K values' :data:`SeriesParts`; and eq24's
    ``eq24_free_parts`` {n} and ``eq24_heads`` {(r, a)}.  :meth:`read` fills one
    on a miss from its builder."""

    TABLES = ("unit_tables", "chi_columns", "binomials", "power_scans", "shapes", "deltas",
              "terms", "scans", "powers", "hk", "eq24_free_parts", "eq24_heads")

    def __init__(self, F: int, ctx: QContext, scope: "SeriesCache") -> None:
        self.F, self.ctx, self.scope = F, ctx, scope
        for name in self.TABLES:
            setattr(self, name, {})

    def read(self, table: dict, key, build: Callable, *args):
        """table[key], set to build(*args) on a miss (no table holds None)."""
        value = table.get(key)
        if value is None:
            self.scope.misses += 1
            value = table[key] = build(*args)
        else:
            self.scope.hits += 1
        return value

    def series(self, n: int, s: PadicExponent, a: int) -> SeriesParts:
        """H (n = 0) or K (n >= 1) of the unit a < F at s, with no check of its own."""
        return self.read(self.hk, (n, s, a), _twisted_series, n, s, a, self)


class SeriesCache:
    """One evaluation scope: a :class:`SeriesTables` per (F, ctx), made on first
    use, and the hits and misses of their reads."""

    def __init__(self) -> None:
        self.tables: Dict[Tuple[int, QContext], SeriesTables] = {}
        self.hits = self.misses = 0

    def sizes(self) -> Dict[str, int]:
        """Entries per table, over every (F, ctx)."""
        return {name: sum(len(getattr(tables, name)) for tables in self.tables.values())
                for name in SeriesTables.TABLES}


_ACTIVE_CACHE: ContextVar[Optional[SeriesCache]] = ContextVar(
    "qlfun_series_cache", default=None)


@contextmanager
def series_cache() -> Iterator[SeriesCache]:
    """Open a fresh evaluation scope: every series value and every table they
    read is built once, in the :class:`SeriesTables` of its (F, ctx), none per
    unit (a unit's series are the scans evaluated at its own point), and every
    value that depends on s has s in its key.  The tables are dropped (the
    counts kept) when the scope exits: the scope is their only bound.  Outside
    a scope, each public series call reads fresh tables of its own."""
    cache = SeriesCache()
    token = _ACTIVE_CACHE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE_CACHE.reset(token)
        cache.tables.clear()


def _tables(F: int, ctx: QContext) -> SeriesTables:
    """The open scope's tables of (F, ctx); outside a scope, fresh ones."""
    cache = _ACTIVE_CACHE.get()
    if cache is None:  # held by no scope: no cycle keeps them alive after the call
        return SeriesTables(F, ctx, SeriesCache())
    tables = cache.tables.get((F, ctx))
    if tables is None:
        tables = cache.tables[F, ctx] = SeriesTables(F, ctx, cache)
    return tables


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


def _binomials(s: PadicExponent, ctx: QContext) -> List[Parts]:
    """The parts of binom(-s, j) for j < _series_length(s, ctx), read from
    :func:`binom_parts` (the exact binomials' at an integer s), shared by
    <a>^(-s) and the H and K series of every unit a and every n.  binom_parts
    refuses an s that is not a p-adic integer."""
    return list(itertools.islice(binom_parts(-s, ctx), _series_length(s, ctx)))


def _unit_table(F: int, ctx: QContext) -> Dict[int, Tuple[Parts, Parts]]:
    """{a: (the parts of <a> - 1, of q^a/(1-q^a))} for the units a < F, from
    the integer residues of :func:`qlfun.numerics.unit_residues`, shared by
    every s, n and series length.

    <a> - 1 is ``angle_bracket(a, ctx) - ctx.one()``, known to the working
    precision.  q^a/(1-q^a) = q^a/((1-q)[a]_q) has valuation -v_p(1-q), as
    [a]_q is a unit, and the unit of ``ctx.embed(q^a/(1-q^a))``: 1 - q is
    reduced once, and each entry takes one inverse of [a]_q mod p^N.  The
    series that read the table refuse q = 1 first."""
    p, W, N = ctx.p, ctx.working_precision, ctx.embed_precision
    mod = p**N
    v, unit, _ = ctx.embed(1 - ctx.q).parts
    inverse = pow(unit, -1, mod)
    return {a: (residue_parts(p, 0, angle - 1, W),
                (-v, power * pow(bracket, -1, mod) * inverse % mod, N))
            for a, (angle, power, bracket) in unit_residues(F, ctx).items()}


def _power_scan(s: PadicExponent, v: int, precision: int, tables: SeriesTables) -> SeriesScan:
    """The scan of sum_k binom(-s, k) (<a> - 1)^k for every unit a with
    <a> - 1 = p^v t known to ``precision`` digits (0 for a zero): the shape
    column (p^v)^k from ``ctx.one()``, shared by every p-adic s, has the
    valuations and precisions of the (<a> - 1)^k, whose units are t^k, so <a>'s
    series is this scan at t.  Its k-th term has valuation >= k.  At an integer s
    :func:`_unit_pow` reads only its stop, tail bound and flag, from valuations:
    the column is the zeros (k v, 0, 0), keyed apart as (v, None, length)."""
    ctx, length = tables.ctx, _series_length(s, tables.ctx)
    if isinstance(s, int):
        key, start, step = (v, None, length), (0, 0, 0), (v, 0, 0)
    else:
        key, start, step = (v, precision, length), ctx.one().parts, (v, 1, precision)
    shape = tables.read(tables.shapes, key, power_column, ctx.p, start, step, length)
    return scan_products(tables.read(tables.binomials, s, _binomials, s, ctx), shape, ctx,
                         description="binomial power series")


def _unit_pow(s: PadicExponent, angle: Parts, tables: SeriesTables) -> SeriesParts:
    """<a>^(-s), the series of ``padic_pow(<a>, -s)`` as its :data:`SeriesParts`,
    with ``angle`` = (v, t, precision) the parts of <a> - 1 (:func:`_unit_table`),
    from the :func:`_power_scan` of (s, v, precision): at a p-adic s the scan at
    t; at an integer s one modular power, (1 + p^v t)^(-s) mod p^W, W the working
    precision, with the scan's stop and tail bound, which read the terms'
    valuations alone (a missed guard raises with the power as the partial).
    The series' value is that power whenever every term after its stop has
    valuation >= W; a guard of 1 can stop before a term of lower valuation,
    where the series' value is wrong and the power is not."""
    v, unit, precision = angle
    key = (s, v, precision)
    scan = tables.read(tables.power_scans, key, _power_scan, *key, tables)
    if not isinstance(s, int):
        return scan.at(unit)
    p, W = tables.ctx.p, tables.ctx.working_precision
    return scan.result(residue_parts(p, 0, pow(1 + p**v * unit, -s, p**W), W))


#: digits the Delta_j residues carry beyond N + J e (see :func:`_deltas`)
RESIDUE_MARGIN = 4


def _deltas(F: int, J: int, ctx: QContext) -> List[Parts]:
    """Delta_j = sum_k C(j,k) (-1)^k / (1 + Q^k), Q = q^F, for j < J (the column's
    length, :func:`_series_length`) in integers mod p^M, each value equal to
    the parts of ``ctx.embed(euler_number(j, Q) (1-Q)^j / 2)`` (the closed form
    of :func:`qlfun.qeuler.euler_number` is E_{j,Q} = 2 Delta_j / (1-Q)^j).

    Q = q^F = 1 mod p, so 1 + Q^k = 2 mod p is a unit, and Delta_j mod p^M is
    the j-th difference of the integers 1/(1 + Q^k) mod p^M, from a running
    Q^k and one ``pow(., -1, p^M)`` (of the row's prefix product), taken in
    plain integers and reduced mod p^M once (reduction is additive), with
    M = N + J e + RESIDUE_MARGIN, N = ``ctx.embed_precision`` (the digits
    ``ctx.embed`` keeps) and e = v_p(Q - 1).  A nonzero residue
    p^v u gives v = v_p(Delta_j) and u mod p^(M - v), accepted when
    M - v >= N, so a shorter column is a prefix of a longer one.  The bound
    v_p(Delta_j) >= j e (proved in :func:`_term_column`) is why that holds almost
    always; it is checked per value: a zero or short residue takes the exact route.
    """
    p, N, Q = ctx.p, ctx.embed_precision, ctx.q**F
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


def _term_column(n: int, J: int, tables: SeriesTables) -> List[Parts]:
    """The unit-free part p^(-j v) Delta_j [q^(nFj) - 1], v = v_p(1 - q), of the
    j-th H (n = 0) or K (n >= 1) term for j < J, F the tables'.  Unit a's term
    base is (q^a/(1-q^a))^j Delta_j [q^(nFj) - 1], half the paper's
    (q^a [F]/[a])^j E_{j,q^F} [q^(nFj) - 1], as [F]/(1-q^F) = [a]/(1-q^a) =
    1/(1-q).  Every q^a/(1-q^a) has valuation -v and N digits
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
    ctx, F = tables.ctx, tables.F
    p, N, v = ctx.p, ctx.embed_precision, v_p(ctx.q - 1, ctx.p)
    deltas = tables.read(tables.deltas, J, _deltas, F, J, ctx)
    column = [mul_parts(p, (-j * v, 1, N), delta) for j, delta in enumerate(deltas)]
    if n:
        qnF = ctx.q ** (n * F)
        column = [mul_parts(p, base, ctx.embed(qnF**j - 1).parts)
                  for j, base in enumerate(column)]
    return column


def _body_scan(n: int, s: PadicExponent, tables: SeriesTables) -> SeriesScan:
    """The scan of the H (n = 0) or K (n >= 1) body, sum_j binom(-s, j) times
    :func:`_term_column`'s j-th entry."""
    ctx, J = tables.ctx, _series_length(s, tables.ctx)
    return scan_products(tables.read(tables.binomials, s, _binomials, s, ctx),
                         tables.read(tables.terms, (n, J), _term_column, n, J, tables),
                         ctx, description="K series" if n else "H_pq series")


def _twisted_series(n: int, s: PadicExponent, a: int, tables: SeriesTables) -> SeriesParts:
    """(-1)^a <a>^(-s) sum_j binom(-s, j) (q^a/(1-q^a))^j Delta_j [q^(nFj) - 1],
    the series behind H_pq (n = 0, no last factor) and K_partial (n >= 1),
    whose 2 cancels the paper's 1/2, its body the :func:`_body_scan` at the
    unit of q^a/(1-q^a), read from unit a's entry of the unit table, all on
    parts.  The sign (-1)^a is :func:`neg_parts`: the same value as a product
    with embed(-1), as no factor's precision exceeds embed's."""
    F, ctx = tables.F, tables.ctx
    angle, (_, ratio, _) = tables.read(tables.unit_tables, F, _unit_table, F, ctx)[a]
    unit_pow = tables.read(tables.powers, (s, angle), _unit_pow, s, angle, tables)
    body = tables.read(tables.scans, (n, s), _body_scan, n, s, tables).at(ratio)
    value = mul_parts(ctx.p, unit_pow[0], body[0])
    return merge_stops(neg_parts(ctx.p, value) if a % 2 else value, [unit_pow, body])


def H_pq(s: PadicExponent, prm: PartialZetaParams, ctx: QContext) -> SeriesResult:
    """p-adic interpolation of the partial zeta value:
    ((-1)^a / 2) <a>^(-s) sum_j binom(-s, j) q^(ja) ([F]/[a])^j E_{j,q^F},
    as a guarded truncated series.  At s = -n the series is finite and the
    value is the Teichmuller-twisted exact partial zeta value.
    """
    _require_padic_params(prm, ctx, "H_pq")
    return series_result(ctx.p, _tables(prm.F, ctx).series(0, s, prm.a))


def _chi_column(chi: DirichletCharacter, F: int, ctx: QContext) -> List[Tuple[int, Parts]]:
    """(a, the parts of chi(a)) over the units a <= F where chi(a) is not zero,
    from the integer residue :func:`qlfun.characters.chi_residue` that
    ``chi_eval`` also reads, mod p^(working precision), shared by every s."""
    p, W = ctx.p, ctx.working_precision
    values = ((a, chi_residue(chi, a, p, W)) for a in range(1, F + 1) if a % p)
    return [(a, (0, c, W)) for a, c in values if c]


def _unit_sum(part: Callable[[SeriesTables, int], SeriesParts],
              chi: DirichletCharacter, F: int, ctx: QContext) -> SeriesResult:
    """2 sum over units a <= F of chi(a) part(tables, a), on parts, made one
    SeriesResult at the end, behind l_pq, T_full, K_full and ``verify.thm5_rhs``,
    which check the series' arguments and conductor(chi) | F (so the units run
    over whole periods of chi); the units share the (F, ctx) tables."""
    p, tables, acc, parts = ctx.p, _tables(F, ctx), ctx.zero().parts, []
    for a, c in tables.read(tables.chi_columns, chi, _chi_column, chi, F, ctx):
        parts.append(part(tables, a))
        acc = add_parts(p, acc, mul_parts(p, c, parts[-1][0]))
    return series_result(p, merge_stops(add_parts(p, acc, acc), parts))


def l_pq(s: PadicExponent, chi: DirichletCharacter, ctx: QContext,
         F: Optional[int] = None) -> SeriesResult:
    """p-adic l-function: 2 sum over units a <= F of chi(a) H_pq(s, a : F)."""
    if F is None:
        F = math.lcm(ctx.p, chi.conductor)
    if F < 1 or F % 2 == 0 or F % ctx.p != 0:
        raise ValueError("l_pq requires an odd positive multiple of p for F")
    if F % chi.conductor != 0:
        raise ValueError("l_pq requires conductor(chi) | F")
    ctx.require_q_not_one("H_pq")
    return _unit_sum(lambda tables, a: tables.series(0, s, a), chi, F, ctx)


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
    return series_result(ctx.p, _tables(prm.F, ctx).series(n, s, prm.a))


def _hk_series(tables: SeriesTables, n: int, s: PadicExponent, a: int) -> SeriesParts:
    """H + K of the unit a < F at s from the tables' values, with no check of its own."""
    h_part, k_part = tables.series(0, s, a), tables.series(n, s, a)
    return merge_stops(add_parts(tables.ctx.p, h_part[0], k_part[0]), [h_part, k_part])


def _boundary_series(tables: SeriesTables, n: int, s: PadicExponent, a: int) -> SeriesParts:
    """T_partial of the unit a < F at s from the tables' K and H values, on parts."""
    ctx, k_part = tables.ctx, tables.series(n, s, a)
    p, N = ctx.p, ctx.embed_precision
    twice_k = mul_parts(p, int_parts(2, p, N), k_part[0])
    if n % 2 == 0:
        return merge_stops(twice_k, [k_part])
    h_part = tables.series(0, s, a)
    total = add_parts(p, twice_k, mul_parts(p, int_parts(4, p, N), h_part[0]))
    return merge_stops(neg_parts(p, total), [h_part, k_part])


def T_partial(n: int, s: PadicExponent, prm: PartialZetaParams, ctx: QContext) -> SeriesResult:
    """Boundary-term series of the alternating power-sum expansion:
    (-1)^a <a>^(-s) sum_k binom(-s,k) ([F]/[a])^k q^(ak) ((-1)^n q^(nFk) - 1) E_{k,q^F}.

    Derived, not summed: T has twice the scale of H and K, and its factor
    is K's q^(nFk) - 1 for even n and -(q^(nFk) - 1) - 2 for odd n, so term
    by term T = 2 K (n even) and T = -(2 K + 4 H) (n odd), from the tables'
    values.  The equal form 2 ((-1)^n (H + K) - H) would subtract the
    unit-size H for even n too and cap 2 K at H's absolute precision,
    dropping the digits K's valuation adds.  The metadata is merged from the
    series read, as l_pq's is.  Vanishes as q -> 1 for even n."""
    if n < 1:
        raise ValueError("T_partial requires n >= 1")
    _require_padic_params(prm, ctx, "T_partial")
    return series_result(ctx.p, _boundary_series(_tables(prm.F, ctx), n, s, prm.a))


def _full_sum(name: str, partial: str, n: int,
              part: Callable[[SeriesTables, int], SeriesParts],
              chi: DirichletCharacter, ctx: QContext) -> SeriesResult:
    """The unit sum at F = p of T_full and K_full, which take no F, after the
    checks of the partial series it sums (T_partial's or K_partial's)."""
    if ctx.p % chi.conductor != 0:
        raise ValueError(f"{name} requires conductor(chi) = {chi.conductor} "
                         f"to divide F = p = {ctx.p}")
    if n < 1:
        raise ValueError(f"{partial} requires n >= 1")
    ctx.require_q_not_one(partial)
    return _unit_sum(part, chi, ctx.p, ctx)


def T_full(n: int, s: PadicExponent, chi: DirichletCharacter, ctx: QContext) -> SeriesResult:
    """Character-weighted aggregate of the boundary-term series at F = p."""
    return _full_sum("T_full", "T_partial", n,
                     lambda tables, a: _boundary_series(tables, n, s, a), chi, ctx)


def K_full(n: int, s: PadicExponent, chi: DirichletCharacter, ctx: QContext) -> SeriesResult:
    """Character-weighted aggregate of the correction series at F = p."""
    return _full_sum("K_full", "K_partial", n, lambda tables, a: tables.series(n, s, a), chi, ctx)
