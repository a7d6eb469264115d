"""Machine verification of the library's identity chain.

The centerpiece is the power-sum expansion harness (``thm5_*``): the exact
alternating sum of inverse q-integer powers over units below np is compared,
mod p**precision, both against the expansion as printed in its source
(``thm5_rhs``) and against a stepwise re-derived chain whose individual
steps (labelled eq24, eq26, eq27, eq30, assembly) are each checked
independently.  A failing printed step is data, not an error: the report
records every residual valuation and which step deviates.

Also here: congruence checks and scans for the l-function twists, the exact
inverse-power-sum identity, the binomial coefficient identities the
expansion rests on, and classical-limit checks against a Bernoulli-number
oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .characters import DirichletCharacter
from .lfun import (K_partial, PartialZetaParams, SeriesCache, T_partial, _boundary_series,
                   _hk_series, _tables, _unit_sum, l_pq, series_cache)
from .numerics import (INF, PadicNumber, Parts, QContext, SeriesResult, Valuation, binom_int,
                       exact_sum, exact_sum_pairs, int_parts, merge_series, mul_parts, q_int,
                       require_odd_prime, residual_valuation, sum_products, teichmuller, v_p,
                       valuation_json)
from .qeuler import (
    _closed_form_pair,
    _closed_form_row,
    alt_power_sum_brute,
    alt_power_sum_closed,
    distribution_sum,
    euler_number,
    euler_poly,
    euler_poly_moments,
)

STEP_LABELS = ("eq24", "eq26", "eq27", "eq30", "assembly")
LIMIT_SLACK = 1  # the digits v_p(E_{m, 1+p^k} - E_m) may fall short of k


# ---------------------------------------------------------------------------
# Classical oracles
# ---------------------------------------------------------------------------

def bernoulli_numbers(n_max: int) -> List[Fraction]:
    """B_0..B_n by the textbook recurrence sum_k C(m+1,k) B_k = 0 (B_1 = -1/2)."""
    if n_max < 0:
        raise ValueError("bernoulli_numbers requires n_max >= 0")
    out = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = exact_sum_pairs((math.comb(m + 1, k) * b.numerator, b.denominator)
                              for k, b in enumerate(out))
        out.append(-acc / (m + 1))
    return out


def _classical_euler(m: int, bern: Sequence[Fraction]) -> Fraction:
    """E_m = 2 (1 - 2^(m+1)) B_{m+1} / (m+1) from a table that holds B_{m+1}."""
    return Fraction(2) * (1 - Fraction(2) ** (m + 1)) * bern[m + 1] / (m + 1)


def classical_euler_number(m: int) -> Fraction:
    """Euler polynomial at 0 via Bernoulli numbers: 2 (1 - 2^(m+1)) B_{m+1} / (m+1)."""
    if m < 0:
        raise ValueError("classical_euler_number requires m >= 0")
    return _classical_euler(m, bernoulli_numbers(m + 1))


def classical_limit_check(m_max: int, p: int, k_list: Sequence[int]) -> dict:
    """Check v_p(E_{m, 1+p^k} - E_m) >= k - LIMIT_SLACK over the grid; E_m from the
    Bernoulli oracle, one table of B_0..B_{m_max+1} for the whole grid.  Returns a
    report with every observed valuation."""
    require_odd_prime(p)
    rows = []
    ok = True
    bern = bernoulli_numbers(m_max + 1) if m_max >= 0 else []
    for m in range(m_max + 1):
        target = _classical_euler(m, bern)
        for k in k_list:
            qk = 1 + Fraction(p) ** k
            diff = euler_number(m, qk) - target
            val = v_p(diff, p)
            passed = val >= k - LIMIT_SLACK
            ok = ok and passed
            rows.append({"m": m, "k": k, "valuation": valuation_json(val),
                         "required": k - LIMIT_SLACK, "ok": passed})
    return {"p": p, "m_max": m_max, "k_list": list(k_list), "slack": LIMIT_SLACK,
            "rows": rows, "ok": ok}


# ---------------------------------------------------------------------------
# Exact identity checks
# ---------------------------------------------------------------------------

def alt_power_sum_misprinted(n: int, m: int, q) -> Fraction:
    """The power-sum closed form with the spurious extra factor q^n on the
    polynomial term; kept as a pinned erratum regression, not for use."""
    q = Fraction(q)
    return (Fraction((-1) ** (n + 1)) * q**n * euler_poly(m, n, q)
            + euler_number(m, q))


def remark_check(p: int, q) -> bool:
    """Exact identity: over j = 1..p-1, the alternating sums of q^j/[j] and
    of 1/[j] coincide; also checks the kernel identity 1/[j] - (1-q) = q^j/[j]."""
    q = Fraction(q)
    if q == 1:
        raise ValueError("remark_check requires q != 1")
    if q == -1:
        raise ValueError("remark_check requires q != -1: [j]_q = 0 for even j")
    counts = [q_int(j, q) for j in range(1, p)]
    if any(Fraction(1) / cnt - (1 - q) != q**j / cnt for j, cnt in enumerate(counts, 1)):
        return False
    return (exact_sum((-1) ** j * q**j / cnt for j, cnt in enumerate(counts, 1))
            == exact_sum((-1) ** j / cnt for j, cnt in enumerate(counts, 1)))


def binom_identities_check(r_range: Sequence[int], k_range: Sequence[int],
                           j_range: Sequence[int]) -> bool:
    """Exact integer check of the three binomial identities of the power-sum expansion over
    the grid, honoring their side conditions (j + k > 0, r + k != 1; r + k != 0 for the third)."""
    for r in r_range:
        for k in k_range:
            for j in j_range:
                top = binom_int(k + j, j)
                if j + k > 0 and r + k != 1:
                    lhs = binom_int(-r, k) * binom_int(1 - r - k, j)
                    if lhs * (j + k) != -binom_int(-r, k + j - 1) * top * (r + k - 1):
                        return False
                    if r != 1 and lhs * (r - 1) != binom_int(1 - r, k + j) * top * (r + k - 1):
                        return False
                if r + k != 0 and (r * binom_int(-r - 1, k) * binom_int(-r - k, j)
                                   != binom_int(-r, k + j) * top * (r + k)):
                    return False
    return True


def identity_suite() -> Dict[str, bool]:
    """The exact identity suite, each check by name: dual-path polynomial
    values, the multiplication-by-m relation, power-sum closed forms (with
    the misprinted-variant regression pinned), the inverse power-sum
    identity and the binomial coefficient identities."""
    qs = [Fraction(2), Fraction(1, 2), Fraction(4), Fraction(1 - 3), Fraction(1 + 5)]
    return {
        "poly_paths_agree": all(
            euler_poly(n, x, q) == euler_poly_moments(n, x, q)
            for q in qs for n in range(9) for x in range(7)),
        "distribution_relation": all(
            euler_poly(n, x, q) == distribution_sum(n, x, m, q)
            for q in qs for m in (1, 3, 5) for n in range(7) for x in range(4)),
        "power_sum_closed_form": all(
            alt_power_sum_brute(n, m, q) == alt_power_sum_closed(n, m, q)
            for q in qs for n in range(1, 9) for m in range(1, 7)),
        "misprint_regression": (
            alt_power_sum_misprinted(2, 1, Fraction(2)) == Fraction(-7)
            and alt_power_sum_brute(2, 1, Fraction(2)) == Fraction(-2)),
        "inverse_power_sum": all(
            remark_check(p, q)
            for p in (3, 5, 7) for q in (Fraction(2), Fraction(5), Fraction(7, 3))),
        "binomial_identities": binom_identities_check(range(1, 9), range(7), range(7)),
    }


# ---------------------------------------------------------------------------
# Power-sum expansion harness
# ---------------------------------------------------------------------------

def thm5_lhs_exact(n: int, r: int, ctx: QContext) -> Fraction:
    """2 sum over units j <= np of (-1)^j / [j]^r, exactly."""
    if n < 1 or r < 1:
        raise ValueError("thm5 requires n, r >= 1")
    return 2 * exact_sum(Fraction((-1) ** j) / q_int(j, ctx.q) ** r
                         for j in range(1, n * ctx.p + 1) if j % ctx.p)


def _binomial_column(r: int, start: PadicNumber, step: PadicNumber,
                     ctx: QContext) -> Iterator[Parts]:
    """The parts of binom(-r, k) start step^k, k = 0, 1, ..., the outer factors of
    both k-series and eq24's heads: :func:`mul_parts` is associative and
    commutative, so each is the PadicNumber product's in any order.  The printed
    coefficient (r/(r+k)) binom(-r-1, k) is binom(-r, k) (``binom_identities_check``'s
    third identity at j = 0), an integer, (-1)^k C(r+k-1, k), whose ``ctx.embed``
    parts are its :func:`int_parts`."""
    p, N, power, step = ctx.p, ctx.embed_precision, start.parts, step.parts
    for k in itertools.count():
        yield mul_parts(p, int_parts(binom_int(-r, k), p, N), power)
        power = mul_parts(p, power, step)


def thm5_rhs(n: int, r: int, ctx: QContext) -> SeriesResult:
    """The expansion exactly as printed: minus the k-series of l-values,
    minus the k-series of correction aggregates, minus the boundary aggregate,
    all with twist exponent -(r+k) and F = p.

    The k-series folds the :func:`_binomial_column` of -(-1)^n [pn]^k against
    (l + K)(r + k), read lazily (none past the stop) as one unit sum of w^(-r-k)(a)
    ``lfun._hk_series``; T is the unit sum of ``lfun._boundary_series``, and q != 1 is
    checked once.  The k-th term has valuation >= k, so its guard fires within
    ctx.column_length terms: binom(-r, k) is an integer, v_p([pn]^k) >= k, and
    (l + K)(r + k) is a p-adic integer (chi(a) and the H and K values are)."""
    if n < 1 or r < 1:
        raise ValueError("thm5 requires n, r >= 1")
    ctx.require_q_not_one("H_pq")
    p, parts = ctx.p, []

    def values():
        for s in itertools.count(r):
            parts.append(_unit_sum(lambda tables, a: _hk_series(tables, n, s, a),
                                   DirichletCharacter.teichmuller_power(-s, p), p, ctx))
            yield parts[-1].value.parts

    start, step = ctx.embed((-1) ** (n + 1)) * ctx.one(), ctx.embed(q_int(p * n, ctx.q))
    body = sum_products(_binomial_column(r, start, step, ctx), values(), ctx,
                        description="thm5 rhs k-series")
    t_part = _unit_sum(lambda tables, a: _boundary_series(tables, n, r, a),
                       DirichletCharacter.teichmuller_power(-r, p), p, ctx)
    merged = merge_series(body.value - t_part.value, [*parts, t_part, body])
    return replace(merged, last_index=body.last_index)


@dataclass(frozen=True)
class Thm5Report:
    """Outcome of one grid point of the power-sum expansion harness.

    ``residual_valuation`` compares the exact sum against the printed
    expansion; ``chain_residual_valuation`` against the re-derived chain.
    ``step_residuals`` localizes the first deviating identity when the
    printed form fails (a residual below the target precision means the
    step as printed does not hold at that grid point).  ``precision`` is
    the target the report was computed at, and the cache counts are this
    point's own table reads in the series scope it ran in (shared with the
    grid's other points, so a value an earlier point computed counts as a
    hit); none of the three is part of the JSON form.
    """

    lhs: PadicNumber
    rhs: PadicNumber
    residual_valuation: Valuation
    truncation_index: int
    step_residuals: Dict[str, Valuation]
    chain_residual_valuation: Valuation
    first_failing_step: Optional[str]
    precision: int
    cache_hits: int = 0
    cache_misses: int = 0

    def passes(self, target: Optional[int] = None) -> bool:
        """True when either the printed expansion or the re-derived chain
        reproduces the exact sum at target precision (with the regrouping
        and expansion steps independently verified)."""
        if target is None:
            target = self.precision
        printed_ok = self.residual_valuation >= target
        chain_ok = (self.chain_residual_valuation >= target
                    and self.step_residuals["eq24"] >= target
                    and self.step_residuals["eq30"] >= target)
        return printed_ok or chain_ok

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs.to_json_dict(),
            "rhs": self.rhs.to_json_dict(),
            "residual_valuation": valuation_json(self.residual_valuation),
            "truncation_index": self.truncation_index,
            "step_residuals": {k: valuation_json(v) for k, v in self.step_residuals.items()},
            "chain_residual_valuation": valuation_json(self.chain_residual_valuation),
            "first_failing_step": self.first_failing_step,
        }


def _partial_sum_exact(n: int, r: int, a: int, ctx: QContext) -> Fraction:
    """sum_{l<n} (-1)^(a+Fl) / [a+Fl]^r with F = p, exactly."""
    return exact_sum(Fraction((-1) ** j) / q_int(j, ctx.q) ** r
                     for j in range(a, a + n * ctx.p, ctx.p))


def _eq24_free_parts(n: int, ctx: QContext) -> Tuple[List[Parts], List[Parts]]:
    """The parts of embed(g1 + g2) and embed(g1), s < ctx.column_length, Q = q^p:
    eq24's factors free of a and r, g1 = (-1)^n inner/2 and
    g2 = ((-1)^n Q^(ns) - 1) E_{s,Q}/2, two columns per (n, ctx), exact until
    embedded (group 2 is the exact route eq26 checks T against).  inner =
    E_{s,Q}(n) - Q^(ns) E_{s,Q} is the moment sum sum_{l<s} C(s,l) Q^(nl)
    E_{l,Q} [n]_Q^(s-l) (``identity_suite``'s ``poly_paths_agree``).  Each entry
    is one two-weight closed form at the arguments Q^n and 1: g1 + g2 =
    ((-1)^n E_{s,Q}(n) - E_{s,Q})/2, and g1 with its weights scaled by
    Qb^(ns) (Q^(ns) = Qa^(ns)/Qb^(ns), running powers), then divided out."""
    Q = ctx.q**ctx.p
    sign, xa, xb = (-1) ** n, Q.numerator**n, Q.denominator**n
    both, group1, xa_s, xb_s = [], [], 1, 1
    for s in range(ctx.column_length):
        row = _closed_form_row(s, Q, "euler_number")
        num, den = _closed_form_pair(row, xb, [(sign, xa), (-1, xb)])
        both.append(ctx.embed(Fraction(num, 2 * den)).parts)
        num, den = _closed_form_pair(row, xb, [(sign * xb_s, xa), (-sign * xa_s, xb)])
        group1.append(ctx.embed(Fraction(num, 2 * xb_s * den)).parts)
        xa_s, xb_s = xa_s * xa, xb_s * xb
    return both, group1


def _eq24_heads(r: int, a: int, ctx: QContext) -> List[Parts]:
    """The :func:`_binomial_column` of -[a]^(-r) (-1)^a and q^a [p]/[a], its first
    ctx.column_length entries, one column per (r, a, ctx): as embed(x y) is the
    :func:`mul_parts` product of embed(x) and embed(y), its product with a
    :func:`_eq24_free_parts` entry is the embedded exact term.  Entry s has
    valuation >= s and the free parts are p-integral (E_{s,Q} = 2 Delta_s/(1-Q)^s
    and ``lfun._term_column``' bound), so eq24's guards fire within the columns."""
    q, count_a = ctx.q, q_int(a, ctx.q)
    column = _binomial_column(r, ctx.embed(-count_a ** (-r) * (-1) ** a),
                              ctx.embed(q**a * q_int(ctx.p, q) / count_a), ctx)
    return list(itertools.islice(column, ctx.column_length))


def _boundary_piece(n: int, r: int, a: int, ctx: QContext) -> PadicNumber:
    """-(w^(-r)(a)/2) T(n, r, a : p): the boundary term in character form, T read
    unchecked from the tables (the point's :func:`thm5_rhs` has refused q = 1)."""
    w = teichmuller(pow(a, -r, ctx.p), ctx.p, ctx.working_precision)
    t_parts, _, _ = _boundary_series(_tables(ctx.p, ctx), n, r, a)
    return -(w * PadicNumber(ctx.p, *t_parts)) / ctx.embed(2)


def _expansion_group(n: int, r: int, a: int, ctx: QContext,
                     with_correction: bool = True) -> PadicNumber:
    """The reindexed k-series for one unit a:
    -(-1)^n sum_{k>=1} coeff_k q^(ak) [pn]^k w^(-r-k)(a) (H [+ K])(r+k, a : p).

    This is the chain-exact counterpart of the printed aggregate step: the
    twist q^(ak) stays inside, and the series starts at k = 1.  Without the
    correction part it is the bare l-series group, which carries the whole
    sum once q is close enough to 1 for the boundary and correction series
    to vanish (n even).  Folded as :func:`thm5_rhs`'s, from k = 1, over the
    :func:`_binomial_column` of -(-1)^n w^(-r)(a) and q^a [pn] w^(-1)(a) (w^t(a)
    the lift of a^t mod p), with H [+ K] read from the tables.

    Its k-th term has valuation >= k, so its guard fires within
    ctx.column_length terms: coeff_k is an integer, v_p((q^a [pn])^k) >= k,
    w(a) is a unit and H and K at s = r + k are p-adic integers."""
    p, W, tables = ctx.p, ctx.working_precision, _tables(ctx.p, ctx)
    ctx.require_q_not_one("H_pq")  # the one check of the H and K values read: a < p is a unit
    start = ctx.embed((-1) ** (n + 1)) * teichmuller(pow(a, -r, p), p, W)
    step = ctx.embed(ctx.q**a * q_int(p * n, ctx.q)) * teichmuller(pow(a, -1, p), p, W)

    def values():
        for s in itertools.count(r + 1):
            piece = _hk_series(tables, n, s, a) if with_correction else tables.series(0, s, a)
            yield piece[0]

    outer = itertools.islice(_binomial_column(r, start, step, ctx), 1, None)
    return sum_products(outer, values(), ctx, description="chain k-series").value


def _residual_sentinel(a: PadicNumber, b: PadicNumber) -> Valuation:
    """Residual valuation with the report convention: the infinity sentinel
    whenever the two values are indistinguishable at the available precision.
    Reports (and their JSON form) encode that case as ``inf``, where
    :func:`residual_valuation` returns the zero difference's finite bound."""
    d = a - b
    return INF if d.is_zero else d.valuation


def _thm5_point(n: int, r: int, ctx: QContext, cache: SeriesCache) -> Thm5Report:
    """One grid point inside the open series scope: exact sum, printed
    expansion, re-derived chain, and per-step residual valuations.  The
    report counts only this point's own table reads."""
    hits, misses, tables = cache.hits, cache.misses, _tables(ctx.p, ctx)
    lhs_exact = thm5_lhs_exact(n, r, ctx)
    lhs = ctx.embed(lhs_exact)
    printed = thm5_rhs(n, r, ctx)

    eq24_vals: List[Valuation] = []
    eq26_vals: List[Valuation] = []
    eq27_vals: List[Valuation] = []
    chain_total = ctx.zero()
    partials: List[Fraction] = []
    for a in range(1, ctx.p):
        partials.append(_partial_sum_exact(n, r, a, ctx))
        partial_exact = ctx.embed(partials[-1])
        # eq24's series and its group 1 alone, folds over the same heads
        heads = tables.read(tables.eq24_heads, (r, a), _eq24_heads, r, a, ctx)
        both, group1_free = tables.read(tables.eq24_free_parts, n, _eq24_free_parts, n, ctx)
        series24 = sum_products(heads, both, ctx, description="eq24 series")
        group1 = sum_products(heads, group1_free, ctx, description="group1 series")
        eq24_vals.append(_residual_sentinel(partial_exact, series24.value))
        boundary = _boundary_piece(n, r, a, ctx)
        eq26_vals.append(_residual_sentinel(partial_exact, group1.value + boundary))

        hk_value = _expansion_group(n, r, a, ctx)
        eq27_vals.append(_residual_sentinel(group1.value, hk_value))

        chain_total = chain_total + hk_value + boundary
    chain_value = ctx.embed(2) * chain_total

    # regrouping of the exact index set: an exact rational identity
    regrouped = 2 * sum(partials)
    eq30_val: Valuation = INF if regrouped == lhs_exact else v_p(regrouped - lhs_exact, ctx.p)

    step_residuals: Dict[str, Valuation] = {
        "eq24": min(eq24_vals, default=INF),
        "eq26": min(eq26_vals, default=INF),
        "eq27": min(eq27_vals, default=INF),
        "eq30": eq30_val,
        "assembly": _residual_sentinel(chain_value, printed.value),
    }
    first_failing = next((label for label in STEP_LABELS
                          if step_residuals[label] < ctx.precision), None)

    return Thm5Report(
        lhs=lhs.at_absolute_precision(ctx.precision),
        rhs=printed.value.at_absolute_precision(ctx.precision),
        residual_valuation=_residual_sentinel(lhs, printed.value),
        truncation_index=printed.last_index,
        step_residuals=step_residuals,
        chain_residual_valuation=_residual_sentinel(lhs, chain_value),
        first_failing_step=first_failing,
        precision=ctx.precision,
        cache_hits=cache.hits - hits,
        cache_misses=cache.misses - misses,
    )


def thm5_report(n: int, r: int, ctx: QContext) -> Thm5Report:
    """Run one grid point in a fresh series cache, so the printed and chain
    routes share their H/K/T values while a rerun starts cold."""
    return thm5_grid([n], [r], ctx)[0]


def thm5_grid(n_values: Sequence[int], r_values: Sequence[int],
              ctx: QContext) -> List[Thm5Report]:
    """Run every (n, r) point, n-major, in one series cache: points that
    share an H_pq(r+k, a:p) or K_partial value compute it once."""
    with series_cache() as cache:
        return [_thm5_point(n, r, ctx, cache) for n in n_values for r in r_values]


def thm5_qone_surrogate(n: int, r: int, ctx: QContext) -> dict:
    """Near-classical regime check: for even n and q close to 1 (say
    q = 1 + p**depth), every boundary and correction contribution carries
    at least the valuation of q - 1, so the exact sum is reproduced by the
    bare l-series group alone at that depth.  Returns the observed evidence.
    The units share one series scope, and so one Delta_j column.
    """
    if n % 2:
        raise ValueError("the near-classical collapse needs even n")
    depth = v_p(ctx.q - 1, ctx.p)
    lhs = ctx.embed(thm5_lhs_exact(n, r, ctx))
    total = ctx.zero()
    boundary_vals: List[Valuation] = []
    correction_vals: List[Valuation] = []
    with series_cache():
        for a in range(1, ctx.p):
            prm = PartialZetaParams(a, ctx.p)
            boundary_vals.append(T_partial(n, r, prm, ctx).value.valuation)
            correction_vals.append(K_partial(n, r + 1, prm, ctx).value.valuation)
            total = total + _expansion_group(n, r, a, ctx, with_correction=False)
    residual = _residual_sentinel(lhs, ctx.embed(2) * total)
    return {
        "p": ctx.p,
        "n": n,
        "r": r,
        "depth": valuation_json(depth),
        "boundary_valuations": [valuation_json(v) for v in boundary_vals],
        "correction_valuations": [valuation_json(v) for v in correction_vals],
        "l_group_residual_valuation": valuation_json(residual),
        "ok": (min(boundary_vals) >= depth and min(correction_vals) >= depth
               and residual >= depth),
    }


# ---------------------------------------------------------------------------
# Congruence checks and scans
# ---------------------------------------------------------------------------

def congruence_check_eq20(n: int, t: int, ctx: QContext) -> Tuple[bool, Valuation]:
    """l_pq(-n, w^t) against the exact E_{n,q} - [p]^n E_{n,q^p}, for
    n = t mod (p-1); true when they agree at precision - v_p(n!) - 2."""
    if n < 1:
        raise ValueError("congruence_check_eq20 requires n >= 1")
    if (n - t) % (ctx.p - 1) != 0:
        raise ValueError("congruence_check_eq20 requires n = t mod (p-1)")
    left = l_pq(-n, DirichletCharacter.teichmuller_power(t, ctx.p), ctx, F=ctx.p)
    right = (euler_number(n, ctx.q)
             - q_int(ctx.p, ctx.q) ** n * euler_number(n, ctx.q**ctx.p))
    val = residual_valuation(left.value, ctx.embed(right))
    buffer = int(v_p(math.factorial(n), ctx.p)) + 2
    return val >= ctx.precision - buffer, val


def congruence_scan_eq21(t: int, s_samples: Sequence[int], ctx: QContext) -> dict:
    """Empirical scan of the integrality and mod-p constancy behavior of
    l_pq(s, w^t) over integer samples s.  Reports evidence; asserts nothing.
    The samples share one series cache, and so their s-free term tables;
    every cached value at s is keyed on s, so no pairwise difference can
    come out zero from a cache hit.  A repeated sample would compare a value
    with itself, so it is a ValueError."""
    if len(set(s_samples)) < len(s_samples):
        raise ValueError(f"congruence_scan_eq21 needs distinct samples, got {list(s_samples)}")
    with series_cache():
        chi = DirichletCharacter.teichmuller_power(t, ctx.p)
        values = [(s, l_pq(s, chi, ctx, F=ctx.p).value) for s in s_samples]

    value_vals = {str(s): valuation_json(v.valuation) for s, v in values}
    pair_vals = {}
    min_pair: Valuation = INF
    for (s1, v1), (s2, v2) in itertools.combinations(values, 2):
        d = _residual_sentinel(v1, v2)
        pair_vals[f"{s1},{s2}"] = valuation_json(d)
        min_pair = min(min_pair, d)
    min_value: Valuation = min((v.valuation for _, v in values), default=INF)
    return {
        "p": ctx.p,
        "q": f"{ctx.q.numerator}/{ctx.q.denominator}",
        "t": t % (ctx.p - 1),
        "s_samples": list(s_samples),
        "value_valuations": value_vals,
        "min_value_valuation": valuation_json(min_value),
        "pairwise_difference_valuations": pair_vals,
        "min_pairwise_difference_valuation": valuation_json(min_pair),
        "integral_on_samples": min_value >= 0,
        "mod_p_constant_on_samples": min_pair >= 1,
    }
