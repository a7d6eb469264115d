"""Partial zeta values, q-l-values, and their p-adic interpolations."""

import contextlib
import gc
import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from qlfun import lfun, verify
from qlfun.characters import (DirichletCharacter, chi_eval, chi_residues,
                              parse_character, twist)
from qlfun.lfun import (
    H_pq,
    K_full,
    K_partial,
    PartialZetaParams,
    T_full,
    T_partial,
    l_pq,
    lq_neg_series_path,
    partial_zeta_neg,
    series_cache,
)
from qlfun.numerics import (
    INF,
    WORKING_MARGIN,
    PadicError,
    PadicNumber,
    QContext,
    SeriesDivergenceError,
    SeriesResult,
    angle_bracket,
    binom_stream,
    mul_parts,
    padic_pow,
    power_column,
    q_int,
    residual_valuation,
    residue_parts,
    scan_products,
    sum_products,
    teichmuller,
    v_p,
)
from qlfun.qeuler import euler_number, gen_euler_number
from qlfun.verify import _eq24_free_parts, _eq24_heads, thm5_grid, thm5_report

CTX34 = QContext(p=3, q=Fraction(4), precision=8)
CTX56 = QContext(p=5, q=Fraction(6), precision=8)


# ---------------------------------------------------------------------------
# partial zeta values at negative integers
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        PartialZetaParams(0, 3)
    with pytest.raises(ValueError):
        PartialZetaParams(3, 3)
    with pytest.raises(ValueError):
        PartialZetaParams(1, 4)


def test_partial_zeta_trivial_values():
    assert partial_zeta_neg(0, PartialZetaParams(1, 3), Fraction(2)) == Fraction(-1, 2)
    assert partial_zeta_neg(0, PartialZetaParams(2, 3), Fraction(2)) == Fraction(1, 2)


def test_partial_zeta_value_at_q_two():
    # = (-1) * ([3]_2 / 2) * E_{1,8}(1/3); the closed form is pinned by the
    # convergent-series oracle below
    got = partial_zeta_neg(1, PartialZetaParams(1, 3), Fraction(2))
    assert got == Fraction(5, 18)


def abel_partial_zeta(n: int, a: int, F: int, q: Fraction, terms: int = 300) -> Fraction:
    """Averaged partial sums of sum_{m = a mod F, m > 0} (-1)^m [m]^n at |q| < 1."""
    partial = Fraction(0)
    history = []
    m = a
    while len(history) < terms + 2:
        partial += Fraction((-1) ** m) * q_int(m, q) ** n
        history.append(partial)
        m += F
    return (history[-1] + history[-2]) / 2


@pytest.mark.parametrize("n,a,F", [(0, 1, 3), (1, 1, 3), (1, 2, 3),
                                   (2, 1, 5), (2, 4, 5), (3, 2, 3)])
def test_partial_zeta_matches_convergent_series(n, a, F):
    q = Fraction(1, 2)
    closed = partial_zeta_neg(n, PartialZetaParams(a, F), q)
    assert abs(abel_partial_zeta(n, a, F, q) - closed) < Fraction(1, 10**6)


# ---------------------------------------------------------------------------
# l-values at negative integers: two routes
# ---------------------------------------------------------------------------

def test_lq_neg_examples():
    triv = DirichletCharacter.trivial()
    assert gen_euler_number(1, triv, q=Fraction(2)) == Fraction(-1, 3)
    quad3 = DirichletCharacter.quadratic(3)
    assert gen_euler_number(0, quad3, q=Fraction(2)) == -2


@pytest.mark.parametrize("q", [Fraction(2), Fraction(1, 2), Fraction(4)])
def test_lq_dual_paths_exact_characters(q):
    for chi in (DirichletCharacter.quadratic(3), DirichletCharacter.quadratic(5)):
        for k in range(5):
            assert gen_euler_number(k, chi, q=q) == lq_neg_series_path(k, chi, q=q)
    # the series route needs k >= 1 for the trivial character (its index-0
    # term differs between the two defining series)
    triv = DirichletCharacter.trivial()
    for k in range(1, 5):
        assert gen_euler_number(k, triv, q=q) == lq_neg_series_path(k, triv, q=q)


def test_lq_dual_paths_padic_character():
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    for k in range(1, 4):
        direct = gen_euler_number(k, w1, ctx=CTX56)
        series = lq_neg_series_path(k, w1, ctx=CTX56)
        assert residual_valuation(direct, series) >= CTX56.precision


@pytest.mark.parametrize("fn", [gen_euler_number, lq_neg_series_path])
def test_lq_routes_refuse_a_q_that_disagrees_with_the_context(fn):
    # exact terms at q = 11 with character values from the q = 6 context
    # would be neither value; a q equal to the context's is accepted
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    with pytest.raises(ValueError, match="^q argument disagrees with the context$"):
        fn(2, w1, q=11, ctx=CTX56)
    assert fn(2, w1, q=6, ctx=CTX56) == fn(2, w1, ctx=CTX56)


# ---------------------------------------------------------------------------
# interpolation: H_pq
# ---------------------------------------------------------------------------

def test_H_pq_at_zero():
    for a in (1, 2):
        res = H_pq(0, PartialZetaParams(a, 3), CTX34)
        assert res.converged
        expected = CTX34.embed(Fraction((-1) ** a, 2))
        assert residual_valuation(res.value, expected) >= CTX34.working_precision


@pytest.mark.parametrize("ctx", [QContext(p=3, q=Fraction(4), precision=8),
                                 QContext(p=5, q=Fraction(6), precision=8),
                                 QContext(p=3, q=Fraction(1 + 3), precision=8),
                                 QContext(p=5, q=Fraction(1 + 5), precision=8)])
def test_H_pq_interpolates_twisted_partial_zeta(ctx):
    p = ctx.p
    for n in range(6):
        loss = int(v_p(math.factorial(n), p)) + 2
        for a in range(1, p):
            prm = PartialZetaParams(a, p)
            left = H_pq(-n, prm, ctx)
            assert left.converged
            w = teichmuller(a, p, ctx.working_precision)
            right = w ** (-n) * ctx.embed(partial_zeta_neg(n, prm, ctx.q))
            assert residual_valuation(left.value, right) >= ctx.precision - loss


def test_H_pq_rejects_bad_params():
    with pytest.raises(ValueError):
        H_pq(0, PartialZetaParams(1, 5), CTX34)  # F not a multiple of p
    with pytest.raises(ValueError):
        H_pq(0, PartialZetaParams(3, 9), CTX34)  # a not a unit
    ctx_q1 = QContext(p=3, q=Fraction(1), precision=8)
    with pytest.raises(ValueError, match="classical limit"):
        H_pq(0, PartialZetaParams(1, 3), ctx_q1)


def test_H_pq_accepts_padic_exponent():
    prm = PartialZetaParams(2, 3)
    int_path = H_pq(-2, prm, CTX34)
    embedded = H_pq(CTX34.embed(-2), prm, CTX34)
    assert residual_valuation(int_path.value, embedded.value) >= CTX34.precision


# ---------------------------------------------------------------------------
# interpolation: l_pq
# ---------------------------------------------------------------------------

def test_l_pq_vanishes_at_zero_for_trivial():
    res = l_pq(0, DirichletCharacter.trivial(), CTX34, F=3)
    assert res.value.is_zero or res.value.valuation >= CTX34.precision
    res5 = l_pq(0, DirichletCharacter.trivial(), CTX56, F=5)
    assert res5.value.is_zero or res5.value.valuation >= CTX56.precision


def test_l_pq_pinned_value():
    w1 = DirichletCharacter.teichmuller_power(1, 3)
    res = l_pq(-1, w1, CTX34, F=3)
    assert residual_valuation(res.value, CTX34.embed(Fraction(8, 65))) >= 6


def eq18_right_side(n: int, chi: DirichletCharacter, ctx: QContext):
    """E_{n,chi w^-n, q} - [p]^n (chi w^-n)(p) E_{n, chi w^-n, q^p}, exactly
    where possible, else p-adically; an independent assembly."""
    twisted = twist(chi, -n, ctx.p)
    first = gen_euler_number(n, twisted, q=ctx.q, ctx=ctx)
    if twisted.conductor == 1:
        at_p = 1
    else:
        at_p = 0
    if at_p == 0:
        second = 0
    else:
        second = q_int(ctx.p, ctx.q) ** n * gen_euler_number(
            n, twisted, q=ctx.q**ctx.p,
            ctx=QContext(p=ctx.p, q=ctx.q**ctx.p, precision=ctx.precision))
    if isinstance(first, Fraction) and isinstance(second, (int, Fraction)):
        return ctx.embed(first - second)
    acc = first if not isinstance(first, Fraction) else ctx.embed(first)
    if isinstance(second, (int, Fraction)):
        return acc - ctx.embed(second)
    return acc - second


@pytest.mark.parametrize("ctx", [CTX34, CTX56])
def test_l_pq_interpolates_twisted_numbers(ctx):
    chis = [DirichletCharacter.trivial(),
            DirichletCharacter.teichmuller_power(1, ctx.p),
            DirichletCharacter.teichmuller_power(2, ctx.p)]
    for chi in chis:
        for n in range(1, 5):
            loss = int(v_p(math.factorial(n), ctx.p)) + 2
            left = l_pq(-n, chi, ctx, F=ctx.p)
            right = eq18_right_side(n, chi, ctx)
            assert residual_valuation(left.value, right) >= ctx.precision - loss


@pytest.mark.parametrize("ctx", [CTX34, CTX56])
def test_l_pq_twist_coherence(ctx):
    # chi = w^n makes the twist trivial: the value collapses to
    # E_{n,q} - [p]^n E_{n,q^p}
    for n in range(1, 5):
        chi = DirichletCharacter.teichmuller_power(n, ctx.p)
        left = l_pq(-n, chi, ctx, F=ctx.p)
        right = (euler_number(n, ctx.q)
                 - q_int(ctx.p, ctx.q) ** n * euler_number(n, ctx.q**ctx.p))
        loss = int(v_p(math.factorial(n), ctx.p)) + 2
        assert residual_valuation(left.value, ctx.embed(right)) >= ctx.precision - loss


def test_l_pq_validates_modulus():
    w1 = DirichletCharacter.teichmuller_power(1, 3)
    with pytest.raises(ValueError):
        l_pq(0, w1, CTX34, F=6)
    with pytest.raises(ValueError, match=r"^l_pq requires conductor\(chi\) \| F$"):
        l_pq(0, DirichletCharacter.quadratic(5), CTX34, F=3)  # conductor does not divide


@pytest.mark.parametrize("chi", [DirichletCharacter.trivial(),
                                 DirichletCharacter.teichmuller_power(1, 3)])
@pytest.mark.parametrize("F", [-3, -9])
def test_l_pq_rejects_a_modulus_below_one(chi, F):
    # -3 is odd and divisible by 3, so only the sign keeps the unit sum over
    # 1 <= a <= F from being empty
    with pytest.raises(ValueError, match="odd positive multiple of p"):
        l_pq(1, chi, CTX34, F=F)


# ---------------------------------------------------------------------------
# boundary and correction series
# ---------------------------------------------------------------------------

def test_T_partial_at_zero():
    for a in (1, 2):
        even = T_partial(2, 0, PartialZetaParams(a, 3), CTX34)
        assert even.value.is_zero or even.value.valuation >= CTX34.precision
        odd = T_partial(3, 0, PartialZetaParams(a, 3), CTX34)
        expected = CTX34.embed(-2 * (-1) ** a)
        assert residual_valuation(odd.value, expected) >= CTX34.precision


def test_K_partial_at_zero():
    for a in (1, 2):
        res = K_partial(2, 0, PartialZetaParams(a, 3), CTX34)
        assert res.value.is_zero or res.value.valuation >= CTX34.precision


def test_K_partial_single_term_at_minus_one():
    # s = -1 keeps only the l = 1 term (binom(1, l) vanishes for l >= 2,
    # and l = 0 has an empty inner sum); assemble that term by hand
    for ctx, a in [(CTX34, 1), (CTX34, 2), (CTX56, 3)]:
        p, q = ctx.p, ctx.q
        n = 2
        res = K_partial(n, -1, PartialZetaParams(a, p), ctx)
        angle = (ctx.embed(q_int(a, q))
                 / teichmuller(a, p, ctx.working_precision))
        hand = (ctx.embed(Fraction((-1) ** a, 2)
                          * q**a * (q_int(p, q) / q_int(a, q))
                          * euler_number(1, q**p)
                          * q_int(n * p, q) * (q - 1))
                * angle)
        assert residual_valuation(res.value, hand) >= ctx.precision


@pytest.mark.parametrize("p", [3, 5])
def test_T_and_K_die_as_q_approaches_one(p):
    # q = 1 + p^6 surrogate: every contribution keeps valuation >= 6
    ctx = QContext(p=p, q=1 + Fraction(p) ** 6, precision=8)
    for n in (2, 4):
        for a in (1, 2):
            t = T_partial(n, 2, PartialZetaParams(a, p), ctx)
            k = K_partial(n, 2, PartialZetaParams(a, p), ctx)
            assert t.value.valuation >= 6
            assert k.value.valuation >= 6


def exact_tk_at_negative_integer(n, m, a, F, ctx, boundary):
    """T_partial(n, -m, a:F) (``boundary``) or K_partial from the finite
    series: w(a)^(-m) embed(c (-1)^a [a]^m sum_{k<=m} C(m,k)
    (q^a [F]/[a])^k f(k) E_{k,q^F}), with c = 1, f(k) = (-1)^n q^(nFk) - 1 for
    T and c = 1/2, f(k) = q^(nFk) - 1 for K; exact up to the final reduction."""
    q = ctx.q
    ratio = q**a * q_int(F, q) / q_int(a, q)
    sign = (-1) ** n if boundary else 1
    total = sum((math.comb(m, k) * ratio**k * (sign * q ** (n * F * k) - 1)
                 * euler_number(k, q**F) for k in range(m + 1)), Fraction(0))
    scale = Fraction((-1) ** a) if boundary else Fraction((-1) ** a, 2)
    w = teichmuller(a, ctx.p, ctx.working_precision + WORKING_MARGIN)
    return ctx.embed(scale * q_int(a, q) ** m * total) * w ** (-m)


@pytest.mark.parametrize("p,q,F", [(3, Fraction(4), 3), (3, Fraction(-2), 9),
                                   (3, Fraction(10), 3), (5, Fraction(6), 5),
                                   (5, Fraction(-4), 15), (7, Fraction(8), 7)])
def test_T_and_K_match_the_exact_sum_at_negative_integers(p, q, F):
    # an oracle independent of the series kernel and of T's derivation from
    # H and K: at s = -m the series stops at k = m
    ctx = QContext(p=p, q=q, precision=8)
    for a in range(1, F):
        if a % p == 0:
            continue
        prm = PartialZetaParams(a, F)
        for n in (1, 2, 3):
            for m in range(5):
                for boundary, fn in ((True, T_partial), (False, K_partial)):
                    got = fn(n, -m, prm, ctx).value
                    want = exact_tk_at_negative_integer(n, m, a, F, ctx, boundary)
                    assert residual_valuation(got, want) >= ctx.working_precision, \
                        (fn.__name__, a, n, m)


def test_full_aggregates_at_zero():
    triv = DirichletCharacter.trivial()
    assert K_full(2, 0, triv, CTX34).value.is_zero
    t_even = T_full(2, 0, triv, CTX34)
    assert t_even.value.is_zero or t_even.value.valuation >= CTX34.precision
    t_odd = T_full(3, 0, triv, CTX34)
    # 2 * sum_a (-2)(-1)^a = 0 at p = 3
    assert t_odd.value.is_zero or t_odd.value.valuation >= CTX34.precision


@pytest.mark.parametrize("full", [T_full, K_full])
def test_full_aggregates_require_the_conductor_to_divide_p(full):
    # the aggregates sum over the units a < p, so a character of conductor 5
    # has no period there at p = 3: refused by the rule l_pq applies to F,
    # naming the conductor and F = p, as the aggregates take no F
    with pytest.raises(ValueError, match=rf"^{full.__name__} requires conductor\(chi\) = 5 "
                                         rf"to divide F = p = 3$"):
        full(1, 1, DirichletCharacter.quadratic(5), CTX34)
    for chi in (DirichletCharacter.quadratic(3), DirichletCharacter.trivial(),
                DirichletCharacter.teichmuller_power(1, 3),
                DirichletCharacter.teichmuller_power(2, 3)):
        assert full(1, 1, chi, CTX34).converged


# ---------------------------------------------------------------------------
# truncation robustness
# ---------------------------------------------------------------------------

def test_doubling_guard_and_cap_changes_nothing():
    # the doubled guard also lengthens every column and moves every stop
    ctx = CTX56
    doubled = ctx.with_doubled_truncation()
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    pairs = [
        (l_pq(2, w1, ctx, F=5).value, l_pq(2, w1, doubled, F=5).value),
        (H_pq(3, PartialZetaParams(2, 5), ctx).value,
         H_pq(3, PartialZetaParams(2, 5), doubled).value),
        (T_partial(1, 2, PartialZetaParams(1, 5), ctx).value,
         T_partial(1, 2, PartialZetaParams(1, 5), doubled).value),
        (K_partial(1, 2, PartialZetaParams(1, 5), ctx).value,
         K_partial(1, 2, PartialZetaParams(1, 5), doubled).value),
    ]
    for a, b in pairs:
        assert residual_valuation(a, b) >= ctx.precision


def test_series_metadata_contract():
    res = H_pq(-2, PartialZetaParams(1, 3), CTX34)
    assert res.converged
    assert res.tail_valuation_bound >= CTX34.precision
    assert res.last_index >= 2
    payload = res.to_json_dict()
    assert payload["converged"] is True
    assert set(payload) == {"value", "last_index", "tail_valuation_bound", "converged"}


# ---------------------------------------------------------------------------
# the per-unit route, kept as the reference for the unit-free scans
# ---------------------------------------------------------------------------

def per_unit_powers(a, F, J, ctx):
    """(<a> - 1)^k for k < J from ctx.one(): unit a's own power column."""
    return power_column(ctx.p, ctx.one().parts, lfun._unit_table(F, ctx)[a][0], J)


def per_unit_term_bases(n, a, F, J, ctx):
    """(q^a/(1-q^a))^j Delta_j [q^(nFj) - 1] for j < J: unit a's own H/K column,
    K's factor embedded for this unit."""
    p, N = ctx.p, ctx.working_precision + WORKING_MARGIN
    powers = power_column(p, (0, 1, N), lfun._unit_table(F, ctx)[a][1], J)
    column = [mul_parts(p, power, delta) for power, delta in zip(powers, lfun._deltas(F, J, ctx))]
    if n:
        column = [mul_parts(p, base, ctx.embed(ctx.q ** (n * F * j) - 1).parts)
                  for j, base in enumerate(column)]
    return column


def exact_unit_pow(a, s, ctx):
    """<a>^(-s) for an integer s as a PadicNumber power, to the working precision."""
    return (angle_bracket(a, ctx) ** -s).at_absolute_precision(ctx.working_precision)


def unit_pow(a, F, s, ctx):
    """lfun._unit_pow of unit a < F: at the parts of <a> - 1 that _twisted_series reads,
    with the tables of (F, ctx) (the open scope's, or fresh ones)."""
    return lfun._unit_pow(s, lfun._unit_table(F, ctx)[a][0], lfun._tables(F, ctx))


def series_parts(result):
    """A converged SeriesResult as lfun's per-unit (value parts, last_index,
    tail_valuation_bound)."""
    assert result.converged
    return result.value.parts, result.last_index, result.tail_valuation_bound


def merge_series(value, parts):
    """value as a SeriesResult with the metadata of the series it is made from:
    the greatest last_index, the least tail bound, and converged only if every
    part converged."""
    parts = list(parts)
    return SeriesResult(value, max((part.last_index for part in parts), default=0),
                        min((part.tail_valuation_bound for part in parts), default=INF),
                        all(part.converged for part in parts))


def per_unit_fold(a, F, s, ctx):
    """<a>^(-s) as its own guarded fold over unit a's power column."""
    J = lfun._series_length(s, ctx)
    return sum_products(lfun._binomials(s, ctx), per_unit_powers(a, F, J, ctx), ctx,
                        description="binomial power series")


def per_unit_pow(a, F, s, ctx):
    """The per-unit fold of <a>^(-s), at an integer s with the exact power as
    its value: the fold's own, unless the fold stops before a term of
    valuation < W (see test_exact_unit_power_mends_only_early_stops)."""
    fold = per_unit_fold(a, F, s, ctx)
    return replace(fold, value=exact_unit_pow(a, s, ctx)) if isinstance(s, int) else fold


def per_unit_series(n, s, prm, ctx):
    """H_pq (n = 0) or K_partial (n >= 1) with one guarded fold per unit."""
    a, F, J = prm.a, prm.F, lfun._series_length(s, ctx)
    unit_pow = per_unit_pow(a, F, s, ctx)
    body = sum_products(lfun._binomials(s, ctx), per_unit_term_bases(n, a, F, J, ctx), ctx,
                        description="K series" if n else "H_pq series")
    value = unit_pow.value * body.value
    return merge_series(-value if a % 2 else value, [unit_pow, body])


def large_exponents(p):
    """Large integer s: p^m - 1, p^m and p^m + 1 for m <= 6, and 2 p^5."""
    return [p**m + d for m in range(1, 7) for d in (-1, 0, 1)] + [2 * p**5]


@pytest.mark.parametrize("p,q,contexts", [
    (3, Fraction(4), [(1, 2), (8, 3), (16, 5)]),
    (3, Fraction(7, 4), [(3, 3)]),
    (5, Fraction(-4), [(1, 3), (8, 5)]),
    (5, Fraction(1, 6), [(3, 2)]),
    (7, Fraction(8), [(3, 2), (8, 3)]),
    (7, Fraction(50), [(1, 5)]),
    (3, Fraction(-2), [(4, 2)]),
    (3, Fraction(1, 4), [(8, 3)]),
    (7, Fraction(-6), [(3, 3)]),
    (7, Fraction(1, 8), [(1, 2)]),
])
def test_unit_free_scans_equal_the_per_unit_route(p, q, contexts):
    # H, K (n = 1, 2) and <a>^(-s) at every unit a < F, F in {p, 3p, 5p}, as
    # dataclasses (<a>^(-s) as its value's parts, stop and tail bound): one
    # scan per series evaluated at each unit's point gives
    # the per-unit fold's value, stop, tail bound and converged flag, and so
    # does the one modular power <a>^(-s) at an integer s, at large s as well
    # for q = 1 - p and 1/(1 + p) (F = p), at the smallest guard, 2, too
    for precision, guard in contexts:
        ctx = QContext(p=p, q=q, precision=precision, guard=guard)
        exponents = [-7, 0, 3, ctx.embed(-3), ctx.embed(Fraction(1, 2)),
                     ctx.embed(Fraction(-3, 4)), ctx.embed(Fraction(p + 1, p - 1))]
        for F in (p, 3 * p, 5 * p):
            with series_cache():
                large = large_exponents(p) if F == p and q in (1 - p, Fraction(1, 1 + p)) else []
                for s in exponents + large:
                    for a in range(1, F):
                        if a % p == 0:
                            continue
                        prm = PartialZetaParams(a, F)
                        expected = per_unit_fold(a, F, s, ctx)
                        assert unit_pow(a, F, s, ctx) == series_parts(expected), (ctx, s, a)
                        assert H_pq(s, prm, ctx) == per_unit_series(0, s, prm, ctx), (ctx, s, a)
                        for n in (1, 2):
                            assert K_partial(n, s, prm, ctx) == per_unit_series(n, s, prm, ctx)


# ---------------------------------------------------------------------------
# evaluation-scoped series cache
# ---------------------------------------------------------------------------

def test_series_cache_scope_gives_the_same_values():
    s_padic = CTX34.embed(Fraction(1, 2))
    s_values, units = (-2, 1, 3, s_padic), (1, 2)
    cases = [(s, PartialZetaParams(a, 3)) for s in s_values for a in units]
    # the s-free columns are built per series length: s = -2 reads 6 entries,
    # the other s the full 21
    lengths = len({lfun._series_length(s, CTX34) for s in s_values})
    assert lengths == 2
    # the power scans are keyed on s and the shape (valuation, precision) of
    # <a> - 1, each writing its column of that shape: <1> - 1 is a zero, <2> - 1
    # is not, so each unit has its own
    shapes = len({lfun._unit_table(3, CTX34)[a][0][::2] for a in units})
    assert shapes == len(units)
    # H, K(2) and K(1) per case and one <a>^(-s) per case, one binomial column
    # per s, one unit table (F = 3), per length one Delta_j column and one
    # unit-free column per n in {0, 1, 2}, one body scan per (n, s), and one
    # power scan per (s, shape), integer or p-adic; sizes() lists only the
    # tables the scope made, so no chi column
    sizes = {"unit_tables": 1, "binomials": len(s_values),
             "power_scans": len(s_values) * shapes, "deltas": lengths, "terms": 3 * lengths,
             "scans": 3 * len(s_values), "powers": len(cases), "hk": 3 * len(cases)}
    keys = sum(sizes.values())

    def evaluate():
        return [(H_pq(s, prm, CTX34), K_partial(2, s, prm, CTX34),
                 T_partial(1, s, prm, CTX34)) for s, prm in cases]

    outside = evaluate()
    with series_cache() as cache:
        inside = evaluate()
        again = evaluate()
        assert cache.sizes() == sizes
    assert inside == outside
    assert again == outside
    # per case: H, K(2), K(1) and one <a>^(-s) computed.  T is not a table:
    # T(1) = -(2 K(1) + 4 H) reads K(1), computed on its behalf, and hits H.
    # Both K series reuse H's unit power, so the first pass hits 3 per case;
    # the second pass hits H, K(2), and K(1) and H through T.  Each series
    # built reads the unit table once, for both of its unit's entries (<a> - 1
    # for the unit power, the point q^a/(1-q^a) for the body), all but the
    # first read hits.  Each unit power reads the power scan of its (s, shape),
    # built once per key.  The len(s_values) * shapes power scans and the
    # 3 * len(s_values) body scans built each read the binomial column of
    # their s, one per s: the rest of those reads hit.  The
    # 3 * len(cases) series read their body scan, one per (n, s), and each
    # body scan built reads the unit-free column of its (n, length): the first
    # of each key builds it.  Every case has F = 3, so the unit-free columns
    # of one length share one Delta_j column: 2 hits per length
    assert cache.misses == keys
    hits = (3 * len(cases) + 4 * len(cases) + (3 * len(cases) - 1)
            + (len(cases) - len(s_values) * shapes)
            + len(s_values) * (2 + shapes)
            + 3 * (len(cases) - len(s_values)) + 3 * (len(s_values) - lengths)
            + 2 * lengths)
    assert cache.hits == hits
    assert cache.sizes() == {}  # dropped with the scope
    # outside a scope nothing is recorded
    evaluate()
    assert (cache.hits, cache.misses) == (hits, keys)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [2, -1, CTX56.embed(Fraction(1, 2))])
def test_T_partial_runs_no_series_of_its_own(n, s):
    # T is derived from H and K: with both cached it adds no miss, at even n
    # (T = 2K) and at odd n (T = -(2K + 4H)) alike
    prm = PartialZetaParams(2, 5)
    with series_cache() as cache:
        H_pq(s, prm, CTX56)
        K_partial(n, s, prm, CTX56)
        misses, hits = cache.misses, cache.hits
        T_partial(n, s, prm, CTX56)
        assert cache.misses == misses
        assert cache.hits == hits + (2 if n % 2 else 1)


def test_series_cache_is_dropped_with_its_scope():
    prm = PartialZetaParams(1, 3)
    with series_cache() as outer:
        H_pq(1, prm, CTX34)
        with series_cache() as inner:
            H_pq(1, prm, CTX34)
        # H, the unit table, <a>^(-1), the power scan and the binomial column
        # it reads, the body scan, its unit-free column and Delta_j
        assert inner.misses == outer.misses == 8
        built = ("unit_tables", "binomials", "power_scans", "deltas", "terms",
                 "scans", "powers", "hk")
        assert outer.sizes() == {name: 1 for name in built}
        assert inner.sizes() == {}
        # one hit each: the body scan reads the binomial column that the power
        # scan, computed first, has built
        assert inner.hits == outer.hits == 1
        H_pq(1, prm, CTX34)
        assert outer.hits == 2
    assert outer.sizes() == {}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unit_power_matches_padic_pow(p):
    # <a>^(-s) read from the shared binomial column is padic_pow's own
    # series, field for field: outside a scope, inside one, and after an H
    # series has read the same column; the unit table covers the units < 2p
    ctx = QContext(p=p, q=Fraction(p + 1), precision=8)
    units = [a for a in range(1, 2 * p) if a % p]
    exponents = [0, 2, -3, ctx.embed(4), ctx.embed(-2),
                 ctx.embed(Fraction(1, 2)), ctx.embed(Fraction(-3, 4))]
    for s in exponents:
        expected = [series_parts(padic_pow(angle_bracket(a, ctx), -s, ctx)) for a in units]
        assert [unit_pow(a, 2 * p, s, ctx) for a in units] == expected
        with series_cache():
            assert [unit_pow(a, 2 * p, s, ctx) for a in units] == expected
        with series_cache():
            H_pq(s, PartialZetaParams(p - 1, p), ctx)
            assert [unit_pow(a, 2 * p, s, ctx) for a in units] == expected


@pytest.mark.parametrize("p", [3, 5])
def test_exact_unit_power_mends_only_early_stops(p):
    # at an integer s <a>^(-s) is the exact power mod p^W with the per-unit
    # fold's stop, tail bound and flag; its value could differ from the fold's
    # only where the fold stopped before a term of valuation < W, which a
    # guard of 1 allowed (QContext refuses it): at guards 2 and 3 no value
    # differs on this grid
    for precision, guard in ((1, 2), (4, 2), (16, 2), (4, 3), (8, 2)):
        ctx = QContext(p=p, q=Fraction(1 + p), precision=precision, guard=guard)
        for s in list(range(-30, 45)) + large_exponents(p):
            for a in range(1, p):
                (got, *stop), fold = unit_pow(a, p, s, ctx), per_unit_fold(a, p, s, ctx)
                assert series_parts(fold)[1:] == tuple(stop)
                assert got == exact_unit_pow(a, s, ctx).parts == fold.value.parts, (ctx, s, a)
    if p == 3:  # a guard of 1 stopped this fold at k = 8 (valuation 11), before k = 9 (10)
        ctx = QContext(p=3, q=Fraction(4), precision=1, guard=2)
        assert per_unit_fold(2, 3, 20, ctx).value.unit == 27742 == pow(
            angle_bracket(2, ctx).unit, -20, 3**11)


def test_smallest_guard_keeps_the_digits_a_guard_of_1_lost():
    # a guard of 1 stopped H_pq(-30, 1:3) at index 6 and read 164884 mod 3^11,
    # claiming all 11 digits; guards 2 and 3 run on and agree
    prm = PartialZetaParams(1, 3)
    results = [H_pq(-30, prm, QContext(p=3, q=Fraction(4), precision=1, guard=guard))
               for guard in (2, 3)]
    assert [(r.value.unit, r.value.precision, r.last_index) for r in results] == \
        [(105835, 11, 11), (105835, 11, 12)]


def object_unit_pow(s, angle, tables):
    """<a>^(-s) on the object route: the power scan's value as a SeriesResult,
    at an integer s the modular power as a PadicNumber with the scan's stop."""
    v, unit, precision = angle
    key = (s, v, precision)
    scan = tables.read("power_scans", key, lfun._power_scan, *key, tables)
    if not isinstance(s, int):
        value, last, bound = scan.at(unit)
        return SeriesResult(PadicNumber(scan.p, *value), last, bound, True)
    p, W = tables.ctx.p, tables.ctx.working_precision
    return SeriesResult(PadicNumber(p, *residue_parts(p, 0, pow(1 + p**v * unit, -s, p**W), W)),
                        len(scan.terms) - 1, scan.tail_bound, not scan.error)


def object_twisted_series(n, s, a, tables):
    """H (n = 0) or K of unit a on the object route: PadicNumber products and
    negation, the metadata by merge_series."""
    F, ctx = tables.F, tables.ctx
    angle, (_, ratio, _) = tables.read("unit_tables", F, lfun._unit_table, F, ctx)[a]
    unit_pow = object_unit_pow(s, angle, tables)
    scan = tables.read("scans", (n, s), lfun._body_scan, n, s, tables)
    value, last, bound = scan.at(ratio)
    body = SeriesResult(PadicNumber(scan.p, *value), last, bound, True)
    value = unit_pow.value * body.value
    return merge_series(-value if a % 2 else value, [unit_pow, body])


def object_hk_series(tables, n, s, a):
    h_part, k_part = object_twisted_series(0, s, a, tables), object_twisted_series(n, s, a, tables)
    return merge_series(h_part.value + k_part.value, [h_part, k_part])


def object_boundary_series(tables, n, s, a):
    ctx, k_part = tables.ctx, object_twisted_series(n, s, a, tables)
    twice_k = ctx.embed(2) * k_part.value
    if n % 2 == 0:
        return merge_series(twice_k, [k_part])
    h_part = object_twisted_series(0, s, a, tables)
    return merge_series(-(twice_k + ctx.embed(4) * h_part.value), [h_part, k_part])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_per_unit_parts_equal_the_object_route(p):
    # the per-unit H, K, H + K, T and <a>^(-s) on plain parts equal, field for
    # field, the same series on PadicNumber and SeriesResult with merge_series:
    # every unit a < F, F in {p, 3p}, n 0-2, integer and p-adic s, q in
    # {1 + p, 1 - p, 1/(1 + p)} and precision 8/16, and at p = 3 precision 1
    # at the smallest guard, 2, with s = 20 (where a guard of 1 stopped a unit
    # power's fold early, see test_exact_unit_power_mends_only_early_stops)
    contexts = [QContext(p=p, q=q, precision=precision)
                for q in (Fraction(1 + p), Fraction(1 - p), Fraction(1, 1 + p))
                for precision in (8, 16)]
    if p == 3:
        contexts.append(QContext(p=3, q=Fraction(4), precision=1, guard=2))
    routes = [(lfun._hk_series, object_hk_series),
              (lfun._boundary_series, object_boundary_series),
              (lambda tables, n, s, a: lfun._twisted_series(n, s, a, tables),
               lambda tables, n, s, a: object_twisted_series(n, s, a, tables))]
    for ctx in contexts:
        exponents = [-3, 0, 1, 4, ctx.embed(-2), ctx.embed(Fraction(1, 2))]
        exponents += [20] if ctx.precision == 1 else []
        for F in (p, 3 * p):
            with series_cache():
                tables, angles = lfun._tables(F, ctx), lfun._unit_table(F, ctx)
                for s, a in itertools.product(exponents, range(1, F)):
                    if a % p == 0:
                        continue
                    angle = angles[a][0]
                    assert lfun._unit_pow(s, angle, tables) == series_parts(
                        object_unit_pow(s, angle, tables)), (ctx, F, s, a)
                    for (parts_route, object_route), n in itertools.product(routes, (0, 1, 2)):
                        assert parts_route(tables, n, s, a) == series_parts(
                            object_route(tables, n, s, a)), (ctx, F, s, a, n)


def test_non_integral_exponent_is_refused_on_every_call_in_a_scope():
    # the binomial column checks s when it is built, so a refused s leaves no
    # half-read column in the scope for the next call to trip over
    s = CTX34.embed(Fraction(1, 3))
    with series_cache():
        for _ in range(2):
            with pytest.raises(PadicError, match="p-adic integer"):
                H_pq(s, PartialZetaParams(1, 3), CTX34)


@pytest.mark.parametrize("short, long", [
    (-1, 5),
    (CTX34.embed(-2), CTX34.embed(Fraction(1, 2))),
])
@pytest.mark.parametrize("reverse", [False, True])
def test_term_tables_give_cold_values_in_any_read_order(short, long, reverse):
    # one scope's tables, built in full by an earlier series that stops
    # sooner (the short one, or K, whose terms carry the extra factor
    # q^(nFj) - 1, before H at the same s) or later, give the unscoped values
    prms = [PartialZetaParams(2, 3), PartialZetaParams(4, 9)]
    series = [lambda s, prm: H_pq(s, prm, CTX34),
              lambda s, prm: K_partial(1, s, prm, CTX34),
              lambda s, prm: K_partial(2, s, prm, CTX34)]
    if reverse:
        series.reverse()

    def evaluate(s):
        return [f(s, prm) for prm in prms for f in series]

    cold_short, cold_long = evaluate(short), evaluate(long)
    assert max(r.last_index for r in cold_short) < min(r.last_index for r in cold_long)
    with series_cache():
        if reverse:
            warm_long, warm_short = evaluate(long), evaluate(short)
        else:
            warm_short, warm_long = evaluate(short), evaluate(long)
    assert warm_short == cold_short
    assert warm_long == cold_long


# ---------------------------------------------------------------------------
# q-Euler residues: the Delta_j column
# ---------------------------------------------------------------------------

def residue_grid():
    for p in (3, 5, 7):
        for q in (Fraction(1 + p), Fraction(1 - p), Fraction(1, 1 + p), Fraction(10),
                  Fraction(7, 4)):
            if v_p(q - 1, p) >= 1:
                for F in sorted({p, 3 * p, 9}):
                    yield p, q, F


def exact_delta(j, Q, ctx):
    # Delta_j = E_{j,Q} (1-Q)^j / 2, from the exact q-Euler number
    return ctx.embed(euler_number(j, Q) * (1 - Q) ** j / 2)


@pytest.mark.parametrize("p,q,F", list(residue_grid()))
def test_euler_residues_match_the_exact_route(p, q, F):
    # every entry of the column, 21 to 45 of them; a shorter column, of a
    # smaller modulus p^M, is a prefix of the full one
    Q = q**F
    for precision in (8, 16, 24, 32):
        ctx = QContext(p=p, q=q, precision=precision)
        L = ctx.column_length
        deltas = lfun._deltas(F, L, ctx)
        assert len(deltas) == L
        for j, delta in enumerate(deltas):
            assert delta == exact_delta(j, Q, ctx).parts, (precision, j)
        for J in (1, ctx.guard + 1, ctx.guard + 6, L - 1):
            assert lfun._deltas(F, J, ctx) == deltas[:J], (precision, J)


@pytest.mark.parametrize("p,q,F", list(residue_grid()))
def test_residue_differences_meet_the_valuation_bound(p, q, F):
    # v_p(Delta_j) >= j v_p(Q - 1): the bound the residues' modulus rests on
    Q = q**F
    e = v_p(Q - 1, p)
    assert e == v_p(q - 1, p) + v_p(F, p)  # lifting the exponent: _deltas' e
    for precision in (8, 16, 24, 32):
        ctx = QContext(p=p, q=q, precision=precision)
        deltas = lfun._deltas(F, ctx.column_length, ctx)
        for j, parts in enumerate(deltas):
            delta = PadicNumber(p, *parts)
            assert delta.valuation >= j * e, (precision, j)  # inf for an exact zero


@pytest.mark.parametrize("margin_below_n,exact_indices", [
    (None, set()),                       # the column's own modulus: no value refused
    (1, set(range(21))),                 # M = N - 1: every residue is short
    ("all", set(range(21))),             # M = 0: every residue is zero
])
def test_refused_residues_take_the_exact_route(monkeypatch, margin_below_n, exact_indices):
    ctx = CTX34
    Q = ctx.q**3
    e = v_p(Q - 1, 3)
    J = ctx.column_length  # 21
    N = ctx.working_precision + WORKING_MARGIN
    if margin_below_n == "all":
        monkeypatch.setattr(lfun, "RESIDUE_MARGIN", -N - J * e)
    elif margin_below_n is not None:
        monkeypatch.setattr(lfun, "RESIDUE_MARGIN", -J * e - margin_below_n)
    exact_calls = []

    def recording_euler_number(j, base):
        exact_calls.append(j)
        return euler_number(j, base)

    monkeypatch.setattr(lfun, "euler_number", recording_euler_number)
    assert lfun._deltas(3, J, ctx) == [exact_delta(j, Q, ctx).parts for j in range(J)]
    assert set(exact_calls) == exact_indices


def test_unit_sums_share_one_residue_table_without_a_scope(monkeypatch):
    # the tables call their builder on a miss only: each call records one build
    built = []
    builder = lfun._deltas

    def recording_deltas(F, J, ctx):
        built.append(F)
        return builder(F, J, ctx)

    monkeypatch.setattr(lfun, "_deltas", recording_deltas)
    chi = DirichletCharacter.teichmuller_power(1, 5)
    l_pq(2, chi, CTX56)  # four units a, one q^F
    T_full(1, 2, chi, CTX56)
    K_full(1, 2, chi, CTX56)
    assert built == [5] * 3
    built.clear()
    with series_cache():  # an open scope shares the column across the calls too
        l_pq(2, chi, CTX56)
        T_full(1, 2, chi, CTX56)
    assert built == [5]


def unit_sum_by_chi_eval(partial, chi, F, ctx):
    """2 sum over units a <= F of chi(a) partial(a : F), one chi_eval per unit."""
    acc = ctx.zero()
    parts = []
    for a in range(1, F + 1):
        if a % ctx.p == 0:
            continue
        c = chi_eval(chi, a, ctx)
        if c.is_zero:
            continue
        part = partial(PartialZetaParams(a, F))
        parts.append(part)
        acc = acc + c * part.value
    return merge_series(acc + acc, parts)


@pytest.mark.parametrize("s", [2, -3])
def test_unit_sums_read_the_chi_column(s):
    # quad:5*teich:1 vanishes at a = 5, 10 of F = 15: the column drops them;
    # l_pq opens its own scope when called unscoped, and reads the open one
    ctx = CTX34
    chi = DirichletCharacter.quadratic(5) * DirichletCharacter.teichmuller_power(1, 3)
    with series_cache():
        expected = unit_sum_by_chi_eval(lambda prm: H_pq(s, prm, ctx), chi, 15, ctx)
        assert [a for a, _ in lfun._chi_column(chi, 15, ctx)] == [1, 2, 4, 7, 8, 11, 13, 14]
        assert l_pq(s, chi, ctx, F=15) == expected
    assert l_pq(s, chi, ctx, F=15) == expected
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    with series_cache():
        expected = unit_sum_by_chi_eval(lambda prm: K_partial(2, s, prm, CTX56), w1, 5, CTX56)
    assert K_full(2, s, w1, CTX56) == expected


def test_series_cache_sizes_of_one_l_pq_scope():
    # l_pq(2, w^1) at p = 5 reads the tables of (F = 5, ctx): one unit table,
    # chi column, binomial column, Delta_j column, unit-free H column and body
    # scan, and per unit a < 5 one unit power and one H value; the power scans
    # are per shape (valuation, precision) of <a> - 1, three among the four
    # units (<1> - 1 = 0)
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    assert len({lfun._unit_table(5, CTX56)[a][0][::2] for a in range(1, 5)}) == 3
    with series_cache() as cache:
        l_pq(2, w1, CTX56)
        sizes = cache.sizes()
    assert sizes == {"unit_tables": 1, "chi_columns": 1, "binomials": 1, "power_scans": 3,
                     "deltas": 1, "terms": 1, "scans": 1, "powers": 4, "hk": 4}
    # every table entry is one miss; the hits are the reads of the tables
    # built once: the unit table (4 series), the body scan (4 units), the
    # binomial column (3 scans and the body scan) and one power scan (4 powers)
    assert cache.misses == sum(sizes.values()) == 17
    assert cache.hits == 3 + 3 + 3 + 1


def test_tables_outside_a_scope_leave_no_cycle():
    # the fresh tables of a call outside a scope are freed by reference
    # counting when it returns: a cycle between them and a scope object would
    # keep every column alive until the garbage collector runs
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    gc.collect()
    gc.disable()
    try:
        l_pq(2, w1, CTX56)
        l_pq(CTX56.embed(Fraction(1, 2)), w1, CTX56)
        T_partial(1, 2, PartialZetaParams(2, 5), CTX56)
        with series_cache():
            K_full(1, 2, w1, CTX56)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_power_scans_read_the_power_column_of_their_shape(monkeypatch):
    # a power scan's column depends on the shape (v, precision) of <a> - 1 and
    # the column's length, not on the unit: at a p-adic s it is the power_column
    # (p^v)^k of a unit step from ctx.one(), at an integer s the zeros
    # (k v, 0, 0); one scope over two p-adic s and one integer s scans each
    # (s, shape) once, with the values of the calls outside a scope
    units = (1, 2, 4, 5, 7, 8)
    s_values = [CTX34.embed(Fraction(1, 2)), CTX34.embed(Fraction(-3, 4)), 2]
    expected = [H_pq(s, PartialZetaParams(a, 9), CTX34) for s in s_values for a in units]
    shapes = {lfun._unit_table(9, CTX34)[a][0][::2] for a in units}
    assert len(shapes) > 1
    columns = []

    def recording(xs, ys, ctx, *, description):
        if description == "binomial power series":
            ys = list(ys)
            columns.append(ys)
        return scan_products(xs, ys, ctx, description=description)

    monkeypatch.setattr(lfun, "scan_products", recording)
    with series_cache():
        got = [H_pq(s, PartialZetaParams(a, 9), CTX34) for s in s_values for a in units]
    assert got == expected
    L = CTX34.column_length
    padic = [power_column(3, CTX34.one().parts, (v, 1, prec), L) for v, prec in shapes]
    zeros = [[(k * v, 0, 0) for k in range(L)] for v, _ in shapes]
    assert sorted(columns) == sorted(2 * padic + zeros)


@pytest.mark.parametrize("guard", [2, 3])
def test_integer_power_scans_keep_the_stop_of_the_unit_shape_scan(guard):
    # at an integer s the power scan runs over the zeros (k v, 0, 0) and
    # multiplies no unit: its stop, tail bound and flag, all _unit_pow reads
    # there, are the scan's over the shape column (p^v)^k, as both depend on
    # the terms' valuations alone
    for p, q, F in ((3, Fraction(4), 9), (5, Fraction(-4), 5), (7, Fraction(1, 8), 7)):
        for precision in (8, 16):
            ctx = QContext(p=p, q=q, precision=precision, guard=guard)
            shapes = {angle[::2] for angle, _ in lfun._unit_table(F, ctx).values()}
            tables = lfun._tables(F, ctx)
            for s in range(-30, 45):
                length = lfun._series_length(s, ctx)
                for v, prec in shapes:
                    full = scan_products(lfun._binomials(s, ctx), power_column(
                        p, ctx.one().parts, (v, 1, prec), length), ctx)
                    zeros = lfun._power_scan(s, v, prec, tables)
                    assert not any(zeros.terms), (ctx, s, v)
                    assert (len(zeros.terms), zeros.tail_bound, zeros.error) == \
                        (len(full.terms), full.tail_bound, full.error), (ctx, s, v)


def chain_by_public_calls(n, r, a, ctx):
    """verify._expansion_group as one public H_pq and K_partial call per k."""
    prm = PartialZetaParams(a, ctx.p)
    step = ctx.embed(ctx.q**a * q_int(ctx.p * n, ctx.q))
    w_inv = teichmuller(a, ctx.p, ctx.working_precision) ** -1

    def terms():
        coeff, power, twist = 1, ctx.embed((-1) ** n), w_inv ** r
        for k in itertools.count(1):
            coeff, power, twist = -coeff * (r + k - 1) // k, power * step, twist * w_inv
            piece = H_pq(r + k, prm, ctx).value + K_partial(n, r + k, prm, ctx).value
            yield -(ctx.embed(coeff) * power * twist * piece)

    return sum_products((term.parts for term in terms()), itertools.repeat((0, 1, INF)), ctx,
                        description="chain k-series").value


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unit_sums_equal_the_per_unit_public_route(p):
    # outside any scope, l_pq, K_full, T_full and the chain k-series read the
    # tables' H/K values per unit; each equals its sum over one public
    # H_pq/K_partial/T_partial call per unit, as a dataclass, at integer,
    # embedded integer and p-adic s
    ctx = QContext(p=p, q=Fraction(1 + p), precision=8)
    w1 = DirichletCharacter.teichmuller_power(1, p)
    mixed = DirichletCharacter.quadratic(5 if p == 3 else 3) * w1
    for s in (2, -3, ctx.embed(3), ctx.embed(Fraction(1, 2))):
        for chi in (w1, mixed):
            F = math.lcm(p, chi.conductor)
            expected = unit_sum_by_chi_eval(lambda prm: H_pq(s, prm, ctx), chi, F, ctx)
            assert l_pq(s, chi, ctx) == expected, (s, chi)
        for n in (1, 2):
            assert K_full(n, s, w1, ctx) == unit_sum_by_chi_eval(
                lambda prm: K_partial(n, s, prm, ctx), w1, p, ctx), (s, n)
            assert T_full(n, s, w1, ctx) == unit_sum_by_chi_eval(
                lambda prm: T_partial(n, s, prm, ctx), w1, p, ctx), (s, n)
    for n in (1, 2):
        for a in range(1, p):
            assert verify._expansion_group(n, 1, a, ctx) == \
                chain_by_public_calls(n, 1, a, ctx).parts


@pytest.mark.parametrize("p", [3, 5])
def test_aggregates_keep_the_per_unit_error_messages(p):
    # the aggregates check their arguments once, before any table is built,
    # and refuse with the message of the per-unit series they sum: q = 1 does
    # not reach the unit table's inverse of 1 - q
    ctx, one = QContext(p=p, q=Fraction(1 + p)), QContext(p=p, q=Fraction(1))
    w1, prm = DirichletCharacter.teichmuller_power(1, p), PartialZetaParams(1, p)
    cases = [
        ([lambda: l_pq(2, w1, one), lambda: verify._expansion_group(1, 1, 1, one),
          lambda: verify.thm5_rhs(1, 1, one), lambda: H_pq(2, prm, one)],
         "H_pq divides by (1 - q): use classical limit path"),
        ([lambda: K_full(1, 2, w1, one), lambda: K_partial(1, 2, prm, one)],
         "K_partial divides by (1 - q): use classical limit path"),
        ([lambda: T_full(1, 2, w1, one), lambda: T_partial(1, 2, prm, one)],
         "T_partial divides by (1 - q): use classical limit path"),
        ([lambda: K_full(0, 2, w1, ctx), lambda: K_partial(0, 2, prm, ctx)],
         "K_partial requires n >= 1"),
        ([lambda: T_full(0, 2, w1, ctx), lambda: T_partial(0, 2, prm, ctx)],
         "T_partial requires n >= 1"),
        ([lambda: l_pq(2, w1, ctx, F=p + 2)], "l_pq requires an odd positive multiple of p for F"),
    ]
    for name, series in (("H_pq", lambda prm: H_pq(2, prm, ctx)),
                         ("K_partial", lambda prm: K_partial(1, 2, prm, ctx)),
                         ("T_partial", lambda prm: T_partial(1, 2, prm, ctx))):
        cases.append(([lambda f=series: f(PartialZetaParams(1, p + 2))], f"{name} requires p | F"))
        cases.append(([lambda f=series: f(PartialZetaParams(p, 3 * p))],
                      f"{name} requires gcd(a, p) = 1"))
    for calls, message in cases:
        for call in calls:
            for scoped in (False, True):
                with series_cache() if scoped else contextlib.nullcontext():
                    with pytest.raises(ValueError) as info:
                        call()
                assert str(info.value) == message


def test_thm5_grid_evaluates_each_character_value_once(monkeypatch):
    # l_pq, K_full and T_full at every k of every grid point read one
    # (chi, F, ctx) column: at most (p - 1)^2 distinct values, each once
    calls = []

    def recording_chi_residues(chi, ns, p, W):
        ns = list(ns)
        calls.extend((chi, a, p, W) for a in ns)
        return chi_residues(chi, ns, p, W)

    monkeypatch.setattr(lfun, "chi_residues", recording_chi_residues)
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    thm5_grid([1, 2], [1, 2], ctx)
    assert len(calls) == len(set(calls)) <= (ctx.p - 1) ** 2


@pytest.mark.parametrize("p,q,F", list(residue_grid()))
def test_term_bases_meet_the_proven_bound(p, q, F):
    # every unit-free H/K entry p^(-j v) Delta_j [q^(nFj) - 1], v = v_p(1-q),
    # has valuation >= j v_p(F), plus e = v_p(q^F - 1) for K at j >= 1:
    # v_p(Delta_j) >= j e; and the premise of the unit-free column holds for
    # every unit a < F: q^a/(1-q^a) has valuation -v_p(1-q) and N digits
    vF, v, e = v_p(F, p), v_p(1 - q, p), v_p(q**F - 1, p)
    for precision in (8, 16, 24):
        ctx = QContext(p=p, q=q, precision=precision)
        N = ctx.working_precision + WORKING_MARGIN
        with series_cache():
            for a, (_, ratio) in lfun._unit_table(F, ctx).items():
                assert (ratio[0], ratio[2]) == (-v, N), (precision, a)
            for n in (0, 1, 2):
                for j, base in enumerate(lfun._term_column(n, ctx.column_length, lfun._tables(F, ctx))):
                    bound = j * vF + (e if n and j else 0)
                    assert PadicNumber(p, *base).valuation >= bound, (precision, n, j)


@pytest.mark.parametrize("p,q,F", list(residue_grid()))
def test_integer_columns_equal_the_padic_chains(p, q, F):
    # each unit's columns, the unit-free ones times its unit r^j, equal the
    # parts of the PadicNumber product chains they replace: (<a> - 1)^k from
    # ctx.one(), and (q^a/(1-q^a))^j Delta_j [q^(nFj) - 1] from ctx.embed(1)
    for precision in (8, 16, 24):
        ctx = QContext(p=p, q=q, precision=precision)
        L = ctx.column_length

        def scaled(column, r):
            return [(v, u * pow(r, j, p**prec) % p**prec if prec else u, prec)
                    for j, (v, u, prec) in enumerate(column)]

        with series_cache():
            deltas = lfun._deltas(F, L, ctx)
            for a in (1, 2, F - 1):
                (v, t, prec), (_, r, _) = lfun._unit_table(F, ctx)[a]
                shape = power_column(p, ctx.one().parts, (v, 1, prec), L)
                chain, power = [], ctx.one()
                for _ in range(L):
                    chain.append(power.parts)
                    power = power * (angle_bracket(a, ctx) - ctx.one())
                assert scaled(shape, t) == chain, (precision, a)
                step = ctx.embed(q**a / (1 - q**a))
                for n in (0, 1, 2):
                    power, chain = ctx.embed(1), []
                    for j in range(L):
                        base = power * PadicNumber(p, *deltas[j])
                        if n:
                            base = base * ctx.embed(q ** (n * F * j) - 1)
                        chain.append(base.parts)
                        power = power * step
                    assert scaled(lfun._term_column(n, L, lfun._tables(F, ctx)), r) == chain, (precision, a, n)


def table_grid():
    """(p, q): q = 1+p, 1+2p, 1-p, 1/(1+p) and 1+p^2 (v_p(q-1) = 2), and 7/4 at p = 3."""
    for p in (3, 5, 7, 11):
        qs = [Fraction(1 + p), Fraction(1 + 2 * p), Fraction(1 - p), Fraction(1, 1 + p),
              Fraction(1 + p * p)] + ([Fraction(7, 4)] if p == 3 else [])
        for q in qs:
            yield p, q


def deltas_reduced_row(Q, J, ctx):
    """Delta_j for j < J from the row of 1/(1 + Q^k) mod p^M, its differences
    reduced mod p^M every round, each accepted when M - v_p >= N, as in
    :func:`lfun._deltas` (the exact route covers the rest)."""
    p, N = ctx.p, ctx.working_precision + WORKING_MARGIN
    M = N + J * v_p(Q - 1, p) + lfun.RESIDUE_MARGIN
    mod = p**M
    Qm = Q.numerator * pow(Q.denominator, -1, mod) % mod
    row = [pow(1 + pow(Qm, k, mod), -1, mod) for k in range(J)]
    column = []
    for j in range(J):
        unit, v = (0, M) if row[0] == 0 else lfun._strip_p(row[0], p)
        column.append((v, unit % p**N, N) if M - v >= N else exact_delta(j, Q, ctx).parts)
        row = [(x - y) % mod for x, y in zip(row, row[1:])]
    return column


@pytest.mark.parametrize("p,q", list(table_grid()))
def test_unit_tables_equal_the_fraction_routes(p, q):
    # <a> - 1 from angle_bracket's Fraction route and q^a/(1-q^a) embedded
    # exactly, for every unit a < 15p, and Delta_j from the reduced
    # difference row
    for precision in (1, 4, 8, 16, 24):
        ctx = QContext(p=p, q=q, precision=precision)
        N, L = ctx.working_precision + WORKING_MARGIN, ctx.column_length
        F = 15 * p if precision == 24 else 3 * p
        with series_cache():
            table = lfun._unit_table(F, ctx)
            assert list(table) == [a for a in range(1, F) if a % p]
            for a, (minus_one, ratio) in table.items():
                angle = ctx.embed(q_int(a, q)) / teichmuller(a, p, N)
                assert minus_one == (angle - ctx.one()).parts, (precision, a)
                assert ratio == ctx.embed(q**a / (1 - q**a)).parts, (precision, a)
            for G in (p, 3 * p):
                expected = deltas_reduced_row(q**G, L, ctx)
                assert lfun._deltas(G, L, ctx) == expected, (precision, G)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unit_table_lifts_once_per_class(monkeypatch, p):
    # a cold unit table at F = 15p, 15 (p - 1) units, looks up one Teichmuller
    # lift per nonzero class mod p, not one per unit
    calls = []

    def counting(a, prime, N):
        calls.append(a % prime)
        return teichmuller(a, prime, N)
    monkeypatch.setattr(lfun, "teichmuller", counting)
    table = lfun._unit_table(15 * p, QContext(p=p, q=Fraction(1 + p), precision=8))
    assert len(table) == 15 * (p - 1)
    assert len(calls) == len(set(calls)) <= p - 1


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_chi_column_reads_the_integer_residue(p):
    # chi(a) over the units a <= F, the zeros dropped: chi_eval's values
    # (whose PadicNumber route tests/test_characters.py keeps as reference)
    for precision in (1, 8, 24):
        ctx = QContext(p=p, q=Fraction(1 + p), precision=precision)
        for spec in ("trivial", "teich:1", "quad:5*teich:1", "quad:3*teich:2", "quad:7*quad:5"):
            chi = parse_character(spec, p)
            F = math.lcm(p, chi.conductor)
            values = [(a, chi_eval(chi, a, ctx)) for a in range(1, F + 1) if a % p]
            assert lfun._chi_column(chi, F, ctx) == [(a, c.parts) for a, c in values
                                                     if not c.is_zero]


@pytest.mark.parametrize("p,q,F", list(residue_grid()))
def test_unit_power_terms_meet_the_proven_bound(p, q, F):
    # every term binom(-s, k) (p^v)^k of a power scan's column has valuation
    # >= k for every p-adic integer s: binom(-s, k) is a p-adic integer and
    # <a> = 1 mod p; and the premise of the scan holds for every unit a < F:
    # the valuations and precisions of (<a> - 1)^k depend only on the shape
    # (v, precision) of <a> - 1, the units being t^k
    rational = [x for x in (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)) if v_p(x, p) >= 0]
    for precision in (8, 16, 24):
        ctx = QContext(p=p, q=q, precision=precision)
        L = ctx.column_length
        with series_cache():
            shapes = {}
            for a in range(1, F):
                if a % p:
                    t = angle_bracket(a, ctx) - ctx.one()
                    assert t.parts == lfun._unit_table(F, ctx)[a][0], (precision, a)
                    powers = power_column(p, ctx.one().parts, t.parts, L)
                    shape = shapes.setdefault((t.valuation, t.precision), powers)
                    assert [(v, prec) for v, _, prec in powers] == \
                        [(v, prec) for v, _, prec in shape], (precision, a)
            for v, prec in shapes:
                column = power_column(p, ctx.one().parts, (v, 1, prec), L)
                for s in [-3, 0, 1, 2, 7] + [ctx.embed(x) for x in rational]:
                    for k, (coeff, entry) in enumerate(zip(lfun._binomials(s, ctx), column)):
                        term = PadicNumber(p, *mul_parts(p, coeff, entry))
                        assert term.valuation >= k, (precision, v, s, k)


@pytest.mark.parametrize("p,q,F", [(p, q, F) for p, q, F in residue_grid() if F % p == 0])
def test_k_series_pieces_meet_the_proven_bound(p, q, F):
    # thm5's printed and chain k-series stop within ctx.column_length terms
    # because their k-th term has valuation >= k: a p-adic integer times a
    # power of valuation >= k times values at s = r + k that are p-adic
    # integers, K's a multiple of p; padic_pow's k-th term binom(s, k) (u-1)^k
    # has valuation >= k for u = 1 mod p
    ctx = QContext(p=p, q=q, precision=8)

    def chi_of(s):  # thm5's twist w^(-s)
        return DirichletCharacter.teichmuller_power(-s % (p - 1), p)

    with series_cache():
        for s in range(1, 12):
            for a in (1, 2, F - 1):
                prm = PartialZetaParams(a, F)
                assert H_pq(s, prm, ctx).value.valuation >= 0, (s, a)
                for n in (1, 2):
                    assert K_partial(n, s, prm, ctx).value.valuation >= 1, (s, a, n)
            assert l_pq(s, chi_of(s), ctx, F=F).value.valuation >= 0, s
            if F == p:
                for n in (1, 2):
                    assert K_full(n, s, chi_of(s), ctx).value.valuation >= 1, (s, n)
    for a in (1, 2, F - 1):
        t = angle_bracket(a, ctx) - ctx.one()
        for s in (-3, 2, 7, ctx.embed(Fraction(-1, 2))):
            power = ctx.one()
            for k, coeff in enumerate(islice(binom_stream(s, ctx), ctx.column_length)):
                assert (coeff * power).valuation >= k, (a, s, k)
                power = power * t


@pytest.mark.parametrize("p,q", sorted({(p, q) for p, q, _ in residue_grid()}))
def test_eq24_group_terms_meet_the_proven_bound(p, q):
    # the s-th term of each eq24 group has valuation >= s v_p(F) = s (F = p):
    # its coefficient binom(-r, s) head_s has valuation >= s, as
    # (q^a [F]/[a])^s has valuation s v_p(F), and its free parts are
    # p-integral, as E_{s,Q} = 2 Delta_s/(1-Q)^s is
    for precision in (8, 16):
        ctx = QContext(p=p, q=q, precision=precision)
        with series_cache():
            for n in (1, 2, 3):
                for column in _eq24_free_parts(n, ctx):
                    for s, free in enumerate(column):
                        assert PadicNumber(p, *free).valuation >= 0, (precision, n, s)
            for r in (1, 2):
                for a in range(1, p):
                    for s, head in enumerate(_eq24_heads(r, a, ctx)):
                        assert PadicNumber(p, *head).valuation >= s, (precision, r, a, s)


def columns_at(s, ctx):
    """Every scoped column the H, K and <a>^(-s) series at s read, at F = p."""
    J = lfun._series_length(s, ctx)
    return [lfun._binomials(s, ctx), lfun._deltas(ctx.p, J, ctx),
            lfun._term_column(0, J, lfun._tables(ctx.p, ctx)),
            lfun._term_column(1, J, lfun._tables(ctx.p, ctx))]


def test_scoped_columns_have_the_context_length():
    # at positive and p-adic s every column holds ctx.column_length = working
    # precision + guard entries: a series whose j-th term has valuation >= j
    # stops by the last of them; so do eq24's columns
    for ctx in (CTX34, QContext(p=5, q=Fraction(6), precision=16, guard=5)):
        L = ctx.column_length
        assert L == ctx.working_precision + ctx.guard
        with series_cache():
            columns = (columns_at(2, ctx) + columns_at(ctx.embed(Fraction(1, 2)), ctx)
                       + columns_at(ctx.embed(-2), ctx)
                       + list(_eq24_free_parts(1, ctx)) + [_eq24_heads(2, 1, ctx)])
            assert [len(c) for c in columns] == [L] * len(columns)
            # at s = -n, binom(n, j) = 0 for j > n: the guard fires by index
            # n + guard, so the columns hold min(L, n + guard + 1) entries
            for n in (0, 1, 5, L - ctx.guard - 1, L - ctx.guard, 30):
                lengths = [len(c) for c in columns_at(-n, ctx)]
                assert lengths == [min(L, n + ctx.guard + 1)] * len(lengths), n
        # and no longer than they must be: here H meets its guard at the last entry
        assert H_pq(1, PartialZetaParams(2, ctx.p), ctx).last_index == L - 1
        assert H_pq(-1, PartialZetaParams(2, ctx.p), ctx).last_index == 1 + ctx.guard


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 30])
def test_finite_series_read_the_same_terms_from_shorter_columns(monkeypatch, n):
    # at s = -n the columns of min(column_length, n + guard + 1) entries give
    # the values and series fields of full-length columns, the guard doubled too
    def values(ctx):
        p = ctx.p
        chi = DirichletCharacter.quadratic(5) * DirichletCharacter.teichmuller_power(1, p)
        with series_cache():
            return ([H_pq(-n, PartialZetaParams(a, 3 * p), ctx) for a in (1, 2, 4)]
                    + [K_partial(m, -n, PartialZetaParams(2, p), ctx) for m in (1, 2)]
                    + [T_partial(1, -n, PartialZetaParams(1, p), ctx), l_pq(-n, chi, ctx)])

    for ctx in (CTX34, CTX34.with_doubled_truncation(),
                QContext(p=7, q=Fraction(8), precision=16)):
        short = values(ctx)
        with monkeypatch.context() as patched:
            patched.setattr(lfun, "_series_length", lambda s, ctx: ctx.column_length)
            full = values(ctx)
        assert short == full, (ctx, n)


def too_short_power(ctx):
    """The per-unit <a>^(-s) of H(1/2, 2:9) over a binomial column of 6 entries."""
    s = ctx.embed(Fraction(1, 2))
    return sum_products(lfun._binomials(s, ctx)[:6], per_unit_powers(2, 9, 21, ctx), ctx)


def too_short_exact_power(ctx):
    """<a>^(-s) of H(2, 2:9) over a binomial column of 6 entries: the per-unit
    fold's stop, tail bound and flag, its value the exact power <2>^(-2)."""
    with pytest.raises(SeriesDivergenceError) as fold:
        sum_products(lfun._binomials(2, ctx)[:6], per_unit_powers(2, 9, 21, ctx), ctx)
    exact = (angle_bracket(2, ctx) ** -2).at_absolute_precision(ctx.working_precision)
    raise SeriesDivergenceError(str(fold.value), replace(fold.value.partial, value=exact))


def too_short_body(n, F):
    """The per-unit H (n = 0) or K body at (2, 2:F) over a column of 6 entries."""
    return lambda ctx: sum_products(lfun._binomials(2, ctx),
                                    per_unit_term_bases(n, 2, F, 21, ctx)[:6], ctx)


def too_short_eq24(ctx):
    """eq24's series of thm5 (2, 1) at a = 1 over heads of 6 entries."""
    return sum_products(_eq24_heads(1, 1, ctx)[:6], _eq24_free_parts(2, ctx)[0], ctx)


@pytest.mark.parametrize("module,column,series,name,reference", [
    (lfun, "_binomials",
     lambda ctx: H_pq(ctx.embed(Fraction(1, 2)), PartialZetaParams(2, 9), ctx),
     "binomial power series", too_short_power),
    (lfun, "_binomials", lambda ctx: H_pq(2, PartialZetaParams(2, 9), ctx),
     "binomial power series", too_short_exact_power),
    (lfun, "_term_column", lambda ctx: H_pq(2, PartialZetaParams(2, 9), ctx), "H_pq series",
     too_short_body(0, 9)),
    (lfun, "_term_column", lambda ctx: K_partial(1, 2, PartialZetaParams(2, 3), ctx),
     "K series", too_short_body(1, 3)),
    (verify, "_eq24_heads", lambda ctx: thm5_report(2, 1, ctx), "eq24 series", too_short_eq24),
], ids=["unit-power", "unit-power-integer-s", "H", "K", "eq24"])
def test_columns_too_short_for_the_guard_raise(monkeypatch, module, column, series, name,
                                               reference):
    # a column that ends before the guard can fire breaks the proven term
    # bound: a PadicError naming the series, never a converged value whose
    # tail is reported identically zero; its partial is the per-unit fold's
    # over the same short column (for <a>^(-s), H and K the unit's point
    # applied to the unit-free scan), except that <a>^(-s) at an integer s,
    # one modular power, keeps its exact value
    with pytest.raises(SeriesDivergenceError) as expected:
        reference(CTX34)
    full = getattr(module, column)
    monkeypatch.setattr(module, column, lambda *args: full(*args)[:6])
    with pytest.raises(PadicError, match=f"^{name}: guard not satisfied within its 21 column") \
            as info:
        series(CTX34)
    assert info.value.partial == expected.value.partial


@pytest.mark.parametrize("q", [Fraction(4), Fraction(-2), Fraction(7, 4), Fraction(1, 4)])
@pytest.mark.parametrize("n,F", [(1, 3), (2, 3), (1, 5), (3, 15)])
def test_k_inner_sum_is_a_power_minus_one(q, n, F):
    # sum_{j=1}^{l} C(l,j) [nF]^j (q-1)^j == q^(nFl) - 1, the K series' inner sum
    count = q_int(n * F, q)
    for l in range(8):
        total = sum((math.comb(l, j) * count**j * (q - 1) ** j
                     for j in range(1, l + 1)), Fraction(0))
        assert total == q ** (n * F * l) - 1


# ---------------------------------------------------------------------------
# golden series values
# ---------------------------------------------------------------------------

#: to_json_dict() of each case below, as computed when every series term was
#: formed as one exact rational and then reduced; the per-factor reduction of
#: the terms must reproduce every digit and every series field.  T is now
#: derived from H and K: the odd-n T entries at p = 5, int:2 and int:3, carry
#: the merged H and K tail_valuation_bound, 18 where the summed T read 19
GOLDEN = json.loads((Path(__file__).parent / "data" / "series_golden.json").read_text())


def golden_cases():
    for p in (3, 5, 7):
        ctx = QContext(p=p, q=Fraction(p + 1), precision=8)
        chi = DirichletCharacter.teichmuller_power(1, p)
        exponents = [("int:2", 2), ("int:3", 3),
                     ("padic:1/2", ctx.embed(Fraction(1, 2))),
                     ("padic:-3/4", ctx.embed(Fraction(-3, 4))),
                     ("embedded:-2", ctx.embed(-2))]
        for name, s in exponents:
            for a in (1, 2):
                yield f"H_pq/p{p}/a{a}/{name}", H_pq(s, PartialZetaParams(a, p), ctx)
            prm = PartialZetaParams(2, p)
            for n in (1, 2):
                yield f"K_partial/p{p}/a2/n{n}/{name}", K_partial(n, s, prm, ctx)
                yield f"T_partial/p{p}/a2/n{n}/{name}", T_partial(n, s, prm, ctx)
            yield f"l_pq/p{p}/teich1/{name}", l_pq(s, chi, ctx)
        # units above p, one in every nonzero class mod p, at F = 3p (K at n = 1)
        # and F = 5p (K at n = 2): a unit and its class no longer coincide
        for F, n, start in ((3 * p, 1, p), (5 * p, 2, 3 * p)):
            for a in range(start + 1, start + p):
                prm = PartialZetaParams(a, F)
                for name, s in exponents[1:]:
                    yield f"H_pq/p{p}/F{F}/a{a}/{name}", H_pq(s, prm, ctx)
                    yield f"K_partial/p{p}/F{F}/a{a}/n{n}/{name}", K_partial(n, s, prm, ctx)


def test_series_values_match_the_golden_file():
    got = {name: result.to_json_dict() for name, result in golden_cases()}
    assert set(got) == set(GOLDEN)
    mismatched = sorted(name for name in got if got[name] != GOLDEN[name])
    assert not mismatched, f"{len(mismatched)} cases differ, first {mismatched[:3]}"


def test_l_pq_at_high_precision_matches_the_golden_file():
    # pinned with exact series terms; here the Delta_j stream's first round
    # holds Delta_0 .. Delta_45 mod 7^146
    golden = json.loads((Path(__file__).parent / "data" /
                         "lpq_high_precision_golden.json").read_text())
    got = {}
    ctx = QContext(p=7, q=Fraction(8), precision=32)
    chi = DirichletCharacter.teichmuller_power(1, 7)
    exponents = [("int:1", 1), ("int:-3", -3), ("padic:1/2", ctx.embed(Fraction(1, 2))),
                 ("embedded:-2", ctx.embed(-2))]
    for name, s in exponents:
        got[f"l_pq/p7/prec32/teich1/{name}"] = l_pq(s, chi, ctx).to_json_dict()
    # F = 35 with 24 units; the columns stop at index 60 (precision 48) and 76 (64)
    chi = parse_character("quad:5*teich:1", 7)
    for precision in (48, 64):
        ctx = QContext(p=7, q=Fraction(8), precision=precision)
        for name, s in [("int:3", 3), ("int:-3", -3), ("padic:1/2", ctx.embed(Fraction(1, 2)))]:
            key = f"l_pq/p7/prec{precision}/quad5_teich1/{name}"
            got[key] = l_pq(s, chi, ctx).to_json_dict()
    assert got == golden
