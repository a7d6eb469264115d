"""The exact integer kernels against the Fraction loops they replaced.

``qeuler._closed_form``, ``qeuler._alt_level_sum`` and
``verify.binom_identities_check`` keep integer numerators and build one
Fraction at the end; ``_closed_form`` is its integer core
``_closed_form_pair``, whose pair need not be in lowest terms, normalized
once.  ``alt_power_sum_closed`` reads its polynomial value from
``euler_poly_moments``.  ``_closed_form`` sums weighted arguments over one
denominator, so ``gen_euler_number`` and ``distribution_sum`` are one closed
form each, per character value for a p-adic-valued character.
``characters.chi_sum`` is the one place that picks exact or p-adic character
values: one class weighted by chi(a) for a {0,+-1}-valued character, else one
class per distinct value, each class sum exact and embedded once.
``numerics.exact_sum_pairs`` adds the integer (numerator, denominator) terms
of ``euler_poly_moments``, ``verify.bernoulli_numbers`` and each class of
``lq_neg_series_path``, whose terms are each residue's unnormalized
closed-form pair (checked at the benchmark's conductors and k, where the
pairs grow to thousands of bits); through ``numerics.exact_sum`` it adds the
terms of ``thm5_lhs_exact``, ``_partial_sum_exact`` and ``remark_check``.  At
an integer q the level sum's Horner step is a plain add, checked at a full
level of 5^4 terms.  ``verify.classical_limit_check`` reads one Bernoulli table
for its whole grid, where the reference reruns the recurrence per m.  The
references below are the earlier loops that added one Fraction per term; a
Fraction is canonical, so every value must be equal, and every error must
have the same type and message (the references pass the public function's
name to ``euler_poly_frac``, which its errors carry, as the library does).
The p-adic twisted sums equal a class-sum reference, one embedded Fraction
loop per character value, and agree with the earlier per-residue sum to that
sum's absolute precision, never claiming fewer digits: a class sum is exact
before it is embedded, so it can keep digits the per-residue terms lost.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlfun import qeuler
from qlfun.characters import (
    DirichletCharacter,
    chi_eval,
    chi_eval_exact,
    chi_residue,
    chi_sum,
    parse_character,
)
from qlfun.lfun import PartialZetaParams, lq_neg_series_path, partial_zeta_neg
from qlfun.numerics import QContext, binom_int, exact_sum, exact_sum_pairs, q_int, v_p, valuation_json
from qlfun.qeuler import (
    FractionalArg,
    QEulerDomainError,
    _alt_level_sum,
    _check_base,
    _closed_form,
    _closed_form_pair,
    _closed_form_row,
    alt_power_sum_brute,
    alt_power_sum_closed,
    distribution_sum,
    euler_number,
    euler_poly_frac,
    euler_poly_moments,
    gen_euler_number,
    volkenborn_approx,
)
from qlfun.verify import (
    _partial_sum_exact,
    bernoulli_numbers,
    binom_identities_check,
    classical_euler_number,
    classical_limit_check,
    remark_check,
    thm5_lhs_exact,
)


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------

def closed_form_reference(n, Q, X, operation):
    _check_base(Q, operation)
    total = Fraction(0)
    for k in range(n + 1):
        d = 1 + Q**k
        if d == 0:
            raise QEulerDomainError(f"{operation}: pole at 1 + q^{k} = 0")
        total += math.comb(n, k) * (-X) ** k / d
    return 2 * (1 / (1 - Q)) ** n * total


def level_sum_reference(count, m, q):
    total = Fraction(0)
    sign = 1
    for x in range(count):
        total += sign * q_int(x, q) ** m
        sign = -sign
    return total


def power_sum_closed_reference(n, m, q):
    _check_base(q, "alt_power_sum_closed")
    sign = (-1) ** (n + 1)
    cnt = q_int(n, q)
    total = Fraction(0)
    for l in range(m):
        total += math.comb(m, l) * q ** (n * l) * euler_number(l, q) * cnt ** (m - l)
    return sign * total + (sign * q ** (n * m) + 1) * euler_number(m, q)


def volkenborn_reference(m, level, ctx):
    size = ctx.p**level
    return (Fraction(2) / q_int(2, ctx.q) / ((1 - (-ctx.q) ** size) / (1 + ctx.q))
            * level_sum_reference(size, m, ctx.q))


def binom_identities_reference(r_range, k_range, j_range):
    for r in r_range:
        for k in k_range:
            for j in j_range:
                if j + k > 0 and r + k != 1:
                    lhs = Fraction(1, r + k - 1) * binom_int(-r, k) * binom_int(1 - r - k, j)
                    rhs = Fraction(-1, j + k) * binom_int(-r, k + j - 1) * binom_int(k + j, j)
                    if lhs != rhs:
                        return False
                    if r != 1:
                        alt = Fraction(1, r - 1) * binom_int(-r + 1, k + j) * binom_int(k + j, j)
                        if lhs != alt:
                            return False
                lhs23 = Fraction(r, r + k) * binom_int(-r - 1, k) * binom_int(-r - k, j)
                rhs23 = binom_int(-r, k + j) * binom_int(k + j, j)
                if lhs23 != rhs23:
                    return False
    return True


def chi_weighted_sum_reference(chi, indices, exact_term, scale, ctx):
    """The per-residue sum: one Fraction per index, or one embedded term per
    index times its p-adic character value."""
    if chi.is_plus_minus_one_valued:
        total = Fraction(0)
        for a in indices:
            c = chi_eval_exact(chi, a)
            if c:
                total += c * exact_term(a)
        return scale * total
    acc = ctx.zero()
    for a in indices:
        c = chi_eval(chi, a, ctx)
        if not c.is_zero:
            acc = acc + c * ctx.embed(exact_term(a))
    return acc * ctx.embed(scale)


def chi_class_sum_reference(chi, indices, exact_term, scale, ctx):
    """The class sum: for a p-adic-valued chi, the indices grouped by their
    value chi_eval, each group's Fraction loop scaled and embedded once."""
    if chi.is_plus_minus_one_valued:
        return chi_weighted_sum_reference(chi, indices, exact_term, scale, ctx)
    classes = {}
    for a in indices:
        c = chi_eval(chi, a, ctx)
        if not c.is_zero:
            classes.setdefault(c, []).append(a)
    acc = ctx.zero()
    for c, members in classes.items():
        total = Fraction(0)
        for a in members:
            total += exact_term(a)
        acc = acc + c * ctx.embed(scale * total)
    return acc


def gen_euler_reference(n, chi, q, ctx=None, total=chi_weighted_sum_reference):
    f = chi.conductor
    return total(
        chi, range(f), lambda a: (-1) ** a * euler_poly_frac(n, FractionalArg(a, f), q,
                                                             "gen_euler_number"),
        q_int(f, q) ** n, ctx)


def lq_neg_series_reference(k, chi, q, ctx=None, total=chi_weighted_sum_reference):
    # 2 sum_a chi(a) H(-k, a:F), each term (-1)^a ([F]^k / 2) E_{k,q^F}(a/F)
    F = chi.conductor
    return total(
        chi, range(1, F + 1),
        lambda a: (Fraction((-1) ** a) * q_int(F, q) ** k / 2
                   * euler_poly_frac(k, FractionalArg(a, F), q, "lq_neg_series_path")),
        2, ctx)


def agrees_with_no_fewer_digits(value, reference):
    """value equals reference to reference's absolute precision and claims at
    least as many digits; an exact reference must be equal."""
    if isinstance(reference, Fraction):
        return value == reference
    bound = reference.abs_precision
    return value.abs_precision >= bound and value.at_absolute_precision(bound) == reference


def distribution_reference(n, x, m, q):
    if m < 1 or m % 2 == 0:
        raise ValueError("distribution_sum requires odd m >= 1")
    q = Fraction(q)
    total = Fraction(0)
    for a in range(m):
        total += (-1) ** a * euler_poly_frac(n, FractionalArg(a + x, m), q, "distribution_sum")
    return q_int(m, q) ** n * total


def moments_reference(n, x, q):
    _check_base(q, "euler_poly_moments")
    qx = q**x
    cnt = q_int(x, q)
    total = Fraction(0)
    for j in range(n + 1):
        total += math.comb(n, j) * qx**j * euler_number(j, q) * cnt ** (n - j)
    return total


def thm5_lhs_reference(n, r, ctx):
    if n < 1 or r < 1:
        raise ValueError("thm5 requires n, r >= 1")
    total = Fraction(0)
    for j in range(1, n * ctx.p + 1):
        if j % ctx.p:
            total += Fraction((-1) ** j) / q_int(j, ctx.q) ** r
    return 2 * total


def partial_sum_reference(n, r, a, ctx):
    F = ctx.p
    total = Fraction(0)
    for l in range(n):
        total += Fraction((-1) ** (a + F * l)) / q_int(a + F * l, ctx.q) ** r
    return total


def remark_reference(p, q):
    if q == 1:
        raise ValueError("remark_check requires q != 1")
    if q == -1:
        raise ValueError("remark_check requires q != -1: [j]_q = 0 for even j")
    lhs = Fraction(0)
    rhs = Fraction(0)
    for j in range(1, p):
        cnt = q_int(j, q)
        if Fraction(1) / cnt - (1 - q) != q**j / cnt:
            return False
        lhs += Fraction((-1) ** j) * q**j / cnt
        rhs += Fraction((-1) ** j) / cnt
    return lhs == rhs


def bernoulli_reference(n_max):
    out = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * out[k]
        out.append(-acc / (m + 1))
    return out


def classical_euler_reference(m):
    # one Bernoulli recurrence per m, from scratch
    bern = bernoulli_reference(m + 1)
    return Fraction(2) * (1 - Fraction(2) ** (m + 1)) * bern[m + 1] / (m + 1)


def classical_limit_reference(m_max, p, k_list, slack=1):
    rows = []
    ok = True
    for m in range(m_max + 1):
        target = classical_euler_reference(m)
        for k in k_list:
            val = v_p(euler_number(m, 1 + Fraction(p) ** k) - target, p)
            passed = val >= k - slack
            ok = ok and passed
            rows.append({"m": m, "k": k, "valuation": valuation_json(val),
                         "required": k - slack, "ok": passed})
    return {"p": p, "m_max": m_max, "k_list": list(k_list), "slack": slack,
            "rows": rows, "ok": ok}


def _outcome(call, *args):
    try:
        return call(*args)
    except (ValueError, ZeroDivisionError) as err:
        return ("error", type(err), str(err))


# q = a/b with a in [-12, 12] and b in [1, 6]: q = 0, q = 1 and q = -1 included
small_qs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
# the twisted sums also at 1/(1 + p) and 1 +- p for p = 3, 5, 7
twist_qs = st.one_of(small_qs, st.sampled_from(
    [Fraction(1, 1 + p) for p in (3, 5, 7)] + [Fraction(1 + p) for p in (3, 5, 7)]
    + [Fraction(1 - p) for p in (3, 5, 7)]))
# {0,+-1}-valued characters of odd conductor: quadratic conductors 3-19, and
# one with a Teichmuller atom (conductor 15)
exact_chars = st.one_of(
    st.sampled_from([3, 5, 7, 11, 13, 15, 17, 19]).map(DirichletCharacter.quadratic),
    st.just(DirichletCharacter.trivial()),
    st.just(DirichletCharacter.quadratic(5) * DirichletCharacter.teichmuller_power(1, 3)))
#: (p, q) with v_p(q - 1) >= 1 for the thm5 sums: q = 1 + p, 1 - p, 1/(1 + p), 1 + 2p, 1
thm5_points = st.sampled_from([(p, q) for p in (3, 5, 7) for q in (
    Fraction(1 + p), Fraction(1 - p), Fraction(1, 1 + p), Fraction(1 + 2 * p), Fraction(1))])


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@given(n=st.integers(0, 30), Q=small_qs,
       X=st.one_of(st.just(Fraction(1)), small_qs,
                   st.fractions(min_value=-50, max_value=50, max_denominator=40)),
       operation=st.sampled_from(["euler_number", "euler_poly", "euler_poly_frac"]))
@settings(max_examples=300, deadline=None)
def test_closed_form_equals_the_fraction_loop(n, Q, X, operation):
    X = Fraction(X)
    assert _outcome(_closed_form, n, Q, X.denominator, [(1, X.numerator)], operation) == \
        _outcome(closed_form_reference, n, Q, X, operation)


@given(n=st.integers(0, 14), Q=small_qs, xb=st.integers(1, 30),
       weights=st.lists(st.tuples(st.integers(-2, 2), st.integers(-60, 60)),
                        min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_weighted_closed_form_is_the_weighted_sum_of_closed_forms(n, Q, xb, weights):
    # one closed form over the arguments xa_i / xb: sum_i c_i E_{n,Q}(xa_i / xb)
    def reference():
        return exact_sum(c * closed_form_reference(n, Q, Fraction(xa, xb), "euler_poly_frac")
                         for c, xa in weights)
    assert _outcome(_closed_form, n, Q, xb, weights, "euler_poly_frac") == _outcome(reference)


@pytest.mark.parametrize("n,Q,xa,xb", [
    (6, Fraction(4), 3 * 7, 3**3), (9, Fraction(1, 3), 3**2 * 2, 3**4),
    (12, Fraction(5, 3), 5**3, 5**2 * 2), (7, Fraction(-2), 2**5, 2**3)])
def test_closed_form_pair_divided_out_equals_the_fraction_loop(n, Q, xa, xb):
    # arguments xa/xb that share a prime power: the integer core's pair is not
    # in lowest terms, and its quotient is the closed form
    num, den = _closed_form_pair(_closed_form_row(n, Q, "euler_poly_frac"), xb, [(1, xa)])
    assert math.gcd(num, den) > 1
    assert Fraction(num, den) == closed_form_reference(n, Q, Fraction(xa, xb),
                                                       "euler_poly_frac")


@given(terms=st.lists(st.one_of(st.integers(-10**6, 10**6),
                                st.fractions(max_denominator=10**4)), max_size=20))
@settings(max_examples=200, deadline=None)
def test_exact_sum_equals_the_fraction_fold(terms):
    total = Fraction(0)
    for term in terms:
        total += term
    assert exact_sum(terms) == total and type(exact_sum(terms)) is Fraction


@given(pairs=st.lists(st.tuples(st.integers(-10**6, 10**6),
                                st.integers(1, 10**4).map(lambda d: d * 6)), max_size=20))
@settings(max_examples=60, deadline=None)
def test_exact_sum_pairs_equals_the_fraction_fold(pairs):
    # the pairs need not be in lowest terms (every denominator here is a multiple of 6)
    total = Fraction(0)
    for n, d in pairs:
        total += Fraction(n, d)
    assert exact_sum_pairs(pairs) == total and type(exact_sum_pairs(pairs)) is Fraction


@given(n=st.integers(-1, 14), chi=exact_chars, q=twist_qs)
@settings(max_examples=200, deadline=None)
def test_gen_euler_number_equals_the_per_residue_loop(n, chi, q):
    def reference():
        if n < 0:
            raise ValueError("gen_euler_number requires n >= 0")
        return gen_euler_reference(n, chi, q)
    assert _outcome(gen_euler_number, n, chi, q) == _outcome(reference)


@given(k=st.integers(0, 14), chi=exact_chars, q=twist_qs)
@settings(max_examples=150, deadline=None)
def test_lq_neg_series_path_equals_the_per_residue_loop(k, chi, q):
    assert _outcome(lq_neg_series_path, k, chi, q) == \
        _outcome(lq_neg_series_reference, k, chi, q)


@pytest.mark.parametrize("d", [15, 17, 19])
@pytest.mark.parametrize("q", [Fraction(7), Fraction(5, 3), Fraction(7, 2), Fraction(1, 3)])
def test_lq_neg_series_path_at_the_benchmark_sizes(d, q):
    # the gen_vs_series sizes, which hypothesis seldom reaches: the closed forms'
    # pairs grow to thousands of bits, and a rational q makes xb = qb^a != 1
    chi = DirichletCharacter.quadratic(d)
    for k in range(10, 15):
        assert lq_neg_series_path(k, chi, q) == lq_neg_series_reference(k, chi, q)


@given(n=st.integers(-1, 14), x=st.integers(-2, 8), m=st.integers(0, 9), q=twist_qs)
@settings(max_examples=200, deadline=None)
def test_distribution_sum_equals_the_per_residue_loop(n, x, m, q):
    assert _outcome(distribution_sum, n, x, m, q) == _outcome(distribution_reference, n, x, m, q)


@given(n=st.integers(0, 14), x=st.integers(0, 8), q=twist_qs)
@settings(max_examples=150, deadline=None)
def test_euler_poly_moments_equals_the_fraction_loop(n, x, q):
    assert _outcome(euler_poly_moments, n, x, q) == _outcome(moments_reference, n, x, q)


@given(chi=exact_chars, q=twist_qs, k=st.integers(0, 14),
       scale=st.one_of(st.integers(-3, 3), small_qs))
@settings(max_examples=150, deadline=None)
def test_exact_chi_sum_equals_the_fraction_loop(chi, q, k, scale):
    # one class weighted by chi(a), an exact Fraction with or without a context
    F = chi.conductor

    def term(a):
        return euler_poly_frac(k, FractionalArg(a, F), q)

    def class_sum(weights):
        return scale * sum((c * term(a) for a, c in weights.items()), Fraction(0))
    expected = _outcome(chi_weighted_sum_reference, chi, range(2 * F), term, scale, None)
    assert _outcome(chi_sum, chi, range(2 * F), class_sum) == expected
    assert _outcome(chi_sum, chi, range(2 * F), class_sum, QContext(p=3, q=4)) == expected


@given(point=thm5_points, n=st.integers(0, 4), r=st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_thm5_exact_sums_equal_the_fraction_loops(point, n, r):
    p, q = point
    ctx = QContext(p=p, q=q)
    assert _outcome(thm5_lhs_exact, n, r, ctx) == _outcome(thm5_lhs_reference, n, r, ctx)
    for a in range(1, p):
        assert _partial_sum_exact(n, r, a, ctx) == partial_sum_reference(n, r, a, ctx)


def test_remark_check_equals_the_fraction_loop():
    # q = 1 is refused, and so is q = -1, where [2]_{-1} = 0 (it used to
    # raise a bare ZeroDivisionError)
    for p in (3, 5, 7, 11):
        for q in (Fraction(2), Fraction(7, 3), Fraction(-2), Fraction(1, 4), Fraction(0),
                  Fraction(1), Fraction(-1)):
            assert _outcome(remark_check, p, q) == _outcome(remark_reference, p, q)


def test_bernoulli_table_and_classical_euler_equal_the_fraction_loops():
    assert bernoulli_numbers(24) == bernoulli_reference(24)
    assert [classical_euler_number(m) for m in range(12)] == \
        [classical_euler_reference(m) for m in range(12)]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("m_max", [-1, 0, 4, 10])
def test_classical_limit_check_equals_the_per_m_loop(p, m_max):
    # one Bernoulli table for the whole grid gives the same report
    for k_max in (1, 4, 7):
        k_list = list(range(1, k_max + 1))
        assert classical_limit_check(m_max, p, k_list) == \
            classical_limit_reference(m_max, p, k_list)


def test_twisted_sums_keep_their_error_messages():
    # each domain error names the public function called (they all used to
    # name euler_poly_frac), on the exact and on the p-adic branch
    quad5 = DirichletCharacter.quadratic(5)
    w1 = DirichletCharacter.teichmuller_power(1, 3)

    def one(name):
        return ("error", QEulerDomainError, f"{name}: q = 1, use classical limit path")

    def pole(name):
        return ("error", QEulerDomainError, f"{name}: pole at 1 + q^1 = 0")
    negative = ("error", ValueError, "FractionalArg requires a >= 0")
    for call, reference in ((gen_euler_number, gen_euler_reference),
                            (lq_neg_series_path, lq_neg_series_reference)):
        name = call.__name__
        assert _outcome(call, 2, quad5, Fraction(1)) == _outcome(reference, 2, quad5, 1) \
            == one(name)
        assert _outcome(call, 2, quad5, Fraction(-1)) == _outcome(reference, 2, quad5, -1) \
            == pole(name)
        assert _outcome(call, 2, w1, None, QContext(p=3, q=1)) == one(name)
    assert _outcome(distribution_sum, 3, 1, 5, 1) == _outcome(distribution_reference, 3, 1, 5, 1) \
        == one("distribution_sum")
    assert _outcome(distribution_sum, 3, 1, 5, -1) == \
        _outcome(distribution_reference, 3, 1, 5, -1) == pole("distribution_sum")
    assert _outcome(distribution_sum, -1, 1, 5, 2) == \
        _outcome(distribution_reference, -1, 1, 5, 2) == \
        ("error", ValueError, "distribution_sum requires n >= 0")
    assert _outcome(partial_zeta_neg, 2, PartialZetaParams(1, 3), -1) == pole("partial_zeta_neg")
    assert _outcome(distribution_sum, 3, -1, 5, 2) == \
        _outcome(distribution_reference, 3, -1, 5, 2) == negative


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("spec", ["teich:1", "teich:2", "quad:5*teich:1"])
def test_padic_branches_give_the_same_padic_number(p, spec):
    # the p-adic branches of gen_euler_number and lq_neg_series_path: the class
    # sum's PadicNumber dataclass, valuation, unit and precision, and the
    # per-residue sum's digits to its absolute precision, never fewer
    chi = parse_character(spec, p)
    for q in (Fraction(1 + p), Fraction(1 - p), Fraction(1, 1 + p)):
        ctx = QContext(p=p, q=q)
        for k in range(6):
            for call, reference in ((gen_euler_number, gen_euler_reference),
                                    (lq_neg_series_path, lq_neg_series_reference)):
                value = call(k, chi, ctx=ctx)
                assert value == reference(k, chi, q, ctx, total=chi_class_sum_reference)
                assert agrees_with_no_fewer_digits(value, reference(k, chi, q, ctx))


def sweep_points():
    """A subset of the sweep p in {3, 5, 7, 11}, q in {1+p, 1-p, 1+p^2, 7/4},
    precision 4/8/16, teich:t and quad:d*teich:t, n up to P + 4."""
    yield 3, Fraction(7, 4), 4, "quad:5*teich:1", (0, 3, 8)
    yield 5, Fraction(26), 8, "teich:1", (1, 7, 12)
    yield 5, Fraction(-4), 4, "quad:3*teich:3", (0, 2, 8)
    yield 7, Fraction(50), 4, "teich:2", (2, 5, 8)
    yield 7, Fraction(8), 16, "teich:5", (1, 20)
    yield 11, Fraction(-10), 4, "quad:3*teich:2", (1, 8)


@pytest.mark.parametrize("p,q,precision,spec,ns", list(sweep_points()))
def test_class_sums_keep_the_per_residue_digits(p, q, precision, spec, ns):
    ctx = QContext(p=p, q=q, precision=precision)
    chi = parse_character(spec, p)
    for n in ns:
        value = gen_euler_number(n, chi, ctx=ctx)
        assert value == gen_euler_reference(n, chi, q, ctx, total=chi_class_sum_reference)
        assert agrees_with_no_fewer_digits(value, gen_euler_reference(n, chi, q, ctx)), n


def test_an_even_character_gains_a_digit_and_cancels_exactly():
    # teich:2 at p = 7, q = 8: the per-residue sum (the earlier value) against
    # the class sum; at k = 0 each class (-1)^a + (-1)^(7-a) cancels exactly
    chi = DirichletCharacter.teichmuller_power(2, 7)
    ctx = QContext(p=7, q=Fraction(8))
    old = {k: str(gen_euler_reference(k, chi, ctx.q, ctx)) for k in (0, 2)}
    assert old == {0: "0 (mod 7^18)", 2: "42056381756021*7^1 (mod 7^18)"}
    for call in (gen_euler_number, lq_neg_series_path):
        assert str(call(0, chi, ctx=ctx)) == "0 (mod 7^inf)"
        assert str(call(2, chi, ctx=ctx)) == "972578437704849*7^1 (mod 7^19)"


def test_gen_euler_number_takes_one_closed_form_per_character_value(monkeypatch):
    calls = []
    shifted_sum = qeuler._shifted_sum

    def counting(n, q, F, x, signs, operation):
        calls.append([a for a, c in enumerate(signs) if c])
        return shifted_sum(n, q, F, x, signs, operation)
    monkeypatch.setattr(qeuler, "_shifted_sum", counting)
    ctx = QContext(p=7, q=Fraction(8))
    chi = parse_character("quad:5*teich:1", 7)
    values = {chi_residue(chi, a, 7, ctx.working_precision) for a in range(35)} - {0}
    gen_euler_number(3, chi, ctx=ctx)
    assert len(calls) == len(values) == 6
    # the classes partition the residues a < 35 prime to 35
    assert sorted(a for members in calls for a in members) == \
        [a for a in range(35) if math.gcd(a, 35) == 1]
    calls.clear()
    gen_euler_number(3, DirichletCharacter.quadratic(5), q=Fraction(8))
    gen_euler_number(3, parse_character("teich:3", 7), ctx=ctx)  # {0,+-1}-valued
    assert len(calls) == 2


@given(count=st.integers(0, 60), m=st.integers(0, 8),
       q=st.one_of(small_qs, st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)])))
@settings(max_examples=300, deadline=None)
def test_level_sum_equals_the_fraction_loop(count, m, q):
    assert _alt_level_sum(count, m, q) == level_sum_reference(count, m, q)


@pytest.mark.parametrize("count", [3**6, 5**4])
@pytest.mark.parametrize("q", [Fraction(-4), Fraction(1, 4), Fraction(-2, 3)])
@pytest.mark.parametrize("m", [2, 3])
def test_level_sum_over_a_full_level_equals_the_fraction_loop(count, q, m):
    # counts p^level as volkenborn_approx sums them: the running powers
    # (a^i b^(m-i))^x grow to thousands of bits
    assert _alt_level_sum(count, m, q) == level_sum_reference(count, m, q)


@pytest.mark.parametrize("q", [Fraction(4), Fraction(11), Fraction(-4)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_level_sum_at_an_integer_q_equals_the_fraction_loop(q, m):
    # b^m = 1: the Horner step is a plain add
    assert _alt_level_sum(5**4, m, q) == level_sum_reference(5**4, m, q)


def test_level_sum_counts_zero_to_the_zeroth_power_as_one():
    # [0]^0 = 1: every even count at m = 0 sums to 0, every odd count to 1
    for q in (Fraction(4), Fraction(1, 4), Fraction(1), Fraction(0), Fraction(-1)):
        assert [_alt_level_sum(count, 0, q) for count in range(5)] == [0, 1, 0, 1, 0]


@given(n=st.integers(1, 14), m=st.integers(1, 8), q=small_qs)
@settings(max_examples=150, deadline=None)
def test_power_sum_closed_form_equals_the_fraction_loop(n, m, q):
    assert _outcome(alt_power_sum_closed, n, m, q) == \
        _outcome(power_sum_closed_reference, n, m, q)


@pytest.mark.parametrize("p,q", [(3, Fraction(4)), (3, Fraction(1)), (5, Fraction(1, 6)),
                                 (5, Fraction(-4)), (7, Fraction(8))])
def test_volkenborn_equals_the_fraction_loop(p, q):
    ctx = QContext(p=p, q=q)
    for level in (1, 2):
        for m in range(5):
            assert volkenborn_approx(m, level, ctx) == volkenborn_reference(m, level, ctx)


@given(r0=st.integers(1, 12), r_count=st.integers(1, 5), k_count=st.integers(1, 8),
       j_count=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_binom_identities_verdict_equals_the_fraction_loop(r0, r_count, k_count, j_count):
    grid = (range(r0, r0 + r_count), range(k_count), range(j_count))
    assert binom_identities_check(*grid) is binom_identities_reference(*grid)


def test_binom_identities_skip_r_plus_k_zero():
    # the third identity divides by r + k; the check skips r + k = 0 as a
    # side condition, where the Fraction loop raised ZeroDivisionError
    grid = (range(-4, -1), range(7), range(7))
    assert binom_identities_check(*grid) is True
    with pytest.raises(ZeroDivisionError):
        binom_identities_reference(*grid)
    assert binom_identities_check(range(-6, 12), range(9), range(9)) is True


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------

#: sha256 (first 32 hex digits) of "numerator/denominator" in hex, keyed
#: "m|level|p|q" (volkenborn_approx: the eight fixed slots of the
#: exact_identities benchmark, and p in {3, 5, 7}, q in {1 + p, 1/(1 - p), 1},
#: level 1-4, m 0-4) and "n|m|q" (alt_power_sum_brute: n 1-12, m 1-6,
#: q in {2, -2, 1/2, -1/3, 7/4}), captured from the Fraction loops
EXACT_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "exact_kernels_golden.json").read_text())


def _digest(value):
    return hashlib.sha256(f"{value.numerator:x}/{value.denominator:x}".encode()).hexdigest()[:32]


def _golden_value(name, key):
    if name == "alt_power_sum_brute":
        n, m, q = key.split("|")
        return alt_power_sum_brute(int(n), int(m), Fraction(q))
    m, level, p, q = key.split("|")
    return volkenborn_approx(int(m), int(level), QContext(p=int(p), q=Fraction(q)))


@pytest.mark.parametrize("name,size", [("volkenborn_slots", 8), ("volkenborn_grid", 180),
                                       ("alt_power_sum_brute", 360)])
def test_level_sums_match_the_golden_file(name, size):
    table = EXACT_GOLDEN[name]
    assert len(table) == size
    mismatched = sorted(key for key, value in table.items()
                        if _digest(_golden_value(name, key)) != value)
    assert not mismatched, f"{len(mismatched)} values differ, first {mismatched[:3]}"
