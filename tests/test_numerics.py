"""Exact rational primitives and truncated p-adic arithmetic."""

import dataclasses
from fractions import Fraction
from itertools import accumulate, count, islice, repeat
from math import factorial, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlfun.numerics import (
    WORKING_MARGIN,
    PadicError,
    PadicNumber,
    QContext,
    SeriesDivergenceError,
    angle_bracket,
    binom_int,
    binom_parts,
    binom_stream,
    mul_parts,
    padic_pow,
    power_column,
    q_int,
    reduce_mod_pN,
    residual_valuation,
    sum_guarded,
    sum_products,
    teichmuller,
    unit_residues,
    v_p,
)

SAMPLE_QS = [Fraction(2), Fraction(1, 2), Fraction(4), Fraction(7, 3), Fraction(-3, 5)]

rationals = st.fractions(min_value=-100, max_value=100).filter(lambda r: r != 0)


# ---------------------------------------------------------------------------
# q-integers
# ---------------------------------------------------------------------------

def test_q_int_examples():
    assert q_int(0, Fraction(5)) == 0
    assert q_int(3, Fraction(2)) == 7
    assert q_int(4, Fraction(3)) == 40
    assert q_int(7, Fraction(1)) == 7


def test_q_int_is_the_polynomial():
    for q in SAMPLE_QS:
        for x in range(10):
            assert q_int(x, q) == sum(q**i for i in range(x))


@given(x=st.integers(0, 50), y=st.integers(0, 50), q=rationals)
@settings(max_examples=60, deadline=None)
def test_q_int_cocycle(x, y, q):
    assert q_int(x + y, q) == q_int(x, q) + q**x * q_int(y, q)


# ---------------------------------------------------------------------------
# binomial coefficients
# ---------------------------------------------------------------------------

def test_binom_rat_examples():
    assert binom_int(-3, 1) == -3
    assert binom_int(-2, 2) == 3
    assert binom_int(5, 2) == 10


@given(t=st.integers(-100, 100), k=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_binom_rat_pascal(t, k):
    assert binom_int(t, k) + binom_int(t, k + 1) == binom_int(t + 1, k + 1)


@given(t=st.integers(-30, 30), k=st.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_binom_rat_integer_path_is_the_falling_factorial(t, k):
    product = Fraction(1)
    for i in range(k):
        product *= t - i
    got = binom_int(t, k)
    assert isinstance(got, int)
    assert got == product / factorial(k)


# ---------------------------------------------------------------------------
# reduction of exact rationals
# ---------------------------------------------------------------------------

def test_reduce_examples():
    one = reduce_mod_pN(Fraction(1), 3, 4)
    assert (one.valuation, one.unit) == (0, 1)

    x = reduce_mod_pN(Fraction(8, 65), 3, 4)
    inv65 = pow(65, -1, 81)  # independent extended-gcd inverse
    assert (x.valuation, x.unit) == (0, 8 * inv65 % 81)

    y = reduce_mod_pN(Fraction(9, 2), 3, 2)
    assert (y.valuation, y.unit) == (2, 5)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_valuation_refuses_a_base_below_two(p):
    # every integer is divisible by 1 (and by -1): stripping it would never end
    with pytest.raises(ValueError, match="must be >= 2"):
        v_p(Fraction(6, 5), p)
    with pytest.raises(ValueError, match="must be >= 2"):
        reduce_mod_pN(Fraction(6, 5), p, 4)


def test_reduce_zero_and_negative_valuation():
    z = reduce_mod_pN(Fraction(0), 5, 6)
    assert z.is_zero and z.valuation == inf

    neg = reduce_mod_pN(Fraction(7, 25), 5, 6)
    assert neg.valuation == -2 and neg.unit % 5 != 0


@given(a=st.fractions(min_value=-50, max_value=50),
       b=st.fractions(min_value=-50, max_value=50))
@settings(max_examples=80, deadline=None)
def test_reduce_is_a_ring_morphism(a, b):
    # agreement at matching precision: the difference of the two routes is
    # indistinguishable from zero at the shared absolute precision
    p, N = 5, 10
    ra, rb = reduce_mod_pN(a, p, N), reduce_mod_pN(b, p, N)
    if a * b != 0:
        assert (ra * rb - reduce_mod_pN(a * b, p, N)).is_zero
    if a + b != 0:
        assert (ra + rb - reduce_mod_pN(a + b, p, N)).is_zero


def reduce_by_division(r: Fraction, p: int, N: int) -> PadicNumber:
    """The reduction as first written: divide out p**v_p(r) as a Fraction."""
    val = v_p(r, p)
    scaled = r / Fraction(p) ** val
    modulus = p**N
    unit = scaled.numerator % modulus * pow(scaled.denominator % modulus, -1, modulus)
    return PadicNumber(p=p, valuation=val, unit=unit % modulus, precision=N)


@given(r=rationals, shift=st.integers(min_value=-6, max_value=6),
       p=st.sampled_from([3, 5, 7]))
@settings(max_examples=80, deadline=None)
def test_reduce_strips_p_like_the_fraction_route(r, shift, p):
    r = r * Fraction(p) ** shift
    assert reduce_mod_pN(r, p, 12) == reduce_by_division(r, p, 12)


@given(x=st.fractions(min_value=-200, max_value=200, max_denominator=10**6),
       y=st.fractions(min_value=-200, max_value=200, max_denominator=10**6),
       p=st.sampled_from([3, 5, 7]))
@settings(max_examples=100, deadline=None)
def test_embed_is_multiplicative_as_dataclasses(x, y, p):
    # the reason a series term may be reduced factor by factor
    ctx = QContext(p=p, q=Fraction(p + 1), precision=8)
    assert ctx.embed(x * y) == ctx.embed(x) * ctx.embed(y)
    assert ctx.embed(0 * y) == ctx.embed(0) * ctx.embed(y)


# ---------------------------------------------------------------------------
# PadicNumber core behavior
# ---------------------------------------------------------------------------

def padic_numbers(p: int):
    """Nonzero values of any precision and valuation, and zeros whose bound
    is finite or infinite."""
    zeros = st.one_of(st.just(inf), st.integers(-5, 40)).map(
        lambda bound: PadicNumber.zero(p, bound=bound))
    nonzero = st.integers(1, 30).flatmap(lambda prec: st.builds(
        lambda v, u: PadicNumber(p=p, valuation=v, unit=u if u % p else u + 1,
                                 precision=prec),
        st.integers(-5, 30), st.integers(1, p**prec - 1)))
    return st.one_of(nonzero, nonzero, zeros)


@given(xyz=st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.tuples(padic_numbers(p), padic_numbers(p), padic_numbers(p))))
@settings(max_examples=300, deadline=None)
def test_padic_multiplication_is_associative_and_commutative(xyz):
    # the reason a series term may be grouped as binom(-s, j) times an
    # s-free base read from a table: any grouping gives the same dataclass
    x, y, z = xyz
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert (x * y) * z == (x * z) * y


def product_by_cases(x, y):
    """The product rule written out case by case: a zero factor gives a zero
    bounded by the sum of the valuations, otherwise valuations add and the
    unit product is kept to the least precision."""
    if x.is_zero or y.is_zero:
        return PadicNumber.zero(x.p, bound=x.valuation + y.valuation)
    prec = min(x.precision, y.precision)
    return PadicNumber(p=x.p, valuation=x.valuation + y.valuation,
                       unit=x.unit * y.unit % x.p**prec, precision=prec)


@given(xy=st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.tuples(padic_numbers(p), padic_numbers(p))))
@settings(max_examples=300, deadline=None)
def test_integer_product_is_the_padic_product(xy):
    # the series terms multiply plain (valuation, unit, precision) parts:
    # the same dataclass as PadicNumber.__mul__, zeros and mixed precisions
    # included, and a zero's parts are (bound, 0, 0)
    x, y = xy
    parts = mul_parts(x.p, x.parts, y.parts)
    assert PadicNumber(x.p, *parts) == x * y == product_by_cases(x, y)
    assert parts == (x * y).parts
    if x.is_zero or y.is_zero:
        assert parts == (x.valuation + y.valuation, 0, 0)


@given(p=st.sampled_from([3, 5, 7]), a=rationals, b=rationals,
       na=st.integers(1, 25), nb=st.integers(1, 25))
@settings(max_examples=200, deadline=None)
def test_integer_product_reduces_the_exact_product(p, a, b, na, nb):
    # reduction is multiplicative: the product of two reductions is the
    # reduction of the exact product at the lesser precision
    x, y = reduce_mod_pN(a, p, na), reduce_mod_pN(b, p, nb)
    assert (PadicNumber(p, *mul_parts(p, x.parts, y.parts))
            == reduce_mod_pN(a * b, p, min(na, nb)))


def assert_zero_exactly_at_precision_zero(x):
    # the convention is_zero and the parts rest on: unit 0 exactly when
    # precision 0, and otherwise a unit mod p**precision
    assert (x.unit == 0) == (x.precision == 0), x
    assert 0 <= x.unit < x.p**x.precision and (x.is_zero or x.unit % x.p), x


@given(xy=st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.tuples(padic_numbers(p), padic_numbers(p))),
       exponent=st.integers(-4, 6), bound=st.one_of(st.just(inf), st.integers(-10, 60)))
@settings(max_examples=300, deadline=None)
def test_arithmetic_keeps_zero_exactly_at_precision_zero(xy, exponent, bound):
    x, y = xy
    values = [x, y, x + y, x - y, x * y, -x, x.at_absolute_precision(bound)]
    if not y.is_zero:
        values.append(x / y)
    if not (x.is_zero and exponent <= 0):
        values.append(x**exponent)
    for value in values:
        assert_zero_exactly_at_precision_zero(value)


@given(p=st.sampled_from([3, 5, 7]), valuation=st.integers(-5, 30),
       residue=st.integers(-10**6, 10**6), shift=st.integers(0, 4),
       precision=st.integers(-3, 30), N=st.integers(1, 30),
       r=st.fractions(min_value=-100, max_value=100), a=st.integers(1, 100))
@settings(max_examples=300, deadline=None)
def test_constructors_keep_zero_exactly_at_precision_zero(p, valuation, residue, shift,
                                                          precision, N, r, a):
    values = [PadicNumber.make(p, valuation, residue * p**shift, precision),
              reduce_mod_pN(r, p, N), QContext(p=p, q=Fraction(1 + p), precision=N).one()]
    if a % p:
        values.append(teichmuller(a, p, N))
    for value in values:
        assert_zero_exactly_at_precision_zero(value)


@pytest.mark.parametrize("precision", [0, -1])
def test_one_refuses_a_precision_below_one(precision):
    # a unit 1 at precision 0 would break the convention: precision 0 is a zero's
    with pytest.raises(ValueError, match="precision >= 1"):
        PadicNumber.one(3, precision)


def test_padic_arithmetic_against_exact():
    p, N = 7, 12
    a, b = Fraction(22, 5), Fraction(-3, 49)
    ra, rb = reduce_mod_pN(a, p, N), reduce_mod_pN(b, p, N)
    for op, exact in [(ra + rb, a + b), (ra - rb, a - b),
                      (ra * rb, a * b), (ra / rb, a / b)]:
        assert residual_valuation(op, reduce_mod_pN(exact, p, N)) >= N - 4


def test_padic_exact_cancellation_keeps_a_bound():
    p, N = 3, 6
    x = reduce_mod_pN(Fraction(5, 7), p, N)
    d = x - x
    assert d.is_zero
    assert d.valuation >= N


def test_digits_and_json_roundtrip():
    x = reduce_mod_pN(Fraction(8, 65), 3, 8)
    d = x.to_json_dict()
    assert len(d["digits"]) == d["precision"] == 8
    assert d["digits"][0] != 0
    rebuilt = sum(digit * 3**i for i, digit in enumerate(d["digits"]))
    assert rebuilt == x.unit


def test_pow_matches_repeated_multiplication():
    x = reduce_mod_pN(Fraction(22, 7), 5, 10)
    acc = PadicNumber.one(5, 10)
    for _ in range(4):
        acc = acc * x
    assert (x**4 - acc).is_zero
    inv = x**-1
    assert residual_valuation(x * inv, PadicNumber.one(5, 10)) >= 9


# ---------------------------------------------------------------------------
# Teichmuller lifts
# ---------------------------------------------------------------------------

def test_teichmuller_examples():
    assert teichmuller(1, 7, 5).unit == 1
    for p in (3, 5, 7):
        assert teichmuller(p - 1, p, 4).unit == p**4 - 1
    assert teichmuller(2, 5, 2).unit == 7  # 7**2 = -1 mod 25, so 7**4 = 1


def test_teichmuller_rejects_non_units():
    with pytest.raises(PadicError):
        teichmuller(10, 5, 4)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_teichmuller_memo_equals_the_direct_lift(p):
    # the lift is memoized on (a mod p, p, N): every a of a residue class,
    # negative ones too, gets the direct Frobenius limit a^(p^(N-1)) mod p^N
    for N in (1, 2, 8, 18):
        modulus = p**N
        for a in range(1, p):
            for k in (0, 1, 7, -1, -3, 10**6):
                b = a + k * p
                assert teichmuller(b, p, N) == PadicNumber(
                    p, 0, pow(b % modulus, p ** (N - 1), modulus), N), (N, b)


@pytest.mark.parametrize("args,error,message", [
    ((10, 5, 4), PadicError, "^Teichmuller undefined at non-unit$"),
    ((0, 3, 2), PadicError, "^Teichmuller undefined at non-unit$"),
    ((2, 9, 4), PadicError, "^p must be an odd prime, got 9$"),
    ((1, 2, 4), PadicError, "^p must be an odd prime, got 2$"),
    ((2, 5, 0), ValueError, "^teichmuller requires N >= 1$"),
])
def test_teichmuller_checks_every_call_under_the_memo(args, error, message):
    # the checks run before the memo: a refused call raises on a repeat too,
    # and after valid lifts at p = 5, N = 4 are memoized
    for a in (1, 2):
        teichmuller(a, 5, 4)
    for _ in range(2):
        with pytest.raises(error, match=message):
            teichmuller(*args)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_teichmuller_multiplicative_and_root_of_unity(p):
    N = 8
    modulus = p**N
    units = [a for a in range(1, p * p) if a % p]
    lifts = {a: teichmuller(a, p, N).unit for a in units}
    for a in units:
        assert lifts[a] % p == a % p
        assert pow(lifts[a], p - 1, modulus) == 1
    for a in units:
        for b in units:
            assert lifts[a] * lifts[b] % modulus == teichmuller(a * b, p, N).unit


@pytest.mark.parametrize("N", range(1, 9))
def test_teichmuller_precision_tower(N):
    # lifts at successive precisions agree: the digit stream is stable
    full = teichmuller(2, 5, 8).unit
    assert teichmuller(2, 5, N).unit == full % 5**N


# ---------------------------------------------------------------------------
# angle bracket and p-adic powers
# ---------------------------------------------------------------------------

def test_angle_bracket_examples():
    ctx = QContext(p=5, q=Fraction(1), precision=2)
    a2 = angle_bracket(2, ctx)
    assert a2.unit % 25 == 11  # 2 / w(2) = 2 * inv(7) = 2 * 18 mod 25

    ctx6 = QContext(p=5, q=Fraction(6), precision=8)
    for a in (1, 2, 3, 4, 6, 13):
        u = angle_bracket(a, ctx6)
        assert u.valuation == 0 and u.unit % 5 == 1
    assert angle_bracket(1, ctx6).unit == 1


def test_angle_bracket_rejects_non_units():
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    with pytest.raises(PadicError):
        angle_bracket(10, ctx)


def test_padic_pow_trivial_and_square():
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    u = angle_bracket(3, ctx)
    assert (padic_pow(u, 0, ctx).value - ctx.one()).is_zero

    base = reduce_mod_pN(Fraction(6), 5, 18)
    sq = padic_pow(base, 2, ctx)
    assert residual_valuation(sq.value, reduce_mod_pN(Fraction(36), 5, 18)) >= 18


@pytest.mark.parametrize("p,q", [(5, Fraction(6)), (3, Fraction(4))])
def test_padic_pow_integer_exponents_match_direct_powers(p, q):
    ctx = QContext(p=p, q=q, precision=8)
    for a in (1, 2, p + 1, 2 * p + 1):
        if a % p == 0:
            continue
        u = angle_bracket(a, ctx)
        for m in range(-5, 6):
            series = padic_pow(u, m, ctx)
            assert series.converged
            assert residual_valuation(series.value, u**m) >= ctx.precision


def test_padic_pow_inverse_matches_extended_gcd():
    ctx = QContext(p=5, q=Fraction(1), precision=8)
    u = angle_bracket(2, ctx)
    inv = padic_pow(u, -1, ctx).value
    direct = pow(u.unit, -1, 5**u.precision)
    assert inv.unit % 5**ctx.precision == direct % 5**ctx.precision


def test_padic_pow_divergence_guard():
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    bad = reduce_mod_pN(Fraction(2), 5, 18)  # 2 is not 1 mod 5
    with pytest.raises(PadicError, match="diverges"):
        padic_pow(bad, 2, ctx)


def test_padic_pow_padic_exponent():
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    u = angle_bracket(2, ctx)
    embedded = padic_pow(u, ctx.embed(3), ctx)
    assert residual_valuation(embedded.value, u**3) >= ctx.precision


# ---------------------------------------------------------------------------
# p-adic binomial coefficients
# ---------------------------------------------------------------------------

def binom_at(s, k: int, ctx: QContext) -> PadicNumber:
    """The k-th value of binom_stream(s)."""
    return next(islice(binom_stream(s, ctx), k, None))


def test_binom_padic_agrees_with_exact():
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    assert (binom_at(ctx.embed(9), 0, ctx) - ctx.one()).is_zero
    for s in (-2, -3, 7, 0):
        embedded = ctx.embed(s)
        for k in range(7):
            got = binom_at(embedded, k, ctx)
            want = ctx.embed(binom_int(s, k))
            assert residual_valuation(got, want) >= ctx.precision
    assert binom_at(-3, 1, ctx).unit == ctx.embed(-3).unit


def test_binom_padic_records_factorial_loss():
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    got = binom_at(ctx.embed(7), 6, ctx)  # v_5(6!) = 1
    assert residual_valuation(got, ctx.embed(7)) >= ctx.working_precision - 1
    assert got.abs_precision >= ctx.working_precision - v_p(factorial(6), 5)


def binom_rebuilt(s: PadicNumber, k: int, ctx: QContext) -> PadicNumber:
    """binom(s, k) as a product rebuilt for this k alone, stopped once it is
    a p-adic zero."""
    prod = ctx.one()
    for i in range(k):
        prod = prod * (s - ctx.embed(i))
        if prod.is_zero:
            break
    return prod / ctx.embed(factorial(k))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_binom_stream_matches_binom_padic(p):
    ctx = QContext(p=p, q=Fraction(p + 1), precision=8)
    padic = [ctx.embed(Fraction(1, 2)), ctx.embed(Fraction(-7, 4)), ctx.embed(Fraction(p, 4))]
    embedded = [ctx.embed(n) for n in (0, 1, 3, p, 2 * p + 1)]  # the product hits zero
    for s in padic + embedded:
        stream = list(islice(binom_stream(s, ctx), 40))
        assert stream == [binom_rebuilt(s, k, ctx) for k in range(40)]
    # an integer s: the exact binomial's parts against the embedded math.comb
    # value (zero once k > s >= 0)
    for precision in (8, 24):
        ctx = QContext(p=p, q=Fraction(p + 1), precision=precision)
        for s in (0, 2, -3, 11, -40, 57):
            stream = list(islice(binom_stream(s, ctx), 81))
            assert stream == [ctx.embed(binom_int(s, k)) for k in range(81)], (precision, s)


def test_binom_stream_rejects_non_integral_exponent():
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    with pytest.raises(PadicError, match="^binom_stream requires a p-adic integer$"):
        next(binom_stream(ctx.embed(Fraction(1, 5)), ctx))
    with pytest.raises(PadicError, match="^binom_stream requires a p-adic integer$"):
        next(binom_parts(ctx.embed(Fraction(1, 5)), ctx))


# ---------------------------------------------------------------------------
# integer routes against the Fraction and PadicNumber routes they replace
# ---------------------------------------------------------------------------

PRECISIONS = (1, 4, 8, 16, 24)


def route_grid():
    """(p, q): q = 1+p, 1+2p, 1-p, 1/(1+p) and 1+p^2 (v_p(q-1) = 2), and 7/4 at p = 3."""
    for p in (3, 5, 7, 11):
        qs = [Fraction(1 + p), Fraction(1 + 2 * p), Fraction(1 - p), Fraction(1, 1 + p),
              Fraction(1 + p * p)] + ([Fraction(7, 4)] if p == 3 else [])
        for q in qs:
            yield p, q


def angle_bracket_reference(a, ctx):
    """The Fraction route: [a]_q reduced, divided by the Teichmuller lift of a."""
    N = ctx.working_precision + WORKING_MARGIN
    return ctx.embed(q_int(a, ctx.q)) / teichmuller(a, ctx.p, N)


@pytest.mark.parametrize("p,q", list(route_grid()))
def test_unit_residues_equal_the_fraction_route(p, q):
    # every unit a < 15p: <a>, q^a and [a]_q from the running residues are
    # the reduced exact values; angle_bracket reads the same table
    for precision in PRECISIONS:
        ctx = QContext(p=p, q=q, precision=precision)
        N = ctx.working_precision + WORKING_MARGIN
        F = 15 * p if precision == 24 else 3 * p
        table = unit_residues(F, ctx)
        assert list(table) == [a for a in range(1, F) if a % p]
        for a, (angle, power, bracket) in table.items():
            assert PadicNumber(p, 0, angle, N) == angle_bracket_reference(a, ctx), (precision, a)
            assert (0, power, N) == ctx.embed(q**a).parts
            assert (0, bracket, N) == ctx.embed(q_int(a, q)).parts
        for a in (1, 2, p + 1, F - 1):
            assert angle_bracket(a, ctx) == angle_bracket_reference(a, ctx), (precision, a)


def test_angle_bracket_at_q_one_is_a_over_its_lift():
    # the residue of 1 - q is 0 here: the running sum [a]_1 = a never divides by it
    for p in (3, 5, 7, 11):
        for precision in (1, 8):
            ctx = QContext(p=p, q=Fraction(1), precision=precision)
            N = ctx.working_precision + WORKING_MARGIN
            for a in (a for a in range(1, 3 * p) if a % p):
                assert angle_bracket(a, ctx) == ctx.embed(a) / teichmuller(a, p, N), (p, a)


def test_angle_bracket_keeps_its_errors():
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    with pytest.raises(ValueError, match="^q_int requires x >= 0$") as refused:
        angle_bracket(-1, ctx)
    assert type(refused.value) is ValueError
    for a in (5, -5, 0):
        with pytest.raises(PadicError, match="non-unit"):
            angle_bracket(a, ctx)


def binom_stream_reference(s, ctx):
    """The PadicNumber loop: for an integer s the running integer binomial,
    embedded; for a PadicNumber s a running product from ctx.one() over the
    embedded k!, no longer multiplied once it is a p-adic zero."""
    if isinstance(s, int):
        b = 1
        for k in count():
            yield ctx.embed(b)
            b = b * (s - k) // (k + 1)
    if not s.is_zero and s.valuation < 0:
        raise PadicError("binom_stream requires a p-adic integer")
    prod, fact = ctx.one(), 1
    for k in count():
        yield prod / ctx.embed(fact)
        if not prod.is_zero:
            prod = prod * (s - ctx.embed(k))
        fact *= k + 1


def binom_exponents(p, ctx):
    """Integer s in -30..40 and +-(p^m - 1), +-p^m, +-(p^m + 1) for m <= 6 and
    +-2 p^5; embedded integers, whose product hits a p-adic zero; truncated,
    positive-valuation and zero p-adic s."""
    half = ctx.embed(Fraction(1, 2))
    large = [p**m + d for m in range(1, 7) for d in (-1, 0, 1)] + [2 * p**5]
    return (list(range(-30, 41)) + large + [-s for s in large]
            + [ctx.embed(n) for n in (0, 1, 3, p, 2 * p + 1, -4)]
            + [half.at_absolute_precision(b) for b in (1, 3, ctx.precision)]
            + [ctx.embed(Fraction(p, 2)), ctx.embed(p * p * 3), ctx.embed(Fraction(-p, 7))]
            + [ctx.zero(), PadicNumber.zero(p, 5), half])


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_binom_parts_equal_the_padic_loop(p):
    for precision in PRECISIONS:
        ctx = QContext(p=p, q=Fraction(1 + p), precision=precision)
        L = ctx.column_length
        for s in binom_exponents(p, ctx):
            if isinstance(s, int) and precision not in (1, 24) and s % 5:
                continue  # the integer s at every fifth value in between
            expected = list(islice(binom_stream_reference(s, ctx), L))
            assert list(islice(binom_stream(s, ctx), L)) == expected, (precision, s)
            assert list(islice(binom_parts(s, ctx), L)) == [c.parts for c in expected]


# ---------------------------------------------------------------------------
# guarded series
# ---------------------------------------------------------------------------

def left_fold(terms, p):
    """The reference sum: PadicNumber.__add__ one term at a time."""
    acc = PadicNumber.zero(p)
    for term in terms:
        acc = acc + term
    return acc


def fold_nonzero(p: int, low: int, high: int):
    """Nonzero terms of valuation low..high and precision 1..25."""
    return st.integers(1, 25).flatmap(lambda prec: st.builds(
        lambda v, u: PadicNumber.make(p, v, u if u % p else u + 1, prec),
        st.integers(low, high), st.integers(1, p**prec - 1)))


def fold_chunks(p: int, low: int, high: int):
    """Runs of one term or of a cancelling pair: nonzero terms, and zeros
    whose bound is finite or infinite."""
    zeros = st.one_of(st.just(inf), st.integers(low, high)).map(
        lambda bound: PadicNumber.zero(p, bound=bound))
    nonzero = fold_nonzero(p, low, high)
    term = st.one_of(nonzero, nonzero, zeros)
    return st.one_of(term.map(lambda t: [t]), term.map(lambda t: [t, -t]))


def flat(chunks):
    return [term for chunk in chunks for term in chunk]


def summed(terms, ctx):
    """sum_guarded's result, or the partial result its error carries."""
    try:
        return sum_guarded(terms, ctx)
    except SeriesDivergenceError as exc:
        return exc.partial


@pytest.mark.parametrize("exit_kind", ["guard", "runs-out"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sum_guarded_equals_the_left_fold(exit_kind, data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    ctx = QContext(p=p, q=Fraction(1 + p), precision=8)
    target = ctx.working_precision  # 18: valuations -2..25 fall on both sides
    room = ctx.column_length - ctx.guard  # 18 terms before the guard run
    if exit_kind == "guard":
        chunks = data.draw(st.lists(fold_chunks(p, -2, 25), max_size=room // 2))
        terms = flat(chunks) + flat(data.draw(st.lists(
            fold_chunks(p, target, 25), min_size=ctx.guard, max_size=ctx.guard)))
        result = sum_guarded(iter(terms), ctx)
        vals = [t.valuation for t in terms]
        stop = next(i for i in range(ctx.guard - 1, len(terms))
                    if min(vals[i - ctx.guard + 1:i + 1]) >= target)
        assert (result.last_index, result.converged) == (stop, True)
    else:
        # a low-valuation term after every run keeps the guard window unmet
        chunks = data.draw(st.lists(fold_chunks(p, -2, 25), max_size=room // 3))
        lows = data.draw(st.lists(fold_nonzero(p, -2, target - 1),
                                  min_size=len(chunks), max_size=len(chunks)))
        terms = flat(chunk + [low] for chunk, low in zip(chunks, lows))
        with pytest.raises(SeriesDivergenceError, match=(
                f"^series: guard not satisfied within its {ctx.column_length} "
                "column entries$")) as info:
            sum_guarded(iter(terms), ctx)
        result = info.value.partial
        stop = len(terms) - 1
        assert (result.last_index, result.converged) == (stop, False)
    assert result.value == left_fold(terms[:stop + 1], p)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sum_guarded_takes_the_parts_of_its_terms(data):
    # a term given as its (valuation, unit, precision) parts counts as the
    # PadicNumber it is the parts of, at either exit (guard met, or the
    # partial result of a series that misses its guard)
    p = data.draw(st.sampled_from([3, 5, 7]))
    ctx = QContext(p=p, q=Fraction(1 + p), precision=8)
    terms = flat(data.draw(st.lists(fold_chunks(p, -2, 25), max_size=15)))
    assert summed((t.parts for t in terms), ctx) == summed(iter(terms), ctx)


def test_sum_guarded_reads_at_most_the_column_length():
    # an endless series that never meets its guard is cut after exactly
    # ctx.column_length terms, with the partial fold of the terms read
    ctx = QContext(p=3, q=Fraction(4), precision=2)
    L = ctx.column_length  # 15
    drawn = []

    def terms():  # valuations 0..2: the guard window is never met
        for k in count():
            drawn.append(k)
            yield reduce_mod_pN(Fraction(k + 1, 2 * k + 1), 3, 1 + k % 7)

    with pytest.raises(SeriesDivergenceError,
                       match=f"^never converges: guard not satisfied within its {L} "
                             "column entries$") as info:
        sum_guarded(terms(), ctx, description="never converges")
    assert len(drawn) == L
    partial = info.value.partial
    first = list(islice(terms(), L))
    assert partial.value == left_fold(first, 3)
    assert partial.last_index == L - 1
    assert partial.converged is False
    assert partial.tail_valuation_bound == min(t.valuation for t in first[-ctx.guard:])

    # the error contract of the terms: one prime, PadicNumber values only
    with pytest.raises(PadicError, match="prime mismatch"):
        sum_guarded(iter([ctx.embed(1), reduce_mod_pN(1, 5, 8)]), ctx)
    with pytest.raises(PadicError, match="prime mismatch"):
        sum_guarded(iter([reduce_mod_pN(2, 7, 8)]), ctx)
    with pytest.raises(TypeError, match="expected PadicNumber"):
        sum_guarded(iter([ctx.embed(1), Fraction(1)]), ctx)


def test_sum_guarded_raises_when_its_column_ends_before_the_guard():
    # a column of ctx.column_length terms whose guard fires at its last entry
    # converges there; one that ends first is a SeriesDivergenceError naming
    # the series, never a tail reported identically zero
    ctx = QContext(p=3, q=Fraction(4), precision=2)
    L, target = ctx.column_length, ctx.working_precision
    column = [reduce_mod_pN(3**j, 3, 8) for j in range(L - ctx.guard)]
    column += [PadicNumber.zero(3, target)] * ctx.guard
    full = sum_guarded(iter(column), ctx, description="test series")
    assert (full.last_index, full.converged, full.tail_valuation_bound) == (L - 1, True, target)
    assert full.value == left_fold(column, 3)
    short = column[:L - 1]
    with pytest.raises(SeriesDivergenceError,
                       match=f"^test series: guard not satisfied within its {L} ") as info:
        sum_guarded(iter(short), ctx, description="test series")
    partial = info.value.partial
    assert (partial.last_index, partial.converged) == (L - 2, False)
    assert partial.value == left_fold(short, 3)


def parts_of(p: int, low: int, high: int):
    """Parts of nonzero values of valuation low..high and precision 1..25,
    and of zeros whose bound is finite or infinite."""
    nonzero = fold_nonzero(p, low, high).map(lambda t: t.parts)
    zeros = st.one_of(st.just(inf), st.integers(low, high)).map(lambda b: (b, 0, 0))
    return st.one_of(nonzero, nonzero, zeros)


def pair_chunks(p: int, low: int, high: int, factor_low: int, factor_high: int):
    """Runs of one pair (x, y), or of (x, y) and (-x, y): products that cancel
    once reduced, though their unreduced unit products do not."""
    pair = st.tuples(parts_of(p, low, high), parts_of(p, factor_low, factor_high))
    return st.one_of(pair.map(lambda xy: [xy]),
                     pair.map(lambda xy: [xy, ((-PadicNumber(p, *xy[0])).parts, xy[1])]))


def summed_products(xs, ys, ctx):
    """sum_products' result, or the partial result its error carries."""
    try:
        return sum_products(xs, ys, ctx)
    except SeriesDivergenceError as exc:
        return exc.partial


@pytest.mark.parametrize("exit_kind", ["guard", "divergence"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sum_products_equals_sum_guarded_over_the_products(exit_kind, data):
    # the pair fold adds each unit product unreduced; it must give the
    # SeriesResult of sum_guarded over the mul_parts products, field for
    # field, at the guard and in the partial result of a divergence
    p = data.draw(st.sampled_from([3, 5, 7]))
    ctx = QContext(p=p, q=Fraction(1 + p), precision=8)
    target, room = ctx.working_precision, ctx.column_length - ctx.guard
    if exit_kind == "guard":
        # the tail's products have valuation >= target: the guard fires
        pairs = flat(data.draw(st.lists(pair_chunks(p, -2, 25, -2, 25), max_size=room // 2)))
        pairs += data.draw(st.lists(st.tuples(parts_of(p, target, 25), parts_of(p, 0, 5)),
                                    min_size=ctx.guard, max_size=ctx.guard))
    else:
        # a low-valuation product after every run keeps the guard window
        # unmet, whether the pairs end or reach the column length first
        low = st.tuples(fold_nonzero(p, -2, 8), fold_nonzero(p, -2, 8)).map(
            lambda xy: [(xy[0].parts, xy[1].parts)])
        chunks = data.draw(st.lists(st.tuples(pair_chunks(p, -2, 25, -2, 25), low),
                                    max_size=12))
        pairs = flat(chunk + low_pair for chunk, low_pair in chunks)
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    products = [mul_parts(p, x, y) for x, y in pairs]
    result = summed_products(iter(xs), iter(ys), ctx)
    assert result == summed(iter(products), ctx)
    assert result.converged is (exit_kind == "guard")
    assert result.value == left_fold(
        [PadicNumber(p, *t) for t in products[:result.last_index + 1]], p)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_power_column_is_the_running_product(data):
    # start * step**k as one running integer: the same parts as the
    # accumulated mul_parts products, zeros and mixed precisions included
    p = data.draw(st.sampled_from([3, 5, 7]))
    start, step = data.draw(parts_of(p, -3, 25)), data.draw(parts_of(p, -3, 25))
    length = data.draw(st.integers(1, 12))
    expected = list(accumulate(repeat(step, length - 1),
                               lambda x, y: mul_parts(p, x, y), initial=start))
    assert power_column(p, start, step, length) == expected


def test_power_column_examples():
    ones = [(0, 1, 10), (1, 1, 10), (2, 1, 10)]
    assert power_column(3, (0, 1, 10), (1, 1, 10), 3) == ones
    # a start above the step's precision keeps its own only at k = 0
    assert power_column(5, (0, 2, 30), (0, 3, 4), 3) == [(0, 2, 30), (0, 6, 4), (0, 18, 4)]
    # a zero step: a zero from k = 1 on, its bound growing by the step's
    assert power_column(7, (1, 3, 8), (2, 0, 0), 3) == [(1, 3, 8), (3, 0, 0), (5, 0, 0)]
    assert power_column(7, (1, 3, 8), (inf, 0, 0), 2) == [(1, 3, 8), (inf, 0, 0)]
    assert power_column(7, (1, 3, 8), (1, 2, 8), 1) == [(1, 3, 8)]


@given(p=st.sampled_from([3, 5, 7]), m=st.integers(-10**12, 10**12),
       k=st.integers(0, 8), N=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_reduce_of_an_integer_is_the_fraction_route(p, m, k, N):
    # negative integers, zero and multiples of p: the integer path gives the
    # dataclass the Fraction path gives, with a plain int unit
    n = m * p**k
    reduced = reduce_mod_pN(n, p, N)
    assert reduced == reduce_mod_pN(Fraction(n), p, N)
    assert type(reduced.unit) is int
    ctx = QContext(p=p, q=Fraction(1 + p))
    assert ctx.embed(n) == ctx.embed(Fraction(n))


def test_reduce_integer_examples():
    assert reduce_mod_pN(0, 5, 3) == PadicNumber.zero(5)
    assert reduce_mod_pN(-3**4 * 2, 3, 3) == PadicNumber(3, 4, 25, 3)
    assert reduce_mod_pN(7**2, 7, 1) == PadicNumber(7, 2, 1, 1)
    assert reduce_mod_pN(-1, 5, 2) == PadicNumber(5, 0, 24, 2)
    with pytest.raises(ValueError, match="N >= 1"):
        reduce_mod_pN(3, 3, 0)


# ---------------------------------------------------------------------------
# context validation
# ---------------------------------------------------------------------------

def test_context_rejects_bad_parameters():
    with pytest.raises(ValueError):
        QContext(p=2, q=Fraction(3))
    with pytest.raises(ValueError):
        QContext(p=9, q=Fraction(10))
    with pytest.raises(ValueError):
        QContext(p=5, q=Fraction(3))  # v_5(2) = 0
    with pytest.raises(ValueError):
        QContext(p=5, q=Fraction(6), precision=0)
    with pytest.raises(ValueError, match="precision \\+ guard"):
        QContext(p=5, q=Fraction(6), precision=8, guard=11)  # working precision 18 < 8 + 11
    assert QContext(p=5, q=Fraction(6), precision=8, guard=10).working_precision == 18


def test_doubled_truncation_states_its_guard_limit():
    # the working precision, precision + WORKING_MARGIN, must hold the doubled
    # guard run: guard 5 doubles to 10, guard 6 is refused with the limit named
    doubled = QContext(p=3, q=Fraction(4), guard=5).with_doubled_truncation()
    assert (doubled.guard, doubled.working_precision, doubled.column_length) == (10, 18, 28)
    with pytest.raises(ValueError, match=r"^with_doubled_truncation requires guard <= 5 "
                                         r"\(WORKING_MARGIN // 2\), got guard = 6$"):
        QContext(p=3, q=Fraction(4), guard=6).with_doubled_truncation()


def test_equal_contexts_hash_equal():
    # the hash is computed once, in __post_init__, from the same fields the
    # dataclass compares: equal contexts (q given as an int or a Fraction, the
    # guard defaulted or given) hash equal, also after doubling the truncation
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    same = QContext(p=5, q=6, precision=8, guard=3)
    assert [f.name for f in dataclasses.fields(QContext)] == ["p", "q", "precision", "guard"]
    assert ctx == same and hash(ctx) == hash(same)
    assert hash(ctx) == hash((5, Fraction(6), 8, 3))
    first, second = ctx.with_doubled_truncation(), ctx.with_doubled_truncation()
    assert first == second and first is not second and hash(first) == hash(second)
    assert hash(first) == hash((5, Fraction(6), 8, 6))
    assert {ctx: "ctx", first: "doubled"}[same] == "ctx"
    assert QContext(p=5, q=Fraction(11), precision=8) != ctx


def test_context_accepts_q_one_but_guards_divisions():
    ctx = QContext(p=5, q=Fraction(1), precision=4)
    assert ctx.q_is_one
    with pytest.raises(ValueError, match="classical limit"):
        ctx.require_q_not_one("op")
