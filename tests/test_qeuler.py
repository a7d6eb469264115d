"""q-Euler numbers and polynomials: closed forms against independent oracles."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlfun.characters import DirichletCharacter
from qlfun.numerics import QContext, q_int, residual_valuation, v_p
from qlfun.qeuler import (
    FractionalArg,
    QEulerDomainError,
    alt_power_sum_brute,
    alt_power_sum_closed,
    distribution_sum,
    euler_number,
    euler_poly,
    euler_poly_frac,
    euler_poly_moments,
    gen_euler_number,
    volkenborn_approx,
)

SAMPLE_QS = [Fraction(2), Fraction(1, 2), Fraction(4), Fraction(1 + 3), Fraction(1 + 5)]


# ---------------------------------------------------------------------------
# numbers and polynomials
# ---------------------------------------------------------------------------

def test_euler_number_examples():
    assert euler_number(0, Fraction(7, 2)) == 1
    assert euler_number(1, Fraction(2)) == Fraction(-1, 3)
    assert euler_number(2, Fraction(2)) == Fraction(1, 15)


def test_euler_number_second_moment_closed_form():
    # symbolic simplification: E_2 = (q-1)/((1+q)(1+q^2))
    for q in SAMPLE_QS:
        assert euler_number(2, q) == (q - 1) / ((1 + q) * (1 + q**2))


def test_euler_number_rejects_q_one_and_poles():
    with pytest.raises(QEulerDomainError, match="classical limit"):
        euler_number(1, Fraction(1))
    with pytest.raises(QEulerDomainError, match="pole"):
        euler_number(1, Fraction(-1))


#: exact values keyed "n|q" (euler_number), "n|x|q" (euler_poly) and
#: "n|a/F|q" (euler_poly_frac) for n <= 12, x and a in 0..6, F in {1, 3, 5},
#: q in {2, 1/2, 4, 6, -2, 7/4} and q = -1 at n = 0, captured when each of
#: the three functions still evaluated the closed form in its own loop
QEULER_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "qeuler_golden.json").read_text())


def _golden_value(name, key):
    n, *mid, q = key.split("|")
    q = Fraction(q)
    if name == "euler_number":
        return euler_number(int(n), q)
    if name == "euler_poly":
        return euler_poly(int(n), int(mid[0]), q)
    a, F = mid[0].split("/")
    return euler_poly_frac(int(n), FractionalArg(int(a), int(F)), q)


@pytest.mark.parametrize("name", ["euler_number", "euler_poly", "euler_poly_frac"])
def test_closed_forms_match_the_golden_file(name):
    table = QEULER_GOLDEN[name]
    assert len(table) == {"euler_number": 79, "euler_poly": 553,
                          "euler_poly_frac": 1659}[name]
    mismatched = sorted(key for key, value in table.items()
                        if str(_golden_value(name, key)) != value)
    assert not mismatched, f"{len(mismatched)} values differ, first {mismatched[:3]}"


@pytest.mark.parametrize("name,call", [
    ("euler_number", lambda q: euler_number(1, q)),
    ("euler_poly", lambda q: euler_poly(1, 2, q)),
    ("euler_poly_frac", lambda q: euler_poly_frac(1, FractionalArg(2, 3), q)),
])
def test_domain_errors_name_the_public_function(name, call):
    with pytest.raises(QEulerDomainError, match=rf"^{name}: q = 1, use classical limit"):
        call(Fraction(1))
    with pytest.raises(QEulerDomainError, match=rf"^{name}: pole at 1 \+ q\^1 = 0"):
        call(Fraction(-1))


def test_euler_poly_examples():
    assert euler_poly(0, 3, Fraction(9)) == 1
    assert euler_poly(1, 2, Fraction(2)) == Fraction(5, 3)
    for n in range(6):
        for q in SAMPLE_QS:
            assert euler_poly(n, 0, q) == euler_number(n, q)


def test_euler_poly_frac_examples():
    q = Fraction(3)
    for n in range(5):
        assert euler_poly_frac(n, FractionalArg(0, 3), q) == euler_number(n, q**3)
        assert euler_poly_frac(n, FractionalArg(3, 3), q) == euler_poly(n, 1, q**3)
    assert euler_poly_frac(0, FractionalArg(2, 5), q) == 1


def test_moments_path_examples():
    assert euler_poly_moments(1, 2, Fraction(2)) == Fraction(5, 3)  # 3 + 4*(-1/3)
    for n in range(5):
        for q in SAMPLE_QS:
            assert euler_poly_moments(n, 0, q) == euler_number(n, q)
    assert euler_poly_moments(0, 4, Fraction(5)) == 1


@pytest.mark.parametrize("q", SAMPLE_QS)
def test_poly_equals_moments_path(q):
    for n in range(9):
        for x in range(7):
            assert euler_poly(n, x, q) == euler_poly_moments(n, x, q)


@pytest.mark.parametrize("q", SAMPLE_QS)
@pytest.mark.parametrize("m", [1, 3, 5])
def test_distribution_relation(q, m):
    for n in range(7):
        for x in range(4):
            assert euler_poly(n, x, q) == distribution_sum(n, x, m, q)


# ---------------------------------------------------------------------------
# convergent-series oracle (Abel values at |q| < 1)
# ---------------------------------------------------------------------------

def abel_value(k: int, x: int, q: Fraction, terms: int = 200) -> Fraction:
    """Averaged consecutive partial sums of 2 sum_n (-1)^n [n+x]^k.

    The raw partial sums oscillate (the terms tend to a nonzero constant);
    the average of two consecutive partial sums converges geometrically to
    the series' Abel value, which is what the closed form computes.
    """
    partial = Fraction(0)
    history = []
    for n in range(terms + 2):
        partial += Fraction((-1) ** n) * q_int(n + x, q) ** k
        history.append(partial)
    return history[-2] + history[-1]  # = 2 * average


def test_zeta_values_match_the_convergent_series():
    q = Fraction(1, 2)
    for k in range(4):
        for x in (0, 1):
            err = abs(abel_value(k, x, q) - euler_poly(k, x, q))
            assert err < Fraction(1, 10**6)


# ---------------------------------------------------------------------------
# alternating power sums
# ---------------------------------------------------------------------------

def test_alt_power_sum_examples():
    for m in range(1, 7):
        assert alt_power_sum_brute(1, m, Fraction(2)) == 0
        assert alt_power_sum_closed(1, m, Fraction(2)) == 0
    assert alt_power_sum_brute(2, 1, Fraction(2)) == -2
    assert alt_power_sum_brute(3, 1, Fraction(2)) == 4
    assert alt_power_sum_closed(2, 1, Fraction(2)) == -2
    assert alt_power_sum_closed(1, 1, Fraction(2)) == 0


@pytest.mark.parametrize("q", SAMPLE_QS)
def test_alt_power_sum_closed_equals_brute(q):
    for n in range(1, 9):
        for m in range(1, 7):
            assert alt_power_sum_brute(n, m, q) == alt_power_sum_closed(n, m, q)


@given(n=st.integers(1, 12), m=st.integers(1, 8),
       q=st.fractions(min_value=-4, max_value=4).filter(
           lambda r: r not in (0, 1, -1)))
@settings(max_examples=40, deadline=None)
def test_alt_power_sum_property(n, m, q):
    assert alt_power_sum_brute(n, m, q) == alt_power_sum_closed(n, m, q)


# ---------------------------------------------------------------------------
# character twists
# ---------------------------------------------------------------------------

def test_gen_euler_trivial_is_plain():
    triv = DirichletCharacter.trivial()
    for n in range(6):
        for q in SAMPLE_QS:
            assert gen_euler_number(n, triv, q=q) == euler_number(n, q)


def test_gen_euler_quadratic_example():
    quad3 = DirichletCharacter.quadratic(3)
    assert gen_euler_number(0, quad3, q=Fraction(2)) == -2
    assert gen_euler_number(0, quad3, q=Fraction(7, 5)) == -2


def test_gen_euler_teichmuller_exact_when_pm_one_valued():
    # p = 3: w is +-1-valued, so the value stays an exact rational even
    # when a context is supplied
    w1 = DirichletCharacter.teichmuller_power(1, 3)
    ctx = QContext(p=3, q=Fraction(4), precision=8)
    exact = gen_euler_number(1, w1, q=Fraction(4))
    assert exact == Fraction(6, 13)
    assert gen_euler_number(1, w1, ctx=ctx) == exact


def test_gen_euler_padic_valued_character():
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    ctx = QContext(p=5, q=Fraction(6), precision=8)
    value = gen_euler_number(2, w1, ctx=ctx)
    # independent assembly of the conductor-5 sum
    acc = ctx.zero()
    from qlfun.numerics import teichmuller
    for a in range(1, 5):
        w = teichmuller(a, 5, ctx.working_precision)
        term = ctx.embed((-1) ** a * euler_poly_frac(2, FractionalArg(a, 5), ctx.q))
        acc = acc + w * term
    acc = acc * ctx.embed(q_int(5, ctx.q) ** 2)
    assert residual_valuation(value, acc) >= ctx.precision


def test_gen_euler_needs_a_context_for_a_padic_valued_character():
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    with pytest.raises(ValueError, match="^p-adic-valued characters need a QContext$"):
        gen_euler_number(1, w1, q=Fraction(6))
    with pytest.raises(ValueError, match="^gen_euler_number needs q or a context$"):
        gen_euler_number(1, w1)


# ---------------------------------------------------------------------------
# finite-level measure approximation
# ---------------------------------------------------------------------------

def test_volkenborn_pinned_value():
    ctx = QContext(p=3, q=Fraction(4), precision=8)
    assert volkenborn_approx(0, 1, ctx) == Fraction(2, 65)


def test_volkenborn_level_valuations_for_constant():
    ctx = QContext(p=3, q=Fraction(4), precision=8)
    for level, expected in [(1, 2), (2, 3)]:
        diff = volkenborn_approx(0, level, ctx) - 1
        assert v_p(diff, 3) == expected


@pytest.mark.parametrize("p,q", [(3, Fraction(4)), (5, Fraction(6))])
def test_volkenborn_convergence(p, q):
    ctx = QContext(p=p, q=q, precision=8)
    for m in range(4):
        target = euler_number(m, q)
        previous = 0
        for level in (1, 2, 3, 4):
            val = v_p(volkenborn_approx(m, level, ctx) - target, p)
            assert val >= level
            assert val >= previous
            previous = val
