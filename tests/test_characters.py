"""Dirichlet characters: conductors, evaluation, twisting."""

import math
import random
from fractions import Fraction

import pytest

from qlfun.characters import (
    CharacterError,
    DirichletCharacter,
    QuadraticSymbol,
    TeichmullerPower,
    chi_eval,
    chi_eval_exact,
    chi_residue,
    chi_sum,
    jacobi_symbol,
    parse_character,
    twist,
)
from qlfun.numerics import QContext, residual_valuation, teichmuller

CTX5 = QContext(p=5, q=Fraction(6), precision=8)
CTX3 = QContext(p=3, q=Fraction(4), precision=8)


# ---------------------------------------------------------------------------
# Jacobi symbol
# ---------------------------------------------------------------------------

def test_jacobi_against_legendre():
    # Euler's criterion is an independent oracle for prime moduli
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi_symbol(a, p) == (1 if euler == 1 else -1)
        assert jacobi_symbol(p, p) == 0


def test_jacobi_is_multiplicative_in_both_arguments():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.randrange(1, 200), rng.randrange(1, 200)
        n = rng.choice([3, 5, 9, 15, 21, 35, 45])
        assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)
    assert jacobi_symbol(2, 15) == jacobi_symbol(2, 3) * jacobi_symbol(2, 5)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi_symbol(3, 4)


# ---------------------------------------------------------------------------
# construction and conductors
# ---------------------------------------------------------------------------

def test_conductor_examples():
    assert DirichletCharacter.trivial().conductor == 1
    assert DirichletCharacter.teichmuller_power(1, 5).conductor == 5
    prod = DirichletCharacter.quadratic(3) * DirichletCharacter.teichmuller_power(1, 5)
    assert prod.conductor == 15
    assert DirichletCharacter.teichmuller_power(4, 5).conductor == 1  # w^(p-1) = w^0


def test_construction_rejects_bad_conductors():
    with pytest.raises(CharacterError):
        DirichletCharacter.quadratic(6)
    with pytest.raises(CharacterError):
        DirichletCharacter.quadratic(9)
    with pytest.raises(CharacterError):
        DirichletCharacter.teichmuller_power(1, 4)


def test_atoms_refuse_even_input_so_every_conductor_is_odd():
    # a conductor is an lcm of atom conductors, odd primes p and odd d
    for t in (0, 1, 3):
        with pytest.raises(CharacterError,
                           match="^Teichmuller atom requires an odd prime, got 2$"):
            TeichmullerPower(t, 2)
    for d in (2, 6, 10, 30, -3):
        with pytest.raises(CharacterError,
                           match=f"^quadratic conductor must be odd and positive, got {d}$"):
            QuadraticSymbol(d)


def test_quadratic_one_collapses_to_trivial():
    assert DirichletCharacter.quadratic(1).is_trivial


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_trivial_character_is_one_everywhere():
    triv = DirichletCharacter.trivial()
    for n in (0, 1, 5, 10, 15):
        assert chi_eval_exact(triv, n) == 1
        assert chi_eval(triv, n, CTX5).unit == 1


def test_teichmuller_power_evaluation():
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    got = chi_eval(w1, 2, CTX5)
    assert got.unit % 25 == 7  # the Teichmuller lift of 2 at p=5
    assert residual_valuation(got, teichmuller(2, 5, CTX5.working_precision)) >= 8
    assert chi_eval(w1, 10, CTX5).is_zero


def test_quadratic_evaluation():
    quad3 = DirichletCharacter.quadratic(3)
    assert chi_eval_exact(quad3, 2) == -1
    assert chi_eval_exact(quad3, 4) == 1
    assert chi_eval_exact(quad3, 6) == 0
    assert chi_eval(quad3, 2, CTX5).unit == 5**CTX5.working_precision - 1  # -1


def test_half_power_teichmuller_is_legendre():
    # w^((p-1)/2) takes values +-1: the Legendre symbol at p
    w2 = DirichletCharacter.teichmuller_power(2, 5)
    assert w2.is_plus_minus_one_valued
    for n in range(1, 5):
        assert chi_eval_exact(w2, n) == jacobi_symbol(n, 5)
        padic = chi_eval(w2, n, CTX5)
        assert residual_valuation(padic, CTX5.embed(jacobi_symbol(n, 5))) >= 8


def test_multiplicativity_on_random_pairs():
    rng = random.Random(11)
    chi = DirichletCharacter.quadratic(3) * DirichletCharacter.teichmuller_power(1, 5)
    cond = chi.conductor
    pairs = 0
    while pairs < 100:
        m, n = rng.randrange(1, 400), rng.randrange(1, 400)
        if math.gcd(m * n, cond) != 1:
            continue
        pairs += 1
        lhs = chi_eval(chi, m * n, CTX5)
        rhs = chi_eval(chi, m, CTX5) * chi_eval(chi, n, CTX5)
        assert residual_valuation(lhs, rhs) >= CTX5.precision


def test_periodicity():
    chi = DirichletCharacter.quadratic(3) * DirichletCharacter.teichmuller_power(1, 5)
    cond = chi.conductor
    for n in (1, 2, 4, 7, 11):
        base = chi_eval(chi, n, CTX5)
        for k in range(1, 11):
            shifted = chi_eval(chi, n + cond * k, CTX5)
            assert residual_valuation(base, shifted) >= CTX5.precision


def test_full_teichmuller_power_is_one_on_units():
    wfull = DirichletCharacter.teichmuller_power(4, 5)
    for n in (1, 2, 3, 4, 6, 7, 13):
        assert chi_eval(wfull, n, CTX5).unit == 1
    # exponent reduction also happens under twisting
    assert twist(DirichletCharacter.teichmuller_power(3, 5), 1).conductor == 1


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------

def test_twist_adds_exponents():
    wa = DirichletCharacter.teichmuller_power(1, 5)
    assert twist(wa, 2) == DirichletCharacter.teichmuller_power(3, 5)
    assert twist(wa, -1).is_trivial


def test_twist_by_zero_is_identity_pointwise():
    chi = DirichletCharacter.quadratic(3) * DirichletCharacter.teichmuller_power(2, 5)
    same = twist(chi, 0)
    for n in range(20):
        assert residual_valuation(chi_eval(chi, n, CTX5), chi_eval(same, n, CTX5)) >= 8


def test_twist_trivial_by_group_order():
    full = twist(DirichletCharacter.trivial(), 4, p=5)
    assert full.conductor == 1
    assert chi_eval_exact(full, 5) == 1


def test_twist_needs_a_prime_when_ambiguous():
    with pytest.raises(CharacterError):
        twist(DirichletCharacter.quadratic(3), 1)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_character_syntax():
    assert parse_character("trivial").is_trivial
    assert parse_character("teich:2", 5) == DirichletCharacter.teichmuller_power(2, 5)
    prod = parse_character("quad:3*teich:2", 5)
    assert prod.conductor == 15
    assert parse_character(prod.spec_string(), 5) == prod


def test_parse_character_errors():
    with pytest.raises(CharacterError):
        parse_character("teich:1")  # no prime
    with pytest.raises(CharacterError):
        parse_character("cubic:7", 5)


def test_context_prime_mismatch_is_caught():
    w1 = DirichletCharacter.teichmuller_power(1, 5)
    with pytest.raises(CharacterError, match="^character lives at p=5, context has p=3$"):
        chi_eval(w1, 2, CTX3)
    with pytest.raises(CharacterError, match="^character lives at p=5, context has p=3$"):
        chi_residue(w1, 2, 3, CTX3.working_precision)
    # checked before the value: also at an n that shares a factor with the conductor
    with pytest.raises(CharacterError):
        chi_eval(w1, 10, CTX3)


# ---------------------------------------------------------------------------
# the integer residue against the PadicNumber product it replaces
# ---------------------------------------------------------------------------

def chi_eval_reference(chi, n, ctx):
    """The PadicNumber route: ctx.one() times w(n)**t per Teichmuller atom and
    the embedded Jacobi symbol per quadratic atom."""
    if n < 0:
        raise ValueError("chi_eval requires n >= 0")
    for p in chi.teichmuller_primes():
        if p != ctx.p:
            raise CharacterError(f"character lives at p={p}, context has p={ctx.p}")
    cond = chi.conductor
    if cond > 1 and math.gcd(n, cond) > 1:
        return ctx.zero()
    value = ctx.one()
    for atom in chi.factors:
        if isinstance(atom, TeichmullerPower):
            if atom.exponent != 0:
                value = value * teichmuller(n, atom.p, ctx.working_precision) ** atom.exponent
        else:
            value = value * ctx.embed(jacobi_symbol(n, atom.d))
    return value


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_chi_eval_equals_the_padic_product(p):
    specs = ["trivial", "teich:1", "teich:2", f"teich:{p - 2}", f"teich:{(p - 1) // 2}",
             "quad:5*teich:1", "quad:3*teich:2", "quad:7*quad:5"]
    # an unnormalized product: two Teichmuller atoms and a quadratic one
    doubled = DirichletCharacter((TeichmullerPower(1, p), TeichmullerPower(2, p),
                                  DirichletCharacter.quadratic(7).factors[0]))
    for precision in (1, 4, 8, 16, 24):
        ctx = QContext(p=p, q=Fraction(1 + p), precision=precision)
        W = ctx.working_precision
        for chi in [parse_character(spec, p) for spec in specs] + [doubled]:
            for n in range(0, 2 * chi.conductor + 1):  # two periods
                expected = chi_eval_reference(chi, n, ctx)
                assert chi_eval(chi, n, ctx) == expected, (precision, chi, n)
                assert chi_residue(chi, n, p, W) == expected.unit


def test_chi_eval_keeps_its_errors_and_zeros():
    chi = DirichletCharacter.quadratic(3) * DirichletCharacter.teichmuller_power(1, 5)
    with pytest.raises(ValueError, match="^chi_eval requires n >= 0$"):
        chi_eval(chi, -1, CTX5)
    for n in (0, 3, 5, 6, 10, 15, 45):  # a factor shared with the conductor 15
        assert chi_eval(chi, n, CTX5) == CTX5.zero()
        assert chi_residue(chi, n, 5, CTX5.working_precision) == 0


# ---------------------------------------------------------------------------
# character-weighted sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,t", [(5, 1), (5, 3), (7, 1), (7, 2)])
def test_chi_sum_embeds_one_exact_sum_per_character_value(p, t):
    # a p-adic-valued chi: one class of weights 1 per value chi_eval, each
    # class's exact sum embedded once and multiplied by its value
    chi = DirichletCharacter.teichmuller_power(t, p) * DirichletCharacter.quadratic(3)
    ctx = QContext(p=p, q=Fraction(p + 1), precision=8)
    indices = range(2 * chi.conductor)

    def x(a):  # valuations -2..0, so the classes' sums may cancel digits
        return Fraction(a * a + 1, p ** (a % 3) * (a + 2))
    calls = []

    def class_sum(weights):
        calls.append(weights)
        return sum((c * x(a) for a, c in weights.items()), Fraction(0))
    classes = {}
    for a in indices:
        c = chi_eval(chi, a, ctx)
        if not c.is_zero:
            classes.setdefault(c, []).append(a)
    expected = ctx.zero()
    for c, members in classes.items():
        expected = expected + c * ctx.embed(sum((x(a) for a in members), Fraction(0)))
    assert chi_sum(chi, indices, class_sum, ctx) == expected
    assert [list(w) for w in calls] == list(classes.values())
    assert all(set(w.values()) == {1} for w in calls)
    with pytest.raises(ValueError, match="^p-adic-valued characters need a QContext$"):
        chi_sum(chi, indices, class_sum)
