"""The exact integer kernels against the Fraction loops they replaced.

``qeuler._closed_form``, ``qeuler._alt_level_sum`` and
``verify.binom_identities_check`` keep integer numerators and build one
Fraction at the end; ``alt_power_sum_closed`` reads its polynomial value from
``euler_poly_moments``. The references below are the earlier loops that added
one Fraction per term; a Fraction is canonical, so every value must be
equal, and every error must carry the same message.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlfun.numerics import QContext, binom_int, q_int
from qlfun.qeuler import (
    QEulerDomainError,
    _alt_level_sum,
    _check_base,
    _closed_form,
    alt_power_sum_brute,
    alt_power_sum_closed,
    euler_number,
    volkenborn_approx,
)
from qlfun.verify import binom_identities_check


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


def _outcome(call, *args):
    try:
        return call(*args)
    except QEulerDomainError as err:
        return ("error", str(err))


# q = a/b with a in [-12, 12] and b in [1, 6]: q = 0, q = 1 and q = -1 included
small_qs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@given(n=st.integers(0, 30), Q=small_qs,
       X=st.one_of(st.just(Fraction(1)), small_qs,
                   st.fractions(min_value=-50, max_value=50, max_denominator=40)),
       operation=st.sampled_from(["euler_number", "euler_poly", "euler_poly_frac"]))
@settings(max_examples=300, deadline=None)
def test_closed_form_equals_the_fraction_loop(n, Q, X, operation):
    assert _outcome(_closed_form, n, Q, X, operation) == \
        _outcome(closed_form_reference, n, Q, X, operation)


@given(count=st.integers(0, 60), m=st.integers(0, 5),
       q=st.one_of(small_qs, st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)])))
@settings(max_examples=300, deadline=None)
def test_level_sum_equals_the_fraction_loop(count, m, q):
    assert _alt_level_sum(count, m, q) == level_sum_reference(count, m, q)


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
