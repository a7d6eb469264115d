"""The verification harness: oracles, identities, and the expansion report."""

import itertools
import math
from fractions import Fraction

import pytest

from qlfun import verify
from qlfun.characters import DirichletCharacter
from qlfun.lfun import H_pq, K_full, K_partial, PartialZetaParams, T_full, l_pq, series_cache
from qlfun.numerics import (
    INF,
    QContext,
    SeriesDivergenceError,
    SeriesResult,
    binom_int,
    merge_series,
    mul_parts,
    power_column,
    q_int,
    reduce_mod_pN,
    residual_valuation,
    sum_guarded,
    sum_products,
    teichmuller,
    v_p,
)
from qlfun.qeuler import alt_power_sum_brute, euler_number
from qlfun.verify import (
    alt_power_sum_misprinted,
    bernoulli_numbers,
    binom_identities_check,
    classical_euler_number,
    classical_limit_check,
    congruence_check_eq20,
    congruence_scan_eq21,
    remark_check,
    thm5_grid,
    thm5_lhs_exact,
    thm5_qone_surrogate,
    thm5_report,
    thm5_rhs,
)
from qlfun.verify import (
    Thm5Report,
    _eq24_free_parts,
    _eq24_heads,
    _expansion_group,
    _residual_sentinel,
)

CTX34 = QContext(p=3, q=Fraction(4), precision=8)
CTX56 = QContext(p=5, q=Fraction(6), precision=8)


# ---------------------------------------------------------------------------
# classical oracles
# ---------------------------------------------------------------------------

def test_bernoulli_textbook_values():
    # frozen table, independent of any library code
    table = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30),
             0, Fraction(1, 42), 0, Fraction(-1, 30), 0, Fraction(5, 66),
             0, Fraction(-691, 2730)]
    assert bernoulli_numbers(12) == table


def test_classical_euler_values():
    assert [classical_euler_number(m) for m in range(6)] == [
        Fraction(1), Fraction(-1, 2), 0, Fraction(1, 4), 0, Fraction(-1, 2)]


def test_classical_limit_pinned_case():
    q = 1 + Fraction(3) ** 4
    assert euler_number(1, q) + Fraction(1, 2) == Fraction(81, 166)
    assert v_p(euler_number(1, q) + Fraction(1, 2), 3) == 4


def test_classical_limit_zero_case():
    for k in (1, 2, 3):
        assert euler_number(0, 1 + Fraction(3) ** k) == classical_euler_number(0)


@pytest.mark.parametrize("p", [3, 5])
def test_classical_limit_report(p):
    report = classical_limit_check(4, p, [1, 2, 3, 4, 5])
    assert report["ok"]
    for row in report["rows"]:
        assert row["ok"]
        if row["valuation"] != "inf":
            assert row["valuation"] >= row["k"] - 1


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------

def test_misprinted_power_sum_regression():
    # the closed form with the extra q^n factor provably disagrees with the
    # literal sum at (n, m, q) = (2, 1, 2): -7 against -2
    assert alt_power_sum_misprinted(2, 1, Fraction(2)) == -7
    assert alt_power_sum_brute(2, 1, Fraction(2)) == -2


def test_remark_identity():
    assert remark_check(3, Fraction(2))
    assert remark_check(5, Fraction(2))
    assert remark_check(7, Fraction(7, 3))
    # at p = 3 both sides simplify to -q/(1+q)
    for q in (Fraction(2), Fraction(5), Fraction(7, 3)):
        total = sum(Fraction((-1) ** j) / q_int(j, q) for j in (1, 2))
        assert total == -q / (1 + q)
        assert remark_check(3, q)


def printed_coeff(r, k):
    """The outer coefficient of the expansion as printed, (r/(r+k)) binom(-r-1, k),
    written out: the harness folds binom(-r, k) in its place."""
    return Fraction(r, r + k) * binom_int(-r - 1, k)


def test_binom_identity_instances():
    # r=2, k=1, j=1: both sides equal 6
    assert Fraction(2, 3) * Fraction(-3) * Fraction(-3) == 6
    assert printed_coeff(2, 1) * Fraction(-3) == 6
    # j = 0 reduces the reindexing identity to coeff(r,k) = binom(-r, k)
    assert printed_coeff(2, 1) == binom_int(-2, 1)
    assert printed_coeff(3, 4) == binom_int(-3, 4)


def test_binom_identities_grid():
    assert binom_identities_check(range(1, 9), range(7), range(7))


def test_outer_coeff_at_zero_is_one():
    for r in range(1, 6):
        assert printed_coeff(r, 0) == binom_int(-r, 0) == 1


# ---------------------------------------------------------------------------
# the power-sum expansion harness
# ---------------------------------------------------------------------------

def eq24_groups_per_term(n, r, a, ctx, count):
    """Both groups of the eq24 expansion for s < count, Q = q^F, each term's
    head = -binom(-r, s) [a]^(-r) (q^a [F]/[a])^s (-1)^a formed afresh: group 1
    with the O(s) convolution sum_{l<s} C(s,l) Q^(nl) E_{l,Q} [n]_Q^(s-l), and
    group 2 as head ((-1)^n Q^(ns) - 1)/2 E_{s,Q}."""
    q, F = ctx.q, ctx.p
    qF = q**F
    count_a = q_int(a, q)
    power = Fraction(1)  # (q^a [F]/[a])^s
    out = []
    for s in range(count):
        inner = sum((math.comb(s, l) * qF ** (n * l) * euler_number(l, qF)
                     * q_int(n, qF) ** (s - l) for l in range(s)), Fraction(0))
        head = -binom_int(-r, s) * count_a ** (-r) * power * (-1) ** a
        out.append((head * Fraction((-1) ** n, 2) * inner,
                    head * ((-1) ** n * qF ** (n * s) - 1) / 2 * euler_number(s, qF)))
        power *= q**a * q_int(F, q) / count_a
    return out


@pytest.mark.parametrize("p,q", [(3, Fraction(4)), (5, Fraction(6)), (7, Fraction(8)),
                                 (3, Fraction(10)), (3, Fraction(7, 4))],
                         ids=["p3-q4", "p5-q6", "p7-q8", "p3-q10", "p3-q7/4"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_eq24_group1_closed_form_equals_the_convolution(p, q, n, r):
    # group 1 reads E_{s,Q}(n) - Q^(ns) E_{s,Q} instead of the moment sum, and
    # both groups take their a- and r-free factors from one pair of columns,
    # times a column of running heads and running binom(-r, s): each product
    # is the embedded exact term
    ctx = QContext(p=p, q=q, precision=8)
    both, group1 = _eq24_free_parts(n, ctx)
    for a in range(1, p):
        heads = _eq24_heads(r, a, ctx)
        reference = eq24_groups_per_term(n, r, a, ctx, ctx.column_length)
        assert [mul_parts(p, h, f) for h, f in zip(heads, both)] == \
            [ctx.embed(g1 + g2).parts for g1, g2 in reference]
        assert [mul_parts(p, h, f) for h, f in zip(heads, group1)] == \
            [ctx.embed(g1).parts for g1, _ in reference]


def eq24_heads_by_power_column(r, a, ctx):
    """eq24's heads as a power column of (q^a [p]/[a])^s from -[a]^(-r) (-1)^a,
    each entry times the embedded binom_int(-r, s)."""
    p, q, count_a = ctx.p, ctx.q, q_int(a, ctx.q)
    heads = power_column(p, ctx.embed(-count_a ** (-r) * (-1) ** a).parts,
                         ctx.embed(q**a * q_int(p, q) / count_a).parts, ctx.column_length)
    return [mul_parts(p, head, ctx.embed(binom_int(-r, s)).parts)
            for s, head in enumerate(heads)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_eq24_heads_equal_the_power_column_build(p):
    # the heads are the binomial-power column of both k-series, cut at the
    # column length: the parts of a power column times binom(-r, s), field for field
    for precision in (8, 16):
        ctx = QContext(p=p, q=Fraction(1 + p), precision=precision)
        for r in (1, 2, 3):
            for a in range(1, p):
                assert _eq24_heads(r, a, ctx) == eq24_heads_by_power_column(r, a, ctx), \
                    (precision, r, a)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_teichmuller_of_a_power_is_the_power_of_the_lift(p):
    # the harness reads w(a)^t as the lift of a^t mod p, the one (p-1)-th root
    # of unity = a^t mod p: the PadicNumber power of the lift of a, field for field
    for W in (18, 26):
        for a in range(1, p):
            for t in range(-6, 7):
                assert teichmuller(pow(a, t, p), p, W) == teichmuller(a, p, W) ** t, (W, a, t)


def eq24_grid():
    # the (p, q) pairs of test_lfun's residue_grid, where F = p
    for p in (3, 5, 7):
        for q in (Fraction(1 + p), Fraction(1 - p), Fraction(1, 1 + p), Fraction(10),
                  Fraction(7, 4)):
            if v_p(q - 1, p) >= 1:
                yield p, q


@pytest.mark.parametrize("p,q", list(eq24_grid()))
def test_eq24_folds_equal_the_guarded_sums_of_the_exact_terms(p, q):
    # the eq24 series and group 1 alone, as _thm5_point folds them over a head
    # column and a free-parts column, equal sum_guarded over the embedded
    # exact terms: value, stop index, tail bound and convergence
    for precision in (8, 16):
        ctx = QContext(p=p, q=q, precision=precision)
        with series_cache():
            for n in (1, 2, 3):
                both, group1 = _eq24_free_parts(n, ctx)
                for r in (1, 2):
                    for a in range(1, p):
                        heads = _eq24_heads(r, a, ctx)
                        terms = eq24_groups_per_term(n, r, a, ctx, ctx.column_length)
                        assert sum_products(heads, both, ctx) == sum_guarded(
                            (ctx.embed(g1 + g2) for g1, g2 in terms), ctx), (precision, n, r, a)
                        assert sum_products(heads, group1, ctx) == sum_guarded(
                            (ctx.embed(g1) for g1, _ in terms), ctx), (precision, n, r, a)


def expansion_group_by_fraction_coefficients(n, r, a, ctx, with_correction):
    """The chain k-series with each coefficient (-1)^n printed_coeff(r, k)
    q^(ak) [pn]^k formed as a Fraction and embedded."""
    p = ctx.p
    prm = PartialZetaParams(a, p)
    count = q_int(p * n, ctx.q)
    w_inv = teichmuller(a, p, ctx.working_precision) ** -1

    def terms():
        k = 1
        twist = w_inv ** r
        while True:
            twist = twist * w_inv
            piece = H_pq(r + k, prm, ctx).value
            if with_correction:
                piece = piece + K_partial(n, r + k, prm, ctx).value
            coeff = printed_coeff(r, k) * ctx.q ** (a * k) * count**k
            yield -(ctx.embed((-1) ** n * coeff) * twist * piece)
            k += 1

    return sum_guarded(terms(), ctx, description="chain k-series").value


@pytest.mark.parametrize("p", [3, 5, 7])
def test_expansion_group_equals_the_fraction_coefficient_loop(p):
    # the running integer coefficient times the running p-adic power has the
    # parts of the embedded Fraction product: the same PadicNumber
    for q in (Fraction(1 + p), Fraction(1 - p), Fraction(1, 1 + p), Fraction(7, 4)):
        if v_p(q - 1, p) < 1:
            continue  # 7/4 is a valid q at p = 3 only
        ctx = QContext(p=p, q=q, precision=8)
        with series_cache():
            for n, r in ((1, 1), (2, 2), (3, 1)):
                for a in range(1, p):
                    for with_correction in (True, False):
                        assert _expansion_group(n, r, a, ctx, with_correction) == \
                            expansion_group_by_fraction_coefficients(
                                n, r, a, ctx, with_correction), (q, n, r, a)


def test_thm5_lhs_values():
    got = CTX34.embed(thm5_lhs_exact(1, 1, CTX34))
    assert residual_valuation(got, CTX34.embed(Fraction(-8, 5))) >= 17
    exact = thm5_lhs_exact(1, 1, CTX56)
    expected = 2 * (Fraction(-1) + Fraction(1, 7) - Fraction(1, 43) + Fraction(1, 259))
    assert exact == expected


def test_thm5_lhs_excludes_multiples_of_p():
    # regrouped double sum over (a, l) is the same index set
    for (n, r) in [(1, 1), (2, 2), (3, 1)]:
        total = Fraction(0)
        for a in range(1, 3):
            for l in range(n):
                j = a + 3 * l
                total += Fraction((-1) ** j) / q_int(j, Fraction(4)) ** r
        assert thm5_lhs_exact(n, r, CTX34) == 2 * total


def test_thm5_rhs_truncation_stability():
    # twice the guard window (and so longer columns) leaves the target digits unchanged;
    # criterion 7 covers (n, r) = (1, 1) at p = 3 and 5
    for p, n, r in [(3, 2, 1), (3, 1, 3), (5, 2, 2), (7, 1, 2)]:
        ctx = QContext(p=p, q=Fraction(1 + p), precision=8)
        base = thm5_rhs(n, r, ctx)
        doubled = thm5_rhs(n, r, ctx.with_doubled_truncation())
        assert base.converged and doubled.converged, (p, n, r)
        assert residual_valuation(base.value, doubled.value) >= ctx.precision, (p, n, r)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_outer_k_series_terms_meet_the_proven_bound(p):
    # the k-th term of thm5's outer series carries the printed coefficient
    # (r/(r+k)) binom(-r-1, k) [pn]_q^k, folded as binom(-r, k) [pn]_q^k: an
    # integer times a power of valuation k v_p(pn) >= k
    for q in (Fraction(1 + p), Fraction(1 - p), Fraction(1, 1 + p)):
        for n in (1, 2, 3):
            count = q_int(p * n, q)
            for k in range(41):
                assert v_p(count**k, p) >= k, (q, n, k)
                for r in (1, 2, 3):
                    coeff = printed_coeff(r, k)
                    assert coeff.denominator == 1, (r, k)
                    assert coeff == binom_int(-r, k) == (-1) ** k * math.comb(r + k - 1, k)


def thm5_rhs_by_padic_terms(n, r, ctx):
    """The printed expansion with its k-series as PadicNumber terms
    -(embed(printed_coeff(r, k)) (-1)^n [pn]^k (l_pq + K_full)(r + k)) through
    sum_guarded, the reference fold: each factor a PadicNumber, each product and
    sum PadicNumber's own, the value, stop, tail bound and flag sum_guarded's."""
    p = ctx.p
    count = ctx.embed(q_int(p * n, ctx.q))
    sign_n = ctx.embed((-1) ** n)
    parts = []

    def w_power(t):
        return DirichletCharacter.teichmuller_power(t % (p - 1), p)

    def terms():
        power = ctx.one()
        for k in itertools.count():
            l_part = l_pq(r + k, w_power(-(r + k)), ctx, F=p)
            k_part = K_full(n, r + k, w_power(-(r + k)), ctx)
            parts.extend((l_part, k_part))
            coeff = ctx.embed(printed_coeff(r, k))
            yield -(coeff * sign_n * power * (l_part.value + k_part.value))
            power = power * count

    body = sum_guarded(terms(), ctx, description="thm5 rhs k-series")
    t_part = T_full(n, r, w_power(-r), ctx)
    value = body.value - t_part.value
    merged = merge_series(value, parts + [t_part])
    return SeriesResult(value=value, last_index=body.last_index,
                        tail_valuation_bound=min(body.tail_valuation_bound,
                                                 merged.tail_valuation_bound),
                        converged=body.converged and merged.converged)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_thm5_rhs_equals_the_padic_term_fold(p):
    # the printed k-series folded over parts (an outer column against the
    # l + K values) is the reference fold over PadicNumber terms, field for
    # field; one scope per context, so both read the same series values
    for q in (Fraction(1 + p), Fraction(1 - p), Fraction(1, 1 + p), Fraction(1 + p**2)):
        for precision in (8, 16):
            ctx = QContext(p=p, q=q, precision=precision)
            with series_cache():
                for n, r in itertools.product((1, 2, 3), (1, 2)):
                    assert thm5_rhs(n, r, ctx) == thm5_rhs_by_padic_terms(n, r, ctx), \
                        (q, precision, n, r)


def test_printed_k_series_that_misses_its_guard_raises(monkeypatch):
    # coefficients p^(-k) cancel the valuation k of [pn]^k, so every term
    # stays below working precision: the series reads ctx.column_length
    # terms and raises with its partial sum, never a converged value; the
    # Fraction coefficients are embedded by reduce_mod_pN, as integers are
    monkeypatch.setattr(verify, "binom_int", lambda t, k: Fraction(1, 3**k))
    monkeypatch.setattr(verify, "int_parts", lambda r, p, N: reduce_mod_pN(r, p, N).parts)
    L = CTX34.column_length
    with pytest.raises(SeriesDivergenceError,
                       match=f"^thm5 rhs k-series: guard not satisfied within its {L} "
                             "column entries$") as info:
        thm5_rhs(1, 1, CTX34)
    assert (info.value.partial.last_index, info.value.partial.converged) == (L - 1, False)


def test_chain_k_series_that_misses_its_guard_raises(monkeypatch):
    # with [pn] replaced by a unit, the chain terms keep the valuation of
    # H + K, below working precision
    monkeypatch.setattr(verify, "q_int", lambda x, q: Fraction(1))
    L = CTX34.column_length
    with pytest.raises(SeriesDivergenceError,
                       match=f"^chain k-series: guard not satisfied within its {L} "
                             "column entries$") as info:
        _expansion_group(1, 1, 1, CTX34)
    assert (info.value.partial.last_index, info.value.partial.converged) == (L - 1, False)


@pytest.mark.parametrize("p,n,r", [(3, 1, 1), (3, 2, 2), (5, 1, 2)])
def test_thm5_report_grid_point(p, n, r):
    ctx = QContext(p=p, q=Fraction(1 + p), precision=8)
    rep = thm5_report(n, r, ctx)
    # the re-derived chain must reproduce the exact sum in full
    assert rep.chain_residual_valuation >= ctx.precision
    assert rep.step_residuals["eq24"] >= ctx.precision
    assert rep.step_residuals["eq26"] >= ctx.precision
    assert rep.step_residuals["eq27"] >= ctx.precision
    assert rep.step_residuals["eq30"] == INF
    assert rep.passes(ctx.precision)
    # the aggregates as printed deviate from the chain; the report says where
    assert rep.step_residuals["assembly"] < ctx.precision
    assert rep.residual_valuation < ctx.precision
    assert rep.first_failing_step == "assembly"


@pytest.mark.parametrize("p", [3, 5])
def test_thm5_near_classical_collapse(p):
    # q = 1 + p^6, n even: boundary and correction terms die, so the bare
    # l-series group alone reproduces the exact sum at depth 6
    ctx = QContext(p=p, q=1 + Fraction(p) ** 6, precision=8)
    for (n, r) in [(2, 1), (2, 2)]:
        rep = thm5_qone_surrogate(n, r, ctx)
        assert rep["ok"]
        assert rep["l_group_residual_valuation"] == "inf" or \
            rep["l_group_residual_valuation"] >= 6
    with pytest.raises(ValueError):
        thm5_qone_surrogate(1, 1, ctx)


def test_thm5_report_is_stable_across_reruns():
    rep1 = thm5_report(1, 1, CTX34)
    rep2 = thm5_report(1, 1, CTX34)
    assert rep1.to_json_dict() == rep2.to_json_dict()


def test_thm5_reruns_start_on_an_empty_series_cache():
    # each report opens its own scope: a rerun recomputes every series
    # instead of reading the first run's values back
    rep1 = thm5_report(1, 2, CTX34)
    rep2 = thm5_report(1, 2, CTX34)
    assert rep1.cache_misses > 0
    assert rep1.cache_hits > 0  # the printed and chain routes share H/K/T
    assert (rep2.cache_hits, rep2.cache_misses) == (rep1.cache_hits, rep1.cache_misses)
    assert rep1.to_json_dict() == rep2.to_json_dict()


@pytest.fixture(scope="module")
def grid34():
    """The p = 3 default grid, once in one shared cache and once point by point."""
    points = [(n, r) for n in (1, 2) for r in (1, 2)]
    return thm5_grid([1, 2], [1, 2], CTX34), [thm5_report(n, r, CTX34) for n, r in points]


def test_thm5_grid_reports_equal_the_standalone_reports(grid34):
    shared, separate = grid34
    assert [rep.to_json_dict() for rep in shared] == [rep.to_json_dict() for rep in separate]
    assert [rep.passes() for rep in shared] == [rep.passes() for rep in separate]


def test_thm5_grid_computes_shared_series_once(grid34):
    shared, separate = grid34
    # each grid report counts its own lookups: the first point runs cold,
    # later points read what earlier points computed
    assert (shared[0].cache_hits, shared[0].cache_misses) == \
        (separate[0].cache_hits, separate[0].cache_misses)
    assert sum(rep.cache_misses for rep in shared) < sum(rep.cache_misses for rep in separate)


def test_residual_conventions_on_an_indistinguishable_pair():
    # residual_valuation returns the zero difference's finite bound (the
    # working precision plus the embedding margin); reports encode it as inf
    x = CTX34.embed(Fraction(5, 7))
    assert residual_valuation(x, x) == 28
    assert _residual_sentinel(x, x) == INF


def test_thm5_report_records_its_precision():
    rep = thm5_report(1, 1, CTX34)
    assert rep.precision == CTX34.precision
    assert "precision" not in rep.to_json_dict()


def test_thm5_passes_defaults_to_the_report_precision():
    one = CTX34.one()
    steps = {"eq24": 10, "eq26": 10, "eq27": 10, "eq30": INF, "assembly": 10}
    rep = Thm5Report(lhs=one, rhs=one, residual_valuation=10, truncation_index=5,
                     step_residuals=steps, chain_residual_valuation=10,
                     first_failing_step="eq24", precision=12)
    assert rep.passes() is False
    assert rep.passes(10) is True


def test_thm5_report_json_shape():
    rep = thm5_report(1, 1, CTX34)
    payload = rep.to_json_dict()
    assert set(payload["step_residuals"]) == {"eq24", "eq26", "eq27", "eq30", "assembly"}
    for key in ("lhs", "rhs", "residual_valuation", "truncation_index",
                "step_residuals", "chain_residual_valuation", "first_failing_step"):
        assert key in payload
    assert payload["step_residuals"]["eq30"] == "inf"


# ---------------------------------------------------------------------------
# congruences
# ---------------------------------------------------------------------------

def test_congruence_eq20_pinned_cases():
    ok, val = congruence_check_eq20(1, 1, CTX34)
    assert ok and val >= 6
    rhs = euler_number(1, Fraction(4)) - q_int(3, Fraction(4)) * euler_number(1, Fraction(4) ** 3)
    assert rhs == Fraction(8, 65)

    ok, _ = congruence_check_eq20(3, 1, CTX34)
    assert ok
    ok, _ = congruence_check_eq20(2, 2, CTX56)
    assert ok
    ok, _ = congruence_check_eq20(4, 4, CTX56)
    assert ok


def test_congruence_eq20_validates_residue():
    with pytest.raises(ValueError):
        congruence_check_eq20(1, 2, CTX34)


def test_congruence_scan_report_shape_and_determinism():
    rep = congruence_scan_eq21(0, [1, 2, 3, 4], CTX34)
    for key in ("p", "q", "t", "s_samples", "value_valuations",
                "min_value_valuation", "pairwise_difference_valuations",
                "min_pairwise_difference_valuation", "integral_on_samples",
                "mod_p_constant_on_samples"):
        assert key in rep
    assert len(rep["pairwise_difference_valuations"]) == 6
    assert rep == congruence_scan_eq21(0, [1, 2, 3, 4], CTX34)


def test_congruence_scan_rejects_repeated_samples():
    # a repeated s would compare l_pq(s) with itself: an "inf" difference
    # and a vacuous mod_p_constant_on_samples
    for samples in ([2, 2], [1, 2, 1]):
        with pytest.raises(ValueError, match="needs distinct samples"):
            congruence_scan_eq21(1, samples, CTX34)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("t", [0, 1])
def test_congruence_scan_regimes(p, t):
    ctx = QContext(p=p, q=Fraction(1 + p), precision=8)
    rep = congruence_scan_eq21(t, [1, 2, 3, 4, 5, 6], ctx)
    # the scan records evidence; completeness is the contract
    assert rep["s_samples"] == [1, 2, 3, 4, 5, 6]
    assert len(rep["value_valuations"]) == 6
    assert len(rep["pairwise_difference_valuations"]) == 15
