"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
criterion lines while passing).
"""

import json
import math
import time
from fractions import Fraction

from click.testing import CliRunner

from qlfun.characters import DirichletCharacter, twist
from qlfun.cli import main as cli_main
from qlfun.lfun import (
    H_pq,
    K_partial,
    PartialZetaParams,
    T_partial,
    l_pq,
    partial_zeta_neg,
)
from qlfun.numerics import (
    QContext,
    angle_bracket,
    padic_pow,
    q_int,
    residual_valuation,
    teichmuller,
    v_p,
)
from qlfun.qeuler import (
    alt_power_sum_brute,
    alt_power_sum_closed,
    euler_number,
    gen_euler_number,
    volkenborn_approx,
)
from qlfun.verify import (
    alt_power_sum_misprinted,
    classical_euler_number,
    identity_suite,
    thm5_report,
    thm5_rhs,
)

SAMPLE_QS = [Fraction(2), Fraction(1, 2), Fraction(4),
             Fraction(1 + 3), Fraction(1 + 5)]


def report(number: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} ({elapsed:.1f}s) {description}")
    assert ok, f"criterion {number} failed: {description}"


# ---------------------------------------------------------------------------

def test_criterion_1_exact_identity_suite():
    # dual-path polynomial values, the multiplication-by-m relation, power-sum
    # closed forms and the misprint regression, the inverse power-sum identity
    # and the binomial coefficient identities: the suite `verify identities` runs
    start = time.monotonic()
    checks = identity_suite()
    elapsed = time.monotonic() - start
    failing = [name for name, held in checks.items() if not held]
    assert len(checks) >= 6 and not failing, f"failing checks: {failing}"
    ok = elapsed < 10.0
    report(1, "exact identity suite (zero tolerance, < 10 s)", ok, elapsed)


def test_criterion_2_erratum_regression():
    start = time.monotonic()
    misprinted = alt_power_sum_misprinted(2, 1, Fraction(2))
    brute = alt_power_sum_brute(2, 1, Fraction(2))
    ok = misprinted == -7 and brute == -2 and misprinted != brute
    for q in SAMPLE_QS:
        for n in range(1, 9):
            for m in range(1, 7):
                ok = ok and alt_power_sum_closed(n, m, q) == alt_power_sum_brute(n, m, q)
    report(2, "erratum regression: misprinted -7 vs literal -2, corrected form agrees",
           ok, time.monotonic() - start)


def test_criterion_3_interpolation_suite():
    start = time.monotonic()
    ok = True

    # twisted partial zeta interpolation, dual path
    for p in (3, 5):
        ctx = QContext(p=p, q=Fraction(1 + p), precision=8)
        for n in range(6):
            tolerance = ctx.precision - int(v_p(math.factorial(n), p)) - 2
            for a in range(1, p):
                prm = PartialZetaParams(a, p)
                left = H_pq(-n, prm, ctx)
                w = teichmuller(a, p, ctx.working_precision)
                right = w ** (-n) * ctx.embed(partial_zeta_neg(n, prm, ctx.q))
                ok = ok and left.converged
                ok = ok and residual_valuation(left.value, right) >= tolerance

    # l-function interpolation against exact twisted numbers
    for p in (3, 5):
        ctx = QContext(p=p, q=Fraction(1 + p), precision=8)
        chis = [DirichletCharacter.trivial(),
                DirichletCharacter.teichmuller_power(1, p),
                DirichletCharacter.teichmuller_power(2, p)]
        for chi in chis:
            for n in range(1, 5):
                tolerance = ctx.precision - int(v_p(math.factorial(n), p)) - 2
                left = l_pq(-n, chi, ctx, F=p)
                twisted = twist(chi, -n, p)
                first = gen_euler_number(n, twisted, q=ctx.q, ctx=ctx)
                if twisted.conductor == 1:
                    shifted = QContext(p=p, q=ctx.q**p, precision=ctx.precision)
                    second = q_int(p, ctx.q) ** n * gen_euler_number(
                        n, twisted, q=ctx.q**p, ctx=shifted)
                else:
                    second = Fraction(0)
                if isinstance(first, Fraction):
                    right = ctx.embed(first - second)
                else:
                    right = first - ctx.embed(second)
                ok = ok and residual_valuation(left.value, right) >= tolerance

    # pinned value: l_pq(-1, w) = 8/65 mod 3^6 at (p, q) = (3, 4)
    ctx34 = QContext(p=3, q=Fraction(4), precision=8)
    pinned = l_pq(-1, DirichletCharacter.teichmuller_power(1, 3), ctx34, F=3)
    ok = ok and residual_valuation(pinned.value, ctx34.embed(Fraction(8, 65))) >= 6

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(3, "interpolation suite incl. pinned 8/65 (< 30 s)", ok, elapsed)


def test_criterion_4_power_sum_expansion_harness():
    start = time.monotonic()
    ok = True
    target = 8
    for p in (3, 5):
        ctx = QContext(p=p, q=Fraction(1 + p), precision=target)
        for n in (1, 2):
            for r in (1, 2):
                rep = thm5_report(n, r, ctx)
                rerun = thm5_report(n, r, ctx)
                stable = rep.to_json_dict() == rerun.to_json_dict()
                printed_ok = rep.residual_valuation >= target
                chain_ok = (rep.chain_residual_valuation >= target
                            and rep.step_residuals["eq24"] >= target
                            and rep.step_residuals["eq30"] >= target
                            and rep.first_failing_step is not None)
                point_ok = stable and (printed_ok or chain_ok)
                if not point_ok:
                    print(f"  grid point p={p} n={n} r={r}: "
                          f"printed={rep.residual_valuation} "
                          f"chain={rep.chain_residual_valuation} "
                          f"steps={rep.step_residuals} stable={stable}")
                ok = ok and point_ok
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    report(4, "power-sum expansion harness over the default grid (< 5 min)",
           ok, elapsed)


def test_criterion_5_volkenborn_convergence():
    start = time.monotonic()
    ctx34 = QContext(p=3, q=Fraction(4), precision=8)
    ok = volkenborn_approx(0, 1, ctx34) == Fraction(2, 65)
    ok = ok and v_p(volkenborn_approx(0, 1, ctx34) - 1, 3) == 2
    for p, q in ((3, Fraction(4)), (5, Fraction(6))):
        ctx = QContext(p=p, q=q, precision=8)
        for m in range(4):
            target = euler_number(m, q)
            for level in (1, 2, 3, 4):
                ok = ok and v_p(volkenborn_approx(m, level, ctx) - target, p) >= level
    report(5, "finite-level measure sums converge at >= level digits per level",
           ok, time.monotonic() - start)


def test_criterion_6_classical_limit():
    start = time.monotonic()
    q = 1 + Fraction(3) ** 4
    ok = euler_number(1, q) + Fraction(1, 2) == Fraction(81, 166)
    ok = ok and v_p(euler_number(1, q) + Fraction(1, 2), 3) == 4
    for p in (3, 5):
        for m in range(5):
            target = classical_euler_number(m)
            for k in range(1, 6):
                qk = 1 + Fraction(p) ** k
                ok = ok and v_p(euler_number(m, qk) - target, p) >= k - 1
    report(6, "classical limit against the Bernoulli-number oracle",
           ok, time.monotonic() - start)


def test_criterion_7_series_robustness():
    start = time.monotonic()
    ok = True
    for p, q in ((3, Fraction(4)), (5, Fraction(6))):
        ctx = QContext(p=p, q=q, precision=8)
        doubled = ctx.with_doubled_truncation()
        w1 = DirichletCharacter.teichmuller_power(1, p)
        prm = PartialZetaParams(p - 1, p)
        samples = [
            (l_pq(2, w1, ctx, F=p), l_pq(2, w1, doubled, F=p)),
            (H_pq(3, prm, ctx), H_pq(3, prm, doubled)),
            (T_partial(2, 1, prm, ctx), T_partial(2, 1, prm, doubled)),
            (K_partial(2, 1, prm, ctx), K_partial(2, 1, prm, doubled)),
            (thm5_rhs(1, 1, ctx), thm5_rhs(1, 1, doubled)),
        ]
        for base, double in samples:
            ok = ok and base.converged
            ok = ok and residual_valuation(base.value, double.value) >= ctx.precision

        # binomial-series powers with integer exponents match direct powers
        for a in (1, 2, p + 2):
            if a % p == 0:
                continue
            u = angle_bracket(a, ctx)
            for m in range(-5, 6):
                series = padic_pow(u, m, ctx)
                ok = ok and residual_valuation(series.value, u**m) >= ctx.precision
    report(7, "doubling the guard is invisible at target precision; powers exact",
           ok, time.monotonic() - start)


def test_criterion_8_congruence_scan_deliverable():
    start = time.monotonic()
    runner = CliRunner()
    ok = True
    for p in (3, 5):
        for t in (0, 1):
            args = ["verify", "congruences", "--p", str(p), "--t", str(t),
                    "--s", "1,2,3,4,5,6", "--json"]
            first = runner.invoke(cli_main, args, catch_exceptions=False)
            second = runner.invoke(cli_main, args, catch_exceptions=False)
            ok = ok and first.exit_code == 0 and second.exit_code == 0
            rep1 = json.loads(first.output.strip())["result"]
            rep2 = json.loads(second.output.strip())["result"]
            ok = ok and rep1 == rep2
            ok = ok and rep1["s_samples"] == [1, 2, 3, 4, 5, 6]
            ok = ok and len(rep1["value_valuations"]) == 6
            ok = ok and len(rep1["pairwise_difference_valuations"]) == 15
            ok = ok and "min_value_valuation" in rep1
            ok = ok and "min_pairwise_difference_valuation" in rep1
    report(8, "congruence scan: complete, deterministic reports for both regimes",
           ok, time.monotonic() - start)
