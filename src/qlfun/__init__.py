"""Exact q-Euler numbers, character-twisted q-l-values, p-adic q-l-functions,
and the machine-verification harness for the power-sum expansion they satisfy."""

from .characters import (
    CharacterError,
    DirichletCharacter,
    chi_eval,
    chi_eval_exact,
    jacobi_symbol,
    parse_character,
    twist,
)
from .lfun import (
    H_pq,
    K_full,
    K_partial,
    PartialZetaParams,
    T_full,
    T_partial,
    l_pq,
    lq_neg_series_path,
    partial_zeta_neg,
)
from .numerics import (
    INF,
    PadicError,
    PadicNumber,
    QContext,
    SeriesDivergenceError,
    SeriesResult,
    angle_bracket,
    binom_stream,
    padic_pow,
    q_int,
    reduce_mod_pN,
    residual_valuation,
    teichmuller,
    v_p,
)
from .qeuler import (
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
from .verify import (
    Thm5Report,
    alt_power_sum_misprinted,
    bernoulli_numbers,
    binom_identities_check,
    classical_euler_number,
    classical_limit_check,
    congruence_check_eq20,
    congruence_scan_eq21,
    identity_suite,
    remark_check,
    thm5_lhs_exact,
    thm5_qone_surrogate,
    thm5_grid,
    thm5_report,
    thm5_rhs,
)

__version__ = "0.1.0"
