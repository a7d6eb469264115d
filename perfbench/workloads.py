"""Seeded operation plans for the benchmark workloads.

A plan is a list of :class:`Op` values built from plain data only (ints,
strings, fractions), so it can be made and compared without importing the
library.  Each workload has fixed strata with a fixed operation count; the
seed picks values inside a stratum and the order of the operations, never
the size of the work, so every seed costs about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List


@dataclass(frozen=True)
class Op:
    """One benchmark operation: its stratum and its input parameters."""

    stratum: str
    params: Dict[str, object] = field(hash=False)


# ---------------------------------------------------------------------------
# thm5_grid: the verify thm5 default grid
# ---------------------------------------------------------------------------

def _thm5_grid(rng: random.Random) -> List[Op]:
    """p in {3, 5}, n and r in {1, 2}, precision 8; one thm5_report each.

    For each p the four (n, r) points get a seeded permutation of the four
    admissible q values, so every seed runs every q once per prime.
    """
    ops = []
    for p in (3, 5):
        qs = [Fraction(1 + p), Fraction(1 + 2 * p), Fraction(1 - p), Fraction(1, 1 + p)]
        rng.shuffle(qs)
        for (n, r), q in zip(((1, 1), (1, 2), (2, 1), (2, 2)), qs):
            ops.append(Op(f"p{p}", {"p": p, "q": q, "n": n, "r": r, "precision": 8}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# lpq_sweep: independent l_pq values over p, precision, s and character kind
# ---------------------------------------------------------------------------

#: quadratic conductors d with F = d * p <= 35; larger F dominate a run
QUAD_CONDUCTORS = {3: (5, 7, 11), 5: (3, 7), 7: (3, 5)}
S_KINDS = ("pos", "neg", "padic")
LPQ_PRECISIONS = (16, 24)


def quad_conductor(p: int, precision: int, s_kind: str) -> int:
    """The conductor is fixed by the cell, not by the seed: it sets the
    number of partial series, and so the cost, of the value."""
    ds = QUAD_CONDUCTORS[p]
    return ds[(S_KINDS.index(s_kind) + LPQ_PRECISIONS.index(precision)) % len(ds)]


def _padic_rational(rng: random.Random, p: int) -> Fraction:
    """A non-integral rational with denominator prime to p: a p-adic integer
    that only the binomial-series path can take as an exponent."""
    while True:
        den = rng.choice((2, 4, 5, 7, 8))
        num = rng.choice((-1, 1)) * rng.randint(1, 9)
        s = Fraction(num, den)
        if den % p and s.denominator > 1:
            return s


def lpq_q(p: int, precision: int, s_kind: str, char_kind: str) -> Fraction:
    """q in {1+p, 1+2p} is fixed by the cell and balanced over the cells:
    the larger q makes a value up to 1.5 times dearer, so a seeded q would
    move the run's median operation from seed to seed."""
    flip = (S_KINDS.index(s_kind) + LPQ_PRECISIONS.index(precision)
            + (char_kind == "quad")) % 2
    return Fraction(1 + p * (1 + flip))


def _lpq_sweep(rng: random.Random) -> List[Op]:
    """36 cells: p x precision x s kind x character kind, one l_pq each.
    The seed picks the Teichmuller exponent t, the value of s and the order."""
    ops = []
    for p in (3, 5, 7):
        for precision in LPQ_PRECISIONS:
            for char_kind in ("teich", "quad"):
                for s_kind in S_KINDS:
                    if char_kind == "teich":
                        chi = f"teich:{rng.randint(1, p - 2)}"
                    else:
                        d = quad_conductor(p, precision, s_kind)
                        chi = f"quad:{d}*teich:{rng.randint(0, p - 2)}"
                    if s_kind == "pos":
                        s: object = rng.randint(1, 4)
                    elif s_kind == "neg":
                        s = -rng.randint(1, 4)
                    else:
                        s = _padic_rational(rng, p)
                    ops.append(Op(f"{s_kind}/{char_kind}", {
                        "p": p, "q": lpq_q(p, precision, s_kind, char_kind),
                        "precision": precision, "chi": chi, "s_kind": s_kind, "s": s}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# exact_identities: exact-rational identities, no p-adic reduction
# ---------------------------------------------------------------------------

#: rationals of similar height, so that the seed's pick barely moves the cost
EXACT_QS = tuple(Fraction(x) for x in ("2", "3", "4", "5", "6", "7", "1/2", "1/3",
                                       "3/2", "5/3", "7/3", "4/3", "5/2", "7/2"))


def _exact_identities(rng: random.Random) -> List[Op]:
    """100 exact checks in eight strata with fixed sizes; the seed picks q,
    the free arguments and the order, where they barely move the cost."""
    ops = []

    def add(stratum, count, make):
        for i in range(count):
            ops.append(Op(stratum, make(i)))

    add("poly_paths", 20, lambda i: {
        "n": 24 + 2 * (i % 5), "x": rng.randint(1, 6), "q": rng.choice(EXACT_QS)})
    add("distribution", 15, lambda i: {
        "n": 12 + 2 * (i % 3), "m": (5, 7, 9)[i % 3], "x": rng.randint(0, 3),
        "q": rng.choice(EXACT_QS)})
    add("power_sum", 20, lambda i: {
        "n": 10 + i % 6, "m": 10 + i % 5, "q": rng.choice(EXACT_QS)})
    add("remark", 8, lambda i: {
        "p": (7, 11, 13, 17)[i % 4], "q": rng.choice(EXACT_QS[:6])})
    add("binomial", 8, lambda i: {
        "r0": rng.randint(1, 4), "r_count": 8, "k_count": 7, "j_count": 7})
    add("gen_vs_series", 15, lambda i: {
        "k": 10 + i % 5, "d": rng.choice((15, 17, 19)), "q": rng.choice(EXACT_QS)})
    # every volkenborn slot is fixed: the level, q and the moment m each set
    # the cost of the finite-level sum over p^level terms
    volkenborn_slots = ((3, 5, Fraction(4), 3), (3, 6, Fraction(4), 2), (3, 7, Fraction(4), 1),
                        (3, 7, Fraction(-2), 2), (3, 6, Fraction(1, 4), 3),
                        (5, 5, Fraction(6), 1), (5, 5, Fraction(-4), 2), (5, 5, Fraction(11), 1))
    add("volkenborn", 8, lambda i: dict(zip(("p", "level", "q", "m"), volkenborn_slots[i])))
    add("classical_limit", 6, lambda i: {
        "m_max": (6, 8, 10)[i % 3], "p": (3, 5)[i % 2], "k_max": rng.randint(5, 7)})
    rng.shuffle(ops)
    return ops


WORKLOADS: Dict[str, Callable[[random.Random], List[Op]]] = {
    "thm5_grid": _thm5_grid,
    "lpq_sweep": _lpq_sweep,
    "exact_identities": _exact_identities,
}


def plan(workload: str, seed: int) -> List[Op]:
    """The operations of ``workload`` for ``seed``; the same seed always
    gives the same list."""
    try:
        make = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}") from None
    return make(random.Random(f"{workload}:{seed}"))
