"""Dirichlet characters evaluable inside the p-adic numbers.

Only characters whose values land in the (p-1)-th roots of unity or {0, +-1}
are supported: the trivial character, powers of the Teichmuller character,
quadratic characters given by the Jacobi symbol for an odd squarefree
conductor, and finite products of these.  That is exactly the family the
rest of the library evaluates, and it avoids any cyclotomic extension tower.
:func:`chi_sum` is the one place that chooses between exact and p-adic
character values for a character-weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from .numerics import PadicNumber, QContext, is_odd_prime, teichmuller


class CharacterError(ValueError):
    """Unsupported or malformed character."""


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires odd n >= 1")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_squarefree(d: int) -> bool:
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        while d % f == 0:
            d //= f
        f += 1
    return True


@dataclass(frozen=True)
class TeichmullerPower:
    """w**exponent for the Teichmuller character of the odd prime p."""

    exponent: int
    p: int

    def __post_init__(self) -> None:
        if not is_odd_prime(self.p):
            raise CharacterError(f"Teichmuller atom requires an odd prime, got {self.p}")
        object.__setattr__(self, "exponent", self.exponent % (self.p - 1))

    @property
    def conductor(self) -> int:
        return self.p if self.exponent != 0 else 1


@dataclass(frozen=True)
class QuadraticSymbol:
    """The quadratic character n -> (n | d) for an odd squarefree conductor d."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.d % 2 == 0:
            raise CharacterError(f"quadratic conductor must be odd and positive, got {self.d}")
        if not _is_squarefree(self.d):
            raise CharacterError(f"quadratic conductor must be squarefree, got {self.d}")

    @property
    def conductor(self) -> int:
        return self.d


Atom = Union[TeichmullerPower, QuadraticSymbol]


@dataclass(frozen=True)
class DirichletCharacter:
    """A finite product of supported atoms; the empty product is trivial.

    The trivial character has conductor 1 and value 1 on every integer,
    including multiples of p.
    """

    factors: Tuple[Atom, ...] = ()

    @staticmethod
    def trivial() -> "DirichletCharacter":
        return DirichletCharacter(())

    @staticmethod
    def teichmuller_power(t: int, p: int) -> "DirichletCharacter":
        return DirichletCharacter((TeichmullerPower(t, p),)).normalized()

    @staticmethod
    def quadratic(d: int) -> "DirichletCharacter":
        return DirichletCharacter((QuadraticSymbol(d),)).normalized()

    def normalized(self) -> "DirichletCharacter":
        """Merge Teichmuller atoms per prime, drop exponent-0 and d=1 atoms."""
        teich: dict = {}
        quads = []
        for atom in self.factors:
            if isinstance(atom, TeichmullerPower):
                teich[atom.p] = (teich.get(atom.p, 0) + atom.exponent) % (atom.p - 1)
            else:
                if atom.d > 1:
                    quads.append(atom)
        merged: list = [TeichmullerPower(t, p) for p, t in sorted(teich.items()) if t != 0]
        merged.extend(sorted(quads, key=lambda s: s.d))
        return DirichletCharacter(tuple(merged))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        return DirichletCharacter(self.factors + other.factors).normalized()

    @property
    def conductor(self) -> int:
        """Least period of the character: lcm of the atom conductors."""
        c = 1
        for atom in self.factors:
            c = math.lcm(c, atom.conductor)
        return c

    @property
    def is_trivial(self) -> bool:
        return not self.normalized().factors

    def teichmuller_primes(self) -> Tuple[int, ...]:
        return tuple(a.p for a in self.factors if isinstance(a, TeichmullerPower))

    @property
    def is_plus_minus_one_valued(self) -> bool:
        """True when every value is 0 or +-1, so exact evaluation is possible."""
        for atom in self.factors:
            if isinstance(atom, TeichmullerPower):
                if (2 * atom.exponent) % (atom.p - 1) != 0:
                    return False
        return True

    def spec_string(self) -> str:
        """The CLI syntax for this character."""
        parts = []
        for atom in self.factors:
            if isinstance(atom, TeichmullerPower):
                parts.append(f"teich:{atom.exponent}")
            else:
                parts.append(f"quad:{atom.d}")
        return "*".join(parts) if parts else "trivial"


def twist(chi: DirichletCharacter, t: int, p: Optional[int] = None) -> DirichletCharacter:
    """Multiply by the t-th Teichmuller power, merging exponents mod p-1.

    The prime is taken from an existing Teichmuller atom when not supplied.
    """
    if p is None:
        primes = chi.teichmuller_primes()
        if not primes:
            raise CharacterError("twist needs an explicit prime for this character")
        p = primes[0]
    return (chi * DirichletCharacter.teichmuller_power(t, p)).normalized()


def chi_eval_exact(chi: DirichletCharacter, n: int) -> int:
    """Exact value in {-1, 0, 1}; only for plus/minus-one-valued characters."""
    if not chi.is_plus_minus_one_valued:
        raise CharacterError("character takes values outside {0, +-1}; use chi_eval")
    if n < 0:
        raise ValueError("chi_eval_exact requires n >= 0")
    cond = chi.conductor
    if cond > 1 and math.gcd(n, cond) > 1:
        return 0
    value = 1
    for atom in chi.factors:
        if isinstance(atom, TeichmullerPower):
            if atom.exponent != 0:
                # exponent is (p-1)/2: the value is the Legendre symbol at p
                value *= jacobi_symbol(n, atom.p)
        else:
            value *= jacobi_symbol(n, atom.d)
    return value


def chi_residue(chi: DirichletCharacter, n: int, p: int, W: int) -> int:
    """chi(n) mod p**W as an integer in [0, p**W): 0 when n shares a factor
    with the conductor, else w(n)^t times the Jacobi signs of the quadratic
    atoms, t the sum of the Teichmuller exponents.  As w is multiplicative,
    w(n)^t = w(n^t), read from the memoized lift.  A Teichmuller atom at a
    prime other than p is a CharacterError."""
    for prime in chi.teichmuller_primes():
        if prime != p:
            raise CharacterError(f"character lives at p={prime}, context has p={p}")
    cond = chi.conductor
    if cond > 1 and math.gcd(n, cond) > 1:
        return 0
    t, sign = 0, 1
    for atom in chi.factors:
        if isinstance(atom, TeichmullerPower):
            t += atom.exponent
        else:
            sign *= jacobi_symbol(n, atom.d)
    value = teichmuller(pow(n, t, p), p, W).unit if t % (p - 1) else 1
    return value if sign == 1 else p**W - value


def chi_eval(chi: DirichletCharacter, n: int, ctx: QContext) -> PadicNumber:
    """Character value at n as a p-adic number mod p**working_precision, read
    from :func:`chi_residue`: zero when n shares a factor with the conductor."""
    if n < 0:
        raise ValueError("chi_eval requires n >= 0")
    W = ctx.working_precision
    residue = chi_residue(chi, n, ctx.p, W)
    return PadicNumber(ctx.p, 0, residue, W) if residue else ctx.zero()


def chi_sum(chi: DirichletCharacter, indices: Iterable[int],
            class_sum: Callable[[Dict[int, int]], Fraction],
            ctx: Optional[QContext] = None) -> Union[Fraction, PadicNumber]:
    """sum over a in indices of chi(a) x_a, where ``class_sum(weights)`` is the
    exact sum of weights[a] x_a.  A {0,+-1}-valued chi is one class with the
    weights ``chi_eval_exact``: an exact Fraction, with or without a context.
    Any other chi needs a context: one class of weights 1 per distinct nonzero
    value :func:`chi_residue` (at most p - 1), each class sum embedded once,
    exact until then, and multiplied by its value: a PadicNumber mod
    p**working_precision."""
    if chi.is_plus_minus_one_valued:
        return class_sum({a: c for a in indices if (c := chi_eval_exact(chi, a))})
    if ctx is None:
        raise ValueError("p-adic-valued characters need a QContext")
    p, W = ctx.p, ctx.working_precision
    classes: Dict[int, Dict[int, int]] = {}
    for a in indices:
        if c := chi_residue(chi, a, p, W):
            classes.setdefault(c, {})[a] = 1
    acc = ctx.zero()
    for c, weights in classes.items():
        acc = acc + PadicNumber(p, 0, c, W) * ctx.embed(class_sum(weights))
    return acc


def parse_character(text: str, p: Optional[int] = None) -> DirichletCharacter:
    """Parse the CLI character syntax: ``trivial``, ``teich:T``, ``quad:D``,
    and ``*``-joined products (e.g. ``quad:3*teich:2``)."""
    chi = DirichletCharacter.trivial()
    for token in text.strip().split("*"):
        token = token.strip().lower()
        if token in ("trivial", "1", ""):
            continue
        if token.startswith("teich:"):
            if p is None:
                raise CharacterError("teich:T atoms need a prime; pass --p")
            chi = chi * DirichletCharacter.teichmuller_power(int(token[6:]), p)
        elif token.startswith("quad:"):
            chi = chi * DirichletCharacter.quadratic(int(token[5:]))
        else:
            raise CharacterError(f"unknown character atom {token!r}")
    return chi.normalized()
