"""Exact multiplicity formulas for bifurcation sets of Pham singularities.

A Pham singularity is f(z_1, ..., z_n) = z_1^(a_1+1) + ... + z_n^(a_n+1)
with exponents a_1 >= ... >= a_n >= 1.  This module evaluates, in exact
integer/rational arithmetic, the local multiplicities of its caustic,
Maxwell set, mixed Stokes set and (where a closed form exists) pure Stokes
set, together with the combined degree L = 3*C + 2*M of the pair-difference
discriminant product restricted to a generic line.

Every division that must produce an integer is checked: a non-integral
result can only come from a wrong formula, so it raises ArithmeticError
instead of rounding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

__all__ = [
    "ExponentVector",
    "MultiplicitySet",
    "HomogeneousReport",
    "l_value",
    "l_value_rewritten",
    "caustic_multiplicity",
    "maxwell_multiplicity",
    "binom12",
    "binom22",
    "mixed_stokes_multiplicity",
    "mixed_depth_counts",
    "pair_depth_counts",
    "pure_stokes_multiplicity",
    "homogeneous_report",
]


@dataclass(frozen=True)
class ExponentVector:
    """Exponents (a_1 >= ... >= a_n >= 1) of f = sum_i z_i^(a_i + 1).

    The constructor sorts descending and rejects non-positive entries;
    all downstream formulas are order-sensitive and assume the sorted form.
    """

    a: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted((int(x) for x in self.a), reverse=True))
        if not entries:
            raise ValueError("at least one exponent is required")
        if entries[-1] < 1:
            raise ValueError(f"exponents must be positive integers, got {entries}")
        object.__setattr__(self, "a", entries)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def mu(self) -> int:
        """Milnor number: the number of Morse points of a generic perturbation."""
        return math.prod(self.a)

    def __iter__(self):
        return iter(self.a)

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, i):
        return self.a[i]


ExponentsLike = Union[ExponentVector, Iterable[int]]


def _ev(a: ExponentsLike) -> ExponentVector:
    if isinstance(a, ExponentVector):
        return a
    return ExponentVector(tuple(a))


def _as_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} evaluated to the non-integer {value}; formula bug")
    return int(value)


def l_value(a: ExponentsLike) -> int:
    """Degree of the pair-difference product on a generic line: 3*C + 2*M.

    Computed as sum_i (a_1...a_{i-1}) * (a_i^2 - 1) * (a_{i+1}...a_n)^2.
    """
    e = _ev(a).a
    total = 0
    for i, ai in enumerate(e):
        head = math.prod(e[:i])
        tail = math.prod(e[i + 1:])
        total += head * (ai * ai - 1) * tail * tail
    return total


def l_value_rewritten(a: ExponentsLike) -> int:
    """Same degree as l_value, resummed over pairs by first separating depth.

    2*C(mu,2)*(a_1+1)/a_1 + 2*sum_{j>=2} a_1...a_{j-1} * C(a_j...a_n, 2)
    * (a_{j-1}-a_j)/(a_{j-1} a_j).
    """
    e = _ev(a).a
    mu = math.prod(e)
    total = 2 * math.comb(mu, 2) * Fraction(e[0] + 1, e[0])
    for j in range(1, len(e)):
        head = math.prod(e[:j])
        total += 2 * head * math.comb(math.prod(e[j:]), 2) * Fraction(e[j - 1] - e[j], e[j - 1] * e[j])
    return _as_integer(total, "rewritten pair-product degree")


def caustic_multiplicity(a: ExponentsLike) -> int:
    """Local multiplicity of the caustic: mu * sum_i (a_i - 1)/a_i."""
    ev = _ev(a)
    total = ev.mu * sum(Fraction(ai - 1, ai) for ai in ev.a)
    return _as_integer(total, "caustic multiplicity")


def maxwell_multiplicity(a: ExponentsLike) -> int:
    """Local multiplicity of the Maxwell set, from L = 3*C + 2*M."""
    ev = _ev(a)
    remainder = l_value(ev) - 3 * caustic_multiplicity(ev)
    if remainder < 0 or remainder % 2 != 0:
        raise ArithmeticError(f"L - 3C = {remainder} is not an even nonnegative integer; formula bug")
    return remainder // 2


def binom12(count: int) -> int:
    """Choices of one distinguished point plus an unordered pair: A(A-1)(A-2)/2."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return count * (count - 1) * (count - 2) // 2


def binom22(count: int) -> int:
    """Ordered pairs of disjoint unordered pairs: A(A-1)(A-2)(A-3)/4."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return count * (count - 1) * (count - 2) * (count - 3) // 4


def mixed_stokes_multiplicity(a: ExponentsLike) -> int:
    """Local multiplicity of the mixed Stokes set (triples with 2v1 = v2 + v3).

    binom12(mu)*(a_1+1)/a_1 + sum_{j>=2} a_1...a_{j-1} * binom12(a_j...a_n)
    * (a_{j-1}-a_j)/(a_{j-1} a_j).
    """
    e = _ev(a).a
    mu = math.prod(e)
    total = binom12(mu) * Fraction(e[0] + 1, e[0])
    for j in range(1, len(e)):
        head = math.prod(e[:j])
        total += head * binom12(math.prod(e[j:])) * Fraction(e[j - 1] - e[j], e[j - 1] * e[j])
    return _as_integer(total, "mixed Stokes multiplicity")


def mixed_depth_counts(a: ExponentsLike) -> dict[Fraction, int]:
    """Triple counts grouped by decay exponent of their product factor.

    A triple of critical points whose first separating depth is j contributes
    a factor vanishing as |eps|^(1 + 1/a_j).  There are
    T_j = (a_1...a_{j-1}) * binom12(a_j...a_n) - (a_1...a_j) * binom12(a_{j+1}...a_n)
    such triples; counts with equal exponents are merged.
    """
    e = _ev(a).a
    counts: dict[Fraction, int] = {}
    for j in range(len(e)):
        inside = math.prod(e[:j]) * binom12(math.prod(e[j:]))
        deeper = math.prod(e[:j + 1]) * binom12(math.prod(e[j + 1:]))
        t_j = inside - deeper
        if t_j:
            key = 1 + Fraction(1, e[j])
            counts[key] = counts.get(key, 0) + t_j
    return counts


def pair_depth_counts(a: ExponentsLike) -> dict[Fraction, int]:
    """Ordered-pair counts grouped by decay exponent, for the pair product.

    Pairs separating first at depth j number (a_1...a_{j-1}) * a_j(a_j-1)
    * (a_{j+1}...a_n)^2 and decay as |eps|^(1 + 1/a_j).
    """
    e = _ev(a).a
    counts: dict[Fraction, int] = {}
    for j, aj in enumerate(e):
        head = math.prod(e[:j])
        tail = math.prod(e[j + 1:])
        n_j = head * aj * (aj - 1) * tail * tail
        if n_j:
            key = 1 + Fraction(1, aj)
            counts[key] = counts.get(key, 0) + n_j
    return counts


def pure_stokes_multiplicity(a: ExponentsLike) -> Optional[int]:
    """Local multiplicity of the pure Stokes set, or None when no closed form exists.

    Supported: one variable (both parities of d = a_1), and two variables with
    both exponents odd.  Other parities and arities return None rather than a
    fabricated 0.
    """
    e = _ev(a).a
    if len(e) == 1:
        d = e[0]
        if d % 2 == 1:
            total = Fraction((d + 1) * (d - 1) * (d - 2) * (d - 3), 8)
        else:
            total = Fraction((d - 2) * ((d + 1) * (d - 1) * (d - 3) + 1), 8)
        return _as_integer(total, "pure Stokes multiplicity")
    if len(e) == 2 and e[0] % 2 == 1 and e[1] % 2 == 1:
        p, q = e
        total = (
            Fraction(p + 1, 2 * p) * binom22(p * q)
            + Fraction(p - q, 2 * q) * binom22(q)
            + Fraction(p - q, p) * math.comb(p, 2) * math.comb(q, 2) * (q - 1)
            + Fraction(1, p) * math.comb(p, 2) * math.comb(q, 2)
        )
        return _as_integer(total, "pure Stokes multiplicity")
    return None


@dataclass(frozen=True)
class MultiplicitySet:
    """All closed-form multiplicities of one singularity."""

    mu: int
    l_value: int
    caustic: int
    maxwell: int
    mixed_stokes: int
    pure_stokes: Optional[int]

    def __post_init__(self) -> None:
        fields = (self.mu, self.l_value, self.caustic, self.maxwell, self.mixed_stokes)
        if any(v < 0 for v in fields):
            raise ArithmeticError(f"negative multiplicity in {self}")
        if self.pure_stokes is not None and self.pure_stokes < 0:
            raise ArithmeticError(f"negative pure Stokes multiplicity in {self}")
        if 3 * self.caustic + 2 * self.maxwell != self.l_value:
            raise ArithmeticError(f"3C + 2M != L in {self}")

    @classmethod
    def compute(cls, a: ExponentsLike) -> "MultiplicitySet":
        ev = _ev(a)
        return cls(
            mu=ev.mu,
            l_value=l_value(ev),
            caustic=caustic_multiplicity(ev),
            maxwell=maxwell_multiplicity(ev),
            mixed_stokes=mixed_stokes_multiplicity(ev),
            pure_stokes=pure_stokes_multiplicity(ev),
        )


@dataclass(frozen=True)
class HomogeneousReport(MultiplicitySet):
    """Multiplicities for n equal exponents, with large-degree ratio checks.

    The ratios compare each multiplicity with its leading-order growth in the
    Milnor number mu: caustic ~ n*mu, maxwell ~ mu^2/2, mixed ~ mu^3/2 and,
    where defined, pure ~ mu^4/8.  All ratios are exact rationals.
    """

    a: int
    n: int
    ratio_caustic: Fraction
    ratio_maxwell: Fraction
    ratio_mixed: Fraction
    ratio_pure: Optional[Fraction]


def homogeneous_report(a: int, n: int) -> HomogeneousReport:
    if a < 1 or n < 1:
        raise ValueError("need a >= 1 and n >= 1")
    sets = MultiplicitySet.compute((a,) * n)
    mu, pure = sets.mu, sets.pure_stokes
    return HomogeneousReport(
        **asdict(sets),
        a=a,
        n=n,
        ratio_caustic=Fraction(sets.caustic, n * mu),
        ratio_maxwell=Fraction(2 * sets.maxwell, mu * mu),
        ratio_mixed=Fraction(2 * sets.mixed_stokes, mu**3),
        ratio_pure=Fraction(8 * pure, mu**4) if pure is not None else None,
    )
