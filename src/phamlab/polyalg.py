"""Sparse multivariate polynomials over complex coefficients.

The numeric substrate for the deformation pipeline: term-map polynomials with
formal differentiation, batch evaluation, Hessian determinants, and a
simultaneous-iteration univariate root finder.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "SparsePoly",
    "NonConvergence",
    "hessian_det_at",
    "univariate_roots",
]

Exponent = tuple[int, ...]

MAX_ROOT_SWEEPS = 200


class NonConvergence(Exception):
    """Root iteration failed to meet the residual bound; carries the worst residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class SparsePoly:
    """Polynomial as a map from exponent multi-indices to complex coefficients.

    Zero coefficients are never stored.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Optional[Mapping[Exponent, complex]] = None):
        if n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        self.n_vars = int(n_vars)
        cleaned: dict[Exponent, complex] = {}
        for exp, coef in (terms or {}).items():
            key = tuple(int(e) for e in exp)
            if len(key) != self.n_vars:
                raise ValueError(f"exponent {key} has wrong length for {self.n_vars} variables")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            value = complex(coef)
            if value != 0:
                cleaned[key] = cleaned.get(key, 0j) + value
        self.terms = {k: v for k, v in cleaned.items() if v != 0}

    @classmethod
    def zero(cls, n_vars: int) -> "SparsePoly":
        return cls(n_vars, {})

    @classmethod
    def linear(cls, coeffs: Sequence[complex]) -> "SparsePoly":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            exp = [0] * n
            exp[i] = 1
            terms[tuple(exp)] = c
        return cls(n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        body = " + ".join(f"{c!r}*z^{e}" for e, c in sorted(self.terms.items())) or "0"
        return f"SparsePoly({self.n_vars}, {body})"

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if self.n_vars != other.n_vars:
            raise ValueError("variable-count mismatch")
        merged = dict(self.terms)
        for exp, coef in other.terms.items():
            merged[exp] = merged.get(exp, 0j) + coef
        return SparsePoly(self.n_vars, merged)

    def scale(self, factor: complex) -> "SparsePoly":
        return SparsePoly(self.n_vars, {e: c * complex(factor) for e, c in self.terms.items()})

    def diff(self, var: int) -> "SparsePoly":
        out: dict[Exponent, complex] = {}
        for exp, coef in self.terms.items():
            e = exp[var]
            if e:
                key = exp[:var] + (e - 1,) + exp[var + 1:]
                out[key] = out.get(key, 0j) + coef * e
        return SparsePoly(self.n_vars, out)

    def evaluate(self, z: Sequence[complex]) -> complex:
        if len(z) != self.n_vars:
            raise ValueError(f"point has {len(z)} coordinates, polynomial has {self.n_vars}")
        total = 0j
        for exp, coef in sorted(self.terms.items()):
            term = coef
            for zi, e in zip(z, exp):
                if e:
                    term *= zi**e
            total += term
        return total

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (m, n_vars) array of complex points."""
        points = np.asarray(points, dtype=complex)
        if points.ndim != 2 or points.shape[1] != self.n_vars:
            raise ValueError("expected an (m, n_vars) array")
        out = np.zeros(points.shape[0], dtype=complex)
        for exp, coef in sorted(self.terms.items()):
            term = np.full(points.shape[0], coef, dtype=complex)
            for i, e in enumerate(exp):
                if e:
                    term = term * points[:, i] ** e
            out += term
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SparsePoly":
        try:
            n = int(data["vars"])
            terms = {
                tuple(int(e) for e in item["exp"]): complex(float(item["re"]), float(item.get("im", 0.0)))
                for item in data["terms"]
            }
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed polynomial literal: {err}") from err
        return cls(n, terms)


def hessian_det_at(p: SparsePoly, z: Sequence[complex]) -> complex:
    """Determinant of the second-derivative matrix at z."""
    if len(z) != p.n_vars:
        raise ValueError(f"point has {len(z)} coordinates, polynomial has {p.n_vars}")
    n = p.n_vars
    firsts = [p.diff(i) for i in range(n)]
    entries = [[firsts[i].diff(j).evaluate(z) for j in range(n)] for i in range(n)]
    if n == 1:
        return entries[0][0]
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    return complex(np.linalg.det(np.array(entries, dtype=complex)))


def _horner_pair(coeffs: Sequence[complex], z: complex) -> tuple[complex, complex]:
    """Value and derivative of sum_k coeffs[k] z^k."""
    value = coeffs[-1]
    deriv = 0j
    for c in reversed(coeffs[:-1]):
        deriv = deriv * z + value
        value = value * z + c
    return value, deriv


def univariate_roots(coeffs: Sequence[complex]) -> list[complex]:
    """All roots (with multiplicity) of sum_k coeffs[k] z^k, ascending order.

    Simultaneous iteration with mutual-repulsion corrections, followed by one
    Newton polish per root.  Each returned root r satisfies
    |p(r)| <= 1e-12 * max|coeff| * max(1, |r|)^degree; otherwise
    NonConvergence is raised with the worst residual.
    """
    c = [complex(x) for x in coeffs]
    if len(c) < 2:
        raise ValueError("degree must be >= 1")
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    degree = len(c) - 1
    if degree == 1:
        return [-c[0] / c[1]]

    lead = abs(c[-1])
    cauchy = 1.0 + max(abs(x) for x in c[:-1]) / lead
    radius = (abs(c[0]) / lead) ** (1.0 / degree) if c[0] != 0 else 0.0
    radius = min(max(radius, 1e-6 * cauchy), cauchy)
    # deterministic non-symmetric starting angles
    z = [radius * cmath.exp(2j * math.pi * (k + 0.37) / degree) for k in range(degree)]

    for _ in range(MAX_ROOT_SWEEPS):
        moved = 0.0
        for k in range(degree):
            pk, dpk = _horner_pair(c, z[k])
            if pk == 0:
                continue
            w = pk / dpk if dpk != 0 else pk
            repulsion = 0j
            for j in range(degree):
                if j != k:
                    gap = z[k] - z[j]
                    if gap == 0:
                        gap = 1e-30
                    repulsion += 1.0 / gap
            denom = 1.0 - w * repulsion
            delta = w if denom == 0 else w / denom
            z[k] -= delta
            moved = max(moved, abs(delta) / (1.0 + abs(z[k])))
        if moved < 5e-15:
            break

    # one Newton step as cheap polish for cluster-distance work downstream
    for k in range(degree):
        pk, dpk = _horner_pair(c, z[k])
        if dpk != 0:
            step = pk / dpk
            if abs(step) < 1e-3 * (1.0 + abs(z[k])):
                z[k] -= step

    maxc = max(abs(x) for x in c)
    worst = 0.0
    for root in z:
        residual = abs(_horner_pair(c, root)[0])
        bound = 1e-12 * maxc * max(1.0, abs(root)) ** degree
        if residual > bound:
            worst = max(worst, residual)
    if worst > 0.0:
        raise NonConvergence("root iteration did not meet the residual bound", worst)
    return z
