"""Sparse multivariate polynomials over complex coefficients.

The numeric substrate for the deformation pipeline: term-map polynomials with
formal differentiation, batch evaluation, Hessian determinants, and a
simultaneous-iteration univariate root finder.

The SparsePoly constructor checks a term map once, where it comes in; diff
derives a polynomial from checked terms without checking them again.

eval_batch is the one evaluator: evaluate is its one-point case, and
hessian_det_at runs each second derivative over all points of a sample in one
eval_batch call, so a sample's Hessian determinants cost n*n array passes,
not n*n evaluate calls and one det call per point.
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

    Zero coefficients are never stored; terms are kept in ascending exponent order.
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
        self.terms = {k: v for k, v in sorted(cleaned.items()) if v != 0}

    @classmethod
    def zero(cls, n_vars: int) -> "SparsePoly":
        return cls(n_vars, {})

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
        body = " + ".join(f"{c!r}*z^{e}" for e, c in self.terms.items()) or "0"
        return f"SparsePoly({self.n_vars}, {body})"

    def diff(self, var: int) -> "SparsePoly":
        # the constructor's checks cannot fail here: lowering one exponent keeps the terms
        # distinct and ascending, and coef * e of a nonzero coef is nonzero; adding to 0j
        # turns a -0.0 part into 0.0 as the constructor does
        out = object.__new__(SparsePoly)
        out.n_vars = self.n_vars
        out.terms = {
            exp[:var] + (exp[var] - 1,) + exp[var + 1:]: 0j + coef * exp[var]
            for exp, coef in self.terms.items()
            if exp[var]
        }
        return out

    def evaluate(self, z: Sequence[complex]) -> complex:
        return complex(self.eval_batch([z])[0])

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (..., n_vars) array of complex points."""
        points = np.asarray(points, dtype=complex)
        if points.ndim < 1 or points.shape[-1] != self.n_vars:
            raise ValueError("expected an (..., n_vars) array")
        out = np.zeros(points.shape[:-1], dtype=complex)
        for exp, coef in self.terms.items():
            term = np.full(out.shape, coef, dtype=complex)
            for i, e in enumerate(exp):
                if e:
                    term = term * points[..., i] ** e
            out += term
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SparsePoly":
        """Read {"vars": n, "terms": [{"exp": [...], "re": x, "im": y}, ...]}.

        n and the exponents are JSON integers, re and im JSON numbers; each exponent is listed
        once, each coefficient finite.
        """
        try:
            n = _json_int(data["vars"], "variable count")
            terms = {}
            for item in data["terms"]:
                exp = tuple(_json_int(e, "exponent entry") for e in item["exp"])
                real = _json_float(item["re"], "real part")
                coef = complex(real, _json_float(item.get("im", 0.0), "imaginary part"))
                if exp in terms:
                    raise ValueError(f"exponent {exp} is listed twice in the polynomial literal")
                if not cmath.isfinite(coef):
                    raise ValueError(f"coefficient {coef} of exponent {exp} is not finite")
                terms[exp] = coef
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed polynomial literal: {err}") from err
        return cls(n, terms)


def _json_int(value, what: str) -> int:
    """A JSON integer as is; int() would truncate 1.7 to 1 and read true as 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _json_float(value, what: str) -> float:
    """A JSON number as a float; float() would read true as 1.0 and "0.5" as 0.5."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float reads as inf, like the literal 1e400
        return math.inf if value > 0 else -math.inf


def hessian_det_at(p: SparsePoly, points: Sequence[Sequence[complex]]) -> list[complex]:
    """Determinant of the second-derivative matrix at each point; p is differentiated once.

    Each second derivative is evaluated at all points in one eval_batch call.  One
    variable takes the entry itself, two m00*m11 - m01*m10, and three or more one
    np.linalg.det call on the (mu, n, n) stack, which factors each matrix as it would alone.
    """
    n = p.n_vars
    z = np.asarray(points, dtype=complex).reshape(-1, n)
    m = [[first.diff(j).eval_batch(z) for j in range(n)] for first in map(p.diff, range(n))]
    if n == 1:
        return m[0][0].tolist()
    if n == 2:
        return (m[0][0] * m[1][1] - m[0][1] * m[1][0]).tolist()
    return np.linalg.det(np.array(m).transpose(2, 0, 1)).tolist()


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
