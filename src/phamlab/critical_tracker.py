"""Critical points of f - eps*phi with deterministic branch labels.

For the linear part phi_0 = sum q_i z_i of a deformation direction, the
critical points of f - eps*phi_0 factor coordinate-wise: z_i runs over the
a_i-th roots of q_i*eps.  Each point gets a label (k_1, ..., k_n) naming its
root branch per coordinate (principal root times the k-th unit root), which
realizes the nested cluster hierarchy of critical values: points sharing the
first i label entries form a depth-i collection.

Nonlinear directions are reached by a stepped homotopy from phi_0 to phi with
Newton correction of the gradient system, inheriting labels from the start.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .closed_forms import ExponentVector, ExponentsLike, _ev
from .polyalg import SparsePoly

__all__ = [
    "GenericLine",
    "CriticalPoint",
    "CriticalPointSet",
    "TrackerError",
    "PathCollision",
    "NewtonDivergence",
    "PRESETS",
    "default_line",
    "jittered_line",
    "separable_critical_set",
    "track_to_phi",
    "critical_set",
    "line_function",
]

PRESETS = ("linear", "quadratic_1d", "xy_coupled")

MAX_EPS_MAGNITUDE = 0.01
GRADIENT_RESIDUAL_COEF = 1e-11
DISTINCTNESS_FACTOR = 1e3
NEWTON_REL_TOL = 1e-13
NEWTON_MAX_ITERATIONS = 50
COLLISION_SHRINK = 1e-3
DEFAULT_STEPS = 32
MAX_STEP_DOUBLINGS = 3


class TrackerError(Exception):
    """Tracking could not produce a valid labelled critical-point set."""


class PathCollision(TrackerError):
    """Two tracked points approached within a fraction of their initial gap."""


class NewtonDivergence(TrackerError):
    """Newton correction failed to converge inside a homotopy step."""


@dataclass(frozen=True)
class GenericLine:
    """One-parameter deformation family f - eps*phi along a fixed direction phi.

    phi = q_1 z_1 + ... + q_n z_n + tail.  Genericity conventions: q_1 = 1
    (absorbed into eps), all q_i in (0, 1], and q_{i+1} <= 0.01 * q_i whenever
    a_{i+1} = a_i so that equal-exponent depth levels stay separated.  The
    tail sits inside the deformation exponent box and has no constant or
    linear part.
    """

    a: ExponentVector
    q: tuple[float, ...]
    phi_tail: SparsePoly

    def __post_init__(self) -> None:
        exps = self.a.a
        n = len(exps)
        q = tuple(float(x) for x in self.q)
        object.__setattr__(self, "q", q)
        if len(q) != n:
            raise ValueError(f"need {n} linear coefficients, got {len(q)}")
        if q[0] != 1.0:
            raise ValueError("the first linear coefficient must be exactly 1")
        for i, qi in enumerate(q):
            if not 0.0 < qi <= 1.0:
                raise ValueError(f"linear coefficient q[{i}] = {qi} outside (0, 1]")
        for i in range(1, n):
            if exps[i] == exps[i - 1] and q[i] > 0.01 * q[i - 1] * (1 + 1e-12):
                raise ValueError(
                    f"equal exponents a[{i-1}] = a[{i}] need q[{i}] <= 0.01*q[{i-1}]"
                )
        if self.phi_tail.n_vars != n:
            raise ValueError("tail variable count does not match the exponents")
        for exp in self.phi_tail.terms:
            if all(e == 0 for e in exp):
                raise ValueError("constant term not allowed inside the versal box")
            if any(e > exps[i] - 1 for i, e in enumerate(exp)):
                raise ValueError(f"exponent {exp} outside the versal box {exps}")
        for exp in self.phi_tail.terms:
            if sum(exp) < 2:
                raise ValueError(f"tail monomial {exp} belongs to the linear part")

    @property
    def n(self) -> int:
        return self.a.n

    def phi(self) -> SparsePoly:
        return SparsePoly.linear(self.q) + self.phi_tail

    @cached_property
    def tail_derivatives(self) -> tuple[tuple[SparsePoly, ...], tuple[tuple[SparsePoly, ...], ...]]:
        """Gradient and Hessian polynomials of the tail, differentiated once per line."""
        n = self.n
        grads = tuple(self.phi_tail.diff(i) for i in range(n))
        hessians = tuple(tuple(grads[i].diff(j) for j in range(n)) for i in range(n))
        return grads, hessians


@dataclass(frozen=True)
class CriticalPoint:
    label: tuple[int, ...]
    coords: tuple[complex, ...]
    value: complex


@dataclass(frozen=True)
class CriticalPointSet:
    """All mu critical points of f - eps*phi, labelled by root branches."""

    epsilon: complex
    points: tuple[CriticalPoint, ...]

    def labels(self) -> list[tuple[int, ...]]:
        return [p.label for p in self.points]

    def values(self) -> list[complex]:
        return [p.value for p in self.points]

    def coords_array(self) -> np.ndarray:
        return np.array([p.coords for p in self.points], dtype=complex)

    def by_label(self) -> dict[tuple[int, ...], CriticalPoint]:
        return {p.label: p for p in self.points}


def _ladder_q(exps: Sequence[int]) -> tuple[float, ...]:
    # 0.3 step on strict exponent decrease, 0.01 on equality
    q = [1.0]
    for i in range(1, len(exps)):
        factor = 0.01 if exps[i] == exps[i - 1] else 0.3
        q.append(q[-1] * factor)
    return tuple(q)


def default_line(a: ExponentsLike, preset: str = "linear") -> GenericLine:
    """Build one of the stock deformation directions.

    linear        q-ladder only (q_1 = 1, then x0.3 per strict exponent drop,
                  x0.01 per equality), empty tail.
    quadratic_1d  one variable only: linear part plus z^2.
    xy_coupled    two variables only: q-ladder plus the coupling monomial
                  q_2 * x * y.  The coupling coefficient is tied to q_2 so the
                  cross term stays subordinate to the linear hierarchy on
                  desk-scale rays; for equal exponents a plain unit coupling
                  with q = (1, 1) is value-symmetric under swapping the
                  variables and therefore never generic.
    """
    ev = _ev(a)
    exps = ev.a
    n = ev.n
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    q = _ladder_q(exps)
    if preset == "linear":
        tail = SparsePoly.zero(n)
    elif preset == "quadratic_1d":
        if n != 1:
            raise ValueError("quadratic_1d preset needs exactly one variable")
        if exps[0] < 3:
            raise ValueError("quadratic_1d needs a_1 >= 3 so z^2 fits the deformation box")
        tail = SparsePoly(1, {(2,): 1.0})
    else:
        if n != 2:
            raise ValueError("xy_coupled preset needs exactly two variables")
        if exps[1] < 2:
            raise ValueError("xy_coupled needs a_2 >= 2 so x*y fits the deformation box")
        tail = SparsePoly(2, {(1, 1): q[1]})
    return GenericLine(ev, q, tail)


def jittered_line(line: GenericLine, seed: int) -> GenericLine:
    """Multiplicatively perturb q_2..q_n by factors in [0.9, 1.1].

    Draws that would break the ladder constraints are clamped to the boundary,
    so the result is always a valid line; the probe still moves every
    coefficient it can.
    """
    rng = random.Random(seed)
    exps = line.a.a
    q = [1.0]
    for i in range(1, len(line.q)):
        proposal = line.q[i] * rng.uniform(0.9, 1.1)
        limit = q[i - 1] * (0.01 if exps[i] == exps[i - 1] else 1.0)
        q.append(min(proposal, limit))
    return GenericLine(line.a, tuple(q), line.phi_tail)


def line_function(line: GenericLine, eps: complex) -> SparsePoly:
    """f - eps*phi as an explicit polynomial (normalized Pham head)."""
    n = line.n
    head = {}
    for i, ai in enumerate(line.a):
        exp = [0] * n
        exp[i] = ai + 1
        head[tuple(exp)] = 1.0 / (ai + 1)
    return SparsePoly(n, head) + line.phi().scale(-eps)


def _check_eps(eps: complex) -> complex:
    eps = complex(eps)
    if eps == 0:
        raise ValueError("eps must be nonzero")
    if abs(eps) > MAX_EPS_MAGNITUDE * (1 + 1e-9):
        raise ValueError(f"|eps| = {abs(eps):.3e} outside the validity regime (<= {MAX_EPS_MAGNITUDE})")
    return eps


def _labels_for(exps: Sequence[int]) -> list[tuple[int, ...]]:
    return list(itertools.product(*[range(ai) for ai in exps]))


def separable_critical_set(line: GenericLine, eps: complex) -> CriticalPointSet:
    """Closed-form critical points for an empty tail.

    Coordinate i of the point labelled k is (q_i*eps)^(1/a_i) * exp(2*pi*1j*k_i/a_i)
    with the principal root; the critical value is
    eps * sum_i c_i (q_i*eps)^(1/a_i) * w_i^(k_i) with c_i = -q_i*a_i/(a_i+1).
    """
    if not line.phi_tail.is_zero():
        raise ValueError("closed-form point set needs an empty tail; use track_to_phi")
    eps = _check_eps(eps)
    exps = line.a.a
    n = len(exps)
    principal = [(line.q[i] * eps) ** (1.0 / exps[i]) for i in range(n)]
    branch_coord = [
        [principal[i] * cmath.exp(2j * math.pi * k / exps[i]) for k in range(exps[i])]
        for i in range(n)
    ]
    # per-branch contribution to the critical value
    value_coef = [-line.q[i] * exps[i] / (exps[i] + 1) for i in range(n)]
    branch_value = [
        [eps * value_coef[i] * branch_coord[i][k] for k in range(exps[i])]
        for i in range(n)
    ]
    points = []
    for label in _labels_for(exps):
        coords = tuple(branch_coord[i][label[i]] for i in range(n))
        value = 0j
        for i in range(n):
            value += branch_value[i][label[i]]
        points.append(CriticalPoint(label, coords, value))
    result = CriticalPointSet(eps, tuple(points))
    _validate_set(line, eps, result)
    return result


def _gradient(z: np.ndarray, exps: np.ndarray, eps_q: np.ndarray, eps_s: complex, grads) -> np.ndarray:
    """Gradient of f - eps*phi_0 - eps*s*tail at the rows of z; eps_q is the row eps*q, eps_s is eps*s."""
    g = z**exps - eps_q
    for i, grad in enumerate(grads):
        if not grad.is_zero():
            g[:, i] -= eps_s * grad.eval_batch(z)
    return g


def _values_at(line: GenericLine, eps: complex, coords: np.ndarray) -> np.ndarray:
    exps = np.array(line.a.a)
    head = (coords ** (exps + 1) / (exps + 1)).sum(axis=1)
    lin = (coords * np.array(line.q)[None, :]).sum(axis=1)
    tail = line.phi_tail.eval_batch(coords) if not line.phi_tail.is_zero() else 0.0
    return head - eps * (lin + tail)


def _pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of coords, inf on the diagonal."""
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((np.abs(diff) ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return dist


def _validate_set(line: GenericLine, eps: complex, cps: CriticalPointSet) -> None:
    mu = line.a.mu
    if len(cps.points) != mu or len(set(cps.labels())) != mu:
        raise TrackerError("label set is not an exhaustive enumeration")
    coords = cps.coords_array()
    residual_bound = GRADIENT_RESIDUAL_COEF * max(1.0, abs(eps))
    grads, _ = line.tail_derivatives
    g = _gradient(coords, np.array(line.a.a), eps * np.array(line.q)[None, :], eps, grads)
    worst = float(np.sqrt((np.abs(g) ** 2).sum(axis=1)).max())
    if worst > residual_bound:
        raise TrackerError(f"gradient residual {worst:.3e} exceeds {residual_bound:.3e}")
    if mu > 1:
        min_dist = float(_pairwise_distances(coords).min())
        if min_dist < DISTINCTNESS_FACTOR * residual_bound:
            raise TrackerError(f"points not distinct: min distance {min_dist:.3e}")


def _newton_correct(line, eps: complex, s: float, coords: np.ndarray) -> np.ndarray:
    grads, hessians = line.tail_derivatives
    exps = np.array(line.a.a)
    eps_q = eps * np.array(line.q)[None, :]
    eps_s = eps * s
    n = line.n
    mu = coords.shape[0]
    z = coords.copy()
    for _ in range(NEWTON_MAX_ITERATIONS):
        g = _gradient(z, exps, eps_q, eps_s, grads)
        jac = np.zeros((mu, n, n), dtype=complex)
        for i in range(n):
            jac[:, i, i] = exps[i] * z[:, i] ** (exps[i] - 1)
            for j in range(n):
                h = hessians[i][j]
                if not h.is_zero():
                    jac[:, i, j] -= eps_s * h.eval_batch(z)
        try:
            delta = np.linalg.solve(jac, g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as err:
            raise NewtonDivergence(f"singular Jacobian during correction: {err}") from err
        z = z - delta
        if not np.all(np.isfinite(z)) or np.abs(z).max() > 1.5:
            raise NewtonDivergence("iterate left the unit polydisc region")
        rel = float((np.abs(delta) / (1.0 + np.abs(z))).max())
        if rel <= NEWTON_REL_TOL:
            return z
    raise NewtonDivergence(f"no convergence in {NEWTON_MAX_ITERATIONS} iterations")


def _run_homotopy(line, eps: complex, start: np.ndarray, steps: int, floor: np.ndarray) -> np.ndarray:
    z = start.copy()
    for k in range(1, steps + 1):
        z = _newton_correct(line, eps, k / steps, z)
        dist = _pairwise_distances(z)
        if (dist < floor).any():
            i, j = np.unravel_index(int((dist / floor).argmin()), dist.shape)
            raise PathCollision(f"points {i} and {j} collided at homotopy step {k}/{steps}")
    return z


def track_to_phi(line: GenericLine, eps: complex) -> CriticalPointSet:
    """Track the labelled points from the linear direction to the full phi.

    The family f - eps*(phi_0 + t*tail) is stepped over a uniform t-grid of
    DEFAULT_STEPS steps with Newton correction of the gradient system; labels
    are inherited from t = 0.  On a path collision the step count is doubled
    and the run retried, up to three doublings.
    """
    if line.phi_tail.is_zero():
        return separable_critical_set(line, eps)
    linear_part = GenericLine(line.a, line.q, SparsePoly.zero(line.n))
    start = separable_critical_set(linear_part, eps)
    eps = complex(eps)
    coords0 = start.coords_array()
    mu = coords0.shape[0]

    if mu > 1:
        dist0 = _pairwise_distances(coords0)
        min_gap = float(dist0.min())
        grads, _ = line.tail_derivatives
        # predicted per-step Newton correction: tail forcing over the diagonal
        # Jacobian scale, divided across the homotopy steps
        basin = 0.0
        for i, ai in enumerate(line.a):
            g = grads[i]
            if g.is_zero():
                continue
            forcing = float(np.abs(g.eval_batch(coords0)).max()) * abs(eps)
            jac_scale = ai * abs(line.q[i] * eps) ** ((ai - 1) / ai)
            basin = max(basin, forcing / jac_scale / DEFAULT_STEPS)
        if min_gap <= 10.0 * basin:
            raise TrackerError(
                f"separable clusters too close for tracking: gap {min_gap:.3e} "
                f"vs predicted step size {basin:.3e}"
            )
        floor = COLLISION_SHRINK * dist0
    else:
        floor = np.zeros((1, 1))

    last_error: Optional[PathCollision] = None
    coords = None
    for attempt in range(MAX_STEP_DOUBLINGS + 1):
        try:
            coords = _run_homotopy(line, eps, coords0, DEFAULT_STEPS << attempt, floor)
            break
        except PathCollision as err:
            last_error = err
    if coords is None:
        assert last_error is not None
        raise last_error

    values = _values_at(line, eps, coords)
    points = tuple(
        CriticalPoint(p.label, tuple(coords[k]), complex(values[k]))
        for k, p in enumerate(start.points)
    )
    result = CriticalPointSet(eps, points)
    _validate_set(line, eps, result)
    return result


def critical_set(line: GenericLine, eps: complex) -> CriticalPointSet:
    """Closed form for empty tails, homotopy tracking otherwise."""
    if line.phi_tail.is_zero():
        return separable_critical_set(line, eps)
    return track_to_phi(line, eps)
