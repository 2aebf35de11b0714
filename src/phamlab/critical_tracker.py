"""Critical points of f - eps*phi with deterministic branch labels.

For the linear part phi_0 = sum q_i z_i of a deformation direction, the
critical points of f - eps*phi_0 factor coordinate-wise: z_i runs over the
a_i-th roots of q_i*eps.  Each point gets a label (k_1, ..., k_n) naming its
root branch per coordinate (principal root times the k-th unit root), which
realizes the nested cluster hierarchy of critical values: points sharing the
first i label entries form a depth-i collection.

Nonlinear directions are reached by a stepped homotopy from phi_0 to phi with
Newton correction of the gradient system, inheriting labels from the start.
All samples of a grid go through one batched homotopy (TrackedBatch), which
retracks colliding samples with doubled steps; each sample keeps its own Newton
stopping test, divergence check and collision floor, so its points are
bit-identical to tracking it alone.  critical_set(batch, eps) alone picks the
closed form (empty tail) or the tracked set of one sample's labelled points.

Each step is a predictor-corrector step (Allgower and Georg, Introduction to
Numerical Continuation Methods, ch. 2): Newton starts from the extrapolation
of the sample's own last step ends, constant at step 1, linear at step 2 and
quadratic from step 3 on, built from adds and subtracts only.  From that guess
most steps stop after two Newton iterations, where the previous end took four.
The stopping test, the iteration cap, the step grid and the solver (LAPACK
zgesv, through np.linalg.solve) are the same as without a predictor.  On at most
9 x 15 x 2 numbers a batched Newton iteration is per-call overhead, so the
parts of the Newton system that do not change along a line (the nonzero tail
gradient entries and the split of its Hessian into constant and varying
entries) are worked out once per line, where the tail is differentiated.

A CriticalPointSet holds the labels in itertools.product order and the read-only
(mu, n) coordinates and (mu,) critical values, row k belonging to labels[k].  A
closed-form set and a tracked one alike take the values f - eps*phi at their
points from _values_at, which evaluates the line's cached phi.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np

from .closed_forms import ExponentVector, ExponentsLike, _ev
from .polyalg import SparsePoly

__all__ = [
    "GenericLine",
    "CriticalPointSet",
    "TrackerError",
    "PathCollision",
    "NewtonDivergence",
    "PRESETS",
    "default_line",
    "jittered_line",
    "separable_critical_set",
    "TrackedBatch",
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

    @cached_property
    def phi(self) -> SparsePoly:
        """q_1 z_1 + ... + q_n z_n + tail, built and checked once per line."""
        unit = [(0,) * i + (1,) + (0,) * (self.n - 1 - i) for i in range(self.n)]
        return SparsePoly(self.n, {**dict(zip(unit, self.q)), **self.phi_tail.terms})

    @cached_property
    def _system(self) -> "_GradientSystem":
        """What the Newton correction needs of the line, worked out once per line."""
        return _GradientSystem(self)


@dataclass(frozen=True, eq=False)
class CriticalPointSet:
    """All mu critical points of f - eps*phi, labelled by root branches.

    Labels run in itertools.product order; row k of the read-only coords and
    values arrays belongs to labels[k].  Sets compare by identity, not by field.
    """

    epsilon: complex
    labels: tuple[tuple[int, ...], ...]
    coords: np.ndarray  # (mu, n) complex
    values: np.ndarray  # (mu,) complex

    def __post_init__(self) -> None:
        self.coords.flags.writeable = False
        self.values.flags.writeable = False


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
    """f - eps*phi as an explicit polynomial (normalized Pham head).

    The head exponents a_i + 1 lie outside the versal box, so one term map
    holds the head and the terms of phi without merging any.
    """
    n = line.n
    terms = {(0,) * i + (ai + 1,) + (0,) * (n - 1 - i): 1.0 / (ai + 1) for i, ai in enumerate(line.a)}
    factor = complex(-eps)
    for exp, coef in line.phi.terms.items():
        terms[exp] = coef * factor
    return SparsePoly(n, terms)


def _check_eps(eps: complex) -> complex:
    eps = complex(eps)
    if not cmath.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if eps == 0:
        raise ValueError("eps must be nonzero")
    if abs(eps) > MAX_EPS_MAGNITUDE * (1 + 1e-9):
        raise ValueError(f"|eps| = {abs(eps):.3e} outside the validity regime (<= {MAX_EPS_MAGNITUDE})")
    return eps


def separable_critical_set(line: GenericLine, eps: complex) -> CriticalPointSet:
    """Closed-form critical points for an empty tail.

    Coordinate i of the point labelled k is (q_i*eps)^(1/a_i) * exp(2*pi*1j*k_i/a_i)
    with the principal root.  Each coordinate's a_i branch coordinates are
    computed once and combined in label order; the values come from _values_at,
    as for a tracked set.
    """
    if not line.phi_tail.is_zero():
        raise ValueError("closed-form point set needs an empty tail; use critical_set with a TrackedBatch")
    eps = _check_eps(eps)
    exps = line.a.a
    branch_coord = [
        [(qi * eps) ** (1.0 / ai) * cmath.exp(2j * math.pi * k / ai) for k in range(ai)]
        for qi, ai in zip(line.q, exps)
    ]
    labels = tuple(itertools.product(*[range(ai) for ai in exps]))
    coords = np.array(list(itertools.product(*branch_coord)), dtype=complex)
    result = CriticalPointSet(eps, labels, coords, _values_at(line, eps, coords))
    _validate_set(line, eps, result)
    return result


class _GradientSystem:
    """The parts of a line's gradient system that stay the same along its homotopy.

    gradient holds (i, g) for every nonzero gradient polynomial g of the tail.
    Of the nonzero Hessian entries, the derivatives of those, fixed holds
    (i, j, h) for each constant h and varying (i, j, poly) for the others.
    """

    def __init__(self, line: GenericLine) -> None:
        n = line.n
        self.exps = np.array(line.a.a)
        self.q = np.array(line.q)
        grads = (line.phi_tail.diff(i) for i in range(n))
        self.gradient = [(i, g) for i, g in enumerate(grads) if not g.is_zero()]
        self.fixed, self.varying = [], []
        for (i, g), j in itertools.product(self.gradient, range(n)):
            h = g.diff(j)
            if set(h.terms) == {(0,) * n}:
                self.fixed.append((i, j, h.terms[(0,) * n]))
            elif not h.is_zero():
                self.varying.append((i, j, h))


def _gradient(z: np.ndarray, system: _GradientSystem, eps_q: np.ndarray, eps_s) -> np.ndarray:
    """Gradient of f - eps*phi_0 - eps*s*tail at the points z[..., k, :].

    eps_q holds the rows eps*q and eps_s the products eps*s, both broadcast
    against the point axis: a scalar for one sample, an (S, 1) column for S.
    """
    g = z**system.exps - eps_q
    for i, poly in system.gradient:
        g[..., i] -= eps_s * poly.eval_batch(z)
    return g


def _values_at(line: GenericLine, eps: complex, coords: np.ndarray) -> np.ndarray:
    """Critical values f - eps*phi at the (mu, n) points: the Pham head, then the line's phi."""
    exps = np.array(line.a.a)
    head = (coords ** (exps + 1) / (exps + 1)).sum(axis=1)
    return head - eps * line.phi.eval_batch(coords)


@cache
def _pairs(mu: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the point pairs i < j, in row-major order."""
    return np.triu_indices(mu, 1)


def _pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances between the points coords[..., k, :], one per pair of _pairs.

    |c_i - c_j|^2 is summed one coordinate at a time, left to right: the bits of
    numpy's last-axis sum up to 7 coordinates (from 8 on that sum is pairwise,
    so a distance may differ in its last bit), at a fraction of its cost.
    """
    rows, cols = _pairs(coords.shape[-2])
    squares = np.abs(coords.take(rows, axis=-2) - coords.take(cols, axis=-2)) ** 2
    total = squares[..., 0].copy()
    for i in range(1, coords.shape[-1]):
        total += squares[..., i]
    return np.sqrt(total)


def _validate_set(line: GenericLine, eps: complex, cps: CriticalPointSet) -> None:
    mu = line.a.mu
    if len(cps.labels) != mu or len(set(cps.labels)) != mu:
        raise TrackerError("label set is not an exhaustive enumeration")
    if cps.coords.shape != (mu, line.n) or cps.values.shape != (mu,):
        raise TrackerError(f"point arrays of shapes {cps.coords.shape} and {cps.values.shape} at mu = {mu}")
    for name, array in (("coordinate", cps.coords), ("value", cps.values)):
        finite = np.isfinite(array)
        if not finite.all():
            k = int(np.argmin(finite.reshape(mu, -1).all(axis=1)))
            raise TrackerError(f"non-finite critical {name} at label {cps.labels[k]}")
    residual_bound = GRADIENT_RESIDUAL_COEF * max(1.0, abs(eps))
    system = line._system
    g = _gradient(cps.coords, system, eps * system.q[None, :], eps)
    worst = float(np.sqrt((np.abs(g) ** 2).sum(axis=1)).max())
    # written so that a NaN fails each bound
    if not worst <= residual_bound:
        raise TrackerError(f"gradient residual {worst:.3e} exceeds {residual_bound:.3e}")
    if mu > 1:
        min_dist = float(_pairwise_distances(cps.coords).min())
        if not min_dist >= DISTINCTNESS_FACTOR * residual_bound:
            raise TrackerError(f"points not distinct: min distance {min_dist:.3e}")


def _newton_correct(
    system: _GradientSystem, eps_q: np.ndarray, eps_s: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, list[Optional[NewtonDivergence]]]:
    """Newton-correct the (S, mu, n) points z of S samples at their own eps*q rows and eps*s.

    Each sample iterates until its own step test passes and is then left alone,
    so its rows see the same operations as when corrected by itself.  Returns
    the points (z itself, written in place), stale for a failed sample, and per
    sample None or its error.
    """
    exps = system.exps
    n = len(exps)
    eps_s = eps_s[:, None]
    errors: list[Optional[NewtonDivergence]] = [None] * len(z)
    # za, eps_q and eps_s hold the rows of the samples in active; z is written
    # back and they are gathered anew only when one of those stops
    active = np.arange(len(z))
    za = z
    for _ in range(NEWTON_MAX_ITERATIONS):
        g = _gradient(za, system, eps_q, eps_s)
        jac = np.zeros(za.shape + (n,), dtype=complex)
        for i in range(n):
            jac[..., i, i] = exps[i] * za[..., i] ** (exps[i] - 1)
        for i, j, h in system.fixed:
            jac[..., i, j] -= eps_s * h
        for i, j, poly in system.varying:
            jac[..., i, j] -= eps_s * poly.eval_batch(za)
        solved = True  # or, if some Jacobian is singular, the samples whose one is not
        try:
            delta = np.linalg.solve(jac, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # name the singular samples; every matrix is solved on its own either way
            delta = np.zeros_like(g)
            solved = np.ones(len(active), dtype=bool)
            for m, s in enumerate(active):
                try:
                    delta[m] = np.linalg.solve(jac[m], g[m][..., None])[..., 0]
                except np.linalg.LinAlgError as err:
                    errors[s] = NewtonDivergence(f"singular Jacobian during correction: {err}")
                    solved[m] = False
        za = za - delta
        size = np.abs(za)
        # NaN fails the comparison, and |z| is inf for an infinite part
        inside = size.max(axis=(1, 2)) <= 1.5
        moving = solved & inside
        if moving.all():
            rel = (np.abs(delta) / (1.0 + size)).max(axis=(1, 2))
            if (rel > NEWTON_REL_TOL).all():
                continue  # no sample stops: nothing to write back or gather
        else:
            for s in active[solved & ~inside]:
                errors[s] = NewtonDivergence("iterate left the unit polydisc region")
            rel = (np.abs(delta[moving]) / (1.0 + size[moving])).max(axis=(1, 2))
        keep = np.flatnonzero(moving)[rel > NEWTON_REL_TOL]
        z[active[moving]] = za[moving]
        active = active[keep]
        if not active.size:
            return z, errors
        za, eps_q, eps_s = za[keep], eps_q[keep], eps_s[keep]
    for s in active:
        errors[s] = NewtonDivergence(f"no convergence in {NEWTON_MAX_ITERATIONS} iterations")
    return z, errors


def _predict(ends: list[np.ndarray]) -> np.ndarray:
    """Start of the next Newton correction from the last (up to) three step ends, oldest first.

    The start point itself at step 1, the linear guess 2*z_1 - z_0 at step 2 and
    the quadratic one 3*(z_{k-1} - z_{k-2}) + z_{k-3} from step 3 on, in adds and
    subtracts only.  Each entry depends only on the same entry of each end.
    """
    if len(ends) == 1:
        return ends[0].copy()
    if len(ends) == 2:
        return ends[1] + ends[1] - ends[0]
    d = ends[2] - ends[1]
    return d + d + d + ends[0]


def _run_homotopy(
    line: GenericLine, eps: np.ndarray, start: np.ndarray, steps: int, floor: np.ndarray
) -> tuple[np.ndarray, list[Optional[TrackerError]]]:
    """Step S samples from t = 0 to 1 over a uniform grid of ``steps`` steps.

    floor holds each sample's collision floors in _pairwise_distances order.
    Each step's Newton correction starts from _predict over the sample's own
    step ends.  A sample stops at its first Newton failure or path collision.
    Returns the end points and, per sample, None or the error that stopped it.
    """
    system = line._system
    errors: list[Optional[TrackerError]] = [None] * len(eps)
    eps_q = eps[:, None, None] * system.q
    live = np.arange(len(eps))
    ends = [start]  # the last (up to) three step ends of the live samples, oldest first
    for k in range(1, steps + 1):
        corrected, failures = _newton_correct(system, eps_q[live], eps[live] * (k / steps), _predict(ends))
        ends = ends[-2:] + [corrected]
        if any(failures):
            for s, err in zip(live, failures):
                errors[s] = err
            ok = np.array([err is None for err in failures], dtype=bool)
            live, ends = live[ok], [end[ok] for end in ends]
        dist = _pairwise_distances(ends[-1])
        close = dist < floor[live]
        collided = close.any(axis=1)
        if collided.any():
            rows, cols = _pairs(start.shape[1])
            for m in np.flatnonzero(collided):
                pairs = np.flatnonzero(close[m])
                worst = pairs[int((dist[m, pairs] / floor[live[m], pairs]).argmin())]
                errors[live[m]] = PathCollision(
                    f"points {rows[worst]} and {cols[worst]} collided at homotopy step {k}/{steps}"
                )
            live, ends = live[~collided], [end[~collided] for end in ends]
        if not live.size:
            break
    z = start.copy()  # a stopped sample keeps its start points, which nothing reads
    z[live] = ends[-1]
    return z, errors


def _collision_floor(line: GenericLine, eps: complex, coords0: np.ndarray) -> np.ndarray:
    """Distance per point pair below which tracked paths count as collided.

    Raises TrackerError when the predicted per-step Newton correction is not
    small against the closest pair of start points.
    """
    dist0 = _pairwise_distances(coords0)
    min_gap = float(dist0.min())
    # predicted per-step Newton correction: tail forcing over the diagonal
    # Jacobian scale, divided across the homotopy steps
    basin = 0.0
    for i, g in line._system.gradient:
        ai = line.a.a[i]
        forcing = float(np.abs(g.eval_batch(coords0)).max()) * abs(eps)
        jac_scale = ai * abs(line.q[i] * eps) ** ((ai - 1) / ai)
        basin = max(basin, forcing / jac_scale / DEFAULT_STEPS)
    if min_gap <= 10.0 * basin:
        raise TrackerError(
            f"separable clusters too close for tracking: gap {min_gap:.3e} "
            f"vs predicted step size {basin:.3e}"
        )
    return COLLISION_SHRINK * dist0


class TrackedBatch:
    """The samples of one line after one batched homotopy.

    Maps each sample eps to its labelled start set on the linear part and the
    end points of its paths, or to the error that stopped it.  Every sample
    keeps its own convergence test, divergence check and collision floor, so
    its end points are bit-identical to tracking it alone.  An empty tail
    needs no tracking, so its batch holds nothing.
    """

    def __init__(self, line: GenericLine, eps_samples: Sequence[complex]) -> None:
        self.line = line
        self.outcomes: dict[complex, tuple[CriticalPointSet, np.ndarray] | Exception] = {}
        if line.phi_tail.is_zero():
            return
        linear_part = GenericLine(line.a, line.q, SparsePoly.zero(line.n))
        tracked, starts, floors = [], [], []
        for eps in eps_samples:
            try:
                start = separable_critical_set(linear_part, eps)
                floors.append(_collision_floor(line, start.epsilon, start.coords))
            except (ValueError, TrackerError) as err:
                self.outcomes[eps] = err
                continue
            tracked.append(eps)
            starts.append(start)
        if not tracked:
            return
        # a sample whose paths collide is tracked again from its start points
        # with twice the steps, up to MAX_STEP_DOUBLINGS times; the others are not rerun
        epsilons = np.array([start.epsilon for start in starts])
        coords0 = np.array([start.coords for start in starts])
        floor = np.array(floors)
        pending = np.arange(len(starts))
        for steps in (DEFAULT_STEPS << attempt for attempt in range(MAX_STEP_DOUBLINGS + 1)):
            ends, failures = _run_homotopy(line, epsilons[pending], coords0[pending], steps, floor[pending])
            for s, coords, err in zip(pending, ends, failures):
                self.outcomes[tracked[s]] = err if err is not None else (starts[s], coords)
            pending = pending[[isinstance(err, PathCollision) for err in failures]]
            if not pending.size:
                break


def track_to_phi(batch: TrackedBatch, eps: complex) -> CriticalPointSet:
    """The labelled points of one sample of the batch, tracked from the linear direction to phi.

    The family f - eps*(phi_0 + t*tail) is stepped over a uniform t-grid of
    DEFAULT_STEPS steps with Newton correction of the gradient system; labels
    are inherited from t = 0.  Paths that collide are retracked with doubled
    steps, up to three doublings.  eps must be one of the batch's samples.
    """
    if eps not in batch.outcomes:
        raise ValueError(f"eps {eps} was not tracked in this batch")
    outcome = batch.outcomes[eps]
    if isinstance(outcome, Exception):
        raise outcome
    line = batch.line
    start, coords = outcome
    result = CriticalPointSet(start.epsilon, start.labels, coords, _values_at(line, start.epsilon, coords))
    _validate_set(line, start.epsilon, result)
    return result


def critical_set(batch: TrackedBatch, eps: complex) -> CriticalPointSet:
    """The set at one sample of the batch: closed form for an empty tail, tracked otherwise."""
    if batch.line.phi_tail.is_zero():
        return separable_critical_set(batch.line, eps)
    return track_to_phi(batch, eps)
