"""Tracker tests: closed-form point sets, homotopy tracking, label hierarchy."""

import cmath
import itertools
import math
import re

import numpy as np
import pytest

from phamlab import critical_tracker
from phamlab.closed_forms import ExponentVector
from phamlab.critical_tracker import (
    COLLISION_SHRINK,
    DEFAULT_STEPS,
    MAX_STEP_DOUBLINGS,
    NEWTON_MAX_ITERATIONS,
    NEWTON_REL_TOL,
    CriticalPointSet,
    GenericLine,
    NewtonDivergence,
    PathCollision,
    TrackedBatch,
    TrackerError,
    critical_set,
    default_line,
    jittered_line,
    line_function,
    separable_critical_set,
    track_to_phi,
)
from phamlab.degree_lab import EpsilonGrid
from phamlab.polyalg import SparsePoly, univariate_roots

EPS = 1e-3 * cmath.exp(0.37j)


def _tracked_sets(line, samples):
    """critical_set at every sample, all tracked in one batch."""
    batch = TrackedBatch(line, samples)
    return [critical_set(batch, eps) for eps in samples]


def _alone(line, eps):
    """The critical set of one sample, tracked in a batch of its own."""
    return critical_set(TrackedBatch(line, [eps]), eps)


def bits(cps):
    """A set's eps, labels and the exact bytes of its coordinate and value arrays."""
    return cps.epsilon, cps.labels, cps.coords.tobytes(), cps.values.tobytes()


def by_label(cps):
    """Each label's coordinate row and critical value."""
    return {label: (z, v) for label, z, v in zip(cps.labels, cps.coords, cps.values.tolist())}


def residuals(line, cps):
    out = []
    grads = [line.phi.diff(i) for i in range(line.n)]
    for coords in cps.coords:
        parts = []
        for i, ai in enumerate(line.a):
            parts.append(coords[i] ** ai - cps.epsilon * grads[i].evaluate(coords))
        out.append(math.sqrt(sum(abs(x) ** 2 for x in parts)))
    return out


class TestDefaultLine:
    def test_strict_decrease_ladder(self):
        line = default_line((5, 3))
        assert line.q == (1.0, 0.3)
        assert line.phi_tail.is_zero()

    def test_equality_ladder(self):
        line = default_line((3, 3))
        assert line.q == (1.0, 0.01)

    def test_xy_coupled_needs_two_vars(self):
        with pytest.raises(ValueError):
            default_line((4,), "xy_coupled")

    def test_quadratic_needs_one_var(self):
        with pytest.raises(ValueError):
            default_line((3, 3), "quadratic_1d")

    def test_quadratic_tail(self):
        line = default_line((4,), "quadratic_1d")
        assert line.phi_tail == SparsePoly(1, {(2,): 1.0})

    def test_xy_tail_scaled_by_q2(self):
        line = default_line((3, 3), "xy_coupled")
        assert line.phi_tail.terms == {(1, 1): complex(line.q[1])}

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            default_line((3,), "cubic")


class TestGenericLineInvariants:
    def test_q1_must_be_one(self):
        with pytest.raises(ValueError):
            GenericLine(ExponentVector((3, 3)), (0.5, 0.005), SparsePoly.zero(2))

    def test_equality_needs_small_ratio(self):
        with pytest.raises(ValueError):
            GenericLine(ExponentVector((3, 3)), (1.0, 0.5), SparsePoly.zero(2))

    def test_tail_must_sit_in_box(self):
        with pytest.raises(ValueError):
            GenericLine(ExponentVector((3,)), (1.0,), SparsePoly(1, {(3,): 1.0}))

    def test_tail_must_be_nonlinear(self):
        with pytest.raises(ValueError):
            GenericLine(ExponentVector((3, 3)), (1.0, 0.01), SparsePoly(2, {(1, 0): 0.5}))

    def test_jitter_is_deterministic_and_valid(self):
        line = default_line((5, 3, 3))
        j1 = jittered_line(line, 42)
        j2 = jittered_line(line, 42)
        assert j1.q == j2.q
        assert j1.q != line.q
        # a second seed moves differently
        assert jittered_line(line, 43).q != j1.q


class TestVersalBox:
    def test_accepts_box_interior(self):
        line = GenericLine(ExponentVector((3, 3)), (1.0, 0.01), SparsePoly(2, {(2, 1): 1.0}))
        assert line.phi_tail.terms == {(2, 1): 1.0}

    def test_rejects_constant(self):
        with pytest.raises(ValueError, match="constant term not allowed inside the versal box"):
            GenericLine(ExponentVector((3,)), (1.0,), SparsePoly(1, {(0,): 1.0}))

    def test_rejects_outside(self):
        with pytest.raises(ValueError, match=r"exponent \(3, 0\) outside the versal box \(3, 3\)"):
            GenericLine(ExponentVector((3, 3)), (1.0, 0.01), SparsePoly(2, {(3, 0): 1.0}))


class TestSeparable:
    def test_cubic_radii_and_values(self):
        line = default_line((3,))
        cps = separable_critical_set(line, EPS)
        assert len(cps.labels) == 3
        base = EPS ** (1 / 3)
        for k, (label, coords, value) in enumerate(zip(cps.labels, cps.coords, cps.values)):
            assert label == (k,)
            expected_coord = base * cmath.exp(2j * math.pi * k / 3)
            assert abs(coords[0] - expected_coord) < 1e-15
            expected_value = -0.75 * EPS * expected_coord
            assert abs(value - expected_value) < 1e-18

    def test_morse_point(self):
        line = default_line((1,))
        cps = separable_critical_set(line, 0.004)
        ((coords,), (value,)) = cps.coords, cps.values
        assert abs(coords[0] - 0.004) < 1e-18
        assert abs(value - (-0.004**2 / 2)) < 1e-20

    def test_tensor_product_labels(self):
        line = default_line((3, 3))
        cps = separable_critical_set(line, EPS)
        assert len(cps.labels) == 9
        assert sorted(cps.labels) == [(i, j) for i in range(3) for j in range(3)]
        assert max(residuals(line, cps)) < 1e-11

    def test_rejects_large_eps(self):
        with pytest.raises(ValueError):
            separable_critical_set(default_line((3,)), 0.5)
        with pytest.raises(ValueError):
            separable_critical_set(default_line((3,)), 0.0)

    @pytest.mark.parametrize(
        "eps", [complex(math.nan, math.nan), complex(math.inf, 0.0), complex(1e-3, math.nan)]
    )
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            separable_critical_set(default_line((3,)), eps)
        with pytest.raises(ValueError, match="eps must be finite"):
            _tracked_sets(default_line((3, 3), "xy_coupled"), [EPS, eps])

    def test_rejects_tail(self):
        line = default_line((4,), "quadratic_1d")
        with pytest.raises(ValueError):
            separable_critical_set(line, EPS)


class TestPointArrays:
    @pytest.mark.parametrize("preset", ["linear", "xy_coupled"])
    def test_fields_are_aligned_and_read_only(self, preset):
        cps = _alone(default_line((3, 3), preset), EPS)
        assert cps.labels == tuple(itertools.product(range(3), range(3)))
        assert cps.coords.shape == (9, 2) and cps.coords.dtype == complex
        assert cps.values.shape == (9,) and cps.values.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            cps.coords[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            cps.values[0] = 0

    def test_validator_checks_the_array_shapes(self):
        line = default_line((3, 3))
        cps = separable_critical_set(line, EPS)
        clipped = CriticalPointSet(cps.epsilon, cps.labels, cps.coords[:, :1], cps.values)
        with pytest.raises(TrackerError, match=r"point arrays of shapes \(9, 1\) and \(9,\)"):
            critical_tracker._validate_set(line, EPS, clipped)
        repeated = CriticalPointSet(cps.epsilon, cps.labels[:8] + cps.labels[:1], cps.coords, cps.values)
        with pytest.raises(TrackerError, match="not an exhaustive enumeration"):
            critical_tracker._validate_set(line, EPS, repeated)

    @pytest.mark.parametrize("preset", ["linear", "xy_coupled"])
    def test_validator_rejects_non_finite_points(self, preset):
        line = default_line((3, 3), preset)
        cps = _alone(line, EPS)
        for field, k in (("coordinate", 4), ("value", 7)):
            coords, values = cps.coords.copy(), cps.values.copy()
            if field == "coordinate":
                coords[k, 1] = complex(math.nan, 0.0)
            else:
                values[k] = complex(0.0, math.inf)
            broken = CriticalPointSet(cps.epsilon, cps.labels, coords, values)
            label = re.escape(str(cps.labels[k]))
            with pytest.raises(TrackerError, match=f"non-finite critical {field} at label {label}"):
                critical_tracker._validate_set(line, EPS, broken)
        # a NaN in both arrays, as one NaN coordinate and its value would read
        coords, values = cps.coords.copy(), cps.values.copy()
        coords[0, 0] = values[0] = complex(math.nan, math.nan)
        with pytest.raises(TrackerError, match=r"non-finite critical coordinate at label \(0, 0\)"):
            critical_tracker._validate_set(line, EPS, CriticalPointSet(cps.epsilon, cps.labels, coords, values))


class TestTracking:
    def test_quadratic_displacement_scaling(self):
        # displacement from the linear-direction partner should scale as
        # |eps|^(1/4 + 1/4) for a = (4)
        line = default_line((4,), "quadratic_1d")
        disps = []
        for eps in (EPS, EPS / 4):
            tracked = by_label(_alone(line, eps))
            base = by_label(separable_critical_set(default_line((4,)), eps))
            disps.append(max(abs(tracked[l][0][0] - base[l][0][0]) for l in base))
        slope = math.log(disps[0] / disps[1]) / math.log(4)
        assert slope > 0.5 - 0.1
        assert abs(slope - 0.5) < 0.1

    def test_xy_coupled_bijective_labels(self):
        line = default_line((3, 3), "xy_coupled")
        cps = _alone(line, EPS)
        assert sorted(cps.labels) == [(i, j) for i in range(3) for j in range(3)]
        assert max(residuals(line, cps)) < 1e-11 * max(1.0, abs(EPS))

    def test_coordinate_displacement_exponents(self):
        # per-coordinate displacement decays at least as |eps|^(1/a_i + 1/a_1)
        line = default_line((3, 3), "xy_coupled")
        eps_hi, eps_lo = EPS, EPS / 4
        hi = by_label(_alone(line, eps_hi))
        lo = by_label(_alone(line, eps_lo))
        base_hi = by_label(separable_critical_set(default_line((3, 3)), eps_hi))
        base_lo = by_label(separable_critical_set(default_line((3, 3)), eps_lo))
        for i, ai in enumerate(line.a):
            d_hi = max(abs(hi[l][0][i] - base_hi[l][0][i]) for l in hi)
            d_lo = max(abs(lo[l][0][i] - base_lo[l][0][i]) for l in lo)
            slope = math.log(d_hi / d_lo) / math.log(4)
            assert slope >= 1 / ai + 1 / line.a[0] - 0.1

    def test_within_collection_differences_preserved(self):
        # tail depending only on the first variable must leave the value
        # differences inside each depth-1 collection untouched
        a = ExponentVector((5, 3))
        tail = SparsePoly(2, {(2, 0): 0.4})
        plain = GenericLine(a, (1.0, 0.3), SparsePoly.zero(2))
        bent = GenericLine(a, (1.0, 0.3), tail)
        flat = by_label(separable_critical_set(plain, EPS))
        curved = by_label(_alone(bent, EPS))
        for k in range(5):
            labels = [(k, l) for l in range(3)]
            for la in labels:
                for lb in labels:
                    if la >= lb:
                        continue
                    d_flat = flat[la][1] - flat[lb][1]
                    d_curved = curved[la][1] - curved[lb][1]
                    assert abs(d_flat - d_curved) <= 1e-10 * abs(d_flat)

    def test_precheck_rejects_wild_tail(self):
        a = ExponentVector((3, 3))
        wild = GenericLine(a, (1.0, 0.01), SparsePoly(2, {(1, 1): 80.0}))
        with pytest.raises(TrackerError):
            _alone(wild, 1e-2 * cmath.exp(0.37j))

    def test_critical_set_dispatch(self):
        linear = default_line((3,))
        assert bits(_alone(linear, EPS)) == bits(separable_critical_set(linear, EPS))
        assert not TrackedBatch(linear, [EPS]).outcomes  # an empty tail is not tracked
        coupled = default_line((3, 3), "xy_coupled")
        assert len(_alone(coupled, EPS).labels) == 9

    def test_tail_differentiated_once_per_line(self, monkeypatch):
        line = default_line((3, 3), "xy_coupled")
        calls = []
        original = SparsePoly.diff

        def counting(poly, var):
            if poly is line.phi_tail:
                calls.append(var)
            return original(poly, var)

        monkeypatch.setattr(SparsePoly, "diff", counting)
        _alone(line, EPS)
        _alone(line, EPS / 10)
        assert sorted(calls) == list(range(line.n))

    def test_hessian_taken_of_nonzero_gradients_only(self, monkeypatch):
        # a tail in the first variable alone, so one of its n gradients is zero
        line = GenericLine(ExponentVector((5, 3)), (1.0, 0.3), SparsePoly(2, {(2, 0): 0.4}))
        calls = []
        original = SparsePoly.diff

        def counting(poly, var):
            calls.append(var)
            return original(poly, var)

        monkeypatch.setattr(SparsePoly, "diff", counting)
        _alone(line, EPS)
        # the empty tail of the linear start: n gradients and no Hessian entry;
        # the tail: n gradients, then the n entries of the one nonzero Hessian row
        assert calls == [0, 1] + [0, 1, 0, 1]


class TestIterationBudget:
    """The predictor keeps a default-grid batch near two Newton iterations per step."""

    @pytest.mark.parametrize(
        "exps, preset", [((5, 3), "xy_coupled"), ((7, 5), "xy_coupled"), ((8,), "quadratic_1d")]
    )
    def test_batched_solves_per_step(self, monkeypatch, exps, preset):
        solve = np.linalg.solve
        calls = []

        def counting(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        batch = TrackedBatch(default_line(exps, preset), EpsilonGrid().samples())
        assert not any(isinstance(outcome, Exception) for outcome in batch.outcomes.values())
        # every call solves a stack of samples: no Jacobian was singular
        assert all(len(shape) == 4 for shape in calls)
        # 4 solves per step without the predictor (128 in all), 92 to 97 with it
        assert len(calls) <= 3.25 * DEFAULT_STEPS


class TestLineFunction:
    def test_matches_manual_composition(self):
        line = default_line((3, 3), "xy_coupled")
        eps = EPS
        p = line_function(line, eps)
        z = [0.05 + 0.02j, -0.03j]
        manual = (
            z[0] ** 4 / 4
            + z[1] ** 4 / 4
            - eps * (z[0] + line.q[1] * z[1] + line.q[1] * z[0] * z[1])
        )
        assert abs(p.evaluate(z) - manual) < 1e-16


class TestRootFinderOracle:
    """Tracked points for one variable against the roots of the gradient.

    With quadratic_1d the gradient of f - eps*phi is z^a - eps*(1 + 2z); its
    roots come from univariate_roots, which shares no code with the tracker.
    """

    @pytest.mark.parametrize("a", [4, 6, 8])
    @pytest.mark.parametrize("magnitude", [1e-2, 1e-3, 1e-4])
    def test_tracked_points_are_the_gradient_roots(self, a, magnitude):
        eps = magnitude * cmath.exp(0.37j)
        tracked = _alone(default_line((a,), "quadratic_1d"), eps).coords[:, 0]
        roots = np.array(univariate_roots([-eps, -2 * eps] + [0.0] * (a - 2) + [1.0]))
        dist = np.abs(tracked[:, None] - roots[None, :])
        nearest = dist.argmin(axis=1)
        assert sorted(nearest.tolist()) == list(range(a))  # one to one
        assert dist.min(axis=1).max() <= 1e-12
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.diag(np.full(a, np.inf))
        assert gaps.min() > 1e3 * dist.min(axis=1).max()


# -- reference: the per-sample tracker loop that batched tracking must match bit for bit --


def _reference_derivatives(line):
    """Gradient and Hessian polynomials of the tail, differentiated here and not by the tracker."""
    grads = [line.phi_tail.diff(i) for i in range(line.n)]
    return grads, [[g.diff(j) for j in range(line.n)] for g in grads]


def _reference_gradient(z, exps, eps_q, eps_s, grads):
    g = z**exps - eps_q
    for i, grad in enumerate(grads):
        if not grad.is_zero():
            g[:, i] -= eps_s * grad.eval_batch(z)
    return g


def _reference_distances(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((np.abs(diff) ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return dist


def _reference_newton(line, eps, s, coords):
    grads, hessians = _reference_derivatives(line)
    exps = np.array(line.a.a)
    eps_q = eps * np.array(line.q)[None, :]
    eps_s = eps * s
    n = line.n
    mu = coords.shape[0]
    z = coords.copy()
    for _ in range(NEWTON_MAX_ITERATIONS):
        g = _reference_gradient(z, exps, eps_q, eps_s, grads)
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


def _reference_guess(ends):
    """The predictor: start point, then linear, then quadratic extrapolation of the step ends."""
    if len(ends) == 1:
        return ends[0]
    if len(ends) == 2:
        return ends[1] + ends[1] - ends[0]
    d = ends[2] - ends[1]
    return d + d + d + ends[0]


def _reference_homotopy(line, eps, start, steps, floor):
    ends = [start]
    for k in range(1, steps + 1):
        z = _reference_newton(line, eps, k / steps, _reference_guess(ends))
        ends = ends[-2:] + [z]
        dist = _reference_distances(z)
        if (dist < floor).any():
            i, j = np.unravel_index(int((dist / floor).argmin()), dist.shape)
            raise PathCollision(f"points {i} and {j} collided at homotopy step {k}/{steps}")
    return z


def _reference_track(line, eps):
    linear_part = GenericLine(line.a, line.q, SparsePoly.zero(line.n))
    start = separable_critical_set(linear_part, eps)
    eps = complex(eps)
    coords0 = start.coords
    mu = coords0.shape[0]
    if mu > 1:
        dist0 = _reference_distances(coords0)
        min_gap = float(dist0.min())
        grads, _ = _reference_derivatives(line)
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
    last_error = None
    coords = None
    for attempt in range(MAX_STEP_DOUBLINGS + 1):
        try:
            coords = _reference_homotopy(line, eps, coords0, DEFAULT_STEPS << attempt, floor)
            break
        except PathCollision as err:
            last_error = err
    if coords is None:
        raise last_error
    values = critical_tracker._values_at(line, eps, coords)
    result = CriticalPointSet(eps, start.labels, coords, values)
    critical_tracker._validate_set(line, eps, result)
    return result


def _failure(call):
    try:
        call()
    except (ValueError, TrackerError) as err:
        return type(err), str(err)
    return None


GRIDS = {
    "default": EpsilonGrid(),
    "deep": EpsilonGrid(start=1e-3, count=9),
    "phase": EpsilonGrid(phase=0.5),
}


class TestBatchedTracking:
    """Batched tracking against tracking each sample alone with the reference loop."""

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize(
        "exps, preset, jitter",
        [
            ((3, 2), "xy_coupled", None),
            ((3, 2), "xy_coupled", 7),
            ((5, 3), "xy_coupled", None),
            ((5, 3), "xy_coupled", 7),
            ((7, 5), "xy_coupled", None),
            ((7, 5), "xy_coupled", 7),
            ((4,), "quadratic_1d", None),
            ((8,), "quadratic_1d", None),
        ],
    )
    def test_sets_bit_identical_to_one_at_a_time(self, exps, preset, jitter, grid):
        line = default_line(exps, preset)
        if jitter is not None:
            line = jittered_line(line, jitter)
        samples = GRIDS[grid].samples()
        assert list(map(bits, _tracked_sets(line, samples))) == [
            bits(_reference_track(line, eps)) for eps in samples
        ]

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize(
        "exps, q, tail",
        [
            # Hessian entries 2*0.2*y + 2*0.5 and 2*0.2*x + 0.3: varying, with a constant term
            ((5, 3), (1.0, 0.3), {(2, 1): 0.2, (2, 0): 0.5, (1, 1): 0.3}),
            # the tail of the --phi-json golden: every nonzero Hessian entry varies
            ((3, 3, 3), (1.0, 0.01, 0.0001), {(1, 1, 1): 0.003, (2, 1, 0): 0.002}),
        ],
    )
    def test_varying_hessian_entries_bit_identical_to_one_at_a_time(self, exps, q, tail, grid):
        line = GenericLine(ExponentVector(exps), q, SparsePoly(len(exps), tail))
        samples = GRIDS[grid].samples()
        assert list(map(bits, _tracked_sets(line, samples))) == [
            bits(_reference_track(line, eps)) for eps in samples
        ]

    @pytest.mark.parametrize("coefficient, ascending", [(80.0, False), (80.0, True), (2.0, True)])
    def test_first_failing_sample_raises(self, coefficient, ascending):
        # the wild tail of test_precheck_rejects_wild_tail fails the precheck at
        # every sample; the milder one only at |eps| >= 1e-3, so ascending, four
        # samples are tracked before the first failure
        a = ExponentVector((3, 3))
        wild = GenericLine(a, (1.0, 0.01), SparsePoly(2, {(1, 1): coefficient}))
        samples = EpsilonGrid().samples()
        if ascending:
            samples = samples[::-1]

        def one_at_a_time():
            for eps in samples:
                _reference_track(wild, eps)

        expected = _failure(one_at_a_time)
        assert expected is not None
        assert _failure(lambda: _tracked_sets(wild, samples)) == expected

    def test_batch_serves_only_its_own_samples(self):
        line = default_line((3, 3), "xy_coupled")
        batch = TrackedBatch(line, [EPS, EPS / 10])
        assert bits(track_to_phi(batch, EPS / 10)) == bits(_alone(line, EPS / 10))
        assert bits(critical_set(batch, EPS)) == bits(_reference_track(line, EPS))
        with pytest.raises(ValueError, match="not tracked in this batch"):
            track_to_phi(batch, EPS / 100)

    def test_empty_tail_names_the_closed_form(self):
        line = default_line((3, 3))
        batch = TrackedBatch(line, [EPS])
        with pytest.raises(ValueError, match="empty tail.*critical_set"):
            track_to_phi(batch, EPS)
        assert bits(critical_set(batch, EPS)) == bits(separable_critical_set(line, EPS))

    def test_linear_line_uses_closed_forms(self):
        line = default_line((5, 3))
        samples = EpsilonGrid().samples()
        assert list(map(bits, _tracked_sets(line, samples))) == [
            bits(separable_critical_set(line, eps)) for eps in samples
        ]

    def test_collision_names_two_distinct_points(self, monkeypatch):
        # a floor above every start distance collides at the first step of every attempt
        monkeypatch.setattr(critical_tracker, "COLLISION_SHRINK", 2.0)
        line = default_line((3, 3), "xy_coupled")
        with pytest.raises(PathCollision) as info:
            _tracked_sets(line, [EPS, EPS / 10])
        steps = DEFAULT_STEPS << MAX_STEP_DOUBLINGS
        pattern = rf"points (\d+) and (\d+) collided at homotopy step 1/{steps}"
        i, j = re.fullmatch(pattern, str(info.value)).groups()
        assert i != j


def _outcome(call):
    """The bits of the set a call returns, or the type and message of its error."""
    try:
        return bits(call())
    except (ValueError, TrackerError) as err:
        return type(err), str(err)


def _failing_solve(mode, threshold):
    """np.linalg.solve, broken for the Jacobians whose |entry (0, 1)| exceeds threshold.

    On an xy_coupled line that entry is -eps*s*q_2, the same for every point
    of a sample, so a sample is broken from the homotopy step where
    |eps|*s*q_2 first exceeds threshold on, stacked or alone.
    """
    solve = np.linalg.solve

    def broken(a, b):
        hit = np.abs(a[..., 0, 1]) > threshold
        if mode == "singular" and hit.any():
            raise np.linalg.LinAlgError("Singular matrix")
        x = solve(a, b)
        if mode == "far":
            x[hit] += 10.0
        elif mode == "nan":
            x[hit] = np.nan
        elif mode == "slow":
            x[hit] *= 0.01
        return x

    return broken


class TestBatchedNewtonFailures:
    """Samples that fail inside Newton correction next to samples that do not."""

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("singular", "singular Jacobian during correction: Singular matrix"),
            ("far", "iterate left the unit polydisc region"),
            ("nan", "iterate left the unit polydisc region"),
            ("slow", f"no convergence in {NEWTON_MAX_ITERATIONS} iterations"),
        ],
    )
    @pytest.mark.parametrize("exps, jitter", [((3, 3), None), ((5, 3), 7)])
    def test_each_sample_gets_what_it_gets_alone(self, monkeypatch, mode, message, exps, jitter):
        line = default_line(exps, "xy_coupled")
        if jitter is not None:
            line = jittered_line(line, jitter)
        # breaks |eps| = 1e-2 from s > 1/4 and |eps| = 10^-2.5 from s > 0.79 on
        monkeypatch.setattr(np.linalg, "solve", _failing_solve(mode, 0.25e-2 * line.q[1]))
        samples = EpsilonGrid().samples()
        batch = TrackedBatch(line, samples)
        got = [_outcome(lambda: critical_set(batch, eps)) for eps in samples]
        alone = [_outcome(lambda: _reference_track(line, eps)) for eps in samples]
        assert got == alone
        assert got[:2] == [(NewtonDivergence, message)] * 2
        assert all(isinstance(outcome[2], bytes) for outcome in got[2:])
