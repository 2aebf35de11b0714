"""Tracker tests: closed-form point sets, homotopy tracking, label hierarchy."""

import cmath
import math

import numpy as np
import pytest

from phamlab.closed_forms import ExponentVector
from phamlab.critical_tracker import (
    CriticalPointSet,
    GenericLine,
    TrackerError,
    critical_set,
    default_line,
    jittered_line,
    line_function,
    separable_critical_set,
    track_to_phi,
)
from phamlab.polyalg import SparsePoly, univariate_roots

EPS = 1e-3 * cmath.exp(0.37j)


def residuals(line, cps):
    out = []
    grads = [line.phi().diff(i) for i in range(line.n)]
    for p in cps.points:
        parts = []
        for i, ai in enumerate(line.a):
            parts.append(p.coords[i] ** ai - cps.epsilon * grads[i].evaluate(p.coords))
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
        assert len(cps.points) == 3
        base = EPS ** (1 / 3)
        for k, p in enumerate(cps.points):
            assert p.label == (k,)
            expected_coord = base * cmath.exp(2j * math.pi * k / 3)
            assert abs(p.coords[0] - expected_coord) < 1e-15
            expected_value = -0.75 * EPS * expected_coord
            assert abs(p.value - expected_value) < 1e-18

    def test_morse_point(self):
        line = default_line((1,))
        cps = separable_critical_set(line, 0.004)
        (p,) = cps.points
        assert abs(p.coords[0] - 0.004) < 1e-18
        assert abs(p.value - (-0.004**2 / 2)) < 1e-20

    def test_tensor_product_labels(self):
        line = default_line((3, 3))
        cps = separable_critical_set(line, EPS)
        assert len(cps.points) == 9
        assert sorted(cps.labels()) == [(i, j) for i in range(3) for j in range(3)]
        assert max(residuals(line, cps)) < 1e-11

    def test_rejects_large_eps(self):
        with pytest.raises(ValueError):
            separable_critical_set(default_line((3,)), 0.5)
        with pytest.raises(ValueError):
            separable_critical_set(default_line((3,)), 0.0)

    def test_rejects_tail(self):
        line = default_line((4,), "quadratic_1d")
        with pytest.raises(ValueError):
            separable_critical_set(line, EPS)


class TestTracking:
    def test_empty_tail_short_circuits(self):
        line = default_line((3, 3))
        assert track_to_phi(line, EPS) == separable_critical_set(line, EPS)

    def test_quadratic_displacement_scaling(self):
        # displacement from the linear-direction partner should scale as
        # |eps|^(1/4 + 1/4) for a = (4)
        line = default_line((4,), "quadratic_1d")
        disps = []
        for eps in (EPS, EPS / 4):
            tracked = track_to_phi(line, eps).by_label()
            base = separable_critical_set(default_line((4,)), eps).by_label()
            disps.append(max(abs(tracked[l].coords[0] - base[l].coords[0]) for l in base))
        slope = math.log(disps[0] / disps[1]) / math.log(4)
        assert slope > 0.5 - 0.1
        assert abs(slope - 0.5) < 0.1

    def test_xy_coupled_bijective_labels(self):
        line = default_line((3, 3), "xy_coupled")
        cps = track_to_phi(line, EPS)
        assert sorted(cps.labels()) == [(i, j) for i in range(3) for j in range(3)]
        assert max(residuals(line, cps)) < 1e-11 * max(1.0, abs(EPS))

    def test_coordinate_displacement_exponents(self):
        # per-coordinate displacement decays at least as |eps|^(1/a_i + 1/a_1)
        line = default_line((3, 3), "xy_coupled")
        eps_hi, eps_lo = EPS, EPS / 4
        hi = track_to_phi(line, eps_hi).by_label()
        lo = track_to_phi(line, eps_lo).by_label()
        base_hi = separable_critical_set(default_line((3, 3)), eps_hi).by_label()
        base_lo = separable_critical_set(default_line((3, 3)), eps_lo).by_label()
        for i, ai in enumerate(line.a):
            d_hi = max(abs(hi[l].coords[i] - base_hi[l].coords[i]) for l in hi)
            d_lo = max(abs(lo[l].coords[i] - base_lo[l].coords[i]) for l in lo)
            slope = math.log(d_hi / d_lo) / math.log(4)
            assert slope >= 1 / ai + 1 / line.a[0] - 0.1

    def test_within_collection_differences_preserved(self):
        # tail depending only on the first variable must leave the value
        # differences inside each depth-1 collection untouched
        a = ExponentVector((5, 3))
        tail = SparsePoly(2, {(2, 0): 0.4})
        plain = GenericLine(a, (1.0, 0.3), SparsePoly.zero(2))
        bent = GenericLine(a, (1.0, 0.3), tail)
        flat = separable_critical_set(plain, EPS).by_label()
        curved = track_to_phi(bent, EPS).by_label()
        for k in range(5):
            labels = [(k, l) for l in range(3)]
            for la in labels:
                for lb in labels:
                    if la >= lb:
                        continue
                    d_flat = flat[la].value - flat[lb].value
                    d_curved = curved[la].value - curved[lb].value
                    assert abs(d_flat - d_curved) <= 1e-10 * abs(d_flat)

    def test_precheck_rejects_wild_tail(self):
        a = ExponentVector((3, 3))
        wild = GenericLine(a, (1.0, 0.01), SparsePoly(2, {(1, 1): 80.0}))
        with pytest.raises(TrackerError):
            track_to_phi(wild, 1e-2 * cmath.exp(0.37j))

    def test_critical_set_dispatch(self):
        linear = default_line((3,))
        assert critical_set(linear, EPS) == separable_critical_set(linear, EPS)
        coupled = default_line((3, 3), "xy_coupled")
        assert len(critical_set(coupled, EPS).points) == 9

    def test_tail_differentiated_once_per_line(self, monkeypatch):
        line = default_line((3, 3), "xy_coupled")
        calls = []
        original = SparsePoly.diff

        def counting(poly, var):
            if poly is line.phi_tail:
                calls.append(var)
            return original(poly, var)

        monkeypatch.setattr(SparsePoly, "diff", counting)
        critical_set(line, EPS)
        critical_set(line, EPS / 10)
        assert sorted(calls) == list(range(line.n))


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
        tracked = track_to_phi(default_line((a,), "quadratic_1d"), eps).coords_array()[:, 0]
        roots = np.array(univariate_roots([-eps, -2 * eps] + [0.0] * (a - 2) + [1.0]))
        dist = np.abs(tracked[:, None] - roots[None, :])
        nearest = dist.argmin(axis=1)
        assert sorted(nearest.tolist()) == list(range(a))  # one to one
        assert dist.min(axis=1).max() <= 1e-12
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.diag(np.full(a, np.inf))
        assert gaps.min() > 1e3 * dist.min(axis=1).max()
