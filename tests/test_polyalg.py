"""Polynomial arithmetic and root-finder tests."""

import cmath
import math
import random

import numpy as np
import pytest

from phamlab.polyalg import (
    NonConvergence,
    SparsePoly,
    hessian_det_at,
    univariate_roots,
)


class TestEvaluate:
    def test_square(self):
        p = SparsePoly(1, {(2,): 1.0})
        assert p.evaluate([3.0]) == 9.0

    def test_bilinear(self):
        p = SparsePoly(2, {(1, 1): 1.0})
        assert p.evaluate([2.0, 5j]) == 10j

    def test_empty(self):
        assert SparsePoly.zero(3).evaluate([1.0, 2.0, 3.0]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SparsePoly(2, {(1, 0): 1.0}).evaluate([1.0])

    def test_batch_matches_scalar(self):
        p = SparsePoly(2, {(2, 1): 1.5 - 0.5j, (0, 3): 2.0, (1, 0): -1j})
        pts = np.array([[0.3 + 0.1j, -0.2j], [1.0, 1.0], [0.0, 0.0]])
        batch = p.eval_batch(pts)
        for row, expected in zip(pts, batch):
            assert abs(p.evaluate(list(row)) - expected) < 1e-14


class TestGradient:
    def test_cube(self):
        p = SparsePoly(1, {(3,): 1.0})
        assert p.diff(0) == SparsePoly(1, {(2,): 3.0})

    def test_x2y(self):
        p = SparsePoly(2, {(2, 1): 1.0})
        assert p.diff(0) == SparsePoly(2, {(1, 1): 2.0})
        assert p.diff(1) == SparsePoly(2, {(2, 0): 1.0})

    def test_constant(self):
        p = SparsePoly(2, {(0, 0): 4.0})
        assert p.diff(0).is_zero() and p.diff(1).is_zero()

    def test_linearity(self):
        rng = random.Random(7)
        for _ in range(20):
            def rand_poly():
                terms = {}
                for _ in range(rng.randint(1, 5)):
                    exp = (rng.randint(0, 3), rng.randint(0, 3))
                    terms[exp] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                return SparsePoly(2, terms)

            p, q = rand_poly(), rand_poly()
            for i in range(2):
                assert (p + q).diff(i) == p.diff(i) + q.diff(i)


class TestHessian:
    def test_quartic(self):
        p = SparsePoly(1, {(4,): 0.25})
        r = 0.7 - 0.2j
        assert abs(hessian_det_at(p, [r]) - 3 * r * r) < 1e-15

    def test_round_paraboloid(self):
        p = SparsePoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        assert hessian_det_at(p, [3.0, -1j]) == 4.0

    def test_coupled_saddle(self):
        p = SparsePoly(2, {(4, 0): 0.25, (0, 4): 0.25, (1, 1): 1.0})
        assert hessian_det_at(p, [0.0, 0.0]) == -1.0


class TestJsonLiteral:
    def test_round_trip(self):
        data = {
            "vars": 2,
            "terms": [{"exp": [1, 1], "re": 0.25, "im": 0.0}, {"exp": [2, 0], "re": 0.0, "im": -1.5}],
        }
        assert SparsePoly.from_json_dict(data) == SparsePoly(2, {(1, 1): 0.25 + 0j, (2, 0): -1.5j})

    def test_malformed(self):
        with pytest.raises(ValueError):
            SparsePoly.from_json_dict({"vars": 2})


class TestUnivariateRoots:
    def test_cube_roots_of_unity(self):
        roots = univariate_roots([-1.0, 0.0, 0.0, 1.0])
        assert len(roots) == 3
        for r in roots:
            assert abs(abs(r) - 1.0) < 1e-12
            assert abs(r**3 - 1.0) < 1e-12

    def test_double_root(self):
        roots = univariate_roots([1.0, -2.0, 1.0])
        assert len(roots) == 2
        for r in roots:
            assert abs(r - 1.0) < 1e-5

    def test_small_fifth_roots(self):
        eps = 1e-3
        roots = univariate_roots([-eps, 0, 0, 0, 0, 1.0])
        expected = eps ** (1 / 5)
        for r in roots:
            assert abs(abs(r) - expected) < 1e-12

    def test_linear(self):
        assert univariate_roots([3.0, 6.0]) == [-0.5]

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            univariate_roots([1.0, 2.0, 0.0])

    def test_reconstruction_up_to_degree_30(self):
        rng = random.Random(20240901)
        for degree in (2, 5, 12, 30):
            true_roots = [
                cmath.rect(rng.uniform(0.3, 1.8), rng.uniform(0, 2 * math.pi))
                for _ in range(degree)
            ]
            coeffs = [1.0 + 0j]
            for r in true_roots:
                coeffs = [0j] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] = coeffs[i] - r * coeffs[i + 1]
            found = univariate_roots(coeffs)
            rebuilt = [1.0 + 0j]
            for r in found:
                rebuilt = [0j] + rebuilt
                for i in range(len(rebuilt) - 1):
                    rebuilt[i] = rebuilt[i] - r * rebuilt[i + 1]
            scale = max(abs(x) for x in coeffs)
            for got, want in zip(rebuilt, coeffs):
                assert abs(got - want) <= 1e-9 * scale

    def test_residual_bound_is_enforced(self):
        # residuals at returned roots must satisfy the documented bound
        coeffs = [0.5j, -1.0, 0.0, 2.0, 1.0]
        roots = univariate_roots(coeffs)
        maxc = max(abs(x) for x in coeffs)
        for r in roots:
            value = sum(c * r**k for k, c in enumerate(coeffs))
            assert abs(value) <= 1e-12 * maxc * max(1.0, abs(r)) ** 4

    def test_nonconvergence_carries_residual(self):
        err = NonConvergence("boom", 1.5e-3)
        assert err.residual == 1.5e-3
