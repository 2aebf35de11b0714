"""Polynomial arithmetic and root-finder tests."""

import cmath
import math
import random
import re

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

    def test_batch_takes_any_leading_shape(self):
        p = SparsePoly(2, {(2, 1): 1.5 - 0.5j, (0, 3): 2.0, (1, 0): -1j})
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        flat = p.eval_batch(pts.reshape(-1, 2))
        assert p.eval_batch(pts).shape == (3, 4)
        assert p.eval_batch(pts).tobytes() == flat.tobytes()
        assert p.eval_batch(pts[1, 2]).shape == ()
        assert abs(p.eval_batch(pts[1, 2]) - flat[6]) < 1e-14
        with pytest.raises(ValueError, match=r"\(\.\.\., n_vars\)"):
            p.eval_batch(pts[..., :1])

    def test_single_point_has_the_bits_of_a_batched_point(self):
        # a lone (n,) point once ran numpy's scalar arithmetic, which rounds a
        # complex product unlike the array loop
        rng = np.random.default_rng(11)
        terms = {}
        while len(terms) < 8:
            terms[tuple(int(e) for e in rng.integers(0, 4, size=3))] = complex(*rng.standard_normal(2))
        p = SparsePoly(3, terms)
        points = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
        batched = p.eval_batch(points)
        alone = np.array([p.eval_batch(z) for z in points])
        assert alone.tobytes() == batched.tobytes()
        assert np.array([p.evaluate(z) for z in points]).tobytes() == batched.tobytes()
        assert p.eval_batch(points.reshape(8, 25, 3)).tobytes() == batched.tobytes()

    def test_terms_are_kept_in_ascending_exponent_order(self):
        p = SparsePoly(2, {(2, 1): 1.0, (0, 3): 2.0, (1, 0): 3.0, (0, 0): 0.0})
        assert list(p.terms) == [(0, 3), (1, 0), (2, 1)]
        assert list(SparsePoly(2, {**p.terms, (0, 1): 1.0}).terms) == [(0, 1), (0, 3), (1, 0), (2, 1)]
        assert list(p.diff(0).terms) == [(0, 0), (1, 1)]


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
        def add(p, q):
            merged = dict(p.terms)
            for exp, coef in q.terms.items():
                merged[exp] = merged.get(exp, 0j) + coef
            return SparsePoly(p.n_vars, merged)

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
                assert add(p, q).diff(i) == add(p.diff(i), q.diff(i))


class TestHessian:
    def test_quartic(self):
        p = SparsePoly(1, {(4,): 0.25})
        r = 0.7 - 0.2j
        assert abs(hessian_det_at(p, np.array([[r]]))[0] - 3 * r * r) < 1e-15

    def test_round_paraboloid(self):
        p = SparsePoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        assert hessian_det_at(p, np.array([[3.0, -1j]])) == [4.0]

    def test_coupled_saddle(self):
        p = SparsePoly(2, {(4, 0): 0.25, (0, 4): 0.25, (1, 1): 1.0})
        assert hessian_det_at(p, np.array([[0.0, 0.0]])) == [-1.0]


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

    def test_duplicate_exponent_is_rejected(self):
        # two x*y entries used to overwrite each other silently
        data = {"vars": 2, "terms": [{"exp": [1, 1], "re": 0.15}, {"exp": [1, 1], "re": 0.15}]}
        with pytest.raises(ValueError, match=r"exponent \(1, 1\) is listed twice"):
            SparsePoly.from_json_dict(data)

    @pytest.mark.parametrize("re, im", [(math.nan, 0.0), (math.inf, 0.0), (0.1, -math.inf)])
    def test_non_finite_coefficient_is_rejected(self, re, im):
        data = {"vars": 2, "terms": [{"exp": [1, 0], "re": 1.0}, {"exp": [1, 1], "re": re, "im": im}]}
        with pytest.raises(ValueError, match=r"of exponent \(1, 1\) is not finite"):
            SparsePoly.from_json_dict(data)


    @pytest.mark.parametrize(
        "data, message",
        [
            ({"vars": 2, "terms": [{"exp": [1.7, 1], "re": 1.0}]}, "exponent entry 1.7 is not an integer"),
            ({"vars": 2, "terms": [{"exp": [1, "1"], "re": 1.0}]}, "exponent entry '1' is not an integer"),
            ({"vars": 2, "terms": [{"exp": [False, 1], "re": 1.0}]}, "exponent entry False is not an integer"),
            ({"vars": 2.9, "terms": []}, "variable count 2.9 is not an integer"),
            ({"vars": True, "terms": []}, "variable count True is not an integer"),
        ],
    )
    def test_non_integer_is_rejected_not_truncated(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SparsePoly.from_json_dict(data)

    @pytest.mark.parametrize(
        "term, message",
        [
            ({"exp": [1, 1], "re": True}, "real part True is not a number"),
            ({"exp": [1, 1], "re": "0.5"}, "real part '0.5' is not a number"),
            ({"exp": [1, 1], "re": 1.0, "im": "0"}, "imaginary part '0' is not a number"),
            ({"exp": [1, 1], "re": 1.0, "im": False}, "imaginary part False is not a number"),
            ({"exp": [1, 1], "re": None}, "real part None is not a number"),
        ],
    )
    def test_non_number_coefficient_is_rejected(self, term, message):
        # float() read true as 1.0 and "0.5" as 0.5
        with pytest.raises(ValueError, match=re.escape(message)):
            SparsePoly.from_json_dict({"vars": 2, "terms": [term]})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_huge_integer_coefficient_is_not_finite(self, sign):
        # float() raised "int too large to convert to float", naming neither the term nor the value
        data = {"vars": 2, "terms": [{"exp": [1, 1], "re": sign * 10**400}]}
        coef = "(inf+0j)" if sign > 0 else "(-inf+0j)"
        with pytest.raises(ValueError, match=re.escape(f"coefficient {coef} of exponent (1, 1) is not finite")):
            SparsePoly.from_json_dict(data)

    def test_integer_coefficient_is_a_number(self):
        data = {"vars": 1, "terms": [{"exp": [1], "re": 2, "im": -1}]}
        assert SparsePoly.from_json_dict(data) == SparsePoly(1, {(1,): 2 - 1j})


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
