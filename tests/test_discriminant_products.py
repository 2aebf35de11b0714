"""Product-evaluation tests: hand enumerations, symmetries, structural zeros."""

import cmath
import itertools
import math
import random

import pytest

from phamlab import discriminant_products
from phamlab.closed_forms import binom12, binom22
from phamlab.critical_tracker import critical_set, default_line, line_function
from phamlab.degree_lab import verify_all
from phamlab.discriminant_products import (
    ZERO_COEF,
    Kind,
    LogProduct,
    evaluate_trace,
    factor_count,
    log_D,
    log_hessian_product,
    log_Omega,
    log_Y,
    products_at,
)

EPS = 1e-3 * cmath.exp(0.37j)


class TestLogD:
    def test_single_value_empty_product(self):
        result = log_D([0j])
        assert result.total == 0.0
        assert result.factors == ()

    def test_three_values_hand_enumeration(self):
        result = log_D([0j, 1 + 0j, -1 + 0j])
        assert len(result.factors) == 6
        mags = sorted(math.exp(f.log_magnitude) for f in result.factors)
        assert mags == pytest.approx([1, 1, 1, 1, 2, 2])
        assert result.total == pytest.approx(2 * math.log(2))

    def test_duplicate_gives_exact_zero(self):
        result = log_D([1 + 0j, 1 + 0j, 2 + 0j])
        assert result.has_zero
        assert result.zero_count == 2  # both orders of the equal pair


class TestLogY:
    def test_arithmetic_progression_zero(self):
        result = log_Y([0j, 1 + 0j, 2 + 0j])
        assert len(result.factors) == 3
        assert result.zero_count == 1
        nonzero = sorted(math.exp(f.log_magnitude) for f in result.factors if not f.is_zero)
        assert nonzero == pytest.approx([3, 3])

    def test_two_values_empty(self):
        result = log_Y([1j, 2j])
        assert result.factors == ()
        assert result.total == 0.0

    def test_scaling_homogeneity(self):
        mu = 5
        values = [cmath.exp(2j * math.pi * k / mu) for k in range(mu)]
        c = 0.013 - 0.007j
        base = log_Y(values)
        scaled = log_Y([c * v for v in values])
        shift = binom12(mu) * math.log(abs(c))
        assert abs(scaled.total - (base.total + shift)) <= 1e-10 * abs(base.total + shift) + 1e-12


class TestLogOmega:
    def test_parallelogram_zero(self):
        c = 0.3 + 0.4j
        result = log_Omega([1 + 0j, -1 + 0j, c, -c])
        assert result.has_zero

    def test_three_values_empty(self):
        assert log_Omega([0j, 1j, 2j]).factors == ()

    def test_hand_enumeration_0124(self):
        result = log_Omega([0j, 1 + 0j, 2 + 0j, 4 + 0j])
        assert len(result.factors) == binom22(4) == 6
        mags = sorted(math.exp(f.log_magnitude) for f in result.factors)
        assert mags == pytest.approx([1, 1, 3, 3, 5, 5])
        assert result.total == pytest.approx(2 * math.log(15))

    def test_pair_order_symmetry(self):
        values = [0.1 + 0.9j, -0.4j, 0.7 + 0j, 0.2 - 0.3j, -0.6 + 0.1j]
        result = log_Omega(values)
        by_indices = {f.indices: f.log_magnitude for f in result.factors}
        for (i, j, k, l), mag in by_indices.items():
            assert by_indices[(k, l, i, j)] == mag


class TestTranslationInvariance:
    def test_bitwise_for_exact_inputs(self):
        # integer-valued data stays exact under an integer shift, so every
        # factor must agree bit for bit
        values = [complex(3, -2), complex(-5, 7), complex(11, 0), complex(0, -6), complex(2, 2)]
        shift = complex(1009, -97)
        shifted = [v + shift for v in values]
        for op in (log_D, log_Y, log_Omega):
            base = op(values)
            moved = op(shifted)
            assert [f.log_magnitude for f in base.factors] == [
                f.log_magnitude for f in moved.factors
            ]
            assert base.total == moved.total


class TestFactorCounts:
    @pytest.mark.parametrize("mu", [1, 2, 3, 4, 5, 9])
    def test_counts(self, mu):
        values = [complex(k, k * k % 7) for k in range(mu)]
        assert len(log_D(values).factors) == factor_count(Kind.D_PAIR, mu) == mu * (mu - 1)
        assert len(log_Y(values).factors) == factor_count(Kind.Y_TRIPLE, mu) == binom12(mu)
        assert len(log_Omega(values).factors) == factor_count(Kind.OMEGA_QUAD, mu) == binom22(mu)


class TestHessianProduct:
    def test_cubic_slope_two(self):
        line = default_line((3,))
        totals = []
        mags = (1e-3, 1e-4)
        for mag in mags:
            eps = mag * cmath.exp(0.37j)
            pts = critical_set(line, eps)
            result = log_hessian_product(line_function(line, eps), pts)
            assert len(result.factors) == 3
            # product over the three branches of |3 z^2| is 27 |eps|^2
            assert result.total == pytest.approx(math.log(27 * mag**2), abs=1e-9)
            totals.append(result.total)
        slope = (totals[1] - totals[0]) / (math.log(mags[1]) - math.log(mags[0]))
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_morse_constant(self):
        line = default_line((1,))
        pts = critical_set(line, 0.004)
        result = log_hessian_product(line_function(line, 0.004), pts)
        assert result.total == pytest.approx(0.0, abs=1e-12)


class TestProductsAt:
    def test_kinds_and_counts(self):
        line = default_line((3, 3))
        out = products_at(line, EPS, list(Kind))
        for kind in Kind:
            assert len(out[kind].factors) == factor_count(kind, 9)

    def test_trace_alignment(self):
        line = default_line((3,))
        mags = [1e-3, 10**-3.5, 1e-4]
        trace = evaluate_trace(line, [m * cmath.exp(0.37j) for m in mags], [Kind.D_PAIR])
        assert [len(s[Kind.D_PAIR].logs) for s in trace.samples] == [6, 6, 6]
        first = trace.samples[0][Kind.D_PAIR].factors
        last = trace.samples[-1][Kind.D_PAIR].factors
        assert [f.indices for f in first] == [f.indices for f in last]
        # exact monomial behavior at one variable: constant slope 8
        totals = trace.totals(Kind.D_PAIR)
        s01 = (totals[1] - totals[0]) / (math.log(mags[1]) - math.log(mags[0]))
        s12 = (totals[2] - totals[1]) / (math.log(mags[2]) - math.log(mags[1]))
        assert s01 == pytest.approx(8.0, abs=1e-9)
        assert s12 == pytest.approx(8.0, abs=1e-9)


def reference_products(values):
    """Scalar loops over the tuples: (indices, log|factor| or None) per factor."""
    mu = len(values)
    threshold = ZERO_COEF * max((abs(v) for v in values), default=0.0)

    def record(indices, factor):
        magnitude = abs(factor)
        return indices, (None if magnitude <= threshold else math.log(magnitude))

    pairs = [
        record((i, j), values[i] - values[j]) for i in range(mu) for j in range(mu) if i != j
    ]
    triples = [
        record((i, j, k), 2 * values[i] - values[j] - values[k])
        for i in range(mu)
        for j, k in itertools.combinations([x for x in range(mu) if x != i], 2)
    ]
    quads, forward = [], {}
    couples = list(itertools.combinations(range(mu), 2))
    for p1 in couples:
        for p2 in couples:
            if set(p1) & set(p2):
                continue
            if p1 < p2:
                forward[p1, p2] = values[p1[0]] + values[p1[1]] - values[p2[0]] - values[p2[1]]
                quads.append(record(p1 + p2, forward[p1, p2]))
            else:
                quads.append(record(p1 + p2, -forward[p2, p1]))
    return {Kind.D_PAIR: pairs, Kind.Y_TRIPLE: triples, Kind.OMEGA_QUAD: quads}


def planted_values(mu, plant, seed):
    rng = random.Random(seed)
    v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-3 for _ in range(mu)]
    if plant == "equal_pair":
        v[1] = v[0]
    elif plant == "progression":
        v[2] = (v[0] + v[1]) / 2
    elif plant == "parallelogram":
        v[3] = v[0] + v[1] - v[2]
    return v


KERNELS = {Kind.D_PAIR: log_D, Kind.Y_TRIPLE: log_Y, Kind.OMEGA_QUAD: log_Omega}
PLANTS = {None: 1, "equal_pair": 2, "progression": 3, "parallelogram": 4}  # plant -> least mu
PLANTED_KIND = {"equal_pair": Kind.D_PAIR, "progression": Kind.Y_TRIPLE, "parallelogram": Kind.OMEGA_QUAD}


class TestKernelAgainstReference:
    @pytest.mark.parametrize(
        "mu, plant", [(mu, plant) for mu in range(1, 9) for plant in PLANTS if mu >= PLANTS[plant]]
    )
    def test_bitwise_agreement_in_lexicographic_order(self, mu, plant):
        values = planted_values(mu, plant, seed=100 * mu + len(plant or ""))
        labels = [(k, k % 3) for k in range(mu)]
        expected = reference_products(values)
        for kind, op in KERNELS.items():
            result = op(values, labels)
            ref = expected[kind]
            assert [f.indices for f in result.factors] == [
                tuple(labels[i] for i in idx) for idx, _ in ref
            ]
            assert [f.log_magnitude for f in result.factors] == [log for _, log in ref]
            assert result.total == sum(log for _, log in ref if log is not None)
            assert result.zero_count == sum(log is None for _, log in ref)
        if plant is not None:
            assert KERNELS[PLANTED_KIND[plant]](values).has_zero

    def test_verify_builds_no_factor_records(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify must not build factor records")

        monkeypatch.setattr(discriminant_products, "FactorRecord", refuse)
        report = verify_all((3, 3), "xy_coupled")
        assert report.all_match

    def test_degenerate_hint_builds_one_record(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the hint must not build every factor record")

        monkeypatch.setattr(LogProduct, "factors", property(refuse))
        row = verify_all((4,)).rows[4]
        assert row.verdict == "Degenerate"
        assert row.hint == "parallelogram: (0),(2) | (1),(3)"
