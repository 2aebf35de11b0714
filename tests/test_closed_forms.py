"""Closed-form multiplicity tests.

The independent oracles here enumerate labelled critical-point tuples and sum
decay exponents with exact rationals; the closed forms must reproduce them.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from phamlab.closed_forms import (
    ExponentVector,
    HomogeneousReport,
    MultiplicitySet,
    binom12,
    binom22,
    caustic_multiplicity,
    homogeneous_report,
    l_value,
    l_value_rewritten,
    maxwell_multiplicity,
    mixed_depth_counts,
    mixed_stokes_multiplicity,
    pair_depth_counts,
    pure_stokes_multiplicity,
)


def _labels(a):
    return list(itertools.product(*[range(ai) for ai in a]))


def _first_separating_depth(a, pts):
    """1-based index of the first coordinate where the labels are not all equal."""
    for i in range(len(a)):
        if len({p[i] for p in pts}) > 1:
            return i
    raise AssertionError("identical labels")


def oracle_pair_degree(a):
    """Sum of 1 + 1/a_j over ordered label pairs, j = first separating depth."""
    labs = _labels(a)
    total = Fraction(0)
    for p, q in itertools.permutations(labs, 2):
        j = _first_separating_depth(a, (p, q))
        total += 1 + Fraction(1, a[j])
    return total


def oracle_mixed_degree(a):
    """Sum of decay exponents over distinguished-point triples."""
    labs = _labels(a)
    total = Fraction(0)
    for first in labs:
        for pair in itertools.combinations([l for l in labs if l != first], 2):
            j = _first_separating_depth(a, (first,) + pair)
            total += 1 + Fraction(1, a[j])
    return total


def oracle_pure_quads(a, b):
    """Exponent histogram over ordered pairs of disjoint label pairs, n = 2 odd.

    A quad factor decays as 1 + 1/a when the two pairs differ in their
    x-branch multisets, as 1 + 1/b when only the y-branch multisets differ,
    and as 1 + 1/a + 1/b when both multisets agree (the deformed
    parallelogram configurations).
    """
    labs = _labels((a, b))
    pairs = list(itertools.combinations(labs, 2))
    hist = {}
    for p1 in pairs:
        for p2 in pairs:
            if p1 == p2 or set(p1) & set(p2):
                continue
            x_same = sorted(l[0] for l in p1) == sorted(l[0] for l in p2)
            y_same = sorted(l[1] for l in p1) == sorted(l[1] for l in p2)
            if not x_same:
                e = 1 + Fraction(1, a)
            elif not y_same:
                e = 1 + Fraction(1, b)
            else:
                e = 1 + Fraction(1, a) + Fraction(1, b)
            hist[e] = hist.get(e, 0) + 1
    return hist


def all_exponent_vectors(max_n, max_a, max_mu=None):
    for n in range(1, max_n + 1):
        for combo in itertools.combinations_with_replacement(range(1, max_a + 1), n):
            a = tuple(sorted(combo, reverse=True))
            if max_mu is None or math.prod(a) <= max_mu:
                yield a


class TestExponentVector:
    def test_sorts_descending(self):
        assert ExponentVector((3, 5, 4)).a == (5, 4, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExponentVector((3, 0))
        with pytest.raises(ValueError):
            ExponentVector(())

    def test_mu(self):
        assert ExponentVector((5, 3)).mu == 15


class TestMilnorNumber:
    @pytest.mark.parametrize("a, expected", [((3,), 3), ((3, 3), 9), ((1, 1, 1), 1)])
    def test_examples(self, a, expected):
        assert ExponentVector(a).mu == expected


class TestLValue:
    @pytest.mark.parametrize("a, expected", [((1,), 0), ((3,), 8), ((3, 3), 96), ((5,), 24), ((5, 3), 256)])
    def test_examples(self, a, expected):
        assert l_value(a) == expected

    @pytest.mark.parametrize("a", [(3,), (4,), (3, 3), (5, 3), (3, 2, 2)])
    def test_matches_pair_enumeration(self, a):
        assert l_value(a) == oracle_pair_degree(a)

    def test_rewritten_examples(self):
        assert l_value_rewritten((3,)) == 8
        assert l_value_rewritten((1,)) == 0
        assert l_value_rewritten((5, 3)) == l_value((5, 3))

    def test_pair_depth_counts_sum(self):
        for a in [(3,), (5, 3), (3, 3), (4, 2, 1)]:
            counts, mu = pair_depth_counts(a), ExponentVector(a).mu
            assert sum(counts.values()) == mu * (mu - 1)
            assert sum(e * c for e, c in counts.items()) == l_value(a)


class TestCausticMaxwell:
    @pytest.mark.parametrize("a, expected", [((1, 1, 1), 0), ((3, 3), 12), ((5,), 4)])
    def test_caustic(self, a, expected):
        assert caustic_multiplicity(a) == expected

    @pytest.mark.parametrize("a, expected", [((3,), 1), ((3, 3), 30), ((1,), 0)])
    def test_maxwell(self, a, expected):
        assert maxwell_multiplicity(a) == expected


class TestBinomials:
    @pytest.mark.parametrize("n, expected", [(2, 0), (5, 30), (9, 252)])
    def test_binom12(self, n, expected):
        assert binom12(n) == expected

    @pytest.mark.parametrize("n, expected", [(3, 0), (5, 30), (9, 756)])
    def test_binom22(self, n, expected):
        assert binom22(n) == expected

    def test_binom22_consistency_with_pure_odd(self):
        # (1/2) * (1 + 1/5) * binom22(5) reproduces pure Stokes at d = 5
        assert Fraction(1, 2) * Fraction(6, 5) * binom22(5) == pure_stokes_multiplicity((5,))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binom12(-1)
        with pytest.raises(ValueError):
            binom22(-2)


class TestMixedStokes:
    @pytest.mark.parametrize("a, expected", [((2,), 0), ((5,), 36), ((3, 3), 336)])
    def test_examples(self, a, expected):
        assert mixed_stokes_multiplicity(a) == expected

    @pytest.mark.parametrize("a", [(3,), (5,), (3, 3), (5, 3), (2, 2, 2)])
    def test_matches_triple_enumeration(self, a):
        assert mixed_stokes_multiplicity(a) == oracle_mixed_degree(a)

    @pytest.mark.parametrize("a", [(3,), (5, 3), (3, 3), (4, 3, 2)])
    def test_depth_counts_telescoped_sum(self, a):
        counts = mixed_depth_counts(a)
        assert sum(counts.values()) == binom12(ExponentVector(a).mu)
        assert sum(e * c for e, c in counts.items()) == mixed_stokes_multiplicity(a)

    def test_depth_counts_53(self):
        counts = mixed_depth_counts((5, 3))
        assert counts == {Fraction(6, 5): binom12(15) - 5 * binom12(3), Fraction(4, 3): 5 * binom12(3)}


class TestPureStokes:
    @pytest.mark.parametrize(
        "a, expected",
        [((3,), 0), ((4,), 4), ((5,), 18), ((3, 3), 507), ((1,), 0), ((2,), 0)],
    )
    def test_supported(self, a, expected):
        assert pure_stokes_multiplicity(a) == expected

    @pytest.mark.parametrize("a", [(2, 2), (3, 2), (4, 3), (3, 3, 3)])
    def test_unsupported_parities_return_marker(self, a):
        assert pure_stokes_multiplicity(a) is None

    @pytest.mark.parametrize("a, b", [(3, 3), (5, 3), (5, 5), (7, 3)])
    def test_matches_quad_enumeration(self, a, b):
        hist = oracle_pure_quads(a, b)
        doubled = sum(e * c for e, c in hist.items())
        assert doubled == 2 * pure_stokes_multiplicity((a, b))

    def test_odd_count_identity(self):
        # for one odd exponent d: pure = (1/2) * (1 + 1/d) * binom22(d)
        for d in (1, 3, 5, 7, 9):
            assert pure_stokes_multiplicity((d,)) == Fraction(1, 2) * (1 + Fraction(1, d)) * binom22(d)


class TestIdentitySuite:
    def test_theorem_identities_full_grid(self):
        # n <= 5, a_i <= 9, mu <= 10^4: exact closure of all cross-identities
        checked = 0
        for a in all_exponent_vectors(5, 9, max_mu=10**4):
            sets = MultiplicitySet.compute(a)
            assert 3 * sets.caustic + 2 * sets.maxwell == sets.l_value
            assert l_value_rewritten(a) == sets.l_value
            counts = mixed_depth_counts(a)
            assert sum(e * c for e, c in counts.items()) == sets.mixed_stokes
            checked += 1
        assert checked > 1500

    def test_monotone_in_each_exponent(self):
        # spot-check by enumeration: n <= 3, a_i <= 6
        def quantities(a):
            pure = pure_stokes_multiplicity(a)
            return (
                caustic_multiplicity(a),
                maxwell_multiplicity(a),
                mixed_stokes_multiplicity(a),
            ) + ((pure,) if pure is not None else ())

        for a in all_exponent_vectors(3, 6):
            base = quantities(a)
            for i in range(len(a)):
                bumped = list(a)
                bumped[i] += 1
                bumped = tuple(sorted(bumped, reverse=True))
                bigger = quantities(bumped)
                for lo, hi in zip(base[:3], bigger[:3]):
                    assert hi >= lo, (a, bumped)

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5))
    def test_identities_property(self, exponents):
        a = tuple(exponents)
        assert 3 * caustic_multiplicity(a) + 2 * maxwell_multiplicity(a) == l_value(a)
        assert l_value_rewritten(a) == l_value(a)
        assert mixed_stokes_multiplicity(a) >= 0


class TestHomogeneous:
    def test_values_3_2(self):
        report = homogeneous_report(3, 2)
        assert isinstance(report, MultiplicitySet)
        assert (report.caustic, report.maxwell) == (12, 30)

    def test_trivial_1_3(self):
        report = homogeneous_report(1, 3)
        assert (report.caustic, report.maxwell) == (0, 0)

    def test_closed_homogeneous_forms(self):
        # caustic n*a^(n-1)*(a-1), maxwell a^(n-1)*((a+1)(a^n-1) - 3n(a-1))/2
        for a in range(1, 10):
            for n in range(1, 5):
                report = homogeneous_report(a, n)
                assert report.caustic == n * a ** (n - 1) * (a - 1)
                assert 2 * report.maxwell == a ** (n - 1) * ((a + 1) * (a**n - 1) - 3 * n * (a - 1))

    def test_maxwell_ratio_at_100(self):
        report = homogeneous_report(100, 1)
        assert report.ratio_maxwell == Fraction(9702, 10000)

    def test_ratios_near_one_at_degree_100(self):
        report = homogeneous_report(100, 1)
        ratios = [report.ratio_caustic, report.ratio_maxwell, report.ratio_mixed, report.ratio_pure]
        for r in ratios:
            assert r is not None
            assert abs(r - 1) <= Fraction(5, 100)

    def test_pure_defined_only_for_known_parities(self):
        assert homogeneous_report(4, 2).pure_stokes is None
        assert homogeneous_report(3, 3).pure_stokes is None
        assert homogeneous_report(3, 2).pure_stokes == 507


class TestMultiplicitySet:
    def test_compute(self):
        sets = MultiplicitySet.compute((3, 3))
        assert sets == MultiplicitySet(9, 96, 12, 30, 336, 507)

    def test_invariant_enforced(self):
        with pytest.raises(ArithmeticError):
            MultiplicitySet(9, 96, 12, 29, 336, 507)
