"""Degree estimation, factor classification, cluster scaling, verdict table."""

import math
from fractions import Fraction

import pytest

from phamlab import degree_lab
from phamlab.closed_forms import binom12, mixed_depth_counts
from phamlab.critical_tracker import GenericLine, default_line, jittered_line
from phamlab.degree_lab import (
    ClusterReport,
    DegreeEstimate,
    EpsilonGrid,
    Kind,
    UnclassifiedFactor,
    Verdict,
    admissible_factor_exponents,
    classify_factors,
    cluster_scaling,
    estimate_degree,
    expected_factor_histogram,
    slope_table_rows,
    verify_all,
)
from phamlab.discriminant_products import evaluate_trace
from phamlab.polyalg import SparsePoly


class TestEpsilonGrid:
    def test_defaults(self):
        grid = EpsilonGrid()
        mags = grid.magnitudes()
        assert len(mags) == 7
        assert mags[0] == pytest.approx(1e-2)
        assert mags[-1] == pytest.approx(1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonGrid(start=0.5)
        with pytest.raises(ValueError):
            EpsilonGrid(ratio=1.5)
        with pytest.raises(ValueError):
            EpsilonGrid(count=3)


class TestEstimateDegree:
    def test_pair_degree_cubic(self):
        est = estimate_degree(default_line((3,)), Kind.D_PAIR)
        assert est.snapped == 8
        assert est.verdict is Verdict.MATCH
        assert est.residual <= 0.05

    def test_hessian_cubic(self):
        est = estimate_degree(default_line((3,)), Kind.HESSIAN)
        assert est.snapped == 2
        assert est.verdict is Verdict.MATCH

    def test_triple_cubic(self):
        est = estimate_degree(default_line((3,)), Kind.Y_TRIPLE)
        assert est.snapped == 4
        assert est.verdict is Verdict.MATCH

    def test_empty_quad_product_snaps_to_zero(self):
        # mu = 3 gives an empty product: a nonvanishing function, degree 0
        est = estimate_degree(default_line((3,)), Kind.OMEGA_QUAD)
        assert est.snapped == 0
        assert abs(est.extrapolated) <= 0.05
        assert est.verdict is Verdict.MATCH

    def test_even_exponent_linear_is_degenerate(self):
        est = estimate_degree(default_line((4,)), Kind.OMEGA_QUAD)
        assert est.verdict is Verdict.DEGENERATE
        assert "parallelogram" in est.degenerate_hint

    def test_quadratic_direction_restores_genericity(self):
        est = estimate_degree(default_line((4,), "quadratic_1d"), Kind.OMEGA_QUAD)
        assert est.snapped == 8
        assert est.verdict is Verdict.MATCH

    def test_phase_robustness(self):
        line = default_line((3,))
        for phase in (0.27, 0.47):
            est = estimate_degree(line, Kind.D_PAIR, EpsilonGrid(phase=phase))
            assert est.snapped == 8
            assert est.verdict is Verdict.MATCH


class TestClassifyFactors:
    def test_single_depth_quintic(self):
        line = default_line((5,))
        grid = EpsilonGrid()
        trace = evaluate_trace(line, grid.samples(), [Kind.Y_TRIPLE])
        hist = classify_factors(trace, (5,))
        assert hist.counts == {Fraction(6, 5): 30}

    def test_two_depth_telescoping(self):
        line = default_line((5, 3))
        grid = EpsilonGrid()
        trace = evaluate_trace(line, grid.samples(), [Kind.Y_TRIPLE])
        hist = classify_factors(trace, (5, 3))
        assert hist.counts == {
            Fraction(6, 5): binom12(15) - 5 * binom12(3),
            Fraction(4, 3): 5 * binom12(3),
        }
        assert hist.counts == mixed_depth_counts((5, 3))

    def test_sum_rule(self):
        line = default_line((5,))
        grid = EpsilonGrid()
        trace = evaluate_trace(line, grid.samples(), [Kind.Y_TRIPLE])
        hist = classify_factors(trace, (5,))
        est = estimate_degree(line, Kind.Y_TRIPLE, grid)
        assert abs(float(hist.total_degree()) - est.extrapolated) <= 0.5

    def test_unclassifiable_raises(self):
        # a synthetic trace decaying as eps^3 per factor fits no admissible exponent
        line = default_line((3,))
        grid = EpsilonGrid()
        trace = evaluate_trace(line, grid.samples(), [Kind.D_PAIR])
        with pytest.raises(UnclassifiedFactor):
            classify_factors(trace, (9, 9))  # wrong exponents on purpose

    def test_admissible_set(self):
        exps = admissible_factor_exponents((5, 3), Kind.Y_TRIPLE)
        assert Fraction(6, 5) in exps and Fraction(4, 3) in exps
        assert 1 + Fraction(1, 5) + Fraction(1, 3) in exps


class TestExpectedHistograms:
    def test_pair_counts(self):
        hist = expected_factor_histogram((5, 3), Kind.D_PAIR)
        assert sum(hist.values()) == 15 * 14
        assert sum(e * c for e, c in hist.items()) == 256

    def test_omega_odd_single(self):
        assert expected_factor_histogram((5,), Kind.OMEGA_QUAD) == {Fraction(6, 5): 30}

    def test_omega_even_single_linear_unknown(self):
        assert expected_factor_histogram((4,), Kind.OMEGA_QUAD, "linear") is None

    def test_omega_even_single_quadratic(self):
        hist = expected_factor_histogram((4,), Kind.OMEGA_QUAD, "quadratic_1d")
        assert hist == {Fraction(5, 4): 4, Fraction(3, 2): 2}
        assert sum(e * c for e, c in hist.items()) == 8

    def test_omega_two_odd(self):
        hist = expected_factor_histogram((3, 3), Kind.OMEGA_QUAD, "xy_coupled")
        assert hist == {Fraction(4, 3): 738, Fraction(5, 3): 18}

    def test_omega_unknown_parity(self):
        assert expected_factor_histogram((4, 3), Kind.OMEGA_QUAD, "xy_coupled") is None


class TestUnequalOddPair:
    def test_53_coupled_quads_need_a_deeper_grid(self):
        # the 4/3 vs 23/15 exponent gap closes as eps^(1/5): at the default
        # grid bottom the fit must refuse a verdict rather than misreport
        line = default_line((5, 3), "xy_coupled")
        default = estimate_degree(line, Kind.OMEGA_QUAD)
        assert default.verdict in (Verdict.INCONCLUSIVE, Verdict.MATCH)
        deep = EpsilonGrid(start=1e-3, count=9)
        trace = evaluate_trace(line, deep.samples(), [Kind.OMEGA_QUAD])
        est = estimate_degree(line, Kind.OMEGA_QUAD, deep)
        assert est.snapped == 9888  # twice the pure Stokes multiplicity
        assert est.verdict is Verdict.MATCH
        hist = classify_factors(trace, (5, 3))
        assert hist.counts == expected_factor_histogram((5, 3), Kind.OMEGA_QUAD, "xy_coupled")
        assert hist.counts == {
            Fraction(6, 5): 7830,
            Fraction(4, 3): 300,
            Fraction(23, 15): 60,
        }


class TestHistogramTotal:
    def test_53_coupled_default_grid_total_is_not_an_integer(self):
        # on the default grid a few Omega factors of (5, 3) snap to the wrong
        # exponent: 7836 at 6/5, 276 at 4/3, 18 at 7/5 and 60 at 23/15 sum to
        # 49442/5, where the integer 9888 is due
        line = default_line((5, 3), "xy_coupled")
        trace = evaluate_trace(line, EpsilonGrid().samples(), [Kind.OMEGA_QUAD])
        with pytest.raises(ValueError, match="49442/5, not an integer"):
            classify_factors(trace, (5, 3))


class TestClusterScaling:
    def test_two_depths(self):
        report = cluster_scaling(default_line((5, 3)))
        assert len(report.levels) == 2
        assert abs(report.levels[0].measured - 1.2) <= 0.05
        assert abs(report.levels[1].measured - 4 / 3) <= 0.05
        assert report.all_pass

    def test_single_variable(self):
        report = cluster_scaling(default_line((3,)))
        (level,) = report.levels
        assert abs(level.measured - 4 / 3) <= 0.05
        assert level.predicted == Fraction(4, 3)

    def test_morse_vacuous(self):
        report = cluster_scaling(default_line((1,)))
        (level,) = report.levels
        assert level.measured is None
        assert level.passed


class TestVerifyAll:
    def test_trivial_pair(self):
        report = verify_all((1, 1))
        assert report.all_match
        by_name = {r.quantity: r for r in report.rows}
        assert by_name["pair_product_degree"].snapped == 0
        assert by_name["caustic"].snapped == 0
        assert by_name["maxwell"].snapped == 0
        assert by_name["mixed_stokes"].snapped == 0
        assert by_name["pure_stokes"].snapped == 0

    def test_unsupported_pure_row(self):
        report = verify_all((2, 2))
        row = {r.quantity: r for r in report.rows}["pure_stokes"]
        assert row.verdict == "Unsupported"
        assert report.all_match  # unsupported rows are not attempted

    def test_mu_cap(self):
        with pytest.raises(ValueError):
            verify_all((5, 5))  # mu = 25 > 16

    def test_rejects_line_for_other_exponents(self):
        with pytest.raises(ValueError, match="do not match"):
            verify_all((3, 3), line=default_line((5, 3)), mu_cap=64)

    def test_jitter_keeps_verdicts(self):
        base = verify_all((3,))
        jittered = verify_all((3,), line=jittered_line(default_line((3,)), 7))
        for r1, r2 in zip(base.rows, jittered.rows):
            assert r1.verdict == r2.verdict == "Match"

    def test_slope_table_rows(self):
        report = verify_all((3,))
        rows = slope_table_rows(report)
        kinds = {r[0] for r in rows}
        assert "D_pair" in kinds and "Hessian" in kinds
        per_kind = [r for r in rows if r[0] == "D_pair"]
        assert len(per_kind) == 7
        assert per_kind[0][3] is None and per_kind[1][3] is not None

    def test_json_dict_is_clean(self):
        report = verify_all((4,))  # linear: quad row Degenerate with hint
        data = report.to_json_dict()
        assert data["rows"][4]["verdict"] == "Degenerate"
        assert "parallelogram" in data["rows"][4]["hint"]
        for row in data["rows"]:
            for key in ("estimate", "snapped", "residual"):
                value = row[key]
                assert value is None or isinstance(value, (int, float))
                if isinstance(value, float):
                    assert math.isfinite(value)


def _synthetic(kind, verdict, snapped=None, extrapolated=math.nan, hint=None):
    return DegreeEstimate(
        kind=kind,
        eps_magnitudes=(),
        log_totals=(),
        slopes=(),
        extrapolated=extrapolated,
        snapped=snapped,
        residual=math.nan,
        predicted=None,
        verdict=verdict,
        degenerate_hint=hint,
    )


class TestDerivedRows:
    """Maxwell and pure-Stokes rows built from synthetic estimates for a = (3,).

    Closed forms: L = 8, C = 2, M = 1, mixed Stokes 4, pure Stokes 0.
    """

    @staticmethod
    def rows(monkeypatch, **overrides):
        estimates = {
            Kind.D_PAIR: _synthetic(Kind.D_PAIR, Verdict.MATCH, 8, 8.0),
            Kind.HESSIAN: _synthetic(Kind.HESSIAN, Verdict.MATCH, 2, 2.0),
            Kind.Y_TRIPLE: _synthetic(Kind.Y_TRIPLE, Verdict.MATCH, 4, 4.0),
            Kind.OMEGA_QUAD: _synthetic(Kind.OMEGA_QUAD, Verdict.MATCH, 0, 0.0),
        }
        for name, est in overrides.items():
            estimates[Kind[name]] = est
        monkeypatch.setattr(degree_lab, "estimate_from_trace", lambda trace, kind, a: estimates[kind])
        return {r.quantity: r for r in verify_all((3,)).rows}

    def test_all_match(self, monkeypatch):
        rows = self.rows(monkeypatch)
        assert (rows["maxwell"].snapped, rows["maxwell"].verdict) == (1, "Match")
        assert (rows["pure_stokes"].snapped, rows["pure_stokes"].verdict) == (0, "Match")

    def test_degenerate_wins_over_inconclusive(self, monkeypatch):
        rows = self.rows(
            monkeypatch,
            D_PAIR=_synthetic(Kind.D_PAIR, Verdict.INCONCLUSIVE),
            HESSIAN=_synthetic(Kind.HESSIAN, Verdict.DEGENERATE, hint="hessian zero"),
        )
        row = rows["maxwell"]
        assert row.verdict == "Degenerate"
        assert row.hint == "hessian zero"
        assert (row.estimate, row.snapped, row.residual) == (None, None, None)

    def test_hint_from_first_degenerate_input(self, monkeypatch):
        rows = self.rows(
            monkeypatch,
            D_PAIR=_synthetic(Kind.D_PAIR, Verdict.DEGENERATE, hint="pair zero"),
            HESSIAN=_synthetic(Kind.HESSIAN, Verdict.DEGENERATE, hint="hessian zero"),
        )
        assert rows["maxwell"].verdict == "Degenerate"
        assert rows["maxwell"].hint == "pair zero"

    def test_odd_remainder_gives_half_integer_mismatch(self, monkeypatch):
        # D - 3C = 9 - 6 = 3 is odd, so the Maxwell snap is 1.5
        rows = self.rows(monkeypatch, D_PAIR=_synthetic(Kind.D_PAIR, Verdict.MATCH, 9, 9.02))
        row = rows["maxwell"]
        assert row.snapped == 1.5 and isinstance(row.snapped, float)
        assert row.estimate == pytest.approx(1.51)
        assert row.residual == pytest.approx(0.51)
        assert row.verdict == "Mismatch"

    def test_mismatched_input_gives_mismatch(self, monkeypatch):
        # the snaps still give M = 1 and pure Stokes 0, but the inputs did not match
        rows = self.rows(
            monkeypatch,
            D_PAIR=_synthetic(Kind.D_PAIR, Verdict.MISMATCH, 8, 8.3),
            OMEGA_QUAD=_synthetic(Kind.OMEGA_QUAD, Verdict.MISMATCH, 0, 0.3),
        )
        assert (rows["maxwell"].snapped, rows["maxwell"].verdict) == (1, "Mismatch")
        assert (rows["pure_stokes"].snapped, rows["pure_stokes"].verdict) == (0, "Mismatch")

    def test_inconclusive_omega_has_no_hint(self, monkeypatch):
        rows = self.rows(
            monkeypatch,
            OMEGA_QUAD=_synthetic(Kind.OMEGA_QUAD, Verdict.INCONCLUSIVE, hint="stale"),
        )
        row = rows["pure_stokes"]
        assert row.verdict == "Inconclusive"
        assert row.hint is None
        assert (row.estimate, row.snapped, row.residual) == (None, None, None)
