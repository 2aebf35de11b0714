"""Degree estimation, factor classification, cluster scaling, verdict table."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from phamlab import degree_lab
from phamlab.closed_forms import binom12, mixed_depth_counts, pure_stokes_multiplicity
from phamlab.critical_tracker import GenericLine, TrackedBatch, TrackerError, default_line, jittered_line
from phamlab.degree_lab import (
    DEFAULT_MU_CAP,
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
    estimate_from_trace,
    expected_factor_histogram,
    slope_table_rows,
    verify_all,
)
from phamlab.discriminant_products import LogProduct, LogProductTrace, _IndexTable, evaluate_trace
from phamlab.polyalg import SparsePoly


def _one_factor_trace(exponent, mags):
    """A D_pair trace of one factor decaying exactly as eps^exponent over the magnitudes."""
    samples = tuple(
        {
            Kind.D_PAIR: LogProduct(
                log,
                None,
                _IndexTable(Kind.D_PAIR, np.array([[0, 1]]), np.array([[0], [1]]), None),
                np.array([math.exp(log), 0j]),
                (0, 1),
            )
        }
        for log in (exponent * math.log(m) for m in mags)
    )
    return LogProductTrace(mags, samples)


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
        for phase in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="ray phase must be finite"):
                EpsilonGrid(phase=phase)

    def test_grid_that_underflows_to_zero_is_rejected(self):
        assert EpsilonGrid(count=644).magnitudes()[-1] == 5e-324
        # rejected before any magnitude is listed: a list of 10**9 would come first
        for count in (645, 10**9, 10**400):  # 10**400 overflows a float rather than underflowing
            with pytest.raises(ValueError, match=f"^{count} samples take"):
                EpsilonGrid(count=count)


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
        assert "parallelogram" in est.hint

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

    def test_estimate_judges_only_its_own_fit(self):
        # an exact slope of 9 is a clean snap, although L = 8 at a = (3,): the
        # comparison with the closed form is the report row's
        est = estimate_from_trace(_one_factor_trace(9, (1e-2, 1e-3, 1e-4, 1e-5)), Kind.D_PAIR)
        assert (est.snapped, est.verdict) == (9, Verdict.MATCH)
        assert est.residual <= 1e-9


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

    def test_unclassified_factor_builds_one_record(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an unclassified factor must not build every record")

        line = default_line((3,))
        trace = evaluate_trace(line, EpsilonGrid().samples(), [Kind.D_PAIR])
        monkeypatch.setattr(LogProduct, "factors", property(refuse))
        with pytest.raises(UnclassifiedFactor, match=r"factor \(\(0,\), \(1,\)\) has slope"):
            classify_factors(trace, (9, 9))

    def test_snap_within_half_the_gap(self):
        # 8/7 and 6/5 lie 0.057 apart, closer than twice CLASSIFY_TOLERANCE: on
        # this grid 85 of the 19635 factors sit more than half that gap from
        # their snap, though within CLASSIFY_TOLERANCE
        line = default_line((7, 5), "xy_coupled")
        trace = evaluate_trace(line, EpsilonGrid(start=1e-3, count=9).samples(), [Kind.Y_TRIPLE])
        with pytest.raises(UnclassifiedFactor, match="more than 0.02857 from the nearest"):
            classify_factors(trace, (7, 5))

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

    @staticmethod
    def _omega_walk(p, q):
        """Every ordered pair of disjoint point pairs, keyed by which branch multisets differ."""
        labels = list(itertools.product(range(p), range(q)))
        pairs = list(itertools.combinations(labels, 2))
        counts = {}
        for p1 in pairs:
            for p2 in pairs:
                if p1 == p2 or set(p1) & set(p2):
                    continue
                x_same = sorted(l[0] for l in p1) == sorted(l[0] for l in p2)
                y_same = sorted(l[1] for l in p1) == sorted(l[1] for l in p2)
                if not x_same:
                    e = 1 + Fraction(1, p)
                elif not y_same:
                    e = 1 + Fraction(1, q)
                else:
                    e = 1 + Fraction(1, p) + Fraction(1, q)
                counts[e] = counts.get(e, 0) + 1
        return dict(sorted(counts.items()))

    @pytest.mark.parametrize("p, q", list(itertools.product(range(1, 6), repeat=2)))
    def test_omega_two_vars_counts_the_walk(self, p, q):
        got = degree_lab._omega_histogram_two_vars(p, q)
        want = self._omega_walk(p, q)
        assert got == want and list(got) == list(want)

    @pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 16, 2) for q in range(1, p + 1, 2)])
    def test_omega_two_odd_degree_is_twice_pure_stokes(self, p, q):
        hist = expected_factor_histogram((p, q), Kind.OMEGA_QUAD, "xy_coupled")
        assert sum(e * c for e, c in hist.items()) == 2 * pure_stokes_multiplicity((p, q))


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
    def test_53_coupled_default_grid_wrong_snaps_are_flagged(self):
        # on the default grid a few Omega factors of (5, 3) lie between 4/3 and
        # 7/5, which are 1/15 apart; snapped within 0.08 they summed to 49442/5,
        # where the integer 9888 is due
        line = default_line((5, 3), "xy_coupled")
        trace = evaluate_trace(line, EpsilonGrid().samples(), [Kind.OMEGA_QUAD])
        with pytest.raises(UnclassifiedFactor, match="more than 0.03333 from the nearest"):
            classify_factors(trace, (5, 3))

    def test_non_integer_total_raises(self):
        # one factor decaying exactly as eps^(4/3) snaps cleanly to a non-integer total
        with pytest.raises(ValueError, match="4/3, not an integer"):
            classify_factors(_one_factor_trace(4 / 3, (1e-3, 1e-4)), (3,))


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

    @pytest.mark.parametrize("pair", [(-1e-3, 1e-4), (1e-3, 0.0), (math.inf, 1e-4), (1e-3, math.nan)])
    def test_rejects_magnitudes_before_tracking(self, monkeypatch, pair):
        def refuse(*args):
            raise AssertionError("magnitudes must be checked before tracking")

        monkeypatch.setattr(degree_lab, "critical_set", refuse)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            cluster_scaling(default_line((5, 3)), pair)

    def test_tracks_both_magnitudes_in_one_batch(self, monkeypatch):
        built = []
        track = TrackedBatch.__init__

        def counted(self, line, eps_samples):
            built.append(list(eps_samples))
            track(self, line, eps_samples)

        monkeypatch.setattr(TrackedBatch, "__init__", counted)
        line = jittered_line(default_line((5, 3), "xy_coupled"), 7)
        report = cluster_scaling(line, (1e-3, 1e-4), 0.5)
        assert len(built) == 1 and len(built[0]) == 2
        assert report.all_pass
        with pytest.raises(ValueError, match="must differ"):
            cluster_scaling(line, (1e-3, 1e-3))
        with pytest.raises(ValueError, match="ray phase must be finite, got nan"):
            cluster_scaling(line, (1e-3, 1e-4), math.nan)
        assert len(built) == 1


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
        assert row.verdict == Verdict.UNSUPPORTED.value
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

    @pytest.mark.parametrize("a, preset", [((3,), "linear"), ((3, 3), "xy_coupled"), ((4,), "linear")])
    def test_each_closed_form_evaluated_once(self, monkeypatch, a, preset):
        # the estimates judge only their own fits, so the rows are the closed forms' one reader
        names = ["caustic_multiplicity", "l_value", "mixed_stokes_multiplicity", "pure_stokes_multiplicity"]
        calls = []
        for name in names:

            def counted(ev, name=name, original=getattr(degree_lab, name)):
                calls.append(name)
                return original(ev)

            monkeypatch.setattr(degree_lab, name, counted)
        verify_all(a, preset)
        assert sorted(calls) == names

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
        verdict=verdict,
        hint=hint,
    )


class TestDerivedRows:
    """Report rows built from synthetic estimates for a = (3,).

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
        monkeypatch.setattr(degree_lab, "estimate_from_trace", lambda trace, kind: estimates[kind])
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
        # a clean snap of 9 is judged against L = 8 in the row alone
        assert (rows["pair_product_degree"].snapped, rows["pair_product_degree"].verdict) == (9, "Mismatch")
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

    def test_direct_residual_is_distance_to_closed_form(self, monkeypatch):
        # a direct row reported the estimate's distance to its own snap (NaN here), not to the closed form
        rows = self.rows(monkeypatch, Y_TRIPLE=_synthetic(Kind.Y_TRIPLE, Verdict.MISMATCH, 5, 5.01))
        row = rows["mixed_stokes"]
        assert (row.snapped, row.verdict) == (5, "Mismatch")
        assert row.residual == pytest.approx(1.01)

    @pytest.mark.parametrize("verdict", [Verdict.INCONCLUSIVE, Verdict.DEGENERATE])
    def test_undecided_pair_row_carries_no_numbers(self, monkeypatch, verdict):
        # the NaN extrapolation and residual of an undecided estimate printed as "nan"
        row = self.rows(monkeypatch, D_PAIR=_synthetic(Kind.D_PAIR, verdict))["pair_product_degree"]
        assert row.verdict == verdict.value
        assert (row.estimate, row.snapped, row.residual) == (None, None, None)

    def test_inconclusive_omega_carries_its_hint(self, monkeypatch):
        # an undecided row passes on the reason its estimate gives, Inconclusive as well as Degenerate
        rows = self.rows(
            monkeypatch,
            OMEGA_QUAD=_synthetic(Kind.OMEGA_QUAD, Verdict.INCONCLUSIVE, hint="slopes still moving"),
        )
        row = rows["pure_stokes"]
        assert row.verdict == "Inconclusive"
        assert row.hint == "slopes still moving"
        assert (row.estimate, row.snapped, row.residual) == (None, None, None)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 1: verdict from converged slopes only"
)
@pytest.mark.parametrize(
    "a, preset, mu_cap",
    [((7, 5), "xy_coupled", 64), ((15,), "quadratic_1d", DEFAULT_MU_CAP), ((9, 7), "xy_coupled", 64)],
)
def test_no_row_is_a_mismatch(a, preset, mu_cap):
    # each case has a Mismatch row from slopes that have not converged on the default grid;
    # a case that passes (XPASS) fails the suite and becomes a plain regression test
    report = verify_all(a, preset, mu_cap=mu_cap)
    assert [r.quantity for r in report.rows if r.verdict == Verdict.MISMATCH.value] == []


@pytest.mark.xfail(strict=True, raises=TrackerError, reason="ROADMAP item 3: scale-relative set validation")
@pytest.mark.parametrize(
    "a, preset, start",
    [((11, 3), "xy_coupled", 1e-22), ((13, 2), "linear", 1e-26)],
)
def test_deep_grid_sets_pass_validation(a, preset, start):
    # the absolute distinctness floor 1e-8 rejects good sets this deep (min distance
    # 7.9e-09 tracked, 1.1e-13 closed form); a case that passes (XPASS) fails the suite
    verify_all(a, preset, grid=EpsilonGrid(start=start), mu_cap=64)
