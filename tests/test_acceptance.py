"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from phamlab.closed_forms import (
    MultiplicitySet,
    caustic_multiplicity,
    homogeneous_report,
    l_value,
    l_value_rewritten,
    maxwell_multiplicity,
    mixed_depth_counts,
    mixed_stokes_multiplicity,
    pure_stokes_multiplicity,
)
from phamlab.critical_tracker import (
    GenericLine,
    TrackedBatch,
    critical_set,
    default_line,
    separable_critical_set,
)
from phamlab.degree_lab import (
    EpsilonGrid,
    Kind,
    Verdict,
    classify_factors,
    cluster_scaling,
    estimate_degree,
    expected_factor_histogram,
    verify_all,
)
from phamlab.discriminant_products import evaluate_trace, log_D, log_Omega, log_Y
from phamlab.polyalg import SparsePoly, univariate_roots

import cmath
import random


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _rows(report):
    return {r.quantity: r for r in report.rows}


def _alone(line, eps):
    """The critical set of one sample, tracked in a batch of its own."""
    return critical_set(TrackedBatch(line, [eps]), eps)


def test_criterion_1_closed_form_identity_suite():
    started = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 6):
        for combo in itertools.combinations_with_replacement(range(1, 10), n):
            a = tuple(sorted(combo, reverse=True))
            if math.prod(a) > 10**4:
                continue
            sets = MultiplicitySet.compute(a)  # validates nonnegativity and 3C+2M=L
            ok &= 3 * sets.caustic + 2 * sets.maxwell == sets.l_value
            ok &= l_value_rewritten(a) == sets.l_value
            counts = mixed_depth_counts(a)
            ok &= sum(e * c for e, c in counts.items()) == sets.mixed_stokes
            ok &= all(
                isinstance(v, int) and v >= 0
                for v in (sets.mu, sets.l_value, sets.caustic, sets.maxwell, sets.mixed_stokes)
            )
            checked += 1
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _report(
        "criterion 1: closed-form identity suite",
        ok,
        f"{checked} exponent vectors, {elapsed:.2f} s",
    )


def test_criterion_2_homogeneous_cross_check():
    started = time.perf_counter()
    ok = True
    for a in range(1, 10):
        for n in range(1, 5):
            e = (a,) * n
            # homogeneous closed forms (caustic carries the factor n, which the
            # Maxwell expression and the ~ n*mu asymptotics both require)
            ok &= caustic_multiplicity(e) == n * a ** (n - 1) * (a - 1)
            ok &= 2 * maxwell_multiplicity(e) == a ** (n - 1) * ((a + 1) * (a**n - 1) - 3 * n * (a - 1))
    report = homogeneous_report(100, 1)
    for ratio in (report.ratio_caustic, report.ratio_maxwell):
        ok &= abs(ratio - 1) <= Fraction(5, 100)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _report("criterion 2: homogeneous cross-check", ok, f"{elapsed:.2f} s")


@pytest.mark.parametrize("a, degree", [((3,), 8), ((5,), 24), ((3, 3), 96)])
def test_criterion_3_pair_product_degree(a, degree):
    started = time.perf_counter()
    report = verify_all(a)
    elapsed = time.perf_counter() - started
    row = _rows(report)["pair_product_degree"]
    ok = row.snapped == degree and row.residual <= 0.05 and row.verdict == "Match"
    ok &= elapsed <= 5.0
    _report(
        f"criterion 3: pair-product degree {a} -> {degree}",
        ok,
        f"estimate {row.estimate:.4f}, {elapsed:.2f} s",
    )


@pytest.mark.parametrize(
    "a, caustic, maxwell", [((3,), 2, 1), ((5,), 4, 6), ((3, 3), 12, 30)]
)
def test_criterion_4_caustic_maxwell_split(a, caustic, maxwell):
    report = verify_all(a)
    rows = _rows(report)
    c_row, m_row = rows["caustic"], rows["maxwell"]
    ok = c_row.snapped == caustic and c_row.residual <= 0.05 and c_row.verdict == "Match"
    ok &= m_row.snapped == maxwell and m_row.verdict == "Match"
    _report(
        f"criterion 4: caustic/Maxwell split {a} -> C={caustic}, M={maxwell}",
        ok,
        f"hessian slope {c_row.estimate:.4f}",
    )


@pytest.mark.parametrize("a, degree", [((3,), 4), ((5,), 36), ((3, 3), 336)])
def test_criterion_5_mixed_stokes_degree_and_histogram(a, degree):
    grid = EpsilonGrid()
    line = default_line(a)
    trace = evaluate_trace(line, grid.samples(), [Kind.Y_TRIPLE])
    est = estimate_degree(line, Kind.Y_TRIPLE, grid)
    ok = est.snapped == degree and est.residual <= 0.05 and est.verdict is Verdict.MATCH
    histogram = classify_factors(trace, a)
    ok &= histogram.counts == mixed_depth_counts(a)
    _report(
        f"criterion 5: mixed Stokes degree {a} -> {degree}",
        ok,
        f"histogram {dict((str(k), v) for k, v in histogram.counts.items())}",
    )


def test_criterion_6_pure_stokes():
    ok = True
    details = []

    est5 = estimate_degree(default_line((5,)), Kind.OMEGA_QUAD)
    ok &= est5.snapped == 36 and est5.verdict is Verdict.MATCH
    details.append(f"(5) deg/2 = {est5.snapped / 2 if est5.snapped else est5.snapped}")
    ok &= est5.snapped / 2 == pure_stokes_multiplicity((5,)) == 18

    est4lin = estimate_degree(default_line((4,)), Kind.OMEGA_QUAD)
    ok &= est4lin.verdict is Verdict.DEGENERATE
    details.append("(4) linear Degenerate")

    report4 = verify_all((4,), preset="quadratic_1d")
    row4 = _rows(report4)["pure_stokes"]
    ok &= row4.verdict == "Match" and row4.snapped == 4
    omega4 = report4.estimates[Kind.OMEGA_QUAD]
    ok &= omega4.snapped == 8
    details.append("(4) quadratic deg 8, pure 4")

    started = time.perf_counter()
    grid = EpsilonGrid()
    line33 = default_line((3, 3), "xy_coupled")
    trace33 = evaluate_trace(line33, grid.samples(), [Kind.OMEGA_QUAD])
    est33 = estimate_degree(line33, Kind.OMEGA_QUAD, grid)
    elapsed = time.perf_counter() - started
    ok &= est33.snapped == 1014 and abs(est33.extrapolated - 1014) <= 0.5
    hist33 = classify_factors(trace33, (3, 3))
    ok &= hist33.counts == {Fraction(4, 3): 738, Fraction(5, 3): 18}
    ok &= hist33.counts == expected_factor_histogram((3, 3), Kind.OMEGA_QUAD, "xy_coupled")
    ok &= elapsed <= 60.0
    details.append(f"(3,3) deg {est33.extrapolated:.3f}, {elapsed:.1f} s")

    _report("criterion 6: pure Stokes degrees", ok, "; ".join(details))


def test_criterion_7_cluster_scaling():
    report = cluster_scaling(default_line((5, 3)))
    d1, d2 = report.levels
    ok = abs(d1.measured - 6 / 5) <= 0.05 and abs(d2.measured - 4 / 3) <= 0.05
    _report(
        "criterion 7: cluster scaling (5,3)",
        ok,
        f"measured {d1.measured:.4f}, {d2.measured:.4f}",
    )


def test_criterion_8_property_suites():
    ok = True
    details = []

    # translation invariance, bitwise on exactly representable values
    values = [complex(4, -1), complex(-2, 3), complex(7, 5), complex(0, -8), complex(1, 1)]
    shift = complex(513, -129)
    shifted = [v + shift for v in values]
    for op in (log_D, log_Y, log_Omega):
        base, moved = op(values), op(shifted)
        ok &= [f.log_magnitude for f in base.factors] == [f.log_magnitude for f in moved.factors]
    details.append("translation bitwise")

    # homogeneity: scaling all values multiplies totals by count*log|c|
    mu = 6
    ring = [cmath.exp(2j * math.pi * k / mu) * (1 + 0.1 * k) for k in range(mu)]
    c = 0.003 - 0.001j
    for op, count in ((log_D, mu * (mu - 1)), (log_Y, 60), (log_Omega, 90)):
        base, scaled = op(ring), op([c * v for v in ring])
        target = base.total + count * math.log(abs(c))
        ok &= abs(scaled.total - target) <= 1e-10 * max(1.0, abs(target))
    details.append("homogeneity 1e-10")

    # univariate root residuals at degrees up to 30
    rng = random.Random(11)
    for degree in (5, 18, 30):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree)] + [1.0 + 0j]
        roots = univariate_roots(coeffs)
        maxc = max(abs(x) for x in coeffs)
        for r in roots:
            residual = abs(sum(cc * r**k for k, cc in enumerate(coeffs)))
            ok &= residual <= 1e-12 * maxc * max(1.0, abs(r)) ** degree
    details.append("root residuals 1e-12")

    # tracked gradient residuals
    for a, preset in (((4,), "quadratic_1d"), ((3, 3), "xy_coupled")):
        line = default_line(a, preset)
        for mag in (1e-2, 1e-4):
            eps = mag * cmath.exp(0.37j)
            cps = _alone(line, eps)
            grads = [line.phi.diff(i) for i in range(line.n)]
            for coords in cps.coords:
                parts = [
                    coords[i] ** line.a.a[i] - eps * grads[i].evaluate(coords)
                    for i in range(line.n)
                ]
                ok &= math.sqrt(sum(abs(x) ** 2 for x in parts)) <= 1e-11 * max(1.0, abs(eps))
    details.append("gradient residuals 1e-11")

    # within-collection value differences preserved across the direction ladder
    a = (5, 3)
    eps = 1e-3 * cmath.exp(0.37j)
    plain = separable_critical_set(default_line(a), eps)
    flat = dict(zip(plain.labels, plain.values.tolist()))
    bent = _alone(GenericLine(default_line(a).a, (1.0, 0.3), SparsePoly(2, {(2, 0): 0.5})), eps)
    curved = dict(zip(bent.labels, bent.values.tolist()))
    for k in range(5):
        group = [(k, l) for l in range(3)]
        for la, lb in itertools.combinations(group, 2):
            d0 = flat[la] - flat[lb]
            d1 = curved[la] - curved[lb]
            ok &= abs(d0 - d1) <= 1e-10 * abs(d0)
    details.append("ladder preservation 1e-10")

    _report("criterion 8: property suites", ok, "; ".join(details))
