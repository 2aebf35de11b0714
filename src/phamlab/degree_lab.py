"""Vanishing-order estimation along deformation rays, with verdicts.

The restriction of each discriminant product to a ray behaves as
const * eps^d as eps -> 0; d is recovered by log-log slope fitting over a
geometric grid, extrapolated with a geometric-correction (Aitken) step, and
snapped to the nearest admissible value.  Totals snap to integers: restricted
to a line the products are single-valued holomorphic functions.  Individual
factors snap to the rational exponents 1 + 1/a_j and 1 + 1/a_i + 1/a_j that
the depth hierarchy allows.
"""

from __future__ import annotations

import cmath
import itertools
import math
import statistics
from dataclasses import asdict, dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .closed_forms import (
    ExponentsLike,
    _ev,
    binom22,
    caustic_multiplicity,
    l_value,
    maxwell_multiplicity,
    mixed_depth_counts,
    mixed_stokes_multiplicity,
    pair_depth_counts,
    pure_stokes_multiplicity,
)
from .critical_tracker import (
    MAX_EPS_MAGNITUDE,
    GenericLine,
    TrackedBatch,
    critical_set,
    default_line,
)
from .discriminant_products import (
    FactorRecord,
    Kind,
    LogProductTrace,
    evaluate_trace,
)

__all__ = [
    "EpsilonGrid",
    "Verdict",
    "DegreeEstimate",
    "FactorHistogram",
    "UnclassifiedFactor",
    "ClusterLevel",
    "ClusterReport",
    "ReportRow",
    "MultiplicityReport",
    "MATCH_TOLERANCE",
    "CLASSIFY_TOLERANCE",
    "predicted_total_degree",
    "estimate_degree",
    "estimate_from_trace",
    "admissible_factor_exponents",
    "classify_factors",
    "expected_factor_histogram",
    "cluster_scaling",
    "verify_all",
    "slope_table_rows",
]

MATCH_TOLERANCE = 0.05
CLASSIFY_TOLERANCE = 0.08
INCONCLUSIVE_SPREAD = 0.2
DEFAULT_MU_CAP = 16


@dataclass(frozen=True)
class EpsilonGrid:
    """Geometric sampling of the ray parameter magnitude."""

    start: float = 1e-2
    ratio: float = 10**-0.5
    count: int = 7
    phase: float = 0.37

    def __post_init__(self) -> None:
        if not 0 < self.ratio < 1:
            raise ValueError("ratio must lie in (0, 1)")
        if not 0 < self.start <= MAX_EPS_MAGNITUDE * (1 + 1e-9):
            raise ValueError("start magnitude must lie in (0, 1e-2]")
        if self.count < 4:
            raise ValueError("need at least 4 samples")
        try:
            smallest = self.start * self.ratio ** (self.count - 1)
        except OverflowError:  # a count too large for a float underflows too
            smallest = 0.0
        if not smallest > 0:
            raise ValueError(f"{self.count} samples take |eps| below the smallest float")
        _ray(self.phase)  # rejects a non-finite phase

    def magnitudes(self) -> list[float]:
        return [self.start * self.ratio**k for k in range(self.count)]

    def samples(self) -> list[complex]:
        ray = _ray(self.phase)
        return [m * ray for m in self.magnitudes()]


def _ray(phase: float) -> complex:
    """The unit ray exp(i*phase); a non-finite phase is rejected."""
    if not math.isfinite(phase):
        raise ValueError(f"ray phase must be finite, got {phase}")
    return cmath.exp(1j * phase)


class Verdict(str, Enum):
    MATCH = "Match"
    MISMATCH = "Mismatch"
    DEGENERATE = "Degenerate"
    INCONCLUSIVE = "Inconclusive"
    UNSUPPORTED = "Unsupported"


@dataclass(frozen=True)
class DegreeEstimate:
    """Slope fit of one product's decay order, snapped and judged."""

    kind: Kind
    eps_magnitudes: tuple[float, ...]
    log_totals: tuple[float, ...]
    slopes: tuple[float, ...]
    extrapolated: float
    snapped: Optional[int]
    residual: float
    predicted: Optional[int]
    verdict: Verdict
    degenerate_hint: Optional[str] = None


def predicted_total_degree(a: ExponentsLike, kind: Kind) -> Optional[int]:
    ev = _ev(a)
    if kind is Kind.D_PAIR:
        return l_value(ev)
    if kind is Kind.HESSIAN:
        return caustic_multiplicity(ev)
    if kind is Kind.Y_TRIPLE:
        return mixed_stokes_multiplicity(ev)
    pure = pure_stokes_multiplicity(ev)
    return 2 * pure if pure is not None else None


def _format_label(label) -> str:
    if isinstance(label, tuple):
        return "(" + ",".join(str(x) for x in label) + ")"
    return str(label)


def _zero_hint(record: FactorRecord) -> str:
    labs = [_format_label(x) for x in record.indices]
    if record.kind is Kind.OMEGA_QUAD:
        return f"parallelogram: {labs[0]},{labs[1]} | {labs[2]},{labs[3]}"
    if record.kind is Kind.Y_TRIPLE:
        return f"arithmetic progression: 2*{labs[0]} = {labs[1]} + {labs[2]}"
    if record.kind is Kind.D_PAIR:
        return f"equal critical values: {labs[0]} = {labs[1]}"
    return f"vanishing Hessian determinant at {labs[0]}"


def _pairwise_slopes(mags: Sequence[float], totals: Sequence[float]) -> list[float]:
    logs = [math.log(m) for m in mags]
    return [
        (totals[k + 1] - totals[k]) / (logs[k + 1] - logs[k])
        for k in range(len(totals) - 1)
    ]


def _aitken_limit(slopes: Sequence[float]) -> float:
    """Last slope plus a geometric-correction fit from the final three slopes."""
    if len(slopes) < 3:
        return slopes[-1]
    d1 = slopes[-1] - slopes[-2]
    d0 = slopes[-2] - slopes[-3]
    if abs(d1) < 1e-9 or abs(d0) < 1e-12:
        return slopes[-1]
    sigma = d1 / d0
    if abs(sigma) >= 0.95:
        return slopes[-1]
    return slopes[-1] + d1 * sigma / (1.0 - sigma)


def _non_monotone_beyond(slopes: Sequence[float], spread: float) -> bool:
    rising = all(slopes[k + 1] >= slopes[k] - 1e-9 for k in range(len(slopes) - 1))
    falling = all(slopes[k + 1] <= slopes[k] + 1e-9 for k in range(len(slopes) - 1))
    if rising or falling:
        return False
    return max(slopes) - min(slopes) > spread


def estimate_from_trace(trace: LogProductTrace, kind: Kind, a: ExponentsLike) -> DegreeEstimate:
    ev = _ev(a)
    mags = tuple(abs(e) for e in trace.epsilon_samples)
    totals = tuple(trace.totals(kind))
    predicted = predicted_total_degree(ev, kind)
    slopes: tuple[float, ...] = ()
    extrapolated, snapped, residual, hint = math.nan, None, math.nan, None
    if trace.has_zero(kind):
        verdict = Verdict.DEGENERATE
        hint = _zero_hint(trace.first_zero(kind))
    else:
        slopes = tuple(_pairwise_slopes(mags, totals))
        if _non_monotone_beyond(slopes, INCONCLUSIVE_SPREAD):
            verdict = Verdict.INCONCLUSIVE
        else:
            extrapolated = _aitken_limit(slopes)
            snapped = round(extrapolated)
            residual = abs(extrapolated - snapped)
            if residual <= MATCH_TOLERANCE and (predicted is None or snapped == predicted):
                verdict = Verdict.MATCH
            else:
                verdict = Verdict.MISMATCH
    return DegreeEstimate(
        kind=kind,
        eps_magnitudes=mags,
        log_totals=totals,
        slopes=slopes,
        extrapolated=extrapolated,
        snapped=snapped,
        residual=residual,
        predicted=predicted,
        verdict=verdict,
        degenerate_hint=hint,
    )


def estimate_degree(line: GenericLine, kind: Kind, grid: EpsilonGrid = EpsilonGrid()) -> DegreeEstimate:
    trace = evaluate_trace(line, grid.samples(), [kind])
    return estimate_from_trace(trace, kind, line.a)


# ---------------------------------------------------------------------------
# per-factor classification


class UnclassifiedFactor(Exception):
    def __init__(self, indices, slope: float, admissible, tolerance: float):
        super().__init__(
            f"factor {indices} has slope {slope:.4f}, more than {tolerance:.4g} "
            f"from the nearest admissible exponent in {sorted(admissible)}"
        )
        self.indices = indices
        self.slope = slope


@dataclass(frozen=True)
class FactorHistogram:
    kind: Kind
    counts: dict  # Fraction -> int

    def total_degree(self) -> Fraction:
        return sum((e * c for e, c in self.counts.items()), Fraction(0))


def admissible_factor_exponents(a: ExponentsLike, kind: Kind) -> list[Fraction]:
    ev = _ev(a)
    if kind is Kind.HESSIAN:
        return [Fraction(caustic_multiplicity(ev), ev.mu)]
    singles = {1 + Fraction(1, ai) for ai in ev.a}
    doubles = {1 + Fraction(1, ai) + Fraction(1, aj) for ai in ev.a for aj in ev.a}
    return sorted(singles | doubles)


def classify_factors(
    trace: LogProductTrace,
    a: ExponentsLike,
    kind: Optional[Kind] = None,
) -> FactorHistogram:
    """Snap every factor's decay exponent and count them per exponent.

    The slope of each factor is measured between the two smallest samples,
    where curvature from next-order terms is weakest.  It snaps to the nearest
    admissible exponent only within min(CLASSIFY_TOLERANCE, half the gap to the
    next one).  The product restricted to the line is holomorphic, so a
    non-integer total degree raises ValueError.
    """
    ev = _ev(a)
    if kind is None:
        kinds = trace.kinds()
        if len(kinds) != 1:
            raise ValueError("trace holds several kinds; pass one explicitly")
        kind = kinds[0]
    if len(trace.epsilon_samples) < 2:
        raise ValueError("need at least two samples to classify factors")
    if trace.has_zero(kind):
        raise ValueError("degenerate trace: structural zero factors cannot be classified")
    admissible = admissible_factor_exponents(ev, kind)
    half_gaps = {e: [float(abs(e - other)) / 2 for other in admissible if other != e] for e in admissible}
    tolerance = {e: min([CLASSIFY_TOLERANCE] + gaps) for e, gaps in half_gaps.items()}
    last = trace.samples[-1][kind]
    prev = trace.samples[-2][kind]
    dlog = math.log(abs(trace.epsilon_samples[-1])) - math.log(abs(trace.epsilon_samples[-2]))
    counts: dict[Fraction, int] = {}
    for k, slope in enumerate(((last.logs - prev.logs) / dlog).tolist()):
        best = min(admissible, key=lambda e: abs(slope - float(e)))
        if abs(slope - float(best)) > tolerance[best]:
            raise UnclassifiedFactor(last.record(k).indices, slope, admissible, tolerance[best])
        counts[best] = counts.get(best, 0) + 1
    histogram = FactorHistogram(kind, dict(sorted(counts.items())))
    if histogram.total_degree().denominator != 1:
        raise ValueError(f"factor exponents sum to {histogram.total_degree()}, not an integer")
    return histogram


def _omega_histogram_two_vars(p: int, q: int) -> dict[Fraction, int]:
    """Quad factors of two variables by exponent, counted in closed form.

    A factor of the ordered pairs {u, v}, {w, x} of distinct points has exponent
    1 + 1/p when the two pairs differ in their multisets of x branches, else
    1 + 1/q when they differ in their y branches, else 1 + 1/p + 1/q.
    """
    # equal x multisets: all four points in one x branch, or each pair across the same two
    x_same = p * binom22(q) + math.comb(p, 2) * (q * (q - 1)) ** 2
    # of those across two x branches, the ones whose y multisets are equal too
    both = 2 * math.comb(p, 2) * math.comb(q, 2)
    counts: dict[Fraction, int] = {}
    for exponent, count in (
        (1 + Fraction(1, p), binom22(p * q) - x_same),
        (1 + Fraction(1, q), x_same - both),
        (1 + Fraction(1, p) + Fraction(1, q), both),
    ):
        if count:
            counts[exponent] = counts.get(exponent, 0) + count
    return dict(sorted(counts.items()))


def expected_factor_histogram(
    a: ExponentsLike, kind: Kind, preset: str = "linear"
) -> Optional[dict]:
    """Combinatorially predicted factor histogram, or None when unknown.

    None means no prediction exists for this arity/parity/preset combination
    (including presets that are provably degenerate, like a linear direction
    for one even exponent).
    """
    ev = _ev(a)
    if kind is Kind.D_PAIR:
        return dict(sorted(pair_depth_counts(ev).items()))
    if kind is Kind.Y_TRIPLE:
        return dict(sorted(mixed_depth_counts(ev).items()))
    if kind is Kind.HESSIAN:
        exponent = Fraction(caustic_multiplicity(ev), ev.mu)
        return {exponent: ev.mu}
    if ev.n == 1:
        d = ev.a[0]
        if d % 2 == 1:
            return {1 + Fraction(1, d): binom22(d)} if binom22(d) else {}
        if preset != "quadratic_1d":
            return None  # opposite-root pairs make the linear direction degenerate
        opposite = (d // 2) * (d // 2 - 1)
        counts = {}
        if binom22(d) - opposite:
            counts[1 + Fraction(1, d)] = binom22(d) - opposite
        if opposite:
            counts[1 + Fraction(2, d)] = opposite
        return dict(sorted(counts.items()))
    if ev.n == 2 and ev.a[0] % 2 == 1 and ev.a[1] % 2 == 1 and preset == "xy_coupled":
        return _omega_histogram_two_vars(ev.a[0], ev.a[1])
    return None


# ---------------------------------------------------------------------------
# cluster hierarchy scaling


@dataclass(frozen=True)
class ClusterLevel:
    depth: int
    measured: Optional[float]
    predicted: Fraction
    passed: bool
    pair_count: int


@dataclass(frozen=True)
class ClusterReport:
    exponents: tuple[int, ...]
    eps_pair: tuple[float, float]
    levels: tuple[ClusterLevel, ...]

    @property
    def all_pass(self) -> bool:
        return all(level.passed for level in self.levels)


def cluster_scaling(
    line: GenericLine, eps_pair: tuple[float, float] = (1e-3, 1e-4), phase: float = EpsilonGrid.phase
) -> ClusterReport:
    """Measure the per-depth critical-value gap exponents against (a_i+1)/a_i.

    Both magnitudes are sampled on the ray at angle ``phase``.  At each depth
    i the gaps between values whose labels share the first i-1 entries and
    differ at entry i are compared across the two magnitudes; the median
    two-point log-ratio exponent must sit within 0.05 of (a_i+1)/a_i.  Depths
    with no qualifying pairs pass vacuously.
    """
    m1, m2 = (float(x) for x in eps_pair)
    if not all(math.isfinite(m) and m > 0 for m in (m1, m2)):
        raise ValueError(f"the two magnitudes must be finite and > 0, got {m1} and {m2}")
    if m1 == m2:
        raise ValueError("the two magnitudes must differ")
    samples = [m * _ray(phase) for m in (m1, m2)]
    batch = TrackedBatch(line, samples)
    sets = [critical_set(line, eps, batch) for eps in samples]
    v1, v2 = (s.values.tolist() for s in sets)
    dlog = math.log(m1) - math.log(m2)
    exps = line.a.a
    levels = []
    for depth in range(1, line.n + 1):
        measured_exponents = []
        for (ka, la), (kb, lb) in itertools.combinations(enumerate(sets[0].labels), 2):
            if la[: depth - 1] == lb[: depth - 1] and la[depth - 1] != lb[depth - 1]:
                g1 = abs(v1[ka] - v1[kb])
                g2 = abs(v2[ka] - v2[kb])
                if g1 > 0 and g2 > 0:
                    measured_exponents.append(math.log(g1 / g2) / dlog)
        predicted = Fraction(exps[depth - 1] + 1, exps[depth - 1])
        if measured_exponents:
            med = statistics.median(measured_exponents)
            passed = abs(med - float(predicted)) <= MATCH_TOLERANCE
            levels.append(ClusterLevel(depth, med, predicted, passed, len(measured_exponents)))
        else:
            levels.append(ClusterLevel(depth, None, predicted, True, 0))
    return ClusterReport(exps, (m1, m2), tuple(levels))


# ---------------------------------------------------------------------------
# the full verification table


@dataclass(frozen=True)
class ReportRow:
    quantity: str
    closed_form: Optional[int]
    estimate: Optional[float]
    snapped: Optional[float]
    residual: Optional[float]
    verdict: str
    hint: Optional[str] = None


@dataclass(frozen=True)
class MultiplicityReport:
    exponents: tuple[int, ...]
    preset: Optional[str]  # None when the caller's line comes from no preset
    grid: EpsilonGrid
    rows: tuple[ReportRow, ...]
    estimates: dict = field(compare=False, repr=False, default_factory=dict)

    @property
    def all_match(self) -> bool:
        return all(r.verdict in (Verdict.MATCH.value, Verdict.UNSUPPORTED.value) for r in self.rows)

    @property
    def any_degenerate(self) -> bool:
        return any(r.verdict == Verdict.DEGENERATE.value for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "preset": self.preset,
            "grid": asdict(self.grid),
            "rows": [asdict(r) for r in self.rows],
            "all_match": self.all_match,
        }


def verify_all(
    a: ExponentsLike,
    preset: Optional[str] = "linear",
    grid: EpsilonGrid = EpsilonGrid(),
    mu_cap: int = DEFAULT_MU_CAP,
    line: Optional[GenericLine] = None,
) -> MultiplicityReport:
    """Measure every product degree on one line and judge it against the formulas.

    Rows: pair-product degree vs L, Hessian slope vs C, the derived Maxwell
    split (deg D - 3C)/2 vs M, triple-product degree vs the mixed Stokes
    multiplicity, and half the quad-product degree vs the pure Stokes
    multiplicity when a closed form exists for the parity at hand.
    """
    ev = _ev(a)
    if ev.mu > mu_cap:
        raise ValueError(f"mu = {ev.mu} exceeds the cap {mu_cap}")
    if line is None:
        line = default_line(ev, preset)
    elif line.a != ev:
        raise ValueError(f"line exponents {line.a.a} do not match {ev.a}")

    pure = pure_stokes_multiplicity(ev)
    kinds = [Kind.D_PAIR, Kind.HESSIAN, Kind.Y_TRIPLE]
    if pure is not None:
        kinds.append(Kind.OMEGA_QUAD)
    trace = evaluate_trace(line, grid.samples(), kinds)
    estimates = {kind: estimate_from_trace(trace, kind, ev) for kind in kinds}

    pair, hessian = estimates[Kind.D_PAIR], estimates[Kind.HESSIAN]
    rows = (
        _row("pair_product_degree", l_value(ev), [(1, pair)]),
        _row("caustic", caustic_multiplicity(ev), [(1, hessian)]),
        _row("maxwell", maxwell_multiplicity(ev), [(1, pair), (-3, hessian)], 2),
        _row("mixed_stokes", mixed_stokes_multiplicity(ev), [(1, estimates[Kind.Y_TRIPLE])]),
        _row("pure_stokes", pure, [(1, estimates.get(Kind.OMEGA_QUAD))], 2),
    )
    return MultiplicityReport(ev.a, preset, grid, rows, estimates)


def _row(
    quantity: str, closed_form: Optional[int], parts: Sequence[tuple[int, DegreeEstimate]], divisor: int = 1
) -> ReportRow:
    """Row for sum c * degree / divisor over (c, estimate) parts, e.g. Maxwell = (deg D - 3C)/2.

    No closed form gives an Unsupported row.  Degenerate wins over Inconclusive
    and takes the hint of the first degenerate part; the row is a Match only
    when every part matches and the divided snap equals the closed form.  Only
    a Match or Mismatch carries numbers; its residual is |estimate - closed form|.
    """
    if closed_form is None:
        hint = "no closed form for this arity/parity"
        return ReportRow(quantity, None, None, None, None, Verdict.UNSUPPORTED.value, hint)
    estimates = [est for _, est in parts]
    degenerate = [est for est in estimates if est.verdict is Verdict.DEGENERATE]
    if degenerate:
        return ReportRow(
            quantity, closed_form, None, None, None, Verdict.DEGENERATE.value, degenerate[0].degenerate_hint
        )
    if any(est.verdict is Verdict.INCONCLUSIVE for est in estimates):
        return ReportRow(quantity, closed_form, None, None, None, Verdict.INCONCLUSIVE.value)
    # the first term starts the sum, so a lone -0.0 estimate keeps its sign
    terms = [c * est.extrapolated for c, est in parts]
    estimate = sum(terms[1:], terms[0]) / divisor
    total = sum(c * est.snapped for c, est in parts)
    whole, remainder = divmod(total, divisor)
    snapped: float = total / divisor if remainder else whole
    ok = all(est.verdict is Verdict.MATCH for est in estimates) and snapped == closed_form
    verdict = Verdict.MATCH if ok else Verdict.MISMATCH
    return ReportRow(quantity, closed_form, estimate, snapped, abs(estimate - closed_form), verdict.value)


def slope_table_rows(report: MultiplicityReport) -> list[tuple]:
    """Rows (kind, eps_magnitude, log_total, slope) for CSV export.

    The slope column holds the segment slope ending at the row's sample; the
    first sample of each kind has none.
    """
    rows = []
    for kind, est in report.estimates.items():
        for k, mag in enumerate(est.eps_magnitudes):
            slope = est.slopes[k - 1] if 0 < k <= len(est.slopes) else None
            rows.append((kind.value, mag, est.log_totals[k], slope))
    return rows
