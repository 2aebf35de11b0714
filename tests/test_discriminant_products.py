"""Product-evaluation tests: hand enumerations, symmetries, structural zeros."""

import cmath
import itertools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from phamlab import discriminant_products
from phamlab.closed_forms import binom12, binom22
from phamlab.critical_tracker import CriticalPointSet, TrackedBatch, critical_set, default_line, line_function
from phamlab.degree_lab import EpsilonGrid, verify_all
from phamlab.discriminant_products import (
    ZERO_COEF,
    Kind,
    LogProduct,
    LogProductTrace,
    evaluate_trace,
    factor_count,
    log_D,
    log_hessian_product,
    log_Omega,
    log_Y,
    products_at,
)
from phamlab.polyalg import SparsePoly

EPS = 1e-3 * cmath.exp(0.37j)


def _alone(line, eps):
    """The critical set of one sample, tracked in a batch of its own."""
    return critical_set(TrackedBatch(line, [eps]), eps)


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
            pts = _alone(line, eps)
            result = log_hessian_product(line_function(line, eps), pts)
            assert len(result.factors) == 3
            # product over the three branches of |3 z^2| is 27 |eps|^2
            assert result.total == pytest.approx(math.log(27 * mag**2), abs=1e-9)
            totals.append(result.total)
        slope = (totals[1] - totals[0]) / (math.log(mags[1]) - math.log(mags[0]))
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_morse_constant(self):
        line = default_line((1,))
        pts = _alone(line, 0.004)
        result = log_hessian_product(line_function(line, 0.004), pts)
        assert result.total == pytest.approx(0.0, abs=1e-12)

    def test_differentiated_once_per_sample(self, monkeypatch):
        # the second derivatives are taken once for the sample, not once per point
        line = default_line((3, 3), "xy_coupled")
        points = _alone(line, EPS)
        f_eps = line_function(line, EPS)
        calls = []
        original = SparsePoly.diff

        def counting(poly, var):
            calls.append(var)
            return original(poly, var)

        monkeypatch.setattr(SparsePoly, "diff", counting)
        full = log_hessian_product(f_eps, points)
        per_set = len(calls)
        first = CriticalPointSet(points.epsilon, points.labels[:1], points.coords[:1], points.values[:1])
        single = log_hessian_product(f_eps, first)
        assert per_set == len(calls) - per_set == line.n + line.n**2
        assert single.logs.tolist() == full.logs[:1].tolist()


class TestProductsAt:
    def test_kinds_and_counts(self):
        line = default_line((3, 3))
        out = products_at(line, _alone(line, EPS), list(Kind))
        for kind in Kind:
            assert len(out[kind].factors) == factor_count(kind, 9)

    def test_trace_takes_each_tracked_set_through_critical_set(self, monkeypatch):
        # the batched trace still asks critical_set once per sample, and gets
        # the products of tracking each sample alone
        line = default_line((3, 2), "xy_coupled")
        samples = [m * cmath.exp(0.37j) for m in (1e-3, 10**-3.5, 1e-4)]
        expected = [products_at(line, _alone(line, eps), list(Kind)) for eps in samples]
        calls = []

        def counted(batch, eps):
            calls.append(eps)
            return critical_set(batch, eps)

        monkeypatch.setattr(discriminant_products, "critical_set", counted)
        trace = evaluate_trace(line, samples, list(Kind))
        assert calls == samples
        for got, want in zip(trace.samples, expected):
            assert list(got) == list(want)
            for kind in Kind:
                assert got[kind].total == want[kind].total
                np.testing.assert_array_equal(got[kind].logs, want[kind].logs)

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
        return indices, (None if magnitude <= threshold else float(np.log(magnitude)))

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


def reference_total(kind, ref):
    """The documented sum: strictly left to right over the kept logs of the forward rows,
    those whose first group ranks below the second, doubled for D and Omega, where each
    mirror adds its forward row's log again; over every row for Y."""
    first = {Kind.D_PAIR: 1, Kind.OMEGA_QUAD: 2}.get(kind)
    total = 0.0
    for indices, log in ref:
        if log is not None and (first is None or indices[:first] < indices[first:]):
            total += log
    return total if first is None else total + total


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
            assert result.total == reference_total(kind, ref)
            assert result.zero_count == sum(log is None for _, log in ref)
            assert [result.record(k) for k in range(len(result.logs))] == list(result.factors)
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


class TestIndexTables:
    def test_trace_builds_each_table_once_and_shares_its_rows(self):
        memo = discriminant_products._table
        memo.cache_clear()
        line = default_line((7, 5))
        trace = evaluate_trace(line, EpsilonGrid().samples(), list(Kind))
        assert len(trace.samples) == 7
        # the Hessian's identity table too: one per (kind, mu), not one per sample
        assert memo.cache_info().misses == len(Kind)
        tables = {kind: trace.samples[0][kind].table for kind in Kind}
        for kind, table in tables.items():
            assert all(s[kind].table is table for s in trace.samples)
            assert not table.columns.flags.writeable
            assert table.columns.dtype == np.uint8
            assert table.count == factor_count(kind, 35)
        again = evaluate_trace(line, EpsilonGrid().samples(), list(Kind))
        assert memo.cache_info().misses == len(Kind)
        assert all(s[kind].table is tables[kind] for s in again.samples for kind in Kind)

    def test_rows_widen_past_uint8(self):
        values = [complex(k, k * k % 7) for k in range(257)]
        result = log_D(values)
        assert result.table.rows.dtype == np.uint16
        assert result.record(0).indices == (0, 1)
        assert result.record(len(result.logs) - 1).indices == (256, 255)

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("mu", range(1, 15))
    def test_table_equals_its_definition(self, kind, mu):
        assert_table_is(discriminant_products._index_table(kind, mu), reference_table(kind, mu))

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("mu", range(1, 10))
    def test_rows_equal_a_sorted_enumeration(self, kind, mu):
        # rows enumerated as ordered tuples of disjoint groups, not through the points outside
        # the first group; the columns hold the forward rows alone
        first, second, _ = discriminant_products._TUPLES[kind]
        groups = lambda size: list(itertools.combinations(range(mu), size))
        rows = sorted(g + h for g in groups(first) for h in groups(second) if not set(g) & set(h))
        table = discriminant_products._index_table(kind, mu)
        assert table.count == len(rows)
        assert table.rows.tolist() == [list(row) for row in rows]
        forward = [row for row in rows if first != second or row[:first] < row[first:]]
        assert table.columns.T.tolist() == [list(row) for row in forward]

    @pytest.mark.parametrize("kind, mu, dtype", [
        (Kind.D_PAIR, 256, np.uint8),
        (Kind.D_PAIR, 257, np.uint16),
        (Kind.HESSIAN, 256, np.uint8),
        (Kind.HESSIAN, 257, np.uint16),
    ])
    def test_table_at_a_dtype_boundary(self, kind, mu, dtype):
        table = discriminant_products._index_table(kind, mu)
        assert table.rows.dtype == dtype
        assert_table_is(table, reference_table(kind, mu))

    def test_sampled_rows_of_y_past_uint8(self):
        mu, partners = 257, math.comb(256, 2)
        table = discriminant_products._index_table(Kind.Y_TRIPLE, mu)
        assert table.rows.dtype == np.uint16 and table.rows.shape == (mu * partners, 3)
        assert (table.columns == table.rows.T).all()
        assert not table.rows.flags.writeable and not table.columns.flags.writeable
        rng = random.Random(257)
        # both ends of every first group's block where a point passes 255, and random rows
        picks = {0, len(table.rows) - 1, *(rng.randrange(len(table.rows)) for _ in range(200))}
        for i in (0, 1, 254, 255, 256):
            picks |= {i * partners, i * partners + 1, (i + 1) * partners - 2, (i + 1) * partners - 1}
        for k in sorted(picks):
            i, t = divmod(k, partners)
            outside = [x for x in range(mu) if x != i]
            second = next(itertools.islice(itertools.combinations(outside, 2), t, None))
            assert tuple(table.rows[k].tolist()) == (i, *second)

    def test_transient_memory_of_the_omega_table(self):
        discriminant_products._index_table(Kind.OMEGA_QUAD, 9)  # one-time numpy set-up stays outside
        tracemalloc.start()
        try:
            table = discriminant_products._index_table(Kind.OMEGA_QUAD, 63)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table keeps its forward rows alone, and no temporary as long as them, even a
        # one-byte one (1.8 MB here)
        assert peak - table.columns.nbytes < 2e6
        tracemalloc.start()
        try:
            rows = table.rows.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every row, gathered on demand, also with no temporary as long as the table
        assert peak - rows < 2e6


def reference_table(kind, mu):
    """(rows, columns) from the definition: disjoint (first, second) groups in lexicographic
    order; with equal group sizes, the forward rows (first group before second) as columns."""
    first, second, _ = discriminant_products._TUPLES[kind]
    rows = [
        g + h
        for g in itertools.combinations(range(mu), first)
        for h in itertools.combinations([x for x in range(mu) if x not in g], second)
    ]
    dtype = np.min_scalar_type(mu - 1)
    table = np.array(rows, dtype).reshape(len(rows), first + second)
    if first != second:
        return table, table.T
    forward = [row for row in rows if row[:first] < row[first:]]
    return table, np.array(forward, dtype).reshape(len(forward), first + second).T


def assert_table_is(table, expected):
    assert table.count == len(expected[0])
    for field, want in zip(("rows", "columns"), expected):
        got = getattr(table, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert (got == want).all(), field
        assert not got.flags.writeable, field


@pytest.fixture(scope="module")
def tracked_7_5_values():
    """Critical values of the tracked (7,5) xy_coupled set at EPS (mu = 35)."""
    return _alone(default_line((7, 5), "xy_coupled"), EPS).values


def kernel_magnitudes(kind, values):
    """|factor| of every row, formed as the kernel forms it: each mirror as its forward row."""
    table = discriminant_products._index_table(kind, len(values))
    first, second, coefs = discriminant_products._TUPLES[kind]
    rows = table.rows.astype(np.intp)
    if first == second:
        # disjoint sorted groups differ in their first point
        rows = np.where(rows[:, :1] > rows[:, first : first + 1], np.roll(rows, first, axis=1), rows)
    v = np.asarray(values, dtype=complex)
    factors = coefs[0] * v[rows[:, 0]]
    for coef, column in zip(coefs[1:], rows.T[1:]):
        factors += coef * v[column]
    return np.hypot(factors.real, factors.imag)


def oracle_terms(line, eps):
    """Term map of f - eps*phi in mpmath numbers: the exact head, and eps times each phi coefficient."""
    terms = {}
    for i, ai in enumerate(line.a):
        terms[(0,) * i + (ai + 1,) + (0,) * (line.n - 1 - i)] = mpmath.mpf(1) / (ai + 1)
    for exp, coef in line.phi.terms.items():
        terms[exp] = -mpmath.mpc(eps) * mpmath.mpc(coef)
    return terms


def oracle_eval(terms, z, *wrt):
    """The term map, differentiated once by each variable index in wrt, at the point z."""
    total = mpmath.mpc(0)
    for exp, coef in terms.items():
        exp = list(exp)
        for i in wrt:
            coef, exp[i] = coef * exp[i], exp[i] - 1
        if coef:
            total += coef * mpmath.fprod(z[i] ** e for i, e in enumerate(exp))
    return total


def oracle_log_total(factors, weight=1):
    """weight times the sum of log|f| over the factors that are not structural zeros, and
    weight times the count of those zeros; at the working precision a structural zero,
    such as a parallelogram of a separable line, is at most 1e-30 times the largest |f|."""
    magnitudes = [abs(f) for f in factors]
    floor = mpmath.mpf(10) ** -30 * max(magnitudes)
    kept = [m for m in magnitudes if m > floor]
    return weight * mpmath.fsum(mpmath.log(m) for m in kept), weight * (len(magnitudes) - len(kept))


def oracle_log_totals(terms, points):
    """(total, zero count) of log|D|, log|Y|, log|Omega| and log|Hessian product| over the points."""
    n = len(points[0])
    v = [oracle_eval(terms, z) for z in points]
    pairs = list(itertools.combinations(range(len(v)), 2))
    hessians = [
        mpmath.det(mpmath.matrix([[oracle_eval(terms, z, i, j) for j in range(n)] for i in range(n)]))
        for z in points
    ]
    # D and Omega take each unordered pair (of points, or of disjoint pairs) in both orders
    return {
        Kind.D_PAIR: oracle_log_total((v[i] - v[j] for i, j in pairs), weight=2),
        Kind.Y_TRIPLE: oracle_log_total(
            2 * v[i] - v[j] - v[k] for i in range(len(v)) for j, k in pairs if i not in (j, k)
        ),
        Kind.OMEGA_QUAD: oracle_log_total(
            (
                v[i] + v[j] - v[k] - v[m]
                for (i, j), (k, m) in itertools.combinations(pairs, 2)
                if not {i, j} & {k, m}
            ),
            weight=2,
        ),
        Kind.HESSIAN: oracle_log_total(hessians),
    }


class TestLogFunction:
    """The kernels take every factor log with np.log; these pin what that relies on."""

    def test_np_log_bits_do_not_depend_on_the_call_shape(self):
        rng = np.random.default_rng(8)
        n = 10**5
        magnitudes = np.concatenate([rng.uniform(0, 1, n // 2), 10.0 ** rng.uniform(-30, 3, n - n // 2)])
        arrays = [magnitudes] + [magnitudes[length : 2 * length] for length in (1, 3, 7, 9, 17)]
        for array in arrays:
            whole = np.log(array)
            scalars = np.array([np.log(m) for m in array.tolist()])
            mask = rng.random(len(array)) < 0.7
            masked = np.full(len(array), np.nan)
            np.log(array, out=masked, where=mask)
            assert whole.tobytes() == scalars.tobytes()
            assert masked[mask].tobytes() == whole[mask].tobytes()
            assert np.isnan(masked[~mask]).all()

    def test_omega_logs_within_one_ulp_of_math_log(self, tracked_7_5_values):
        product = log_Omega(tracked_7_5_values)
        magnitudes = kernel_magnitudes(Kind.OMEGA_QUAD, tracked_7_5_values)
        kept = ~np.isnan(product.logs)
        assert kept.all()
        assert product.logs.tobytes() == np.log(magnitudes).tobytes()
        reference = np.array([math.log(m) for m in magnitudes.tolist()])
        assert (np.abs(product.logs - reference) <= np.spacing(np.abs(reference))).all()

    def test_y_logs_within_one_ulp_of_mpmath(self, tracked_7_5_values):
        product = log_Y(tracked_7_5_values)
        magnitudes = kernel_magnitudes(Kind.Y_TRIPLE, tracked_7_5_values)
        kept = ~np.isnan(product.logs)
        assert kept.sum() == 19635
        with mpmath.workdps(40):
            ulps = [
                abs(mpmath.mpf(log) - mpmath.log(magnitude)) / math.ulp(log)
                for log, magnitude in zip(product.logs[kept].tolist(), magnitudes[kept].tolist())
            ]
        assert max(ulps) <= 1

    @pytest.mark.parametrize(
        "a, preset",
        [
            ((3, 2), "xy_coupled"),
            ((3, 3), "xy_coupled"),
            ((4, 3), "xy_coupled"),
            ((5,), "quadratic_1d"),
            ((3, 2), "linear"),
            ((3, 3), "linear"),
        ],
    )
    def test_values_and_totals_against_a_50_digit_oracle(self, a, preset):
        # both critical-value evaluators and every product total, at the ends of the default grid;
        # the linear lines' sets are closed forms, the others tracked, and the linear lines'
        # Omega products have structural zeros that the kernel and the oracle both leave out
        line = default_line(a, preset)
        samples = EpsilonGrid().samples()
        for eps in (samples[0], samples[-1]):
            cps = _alone(line, eps)
            totals = evaluate_trace(line, [eps], list(Kind)).samples[0]
            with mpmath.workdps(50):
                terms = oracle_terms(line, eps)
                gradient = [lambda *z, i=i: oracle_eval(terms, z, i) for i in range(line.n)]
                jacobian = lambda *z: [[oracle_eval(terms, z, i, j) for j in range(line.n)] for i in range(line.n)]
                polished = [
                    list(mpmath.findroot(gradient, [mpmath.mpc(c) for c in point], J=jacobian))
                    for point in cps.coords.tolist()
                ]
                exact = [oracle_eval(terms, [mpmath.mpc(c) for c in point]) for point in cps.coords.tolist()]
                for computed in (cps.values, line_function(line, eps).eval_batch(cps.coords)):
                    for got, want in zip(computed.tolist(), exact):
                        assert abs(got - want) <= 4 * math.ulp(float(abs(want)))
                for kind, (want, zeros) in oracle_log_totals(terms, polished).items():
                    assert totals[kind].zero_count == zeros, kind
                    assert abs(totals[kind].total - want) <= 1e-13 * abs(want), kind


def refuse_logs(self):
    raise AssertionError("per-factor logs were built")


def first_zero_record(product):
    """The first-zero record that a trace of this one product gives."""
    return LogProductTrace((EPS,), ({product.kind: product},)).first_zero(product.kind)


class TestChunkBoundaries:
    """The kernel walks rows in chunks of _CHUNK; no chunk size may change a bit."""

    @pytest.fixture(params=[1, 2, 7])
    def chunk(self, request, monkeypatch):
        # tables are built in blocks of _CHUNK rows: every chunk size builds its own
        discriminant_products._table.cache_clear()
        monkeypatch.setattr(discriminant_products, "_CHUNK", request.param)
        yield request.param
        discriminant_products._table.cache_clear()

    @pytest.mark.parametrize(
        "mu, plant", [(mu, plant) for mu in range(1, 9) for plant in PLANTS if mu >= PLANTS[plant]]
    )
    def test_small_chunks_match_the_scalar_reference(self, chunk, mu, plant):
        values = planted_values(mu, plant, seed=100 * mu + len(plant or ""))
        labels = [(k, k % 3) for k in range(mu)]
        expected = reference_products(values)
        for kind, op in KERNELS.items():
            result = op(values, labels)
            ref = expected[kind]
            assert result.total == reference_total(kind, ref)
            zeros = [k for k, (_, log) in enumerate(ref) if log is None]
            assert first_zero_record(result) == (result.factors[zeros[0]] if zeros else None)
            want = np.array([np.nan if log is None else log for _, log in ref])
            assert result.logs.tobytes() == want.tobytes()
            # each record rebuilds the logs, so check the ends, both sides of the first
            # chunk boundaries and every zero; ``factors`` checks all rows at once
            picks = {0, len(ref) - 1, *range(chunk - 1, 8 * chunk + 1), *zeros} & set(range(len(ref)))
            for k in sorted(picks):
                assert result.record(k) == result.factors[k]
            assert [f.indices for f in result.factors] == [tuple(labels[i] for i in idx) for idx, _ in ref]
            assert [f.log_magnitude for f in result.factors] == [log for _, log in ref]

    @pytest.mark.parametrize("kind", [Kind.D_PAIR, Kind.Y_TRIPLE, Kind.OMEGA_QUAD])
    @pytest.mark.parametrize("mu", [1, 2, 3, 4, 5, 8, 9])
    def test_tables_built_in_blocks_equal_one_block(self, chunk, kind, mu):
        # every row is gathered in blocks of about _CHUNK rows too
        fields = ("columns", "count", "rows")
        small = discriminant_products._index_table(kind, mu)
        small = {field: getattr(small, field) for field in fields}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(discriminant_products, "_CHUNK", 1 << 20)
            whole = discriminant_products._index_table(kind, mu)
            whole = {field: getattr(whole, field) for field in fields}
        assert small.pop("count") == whole.pop("count")
        for field in small:
            a, b = small[field], whole[field]
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
            assert not a.flags.writeable

    def test_mirror_reads_a_forward_row_of_an_earlier_chunk(self, chunk):
        values = planted_values(6, None, seed=5)
        table = discriminant_products._index_table(Kind.OMEGA_QUAD, 6)
        rows = [tuple(r) for r in table.rows.tolist()]
        position = {row: k for k, row in enumerate(rows)}
        earlier = [
            k for k, row in enumerate(rows) if position[row[2:] + row[:2]] // chunk < k // chunk
        ]
        assert earlier  # every chunk size here splits some mirror from its forward row
        result = log_Omega(values)
        ref = reference_products(values)[Kind.OMEGA_QUAD]
        assert result.logs[earlier].tolist() == [ref[k][1] for k in earlier]

    def test_hessian_product_does_not_depend_on_the_chunk(self, chunk):
        line = default_line((3, 3), "xy_coupled")
        points, f_eps = _alone(line, EPS), line_function(line, EPS)
        small = log_hessian_product(f_eps, points)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(discriminant_products, "_CHUNK", 1 << 20)
            whole = log_hessian_product(f_eps, points)
        assert small.total == whole.total
        assert small.logs.tobytes() == whole.logs.tobytes()
        # the identity table the Hessian forms is the one its (1, 0) groups give
        table = discriminant_products._index_table(Kind.HESSIAN, len(points.labels))
        assert small.table.rows.dtype == table.rows.dtype and (small.table.rows == table.rows).all()
        assert (small.table.columns == table.columns).all()

    def test_leading_chunk_without_kept_logs(self, chunk):
        # v_0 = v_1 = ... = v_chunk: the first ``chunk`` rows, (0, 1) ... (0, chunk), are all zero
        mu = chunk + 3
        values = planted_values(mu, None, seed=chunk)
        values[1 : chunk + 1] = [values[0]] * chunk
        result = log_D(values)
        ref = reference_products(values)[Kind.D_PAIR]
        assert all(log is None for _, log in ref[:chunk])
        assert ref[chunk][1] is not None
        assert result.total == reference_total(Kind.D_PAIR, ref)
        assert first_zero_record(result) == result.factors[0]
        assert result.zero_count == sum(log is None for _, log in ref)


    @pytest.mark.parametrize("plant", ["equal_pair", "progression", "parallelogram"])
    @pytest.mark.parametrize("mu", range(4, 10))
    def test_first_zero_is_the_first_nan_row(self, chunk, mu, plant):
        # shuffled values put the planted points anywhere, so a zero's forward row may lie
        # in any block and chunk
        rng = random.Random(mu)
        for trial in range(3):
            values = planted_values(mu, plant, seed=trial)
            rng.shuffle(values)
            for kind, op in KERNELS.items():
                result = op(values)
                nan = np.flatnonzero(np.isnan(result.logs)).tolist()
                assert first_zero_record(result) == (result.factors[nan[0]] if nan else None), kind
                if nan:
                    assert result.record(nan[0]) == result.factors[nan[0]]
            assert KERNELS[PLANTED_KIND[plant]](values).has_zero


class TestVerifyKeepsTotalsOnly:
    """verify reads totals and first zeros; it never forms per-factor logs."""

    def test_match_rows_build_no_logs(self, monkeypatch):
        monkeypatch.setattr(LogProduct, "logs", property(refuse_logs))
        report = verify_all((7, 5), "xy_coupled", mu_cap=64)
        assert [r.verdict for r in report.rows][:3] == ["Match"] * 3

    @pytest.mark.parametrize("a, preset", [((7, 5), "xy_coupled"), ((3, 3), "xy_coupled"), ((3, 3, 2), "linear")])
    def test_verify_derives_no_rows(self, monkeypatch, a, preset):
        def refuse(table):
            raise AssertionError(f"{table.kind.value}: rows derived")

        discriminant_products._table.cache_clear()  # no table that earlier tests expanded
        monkeypatch.setattr(discriminant_products._IndexTable, "rows", property(refuse))
        report = verify_all(a, preset, mu_cap=64)
        assert not report.any_degenerate and report.rows[0].verdict == "Match"

    def test_degenerate_hint_reads_the_stored_index(self, monkeypatch):
        monkeypatch.setattr(LogProduct, "logs", property(refuse_logs))
        row = verify_all((32,), mu_cap=64).rows[4]
        assert row.verdict == "Degenerate"
        assert row.hint == "parallelogram: (0),(16) | (1),(17)"

    def test_peak_traced_memory_of_7_5(self):
        verify_all((3, 3), "xy_coupled")  # imports and one-time caches stay outside the window
        tracemalloc.start()
        try:
            verify_all((7, 5), "xy_coupled", mu_cap=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6
