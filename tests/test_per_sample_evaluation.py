"""Per-sample Hessian determinants, closed-form sets, zero thresholds and pair distances.

Each is checked byte for byte against a per-point reference kept here: the
one-determinant-per-point Hessian over one-point eval_batch calls, the
per-label closed-form coordinate loop and the built-in-abs zero threshold.
f - eps*phi, phi and derivatives are checked against a chain of validated
constructions (linear part, sum, scaling, derivative).  These pin the
contract, so they hold for the per-point code as well.
"""

import cmath
import itertools
import math
import struct

import numpy as np
import pytest

from phamlab import critical_tracker, discriminant_products
from phamlab.critical_tracker import (
    CriticalPointSet,
    GenericLine,
    TrackedBatch,
    critical_set,
    default_line,
    jittered_line,
    line_function,
    separable_critical_set,
)
from phamlab.degree_lab import EpsilonGrid, verify_all
from phamlab.discriminant_products import ZERO_COEF, Kind, evaluate_trace, products_at
from phamlab.polyalg import SparsePoly, hessian_det_at

GRID = EpsilonGrid()
# n = 1..5 on the linear preset, each with strictly falling exponents
LINEAR = [(5,), (4, 3), (4, 3, 2), (5, 4, 3, 2), (6, 5, 4, 3, 2)]
EQUAL = [(3, 3), (2, 2, 2), (3, 3, 3, 2), (2, 2, 2, 2, 2)]
TAIL_3_3_3 = {(1, 1, 1): 0.003, (2, 1, 0): 0.002}  # non-constant Hessian entries


def _reference_evaluate(p, z):
    """eval_batch at the one point z, as a one-element array."""
    return p.eval_batch(np.array([z], dtype=complex))


def _reference_add(p, r):
    merged = dict(p.terms)
    for exp, coef in r.terms.items():
        merged[exp] = merged.get(exp, 0j) + coef
    return SparsePoly(p.n_vars, merged)


def _reference_diff(p, var):
    """The derivative's term map, passed through the validating constructor."""
    out = {}
    for exp, coef in p.terms.items():
        e = exp[var]
        if e:
            key = exp[:var] + (e - 1,) + exp[var + 1 :]
            out[key] = out.get(key, 0j) + coef * e
    return SparsePoly(p.n_vars, out)


def _reference_phi(line):
    """The unit-vector linear part q_1 z_1 + ... + q_n z_n, plus the tail."""
    n = line.n
    linear = {tuple(int(i == k) for i in range(n)): qk for k, qk in enumerate(line.q)}
    return _reference_add(SparsePoly(n, linear), line.phi_tail)


def _reference_line_function(line, eps):
    """The Pham head plus phi scaled by -eps, each a polynomial of its own."""
    n = line.n
    head = {tuple(ai + 1 if i == k else 0 for i in range(n)): 1.0 / (ai + 1) for k, ai in enumerate(line.a)}
    scaled = SparsePoly(n, {e: c * complex(-eps) for e, c in _reference_phi(line).terms.items()})
    return _reference_add(SparsePoly(n, head), scaled)


def _reference_hessian_det_at(p, points):
    """A one-point eval_batch call per entry and one np.linalg.det call per point."""
    n = p.n_vars
    firsts = [_reference_diff(p, i) for i in range(n)]
    seconds = [[_reference_diff(firsts[i], j) for j in range(n)] for i in range(n)]
    matrices = [[[_reference_evaluate(h, z) for h in row] for row in seconds] for z in points]
    if n == 1:
        return [complex(m[0][0][0]) for m in matrices]
    if n == 2:
        return [complex((m[0][0] * m[1][1] - m[0][1] * m[1][0])[0]) for m in matrices]
    return [complex(np.linalg.det(np.array(m)[..., 0])) for m in matrices]


def _reference_separable(line, eps):
    """The closed-form coordinates built one label at a time in Python; the values from _values_at."""
    eps = critical_tracker._check_eps(eps)
    exps = line.a.a
    n = len(exps)
    principal = [(line.q[i] * eps) ** (1.0 / exps[i]) for i in range(n)]
    branch_coord = [
        [principal[i] * cmath.exp(2j * math.pi * k / exps[i]) for k in range(exps[i])]
        for i in range(n)
    ]
    labels = tuple(itertools.product(*[range(ai) for ai in exps]))
    coords = np.array([[branch_coord[i][k] for i, k in enumerate(label)] for label in labels], dtype=complex)
    result = CriticalPointSet(eps, labels, coords, critical_tracker._values_at(line, eps, coords))
    critical_tracker._validate_set(line, eps, result)
    return result


def _reference_threshold(values):
    return ZERO_COEF * max((abs(v) for v in values.tolist()), default=0.0)


def _reference_distances(coords):
    rows, cols = critical_tracker._pairs(coords.shape[-2])
    diff = coords.take(rows, axis=-2) - coords.take(cols, axis=-2)
    return np.sqrt((np.abs(diff) ** 2).sum(axis=-1))


def _bits(cps):
    return cps.epsilon, cps.labels, cps.coords.tobytes(), cps.values.tobytes()


def _float_bits(x):
    return np.float64(x).tobytes()


def _term_bits(p):
    """Variable count, then exponent and packed coefficient of each term in stored order."""
    assert all(type(c) is complex for c in p.terms.values())
    return p.n_vars, [(exp, struct.pack("<dd", c.real, c.imag)) for exp, c in p.terms.items()]


def _dets_bits(dets):
    assert all(type(d) is complex for d in dets)
    return np.array(dets, dtype=complex).tobytes()


def _lines():
    """(name, line) of every case: linear n = 1..5 plain and jittered, equal exponents, tracked lines."""
    out = []
    for a in LINEAR + EQUAL:
        out.append((f"linear{a}", default_line(a)))
        out.append((f"linear{a}-jitter", jittered_line(default_line(a), 11)))
    out += [
        ("xy_coupled(4, 3)", default_line((4, 3), "xy_coupled")),
        ("xy_coupled(5, 5)-jitter", jittered_line(default_line((5, 5), "xy_coupled"), 5)),
        ("quadratic_1d(8,)", default_line((8,), "quadratic_1d")),
    ]
    base = default_line((3, 3, 3))
    out.append(("tail(3, 3, 3)", GenericLine(base.a, base.q, SparsePoly(3, TAIL_3_3_3))))
    return out


LINES = _lines()
LINE_IDS = [name for name, _ in LINES]


@pytest.fixture(scope="module")
def sets():
    """name -> the critical sets of that line over GRID, tracked lines in one batch."""
    out = {}
    for name, line in LINES:
        batch = TrackedBatch(line, GRID.samples())
        out[name] = [critical_set(line, eps, batch) for eps in GRID.samples()]
    return out


class TestHessianAgainstPerPoint:
    @pytest.mark.parametrize("name, line", LINES, ids=LINE_IDS)
    def test_determinants_are_the_per_point_bits(self, sets, name, line):
        for cps in sets[name]:
            f_eps = line_function(line, cps.epsilon)
            points = cps.coords.tolist()
            assert _dets_bits(hessian_det_at(f_eps, points)) == _dets_bits(_reference_hessian_det_at(f_eps, points))

    def test_array_and_list_points_give_the_same_bits(self, sets):
        # an array caller gets the bits of the same points passed as a list
        name, line = LINES[-1]
        cps = sets[name][0]
        f_eps = line_function(line, cps.epsilon)
        assert _dets_bits(hessian_det_at(f_eps, cps.coords)) == _dets_bits(
            _reference_hessian_det_at(f_eps, cps.coords.tolist())
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_polynomials_and_points(self, n):
        rng = np.random.default_rng(n)
        terms = {}
        for _ in range(8):
            exp = tuple(int(e) for e in rng.integers(0, 4, size=n))
            terms[exp] = complex(*rng.standard_normal(2))
        p = SparsePoly(n, terms)
        points = (rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))).tolist()
        assert _dets_bits(hessian_det_at(p, points)) == _dets_bits(_reference_hessian_det_at(p, points))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_points(self, n):
        assert hessian_det_at(SparsePoly(n, {(2,) * n: 1.0}), []) == []

    def test_evaluate_is_the_one_point_case(self):
        # a point alone gets the bits it gets among many
        rng = np.random.default_rng(9)
        p = SparsePoly(3, {(2, 1, 0): 1.5 - 0.5j, (0, 3, 1): 2.0, (1, 0, 0): -1j, (0, 0, 0): 0.25})
        points = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        assert np.array([p.evaluate(z) for z in points.tolist()]).tobytes() == p.eval_batch(points).tobytes()


class TestPolynomialsAgainstConstructionChain:
    @pytest.mark.parametrize("name, line", LINES, ids=LINE_IDS)
    def test_line_function_and_phi_are_the_chain_bits(self, name, line):
        assert _term_bits(line.phi) == _term_bits(_reference_phi(line))
        for eps in GRID.samples() + [0.004, -0.002j, -1e-3, complex(1e-3, -0.0), 1e-300j]:
            f_eps = line_function(line, eps)
            assert _term_bits(f_eps) == _term_bits(_reference_line_function(line, eps))
            for i in range(line.n):
                first = f_eps.diff(i)
                assert _term_bits(first) == _term_bits(_reference_diff(f_eps, i))
                for j in range(line.n):
                    assert _term_bits(first.diff(j)) == _term_bits(_reference_diff(first, j))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_derivatives_are_the_chain_bits(self, n):
        rng = np.random.default_rng(20 + n)
        special = [0.0, -0.0, 1.5, -2.25, 1e-300, -1e300]  # signed zeros give pure (imaginary) parts

        def part():
            k = int(rng.integers(0, 9))
            return special[k] if k < len(special) else float(rng.standard_normal())

        for _ in range(200):
            terms = {}
            for _ in range(int(rng.integers(1, 8))):
                exp = tuple(int(e) for e in rng.integers(0, 4, size=n))
                terms[exp] = complex(part(), part())
            p = SparsePoly(n, terms)
            for i in range(n):
                first = p.diff(i)
                assert _term_bits(first) == _term_bits(_reference_diff(p, i))
                for j in range(n):
                    assert _term_bits(first.diff(j)) == _term_bits(_reference_diff(first, j))

    @staticmethod
    def _checked_constructions(monkeypatch, call):
        built = []
        init = SparsePoly.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SparsePoly, "__init__", counting)
        call()
        return len(built)

    def test_one_hessian_sample_builds_two_polynomials(self, monkeypatch):
        line = default_line((3, 3, 3, 2))
        cps = separable_critical_set(line, GRID.samples()[0])
        assert self._checked_constructions(monkeypatch, lambda: products_at(line, cps, [Kind.HESSIAN])) <= 2

    def test_hessian_trace_builds_phi_once_per_line(self, monkeypatch):
        line = default_line((3, 3, 3, 2))
        samples = GRID.samples()
        built = self._checked_constructions(monkeypatch, lambda: evaluate_trace(line, samples, [Kind.HESSIAN]))
        assert built == 1 + len(samples)  # phi once, then f - eps*phi at each of the 7 samples


class TestSeparableAgainstPerLabel:
    @pytest.mark.parametrize(
        "line",
        [default_line(a) for a in LINEAR + EQUAL] + [jittered_line(default_line(a), 11) for a in LINEAR + EQUAL],
        ids=[f"{a}" for a in LINEAR + EQUAL] + [f"{a}-jitter" for a in LINEAR + EQUAL],
    )
    def test_sets_are_the_per_label_bits(self, line):
        for eps in GRID.samples() + [0.004, -0.002j]:
            assert _bits(separable_critical_set(line, eps)) == _bits(_reference_separable(line, eps))

    @pytest.mark.parametrize("a, preset", [((4, 3), "xy_coupled"), ((5, 5), "xy_coupled"), ((8,), "quadratic_1d")])
    def test_tracked_sets_start_from_the_same_bits(self, monkeypatch, a, preset):
        line = jittered_line(default_line(a, preset), 5)
        samples = GRID.samples()
        batch = TrackedBatch(line, samples)
        tracked = [_bits(critical_set(line, eps, batch)) for eps in samples]
        monkeypatch.setattr(critical_tracker, "separable_critical_set", _reference_separable)
        batch = TrackedBatch(line, samples)
        assert [_bits(critical_set(line, eps, batch)) for eps in samples] == tracked


class _RecordingNumpy:
    """numpy, with each np.greater threshold recorded: the kernel's zero test."""

    def __init__(self):
        self.thresholds = []

    def __getattr__(self, name):
        return getattr(np, name)

    def greater(self, magnitudes, threshold, out=None):
        self.thresholds.append(threshold)
        return np.greater(magnitudes, threshold, out=out)


class TestZeroThreshold:
    def _thresholds(self, monkeypatch, products):
        recording = _RecordingNumpy()
        monkeypatch.setattr(discriminant_products, "np", recording)
        products()
        return recording.thresholds

    @pytest.mark.parametrize("name, line", LINES, ids=LINE_IDS)
    def test_every_product_uses_the_largest_built_in_abs(self, monkeypatch, sets, name, line):
        kinds = [Kind.D_PAIR, Kind.HESSIAN] + ([Kind.Y_TRIPLE, Kind.OMEGA_QUAD] if line.a.mu <= 16 else [])
        for cps in sets[name]:
            dets = np.array(_reference_hessian_det_at(line_function(line, cps.epsilon), cps.coords.tolist()))
            for kind in kinds:
                # one comparison per kernel chunk, each with the product's threshold
                got = self._thresholds(monkeypatch, lambda: products_at(line, cps, [kind]))
                want = _reference_threshold(dets if kind is Kind.HESSIAN else cps.values)
                assert got and {_float_bits(t) for t in got} == {_float_bits(want)}

    def test_values_across_the_exponent_range(self, monkeypatch):
        rng = np.random.default_rng(4)
        for scale in (1e-300, 1e-160, 1e-20, 1.0, 1e150, 1e300):
            values = scale * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
            values[::7] = values[::7].real  # some purely real values
            got = self._thresholds(monkeypatch, lambda: discriminant_products.log_D(values))
            assert got and {_float_bits(t) for t in got} == {_float_bits(_reference_threshold(values))}


class TestPairwiseDistances:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_random_coordinates_give_numpys_bits(self, n):
        rng = np.random.default_rng(n)
        for shape in [(9, n), (7, 15, n), (2, 3, 6, n)]:
            scale = 10.0 ** rng.integers(-6, 6, size=shape)
            coords = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            got = critical_tracker._pairwise_distances(coords)
            assert got.tobytes() == _reference_distances(coords).tobytes()

    @pytest.mark.parametrize("name", [name for name, _ in LINES if not name.startswith("linear(6")])
    def test_tracked_coordinates_give_numpys_bits(self, sets, name):
        coords = np.array([cps.coords for cps in sets[name]])
        got = critical_tracker._pairwise_distances(coords)
        assert got.tobytes() == _reference_distances(coords).tobytes()
        assert got[3].tobytes() == critical_tracker._pairwise_distances(coords[3]).tobytes()


class TestOneDeterminantCallPerSample:
    def test_verify_3_3_3_2(self, monkeypatch):
        def refuse(self, z):
            raise AssertionError("a Hessian entry was evaluated one point at a time")

        calls = []
        det = np.linalg.det

        def counting(a):
            calls.append(np.shape(a))
            return det(a)

        monkeypatch.setattr(SparsePoly, "evaluate", refuse)
        monkeypatch.setattr(np.linalg, "det", counting)
        report = verify_all((3, 3, 3, 2), mu_cap=64)
        assert [row.verdict for row in report.rows][:2] == ["Match", "Match"]
        assert calls == [(54, 4, 4)] * GRID.count
