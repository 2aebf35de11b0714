"""Log-magnitude products over tuples of critical values.

Three product families measure the bifurcation sets along a deformation ray:
ordered pair differences v_i - v_j (caustic + Maxwell), distinguished-point
triples 2*v_1 - v_2 - v_3 (mixed Stokes), and ordered pairs of disjoint
unordered pairs v_1 + v_2 - v_3 - v_4 (pure Stokes).  A fourth product of
Hessian determinants isolates the caustic share.

Products are accumulated as sums of log-magnitudes; raw products underflow
immediately (756 factors of size |eps|^(4/3) at mu = 9).  Factors below the
roundoff scale are recorded as exact zeros instead of being folded into the
total, so a structurally degenerate line is detected rather than averaged
away.

The three tuple products share one kernel: each factor is sum_k c_k * v[idx_k]
with the coefficient row (1, -1), (2, -1, -1) or (1, 1, -1, -1), over numpy
index rows in fixed lexicographic tuple order, which keeps traces byte-for-byte
reproducible.  The index rows depend only on (kind, mu): evaluate_trace builds
each kind's table once and every sample reuses it, so the samples' products
share one read-only rows array, stored in the smallest integer dtype that holds
mu - 1.  Results are bit-identical to a scalar loop over the same tuples: the
row applies left to right; a mirrored D or Omega configuration is the exact
negation of one evaluated once; magnitudes come from np.hypot, logs from np.log
(the same bits whether a call takes one factor or all; math.log differs in the
last bit on some inputs), and each total adds the kept logs strictly left to
right in tuple order, as a plain ``t += x`` loop does: np.add.accumulate keeps
that order on every Python, while numpy's sum is pairwise and the built-in sum()
is compensated from CPython 3.12 on.  FactorRecords are built only on demand by
LogProduct.record, so a degenerate hint builds its one record alone.
products_at takes one sample's tracked critical set, and the Hessian product
differentiates f - eps*phi once per sample.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .closed_forms import binom12, binom22
from .critical_tracker import CriticalPointSet, GenericLine, TrackedBatch, critical_set, line_function
from .polyalg import SparsePoly, hessian_det_at

__all__ = [
    "Kind",
    "FactorRecord",
    "LogProduct",
    "LogProductTrace",
    "factor_count",
    "log_D",
    "log_Y",
    "log_Omega",
    "log_hessian_product",
    "products_at",
    "evaluate_trace",
]

# |factor| below 1e3 * machine-epsilon * scale counts as a structural zero
ZERO_COEF = 1e3 * sys.float_info.epsilon


class Kind(str, Enum):
    D_PAIR = "D_pair"
    Y_TRIPLE = "Y_triple"
    OMEGA_QUAD = "Omega_quad"
    HESSIAN = "Hessian"


@dataclass(frozen=True)
class FactorRecord:
    """One multiplicand: its point labels and log|factor|, None below the zero threshold."""

    kind: Kind
    indices: tuple
    log_magnitude: Optional[float]

    @property
    def is_zero(self) -> bool:
        return self.log_magnitude is None


# kind -> (size of the first group, size of the second group, coefficient row)
_TUPLES = {
    Kind.D_PAIR: (1, 1, (1, -1)),
    Kind.Y_TRIPLE: (1, 2, (2, -1, -1)),
    Kind.OMEGA_QUAD: (2, 2, (1, 1, -1, -1)),
}


@dataclass(frozen=True, eq=False)
class LogProduct:
    """Total log-magnitude of one product plus its per-factor logs.

    logs[k] is log|factor k|, NaN where the factor fell below the zero
    threshold; rows[k] holds the positions in ``labels`` of its points.
    """

    kind: Kind
    total: float  # sum over non-zero factors
    logs: np.ndarray
    rows: np.ndarray
    labels: tuple

    def record(self, k: int) -> FactorRecord:
        """The record of factor k, built on demand."""
        log = float(self.logs[k])
        labels = tuple(self.labels[i] for i in self.rows[k].tolist())
        return FactorRecord(self.kind, labels, None if math.isnan(log) else log)

    @cached_property
    def factors(self) -> tuple[FactorRecord, ...]:
        """One record per factor, built on first access."""
        return tuple(map(self.record, range(len(self.logs))))

    @property
    def zero_count(self) -> int:
        return int(np.isnan(self.logs).sum())

    @property
    def has_zero(self) -> bool:
        return bool(np.isnan(self.logs).any())


def factor_count(kind: Kind, mu: int) -> int:
    if kind is Kind.D_PAIR:
        return mu * (mu - 1)
    if kind is Kind.Y_TRIPLE:
        return binom12(mu)
    if kind is Kind.OMEGA_QUAD:
        return binom22(mu)
    return mu


def _log_product(kind: Kind, factors: np.ndarray, scale_values, rows, labels, source=None) -> LogProduct:
    """Zero threshold (scaled by max |scale_values|), logs and total in row order."""
    threshold = ZERO_COEF * max((abs(v) for v in scale_values), default=0.0)
    magnitudes = np.hypot(factors.real, factors.imag)
    kept = magnitudes > threshold
    logs = np.log(magnitudes, out=np.full(len(magnitudes), np.nan), where=kept)
    if source is not None:
        logs, kept = logs[source], kept[source]
    # a running sum adds strictly left to right; its last entry is the total
    running = logs[kept]
    np.add.accumulate(running, out=running)
    total = float(running[-1]) if len(running) else 0.0
    return LogProduct(kind, total, logs, rows, tuple(labels))


def _groups(mu: int, size: int) -> np.ndarray:
    dtype = np.min_scalar_type(mu - 1)
    return np.array(list(itertools.combinations(range(mu), size)), dtype=dtype).reshape(-1, size)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class _IndexTable:
    """The index rows of one tuple kind over mu points, shared by every sample of a trace.

    rows holds every tuple in lexicographic order, in the smallest integer
    dtype that holds mu - 1; columns holds the forward rows, one per
    configuration, transposed (intp, since numpy gathers fastest with it);
    source maps each row to its forward row, None when every row is forward.
    """

    kind: Kind
    mu: int
    rows: np.ndarray
    columns: np.ndarray
    source: Optional[np.ndarray]


def _index_table(kind: Kind, mu: int) -> _IndexTable:
    first, second, _ = _TUPLES[kind]
    g1, g2 = _groups(mu, first), _groups(mu, second)
    a, b = np.nonzero((g1[:, None, :, None] != g2[None, :, None, :]).all(axis=(2, 3)))
    rows = _read_only(np.hstack([g1[a], g2[b]]))
    forward, source = rows, None
    if first == second:
        # with equal group sizes, swapping the groups negates the factor: evaluate each
        # configuration once, at its smaller key; ``source`` maps every row to it
        key = a * len(g2) + b
        canonical = np.minimum(key, b * len(g2) + a)
        is_forward = canonical == key
        forward = rows[is_forward]
        source = _read_only(np.searchsorted(key[is_forward], canonical))
    columns = _read_only(np.ascontiguousarray(forward.T, dtype=np.intp))
    return _IndexTable(kind, mu, rows, columns, source)


def _tuple_product(
    kind: Kind, values: Sequence[complex], labels: Optional[Sequence], table: Optional[_IndexTable]
) -> LogProduct:
    """Product over the kind's lexicographic tuples of sum_k c_k * v[idx_k]."""
    mu = len(values)
    if table is None:
        table = _index_table(kind, mu)
    elif (table.kind, table.mu) != (kind, mu):
        raise ValueError(
            f"index table of {table.kind.value} at mu={table.mu} used for {kind.value} at mu={mu}"
        )
    coefs = _TUPLES[kind][2]
    v = np.asarray(values, dtype=complex)
    factors = coefs[0] * v[table.columns[0]]
    for coef, column in zip(coefs[1:], table.columns[1:]):
        factors += coef * v[column]
    labels = range(mu) if labels is None else labels
    # the zero threshold takes the built-in abs of each value, whose bits do not depend on numpy's SIMD loops
    return _log_product(kind, factors, v.tolist(), table.rows, labels, table.source)


def log_D(
    values: Sequence[complex], labels: Optional[Sequence] = None, table: Optional[_IndexTable] = None
) -> LogProduct:
    """Product over ordered pairs i != j of v_i - v_j."""
    return _tuple_product(Kind.D_PAIR, values, labels, table)


def log_Y(
    values: Sequence[complex], labels: Optional[Sequence] = None, table: Optional[_IndexTable] = None
) -> LogProduct:
    """Product over triples (distinguished v_1, unordered v_2, v_3) of 2*v_1 - v_2 - v_3."""
    return _tuple_product(Kind.Y_TRIPLE, values, labels, table)


def log_Omega(
    values: Sequence[complex], labels: Optional[Sequence] = None, table: Optional[_IndexTable] = None
) -> LogProduct:
    """Product over ordered pairs of disjoint unordered pairs of v1+v2-v3-v4."""
    return _tuple_product(Kind.OMEGA_QUAD, values, labels, table)


def log_hessian_product(f_eps: SparsePoly, points: CriticalPointSet) -> LogProduct:
    """Product over the critical points of |det Hess(f - eps*phi)|."""
    dets = hessian_det_at(f_eps, points.coords.tolist())
    rows = np.arange(len(dets))[:, None]
    return _log_product(Kind.HESSIAN, np.array(dets, dtype=complex), dets, rows, points.labels)


def products_at(
    line: GenericLine, points: CriticalPointSet, kinds: Sequence[Kind], tables: Optional[dict] = None
) -> dict[Kind, LogProduct]:
    """Evaluate the requested products over ``points``, the critical set of line at points.epsilon.

    ``tables`` maps a tuple kind to its index table for this mu, as evaluate_trace
    builds them; a kind without one builds its own.
    """
    tables = tables or {}
    out: dict[Kind, LogProduct] = {}
    for kind in kinds:
        if kind is Kind.D_PAIR:
            out[kind] = log_D(points.values, points.labels, tables.get(kind))
        elif kind is Kind.Y_TRIPLE:
            out[kind] = log_Y(points.values, points.labels, tables.get(kind))
        elif kind is Kind.OMEGA_QUAD:
            out[kind] = log_Omega(points.values, points.labels, tables.get(kind))
        elif kind is Kind.HESSIAN:
            out[kind] = log_hessian_product(line_function(line, points.epsilon), points)
        else:
            raise ValueError(f"unknown product kind {kind}")
        expected = factor_count(kind, line.a.mu)
        if len(out[kind].logs) != expected:
            raise AssertionError(f"{kind.value}: {len(out[kind].logs)} factors, expected {expected}")
    return out


@dataclass(frozen=True)
class LogProductTrace:
    """Per-sample product logs along a ray, factor-aligned across samples."""

    epsilon_samples: tuple[complex, ...]
    samples: tuple[dict, ...]  # one {Kind: LogProduct} per epsilon

    def kinds(self) -> list[Kind]:
        return list(self.samples[0].keys()) if self.samples else []

    def totals(self, kind: Kind) -> list[float]:
        return [s[kind].total for s in self.samples]

    def has_zero(self, kind: Kind) -> bool:
        return any(s[kind].has_zero for s in self.samples)

    def first_zero(self, kind: Kind) -> Optional[FactorRecord]:
        """Record of the first structural-zero factor; builds no other record."""
        for s in self.samples:
            product = s[kind]
            if product.has_zero:
                return product.record(int(np.isnan(product.logs).argmax()))
        return None


def evaluate_trace(
    line: GenericLine, eps_samples: Sequence[complex], kinds: Sequence[Kind]
) -> LogProductTrace:
    """Products at every sample; the critical sets of all samples are tracked together.

    Each tuple kind's index table is built once and serves every sample.
    Raises the error of the first sample, in the given order, whose set fails.
    """
    kinds = list(kinds)
    tables = {kind: _index_table(kind, line.a.mu) for kind in kinds if kind in _TUPLES}
    batch = TrackedBatch(line, eps_samples)
    samples = tuple(
        products_at(line, critical_set(line, eps, batch), kinds, tables) for eps in eps_samples
    )
    return LogProductTrace(tuple(eps_samples), samples)
