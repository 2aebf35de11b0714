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

All four products share one kernel: each factor is sum_k c_k * v[idx_k] with
the coefficient row (1, -1), (2, -1, -1), (1, 1, -1, -1) or, over the Hessian
determinants, (1,).  A row is a first group of points, then a disjoint second
group; rows come in lexicographic order.  With equal group sizes (D, Omega) the
mirror (b, a) of a forward row (a, b), a ranking below b, negates its factor.
The index table of one (kind, mu), shared read-only by every sample of a trace,
holds only the forward rows, transposed, in the smallest dtype that holds
mu - 1, and the row count.  It is gathered from each first group's points and
the points outside it, in blocks of about _CHUNK rows, so no array as long as
the table exists but its own.  Every row comes from the same gather with no
row dropped, on first access, for per-factor output only; no forward rank is
kept per row.

The kernel walks forward rows in chunks of _CHUNK: magnitudes from np.hypot,
logs from np.log (the same bits whether a call takes one factor or all;
math.log differs in the last bit on some inputs).  A total adds the kept logs
of the forward rows strictly left to right, as a plain ``t += x`` loop does
(numpy's sum is pairwise, the built-in sum() compensated from CPython 3.12 on),
then D and Omega double it: a mirror adds its forward row's log again.  One
sample's LogProduct holds its total, the forward rank of its first zero, the
shared table and its mu values.  Per-factor logs and FactorRecords are rebuilt
on demand (trace, classify_factors, LogProduct.record), each mirror formed as
its forward row; a forward row precedes its mirror, so a degenerate hint reads
the first zero's forward column alone.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

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
    Kind.HESSIAN: (1, 0, (1,)),
}

_CHUNK = 1 << 12  # rows per kernel pass and per index-table block


@dataclass(frozen=True, eq=False)
class _IndexTable:
    """The forward rows of one kind over mu points, transposed, and the number of rows."""

    kind: Kind
    mu: int
    columns: np.ndarray
    count: int

    @property
    def mirrored(self) -> bool:
        first, second, _ = _TUPLES[self.kind]
        return first == second

    @cached_property
    def rows(self) -> np.ndarray:
        """Every row, built on first access: with mirrors, the same gather with no row dropped."""
        return (_index_table(self.kind, self.mu, mirrors=True) if self.mirrored else self).columns.T


def _groups(mu: int, size: int) -> np.ndarray:
    groups = list(itertools.combinations(range(mu), size))
    return np.array(groups, dtype=np.min_scalar_type(mu - 1)).reshape(len(groups), size)


def _index_table(kind: Kind, mu: int, mirrors: bool = False) -> _IndexTable:
    """The table of kind over mu points; its columns hold the mirror rows too if ``mirrors``."""
    first, second, _ = _TUPLES[kind]
    g1 = _groups(mu, first)
    free = max(mu - first, 0)  # points outside each first group
    # order[a]: the points of first group a, then the points outside it in increasing order
    # (the p-th outside point is p plus the number of points of a at or below it)
    outside = np.empty((len(g1), free), g1.dtype)
    outside[:] = np.arange(free)
    for column in g1.T:
        outside += column[:, None] <= outside
    order = np.concatenate([g1, outside], axis=1)
    # the block of a first group is its order gathered at ``picks``: the group's own
    # positions, then each second group of the outside positions, in lexicographic order
    head = tuple(range(first))
    picks = [head + c for c in itertools.combinations(range(first, first + free), second)]
    partners = len(picks)
    picks = np.array(picks, np.intp).reshape(partners, first + second)
    count = len(g1) * partners
    # A first group's partners come in increasing rank, so with equal group sizes its
    # forward rows are the suffix after the partners ranked below it, which all start
    # before its first point i: i of them for a pair, sum over k < i of (mu - k - 3) for
    # a quadruple.  Without mirrors to drop, every row is kept.
    forward = first == second and not mirrors
    i = g1[:, 0].astype(np.intp)
    earlier = (i if first == 1 else i * (mu - 3) - i * (i - 1) // 2) * forward
    starts = np.cumsum(partners - earlier) - (partners - earlier)
    table = _IndexTable(kind, mu, np.empty((first + second, count // 2 if forward else count), g1.dtype), count)
    step = max(1, _CHUNK // max(partners, 1))
    for a0 in range(0, len(g1), step):
        # one gather per column, each written whole, so no block is transposed
        kept = np.arange(partners) >= earlier[a0 : a0 + step, None]
        at = slice(starts[a0], starts[a0] + kept.sum())
        for column, pick in zip(table.columns, picks.T):
            column[at] = np.take(order[a0 : a0 + step], pick, axis=1, mode="clip")[kept]
    table.columns.flags.writeable = False
    return table


# one trace asks for at most one table per kind, all at its mu, so every sample shares
# them; holding more would keep tables of earlier mu alive for nothing
_table = lru_cache(maxsize=len(Kind))(_index_table)


def _forward_chunks(kind: Kind, columns: np.ndarray, values: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(start, logs, kept) of consecutive chunks of the forward rows ``columns``, in order.

    The one product kernel.  logs[k] is log|factor| of forward row start + k
    where kept[k]; elsewhere the factor fell below the zero threshold and logs[k]
    is not a log.  Every chunk reuses the same buffers, so a yielded array is only
    valid until the next one is asked for.  A factor applies its coefficient row
    as adds and subtracts (2*v as v + v): the same values as multiplying by the
    coefficients, but for the sign of a zero, which no magnitude sees.
    """
    coefs = _TUPLES[kind][2]
    # the zero threshold scales the largest |v|, from np.hypot: the built-in abs calls the
    # same libm hypot, and every numpy loop of np.hypot does too, so its bits do not
    # depend on the CPU
    threshold = ZERO_COEF * float(np.hypot(values.real, values.imag).max(initial=0.0))
    count = columns.shape[1]
    width = min(_CHUNK, count)
    buffers = np.empty(width, complex), np.empty(width, complex), np.empty(width), np.empty(width, bool)
    for start in range(0, count, _CHUNK):
        term, factors, logs, kept = (b[: count - start] for b in buffers)
        chunk = columns[:, start : start + len(factors)]
        values.take(chunk[0], out=factors, mode="clip")
        if coefs[0] == 2:
            factors += factors
        for coef, column in zip(coefs[1:], chunk[1:]):
            values.take(column, out=term, mode="clip")
            if coef > 0:
                factors += term
            else:
                factors -= term
        np.hypot(factors.real, factors.imag, out=logs)
        np.greater(logs, threshold, out=kept)
        np.log(logs, out=logs, where=kept)
        yield start, logs, kept


def _log_chunks(table: _IndexTable, values: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rows, logs) of consecutive chunks of rows in row order, NaN for a zero factor.

    A mirror (b, a) is evaluated as its forward row (a, b), halves swapped: its
    factor is the negation, so its log keeps the forward row's bits.  Disjoint sorted
    groups differ in their first point, so the mirrors are the rows with row[0] > row[size].
    """
    size = len(table.columns) // 2
    for start in range(0, table.count, _CHUNK):
        rows = table.rows[start : start + _CHUNK]
        columns = rows.T
        if table.mirrored:
            columns = np.where(columns[0] > columns[size], np.roll(columns, size, axis=0), columns)
        for _, logs, kept in _forward_chunks(table.kind, columns, values):
            yield rows, np.where(kept, logs, np.nan)


@dataclass(frozen=True, eq=False)
class LogProduct:
    """Total log-magnitude of one product, with what rebuilds its factors.

    Factor k is formed from row k of ``table`` over ``values``; table.rows[k]
    holds the positions in ``labels`` of its points.  zero_rank is the forward rank
    of the first factor below the zero threshold, None if there is none.
    """

    total: float  # sum over non-zero factors
    zero_rank: Optional[int]
    table: _IndexTable
    values: np.ndarray
    labels: tuple

    @property
    def kind(self) -> Kind:
        return self.table.kind

    @property
    def logs(self) -> np.ndarray:
        """log|factor k| per row, NaN below the zero threshold; rebuilt on every access, kept nowhere."""
        logs = np.empty(self.table.count)
        start = 0
        for _, chunk in _log_chunks(self.table, self.values):
            logs[start : start + len(chunk)] = chunk
            start += len(chunk)
        return logs

    def record(self, k: int) -> FactorRecord:
        """The record of factor k, built on demand."""
        return self._record(self.table.rows[k].tolist(), float(self.logs[k]))

    def _record(self, row: list, log: float) -> FactorRecord:
        labels = tuple(self.labels[i] for i in row)
        return FactorRecord(self.kind, labels, None if math.isnan(log) else log)

    @cached_property
    def factors(self) -> tuple[FactorRecord, ...]:
        """One record per factor, built on first access."""
        return tuple(map(self._record, self.table.rows.tolist(), self.logs.tolist()))

    @property
    def zero_count(self) -> int:
        return int(np.isnan(self.logs).sum())

    @property
    def has_zero(self) -> bool:
        return self.zero_rank is not None


def factor_count(kind: Kind, mu: int) -> int:
    if kind is Kind.D_PAIR:
        return mu * (mu - 1)
    if kind is Kind.Y_TRIPLE:
        return binom12(mu)
    if kind is Kind.OMEGA_QUAD:
        return binom22(mu)
    return mu


def _product(kind: Kind, values: Sequence[complex], labels: Optional[Sequence]) -> LogProduct:
    """Fold the kernel's chunks into the total and the first zero, in forward order."""
    v = np.asarray(values, dtype=complex)
    table = _table(kind, len(v))
    total, zero_rank = 0.0, None
    for start, logs, kept in _forward_chunks(kind, table.columns, v):
        if not kept.all():
            # a zero factor adds 0.0, which leaves the bits of every partial sum as they are
            # (no partial sum is -0.0)
            zero_rank = start + int(kept.argmin()) if zero_rank is None else zero_rank
            np.copyto(logs, 0.0, where=~kept)
        # the running total is the chunk's first addend, so the sum runs strictly left to right
        logs[0] += total
        np.add.accumulate(logs, out=logs)
        total = float(logs[-1])
    # a mirror's factor is the negation of its forward row's, so it adds the same log again
    total = total + total if table.mirrored else total
    return LogProduct(total, zero_rank, table, v, tuple(range(len(v)) if labels is None else labels))


def log_D(values: Sequence[complex], labels: Optional[Sequence] = None) -> LogProduct:
    """Product over ordered pairs i != j of v_i - v_j."""
    return _product(Kind.D_PAIR, values, labels)


def log_Y(values: Sequence[complex], labels: Optional[Sequence] = None) -> LogProduct:
    """Product over triples (distinguished v_1, unordered v_2, v_3) of 2*v_1 - v_2 - v_3."""
    return _product(Kind.Y_TRIPLE, values, labels)


def log_Omega(values: Sequence[complex], labels: Optional[Sequence] = None) -> LogProduct:
    """Product over ordered pairs of disjoint unordered pairs of v1+v2-v3-v4."""
    return _product(Kind.OMEGA_QUAD, values, labels)


def log_hessian_product(f_eps: SparsePoly, points: CriticalPointSet) -> LogProduct:
    """Product over the critical points of |det Hess(f - eps*phi)|."""
    return _product(Kind.HESSIAN, hessian_det_at(f_eps, points.coords), points.labels)


def products_at(line: GenericLine, points: CriticalPointSet, kinds: Sequence[Kind]) -> dict[Kind, LogProduct]:
    """Evaluate the requested products over ``points``, the critical set of line at points.epsilon."""
    out: dict[Kind, LogProduct] = {}
    for kind in kinds:
        if kind is Kind.D_PAIR:
            out[kind] = log_D(points.values, points.labels)
        elif kind is Kind.Y_TRIPLE:
            out[kind] = log_Y(points.values, points.labels)
        elif kind is Kind.OMEGA_QUAD:
            out[kind] = log_Omega(points.values, points.labels)
        elif kind is Kind.HESSIAN:
            out[kind] = log_hessian_product(line_function(line, points.epsilon), points)
        else:
            raise ValueError(f"unknown product kind {kind}")
        expected = factor_count(kind, line.a.mu)
        if out[kind].table.count != expected:
            raise AssertionError(f"{kind.value}: {out[kind].table.count} factors, expected {expected}")
    return out


@dataclass(frozen=True)
class LogProductTrace:
    """Per-sample products along a ray, factor-aligned across samples."""

    epsilon_samples: tuple[complex, ...]
    samples: tuple[dict, ...]  # one {Kind: LogProduct} per epsilon

    def kinds(self) -> list[Kind]:
        return list(self.samples[0].keys()) if self.samples else []

    def totals(self, kind: Kind) -> list[float]:
        return [s[kind].total for s in self.samples]

    def has_zero(self, kind: Kind) -> bool:
        return any(s[kind].has_zero for s in self.samples)

    def first_zero(self, kind: Kind) -> Optional[FactorRecord]:
        """Record of the first structural-zero factor, from its forward column alone: a forward
        row precedes its mirror.  Builds no other record."""
        for s in self.samples:
            product = s[kind]
            if product.has_zero:
                return product._record(product.table.columns[:, product.zero_rank].tolist(), math.nan)
        return None


def evaluate_trace(
    line: GenericLine, eps_samples: Sequence[complex], kinds: Sequence[Kind]
) -> LogProductTrace:
    """Products at every sample; the critical sets of all samples are tracked together.

    Raises the error of the first sample, in the given order, whose set fails.
    """
    kinds = list(kinds)
    batch = TrackedBatch(line, eps_samples)
    samples = tuple(products_at(line, critical_set(batch, eps), kinds) for eps in eps_samples)
    return LogProductTrace(tuple(eps_samples), samples)
