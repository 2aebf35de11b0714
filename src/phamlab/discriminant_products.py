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
determinants, (1,), over index rows in fixed lexicographic tuple order, which
keeps traces byte-for-byte reproducible.  The index table depends only on
(kind, mu).  The len(Kind) most recently used tables are kept, which covers
every table of one trace, so its samples share each read-only:
- rows: every tuple, in the smallest integer dtype that holds mu - 1;
- columns: the forward rows, one per configuration, transposed, in that same
  dtype, which the gathers read one chunk at a time with no widened copy;
  a mirrored D or Omega configuration is the exact negation of one evaluated
  once;
- source: the forward row of every row, in the smallest unsigned dtype that
  holds the forward count; None when every row is forward.
All three follow from the combinatorics, with no search for disjoint groups.
The partners of a first group a, the second groups b disjoint from it, are
combinations(range(mu - |a|), |b|), one list shared by every a, relabelled
through the points outside a in increasing order.  So a's block of rows is a
followed by each relabelled combination, and its partners come in increasing
rank.  With equal group sizes the forward rows of a block are therefore a
suffix, after the partners that rank below a: i of them for a pair starting
at i, i*(mu-3) - i*(i-1)/2 for a quadruple.  Forward rows take consecutive
ranks, and each rank is also scattered to the mirror (b, a), at row
rank(b) * partners plus the rank of a among the points outside b.  The table
is built in blocks of about _CHUNK rows, so no array as long as the rows
exists but the table's own.

The kernel walks the rows in chunks of _CHUNK.  It fills one float64 log per
forward row, magnitudes from np.hypot and logs from np.log (the same bits
whether a call takes one factor or all; math.log differs in the last bit on
some inputs), then yields the logs in row order.  One sample's LogProduct holds
only its total, the index of its first zero factor, the shared table and its
mu values.  The total folds each chunk's kept logs with np.add.accumulate,
the running total added into the chunk's first kept log, so it adds the kept
logs strictly left to right in tuple order, as a plain ``t += x`` loop does:
numpy's sum is pairwise and the built-in sum() is compensated from CPython
3.12 on.  The per-factor logs and FactorRecords are rebuilt by the same kernel
only on demand (trace, classify_factors, LogProduct.record); a degenerate
hint reads the stored first-zero index alone.  products_at takes one sample's
tracked critical set, and the Hessian product differentiates f - eps*phi once
per sample.
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
    """The index rows of one kind over mu points, shared by every product of that kind and mu."""

    kind: Kind
    rows: np.ndarray
    columns: np.ndarray
    source: Optional[np.ndarray]


def _groups(mu: int, size: int) -> np.ndarray:
    groups = list(itertools.combinations(range(mu), size))
    return np.array(groups, dtype=np.min_scalar_type(mu - 1)).reshape(len(groups), size)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _group_rank(group: np.ndarray, m: int) -> np.ndarray:
    """Lexicographic rank among the groups of range(m) of each column of ``group``: 1 or 2 sorted points."""
    if len(group) == 1:
        return group[0]
    k, l = group
    return k * (2 * m - k - 1) // 2 + l - k - 1


def _index_table(kind: Kind, mu: int) -> _IndexTable:
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
    rows = np.empty((len(g1) * partners, first + second), g1.dtype)
    columns, source = rows.T, None
    # with equal group sizes, swapping the groups negates the factor: each configuration
    # is evaluated once, at its forward row (first group before second), and ``source``
    # maps every row to it
    mirrored = first == second
    if mirrored:
        columns = np.empty((first + second, len(rows) // 2), g1.dtype)
        source = np.empty(len(rows), np.min_scalar_type(len(rows) // 2))
        # the partners of a first group come in increasing rank, so its forward rows are
        # the suffix after the partners ranked below it, which all start before its first
        # point i: i of them for a pair, sum over k < i of (mu - k - 3) for a quadruple
        i = g1[:, 0].astype(np.intp)
        earlier = i if first == 1 else i * (mu - 3) - i * (i - 1) // 2
    done = 0  # forward rows so far
    step = max(1, _CHUNK // max(partners, 1))
    for a0 in range(0, len(g1), step):
        a1 = min(a0 + step, len(g1))
        block = rows[a0 * partners : a1 * partners]
        out = block.reshape(a1 - a0, partners, first + second)
        np.take(order[a0:a1], picks, axis=1, out=out, mode="clip")
        if not mirrored:
            continue
        at = np.flatnonzero(np.arange(partners) >= earlier[a0:a1, None])
        ranks = np.arange(done, done + len(at))
        source[a0 * partners + at] = ranks
        forward = block.take(at, axis=0).T
        columns[:, done : done + len(ranks)] = forward
        done += len(ranks)
        # the mirror (b, a) of forward row (a, b) sits in block rank(b), at the rank of a
        # among the points outside b; relabel a there from b's last point down, so that
        # each shift compares with an unshifted point
        a, b = forward[:first].astype(np.intp), forward[first:].astype(np.intp)
        for point in b[::-1]:
            a -= point < a
        source[_group_rank(b, mu) * partners + _group_rank(a, free)] = ranks
    if mirrored:
        _read_only(source)
    return _IndexTable(kind, _read_only(rows), _read_only(columns), source)


# one trace asks for at most one table per kind, all at its mu, so every sample shares
# them; holding more would keep tables of earlier mu alive for nothing
_table = lru_cache(maxsize=len(Kind))(_index_table)


def _log_chunks(table: _IndexTable, values: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(start, logs) of consecutive chunks of rows in row order; NaN marks a zero factor.

    The one product kernel: it takes the log of every forward row a chunk at a
    time, then gives each chunk of rows the logs of its forward rows.  Every
    chunk reuses the same buffers, so a yielded array is only valid until the
    next one is asked for.  A factor applies its coefficient row as adds and
    subtracts (2*v as v + v): the same values as multiplying by the coefficients,
    but for the sign of a zero, which no magnitude sees.
    """
    coefs = _TUPLES[table.kind][2]
    # the zero threshold scales the largest |v|, from np.hypot: the built-in abs calls the
    # same libm hypot, and every numpy loop of np.hypot does too, so its bits do not
    # depend on the CPU
    threshold = ZERO_COEF * float(np.hypot(values.real, values.imag).max(initial=0.0))
    forward = np.full(table.columns.shape[1], np.nan)
    width = min(_CHUNK, len(table.rows))  # no table has more forward rows than rows
    buffers = np.empty(width, complex), np.empty(width, complex), np.empty(width), np.empty(width, bool)
    for start in range(0, len(forward), _CHUNK):
        term, factors, magnitudes, kept = (b[: len(forward) - start] for b in buffers)
        columns = table.columns[:, start : start + len(factors)]
        values.take(columns[0], out=factors, mode="clip")
        if coefs[0] == 2:
            factors += factors
        for coef, column in zip(coefs[1:], columns[1:]):
            values.take(column, out=term, mode="clip")
            if coef > 0:
                factors += term
            else:
                factors -= term
        np.hypot(factors.real, factors.imag, out=magnitudes)
        np.greater(magnitudes, threshold, out=kept)
        np.log(magnitudes, out=forward[start : start + len(magnitudes)], where=kept)
    for start in range(0, len(table.rows), _CHUNK):
        if table.source is None:
            yield start, forward[start : start + _CHUNK]
        else:
            source = table.source[start : start + _CHUNK]
            yield start, forward.take(source, out=buffers[2][: len(source)], mode="clip")


@dataclass(frozen=True, eq=False)
class LogProduct:
    """Total log-magnitude of one product, with what rebuilds its factors.

    Factor k is formed from row k of ``table`` over ``values``; rows[k] holds
    the positions in ``labels`` of its points.  first_zero is the index of the
    first factor below the zero threshold, None if there is none.
    """

    total: float  # sum over non-zero factors
    first_zero: Optional[int]
    table: _IndexTable
    values: np.ndarray
    labels: tuple

    @property
    def kind(self) -> Kind:
        return self.table.kind

    @property
    def rows(self) -> np.ndarray:
        return self.table.rows

    @property
    def logs(self) -> np.ndarray:
        """log|factor k| per row, NaN where the factor fell below the zero threshold.

        Rebuilt by the kernel on every access; nothing keeps it.
        """
        logs = np.empty(len(self.rows))
        for start, chunk in _log_chunks(self.table, self.values):
            logs[start : start + len(chunk)] = chunk
        return logs

    def record(self, k: int) -> FactorRecord:
        """The record of factor k, built on demand; the first zero's needs no logs."""
        return self._record(k, math.nan if k == self.first_zero else float(self.logs[k]))

    def _record(self, k: int, log: float) -> FactorRecord:
        labels = tuple(self.labels[i] for i in self.rows[k].tolist())
        return FactorRecord(self.kind, labels, None if math.isnan(log) else log)

    @cached_property
    def factors(self) -> tuple[FactorRecord, ...]:
        """One record per factor, built on first access."""
        return tuple(itertools.starmap(self._record, enumerate(self.logs.tolist())))

    @property
    def zero_count(self) -> int:
        return int(np.isnan(self.logs).sum())

    @property
    def has_zero(self) -> bool:
        return self.first_zero is not None


def factor_count(kind: Kind, mu: int) -> int:
    if kind is Kind.D_PAIR:
        return mu * (mu - 1)
    if kind is Kind.Y_TRIPLE:
        return binom12(mu)
    if kind is Kind.OMEGA_QUAD:
        return binom22(mu)
    return mu


def _product(kind: Kind, values: Sequence[complex], labels: Optional[Sequence]) -> LogProduct:
    """Fold the kernel's chunks into the total and the first zero, in row order."""
    v = np.asarray(values, dtype=complex)
    mu = len(v)
    table = _table(kind, mu)
    total, first_zero = 0.0, None
    zeros = np.empty(min(_CHUNK, len(table.rows)), bool)
    for start, logs in _log_chunks(table, v):
        zero = np.isnan(logs, out=zeros[: len(logs)])
        if zero.any():
            # a zero factor adds 0.0, which leaves the bits of every partial sum as they are
            # (no partial sum is -0.0)
            first_zero = start + int(zero.argmax()) if first_zero is None else first_zero
            np.copyto(logs, 0.0, where=zero)
        # the running total is the chunk's first addend, so the sum runs strictly left to right
        logs[0] += total
        np.add.accumulate(logs, out=logs)
        total = float(logs[-1])
    return LogProduct(total, first_zero, table, v, tuple(range(mu) if labels is None else labels))


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
        if len(out[kind].rows) != expected:
            raise AssertionError(f"{kind.value}: {len(out[kind].rows)} factors, expected {expected}")
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
        """Record of the first structural-zero factor; builds no other record."""
        for s in self.samples:
            product = s[kind]
            if product.has_zero:
                return product.record(product.first_zero)
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
