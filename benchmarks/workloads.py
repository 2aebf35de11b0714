"""Seeded workload generator for the phamlab benchmark.

A workload is an ordered list of ``phamlab`` command lines (argument tuples
for ``phamlab.cli.main``).  The workload seed only picks the ``--jitter``
seed of lines that jitter can move (two or more variables); one-variable
lines have a single linear coefficient fixed at 1, so they take no jitter.
The same (workload, seed) pair always gives the same calls.  Why each
workload exists is recorded in ``BENCHMARK.json``.

Known-bad cases are part of the workloads on purpose and must stay:
``(7,5)`` and ``(5,5)`` with ``xy_coupled``, ``(5,3)`` with ``xy_coupled``
on the default grid, and ``(6,)`` and ``(8,)`` with ``quadratic_1d``.
"""

from __future__ import annotations

import random

MU_CAP = ("--mu-cap", "64")
DEEP_GRID = ("--eps-start", "1e-3", "--eps-count", "9")

# Number of jitter seeds in tracked_sweep: 6 tuples x 2 grids x 9 seeds plus
# three quadratic_1d lines gives 111 verify calls per pass, enough for a p90
# with more than ten samples beyond it.
TRACKED_JITTERS = 9


def _jitter(seed: int) -> tuple[str, ...]:
    return ("--jitter", str(seed))


def _exps(exps: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(str(a) for a in exps)


def _verify(exps, *flags) -> tuple[str, ...]:
    return ("verify", *_exps(exps), *flags, "--format", "json")


def quad_large(rng: random.Random) -> list[tuple[str, ...]]:
    """Large mu with a pure-Stokes closed form: log_Omega dominates."""
    calls = [_verify(exps, "--preset", "linear", *MU_CAP) for exps in ((15,), (31,))]
    for exps in ((5, 5), (7, 5)):
        calls.append(
            _verify(exps, "--preset", "xy_coupled", *MU_CAP, *_jitter(rng.randrange(10**6)))
        )
    return calls


def triple_multivar(rng: random.Random) -> list[tuple[str, ...]]:
    """n >= 3 or an even exponent: no Omega, log_Y dominates, no tracking."""
    cases = ((3, 3, 3, 2), (4, 3, 3), (3, 3, 3), (3, 3, 2, 2), (6, 6), (2, 2, 2, 2, 2))
    return [
        _verify(exps, "--preset", "linear", *MU_CAP, *_jitter(rng.randrange(10**6)))
        for exps in cases
    ]


def tracked_sweep(rng: random.Random) -> list[tuple[str, ...]]:
    """Many short calls on tracked lines: homotopy tracking dominates."""
    coupled = ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3))
    jitters = [rng.randrange(10**6) for _ in range(TRACKED_JITTERS)]
    calls = []
    for seed in jitters:
        for exps in coupled:
            for grid in ((), DEEP_GRID):
                calls.append(_verify(exps, "--preset", "xy_coupled", *grid, *_jitter(seed)))
    single = ((4,), (6,), (8,))
    calls += [_verify(exps, "--preset", "quadratic_1d") for exps in single]
    calls += [("mult", *_exps(exps), "--format", "json") for exps in coupled + single]
    for exps in ((5, 3), (7, 5)):
        calls.append(
            ("cluster", *_exps(exps), "--preset", "xy_coupled", "--format", "json",
             *_jitter(rng.randrange(10**6)))
        )
    return calls


BUILDERS = {
    "quad_large": quad_large,
    "triple_multivar": triple_multivar,
    "tracked_sweep": tracked_sweep,
}


def build(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The calls of one pass over ``workload`` for ``seed``."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(BUILDERS)}")
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
