"""Command-line front end.

Subcommands: mult (closed forms), verify (numeric verification table),
cluster (value-gap scaling), trace (factor CSV dump), presets.

Exit codes: 0 pass, 1 a verify row is Mismatch or Inconclusive or a cluster
level fails, 2 usage error, 3 degenerate line, 4 numeric failure.
Identical invocations produce identical bytes; randomness enters only through
an explicit --jitter seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .closed_forms import (
    ExponentVector,
    MultiplicitySet,
    homogeneous_report,
)
from .critical_tracker import (
    PRESETS,
    GenericLine,
    TrackerError,
    default_line,
    jittered_line,
)
from .degree_lab import (
    DEFAULT_MU_CAP,
    EpsilonGrid,
    Kind,
    _ray,
    cluster_scaling,
    slope_table_rows,
    verify_all,
)
from .discriminant_products import _log_chunks, evaluate_trace
from .polyalg import SparsePoly

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4


def _build_line(args, exponents: ExponentVector) -> GenericLine:
    if args.phi_json:
        with open(args.phi_json, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except RecursionError:
                raise ValueError(f"{args.phi_json}: JSON nested too deeply") from None
        phi = SparsePoly.from_json_dict(data)
        line = _line_from_phi(exponents, phi)
    else:
        line = default_line(exponents, args.preset)
    if args.jitter is not None:
        line = jittered_line(line, args.jitter)
    return line


def _line_from_phi(a: ExponentVector, phi: SparsePoly) -> GenericLine:
    """Split a user polynomial into linear coefficients and tail."""
    n = a.n
    if phi.n_vars != n:
        raise ValueError(f"phi has {phi.n_vars} variables but {n} exponents were given")
    q = [0.0] * n
    tail_terms = {}
    for exp, coef in phi.terms.items():
        if sum(exp) == 0:
            continue  # constant offsets never change the products
        if sum(exp) == 1:
            i = exp.index(1)
            if abs(coef.imag) > 0:
                raise ValueError("linear coefficients must be real")
            q[i] = coef.real
        else:
            tail_terms[exp] = coef
    return GenericLine(a, tuple(q), SparsePoly(n, tail_terms))


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


# ---------------------------------------------------------------------------
# mult


def cmd_mult(args) -> int:
    ev = ExponentVector(tuple(args.exponents))
    equal = len(set(ev.a)) == 1
    sets = homogeneous_report(ev.a[0], ev.n) if equal else MultiplicitySet.compute(ev)
    rows = [  # (JSON and CSV key, text label, value)
        ("mu", "mu", sets.mu),
        ("L", "L = 3C + 2M", sets.l_value),
        ("caustic", "caustic", sets.caustic),
        ("maxwell", "maxwell", sets.maxwell),
        ("mixed_stokes", "mixed_stokes", sets.mixed_stokes),
        ("pure_stokes", "pure_stokes", sets.pure_stokes),
    ]
    ratios = {
        "caustic_over_n_mu": _ratio_payload(sets.ratio_caustic),
        "maxwell_over_half_mu2": _ratio_payload(sets.ratio_maxwell),
        "mixed_over_half_mu3": _ratio_payload(sets.ratio_mixed),
        "pure_over_eighth_mu4": _ratio_payload(sets.ratio_pure),
    } if equal else {}

    if args.format == "json":
        payload = {"exponents": list(ev.a), **{key: value for key, _, value in rows}}
        _emit_json({**payload, "homogeneous_ratios": ratios} if ratios else payload)
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["quantity", "value"])
        writer.writerows([key, "unsupported" if value is None else value] for key, _, value in rows)
    else:
        print(f"{'exponents':15s}{' '.join(str(x) for x in ev.a)}")
        for _, label, value in rows:
            print(f"{label:15s}{'unsupported' if value is None else value}")
        if ratios:
            print("asymptotic ratios (equal exponents):")
            for key, value in ratios.items():
                shown = "-" if value is None else f"{value['value']:.6f} ({value['exact']})"
                print(f"  {key:24s} {shown}")
    return EXIT_OK


def _ratio_payload(ratio: Optional[Fraction]):
    if ratio is None:
        return None
    return {"exact": f"{ratio.numerator}/{ratio.denominator}", "value": float(ratio)}


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    exponents = ExponentVector(tuple(args.exponents))
    grid = EpsilonGrid(args.eps_start, args.eps_ratio, args.eps_count, args.phase)
    line = _build_line(args, exponents)
    preset = None if args.phi_json else args.preset  # the JSON file's direction has no preset name
    report = verify_all(exponents, preset=preset, grid=grid, mu_cap=args.mu_cap, line=line)
    if args.slopes_csv:
        with open(args.slopes_csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["kind", "eps_magnitude", "log_total", "slope"])
            for kind, mag, total, slope in slope_table_rows(report):
                writer.writerow([kind, repr(mag), repr(total), "" if slope is None else repr(slope)])
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        header = f"{'quantity':22s} {'closed':>8s} {'estimate':>12s} {'snapped':>8s} {'verdict':>12s}"
        print(header)
        for row in report.rows:
            print(
                f"{row.quantity:22s} {_fmt(row.closed_form):>8s} {_fmt(row.estimate):>12s} "
                f"{_fmt(row.snapped):>8s} {row.verdict:>12s}"
            )
            if row.hint:
                print(f"    hint: {row.hint}")
    if report.any_degenerate:
        return EXIT_DEGENERATE
    return EXIT_OK if report.all_match else EXIT_FAIL


# ---------------------------------------------------------------------------
# cluster


def cmd_cluster(args) -> int:
    line = _build_line(args, ExponentVector(tuple(args.exponents)))
    report = cluster_scaling(line, tuple(args.eps_pair), args.phase)
    if args.format == "json":
        _emit_json(
            {
                "exponents": list(report.exponents),
                "eps_pair": list(report.eps_pair),
                "levels": [
                    {
                        "depth": lv.depth,
                        "measured": lv.measured,
                        "predicted": f"{lv.predicted.numerator}/{lv.predicted.denominator}",
                        "passed": lv.passed,
                        "pair_count": lv.pair_count,
                    }
                    for lv in report.levels
                ],
                "all_pass": report.all_pass,
            }
        )
    else:
        print(f"{'depth':>5s} {'measured':>10s} {'predicted':>10s} {'pairs':>6s} {'pass':>6s}")
        for lv in report.levels:
            measured = "-" if lv.measured is None else f"{lv.measured:.4f}"
            print(
                f"{lv.depth:>5d} {measured:>10s} {float(lv.predicted):>10.4f} "
                f"{lv.pair_count:>6d} {str(lv.passed):>6s}"
            )
    return EXIT_OK if report.all_pass else EXIT_FAIL


# ---------------------------------------------------------------------------
# trace


def cmd_trace(args) -> int:
    line = _build_line(args, ExponentVector(tuple(args.exponents)))
    kind = Kind(args.kind)
    if not 0 < args.eps < float("inf"):
        bound = "> 0" if args.eps <= 0 else "finite"
        raise ValueError(f"--eps is the magnitude |eps| and must be {bound}, got {args.eps}")
    sample = complex(args.eps) * _ray(args.phase)
    product = evaluate_trace(line, [sample], [kind]).samples[0][kind]
    names = [",".join(map(str, label)) for label in product.labels]
    handle = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(["kind", "indices", "log_magnitude"])
        name = kind.value
        for rows, logs in _log_chunks(product.table, product.values):
            writer.writerows(
                (name, " ".join([names[i] for i in row]), "ExactZero" if math.isnan(x) else repr(x))
                for row, x in zip(rows.tolist(), logs.tolist())
            )
    finally:
        if args.out:
            handle.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# presets


def cmd_presets(args) -> int:
    descriptions = {
        "linear": "q-ladder direction: q1=1, x0.3 per strict exponent drop, x0.01 per tie",
        "quadratic_1d": "one variable: linear plus z^2 (restores genericity for even degree)",
        "xy_coupled": "two variables: q-ladder plus q2*x*y coupling",
    }
    for name in PRESETS:
        print(f"{name:14s} {descriptions[name]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_exponents(parser) -> None:
    parser.add_argument("exponents", type=int, nargs="+", help="Pham exponents a_1 ... a_n")


def _add_grid_flags(parser) -> None:
    parser.add_argument("--eps-start", type=float, default=EpsilonGrid.start,
                        help="largest |eps| (default 1e-2)")
    parser.add_argument("--eps-ratio", type=float, default=EpsilonGrid.ratio,
                        help="grid ratio (default 10^-0.5)")
    parser.add_argument("--eps-count", type=int, default=EpsilonGrid.count,
                        help="number of samples (default 7)")
    parser.add_argument("--phase", type=float, default=EpsilonGrid.phase,
                        help="ray phase in radians (default 0.37)")


def _add_line_flags(parser) -> None:
    parser.add_argument("--preset", choices=PRESETS, default="linear", help="deformation direction")
    parser.add_argument("--phi-json", help="JSON polynomial literal overriding the preset")
    parser.add_argument("--jitter", type=int, default=None, metavar="SEED",
                        help="multiplicatively perturb q by factors in [0.9, 1.1]")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phamlab",
        description="Multiplicities of bifurcation sets of Pham singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mult = sub.add_parser("mult", help="closed-form multiplicities")
    _add_exponents(p_mult)
    p_mult.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_mult.set_defaults(func=cmd_mult)

    p_verify = sub.add_parser("verify", help="verify degrees numerically against the formulas")
    _add_exponents(p_verify)
    _add_line_flags(p_verify)
    _add_grid_flags(p_verify)
    p_verify.add_argument("--mu-cap", type=int, default=DEFAULT_MU_CAP,
                          help=f"refuse mu above this (default {DEFAULT_MU_CAP})")
    p_verify.add_argument("--slopes-csv", help="write the slope table to this CSV file")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_cluster = sub.add_parser("cluster", help="check critical-value gap scaling per depth")
    _add_exponents(p_cluster)
    _add_line_flags(p_cluster)
    p_cluster.add_argument("--eps-pair", type=float, nargs=2, default=(1e-3, 1e-4),
                           metavar=("E1", "E2"), help="the two |eps| magnitudes")
    p_cluster.add_argument("--phase", type=float, default=EpsilonGrid.phase)
    p_cluster.add_argument("--format", choices=("text", "json"), default="text")
    p_cluster.set_defaults(func=cmd_cluster)

    p_trace = sub.add_parser("trace", help="dump per-factor log magnitudes as CSV")
    _add_exponents(p_trace)
    _add_line_flags(p_trace)
    p_trace.add_argument("--kind", choices=[k.value for k in Kind], default="D_pair")
    p_trace.add_argument("--eps", type=float, default=1e-3, help="|eps| of the single sample")
    p_trace.add_argument("--phase", type=float, default=EpsilonGrid.phase)
    p_trace.add_argument("--out", help="CSV path (default stdout)")
    p_trace.set_defaults(func=cmd_trace)

    p_presets = sub.add_parser("presets", help="list deformation-direction presets")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrackerError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
