"""phamlab benchmark: end-to-end and per-layer metrics over seeded workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload quad_large --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py              # every workload, one fresh interpreter each

The workload process drives the public entry point ``phamlab.cli.main`` in
passes over the workload's calls until ``--seconds`` is used up (at least one
pass), checks every call's output and prints each metric by name and unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``tracing.Tracer``; the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import KINDS, Tracer  # noqa: E402

# One BLAS thread keeps timings steady and stays within nproc on any machine;
# numpy reads these only when it is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import phamlab.cli; "
    "print(repr(time.perf_counter() - t))"
)
ROW_FORMS = {
    "pair_product_degree": "l_value",
    "caustic": "caustic",
    "maxwell": "maxwell",
    "mixed_stokes": "mixed_stokes",
    "pure_stokes": "pure_stokes",
}
MULT_FORMS = {"L": "l_value", **{k: k for k in ("mu", "caustic", "maxwell", "mixed_stokes", "pure_stokes")}}
UNRESOLVED = ("Mismatch", "Inconclusive")
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verify_p50_ms": "ms",
    "verify_p90_ms": "ms",
    "rows_match": "count",
}


class SetupError(Exception):
    """The checkout does not hold a runnable phamlab."""


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_program():
    """Import phamlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "phamlab" / "cli.py").is_file():
        raise SetupError(f"no phamlab sources under {SRC}")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import phamlab.cli

    if Path(phamlab.cli.__file__).resolve().parent != SRC / "phamlab":
        raise SetupError(f"imported phamlab from {phamlab.cli.__file__}, not from {SRC}")
    return phamlab.cli


def setup_times(repeats: int) -> list[float]:
    """Seconds to import phamlab.cli, each in a fresh interpreter.

    One untimed import first compiles the bytecode cache, which an installed
    CLI also has in place.
    """
    times = []
    for k in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise SetupError(f"importing phamlab.cli failed:\n{done.stderr}")
        if k:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# output checks


def exponents_of(argv: tuple[str, ...]) -> tuple[int, ...]:
    exps = []
    for token in argv[1:]:
        if not token.isdigit():
            break
        exps.append(int(token))
    return tuple(exps)


def check_call(argv, rc, out: str, expected: dict) -> tuple[list[str], Counter]:
    """Problems found in one call's output, and its verdict counts."""
    if rc not in (0, 1, 3):
        return [f"exit code {rc}"], Counter()
    try:
        return _check_payload(argv, rc, json.loads(out), expected[exponents_of(argv)])
    except (ValueError, KeyError, TypeError) as err:
        return [f"malformed output: {err!r}"], Counter()


def _check_payload(argv, rc, payload: dict, forms) -> tuple[list[str], Counter]:
    command = argv[0]
    problems = []
    verdicts: Counter = Counter()
    if command == "verify":
        for row in payload["rows"]:
            verdicts[row["verdict"]] += 1
            want = getattr(forms, ROW_FORMS[row["quantity"]])
            if row["closed_form"] != want:
                problems.append(f"{row['quantity']}: closed_form {row['closed_form']} != {want}")
        attempted = [row["verdict"] for row in payload["rows"] if row["verdict"] != "Unsupported"]
        if "Degenerate" in attempted:
            want_rc = 3
        else:
            want_rc = 0 if all(v == "Match" for v in attempted) else 1
        if rc != want_rc:
            problems.append(f"exit code {rc} but the rows call for {want_rc}")
        if payload["all_match"] != all(v == "Match" for v in attempted):
            problems.append("all_match disagrees with the rows")
    elif command == "mult":
        for key, attr in MULT_FORMS.items():
            if payload[key] != getattr(forms, attr):
                problems.append(f"mult {key}: {payload[key]} != {getattr(forms, attr)}")
        if rc != 0:
            problems.append(f"mult exit code {rc}")
    elif command == "cluster":
        if rc != (0 if payload["all_pass"] else 1):
            problems.append(f"cluster exit code {rc} disagrees with all_pass")
    return problems, verdicts


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    wall_s: float = 0.0
    verify_ms: list = field(default_factory=list)
    verdicts: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)
    digest: str = ""
    calls: int = 0


def run_pass(cli, calls, expected, tracer=None) -> PassResult:
    """One pass over ``calls``; times only the ``cli.main`` calls themselves."""
    result = PassResult()
    digest = hashlib.sha256()
    for argv in calls:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        checks_before = len(tracer.check_failures) if tracer else 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is one failed call, not the end of the run
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        result.calls += 1
        result.wall_s += elapsed
        if argv[0] == "verify":
            result.verify_ms.append(elapsed * 1e3)
        for chunk in (" ".join(argv), str(rc), out.getvalue(), err.getvalue()):
            digest.update(chunk.encode() + b"\0")
        problems, verdicts = check_call(argv, rc, out.getvalue(), expected)
        if tracer:
            problems += tracer.check_failures[checks_before:]
        result.verdicts += verdicts
        if problems:
            result.failures.append((" ".join(argv), problems, err.getvalue()[-2000:]))
    result.digest = digest.hexdigest()
    return result


def timed_passes(run_one, seconds: float) -> list:
    """Repeat ``run_one`` while the next repeat is predicted to fit in ``seconds``."""
    results, start, longest = [], time.perf_counter(), 0.0
    while True:
        began = time.perf_counter()
        results.append(run_one())
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            return results


# ---------------------------------------------------------------------------
# metrics


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[PassResult], setup: list[float]) -> dict:
    latencies = [ms for p in passes for ms in p.verify_ms]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verify_p50_ms": quantile(latencies, 50),
        "verify_p90_ms": quantile(latencies, 90),
        "rows_match": passes[0].verdicts["Match"],
    }


def per_layer(plain: list[PassResult], traced: list[tuple], first: PassResult) -> tuple[dict, list]:
    """Medians of the traced passes' layer times; counts must repeat exactly."""
    problems = []
    layer = [tracer.layer_metrics() for _, tracer in traced]
    metrics = {}
    for name in layer[0]:
        values = [m[name] for m in layer]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["critical_tracker.closed_form_sets"] = (
        metrics["critical_tracker.sets"] - metrics["critical_tracker.tracked_sets"]
    )
    verdicts = first.verdicts
    metrics["degree_lab.rows_match"] = verdicts["Match"]
    metrics["degree_lab.rows_attempted"] = sum(verdicts.values()) - verdicts["Unsupported"]
    metrics["degree_lab.rows_unresolved"] = sum(verdicts[v] for v in UNRESOLVED)
    traced_wall = statistics.median(result.wall_s for result, _ in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p.wall_s for p in plain)
    return metrics, problems


def units_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith(("_s", ".s")) else "count"


def write_spans(traced: list[tuple], path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for index, (_, tracer) in enumerate(traced):
            tracer.dump(handle, pass_index=index)
    print(f"spans: {path.relative_to(ROOT)}")


def explain_trace(last: tuple, calls, overhead_s: float) -> None:
    """Where the time of the last traced pass, and of its slowest call, went."""
    result, tracer = last
    self_times = tracer.self_times()
    print(f"traced pass: layer self times sum to {sum(self_times.values()):.4f} s, "
          f"traced wall {result.wall_s:.4f} s, tracing overhead {overhead_s:.4f} s")
    slowest = max((span for span in tracer.spans if span[4] < 0), key=lambda s: s[3] - s[2])
    call_id = slowest[5]
    print(f"slowest call: phamlab {' '.join(calls[call_id - 1])}  {slowest[3] - slowest[2]:.4f} s")
    for layer, seconds in sorted(tracer.self_times(call_id).items(), key=lambda kv: -kv[1]):
        print(f"  {layer + '.self_s':36s} {seconds:.4f} s")
    for log_name, kind in KINDS.items():
        seconds = tracer.inclusive(f"discriminant_products.{log_name}", call_id=call_id)
        print(f"  {'discriminant_products.' + kind + '_s':36s} {seconds:.4f} s")


def run_workload(args) -> int:
    try:
        cli = load_program()
        setup = [] if args.trace else setup_times(SETUP_REPEATS)
    except SetupError as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return 2
    from phamlab.closed_forms import MultiplicitySet

    calls = workloads.build(args.workload, args.seed)
    expected = {exponents_of(argv): MultiplicitySet.compute(exponents_of(argv)) for argv in calls}

    if args.trace:
        def traced_pair():
            plain = run_pass(cli, calls, expected)
            with Tracer() as tracer:
                traced = run_pass(cli, calls, expected, tracer)
            return plain, (traced, tracer)

        pairs = timed_passes(traced_pair, args.seconds)
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        passes = plain + [result for result, _ in traced]
        metrics, problems = per_layer(plain, traced, plain[0])
        write_spans(traced, ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        explain_trace(traced[-1], calls, metrics["trace.overhead_s"])
    else:
        passes = timed_passes(lambda: run_pass(cli, calls, expected), args.seconds)
        metrics, problems = end_to_end(passes, setup), []

    attempted = sum(p.calls for p in passes)
    failed = sum(len(p.failures) for p in passes)
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"output digests differ between passes: {sorted(digests)}")
    first = passes[0]
    unresolved = sum(first.verdicts[v] for v in UNRESOLVED)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  calls/pass {len(calls)}  verify samples {sum(len(p.verify_ms) for p in passes)}")
    print(f"output digest {first.digest}")
    print("verdicts per pass: " + ", ".join(f"{k}={v}" for k, v in sorted(first.verdicts.items())))
    print(f"rows_unresolved {unresolved} count (Mismatch + Inconclusive)")
    print(f"ops_failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
    for call, reasons, stderr in [f for p in passes for f in p.failures][:10]:
        print(f"FAILED {call}: {'; '.join(reasons)}\n{stderr}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name:44s} {value!r} {units_of(name)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of(name)} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    status = 0
    for name in workloads.BUILDERS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.BUILDERS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
