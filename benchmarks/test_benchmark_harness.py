"""Tests of the benchmark harness itself: generation, tracing, checks, names."""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generator_is_deterministic_per_seed(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)


def test_known_defects_stay_in_the_workloads():
    quad = workloads.build("quad_large", 0)
    sweep = workloads.build("tracked_sweep", 0)
    assert any(c[:3] == ("verify", "7", "5") and "xy_coupled" in c for c in quad)
    assert any(c[:3] == ("verify", "5", "5") and "xy_coupled" in c for c in quad)
    assert any(c[:3] == ("verify", "5", "3") and "--eps-start" not in c for c in sweep)
    for exps in ("6", "8"):
        assert ("verify", exps, "--preset", "quadratic_1d", "--format", "json") in sweep
    assert sum(c[0] == "verify" for c in sweep) >= 100


def _main_output(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_tracer_restores_wrappers_and_keeps_output():
    import phamlab.cli

    targets = [(tracing._resolve(path), attr) for path, attr, _, _ in tracing.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in targets]
    argv = ["verify", "3", "--preset", "quadratic_1d", "--format", "json"]
    plain = _main_output(phamlab.cli, argv)
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert all(vars(o)[a] is not orig for (o, a), orig in zip(targets, originals))
            traced = _main_output(phamlab.cli, argv)
            raise RuntimeError("leave the block abnormally")
    assert all(vars(o)[a] is orig for (o, a), orig in zip(targets, originals))
    assert traced == plain
    assert not tracer.check_failures
    metrics = tracer.layer_metrics()
    assert metrics["cli.calls"] == 1
    assert metrics["critical_tracker.tracked_sets"] == metrics["critical_tracker.sets"] == 7
    self_sum = sum(tracer.self_times().values())
    top = [end - start for _, _, start, end, parent, *_ in tracer.spans if parent < 0]
    assert self_sum == pytest.approx(sum(top))


def test_output_checks_catch_wrong_closed_forms_and_exit_codes():
    import phamlab.cli
    from phamlab.closed_forms import MultiplicitySet

    argv = ("verify", "3", "--format", "json")
    expected = {(3,): MultiplicitySet.compute((3,))}
    rc, out = _main_output(phamlab.cli, list(argv))
    assert run.check_call(argv, rc, out, expected)[0] == []
    assert run.check_call(argv, 1, out, expected)[0]
    assert run.check_call(argv, 4, out, expected)[0]
    payload = json.loads(out)
    payload["rows"][0]["closed_form"] += 1
    assert run.check_call(argv, rc, json.dumps(payload), expected)[0]


def test_metric_names_and_units_follow_the_charset():
    passes = [run.PassResult(wall_s=1.0, verify_ms=[1.0, 2.0, 3.0])]
    produced = {
        "end_to_end": run.end_to_end(passes, [0.1]),
        "per_layer": run.per_layer(passes, [(passes[0], tracing.Tracer())], passes[0])[0],
    }
    for group, metrics in produced.items():
        assert sorted(metrics) == sorted(m["name"] for m in SPEC[group])
        for spec in SPEC[group]:
            assert NAME.fullmatch(spec["name"]) and UNIT.fullmatch(spec["unit"])
            assert run.units_of(spec["name"]) == spec["unit"]
    assert all(NAME.fullmatch(w["name"]) for w in SPEC["workloads"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
