"""Golden CLI outputs: exit code and stdout bytes must not change.

Each file under ``tests/golden/`` starts with an ``exit <code>`` line followed
by the exact stdout of one invocation; the ``--slopes-csv`` case appends the
CSV file after a marker line.  ``--help`` cases exit through SystemExit and
are rendered at COLUMNS=80.
"""

import contextlib
import io
from pathlib import Path

import pytest

from phamlab import discriminant_products
from phamlab.cli import build_parser, main
from phamlab.discriminant_products import LogProduct

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SLOPES = "{slopes}"  # replaced by a temporary CSV path
SLOPES_MARKER = b"--- slopes csv ---\n"

CASES = {
    "verify_3_3_xy": ["verify", "3", "3", "--preset", "xy_coupled"],
    "verify_3_3_xy_json": ["verify", "3", "3", "--preset", "xy_coupled", "--format", "json"],
    "verify_4": ["verify", "4"],
    "verify_4_json": ["verify", "4", "--format", "json"],
    "verify_4_quadratic": ["verify", "4", "--preset", "quadratic_1d"],
    "verify_4_quadratic_json": ["verify", "4", "--preset", "quadratic_1d", "--format", "json"],
    "verify_5_3_xy": ["verify", "5", "3", "--preset", "xy_coupled"],
    "verify_5_3_xy_json": ["verify", "5", "3", "--preset", "xy_coupled", "--format", "json"],
    "verify_3_3_2": ["verify", "3", "3", "2", "--mu-cap", "18"],
    "verify_3_3_2_json": ["verify", "3", "3", "2", "--mu-cap", "18", "--format", "json"],
    "verify_3_slopes": ["verify", "3", "--slopes-csv", SLOPES],
    "verify_15_quadratic_json": ["verify", "15", "--preset", "quadratic_1d", "--format", "json"],
    "verify_3_3_xy_phase_json": [
        "verify", "3", "3", "--preset", "xy_coupled", "--phase", "0.5", "--format", "json"
    ],
    "trace_4_omega": ["trace", "4", "--kind", "Omega_quad"],
    "trace_3_3_xy_omega": ["trace", "3", "3", "--preset", "xy_coupled", "--kind", "Omega_quad"],
    "trace_5_y": ["trace", "5", "--kind", "Y_triple"],
    "trace_3_3_xy_d_phase": [
        "trace", "3", "3", "--preset", "xy_coupled", "--kind", "D_pair", "--phase", "0.5"
    ],
    "cluster_5_3_xy_json": ["cluster", "5", "3", "--preset", "xy_coupled", "--format", "json"],
    "cluster_5_3_xy_phase_json": [
        "cluster", "5", "3", "--preset", "xy_coupled", "--phase", "0.5", "--format", "json"
    ],
    "mult_3_3": ["mult", "3", "3"],
    "mult_3_3_json": ["mult", "3", "3", "--format", "json"],
    "mult_3_3_csv": ["mult", "3", "3", "--format", "csv"],
    "presets": ["presets"],
    "help": ["--help"],
    "help_mult": ["mult", "--help"],
    "help_verify": ["verify", "--help"],
    "help_cluster": ["cluster", "--help"],
    "help_trace": ["trace", "--help"],
    "help_presets": ["presets", "--help"],
}


def run_case(argv, tmp_dir: Path) -> bytes:
    """Exit line, stdout and (if requested) the slopes CSV of one CLI call."""
    slopes = tmp_dir / "slopes.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main([str(slopes) if arg == SLOPES else arg for arg in argv])
        except SystemExit as stop:
            code = stop.code
    record = f"exit {code}\n".encode() + out.getvalue().encode()
    if SLOPES in argv:
        record += SLOPES_MARKER + slopes.read_bytes()
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert run_case(CASES[name], tmp_path) == expected


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("trace_")))
def test_trace_writes_rows_without_factor_records(name, tmp_path, monkeypatch):
    def refuse(self, k):
        raise AssertionError(f"trace built the record of factor {k}")

    monkeypatch.setattr(LogProduct, "record", refuse)
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert run_case(CASES[name], tmp_path) == expected


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("trace_")))
def test_trace_streams_the_kernel_chunks(name, chunk, tmp_path, monkeypatch):
    # the CSV is written chunk by chunk as the kernel yields them; no full log array is formed
    def refuse(self):
        raise AssertionError("trace built the per-factor log array")

    monkeypatch.setattr(LogProduct, "logs", property(refuse))
    if chunk is not None:
        monkeypatch.setattr(discriminant_products, "_CHUNK", chunk)
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert run_case(CASES[name], tmp_path) == expected


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("help")))
def test_help_is_rendered_at_the_width_of_the_call(name, tmp_path, monkeypatch):
    # the parser is built once per process; a narrow terminal at build time
    # must not leak into help rendered later at COLUMNS=80
    build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "30")
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert run_case(CASES[name], tmp_path) == expected
