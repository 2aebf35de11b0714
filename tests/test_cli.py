"""CLI contract tests: output shapes, exit codes, reproducibility."""

import csv
import io
import json

import pytest

from phamlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMult:
    def test_table_3_3(self, capsys):
        code, out, _ = run(capsys, "mult", "3", "3")
        assert code == 0
        assert "caustic        12" in out
        assert "maxwell        30" in out
        assert "mixed_stokes   336" in out
        assert "pure_stokes    507" in out
        assert "asymptotic ratios" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "mult", "1")
        assert code == 0
        for line in ("L = 3C + 2M    0", "caustic        0", "maxwell        0"):
            assert line in out

    def test_json_pure_even(self, capsys):
        code, out, _ = run(capsys, "mult", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pure_stokes"] == 4
        assert data["L"] == 15

    def test_unsupported_pure_in_csv(self, capsys):
        code, out, _ = run(capsys, "mult", "2", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert ["pure_stokes", "unsupported"] in rows

    def test_invalid_exponent_exits_2(self, capsys):
        code, _, err = run(capsys, "mult", "0")
        assert code == 2
        assert "positive" in err


class TestVerify:
    def test_quintic_all_match(self, capsys):
        code, out, _ = run(capsys, "verify", "5")
        assert code == 0
        assert out.count("Match") == 5

    def test_even_linear_degenerate_exit_3(self, capsys):
        code, out, _ = run(capsys, "verify", "4", "--preset", "linear")
        assert code == 3
        assert "Degenerate" in out
        assert "parallelogram" in out

    def test_even_quadratic_direction_matches(self, capsys):
        code, out, _ = run(capsys, "verify", "4", "--preset", "quadratic_1d")
        assert code == 0
        assert out.count("Match") == 5

    def test_mu_cap_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "5", "5")
        assert code == 2
        assert "cap" in err

    def test_json_round_trips_bitwise(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "--format", "json")
        assert code == 0
        reparsed = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert reparsed == out

    def test_reproducible_bytes(self, capsys):
        _, out1, _ = run(capsys, "verify", "3", "--format", "json")
        _, out2, _ = run(capsys, "verify", "3", "--format", "json")
        assert out1 == out2

    def test_jitter_deterministic_per_seed(self, capsys):
        _, out1, _ = run(capsys, "verify", "3", "3", "--jitter", "11", "--format", "json")
        _, out2, _ = run(capsys, "verify", "3", "3", "--jitter", "11", "--format", "json")
        assert out1 == out2
        code, out3, _ = run(capsys, "verify", "3", "3", "--jitter", "12", "--format", "json")
        # verdicts stay stable across seeds even though the line moved
        v1 = [r["verdict"] for r in json.loads(out1)["rows"]]
        v3 = [r["verdict"] for r in json.loads(out3)["rows"]]
        assert v1 == v3

    def test_slopes_csv(self, capsys, tmp_path):
        path = tmp_path / "slopes.csv"
        code, _, _ = run(capsys, "verify", "3", "--slopes-csv", str(path))
        assert code == 0
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["kind", "eps_magnitude", "log_total", "slope"]
        assert len(rows) == 1 + 4 * 7  # four kinds, seven samples each

    def test_grid_that_underflows_is_a_usage_error(self, capsys):
        # from 645 samples on, the default grid's last |eps| rounds to 0.0
        code, out, err = run(capsys, "verify", "3", "--eps-count", "645")
        assert code == 2
        assert out == ""
        assert err == "error: 645 samples take |eps| below the smallest float\n"

    def test_count_too_large_for_a_float_is_a_usage_error(self, capsys):
        # the check is O(1): no grid is listed; Python said "int too large to convert to float"
        count = str(10**400)
        code, out, err = run(capsys, "verify", "3", "--eps-count", count)
        assert code == 2
        assert out == ""
        assert err == f"error: {count} samples take |eps| below the smallest float\n"


class TestCluster:
    def test_two_rows(self, capsys):
        code, out, _ = run(capsys, "cluster", "5", "3")
        assert code == 0
        assert "1.2" in out and "1.333" in out

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "cluster", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["levels"]) == 1
        assert abs(data["levels"][0]["measured"] - 4 / 3) < 0.05

    def test_morse_vacuous_pass(self, capsys):
        code, out, _ = run(capsys, "cluster", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["levels"][0]["measured"] is None
        assert data["all_pass"]


class TestTrace:
    def test_factor_csv_columns(self, capsys, tmp_path):
        path = tmp_path / "factors.csv"
        code, _, _ = run(capsys, "trace", "3", "--kind", "Y_triple", "--out", str(path))
        assert code == 0
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["kind", "indices", "log_magnitude"]
        assert len(rows) == 1 + 3
        assert all(r[0] == "Y_triple" for r in rows[1:])

    def test_exact_zero_marker(self, capsys):
        code, out, _ = run(capsys, "trace", "4", "--kind", "Omega_quad")
        assert code == 0
        assert "ExactZero" in out


class TestNonFinitePhase:
    @pytest.mark.parametrize("phase", ["inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [("cluster", "5", "3"), ("cluster", "5", "3", "--preset", "xy_coupled"), ("trace", "3"), ("verify", "3")],
    )
    def test_rejected_with_the_message_verify_gives(self, capsys, argv, phase):
        code, out, err = run(capsys, *argv, "--phase", phase)
        assert code == 2
        assert out == ""
        assert err == f"error: ray phase must be finite, got {phase}\n"


class TestTraceMagnitude:
    def test_negative_eps_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "trace", "3", "--eps=-1e-3")
        assert code == 2
        assert out == ""
        assert "must be > 0" in err

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_eps_names_the_magnitude(self, capsys, eps):
        code, out, err = run(capsys, "trace", "3", f"--eps={eps}")
        assert code == 2
        assert out == ""
        assert f"--eps is the magnitude |eps| and must be finite, got {eps}" in err


class TestPresets:
    def test_lists_all(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        for name in ("linear", "quadratic_1d", "xy_coupled"):
            assert name in out


class TestPhiJson:
    def test_custom_direction(self, capsys, tmp_path):
        phi = {
            "vars": 1,
            "terms": [
                {"exp": [1], "re": 1.0, "im": 0.0},
                {"exp": [2], "re": 1.0, "im": 0.0},
            ],
        }
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(phi))
        code, out, _ = run(capsys, "verify", "4", "--phi-json", str(path))
        assert code == 0
        assert out.count("Match") == 5

    def test_json_report_names_no_preset(self, capsys, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"vars": 2, "terms": [{"exp": [1, 0], "re": 1.0}, {"exp": [0, 1], "re": 0.3}]}))
        code, out, _ = run(capsys, "verify", "3", "2", "--phi-json", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["preset"] is None
        code, out, _ = run(capsys, "verify", "3", "2", "--format", "json")
        assert json.loads(out)["preset"] == "linear"

    @pytest.mark.parametrize(
        "coupling, message",
        [
            ([0.15, 0.15], r"exponent (1, 1) is listed twice"),
            ([float("nan")], r"coefficient (nan+0j) of exponent (1, 1) is not finite"),
            ([float("inf")], r"coefficient (inf+0j) of exponent (1, 1) is not finite"),
        ],
    )
    def test_malformed_literal_is_a_usage_error(self, capsys, tmp_path, coupling, message):
        # json writes NaN and Infinity literals, and json.load reads them back
        terms = [{"exp": [1, 0], "re": 1.0}, {"exp": [0, 1], "re": 0.3}]
        terms += [{"exp": [1, 1], "re": c} for c in coupling]
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"vars": 2, "terms": terms}))
        code, out, err = run(capsys, "verify", "5", "3", "--phi-json", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "vars_, exp, message",
        [
            (2, [1.7, 1], "exponent entry 1.7 is not an integer"),
            (2, [1.0, 1], "exponent entry 1.0 is not an integer"),
            (2, [True, 1], "exponent entry True is not an integer"),
            (2.9, [1, 1], "variable count 2.9 is not an integer"),
        ],
    )
    def test_non_integer_exponent_is_a_usage_error(self, capsys, tmp_path, vars_, exp, message):
        # int() read [1.7, 1] as x*y and "vars": 2.9 as 2, and verify ran on that
        terms = [{"exp": [1, 0], "re": 1.0}, {"exp": [0, 1], "re": 0.3}, {"exp": exp, "re": 0.1}]
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"vars": vars_, "terms": terms}))
        code, out, err = run(capsys, "verify", "3", "2", "--phi-json", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "coupling, message",
        [
            ({"re": True, "im": "0"}, "real part True is not a number"),
            ({"re": 1.0, "im": "0"}, "imaginary part '0' is not a number"),
            ({"re": 10**400}, "coefficient (inf+0j) of exponent (1, 1) is not finite"),
        ],
    )
    def test_non_number_coefficient_is_a_usage_error(self, capsys, tmp_path, coupling, message):
        # float() read true as 1.0 and "0" as 0.0, and verify ran on that; a 401-digit
        # integer gave Python's own "int too large to convert to float"
        terms = [{"exp": [1, 0], "re": 1.0}, {"exp": [0, 1], "re": 0.3}, {"exp": [1, 1], **coupling}]
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"vars": 2, "terms": terms}))
        code, out, err = run(capsys, "verify", "3", "2", "--phi-json", str(path))
        assert code == 2
        assert out == ""
        assert message in err
