"""Command-line interface: payload schemas, determinism, manifests, exit codes."""

import json
import math

import pytest
from test_acceptance import Budget

from eulertails.cli import CSV_COLUMNS, VERIFY_SUITES, main
from eulertails.manifest import ConstantRecord, RunManifest
from eulertails.quadrature import DEFAULT_QUAD


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestConstants:
    def test_json_payload(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--J", "2")
        assert code == 0 and err == ""
        rows = {r["name"]: r for r in json.loads(out)["rows"]}
        assert rows["a_star_1"]["value"] == 1.0
        assert rows["b_1_2"]["value"] == pytest.approx(2.0, abs=1e-9)
        assert rows["gamma0"]["value"] == pytest.approx(
            -0.1984382640203625, rel=1e-10
        )
        assert rows["gamma_1"]["abs_error_estimate"] is None  # NaN -> null

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--J", "1", "--format", "csv")
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["name", "j", "n", "value", "abs_error_estimate"]
        assert rows[0]["name"] == "gamma0"

    def test_csv_cells_are_plain_numbers(self, capsys):
        # numpy scalars must not leak their repr ("np.float64(...)") into cells
        code, out, _ = run_cli(capsys, "constants", "--J", "2", "--format", "csv")
        assert code == 0 and "np.float64" not in out
        _, rows = parse_csv(out)
        for row in rows:
            float(row["value"])  # every value cell parses as a number

    def test_two_runs_print_the_same_bytes(self, capsys):
        code1, out1, _ = run_cli(capsys, "constants", "--J", "2")
        code2, out2, _ = run_cli(capsys, "constants", "--J", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_then_csv(self, capsys):
        run_cli(capsys, "constants", "--J", "1")
        code, out, _ = run_cli(capsys, "constants", "--J", "1", "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        by_name = {r["name"]: r for r in rows}
        assert float(by_name["a_1"]["value"]) == pytest.approx(2.0, abs=1e-9)

    def test_writes_no_file_without_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "constants", "--J", "1")
        assert code == 0 and out
        assert list(tmp_path.iterdir()) == []

    def test_out_file_embeds_manifest(self, capsys, tmp_path):
        dest = tmp_path / "constants.json"
        code, _, _ = run_cli(capsys, "constants", "--J", "1", "--out", str(dest))
        assert code == 0
        payload = json.loads(dest.read_text())
        manifest = RunManifest.from_dict(payload["manifest"])
        assert manifest.command_line.startswith("eulertails constants")
        assert manifest.constants["gamma0"].value == pytest.approx(
            -0.1984382640203625, rel=1e-10
        )
        assert manifest.wall_time_s >= 0.0


class TestSaddle:
    def test_payload(self, capsys):
        code, out, _ = run_cli(capsys, "saddle", "--t", "2", "--y", "50")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["kappa"] == pytest.approx(9.799170, abs=2e-6)
        assert abs(row["residual"]) <= 1e-10
        assert row["tail"] == "upper"
        assert row["bracket_lo"] < row["kappa"] < row["bracket_hi"]
        assert row["phi2"] > 0

    def test_lower_tail(self, capsys):
        code, out, _ = run_cli(
            capsys, "saddle", "--t", "1.5", "--y", "50", "--tail", "lower"
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["tail"] == "lower"
        assert row["kappa"] == pytest.approx(2.486801, abs=2e-6)

    def test_regime_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "saddle", "--t", "3", "--y", "30")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "raise y or lower t" in err


class TestTail:
    def test_csv_schema_and_saddle_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "tail", "--t", "1.5", "--y", "30", "--method", "saddle"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert tuple(header) == CSV_COLUMNS
        assert rows[0]["method"] == "saddle_gauss"
        assert float(rows[0]["log_value"]) == pytest.approx(-7.17568, abs=2e-5)
        assert rows[0]["seed"] == ""  # deterministic method: no seed

    def test_all_methods_upper(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tail",
            "--t", "1.5", "--y", "30",
            "--n-samples", "50000", "--seed", "20260825",
        )
        assert code == 0
        _, rows = parse_csv(out)
        methods = [r["method"] for r in rows]
        assert methods == ["saddle_gauss", "expansion", "perron", "monte_carlo"]
        mc = rows[-1]
        assert mc["seed"] == "20260825"
        by_method = {r["method"]: r for r in rows}
        # saddle, contour, and MC agree to coarse MC resolution; the
        # asymptotic expansion is out of its depth at t = 1.5 but must say
        # so through its error indicator
        tight = [
            float(by_method[m]["log_value"])
            for m in ("saddle_gauss", "perron", "monte_carlo")
        ]
        assert max(tight) - min(tight) < 0.8
        exp_row = by_method["expansion"]
        gap = abs(float(exp_row["log_value"]) - tight[0])
        assert gap <= float(exp_row["error_indicator"])

    def test_all_methods_lower_drops_expansion(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tail",
            "--t", "1.5", "--y", "50", "--tail", "lower",
            "--n-samples", "20000", "--seed", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["method"] for r in rows] == [
            "saddle_gauss", "perron", "monte_carlo",
        ]

    def test_lower_expansion_is_actionable_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "tail",
            "--t", "1.5", "--y", "50",
            "--tail", "lower", "--method", "expansion",
        )
        assert code == 1
        assert "upper tail only" in err

    def test_truncation_failure_exit_code(self, capsys):
        lam = repr(0.25 * math.exp(-2.0))
        with Budget(10.0):
            code, _, err = run_cli(
                capsys,
                "tail",
                "--t", "2", "--y", "50", "--method", "perron",
                "--lambda", lam, "--tau-max", "3",
            )
        assert code == 2
        assert "truncation" in err

    def test_smoothing_flags_need_lambda(self, capsys):
        code, _, err = run_cli(
            capsys,
            "tail",
            "--t", "2", "--y", "50", "--method", "perron", "--tau-max", "40",
        )
        assert code == 1
        assert "--lambda" in err

    def test_out_csv_prepends_manifest_line(self, capsys, tmp_path):
        dest = tmp_path / "tail.csv"
        code, out, _ = run_cli(
            capsys,
            "tail",
            "--t", "1.5", "--y", "30", "--method", "saddle",
            "--out", str(dest),
        )
        assert code == 0
        text = dest.read_text()
        first, rest = text.split("\n", 1)
        assert first.startswith("# manifest: ")
        manifest = RunManifest.from_json(first[len("# manifest: "):])
        assert manifest.quad == DEFAULT_QUAD
        assert rest == out  # stdout payload is the file minus the manifest


class TestMc:
    def test_plain_deterministic(self, capsys):
        args = (
            "mc",
            "--t", "1.5", "--y", "30",
            "--n-samples", "20000", "--seed", "20260825",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        _, rows = parse_csv(out1)
        assert rows[0]["method"] == "monte_carlo"
        assert float(rows[0]["log_value"]) < 0

    def test_tilted_auto_matches_explicit(self, capsys):
        base = (
            "mc",
            "--t", "2", "--y", "50",
            "--n-samples", "8192", "--seed", "20260825",
        )
        code1, out1, _ = run_cli(capsys, *base, "--tilt")
        code2, out2, _ = run_cli(capsys, *base, "--tilt", "9.79917008")
        assert code1 == code2 == 0
        _, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        # auto resolves the tilt via the saddle solve: same to solver tol
        assert float(rows1[0]["log_value"]) == pytest.approx(
            float(rows2[0]["log_value"]), abs=1e-4
        )

    def test_zero_hits_row_flags_missing_stderr(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc",
            "--t", "2.5", "--y", "80", "--n-samples", "4096", "--seed", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["log_value"]) == pytest.approx(
            math.log(-math.log(0.05) / 4096), rel=1e-12
        )
        assert rows[0]["error_indicator"] == ""  # NaN renders empty


class TestTable:
    def test_grid_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table",
            "--t", "1.5,2.0", "--y", "50", "--method", "saddle",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["t"] for r in rows] == ["1.5", "2.0"]
        assert all(r["method"] == "saddle_gauss" for r in rows)

    def test_empty_grid_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--t", ",", "--y", "50", "--method", "saddle"
        )
        assert code == 1
        assert "--t" in err


class TestVerify:
    def test_convexity_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "convexity")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_suite_vocabulary(self):
        assert set(VERIFY_SUITES) == {
            "convexity", "modulus", "shape-brackets", "mc-repro", "ks",
        }
        with pytest.raises(SystemExit):
            main(["verify", "astrology"])


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            "mc --t 2 --y 50 --tilt abc",
            "table --t 2,abc --y 50",
            "saddle --t 2 --y inf",
            "saddle --t 2 --y nan",
        ],
    )
    def test_one_error_line_and_no_payload(self, capsys, argv):
        with Budget(5.0):
            code, out, err = run_cli(capsys, *argv.split())
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_expansion_at_infinite_y_needs_no_primes(self, capsys):
        code, out, _ = run_cli(
            capsys, "tail", "--t", "2", "--y", "inf", "--method", "expansion"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["log_value"] == "-12.888004689895546"


class TestManifestPlumbing:
    def test_run_manifest_json_round_trip(self):
        manifest = RunManifest(
            command_line="eulertails saddle --t 2 --y 50",
            seed=7,
            quad=DEFAULT_QUAD,
            constants={"gamma0": ConstantRecord(value=-0.19843826, abs_error=1e-12)},
            wall_time_s=0.25,
            artifact_version="0.1.0",
        )
        again = RunManifest.from_json(manifest.to_json())
        assert again == manifest

    def test_constant_record_bit_exact(self):
        rec = ConstantRecord(value=-0.1 + 1e-17, abs_error=float("nan"))
        back = ConstantRecord.from_dict(rec.to_dict())
        assert back.value.hex() == rec.value.hex()
