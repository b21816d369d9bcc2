import json
import subprocess
import sys

import pytest

import amplest.cli as cli
from amplest.cli import main
from amplest.likelihood import grid_maximize
from amplest.planner import make_plan
from amplest.sampler import MeasurementRecord


class TestPlanCommand:
    def test_plan_json(self, capsys):
        main(
            [
                "plan",
                "--max-depth", "16",
                "--epsilon", "1e-3",
                "--delta", "0.01",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert data["n_shot"] == 1111
        assert data["n_calls"] == 75548
        assert data["grid_size"] == 3000
        assert data["schedule"]["depths"] == [0, 1, 2, 4, 8, 16]

    def test_plan_jittered(self, capsys):
        main(
            [
                "plan",
                "--max-depth", "16",
                "--epsilon", "1e-3",
                "--jitter",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert data["n_shot"] == 1267
        assert data["schedule"]["kind"] == "jittered"
        assert data["schedule"]["fractions"][-1] == [1, 4]


class TestEstimateCommand:
    def test_estimate_with_record_dump(self, capsys, tmp_path):
        record_path = tmp_path / "record.json"
        main(
            [
                "estimate",
                "--amplitude", "0.3",
                "--max-depth", "8",
                "--epsilon", "1e-2",
                "--seed", "4",
                "--record", str(record_path),
            ]
        )
        estimate = json.loads(capsys.readouterr().out)
        assert abs(estimate["a_hat"] - 0.3) < 0.05
        record = json.loads(record_path.read_text())
        assert record["a_true"] == 0.3
        assert record["seed"] == 4
        assert all(e["hits"] <= e["shots"] for e in record["entries"])

    def test_estimate_maximizes_the_dumped_record_drawn_once(
        self, capsys, tmp_path, monkeypatch
    ):
        draws = []

        def counting_draw(*args):
            draws.append(args)
            return draw_record(*args)

        draw_record = cli.draw_record
        monkeypatch.setattr(cli, "draw_record", counting_draw)
        record_path = tmp_path / "record.json"
        args = ["--amplitude", "0.7", "--max-depth", "4", "--epsilon", "1e-2"]
        main(["estimate", *args, "--seed", "8", "--record", str(record_path)])
        printed = json.loads(capsys.readouterr().out)
        assert len(draws) == 1
        record = MeasurementRecord.from_dict(json.loads(record_path.read_text()))
        estimate = grid_maximize(record, make_plan(1e-2, 0.01, 4).grid_size)
        assert printed == estimate.to_dict()


class TestExceptionalCommand:
    def test_lists_all_values(self, capsys):
        main(["exceptional", "--max-depth", "1"])
        values = json.loads(capsys.readouterr().out)
        assert values == pytest.approx([0.0, 0.25, 0.75, 1.0], abs=1e-12)


class TestCallRatioCommand:
    def test_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "ratio.csv"
        main(
            [
                "call-ratio",
                "--depths", "16,32",
                "--epsilon", "1e-3",
                "--delta", "0.01",
                "--spread-coeff", "2.0",
                "--out", str(out),
            ]
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "d,n_calls,n_calls_jittered,ratio"
        assert lines[1].startswith("16,75548,82385,")


class TestValidateOracleCommand:
    def test_reports_small_deviation(self, capsys):
        main(["validate-oracle", "--qubits", "3", "--trials", "5", "--max-power", "6"])
        report = json.loads(capsys.readouterr().out)
        assert report["max_abs_deviation"] <= 1e-9
        assert report["cases"] == 3 * 5 * 7


class TestSubprocessEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "sweep.csv"
        subprocess.run(
            [
                sys.executable, "-m", "amplest", "sweep",
                "--points", "11",
                "--max-depth", "4",
                "--epsilon", "1e-2",
                "--seed", "0",
                "--out", str(out),
            ],
            check=True,
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "a_true,a_hat,abs_err,seed"
        assert len(lines) == 12

    def test_bad_spread_coeff_is_refused_before_any_output(self, tmp_path):
        # an unjittered sweep never reads spread_coeff, yet -5 is refused
        out = tmp_path / "sweep.csv"
        result = subprocess.run(
            [
                sys.executable, "-m", "amplest", "sweep",
                "--max-depth", "2",
                "--epsilon", "0.01",
                "--points", "3",
                "--spread-coeff", "-5",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode != 0
        assert "spread_coeff" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["plan", "--spread-coeff", "-5"], "spread_coeff"),
            (["estimate", "--delta", "1e-17", "--amplitude", "0.3", "--seed", "1"],
             "delta"),
        ],
    )
    def test_bad_plan_input_is_refused_before_any_output(self, flags, field):
        # refused as argparse refuses a bad flag: usage, then one error line
        # that names the field, exit code 2, and no traceback
        result = subprocess.run(
            [sys.executable, "-m", "amplest", *flags,
             "--max-depth", "4", "--epsilon", "0.01"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("usage: amplest")
        last = result.stderr.strip().splitlines()[-1]
        assert last.startswith("amplest: error: " + field), last
        assert result.stderr.count("amplest: error:") == 1
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_precision_curve_roundtrip(self, tmp_path):
        out = tmp_path / "curve.csv"
        subprocess.run(
            [
                sys.executable, "-m", "amplest", "precision-curve",
                "--amplitudes", "0.5",
                "--shots", "32,128",
                "--runs", "40",
                "--max-depth", "4",
                "--epsilon", "1e-2",
                "--seed", "1",
                "--out", str(out),
            ],
            check=True,
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "a_true,n_shot,eps_achieved,runs"
        assert len(lines) == 3

    def test_exceptional_region_subcommand(self, tmp_path):
        out = tmp_path / "region.csv"
        subprocess.run(
            [
                sys.executable, "-m", "amplest", "exceptional-region",
                "--max-depth", "4",
                "--k", "4",
                "--epsilon", "1e-2",
                "--points", "5",
                "--runs", "10",
                "--seed", "2",
                "--out", str(out),
            ],
            check=True,
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "a_true,eps_achieved,runs"
        assert len(lines) == 6
