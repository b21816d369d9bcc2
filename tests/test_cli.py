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

    def test_depth_beyond_the_limit_is_refused(self, capsys):
        # 2^52: the first depth whose 2d + 1 is not an exact float
        with pytest.raises(SystemExit) as info:
            main(["plan", "--max-depth", "4503599627370496", "--epsilon", "1e-3"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("amplest: error:") == 1
        assert err.splitlines()[-1] == (
            "amplest: error: max_depth must be at most 4503599627370495, "
            "got 4503599627370496"
        )


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

    # 2^52, the first depth beyond the limit, and a depth no float holds
    @pytest.mark.parametrize("depth", [2**52, 10**400], ids=["2^52", "401 digits"])
    def test_depth_beyond_the_limit_is_one_error_line(self, capsys, depth):
        with pytest.raises(SystemExit) as info:
            main(["exceptional", "--max-depth", str(depth)])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("amplest: error:") == 1
        assert err.splitlines()[-1] == (
            f"amplest: error: max_depth must be at most {2**52 - 1}, got {depth}"
        )


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

    def test_depth_below_one_is_refused_by_its_field(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["call-ratio", "--depths", "0,4", "--epsilon", "1e-2",
                  "--out", str(tmp_path / "ratio.csv")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("amplest: error:") == 1
        assert err.splitlines()[-1] == "amplest: error: d_list must be at least 1, got 0"
        assert not list(tmp_path.iterdir())


class TestValidateOracleCommand:
    def test_reports_small_deviation(self, capsys):
        main(["validate-oracle", "--qubits", "3", "--trials", "5", "--max-power", "6"])
        report = json.loads(capsys.readouterr().out)
        assert report["max_abs_deviation"] <= 1e-9
        assert report["cases"] == 3 * 5 * 7

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--qubits", "0", "qubits"), ("--trials", "0", "trials"),
         ("--max-power", "-1", "max_power"), ("--qubits", "13", "qubits")],
    )
    def test_a_check_of_no_case_is_refused(self, capsys, flag, value, field):
        with pytest.raises(SystemExit) as info:
            main(["validate-oracle", flag, value])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("amplest: error:") == 1
        assert err.splitlines()[-1].startswith(f"amplest: error: {field} must be")


class TestShotsNumpyCannotDraw:
    # numpy's binomial raises OverflowError above 2^63 - 1 shots
    @pytest.mark.parametrize(
        "flags, field",
        [
            (["sweep", "--max-depth", "16", "--epsilon", "1e-11", "--points", "4",
              "--out", "out.csv"], "epsilon"),
            (["estimate", "--max-depth", "50", "--epsilon", "1e-12",
              "--amplitude", "0.3", "--seed", "1", "--record", "record.json"],
             "n_shot"),
            (["precision-curve", "--max-depth", "4", "--epsilon", "1e-2",
              "--amplitudes", "0.3", "--shots", str(2**63), "--runs", "1",
              "--out", "out.csv"], "n_shot_list"),
        ],
        ids=["sweep", "estimate", "precision-curve"],
    )
    def test_are_refused_by_name_before_any_output(
        self, flags, field, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(flags)
        assert info.value.code == 2
        printed, err = capsys.readouterr()
        assert printed == ""
        assert err.count("amplest: error:") == 1
        assert err.splitlines()[-1].startswith(f"amplest: error: {field} ")
        assert not list(tmp_path.iterdir())

    def test_plan_still_prints_them(self, capsys):
        main(["plan", "--max-depth", "16", "--epsilon", "1e-11"])
        assert json.loads(capsys.readouterr().out)["n_shot"] > 2**63 - 1


# one command per way an output path is given, with the flag that names it
_OUTPUT_FLAGS = pytest.mark.parametrize(
    "flags, flag",
    [
        (["sweep", "--max-depth", "16", "--epsilon", "1e-3", "--points", "200",
          "--out"], "out"),
        (["estimate", "--max-depth", "4", "--epsilon", "1e-2",
          "--amplitude", "0.3", "--seed", "1", "--record"], "record"),
        (["call-ratio", "--depths", "4", "--epsilon", "1e-2", "--out"], "out"),
    ],
    ids=["sweep", "estimate", "call-ratio"],
)


def _refused_before_any_work(argv, monkeypatch, capsys) -> str:
    """The last stderr line of ``main(argv)``, which must exit with code 2
    after one error line and without running the command."""

    def no_work(args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._COMMANDS, argv[0], no_work)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.count("amplest: error:") == 1
    return err.splitlines()[-1]


class TestOutputPaths:
    @_OUTPUT_FLAGS
    def test_missing_directory_is_refused_before_any_work(
        self, flags, flag, capsys, tmp_path, monkeypatch
    ):
        argv = [*flags, str(tmp_path / "missing" / "x")]
        last = _refused_before_any_work(argv, monkeypatch, capsys)
        assert last.startswith(f"amplest: error: --{flag}: directory")

    @_OUTPUT_FLAGS
    def test_directory_path_is_refused_before_any_work(
        self, flags, flag, capsys, tmp_path, monkeypatch
    ):
        last = _refused_before_any_work([*flags, str(tmp_path)], monkeypatch, capsys)
        assert last == f"amplest: error: --{flag}: {str(tmp_path)!r} is a directory"

    def test_failed_write_is_one_error_line(self, capsys, tmp_path):
        # a file name longer than the file system allows, which open() refuses
        # only at the write
        flags = ["sweep", "--max-depth", "2", "--epsilon", "1e-2", "--points", "3"]
        with pytest.raises(SystemExit) as info:
            main([*flags, "--out", str(tmp_path / ("x" * 300))])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("amplest: error:") == 1
        assert err.splitlines()[-1].startswith("amplest: error: [Errno")

    def test_file_in_the_working_directory_is_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["call-ratio", "--depths", "4", "--epsilon", "1e-2", "--out", "x.csv"])
        assert (tmp_path / "x.csv").read_text().startswith("d,n_calls")


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
