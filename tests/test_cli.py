import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csa_floor
from csa_floor.cli import main, parse_loads
from csa_floor.harness import CSV_HEADER


class TestParseLoads:
    def test_comma_list(self):
        assert parse_loads("0.2,0.5") == (0.2, 0.5)

    def test_grid(self):
        assert parse_loads("0.1:0.5:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5)

    def test_grid_inclusive_endpoint(self):
        got = parse_loads("0.05:0.9:0.05")
        assert len(got) == 18 and got[-1] == 0.9

    def test_malformed(self):
        from csa_floor.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_loads("0.5:0.1:0.1")


class TestInduce:
    def test_prints_induced_distribution(self, capsys):
        assert main(["induce", "--dist", "2:0.25,3:0.6,8:0.15", "--eps", "0.03"]) == 0
        out = capsys.readouterr().out.strip()
        entries = dict(item.split(":") for item in out.split(","))
        assert float(entries["0"]) == pytest.approx(2.412e-4, abs=1e-7)

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "induced.json"
        assert (
            main(
                [
                    "induce",
                    "--dist",
                    "2:1.0",
                    "--eps",
                    "0.5",
                    "--out-json",
                    str(path),
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())
        assert payload["induced"] == [0.25, 0.5, 0.25]


class TestThreshold:
    def test_pure_degree2(self, capsys):
        assert main(["threshold", "--dist", "2:1.0"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5, abs=0.005)

    def test_degree1_rejected_as_config_error(self, capsys):
        assert main(["threshold", "--dist", "1:1.0"]) == 1


class TestSimulate:
    def test_csv_written_with_exact_header(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code = main(
            [
                "simulate",
                "--dist",
                "2:0.5,3:0.5",
                "--n",
                "40",
                "--eps",
                "0.0",
                "--g",
                "0.2,0.4",
                "--frames",
                "500",
                "--seed",
                "4",
                "--out-csv",
                str(path),
            ]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 5  # two points, degrees 0..3 plus avg
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == CSV_HEADER


class TestClassify:
    def test_histogram_json(self, capsys):
        code = main(
            [
                "classify",
                "--dist",
                "2:1.0",
                "--n",
                "30",
                "--g",
                "0.5",
                "--frames",
                "2000",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload[0]["histogram"]) == {
            "S1",
            "S2",
            "S3",
            "S4",
            "S5",
            "S6",
            "S7",
            "S8",
            "Degree0",
            "Other",
        }
        assert payload[0]["histogram"]["S5"] > 0


class TestPredict:
    def test_outputs(self, capsys, tmp_path):
        jpath = tmp_path / "pred.json"
        cpath = tmp_path / "pred.csv"
        code = main(
            [
                "predict",
                "--dist",
                "2:0.25,3:0.6,8:0.15",
                "--n",
                "200",
                "--g",
                "0.2",
                "--out-json",
                str(jpath),
                "--out-csv",
                str(cpath),
            ]
        )
        assert code == 0
        payload = json.loads(jpath.read_text())
        assert payload[0]["m"] == 40
        assert payload[0]["average"] == pytest.approx(1.434e-4, rel=1e-3)
        lines = cpath.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].split(",")[5] == ""  # no simulated column

    def test_csv_bytes_pinned(self, capsys, tmp_path):
        cpath = tmp_path / "pred.csv"
        argv = ["predict", "--dist", "1:0.2,2:0.3,3:0.5", "--n", "20", "--eps", "0.05"]
        argv += ["--g", "0.2,0.45", "--keying", "original", "--out-csv", str(cpath)]
        assert main(argv) == 0
        assert cpath.read_bytes() == (
            b"g,m,n,frames,degree,plr_sim,ci95,plr_analytic,keying\n"
            b"0.2,4,20,0,0,,,0,original\n"
            b"0.2,4,20,0,1,,,0.0844838661,original\n"
            b"0.2,4,20,0,2,,,0.0121033809,original\n"
            b"0.2,4,20,0,3,,,0.00275331225,original\n"
            b"0.2,4,20,0,avg,,,0.0219044436,original\n"
            b"0.45,9,20,0,0,,,0,original\n"
            b"0.45,9,20,0,1,,,0.162998691,original\n"
            b"0.45,9,20,0,2,,,0.0390949196,original\n"
            b"0.45,9,20,0,3,,,0.0121472228,original\n"
            b"0.45,9,20,0,avg,,,0.0504018254,original\n"
        )


class TestOptimize:
    def test_small_run(self, capsys, tmp_path):
        path = tmp_path / "opt.json"
        code = main(
            [
                "optimize",
                "--support",
                "3,8",
                "--w-threshold",
                "0.4",
                "--w-floor",
                "0.6",
                "--budget",
                "20",
                "--seed",
                "9",
                "--out-json",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("3:")
        payload = json.loads(path.read_text())
        assert len(payload["trace"]) == 20
        assert payload["best_score"] == max(t["score"] for t in payload["trace"])


class TestOracle:
    def test_class_mode(self, capsys):
        assert main(["oracle", "--sclass", "S5", "--n", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == "1/15"

    def test_degrees_mode(self, capsys):
        assert main(["oracle", "--degrees", "2,2", "--n", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unresolved"]["2"] == "1/15"

    def test_requires_exactly_one_mode(self, capsys):
        assert main(["oracle", "--n", "6"]) == 1


class TestErrorPaths:
    def test_bad_distribution_exits_1(self, capsys):
        assert main(["induce", "--dist", "2:0.5,3:0.4", "--eps", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["threshold", "--dist", "2:1.0", "--bogus"]) == 1

    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1

    def test_bad_plan_exits_1(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dist",
                    "2:1.0",
                    "--n",
                    "10",
                    "--g",
                    "3.0",
                    "--frames",
                    "10",
                ]
            )
            == 1
        )

    def test_negative_seed_exits_1(self, capsys):
        argv = ["simulate", "--dist", "2:1.0", "--n", "10", "--g", "0.5", "--frames", "10"]
        assert main(argv + ["--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, capsys):
        code = main(
            [
                "simulate",
                "--dist",
                "2:1.0",
                "--n",
                "10",
                "--g",
                "0.5",
                "--frames",
                "10",
                "--out-csv",
                "/nonexistent-dir/sweep.csv",
            ]
        )
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err


def test_console_entry_point_installed():
    # the child imports the same package as this process, also when only
    # pytest's own path setting (not PYTHONPATH) makes it importable
    src = str(Path(csa_floor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "csa_floor", "threshold", "--dist", "2:1.0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert float(out.stdout.strip()) == pytest.approx(0.5, abs=0.005)
