import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import csa_floor
from csa_floor import cli
from csa_floor.cli import ConfigError, main, parse_loads
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


    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--dist", "2:0.5,1100:0.5", "--n", "2000", "--g", "0.5"],
            ["induce", "--dist", "2:0.5,1100:0.5", "--eps", "0.01"],
            ["induce", "--dist", "2:0.5,1100:0.5", "--eps", "0"],
        ],
        ids=["predict", "induce", "induce-eps0"],
    )
    def test_degree_above_1029_runs(self, capsys, argv):
        # C(k, l) overflows a float from k = 1030 on
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


class TestThreshold:
    def test_pure_degree2(self, capsys):
        assert main(["threshold", "--dist", "2:1.0"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5, abs=0.005)

    def test_degree1_rejected_as_config_error(self, capsys):
        assert main(["threshold", "--dist", "1:1.0"]) == 1

    @pytest.mark.parametrize(
        "dist,printed", [("2:1.0", "0.5"), ("3:1.0", "0.818469"), ("2:0.25,3:0.6,8:0.15", "0.892304")]
    )
    def test_prints_closed_form_threshold(self, capsys, dist, printed):
        assert main(["threshold", "--dist", dist]) == 0
        assert capsys.readouterr().out == printed + "\n"


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

    def test_out_json_written_once_as_printed(self, capsys, tmp_path, monkeypatch):
        # the histogram payload is the file; the sweep's own row JSON is never written
        calls = []
        monkeypatch.setattr(csa_floor.harness, "write_json", lambda *args: calls.append(args))
        path = tmp_path / "hist.json"
        argv = ["classify", *_REF, "--n", "20", "--g", "0.6", "--frames", "50", "--out-json", str(path)]
        assert main(argv) == 0
        assert path.read_text() == capsys.readouterr().out
        assert calls == []


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


_REF = ["--dist", "2:0.25,3:0.6,8:0.15"]
# SHA-256 of the --out-json file each command writes
_JSON_OUTPUTS = [
    (
        "induce",
        ["induce", *_REF, "--eps", "0.03"],
        "a8dd61690f30543c23ab3934ecb49e46ab01d2ee8473d504b736c091f2d40c08",
    ),
    (
        "predict",
        ["predict", *_REF, "--n", "50", "--eps", "0.03", "--g", "0.3,0.6"],
        "f8d69818b9328b19ca24018049c4a63316104ff170ab7418af9ee2b32d30e52c",
    ),
    (
        "classify",
        ["classify", *_REF, "--n", "20", "--eps", "0.05", "--g", "0.6", "--frames", "300", "--seed", "3"],
        "637319d8e9a8fe68a641a26d9f42888754cf8858536eeef792f5c2c1e83b3754",
    ),
    (
        "optimize",
        ["optimize", "--support", "3,8", "--budget", "5", "--seed", "2"],
        "fe19e07f36c5b5e9df7aa2e1b78d2a7d5a45d277c7b69020e16089770c0a5ba1",
    ),
    # the 0.5 / lambda_2 threshold limit, eps > 0 and the refinement phase
    (
        "optimize-degree2-eps",
        ["optimize", "--support", "2,3,8", "--eps", "0.03", "--budget", "60", "--seed", "5"],
        "35847b77944173b8ecaee68bd238bf8a96d9f8c416027693e1c976c4685a793d",
    ),
    # m = 2 users: the classes of 3 and 4 users have rho 0
    (
        "optimize-two-users",
        ["optimize", "--support", "3,4", "--n", "7", "--g-target", "0.3", "--eps", "0.2"]
        + ["--budget", "20", "--seed", "1"],
        "9d56d901b9084e12fcfc0a24071fdc197e6b34ecf475c0aa7d24d1c6e2e5bf24",
    ),
    # a sparse support: the threshold grid sums two powers of eleven coefficients
    (
        "optimize-sparse-support",
        ["optimize", "--support", "3,12", "--eps", "0.1", "--budget", "40", "--seed", "2"],
        "3c93a418eca8dafa8f5e22be04304c29eb902445698b83c8aefd41955322e785",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", [case[1:] for case in _JSON_OUTPUTS], ids=[case[0] for case in _JSON_OUTPUTS]
)
def test_json_bytes_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "out.json"
    assert main(argv + ["--out-json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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


# README lines `csa-floor <args>  # -> <text>`: running <args> prints <text>
_README_EXAMPLES = re.findall(
    r"^csa-floor (.+?)\s+# -> (.+)$",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(),
    re.MULTILINE,
)


@pytest.mark.parametrize("args,text", _README_EXAMPLES, ids=[a for a, _ in _README_EXAMPLES])
def test_readme_examples(capsys, args, text):
    assert main(shlex.split(args)) == 0
    assert text in capsys.readouterr().out


class TestErrorPaths:
    def test_bad_distribution_exits_1(self, capsys):
        assert main(["induce", "--dist", "2:0.5,3:0.4", "--eps", "0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--n", "200", "--g", "0.5"],
            ["threshold"],
            ["simulate", "--n", "20", "--g", "0.5", "--frames", "10"],
        ],
        ids=["predict", "threshold", "simulate"],
    )
    def test_nan_probability_exits_1(self, capsys, argv):
        assert main(argv + ["--dist", "2:nan,3:1.0"]) == 1
        assert "error: probs[2] = nan is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value", [("--w-threshold", "nan"), ("--w-floor", "inf"), ("--w-floor", "-inf")]
    )
    def test_optimize_non_finite_weight_exits_1(self, capsys, flag, value):
        argv = ["optimize", "--support", "3,8", f"{flag}={value}", "--budget", "20"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} must be finite and non-negative, got {value}" in err

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

    def test_optimize_design_point_without_users_exits_1(self, capsys):
        # round(0.1 * 4) = 0: refused before the search starts
        argv = ["optimize", "--support", "3,8", "--g-target", "0.1", "--n", "4"]
        assert main(argv) == 1
        assert "error: load 0.1 at n = 4 rounds to zero users" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--dist", "3:0.5,300:0.5", "--g", "0.5"],
            ["optimize", "--support", "3,300", "--budget", "20"],
            ["simulate", "--dist", "3:0.5,300:0.5", "--g", "0.5", "--frames", "10"],
        ],
        ids=["predict", "optimize", "simulate"],
    )
    def test_degree_above_n_exits_1(self, capsys, argv):
        assert main(argv + ["--n", "200"]) == 1
        assert "error: n = 200 cannot host degree-300 users" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n,eps,g,degree,message",
        [
            ("3", "1.5", "0.5", "3", "catalog beta formulas need n >= 4, got 3"),
            ("3", "0", "3", "3", "catalog beta formulas need n >= 4, got 3"),
            ("3", "0", "0.1", "3", "catalog beta formulas need n >= 4, got 3"),
            ("200", "1.5", "3", "3", "erasure probability must be in [0, 1], got 1.5"),
            ("5", "0", "3", "8", "loads must be in (0, 2], got 3.0"),
        ],
        ids=["n-eps", "n-load", "n-zero-users", "eps-load", "load-hosting"],
    )
    @pytest.mark.parametrize("command", ["predict", "simulate", "classify", "optimize"])
    def test_two_faults_report_the_same_first_rule(self, capsys, command, n, eps, g, degree, message):
        # every command checks a design point's rules in one order: frame
        # length, erasure probability, load, hosting
        if command == "optimize":
            argv = ["optimize", "--support", degree, "--g-target", g, "--budget", "20"]
        else:
            argv = [command, "--dist", f"{degree}:1.0", "--g", g]
            argv += [] if command == "predict" else ["--frames", "10"]
        assert main(argv + ["--n", n, "--eps", eps]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_seed_exits_1(self, capsys):
        # one seed rule, harness.check_seed, for the sweep and the search
        simulate = ["simulate", "--dist", "2:1.0", "--n", "10", "--g", "0.5", "--frames", "10"]
        optimize = ["optimize", "--support", "3,8", "--budget", "5"]
        for argv in (simulate, optimize):
            for seed in (-1, 2**64):
                assert main(argv + ["--seed", str(seed)]) == 1
                assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"

    def test_plan_with_crawling_redraws_exits_1(self, capsys):
        argv = ["simulate", "--dist", "8:1.0", "--n", "8", "--g", "0.5", "--frames", "10"]
        assert main(argv) == 1
        assert "redraws" in capsys.readouterr().err

    def test_frame_too_large_for_packed_user_ids_exits_1(self, capsys):
        # refused before any frame is drawn, at the default 100000 frames
        argv = ["simulate", "--dist", "3:1.0", "--n", "262144", "--g", "2"]
        assert main(argv) == 1
        assert "users in a frame" in capsys.readouterr().err

    def test_block_too_large_for_int32_slot_codes_exits_1(self, capsys):
        # a frame of 2**31 slots: its slot codes leave the plan's uint32 bound
        argv = ["simulate", "--dist", "3:1.0", "--n", str(2**31), "--g", "0.0001"]
        assert main(argv) == 1
        assert "slot codes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "load, message",
        [
            ("inf", "loads must be in (0, 2], got inf"),
            ("nan", "loads must be in (0, 2], got nan"),
            ("-0.5", "loads must be in (0, 2], got -0.5"),
            ("0", "loads must be in (0, 2], got 0.0"),
            ("3", "loads must be in (0, 2], got 3.0"),
            ("0.001", "load 0.001 at n = 200 rounds to zero users"),
            # grids whose load count overflows a float
            ("0.5:inf:1", "cannot parse load grid '0.5:inf:1'"),
            ("0:1e308:1e-308", "cannot parse load grid '0:1e308:1e-308'"),
        ],
    )
    def test_predict_bad_load_exits_1(self, capsys, load, message):
        # checked as simulate checks them, before g * n is rounded
        assert main(["predict", "--dist", "2:0.5,3:0.5", "--n", "200", f"--g={load}"]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--dist", "2:1.0", "--n", "2", "--g", "0.5"],
            ["--dist", "2:1.0", "--n", "3", "--g", "0.3"],
            ["--dist", "2:1.0", "--n", "3", "--g", "1"],
        ],
        ids=["n2", "n3-no-class-fits", "n3"],
    )
    def test_predict_below_catalog_frame_length_exits_1(self, capsys, argv):
        # simulate and optimize refuse these frames too; predict printed
        # avg_plr=0 where no class had enough users to reach a beta formula
        assert main(["predict", *argv]) == 1
        n = argv[argv.index("--n") + 1]
        assert capsys.readouterr().err == f"error: catalog beta formulas need n >= 4, got {n}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=f"{rule}-{argv[0]}{'-' + argv[1][2:] if argv[0] == 'oracle' else ''}")
            for rule, message, argvs in [
                (
                    "eps",
                    "erasure probability must be in [0, 1], got 1.5",
                    [
                        ["simulate", "--dist", "2:0.5,3:0.5", "--g", "0.5", "--frames", "10", "--eps", "1.5"],
                        ["classify", "--dist", "2:0.5,3:0.5", "--g", "0.5", "--frames", "10", "--eps", "1.5"],
                        ["predict", "--dist", "2:0.5,3:0.5", "--g", "0.5", "--eps", "1.5"],
                        ["induce", "--dist", "2:0.5,3:0.5", "--eps", "1.5"],
                        ["optimize", "--support", "2,3", "--budget", "20", "--eps", "1.5"],
                    ],
                ),
                (
                    "n3",
                    "catalog beta formulas need n >= 4, got 3",
                    [
                        ["simulate", "--dist", "2:0.5,3:0.5", "--g", "0.5", "--frames", "10", "--n", "3"],
                        ["predict", "--dist", "2:0.5,3:0.5", "--g", "0.5", "--n", "3"],
                        ["optimize", "--support", "2,3", "--budget", "20", "--n", "3"],
                    ],
                ),
                (
                    "degree300",
                    "n = 200 cannot host degree-300 users",
                    [
                        ["simulate", "--dist", "3:0.5,300:0.5", "--g", "0.5", "--frames", "10", "--n", "200"],
                        ["predict", "--dist", "3:0.5,300:0.5", "--g", "0.5", "--n", "200"],
                        ["optimize", "--support", "3,300", "--budget", "20", "--n", "200"],
                        ["oracle", "--degrees", "2,300", "--n", "200"],
                    ],
                ),
                (
                    "degree3",
                    "n = 2 cannot host degree-3 users",
                    [
                        ["oracle", "--sclass", "S8", "--n", "2"],
                        ["oracle", "--degrees", "2,3", "--n", "2"],
                    ],
                ),
                (
                    "g3",
                    "loads must be in (0, 2], got 3.0",
                    [
                        ["simulate", "--dist", "2:0.5,3:0.5", "--g", "3", "--frames", "10"],
                        ["predict", "--dist", "2:0.5,3:0.5", "--g", "3"],
                        ["optimize", "--support", "2,3", "--budget", "20", "--g-target", "3"],
                    ],
                ),
                (
                    "g0.001",
                    "load 0.001 at n = 200 rounds to zero users",
                    [
                        ["simulate", "--dist", "2:0.5,3:0.5", "--g", "0.001", "--frames", "10"],
                        ["predict", "--dist", "2:0.5,3:0.5", "--g", "0.001"],
                        ["optimize", "--support", "2,3", "--budget", "20", "--g-target", "0.001"],
                    ],
                ),
            ]
            for argv in argvs
        ],
    )
    def test_one_message_per_rule(self, capsys, argv, message):
        # each design-point rule has one owner, so every command that takes
        # the bad value refuses it with the owner's message and exit code 1
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["oracle", "--degrees=-1,2", "--n", "6"], ["oracle", "--sclass", "S5", "--n", "1"]],
        ids=["negative-degree", "class-wider-than-frame"],
    )
    def test_oracle_bad_input_exits_1(self, capsys, argv):
        # the class case divided 0 by 0 assignments and exited 2
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [
            ConfigError,
            csa_floor.harness.PlanError,
            csa_floor.DistributionError,
            csa_floor.distributions.DomainError,
            csa_floor.DegreeOneUnsupported,
            csa_floor.SlotCountTooSmall,
            csa_floor.stopping_sets.TooFewUsers,
            csa_floor.EnumerationTooLarge,
        ],
    )
    def test_input_errors_share_the_base_class(self, error):
        assert issubclass(error, csa_floor.CsaFloorError)

    def test_internal_value_error_exits_2(self, capsys, monkeypatch):
        # a ValueError that is no CsaFloorError is a fault, not bad input
        def broken(dist):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "threshold", broken)
        assert main(["threshold", "--dist", "2:1.0"]) == 2
        assert "runtime failure" in capsys.readouterr().err

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


def _run_child(*args):
    # the child imports the same package as this process, also when only
    # pytest's own path setting (not PYTHONPATH) makes it importable
    src = str(Path(csa_floor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point_installed():
    out = _run_child("-m", "csa_floor", "threshold", "--dist", "2:1.0")
    assert out.returncode == 0
    assert float(out.stdout.strip()) == pytest.approx(0.5, abs=0.005)


def test_import_leaves_scipy_unloaded():
    # scipy.sparse alone took about a third of a second of every process start
    code = "import csa_floor, sys; print(any(k.split('.')[0] == 'scipy' for k in sys.modules))"
    out = _run_child("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_all_lists_exactly_the_public_bindings():
    names = csa_floor.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(csa_floor, name)] == []
    tree = ast.parse(Path(csa_floor.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert set(names) == {name for name in bound if not name.startswith("_")}
