"""Smoke tests of the experiment scripts the README documents, run as the
README runs them: as child processes, on inputs small enough for about a
second each."""

import json
from pathlib import Path

from csa_floor.distributions import ChannelModel, parse_distribution
from csa_floor.harness import CSV_HEADER
from csa_floor.predictor import analytic_report
from tests.test_cli import _run_child

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_optimize_distribution_script():
    out = _run_child(str(SCRIPTS / "optimize_distribution.py"), "--budget", "20")
    assert out.returncode == 0, out.stderr
    lines = [line.strip() for line in out.stdout.splitlines() if line.strip()]
    assert lines[0].startswith("evaluations: 20  best score: ")
    assert [line.split(":", 1)[0] for line in lines[1:]] == [
        "optimized",
        "reference 3/8 design",
        "low-floor classic",
    ]
    assert all("threshold=" in line and "analytic_floor@g=0.5: " in line for line in lines[1:])
    assert "3:0.87,8:0.13" in lines[2] and "2:0.25,3:0.6,8:0.15" in lines[3]


def test_optimize_distribution_script_floors_at_the_optimizers_m():
    # 0.25 * 10 = 2.5 users: the optimizer scores m = 3 (halves up), where
    # round() would give 2
    out = _run_child(
        str(SCRIPTS / "optimize_distribution.py"), "--budget", "20", "--g-target", "0.25", "--n", "10"
    )
    assert out.returncode == 0, out.stderr
    floor = analytic_report(3, 10, parse_distribution("3:0.87,8:0.13"), ChannelModel(0.0)).average
    lines = [line for line in out.stdout.splitlines() if "reference 3/8 design" in line]
    assert len(lines) == 1 and lines[0].endswith(f"analytic_floor@g=0.25: {floor:.3e}")


def test_plr_floor_study_script(tmp_path):
    out = _run_child(
        str(SCRIPTS / "plr_floor_study.py"),
        *("--frames", "256", "--workers", "1", "--loads", "0.2:0.4:0.1", "--out-dir", str(tmp_path)),
    )
    assert out.returncode == 0, out.stderr
    blocks = [block.splitlines() for block in out.stdout.strip().split("\n\n")]
    assert len(blocks) == 2
    for block, (eps, tag) in zip(blocks, (("0.0", "eps0"), ("0.03", "eps003"))):
        assert block[0] == f"# eps = {eps}: wrote {tmp_path / f'plr_{tag}.csv'}"
        assert block[1].split() == ["g", "plr_sim", "plr_analytic", "S5/frame"]
        assert [row.split()[0] for row in block[2:]] == ["0.20", "0.30", "0.40"]
        assert (tmp_path / f"plr_{tag}.csv").read_text().splitlines()[0] == CSV_HEADER
        assert (tmp_path / f"plr_{tag}.json").is_file()


def test_bench_pairs_script(tmp_path):
    root = SCRIPTS.parent
    out_json = tmp_path / "bench.json"
    out = _run_child(
        str(SCRIPTS / "bench_pairs.py"),
        *("--parent", str(root), "--change", str(root), "--pairs", "1", "--seed-base", "0"),
        *("--seconds", "1", "--workload", "optimize", "--out", str(out_json)),
    )
    assert out.returncode == 0, out.stderr
    summary = json.loads(out_json.read_text())
    assert summary["claimed"] is None and summary["machine"]["vcpus"] >= 1
    assert list(summary["workloads"]) == ["optimize"]
    entry = summary["workloads"]["optimize"]
    assert entry["pairs"] == 1 and entry["seeds"] == [1] and entry["all_correct"] is True
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in metrics:
        m = entry[metric["name"]]
        assert m["better"] == metric["better"]
        assert len(m["parent_runs"]) == len(m["change_runs"]) == 1
        assert m["parent_quartiles"] == [round(m["parent_runs"][0], 4)] * 2
        # one pair can show a regression but never a gain
        assert m["verdict"] in ("no regression", "regression", "unresolved")
    verdicts = [line.strip() for line in out.stdout.splitlines()[1:]]
    assert [line.split(":")[0] for line in verdicts] == [m["name"] for m in metrics]
