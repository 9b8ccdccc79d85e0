"""Paired benchmark runs of two checkouts, summarised as a BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --seed-base 2800 --seconds 30 --out BENCH_28.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, from
that checkout's root, on the same seed: pair i (from 1) uses seed
``--seed-base + i``, odd pairs run the parent first and even pairs the
change first. Pairs are the outer loop and the workloads (all of
BENCHMARK.json's, or those given with --workload) the inner one, and the
summary is rewritten after every pair, so a cut batch leaves every pair it
finished. Per workload and end-to-end metric the summary gives both sides'
medians and quartiles (numpy's linear 25th and 75th percentiles), the
change's relative move, the pairs the change won (ties count for neither)
and every run, plus ``all_correct``: every run passed its correctness checks.

Each metric is judged by the rules of a no-claim simplicity review against
its BENCHMARK.json bound, read from the change's checkout:

- gain: over ten pairs or more, the change wins at least nine in ten, and
  its median is better than the parent's by more than the parent's
  interquartile range;
- regression: the change's median is worse than the parent's by more than
  the bound (relative to the parent's median);
- unresolved: the parent's interquartile range over its median is wider
  than the bound, and not every run of the change beats every run of the
  parent;
- no regression: otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` run in ``tree``: (result line, run manifest).

    A run that prints no result line counts as incorrect, with no metrics."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{tree}: {workload} seed {seed} gave no result\n{out.stderr}", file=sys.stderr)
        return {"correct": False, "metrics": {}}, {}
    record = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return result, json.loads(record.read_text())["manifest"]


def summarise(runs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Statistics and verdict of one metric over (parent, change) pairs."""
    parent = np.array([p for p, _ in runs])
    change = np.array([c for _, c in runs])
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    p_q = np.percentile(parent, [25, 75])
    c_q = np.percentile(change, [25, 75])
    wins = int(np.count_nonzero(sign * (change - parent) > 0))
    gain = sign * (c_med - p_med)
    spread = p_q[1] - p_q[0]
    if len(runs) >= 10 and wins >= 0.9 * len(runs) and gain > spread:
        verdict = "gain"
    elif -gain > bound * p_med:
        verdict = "regression"
    elif spread > bound * p_med and not (sign * change).min() > (sign * parent).max():
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {
        "better": better,
        "parent_median": round(p_med, 4),
        "parent_quartiles": [round(float(x), 4) for x in p_q],
        "change_median": round(c_med, 4),
        "change_quartiles": [round(float(x), 4) for x in c_q],
        "change_over_parent": round(c_med / p_med - 1.0, 4),
        "change_wins": wins,
        "verdict": verdict,
        "parent_runs": parent.tolist(),
        "change_runs": change.tolist(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results = {w: {"parent": [], "change": []} for w in workloads}
    labels, machine = {}, {}
    for i in range(1, args.pairs + 1):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result, manifest = run_once(sides[side], workload, seed, args.seconds)
                results[workload][side].append(result)
                if manifest:
                    commit = manifest["git_commit"]
                    labels.setdefault(side, commit[:7] if commit else str(sides[side]))
                    machine = machine or {
                        "cpu": manifest["cpu_model"],
                        "vcpus": manifest["cpus_usable"],
                        "python": manifest["python"],
                        "numpy": manifest["numpy"],
                    }
                print(f"pair {i} {workload} {side}: {result}", file=sys.stderr, flush=True)
        summary = {
            "what": (
                f"perfbench/run.py --trace 0 --seconds {args.seconds:g}, parent and change "
                "alternated in pairs on one machine (odd pairs parent first, even pairs "
                "change first), each side run from its own checkout; pair i at seed "
                f"{args.seed_base} + i. Quartiles are numpy's linear 25th and 75th "
                "percentiles. Every run made is listed."
            ),
            "parent": labels.get("parent", str(sides["parent"])),
            "change": labels.get("change", str(sides["change"])),
            "machine": machine,
            "claimed": None,
            "workloads": {},
        }
        for workload in workloads:
            pairs = list(zip(results[workload]["parent"], results[workload]["change"]))
            entry = {
                "pairs": i,
                "seeds": [args.seed_base + k for k in range(1, i + 1)],
                "all_correct": all(r["correct"] for pair in pairs for r in pair),
            }
            for metric in metrics:
                name = metric["name"]
                runs = [
                    (p["metrics"][name]["value"], c["metrics"][name]["value"])
                    for p, c in pairs
                    if name in p["metrics"] and name in c["metrics"]
                ]
                if runs:
                    entry[name] = summarise(runs, metric["better"], metric["bound"])
            summary["workloads"][workload] = entry
        args.out.write_text(json.dumps(summary, indent=2) + "\n")

    for workload, entry in summary["workloads"].items():
        print(f"{workload}: {entry['pairs']} pairs, all_correct={entry['all_correct']}")
        for metric in metrics:
            m = entry.get(metric["name"])
            if m is None:
                print(f"  {metric['name']}: no complete pair")
                continue
            print(
                f"  {metric['name']}: {m['parent_median']:.6g} {m['parent_quartiles']} -> "
                f"{m['change_median']:.6g} {m['change_quartiles']} ({m['change_over_parent']:+.1%}), "
                f"change won {m['change_wins']} of {len(m['change_runs'])}, bound {metric['bound']}: "
                f"{m['verdict']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
