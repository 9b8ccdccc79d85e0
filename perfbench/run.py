"""csa-floor benchmark: one workload per process, outputs checked, metrics by name.

    python3 perfbench/run.py --workload sweep_floor --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the run repeats the workload's timed call for --seconds and
prints the end-to-end metrics of BENCHMARK.json. With --trace 1 it runs a
fixed number of repetitions twice, plain and with every layer wrapped in
spans, and prints the per-layer metrics. The last line of standard output is
one JSON object; a result file with a run manifest goes to .perfbench/.
Exit code 1 means a correctness check failed or the run could not start.

    python3 perfbench/run.py --record-golden

prints a fresh golden.json for the program as it is now.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

if not (SRC / "csa_floor" / "__init__.py").is_file():
    sys.exit(f"perfbench: no csa_floor sources under {SRC}; run from a checkout root")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402
import workloads  # noqa: E402
from csa_floor import harness, optimizer, predictor  # noqa: E402
from csa_floor.stopping_sets import CATALOG  # noqa: E402
from tracing import Tracer, median, patched, percentile, tail_percentile  # noqa: E402

SETUP_PROBES = 5
TRACE_REPS = {"sweep_floor": 2, "sweep_waterfall": 2, "optimize": 4}
CLOSURE_TOL = 1e-3

SWEEP_STAGES = (
    "harness.sample",
    "harness.peel",
    "harness.classify",
    "predictor.analytic_report",
    "harness.write",
)

# Started in a fresh interpreter to time set-up: import the package and build
# the inputs of the first timed call.
SETUP_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build_inputs(sys.argv[3], int(sys.argv[4]))
print("ready", flush=True)
"""


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until its inputs are built."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def trace_targets():
    """(module, attribute, span name, count) of every traced layer."""

    def sample(counts, args, result):
        counts["harness.sample.edges"] += int(result[2].size)

    def peel(counts, args, result):
        counts["harness.peel.resolved"] += int(result[0].sum())
        counts["harness.peel.users"] += int(result[0].size)

    def classify(counts, args, result):
        resolved_flat = args[6]
        counts["harness.classify.residual_users"] += int(resolved_flat.size - resolved_flat.sum())

    def write(counts, args, result):
        counts["harness.write.bytes"] += Path(args[1]).stat().st_size

    return [
        (harness, "_sample_chunk", "harness.sample", sample),
        (harness, "_peel_chunk", "harness.peel", peel),
        (harness, "_classify_residuals", "harness.classify", classify),
        (harness, "analytic_report", "predictor.analytic_report", None),
        (harness, "write_csv", "harness.write", write),
        (harness, "write_json", "harness.write", write),
        (optimizer, "objective", "optimizer.objective", None),
        (optimizer, "threshold", "density_evolution.threshold", None),
        (optimizer, "induce", "distributions.induce", None),
        (optimizer, "plr_per_degree", "predictor.plr_per_degree", None),
        (predictor, "induce", "distributions.induce", None),
        (predictor, "plr_per_degree", "predictor.plr_per_degree", None),
        (predictor, "rho", "stopping_sets.rho", None),
    ]


def run_rep(workload, seed, rep, tracer, work_dir):
    """One repetition of the workload's timed calls, each a root span.

    Returns (items, outputs): frames or objective evaluations done, and what
    the program returned, for the checks.
    """
    if workload == "optimize":
        with tracer.span("optimizer.optimize"):
            result = workloads.run_optimize(seed, rep)
        return workloads.OPTIMIZE_BUDGET, result
    outputs = []
    for plan in workloads.sweep_plans(workload, seed, rep, out_dir=work_dir):
        with tracer.span("harness.run_sweep"):
            rows = harness.run_sweep(plan)
        outputs.append((plan, rows))
    return sum(plan.frames * len(plan.loads) for plan, _ in outputs), outputs


def check_rep(checks, workload, outputs):
    if workload == "optimize":
        workloads.check_optimize(checks, outputs, workloads.OPTIMIZE_BUDGET)
    else:
        for plan, rows in outputs:
            workloads.check_sweep(checks, plan, rows)


def same_outputs(workload, a, b) -> bool:
    if workload == "optimize":
        return a.trace == b.trace and a.best_score == b.best_score
    return [[r.to_dict() for r in rows] for _, rows in a] == [
        [r.to_dict() for r in rows] for _, rows in b
    ]


def measure(workload, seed, seconds, checks, work_dir):
    """Items per second of each repetition, for as many repetitions as fit in
    `seconds` (at least one)."""
    rates, durations = [], []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        tracer = Tracer()
        items, outputs = run_rep(workload, seed, len(rates), tracer, work_dir)
        rates.append(items / sum(s.seconds for s in tracer.spans))
        check_rep(checks, workload, outputs)
        durations.append(time.perf_counter() - began)
    return rates


def traced_layers(workload, seed, checks, work_dir, tracer) -> tuple[dict, dict]:
    """Per-layer metrics from TRACE_REPS repetitions, run plain and traced
    into `tracer`."""
    reps = range(TRACE_REPS[workload])
    plain = Tracer()
    plain_outputs = []
    for rep in reps:
        plain_outputs.append(run_rep(workload, seed, rep, plain, work_dir)[1])
        check_rep(checks, workload, plain_outputs[-1])  # before the next rep rewrites the files

    with patched(tracer, trace_targets()):
        traced_outputs = [run_rep(workload, seed, rep, tracer, work_dir)[1] for rep in reps]
    for a, b in zip(plain_outputs, traced_outputs):
        checks.expect(same_outputs(workload, a, b), "traced run changed the program's outputs")

    root = "optimizer.optimize" if workload == "optimize" else "harness.run_sweep"
    stages = ("optimizer.objective",) if workload == "optimize" else SWEEP_STAGES
    closure = tracer.closure_error(root, stages)
    checks.expect(
        closure <= CLOSURE_TOL,
        f"spans of {stages} plus {root} self time miss its wall time by {closure:.2e}",
    )

    n = Counter(s.name for s in tracer.spans)
    if workload == "optimize":
        evals = workloads.OPTIMIZE_BUDGET * len(reps)
        per_eval = {
            "optimizer.objective": 1,
            "density_evolution.threshold": 1,
            "distributions.induce": 1,
            "predictor.plr_per_degree": 1,
            "stopping_sets.rho": len(CATALOG),
        }
        expected = {name: k * evals for name, k in per_eval.items()}
    else:
        plans = [p for outputs in traced_outputs for p, _ in outputs]
        chunks = sum(len(p.loads) * -(-p.frames // harness.CHUNK_FRAMES) for p in plans)
        points = sum(len(p.loads) for p in plans)
        expected = {
            "harness.sample": chunks,
            "harness.peel": chunks,
            "harness.classify": chunks,
            "predictor.analytic_report": points,
            "predictor.plr_per_degree": points,
            "distributions.induce": points,
            "stopping_sets.rho": len(CATALOG) * points,
            "harness.write": 2 * len(plans),
        }
    for name, want in expected.items():
        checks.expect(
            n[name] == want,
            f"layer {name} recorded {n[name]} spans, expected {want}",
        )

    def ms(name, p=None):
        d = tracer.durations(name)
        return 1e3 * (median(d) if p is None else percentile(d, p))

    counts = tracer.counts
    edges = counts["harness.sample.edges"]
    users = counts["harness.peel.users"]
    objective_tail = tail_percentile(n["optimizer.objective"])
    threshold_tail = tail_percentile(n["density_evolution.threshold"])
    plain_wall = plain.busy(root)
    metrics = {
        "harness.sample.busy_s": tracer.busy("harness.sample"),
        "harness.sample.ms_per_chunk_p50": ms("harness.sample"),
        "harness.sample.edges": edges,
        "harness.sample.ns_per_edge": 1e9 * tracer.busy("harness.sample") / edges if edges else 0.0,
        "harness.peel.busy_s": tracer.busy("harness.peel"),
        "harness.peel.ms_per_chunk_p50": ms("harness.peel"),
        "harness.peel.resolved_frac": counts["harness.peel.resolved"] / users if users else 0.0,
        "harness.classify.busy_s": tracer.busy("harness.classify"),
        "harness.classify.ms_per_chunk_p50": ms("harness.classify"),
        "harness.classify.residual_users": counts["harness.classify.residual_users"],
        "harness.write.busy_s": tracer.busy("harness.write"),
        "harness.write.bytes": counts["harness.write.bytes"],
        "harness.driver.self_s": tracer.self_seconds("harness.run_sweep", SWEEP_STAGES),
        "predictor.analytic_report.busy_s": tracer.busy("predictor.analytic_report"),
        "predictor.plr_per_degree.calls": n["predictor.plr_per_degree"],
        "predictor.plr_per_degree.us_per_call_p50": 1e3 * ms("predictor.plr_per_degree"),
        "stopping_sets.rho.calls": n["stopping_sets.rho"],
        "stopping_sets.rho.busy_s": tracer.busy("stopping_sets.rho"),
        "distributions.induce.busy_s": tracer.busy("distributions.induce"),
        "density_evolution.threshold.calls": n["density_evolution.threshold"],
        "density_evolution.threshold.busy_s": tracer.busy("density_evolution.threshold"),
        "density_evolution.threshold.ms_per_call_p50": ms("density_evolution.threshold"),
        "density_evolution.threshold.ms_per_call_tail": ms("density_evolution.threshold", threshold_tail),
        "optimizer.objective.calls": n["optimizer.objective"],
        "optimizer.objective.ms_per_call_p50": ms("optimizer.objective"),
        "optimizer.objective.ms_per_call_tail": ms("optimizer.objective", objective_tail),
        "optimizer.self_s": tracer.self_seconds("optimizer.optimize", ("optimizer.objective",)),
        "trace.overhead_frac": tracer.busy(root) / plain_wall - 1.0,
    }
    detail = {
        "reps": len(reps),
        "root_wall_s": {"plain": plain_wall, "traced": tracer.busy(root)},
        "closure_error": closure,
        "closure_tol": CLOSURE_TOL,
        "spans": n,
        "tail_percentile": {"optimizer.objective": objective_tail, "density_evolution.threshold": threshold_tail},
    }
    return metrics, detail


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload, seed, seconds, trace) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "parameters": workloads.describe(workload),
    }


def emit(declared: list[dict], values: dict) -> dict:
    """Metrics named in BENCHMARK.json, with its units; any mismatch is an error."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise KeyError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    run_name = "golden" if args.record_golden else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / "work" / run_name
    work_dir.mkdir(parents=True, exist_ok=True)
    if args.record_golden:
        golden = workloads.record_golden(work_dir)
        print(json.dumps(golden, indent=2))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = workloads.Checks()
    workloads.check_golden(checks, args.workload, work_dir)
    record = {"manifest": manifest(args.workload, args.seed, args.seconds, args.trace)}
    if args.trace:
        tracer = Tracer()
        values, record["trace"] = traced_layers(args.workload, args.seed, checks, work_dir, tracer)
        metrics = emit(spec["per_layer"], values)
    else:
        setup = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        rates = measure(args.workload, args.seed, args.seconds, checks, work_dir)
        record["setup_s"], record["items_per_s"] = setup, rates
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = emit(
            spec["end_to_end"],
            {
                # The slowest repetition: on a shared core, bursts of extra
                # speed come and go with the neighbours' load, while the
                # contended speed is a floor that repeats from run to run.
                "items_per_s": min(rates),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
            },
        )

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    record.update(result=result, failures=checks.failures)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run_name}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
        (results_dir / f"{run_name}.spans.json").write_text(json.dumps(spans) + "\n")

    for failure in checks.failures:
        print(f"FAILED: {failure}")
    item = "evals_per_s" if args.workload == "optimize" else "frames_per_s"
    for name, m in metrics.items():
        label = f"{name} ({item})" if name == "items_per_s" else name
        print(f"{label:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':48s} {len(checks.failures) / checks.attempted:.6g} failed/checked")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
