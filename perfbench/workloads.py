"""Benchmark workloads: the inputs each one gives the program, and the checks
on what comes back.

A workload turns the benchmark seed into sweep plans or an optimizer seed;
the program never sees the benchmark seed itself. Every output is checked:
invariants on every run, recorded digests and values on the golden inputs
in golden.json.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from csa_floor.decoder import DegreeKeying
from csa_floor.density_evolution import threshold
from csa_floor.distributions import DegreeDistribution, parse_distribution
from csa_floor.harness import CHUNK_FRAMES, CSV_HEADER, SweepPlan, run_sweep
from csa_floor.optimizer import ObjectiveSpec, objective, optimize

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

DIST = parse_distribution("2:0.25,3:0.6,8:0.15")
N = 200
# One full harness chunk per load point: the size real sweeps decode in, and
# the one that sets peak memory.
FRAMES = CHUNK_FRAMES
# (epsilon, keying, loads) of each plan a sweep repetition runs.
SWEEPS = {
    "sweep_floor": (
        (0.0, DegreeKeying.INDUCED, (0.2, 0.5)),
        (0.03, DegreeKeying.ORIGINAL, (0.2, 0.5)),
    ),
    "sweep_waterfall": ((0.0, DegreeKeying.INDUCED, (0.8, 0.9)),),
}
OPTIMIZE_SPEC = ObjectiveSpec(
    support=(3, 8), w_threshold=0.4, w_floor=0.6, g_target=0.5, n=200, epsilon=0.03
)
OPTIMIZE_BUDGET = 250
WORKLOADS = (*SWEEPS, "optimize")

# ROADMAP item 2 may move thresholds by up to the bisection width (1e-4);
# anything beyond twice that is a wrong threshold, not a refinement.
THRESHOLD_TOL = 2e-4
SCORE_TOL = 1e-3
REFERENCE_GRID = 200_000


def derive_seed(*words: int) -> int:
    """64-bit seed for one program input, derived from the benchmark seed."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0])


def sweep_plans(
    workload: str, seed: int, rep: int, frames: int = FRAMES, out_dir: Path | None = None
) -> list[SweepPlan]:
    plans = []
    for i, (eps, keying, loads) in enumerate(SWEEPS[workload]):
        out = {}
        if out_dir is not None:
            out = {"out_csv": str(out_dir / f"{i}.csv"), "out_json": str(out_dir / f"{i}.json")}
        plans.append(
            SweepPlan(
                dist=DIST,
                n=N,
                epsilon=eps,
                loads=loads,
                frames=frames,
                seed=derive_seed(seed, rep, i),
                keying=keying,
                **out,
            )
        )
    return plans


def build_inputs(workload: str, seed: int):
    """What the first timed call of a run receives."""
    if workload == "optimize":
        return OPTIMIZE_SPEC, derive_seed(seed, 0)
    return sweep_plans(workload, seed, 0)


def describe(workload: str) -> dict:
    """Workload parameters, for the run manifest."""
    if workload == "optimize":
        return {"spec": dataclasses.asdict(OPTIMIZE_SPEC), "budget": OPTIMIZE_BUDGET}
    return {
        "dist": list(DIST.probs),
        "n": N,
        "frames_per_load": FRAMES,
        "plans": [
            {"epsilon": eps, "keying": keying.value, "loads": list(loads)}
            for eps, keying, loads in SWEEPS[workload]
        ],
    }


class Checks:
    """Correctness checks attempted in one run and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_sweep(checks: Checks, plan: SweepPlan, rows) -> None:
    """Invariants that hold for any seed."""
    for row in rows:
        at = f"g={row.g} eps={plan.epsilon} {row.keying}"
        checks.expect(
            sum(row.totals) == plan.frames * row.m,
            f"{at}: totals sum to {sum(row.totals)}, not frames*m = {plan.frames * row.m}",
        )
        checks.expect(
            all(0 <= u <= t for u, t in zip(row.unresolved, row.totals)),
            f"{at}: unresolved {row.unresolved} outside [0, totals {row.totals}]",
        )
        degree0 = row.histogram["Degree0"]
        if plan.epsilon == 0.0:
            checks.expect(degree0 == 0, f"{at}: Degree0 = {degree0} without erasures")
        if row.keying == DegreeKeying.INDUCED.value:
            checks.expect(
                degree0 == row.unresolved[0],
                f"{at}: Degree0 = {degree0} but unresolved[0] = {row.unresolved[0]}",
            )
    if plan.out_json:
        written = json.loads(Path(plan.out_json).read_text())
        checks.expect(
            written == [row.to_dict() for row in rows],
            f"{plan.out_json} differs from the rows run_sweep returned",
        )
    if plan.out_csv:
        lines = Path(plan.out_csv).read_text().splitlines()
        want = 1 + sum(len(row.plr_sim) + 1 for row in rows)
        checks.expect(
            lines[:1] == [CSV_HEADER] and len(lines) == want,
            f"{plan.out_csv} has {len(lines)} lines, want header plus {want - 1}",
        )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(checks: Checks, data: bytes, want: str, what: str) -> None:
    got = sha256(data)
    checks.expect(got == want, f"{what}: sha256 {got}, recorded {want}")


def threshold_reference(probs: tuple[float, ...]) -> float:
    """Density-evolution threshold from its fixed-point characterization,
    g* = min over p in (0, 1) of -ln(1 - p) / sum_l l lambda_l p^(l-1),
    on a dense grid: an independent check of the bisection in threshold()."""
    lam = np.asarray(probs, dtype=float)
    weights = (np.arange(lam.size) * lam)[1:]
    p = np.linspace(0.0, 1.0, REFERENCE_GRID + 1)[1:-1]
    return float(np.min(-np.log1p(-p) / np.polynomial.polynomial.polyval(p, weights)))


def check_optimize(checks: Checks, result, budget: int) -> None:
    """Invariants that hold for any seed."""
    scores = [score for _, score in result.trace]
    checks.expect(len(scores) == budget, f"optimize made {len(scores)} evaluations, budget {budget}")
    checks.expect(
        result.best_score == max(scores),
        f"best_score {result.best_score} is not the best traced score {max(scores)}",
    )
    checks.expect(
        objective(result.best, OPTIMIZE_SPEC) == result.best_score,
        f"objective(best) does not reproduce best_score {result.best_score}",
    )
    got, want = threshold(result.best), threshold_reference(result.best.probs)
    checks.expect(
        abs(got - want) <= THRESHOLD_TOL,
        f"threshold(best) = {got}, fixed-point reference {want}",
    )


def run_optimize(seed: int, rep: int, budget: int = OPTIMIZE_BUDGET):
    return optimize(OPTIMIZE_SPEC, budget, derive_seed(seed, rep))


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def golden_outputs(workload: str, golden: dict, out_dir: Path):
    """Run the golden inputs of a sweep workload; yield (plan, rows, csv bytes, json bytes)."""
    for plan in sweep_plans(workload, golden["seed"], 0, golden["frames"], out_dir):
        rows = run_sweep(plan)
        yield plan, rows, Path(plan.out_csv).read_bytes(), Path(plan.out_json).read_bytes()


def check_golden(checks: Checks, workload: str, out_dir: Path) -> None:
    """Outputs of the recorded seed against golden.json: bytes for sweeps,
    values within a tolerance for the optimizer."""
    golden = load_golden()
    if workload == "optimize":
        ref = golden["optimize"]
        result = run_optimize(golden["seed"], 0, ref["budget"])
        check_optimize(checks, result, ref["budget"])
        checks.expect(
            abs(result.best_score - ref["best_score"]) <= SCORE_TOL,
            f"golden best_score {result.best_score}, recorded {ref['best_score']}",
        )
        for probs, want in ref["thresholds"]:
            got = threshold(DegreeDistribution(tuple(probs)))
            checks.expect(
                abs(got - want) <= THRESHOLD_TOL,
                f"threshold({probs}) = {got}, recorded {want}",
            )
        return
    recorded = golden["sweeps"][workload]
    outputs = list(golden_outputs(workload, golden, out_dir))
    checks.expect(len(outputs) == len(recorded), f"{workload}: golden plan count changed")
    for (plan, rows, csv_bytes, json_bytes), want in zip(outputs, recorded):
        check_sweep(checks, plan, rows)
        check_digest(checks, csv_bytes, want["csv_sha256"], f"{workload} golden CSV eps={plan.epsilon}")
        check_digest(checks, json_bytes, want["json_sha256"], f"{workload} golden JSON eps={plan.epsilon}")


def record_golden(out_dir: Path, seed: int = 20141209, frames: int = 512, budget: int = 60) -> dict:
    """The golden.json content for the program as it is now."""
    golden = {"seed": seed, "frames": frames}
    golden["sweeps"] = {
        workload: [
            {"csv_sha256": sha256(c), "json_sha256": sha256(j)}
            for _, _, c, j in golden_outputs(workload, golden, out_dir)
        ]
        for workload in SWEEPS
    }
    result = run_optimize(seed, 0, budget)
    references = [DIST.probs, (0.0, 0.0, 1.0), (0.0, 0.0, 0.7, 0.3), result.best.probs]
    golden["optimize"] = {
        "budget": budget,
        "best_score": result.best_score,
        "thresholds": [[list(p), threshold(DegreeDistribution(p))] for p in references],
    }
    return golden

