"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte Carlo criteria
use fixed seeds, so outcomes are reproducible; the heavy fixtures (million-
frame sweeps, the optimization run) are shared across criteria.
"""

import os
from fractions import Fraction

import numpy as np
import pytest

from csa_floor.decoder import DegreeKeying, peel
from csa_floor.density_evolution import DegreeOneUnsupported, de_fixed_point, threshold
from csa_floor.distributions import ChannelModel, induce, parse_distribution, validate
from csa_floor.frame_model import FrameConfig, sample_frame
from csa_floor.harness import SweepPlan, run_sweep
from csa_floor.optimizer import ObjectiveSpec, optimize
from csa_floor.oracle import exact_beta
from csa_floor.predictor import analytic_report
from csa_floor.stopping_sets import CATALOG, CATALOG_BY_ID, beta, beta_exact

REF_DIST = parse_distribution("2:0.25,3:0.6,8:0.15")
# the two sweep fixtures are byte-identical for any worker count; two workers
# keep their memory small on machines shared with other jobs
WORKERS = min(2, os.cpu_count() or 1)


def _report(criterion: int, message: str):
    print(f"[acceptance] criterion {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def floor_sweep():
    """Criteria 4, 5, 9(histogram): n=200, eps=0, g in {0.2, 0.5}, 1e6 frames."""
    plan = SweepPlan(
        dist=REF_DIST,
        n=200,
        epsilon=0.0,
        loads=(0.2, 0.5),
        frames=1_000_000,
        seed=20240817,
        workers=WORKERS,
        keying=DegreeKeying.INDUCED,
    )
    return run_sweep(plan)


@pytest.fixture(scope="module")
def pec_sweep():
    """Criterion 6: n=200, eps=0.03, g grid 0.1..0.9, 1e5 frames per point."""
    plan = SweepPlan(
        dist=REF_DIST,
        n=200,
        epsilon=0.03,
        loads=tuple(round(0.1 * k, 10) for k in range(1, 10)),
        frames=100_000,
        seed=7071,
        workers=WORKERS,
        keying=DegreeKeying.INDUCED,
    )
    return run_sweep(plan)


@pytest.fixture(scope="module")
def optimization_run():
    """Criterion 8: floor-dominant weights on support {3, 8}, budget 1e4."""
    spec = ObjectiveSpec(
        support=(3, 8),
        w_threshold=0.4,
        w_floor=0.6,
        g_target=0.5,
        n=200,
        epsilon=0.0,
    )
    return spec, optimize(spec, budget=10_000, rng=np.random.default_rng(1234))


def test_criterion_1_induced_floor_constant():
    eps = 0.03
    # the constant the design38 reports as 2.4e-4, computed independently here
    target = 0.25 * eps**2 + 0.6 * eps**3 + 0.15 * eps**8
    got = induce(REF_DIST, ChannelModel(eps)).probs[0]
    assert abs(got - target) <= 1e-6
    assert round(got, 5) == 0.00024  # matches the two-significant-figure print
    _report(1, f"lambda_0 = {got:.6g} (reported constant 2.4e-4)")


def test_criterion_2_beta_formula_fidelity():
    n_sym = Fraction
    printed = {
        "S1": lambda n: 1 / n,
        "S2": lambda n: 2 / n**2,
        "S3": lambda n: 6 / n**3,
        "S4": lambda n: 6 / ((n - 1) * n**2),
        "S5": lambda n: 2 / ((n - 1) * n),
        "S6": lambda n: 4 * (n - 3) / ((n - 2) * n**3),
        "S7": lambda n: 36 * (n - 3) / ((n - 2) * (n - 1) * n**3),
        "S8": lambda n: 6 / ((n - 2) * (n - 1) * n),
    }
    for cid, formula in printed.items():
        for n in (5, 10, 50, 200, 1000):
            assert beta_exact(CATALOG_BY_ID[cid], n) == formula(n_sym(n)), (cid, n)
    spots = [
        ("S5", 200, 5.0251e-5),
        ("S1", 100, 0.01),
        ("S8", 10, 8.3333e-3),
    ]
    for cid, n, want in spots:
        got = beta(CATALOG_BY_ID[cid], n)
        assert got == pytest.approx(want, rel=1e-4), (cid, n)
    _report(2, "all eight printed formulas reproduced; spot values match")


def test_criterion_3_oracle_equivalence():
    for n in (6, 8, 12, 200):
        for cid in ("S1", "S2", "S3", "S4", "S5", "S8"):
            sclass = CATALOG_BY_ID[cid]
            assert exact_beta(sclass, n) == beta_exact(sclass, n), (cid, n)
        s7 = CATALOG_BY_ID["S7"]
        assert exact_beta(s7, n) / beta_exact(s7, n) == Fraction(n, n - 1), n
        s6 = CATALOG_BY_ID["S6"]
        assert exact_beta(s6, n) == Fraction(8 * (n - 2), n**2 * (n - 1) ** 2), n
        ratio = exact_beta(s6, n) / beta_exact(s6, n)
        assert Fraction(3, 2) <= ratio <= Fraction(3, 1), (n, ratio)
    _report(
        3,
        "S1-S5,S8 exact; S7 off by exactly n/(n-1); S6 exact count "
        "8(n-2)/(n^2 (n-1)^2), its ratio to the printed form inside [1.5, 3.0]",
    )


def test_criterion_4_floor_prediction_vs_simulation(floor_sweep):
    row = floor_sweep[0]
    assert row.g == 0.2 and row.frames >= 10**6
    assert abs(row.avg_sim - 1.454e-4) <= 0.30 * 1.454e-4
    assert abs(row.plr_sim[2] - 5.190e-4) <= 0.30 * 5.190e-4
    assert abs(row.plr_sim[3] - 2.602e-5) <= 0.40 * 2.602e-5
    # and the implementation's own analytic values agree with the simulation
    assert row.avg_sim == pytest.approx(row.avg_analytic, rel=0.30)
    assert row.plr_sim[2] == pytest.approx(row.plr_analytic[2], rel=0.30)
    assert row.plr_sim[3] == pytest.approx(row.plr_analytic[3], rel=0.40)
    _report(
        4,
        f"g=0.2, 1e6 frames: avg {row.avg_sim:.4g} vs 1.454e-4, "
        f"p2 {row.plr_sim[2]:.4g} vs 5.190e-4, p3 {row.plr_sim[3]:.4g} vs 2.602e-5",
    )


def test_criterion_5_uep_ordering(floor_sweep):
    for row in floor_sweep:
        assert row.plr_sim[2] > row.plr_sim[3] > row.plr_sim[8], row.g
    _report(
        5,
        "p2 > p3 > p8 simulated at g=0.2 and g=0.5 "
        f"(g=0.5: {floor_sweep[1].plr_sim[2]:.3g} > "
        f"{floor_sweep[1].plr_sim[3]:.3g} > {floor_sweep[1].plr_sim[8]:.3g})",
    )


def test_criterion_6_pec_floor(pec_sweep):
    bound = 2.4e-4
    for row in pec_sweep:
        assert row.avg_sim >= bound - 3 * row.avg_ci95, row.g
    worst = min(row.avg_sim - (bound - 3 * row.avg_ci95) for row in pec_sweep)
    _report(
        6,
        f"eps=0.03: avg PLR >= 2.4e-4 - 3*CI at all nine loads (min margin {worst:.3g})",
    )


def test_criterion_7_density_evolution_sanity():
    g_star = threshold(validate([0, 0, 1.0]))
    assert abs(g_star - 0.5) <= 0.005
    with pytest.raises(DegreeOneUnsupported):
        de_fixed_point(validate([0, 0.3, 0.7]), 0.5)
    with pytest.raises(DegreeOneUnsupported):
        de_fixed_point(induce(REF_DIST, ChannelModel(0.03)), 0.5)
    _report(7, f"threshold(x^2) = {g_star:.4f}; degree-0/1 mass rejected")


def test_criterion_8_optimization_reproduction(optimization_run):
    spec, result = optimization_run
    lam3 = result.best.probs[3]
    assert 0.80 <= lam3 <= 0.95
    channel = ChannelModel(0.0)
    best_floor = analytic_report(100, 200, result.best, channel).average
    reference_floor = analytic_report(100, 200, REF_DIST, channel).average
    assert best_floor < reference_floor
    _report(
        8,
        f"lambda_3 = {lam3:.3f} in [0.80, 0.95]; analytic floor {best_floor:.3g} "
        f"< reference-mixture floor {reference_floor:.3g} at g=0.5",
    )


def test_criterion_9_decoder_properties(floor_sweep):
    # (a) schedule independence and residual stability over 1e4 random frames
    rng = np.random.default_rng(5150)
    dists = [
        validate([0, 0, 1.0]),
        validate([0, 0.3, 0.4, 0.3]),
        validate([0.1, 0.2, 0.4, 0.2, 0.1]),
        REF_DIST,
    ]
    frames = 10_000
    peels_per_frame = 5
    for _ in range(frames):
        dist = dists[int(rng.integers(len(dists)))]
        n = int(rng.integers(max(dist.max_support_degree(), 4), 16))
        m = int(rng.integers(1, 12))
        eps = float(rng.choice([0.0, 0.2]))
        graph = sample_frame(
            FrameConfig(m=m, n=n, dist=dist, channel=ChannelModel(eps)), rng
        )
        baseline = peel(graph)
        occupancy = {}
        for u in baseline.residual.users:
            for s in u.slots:
                occupancy[s] = occupancy.get(s, 0) + 1
        assert all(c >= 2 for c in occupancy.values())
        for _ in range(peels_per_frame - 1):
            assert peel(graph, rng=rng).resolved == baseline.resolved

    # (b) S5 dominates every other multi-user class at n=200, eps=0, g=0.5
    hist = floor_sweep[1].histogram
    multi_user = {k: v for k, v in hist.items() if k not in ("Degree0", "S5")}
    assert all(hist["S5"] > v for v in multi_user.values()), hist
    _report(
        9,
        f"order independence over {frames} frames x {peels_per_frame} schedules; "
        f"S5 rate {hist['S5']} dominates {multi_user}",
    )


def test_criterion_10_reproducibility(tmp_path):
    blobs = []
    for workers in (1, 4, 8):
        path = tmp_path / f"sweep_w{workers}.csv"
        plan = SweepPlan(
            dist=REF_DIST,
            n=100,
            epsilon=0.03,
            loads=(0.3, 0.7),
            frames=6000,
            seed=424242,
            workers=workers,
            out_csv=str(path),
        )
        run_sweep(plan)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _report(10, "byte-identical CSV for worker counts 1, 4, 8")
