import json

import numpy as np
import pytest
from scipy.stats import binomtest

from csa_floor.decoder import DegreeKeying
from csa_floor.distributions import ChannelModel, parse_distribution, validate
from csa_floor.harness import (
    CSV_HEADER,
    HISTOGRAM_KEYS,
    PlanError,
    SweepPlan,
    confidence_interval,
    csv_lines,
    frame_generator,
    round_half_up,
    run_sweep,
    write_csv,
    write_json,
)
from csa_floor.predictor import floor_lower_bound


def scipy_wilson(successes, trials):
    ci = binomtest(successes, trials).proportion_ci(
        confidence_level=0.95, method="wilson"
    )
    return float(ci.low), float(ci.high)


class TestConfidenceInterval:
    def test_zero_successes_never_degenerate(self):
        est, half = confidence_interval(0, 100)
        assert est == 0.0 and half > 0.0

    def test_half_successes(self):
        est, half = confidence_interval(50, 100)
        lo, hi = scipy_wilson(50, 100)
        assert est == 0.5
        assert half == pytest.approx((hi - lo) / 2, abs=1e-12)
        assert half == pytest.approx(0.09617, abs=1e-4)

    def test_all_successes_upper_bound_one(self):
        est, half = confidence_interval(100, 100)
        lo, hi = scipy_wilson(100, 100)
        assert est == 1.0 and hi == pytest.approx(1.0)
        assert half == pytest.approx((hi - lo) / 2, abs=1e-12)

    @pytest.mark.parametrize("successes,trials", [(3, 17), (0, 5), (5, 5), (123, 4567)])
    def test_matches_scipy_wilson(self, successes, trials):
        _, half = confidence_interval(successes, trials)
        lo, hi = scipy_wilson(successes, trials)
        assert half == pytest.approx((hi - lo) / 2, abs=1e-12)

    def test_rejects_empty_trials(self):
        with pytest.raises(ValueError):
            confidence_interval(0, 0)


class TestPlanValidation:
    def test_bad_loads(self, ref_dist):
        with pytest.raises(PlanError):
            SweepPlan(dist=ref_dist, n=200, epsilon=0.0, loads=(0.0,), frames=10)
        with pytest.raises(PlanError):
            SweepPlan(dist=ref_dist, n=200, epsilon=0.0, loads=(2.5,), frames=10)

    def test_bad_frames(self, ref_dist):
        with pytest.raises(PlanError):
            SweepPlan(dist=ref_dist, n=200, epsilon=0.0, loads=(0.5,), frames=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, ref_dist, seed):
        # a masked seed would silently reuse another seed's streams
        with pytest.raises(PlanError, match="seed"):
            SweepPlan(dist=ref_dist, n=200, epsilon=0.0, loads=(0.5,), frames=10, seed=seed)

    def test_load_rounding_to_zero_users(self, ref_dist):
        with pytest.raises(PlanError):
            SweepPlan(dist=ref_dist, n=9, epsilon=0.0, loads=(0.05,), frames=10)

    def test_round_half_up(self):
        assert round_half_up(22.5) == 23
        assert round_half_up(89.9999) == 90
        assert round_half_up(40.0) == 40


class TestFrameGenerator:
    def test_streams_reproducible_and_distinct(self):
        a = frame_generator(7, 1, 123).random(8)
        b = frame_generator(7, 1, 123).random(8)
        c = frame_generator(7, 1, 124).random(8)
        d = frame_generator(7, 2, 123).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_seed_outside_64_bits_rejected(self):
        # seed 2**64 at point 0 would otherwise be seed 0 at point 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                frame_generator(seed, 0, 0)


@pytest.fixture(scope="module")
def small_rows():
    dist = parse_distribution("2:0.5,3:0.5")
    plan = SweepPlan(
        dist=dist, n=40, epsilon=0.1, loads=(0.3, 0.6), frames=4000, seed=5
    )
    return plan, run_sweep(plan)


class TestRunSweep:
    def test_conservation(self, small_rows):
        plan, rows = small_rows
        for row in rows:
            assert sum(row.totals) == row.frames * row.m
            assert all(u <= t for u, t in zip(row.unresolved, row.totals))

    def test_m_follows_rounding_rule(self, small_rows):
        _, rows = small_rows
        assert rows[0].m == 12 and rows[1].m == 24

    def test_histogram_keys_complete(self, small_rows):
        _, rows = small_rows
        for row in rows:
            assert set(row.histogram) == set(HISTOGRAM_KEYS)
            assert row.histogram_rates["S5"] == row.histogram["S5"] / row.frames

    def test_simulated_average_respects_erasure_floor(self, small_rows):
        plan, rows = small_rows
        bound = floor_lower_bound(plan.dist, ChannelModel(plan.epsilon))
        for row in rows:
            assert row.avg_sim >= bound - 3 * row.avg_ci95

    def test_degree0_users_unresolved_under_induced_keying(self, small_rows):
        _, rows = small_rows
        for row in rows:
            assert row.unresolved[0] == row.totals[0]
            assert row.plr_analytic[0] == 1.0

    def test_json_roundtrip(self, small_rows, tmp_path):
        _, rows = small_rows
        path = tmp_path / "rows.json"
        write_json(rows, str(path))
        payload = json.loads(path.read_text())
        assert len(payload) == 2
        assert payload[0]["m"] == 12
        assert payload[0]["histogram"].keys() == payload[0]["histogram_rates"].keys()

    def test_original_keying_attributes_erased_users_to_drawn_degree(self):
        dist = parse_distribution("2:1.0")
        common = dict(dist=dist, n=30, epsilon=0.4, loads=(0.4,), frames=3000, seed=8)
        induced_row = run_sweep(SweepPlan(keying=DegreeKeying.INDUCED, **common))[0]
        original_row = run_sweep(SweepPlan(keying=DegreeKeying.ORIGINAL, **common))[0]
        # all users drew degree 2, so original keying empties every other bin
        assert sum(original_row.totals) == original_row.totals[2]
        assert induced_row.totals[0] > 0  # erasures produce degree-0 receptions
        # total unresolved counts agree between keyings
        assert sum(induced_row.unresolved) == sum(original_row.unresolved)
        # user-perspective analytics accompany original keying
        assert original_row.plr_analytic[2] >= induced_row.plr_analytic[2]

    def test_four_user_s3_components_counted(self):
        # S3 (a degree-3 user covered by three degree-1 users) is the largest
        # catalog structure; rho(S3) is about 0.056 per frame here
        dist = parse_distribution("1:0.5,2:0.2,3:0.3")
        plan = SweepPlan(dist=dist, n=20, epsilon=0.0, loads=(0.6,), frames=2000, seed=7)
        assert run_sweep(plan)[0].histogram["S3"] > 0


class TestDeterminism:
    def test_csv_bytes_identical_across_worker_counts(self, ref_dist, tmp_path):
        blobs = []
        for workers in (1, 4, 8):
            path = tmp_path / f"out_{workers}.csv"
            plan = SweepPlan(
                dist=ref_dist,
                n=50,
                epsilon=0.03,
                loads=(0.2, 0.5),
                frames=2500,
                seed=99,
                workers=workers,
                out_csv=str(path),
            )
            run_sweep(plan)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_rerun_identical(self, ref_dist):
        plan = SweepPlan(
            dist=ref_dist, n=60, epsilon=0.0, loads=(0.4,), frames=1500, seed=3
        )
        assert csv_lines(run_sweep(plan)) == csv_lines(run_sweep(plan))


class TestCsvFormat:
    def test_header_and_shape(self, ref_dist, tmp_path):
        plan = SweepPlan(
            dist=ref_dist, n=30, epsilon=0.0, loads=(0.5,), frames=300, seed=1
        )
        rows = run_sweep(plan)
        lines = csv_lines(rows)
        assert lines[0] == CSV_HEADER
        assert lines[0] == "g,m,n,frames,degree,plr_sim,ci95,plr_analytic,keying"
        assert len(lines) == 1 + (ref_dist.q + 2)  # degrees 0..8 plus avg
        first = lines[1].split(",")
        assert first[:5] == ["0.5", "15", "30", "300", "0"]
        assert first[-1] == "induced"
        avg = lines[-1].split(",")
        assert avg[4] == "avg"

    def test_nine_significant_digits(self):
        dist = validate([0, 0, 1.0])
        plan = SweepPlan(
            dist=dist, n=20, epsilon=0.0, loads=(1 / 3,), frames=100, seed=1
        )
        lines = csv_lines(run_sweep(plan))
        assert lines[1].startswith("0.333333333,7,20,100,0,")

    def test_write_csv_trailing_newline(self, ref_dist, tmp_path):
        plan = SweepPlan(
            dist=ref_dist, n=30, epsilon=0.0, loads=(0.5,), frames=100, seed=1
        )
        path = tmp_path / "out.csv"
        write_csv(run_sweep(plan), str(path))
        text = path.read_text()
        assert text.endswith("\n") and text.splitlines()[0] == CSV_HEADER


class TestSimulationAgainstAnalytics:
    def test_error_floor_agreement_on_small_configuration(self):
        # light version of the flagship comparison: pure degree-2 traffic at
        # low load fails almost only through slot-pair collisions (S5)
        dist = validate([0, 0, 1.0])
        plan = SweepPlan(
            dist=dist, n=100, epsilon=0.0, loads=(0.1,), frames=60_000, seed=77
        )
        row = run_sweep(plan)[0]
        assert row.plr_sim[2] == pytest.approx(row.plr_analytic[2], rel=0.35)
        assert row.histogram["S5"] > 0
