import math

import numpy as np
import pytest

from csa_floor.distributions import parse_distribution
from csa_floor.optimizer import FLOOR_LOG_CAP, ObjectiveSpec, objective, optimize


def spec38(**kw):
    defaults = dict(
        support=(3, 8), w_threshold=0.4, w_floor=0.6, g_target=0.5, n=200, epsilon=0.0
    )
    defaults.update(kw)
    return ObjectiveSpec(**defaults)


class TestObjectiveSpec:
    def test_support_below_two_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(support=(1, 3))

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(support=())

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(support=(2,), w_threshold=0.0, w_floor=0.0)

    @pytest.mark.parametrize("name", ["w_threshold", "w_floor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_weight_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative, got {value}"):
            ObjectiveSpec(support=(3, 8), **{name: value})

    def test_support_sorted_and_deduped(self):
        assert ObjectiveSpec(support=(8, 3, 3)).support == (3, 8)


class TestObjective:
    def test_floor_weight_zero_reduces_to_threshold(self):
        from csa_floor.density_evolution import threshold

        dist = parse_distribution("3:0.9,8:0.1")
        spec = spec38(w_threshold=1.0, w_floor=0.0)
        assert objective(dist, spec) == pytest.approx(threshold(dist), abs=1e-12)

    def test_threshold_weight_zero_orders_by_floor(self):
        spec = spec38(w_threshold=0.0, w_floor=1.0)
        lighter = parse_distribution("3:0.5,8:0.5")  # smaller degree-3 mass
        heavier = parse_distribution("3:0.9,8:0.1")
        assert objective(lighter, spec) > objective(heavier, spec)

    def test_off_support_mass_rejected(self, ref_dist):
        with pytest.raises(ValueError):
            objective(ref_dist, spec38())

    def test_low_floor_38_design_outscores_reference_mixture(self, ref_dist):
        # the known low-floor degree-3/8 design has a markedly lower analytic floor
        design38 = parse_distribution("3:0.87,8:0.13")
        j_38 = objective(design38, spec38())
        j_ref = objective(ref_dist, spec38(support=(2, 3, 8)))
        assert j_38 > j_ref

    def test_zero_floor_candidates_capped_not_rewarded(self):
        # all mass on degree 8: the catalog predicts a zero floor, which must
        # score no better than the cap
        pure8 = parse_distribution("8:1.0")
        spec = spec38(w_threshold=0.0, w_floor=1.0)
        assert objective(pure8, spec) == pytest.approx(FLOOR_LOG_CAP / 10.0)


class TestOptimize:
    def test_singleton_support_returns_point_mass(self):
        res = optimize(spec38(support=(3,)), budget=5, rng=1)
        assert res.best.probs[3] == 1.0
        assert len(res.trace) == 1

    def test_budget_one_evaluates_single_candidate(self):
        res = optimize(spec38(), budget=1, rng=123)
        assert len(res.trace) == 1
        assert res.best.probs[3] == pytest.approx(0.5)  # barycenter comes first

    def test_result_on_simplex_and_support(self):
        res = optimize(spec38(), budget=40, rng=7)
        probs = res.best.probs
        assert abs(math.fsum(probs) - 1.0) < 1e-9
        assert all(p == 0.0 for l, p in enumerate(probs) if l not in (3, 8))
        assert all(p >= 0.0 for p in probs)

    def test_best_score_is_trace_maximum(self):
        res = optimize(spec38(), budget=60, rng=11)
        assert res.best_score == max(score for _, score in res.trace)
        assert len(res.trace) == 60

    def test_identical_seeds_identical_results(self):
        a = optimize(spec38(), budget=50, rng=np.random.default_rng(42))
        b = optimize(spec38(), budget=50, rng=np.random.default_rng(42))
        assert a.best.probs == b.best.probs
        assert a.trace == b.trace

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError):
            optimize(spec38(), budget=0, rng=1)
