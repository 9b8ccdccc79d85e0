import itertools
import math

import numpy as np
import pytest

from csa_floor.distributions import ChannelModel, induce, validate
from csa_floor.frame_model import FrameConfig, SlotCountTooSmall, sample_frame
from tests import analytic_reference as ref


def _config(m, n, probs, eps=0.0):
    return FrameConfig(m=m, n=n, dist=validate(probs), channel=ChannelModel(eps))


class TestSampleFrame:
    def test_empty_frame(self, rng):
        graph = sample_frame(_config(0, 5, [0, 0, 1.0]), rng)
        assert graph.users == () and graph.n == 5

    def test_single_slot_pure_degree1(self, rng):
        graph = sample_frame(_config(7, 1, [0, 1.0]), rng)
        assert all(u.slots == frozenset({0}) for u in graph.users)

    def test_full_erasure_empties_every_user(self, rng, ref_dist):
        cfg = FrameConfig(m=9, n=20, dist=ref_dist, channel=ChannelModel(1.0))
        graph = sample_frame(cfg, rng)
        assert all(u.slots == frozenset() for u in graph.users)
        assert all(u.original_degree >= 2 for u in graph.users)

    def test_slots_distinct_and_in_range(self, ref_dist):
        rng = np.random.default_rng(3)
        for _ in range(50):
            graph = sample_frame(
                FrameConfig(m=12, n=9, dist=ref_dist, channel=ChannelModel(0.2)), rng
            )
            for u in graph.users:
                assert len(u.slots) <= u.original_degree <= 8
                assert all(0 <= s < 9 for s in u.slots)

    def test_deterministic_given_seed(self, ref_dist):
        cfg = FrameConfig(m=20, n=30, dist=ref_dist, channel=ChannelModel(0.1))
        g1 = sample_frame(cfg, np.random.default_rng(99))
        g2 = sample_frame(cfg, np.random.default_rng(99))
        assert g1 == g2

    def test_slot_count_too_small(self, ref_dist):
        with pytest.raises(SlotCountTooSmall):
            FrameConfig(m=3, n=7, dist=ref_dist)  # the degree-8 tail needs 8 slots


class TestMultinomialPmf:
    def test_examples(self):
        assert ref.multinomial_pmf([1, 1], validate([0.5, 0.5]), 2) == pytest.approx(0.5)
        assert ref.multinomial_pmf([0, 2], validate([0.75, 0.25]), 2) == pytest.approx(
            0.0625
        )
        assert ref.multinomial_pmf([1, 0], validate([0.5, 0.5]), 2) == 0.0

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError):
            ref.multinomial_pmf([-1, 3], validate([0.5, 0.5]), 2)

    @pytest.mark.parametrize("m,q", [(m, q) for m in range(1, 7) for q in range(1, 4)])
    def test_sums_to_one_exhaustively(self, m, q):
        probs = [(l + 1) / sum(range(1, q + 2)) for l in range(q + 1)]
        dist = validate(probs)
        total = 0.0
        for u in itertools.product(range(m + 1), repeat=q + 1):
            if sum(u) == m:
                total += ref.multinomial_pmf(u, dist, m)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestStatistics:
    def test_expected_profile_matches_induced_distribution(self):
        probs = [0.0, 0.2, 0.5, 0.3]
        eps = 0.3
        m, n, frames = 6, 12, 20_000
        cfg = _config(m, n, probs, eps)
        induced = induce(validate(probs), ChannelModel(eps))
        rng = np.random.default_rng(42)
        sums = np.zeros(4)
        for _ in range(frames):
            graph = sample_frame(cfg, rng)
            sums += np.bincount([len(u.slots) for u in graph.users], minlength=4)
        for l in range(4):
            mean = sums[l] / frames
            expect = m * induced.probs[l]
            se = math.sqrt(m * induced.probs[l] * (1 - induced.probs[l]) / frames)
            assert abs(mean - expect) <= 3 * se + 1e-9, (l, mean, expect, se)
