import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from scipy.stats import binom

from csa_floor.decoder import peel
from csa_floor.distributions import validate
from csa_floor.frame_model import FrameGraph, SlotCountTooSmall, UserRecord
from csa_floor.stopping_sets import (
    CATALOG,
    CATALOG_BY_ID,
    TooFewUsers,
    alpha,
    beta,
    beta_exact,
    classify,
    components,
    is_stopping_set,
    rho,
)


def relabelling_images(sclass, n):
    """Every assignment, users in topology order as sorted slot tuples, that
    an injective map of the class's slot labels into range(n) makes of its
    topology."""
    labels = sorted(frozenset().union(*sclass.topology))
    images = set()
    for slots in permutations(range(n), len(labels)):
        relabel = dict(zip(labels, slots))
        images.add(tuple(tuple(sorted(relabel[l] for l in u)) for u in sclass.topology))
    return images


def build(n, *slot_sets):
    users = tuple(
        UserRecord(original_degree=len(s), slots=frozenset(s)) for s in slot_sets
    )
    return FrameGraph(n=n, users=users)


def random_instance(sclass, n, rng):
    labels = sorted({l for u in sclass.topology for l in u})
    slots = rng.choice(n, size=len(labels), replace=False)
    slot_map = dict(zip(labels, (int(s) for s in slots)))
    return build(n, *({slot_map[l] for l in u} for u in sclass.topology))


class TestCatalog:
    def test_profiles_are_the_papers(self):
        assert {c.id: c.profile for c in CATALOG} == {
            "S1": (0, 2),
            "S2": (0, 2, 1),
            "S3": (0, 3, 0, 1),
            "S4": (0, 1, 1, 1),
            "S5": (0, 0, 2),
            "S6": (0, 0, 3),
            "S7": (0, 0, 1, 2),
            "S8": (0, 0, 0, 2),
        }

    def test_every_template_is_a_stopping_set(self, rng):
        for c in CATALOG:
            assert is_stopping_set(random_instance(c, 20, rng)), c.id

    def test_classify_recovers_id_under_relabeling(self, rng):
        for c in CATALOG:
            for _ in range(20):
                assert classify(random_instance(c, 30, rng)) == c.id

    def test_templates_are_decoder_stable(self, rng):
        for c in CATALOG:
            out = peel(random_instance(c, 25, rng))
            assert not any(out.resolved), c.id


class TestBeta:
    def test_spot_values(self):
        assert beta(CATALOG_BY_ID["S5"], 200) == pytest.approx(5.0251e-5, rel=1e-4)
        assert beta(CATALOG_BY_ID["S1"], 100) == 0.01
        assert beta(CATALOG_BY_ID["S8"], 10) == pytest.approx(8.3333e-3, rel=1e-4)

    def test_exact_formula_values(self):
        assert beta_exact(CATALOG_BY_ID["S5"], 200) == Fraction(2, 200 * 199)
        assert beta_exact(CATALOG_BY_ID["S8"], 10) == Fraction(1, 120)
        assert beta_exact(CATALOG_BY_ID["S4"], 9) == Fraction(6, 8 * 81)
        assert beta_exact(CATALOG_BY_ID["S7"], 10) == Fraction(36 * 7, 8 * 9 * 1000)

    def test_probability_bounds(self):
        for c in CATALOG:
            for n in range(5, 40):
                assert 0.0 < beta(c, n) < 1.0

    def test_decreasing_in_n(self):
        for c in CATALOG:
            values = [beta(c, n) for n in range(5, 60)]
            assert all(a > b for a, b in zip(values, values[1:])), c.id

    def test_slot_count_too_small(self):
        with pytest.raises(SlotCountTooSmall):
            beta(CATALOG_BY_ID["S1"], 3)


class TestAlpha:
    def test_s5_two_pure_degree2_users(self):
        assert alpha(CATALOG_BY_ID["S5"], 2, validate([0, 0, 1.0])) == 1.0

    def test_s5_against_binomial_factorial_moment(self, ref_dist):
        # E[C(v2, 2)] for v2 ~ Binomial(40, 0.25), summed directly
        expect = sum(
            math.comb(k, 2) * binom.pmf(k, 40, 0.25) for k in range(41)
        )
        got = alpha(CATALOG_BY_ID["S5"], 40, ref_dist)
        assert got == pytest.approx(48.75, abs=1e-9)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_s2_against_exhaustive_degree_assignments(self):
        induced = validate([0, 2 / 3, 1 / 3])
        # enumerate all 3^3 degree assignments of three users
        hit = 0.0
        for degs in product((0, 1, 2), repeat=3):
            weight = math.prod(induced.probs[d] for d in degs)
            if sorted(degs) == [1, 1, 2]:
                hit += weight
        got = alpha(CATALOG_BY_ID["S2"], 3, induced)
        assert got == pytest.approx(4 / 9, rel=1e-12)
        assert got == pytest.approx(hit, rel=1e-12)

    def test_too_few_users(self, ref_dist):
        with pytest.raises(TooFewUsers):
            alpha(CATALOG_BY_ID["S5"], 1, ref_dist)

    def test_degree_beyond_q_gives_zero(self):
        assert alpha(CATALOG_BY_ID["S8"], 10, validate([0, 0, 1.0])) == 0.0


class TestRho:
    def test_s5_product(self, ref_dist):
        got = rho(CATALOG_BY_ID["S5"], 40, 200, ref_dist)
        assert got == pytest.approx(48.75 * 2 / (199 * 200), rel=1e-12)
        assert got == pytest.approx(2.4497e-3, rel=1e-4)

    def test_s8_product(self, ref_dist):
        want = float(
            Fraction(math.comb(40, 2)) * Fraction(36, 100) * Fraction(6, 198 * 199 * 200)
        )
        assert rho(CATALOG_BY_ID["S8"], 40, 200, ref_dist) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(2.1379e-4, rel=1e-4)

    def test_small_m_returns_zero(self, ref_dist):
        assert rho(CATALOG_BY_ID["S6"], 2, 200, ref_dist) == 0.0


class TestComponents:
    def test_empty_residual(self):
        assert components(FrameGraph(n=10, users=())) == ()

    def test_disjoint_s5_and_s8(self):
        graph = build(10, {0, 1}, {0, 1}, {5, 6, 7}, {5, 6, 7})
        frags = components(graph)
        assert len(frags) == 2
        assert sorted(classify(f) for f in frags) == ["S5", "S8"]

    def test_degree0_user_is_isolated_fragment(self):
        frags = components(build(10, set()))
        assert len(frags) == 1
        assert classify(frags[0]) == "Degree0"

    def test_shared_slot_joins_users(self):
        frags = components(build(10, {0, 1}, {1, 2}, {5}))
        assert sorted(len(f.users) for f in frags) == [1, 2]


class TestClassify:
    def test_four_cycle_is_other(self):
        graph = build(10, {0, 1}, {1, 2}, {2, 3}, {3, 0})
        assert classify(graph) == "Other"

    def test_three_users_on_same_pair_is_other(self):
        # profile matches S6 but topology does not
        graph = build(10, {0, 1}, {0, 1}, {0, 1})
        assert classify(graph) == "Other"

    def test_two_triples_closed_by_a_pair_inside_them_is_other(self):
        # profile matches S7, but the users occupy 3 slots, not 4
        graph = build(10, {0, 1, 2}, {0, 1, 2}, {0, 1})
        assert classify(graph) == "Other"

    def test_matches_relabelling_sets_exhaustively(self):
        # every assignment of up to four users of degrees 1-4 at n = 5, users
        # in degree order, is class C exactly when its user-sorted form is a
        # relabelling of C's topology, and Other otherwise
        n = 5
        class_of = {
            tuple(sorted(a)): c.id for c in CATALOG for a in relabelling_images(c, n)
        }
        count = 0
        for k in range(1, 5):
            for degrees in combinations_with_replacement(range(1, 5), k):
                for assignment in product(*(combinations(range(n), l) for l in degrees)):
                    want = class_of.get(tuple(sorted(assignment)), "Other")
                    assert classify(build(n, *assignment)) == want, assignment
                    count += 1
        assert count == 135_230

    def test_is_stopping_set_examples(self):
        assert is_stopping_set(build(10, {1, 2}, {1, 2}))
        assert not is_stopping_set(build(10, {1}))
        assert not is_stopping_set(FrameGraph(n=10, users=()))
        assert not is_stopping_set(build(10, set(), {1, 2}, {1, 2}))


class TestMonteCarloRho:
    def test_s5_and_s8_occurrence_rates(self, ref_dist):
        from csa_floor.decoder import DegreeKeying
        from csa_floor.harness import SweepPlan, run_sweep

        frames = 150_000
        plan = SweepPlan(
            dist=ref_dist,
            n=200,
            epsilon=0.0,
            loads=(0.2,),
            frames=frames,
            seed=314159,
            workers=2,
            keying=DegreeKeying.INDUCED,
        )
        row = run_sweep(plan)[0]
        s5_rate = row.histogram["S5"] / frames
        s8_rate = row.histogram["S8"] / frames
        assert s5_rate == pytest.approx(rho(CATALOG_BY_ID["S5"], 40, 200, ref_dist), rel=0.2)
        assert s8_rate == pytest.approx(rho(CATALOG_BY_ID["S8"], 40, 200, ref_dist), rel=0.45)
