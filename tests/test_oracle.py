from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from csa_floor.oracle import EnumerationTooLarge, exact_beta, exact_event_probabilities
from csa_floor.stopping_sets import CATALOG, CATALOG_BY_ID, StoppingSetClass, beta_exact, classify
from tests.test_stopping_sets import build, relabelling_images

EXACT_CLASSES = ("S1", "S2", "S3", "S4", "S5", "S8")
CHECK_N = (6, 8, 12, 200)
FOUR_CYCLE = StoppingSetClass("C4", tuple(map(frozenset, ("ab", "bc", "cd", "da"))), None)


def _assignments(sclass, n):
    """Every joint assignment of the class's degrees, users in topology order."""
    return product(*(combinations(range(n), len(u)) for u in sclass.topology))


def brute_beta(sclass, n):
    """Share of joint assignments that ``classify`` labels as the class."""
    labels = [classify(build(n, *a)) for a in _assignments(sclass, n)]
    return Fraction(labels.count(sclass.id), len(labels))


class TestExactBeta:
    def test_s1_at_10(self):
        assert exact_beta(CATALOG_BY_ID["S1"], 10) == Fraction(1, 10)

    def test_s5_at_6(self):
        assert exact_beta(CATALOG_BY_ID["S5"], 6) == Fraction(1, 15)

    def test_s8_at_10(self):
        assert exact_beta(CATALOG_BY_ID["S8"], 10) == Fraction(1, 120)

    @pytest.mark.parametrize("cid", EXACT_CLASSES)
    @pytest.mark.parametrize("n", CHECK_N)
    def test_printed_formulas_exact(self, cid, n):
        sclass = CATALOG_BY_ID[cid]
        assert exact_beta(sclass, n) == beta_exact(sclass, n)

    @pytest.mark.parametrize("n", CHECK_N)
    def test_s7_ratio_is_n_over_n_minus_1(self, n):
        sclass = CATALOG_BY_ID["S7"]
        ratio = exact_beta(sclass, n) / beta_exact(sclass, n)
        assert ratio == Fraction(n, n - 1)

    @pytest.mark.parametrize("n", CHECK_N)
    def test_s6_discrepancy_ratio_recorded(self, n):
        # the exact count of the degree-2 triangle disagrees with the printed
        # formula; it is 8(n-2)/(n^2 (n-1)^2) and the ratio to the printed
        # value stays within the documented band
        sclass = CATALOG_BY_ID["S6"]
        got = exact_beta(sclass, n)
        assert got == Fraction(8 * (n - 2), n**2 * (n - 1) ** 2)
        ratio = got / beta_exact(sclass, n)
        assert Fraction(3, 2) <= ratio <= Fraction(3, 1)

    def test_s5_at_200(self):
        assert exact_beta(CATALOG_BY_ID["S5"], 200) == Fraction(1, 19900)

    def test_s8_at_5000(self):
        n = 5000
        assert exact_beta(CATALOG_BY_ID["S8"], n) == Fraction(6, (n - 2) * (n - 1) * n)

    @pytest.mark.parametrize("cid", [c.id for c in CATALOG])
    @pytest.mark.parametrize("n", (5, 6))
    def test_matches_brute_force_classification(self, cid, n):
        sclass = CATALOG_BY_ID[cid]
        assert exact_beta(sclass, n) == brute_beta(sclass, n)

    def test_degree2_four_cycle(self):
        # 4! user orders over the 8 symmetries of the square, on 15^4
        # assignments; also the share whose user-sorted form is a relabelling
        images = {tuple(sorted(a)) for a in relabelling_images(FOUR_CYCLE, 6)}
        hits = [tuple(sorted(a)) in images for a in _assignments(FOUR_CYCLE, 6)]
        assert exact_beta(FOUR_CYCLE, 6) == Fraction(8, 375) == Fraction(sum(hits), len(hits))


def _missing_permutations(sclass, images):
    """Assignments reached from the label-map images by permuting
    equal-degree users that are not images themselves."""
    degrees = [len(u) for u in sclass.topology]
    perms = [
        p for p in permutations(range(len(degrees)))
        if all(degrees[j] == degrees[i] for i, j in enumerate(p))
    ]
    return {tuple(a[j] for j in p) for a in images for p in perms} - images


class TestMatchingAssignments:
    """The closed form against the label-map images it replaced."""

    @pytest.mark.parametrize("cid", [c.id for c in CATALOG])
    def test_closed_under_equal_degree_permutations(self, cid):
        # in a catalog class, swapping equal-degree users is a relabelling,
        # so the images are every realizing assignment and count exact_beta
        sclass = CATALOG_BY_ID[cid]
        images = relabelling_images(sclass, 6)
        assert not _missing_permutations(sclass, images)
        total = sum(1 for _ in _assignments(sclass, 6))
        assert exact_beta(sclass, 6) == Fraction(len(images), total)

    def test_degree2_four_cycle_is_not_closed(self):
        # swapping two adjacent users of the 4-cycle is no relabelling, so
        # the images alone undercount it: 8/1125 against 8/375
        images = relabelling_images(FOUR_CYCLE, 6)
        assert _missing_permutations(FOUR_CYCLE, images)
        assert Fraction(len(images), 15**4) == Fraction(8, 1125)


class TestExactEvents:
    def test_single_degree1_user_always_resolves(self):
        tally = exact_event_probabilities((1,), 7)
        assert tally.unresolved == {0: Fraction(1)}
        assert tally.labels == {}

    def test_two_degree2_users_fail_only_as_s5(self):
        tally = exact_event_probabilities((2, 2), 6)
        assert tally.unresolved[2] == Fraction(1, 15)
        assert tally.unresolved[0] == Fraction(14, 15)
        assert tally.labels == {"S5": Fraction(1, 15)}
        assert tally.unresolved[2] == exact_beta(CATALOG_BY_ID["S5"], 6)

    def test_three_degree2_triangle_probability(self):
        tally = exact_event_probabilities((2, 2, 2), 6)
        assert tally.labels["S6"] == Fraction(32, 900)

    def test_probabilities_sum_to_one_exactly(self):
        for degrees in ((2, 2), (2, 2, 2), (1, 2, 3)):
            tally = exact_event_probabilities(degrees, 6)
            assert sum(tally.unresolved.values()) == Fraction(1)

    def test_degree0_user_labelled(self):
        tally = exact_event_probabilities((0, 1), 5)
        assert tally.unresolved == {1: Fraction(1)}
        assert tally.labels == {"Degree0": Fraction(1)}

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationTooLarge):
            exact_event_probabilities((8, 8, 8), 30)

    def test_degree_larger_than_slots_rejected(self):
        with pytest.raises(ValueError):
            exact_event_probabilities((4,), 3)
