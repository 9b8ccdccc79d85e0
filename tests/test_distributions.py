import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csa_floor.distributions import (
    ChannelModel,
    DegreeDistribution,
    DistributionError,
    DomainError,
    EmptyVector,
    NegativeEntry,
    SumNotOne,
    format_distribution,
    induce,
    parse_distribution,
    validate,
)

REF_DIST = [0, 0, 0.25, 0.6, 0, 0, 0, 0, 0.15]


@st.composite
def dists(draw, min_q=1, max_q=8, min_degree=0):
    q = draw(st.integers(min_q, max_q))
    raw = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=q + 1, max_size=q + 1
        )
    )
    for l in range(min(min_degree, q + 1)):
        raw[l] = 0.0
    total = math.fsum(raw)
    if total <= 0.0:
        raw[-1] = 1.0
        total = math.fsum(raw)
    return DegreeDistribution(tuple(w / total for w in raw))


class TestValidate:
    def test_reference_mixture_vector(self):
        dist = validate(REF_DIST)
        assert dist.q == 8
        assert dist.probs[2] == 0.25 and dist.probs[3] == 0.6 and dist.probs[8] == 0.15

    def test_length_one_rejected(self):
        with pytest.raises(EmptyVector):
            validate([1.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyVector):
            validate([])

    def test_point_mass_on_zero_is_valid(self):
        dist = validate([1.0, 0.0])
        assert dist.q == 1 and dist.probs[0] == 1.0

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            validate([0.5, 0.4])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate([-0.1, 1.1])

    @pytest.mark.parametrize("bad", [math.nan, -math.nan])
    def test_nan_entry_rejected_by_index(self, bad):
        # both the sign test and the sum tolerance test are false for NaN
        with pytest.raises(DistributionError, match=r"probs\[2\] = nan is not a number"):
            validate([0.0, 0.0, bad, 1.0])

    def test_nan_in_text_rejected(self):
        with pytest.raises(DistributionError, match="nan"):
            parse_distribution("2:nan,3:1.0")

    def test_negative_zero_accepted(self):
        assert validate([-0.0, 1.0]).probs == (-0.0, 1.0)

    def test_never_renormalizes(self):
        with pytest.raises(SumNotOne):
            validate([0.5, 0.5 + 1e-6])


class TestInduce:
    def test_induced_floor_constant(self):
        # lambda_0 must equal the generating polynomial at eps, computed here
        # by direct powers rather than through evaluate()
        eps = 0.03
        target = 0.25 * eps**2 + 0.6 * eps**3 + 0.15 * eps**8
        got = induce(validate(REF_DIST), ChannelModel(eps)).probs[0]
        assert got == pytest.approx(target, abs=1e-12)
        assert round(got, 5) == 0.00024  # the two-significant-figure constant

    def test_eps_zero_is_identity_elementwise(self, ref_dist):
        assert induce(ref_dist, ChannelModel(0.0)).probs == ref_dist.probs

    def test_pure_degree2_half_erasure(self):
        out = induce(validate([0, 0, 1.0]), ChannelModel(0.5))
        assert out.probs == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)

    def test_eps_one_is_point_mass_at_zero(self, ref_dist):
        out = induce(ref_dist, ChannelModel(1.0))
        assert out.probs[0] == 1.0
        assert all(p == 0.0 for p in out.probs[1:])

    @given(dists(), st.floats(0.0, 1.0, allow_nan=False))
    def test_simplex_preserved(self, dist, eps):
        out = induce(dist, ChannelModel(eps))
        assert abs(math.fsum(out.probs) - 1.0) <= 1e-12
        assert out.q == dist.q

    @given(dists(), st.floats(0.0, 1.0, allow_nan=False))
    def test_entry0_equals_evaluate_at_eps(self, dist, eps):
        out = induce(dist, ChannelModel(eps))
        assert out.probs[0] == pytest.approx(dist.evaluate(eps), abs=1e-12)
        assert out.evaluate(1.0) == pytest.approx(1.0, abs=1e-12)

    @given(dists(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_degree0_mass_monotone_in_eps(self, dist, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        assert (
            induce(dist, ChannelModel(lo)).probs[0]
            <= induce(dist, ChannelModel(hi)).probs[0] + 1e-12
        )


class TestEvaluate:
    @given(dists())
    def test_at_one_is_normalization(self, dist):
        assert dist.evaluate(1.0) == pytest.approx(1.0, abs=1e-9)

    @given(dists())
    def test_at_zero_is_degree0_mass(self, dist):
        assert dist.evaluate(0.0) == dist.probs[0]

    def test_reference_mixture_at_003(self, ref_dist):
        assert ref_dist.evaluate(0.03) == pytest.approx(2.412e-4, abs=1e-7)

    def test_domain_errors(self, ref_dist):
        for x in (-0.1, 1.5):
            with pytest.raises(DomainError):
                ref_dist.evaluate(x)


class TestTextFormat:
    def test_parse_reference_mixture(self, ref_dist):
        assert ref_dist.probs == tuple(REF_DIST)

    def test_unlisted_degrees_are_zero(self):
        dist = parse_distribution("1:0.5,4:0.5")
        assert dist.probs == (0.0, 0.5, 0.0, 0.0, 0.5)

    def test_roundtrip(self, ref_dist):
        assert parse_distribution(format_distribution(ref_dist)).probs == ref_dist.probs

    def test_malformed_pair(self):
        with pytest.raises(DistributionError):
            parse_distribution("2:0.5,nope")

    def test_duplicate_degree(self):
        with pytest.raises(DistributionError):
            parse_distribution("2:0.5,2:0.5")

    def test_parse_then_validate_catches_bad_sum(self):
        with pytest.raises(SumNotOne):
            parse_distribution("2:0.5,3:0.4")

    def test_channel_epsilon_bounds(self):
        with pytest.raises(DomainError):
            ChannelModel(-0.01)
        with pytest.raises(DomainError):
            ChannelModel(1.01)
