import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from csa_floor.density_evolution import (
    _GRID,
    GRID_POINTS,
    DegreeOneUnsupported,
    de_fixed_point,
    threshold,
)
from csa_floor.distributions import ChannelModel, induce, parse_distribution, validate
from tests import analytic_reference as ref

PURE2 = validate([0, 0, 1.0])
PURE3 = validate([0, 0, 0, 1.0])
DENSE_GRID = 200_000
# f has two local minima, near p = 0.72 and p = 0.98, within 1% in value
BIMODAL = "3:0.9,30:0.1"
ORACLE_SCAN = 20_000
ORACLE_DIGITS = 40
ORACLE_WIDTH = Decimal("1e-24")
# just below g* the recursion stalls in the bottleneck of these: after up to
# 100000 iterations it still reads 0.487, 0.366 and 0.331
BOTTLENECKED = ["2:0.25,3:0.6,8:0.15", "3:1.0", BIMODAL]
# f's minimum is past the last grid point, in a basin narrower than the grid
NARROW_BASIN = ["2:0.5,400:0.5", "2:0.5,20000:0.5"]


@st.composite
def laws(draw):
    """Laws on 1-4 degrees in 2..12, with or without degree-2 mass."""
    others = draw(st.lists(st.integers(3, 12), min_size=0, max_size=3, unique=True))
    if draw(st.booleans()) or not others:
        others.append(2)
    weights = [draw(st.floats(0.05, 1.0)) for _ in others]
    probs = [0.0] * 13
    for degree, w in zip(others, weights):
        probs[degree] = w / math.fsum(weights)
    return validate(probs)


def dense_grid_threshold(dist):
    """min(1, inf over p of -ln(1-p) / sum_l l lambda_l p^(l-1)) from a dense
    uniform grid plus the p -> 0 limit 1 / (2 lambda_2)."""
    lam = np.asarray(dist.probs)
    p = np.linspace(0.0, 1.0, DENSE_GRID + 1)[1:-1]
    denom = sum(l * lam[l] * p ** (l - 1) for l in range(2, lam.size))
    g_star = float(np.min(-np.log1p(-p) / denom))
    if lam[2] > 0.0:
        g_star = min(g_star, 1.0 / (2.0 * lam[2]))
    return min(1.0, g_star)


def ratio(dist, p):
    """f(p) = -ln(1-p) / sum_l l lambda_l p^(l-1) at the points of array p."""
    lam = np.asarray(dist.probs)
    return -np.log1p(-p) / sum(l * lam[l] * p ** (l - 1) for l in range(2, lam.size) if lam[l])


def decimal_threshold(dist) -> Decimal:
    """min(1, inf_p f(p)) to ORACLE_DIGITS digits, with Decimal.ln.

    A float scan of ORACLE_SCAN points finds every local minimum of f; each
    is refined by golden section in Decimal arithmetic on the exact binary
    values of the law, and the p -> 0 limit 1 / (2 lambda_2) joins them.
    """
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        terms = [(l, Decimal(lam)) for l, lam in enumerate(dist.probs) if lam]

        def f(p):
            return -(1 - p).ln() / sum(l * lam * p ** (l - 1) for l, lam in terms)

        v = ratio(dist, np.arange(1, ORACLE_SCAN) / ORACLE_SCAN)
        best = 1 / (2 * Decimal(dist.probs[2])) if dist.probs[2] else Decimal(1)
        for j in np.flatnonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])) + 1:
            a, b = Decimal(int(j)) / ORACLE_SCAN, Decimal(int(j) + 2) / ORACLE_SCAN  # p[j] +- 1/SCAN
            best = min(best, golden_minimum(f, a, b)[0])
        return min(best, Decimal(1))


def decimal_tail_minimum(dist) -> Decimal:
    """f's minimum over 1 - p in [1e-12, 1e-2] to ORACLE_DIGITS digits: a
    float scan uniform in -log10(1 - p), then golden section in Decimal
    arithmetic between the scan's neighbours of its argmin."""
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        terms = [(l, Decimal(lam)) for l, lam in enumerate(dist.probs) if lam]

        def f(p):
            return -(1 - p).ln() / sum(l * lam * p ** (l - 1) for l, lam in terms)

        p = 1.0 - 10.0 ** -np.linspace(2.0, 12.0, ORACLE_SCAN)
        j = int(np.argmin(ratio(dist, p)))
        assert 0 < j < ORACLE_SCAN - 1
        return golden_minimum(f, Decimal(p[j - 1]), Decimal(p[j + 1]))[0]


def decimal_unresolved(dist, g: float) -> Decimal:
    """sum_l lambda_l p^l at the largest root p of f(p) = g to ORACLE_DIGITS
    digits, for a load g just above f's infimum.

    f's minimizer is refined by golden section in Decimal arithmetic between
    the neighbours of the argmin of a float scan, uniform in p and in
    -log10(1 - p). Near the infimum f stays below g only around it, so the
    root is bisected in Decimal down to ORACLE_WIDTH between the minimizer
    and the first scan point right of it where f exceeds g.
    """
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        terms = [(l, Decimal(lam)) for l, lam in enumerate(dist.probs) if lam]

        def f(p):
            return -(1 - p).ln() / sum(l * lam * p ** (l - 1) for l, lam in terms)

        p = np.union1d(np.arange(1, ORACLE_SCAN) / ORACLE_SCAN, 1.0 - 10.0 ** -np.linspace(2.0, 12.0, ORACLE_SCAN))
        v = ratio(dist, p)
        j = int(np.argmin(v))
        _, a = golden_minimum(f, Decimal(p[j - 1]), Decimal(p[j + 1]))
        b = Decimal(p[j + 1 + int(np.argmax(v[j + 1 :] > g))])
        load = Decimal(g)
        assert f(a) < load < f(b)
        while b - a > ORACLE_WIDTH:
            mid = (a + b) / 2
            if f(mid) <= load:
                a = mid
            else:
                b = mid
        return sum(lam * a**l for l, lam in terms)


def golden_minimum(f, a: Decimal, b: Decimal) -> tuple[Decimal, Decimal]:
    """f's minimum on [a, b] and where it is reached, by golden section down
    to ORACLE_WIDTH, in the caller's Decimal context."""
    inv_phi = (Decimal(5).sqrt() - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > ORACLE_WIDTH:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return min((fc, c), (fd, d))


class TestFixedPoint:
    def test_pure_degree2_below_threshold(self):
        res = de_fixed_point(PURE2, 0.4)
        assert res.unresolved_fraction < 1e-8

    def test_pure_degree2_above_threshold(self):
        res = de_fixed_point(PURE2, 0.6)
        assert res.unresolved_fraction > 0.01
        assert 0.0 <= res.fixed_point_q <= 1.0

    def test_vanishing_load_resolves_everything(self, ref_dist):
        dist = validate([0, 0, 0.5, 0.3, 0, 0, 0, 0, 0.2])
        res = de_fixed_point(dist, 1e-3)
        assert res.unresolved_fraction < 1e-8

    def test_rejects_degree1_mass(self):
        with pytest.raises(DegreeOneUnsupported):
            de_fixed_point(validate([0, 0.3, 0.7]), 0.5)

    def test_rejects_degree0_mass(self):
        with pytest.raises(DegreeOneUnsupported):
            de_fixed_point(validate([0.1, 0, 0.9]), 0.5)

    def test_rejects_any_erasure_induced_distribution(self, ref_dist):
        induced = induce(ref_dist, ChannelModel(0.03))
        with pytest.raises(DegreeOneUnsupported):
            de_fixed_point(induced, 0.5)

    def test_unresolved_fraction_monotone_in_load(self):
        grid = [0.1 * k for k in range(1, 11)]
        values = [de_fixed_point(PURE3, g).unresolved_fraction for g in grid]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9

    def test_q_sequence_monotone_non_increasing(self):
        # the recursion's own iterates; de_fixed_point solves for their limit
        for g in (0.3, 0.5, 0.7, 0.9):
            trace: list[float] = []
            ref.de_recursion(PURE3, g, trace=trace)
            assert all(a >= b - 1e-15 for a, b in zip(trace, trace[1:])), g

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            de_fixed_point(PURE2, 0.0)

    @given(laws())
    def test_zero_exactly_below_threshold(self, dist):
        g_star = threshold(dist)
        below = de_fixed_point(dist, math.nextafter(g_star, 0.0))
        assert below.unresolved_fraction == 0.0 and below.fixed_point_q == 0.0
        assert de_fixed_point(dist, g_star).unresolved_fraction > 0.0

    @pytest.mark.parametrize("text", BOTTLENECKED)
    def test_zero_just_below_threshold(self, text):
        dist = parse_distribution(text)
        g = threshold(dist) * (1 - 1e-10)
        assert decimal_threshold(dist) > Decimal(g)
        res = de_fixed_point(dist, g)
        assert res.unresolved_fraction == 0.0 and res.fixed_point_q == 0.0

    @pytest.mark.parametrize("excess", [1e-10, 1e-6])
    @pytest.mark.parametrize("text", BOTTLENECKED + NARROW_BASIN)
    def test_matches_decimal_root_just_above_threshold(self, text, excess):
        dist = parse_distribution(text)
        g = threshold(dist) * (1 + excess)
        got = de_fixed_point(dist, g).unresolved_fraction
        assert abs(Decimal(got) - decimal_unresolved(dist, g)) <= Decimal("1e-9")

    @pytest.mark.parametrize("text,g", [("3:1.0", 50.0), ("2:0.5,400:0.5", 1.5), ("2:0.5,20000:0.5", 2.0)])
    def test_root_closer_to_one_than_floats_resolve(self, text, g):
        # 1 - p = exp(-g P(p)) at the root is below the float spacing at 1, so
        # the bracket toward p = 1 must close without evaluating f at p = 1
        dist = parse_distribution(text)
        want = ref.de_recursion(dist, g)
        assert abs(de_fixed_point(dist, g).unresolved_fraction - want.unresolved_fraction) <= 1e-9

    @example(parse_distribution(BIMODAL), -1e-3)
    @example(parse_distribution(BIMODAL), 1e-3)
    @given(laws(), st.sampled_from([-0.5, -1e-2, -1e-3, 1e-3, 1e-2, 0.5]))
    def test_matches_reference_recursion_away_from_threshold(self, dist, offset):
        # a tolerance of 1e-14 on q keeps the recursion's own error, about
        # tol / (1 - rate), well below 1e-9 at a rate of 0.999
        g = threshold(dist) * (1 + offset)
        want = ref.de_recursion(dist, g, tol=1e-14, max_iter=10**6)
        assert want.converged
        got = de_fixed_point(dist, g)
        assert abs(got.unresolved_fraction - want.unresolved_fraction) <= 1e-9


class TestThreshold:
    def test_pure_degree2_is_half(self):
        # the infimum is the p -> 0 limit 1 / (2 lambda_2), taken exactly
        assert threshold(PURE2) == 0.5

    def test_pure_degree3(self):
        assert threshold(PURE3) == pytest.approx(0.8185, abs=1e-4)

    def test_pure_degree4(self):
        assert threshold(validate([0, 0, 0, 0, 1.0])) == pytest.approx(0.7723, abs=1e-4)

    # x^12's minimum sits in a narrow basin near p = 0.976, where the bare
    # grid argmin is 2.7e-6 too high; the refinement is what closes the gap
    @example(validate([0.0] * 12 + [1.0]))
    @given(laws())
    def test_matches_dense_grid(self, dist):
        assert threshold(dist) == pytest.approx(dense_grid_threshold(dist), abs=1e-6)

    @given(laws())
    def test_separates_converging_from_stuck_loads(self, dist):
        g_star = threshold(dist)
        below = ref.de_recursion(dist, g_star * (1 - 1e-3))
        assert below.unresolved_fraction < 1e-8
        if g_star < 1.0:
            above = ref.de_recursion(dist, g_star * (1 + 1e-3))
            assert above.unresolved_fraction > 1e-8

    @pytest.mark.parametrize(
        "text", ["2:1.0", "3:1.0", "4:1.0", "2:0.25,3:0.6,8:0.15", "3:0.5,12:0.5", BIMODAL]
    )
    def test_matches_decimal_oracle(self, text):
        dist = parse_distribution(text)
        want = decimal_threshold(dist)
        assert abs(Decimal(threshold(dist)) - want) <= Decimal("2e-15") * want

    def test_decimal_oracle_sees_two_minima(self):
        # BIMODAL's second local minimum is within 1% of its first
        v = ratio(parse_distribution(BIMODAL), _GRID)
        minima = np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])) + 1
        assert len(minima) == 2
        assert max(v[minima]) < 1.01 * min(v[minima])

    # the dense grid's point nearest the minimum is above it by f'' dp^2 / 2,
    # about 1e-11 relative, so only a threshold() above the infimum shows
    @example(validate([0.0] * 12 + [1.0]))
    @example(parse_distribution("2:0.75,3:0.25"))
    @given(laws())
    def test_no_dense_grid_point_beats_it(self, dist):
        g_star = threshold(dist)
        assert dense_grid_threshold(dist) >= g_star - math.ulp(g_star)

    @pytest.mark.parametrize(
        "text,argmin",
        [
            ("2:1.0", 0),  # the infimum is the p -> 0 limit
            ("2:0.75,3:0.25", 0),  # f'(0) = 0: H(p) / p has a double root at 0
            ("2:0.6,4:0.4", 0),
            ("2:0.5,400:0.5", GRID_POINTS - 1),  # minimum at p = 1 - 3e-4
            (BIMODAL, None),
            ("3:0.89,30:0.11", None),  # the other minimum is the lower one
        ],
    )
    def test_bracket_edges(self, text, argmin):
        dist = parse_distribution(text)
        v = ratio(dist, _GRID)
        i = int(np.argmin(v))
        if argmin is not None:
            assert i == argmin
        else:
            assert 0 < i < GRID_POINTS - 1
        g_star = threshold(dist)
        assert math.isfinite(g_star)
        assert g_star <= v[i]
        want = decimal_threshold(dist)
        assert abs(Decimal(g_star) - want) <= Decimal("2e-15") * want

    @pytest.mark.parametrize(
        "text,falls_at_last_point",
        [
            ("2:0.5,20000:0.5", True),
            ("2:0.9,20000:0.1", False),  # f rises at the last grid point, then dips
            ("3:0.9,20000:0.1", False),
            ("2:0.98,1000000:0.02", False),  # 1 - p = 6e-8 there: Newton stops relative to 1 - p
        ],
    )
    def test_minimum_past_the_last_grid_point(self, text, falls_at_last_point):
        # f's minimum lies near 1 - p = 4e-6, past the grid and far below the
        # grid minimum, which is not the last grid point
        dist = parse_distribution(text)
        v = ratio(dist, _GRID)
        assert int(np.argmin(v)) < GRID_POINTS - 1 and (v[-1] < v[-2]) == falls_at_last_point
        want = decimal_tail_minimum(dist)
        assert want < Decimal(0.1 * v.min())
        assert abs(Decimal(threshold(dist)) - want) <= Decimal("2e-15") * want

    def test_underflowing_grid_powers_warn_nothing(self):
        # GRID**19999 underflows to 0 on most of the grid, where f is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert threshold(parse_distribution("20000:1.0")) < 0.001

    def test_reference_mixture_beats_pure_degree3(self, ref_dist):
        # the 0.25/0.6/0.15 mixture is known to have a higher threshold
        assert threshold(ref_dist) > threshold(PURE3)

    def test_bounded_by_one(self):
        for dist in (PURE2, PURE3, validate([0, 0, 0, 0, 0, 0, 0, 0, 1.0])):
            assert 0.0 <= threshold(dist) <= 1.0

    def test_rejects_degree1_mass(self):
        with pytest.raises(DegreeOneUnsupported):
            threshold(validate([0, 1.0]))

    def test_agrees_with_full_fixed_point_classification(self):
        g_star = threshold(PURE3)
        below = ref.de_recursion(PURE3, g_star - 0.01)
        above = ref.de_recursion(PURE3, g_star + 0.01)
        assert below.unresolved_fraction < 1e-8
        assert above.unresolved_fraction > 1e-4
