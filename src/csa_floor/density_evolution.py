"""Asymptotic (n -> infinity) peeling analysis and load threshold.

With m = g*n users and n -> infinity, slot occupancies become Poisson with
mean g times the mean degree, and the decoder admits the standard two-message
fixed-point recursion: starting from q = p = 1,

    p <- 1 - exp(-g * dbar * q)        (slot fails to reveal the user)
    q <- lambda_e(p)                   (user unrevealed through other slots)

where lambda_e is the edge-perspective degree polynomial and dbar the mean
degree. The unresolved user fraction at the fixed point is
sum_l lambda_l p^l. A p in (0, 1) is a fixed point at load g exactly when
f(p) = -ln(1 - p) / P(p) = g, with P(p) = dbar * lambda_e(p) =
sum_l l lambda_l p^(l-1), and the recursion falls from p = 1 to the largest
such p, or to p = 0 when there is none. Both answers are read off f in
closed form, with no iteration of the recursion: ``threshold`` is f's
infimum over (0, 1), the largest load whose fixed point leaves a vanishing
unresolved fraction, and ``de_fixed_point`` is the largest root of
f(p) = g. Both sample f once, on a grid spaced evenly in log(-ln(1 - p))
from p = 1/2049 to 1 - p = 2**-50: fine near p = 0, and reaching toward
p = 1, where f's minimum lies for laws with degrees in the thousands. Both
close the answer with the same safeguarded Newton solve between
neighbouring samples.

The recursion assumes every user has degree >= 2: with mass on degree 0 or 1
it stops describing the actual decoder (a degree-1 user occupies one slot
and has no "other slots"), so such distributions are rejected. In particular
any erasure-induced distribution with eps > 0 is rejected, reflecting that
the asymptotic threshold over an erasure channel is zero and the floor is
governed by the induced degree-0 mass instead.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import DegreeDistribution
from .errors import CsaFloorError

GRID_POINTS = 2087
NEWTON_TOL = 1e-12
# p from 1/2049 to 1 - 2**-50, evenly spaced in log(-ln(1 - p))
_GRID = -np.expm1(-np.geomspace(-math.log1p(-1 / 2049), 50 * math.log(2), GRID_POINTS))
_GRID_NUMERATOR = -np.log1p(-_GRID)
_EDGES = [0.0, *_GRID.tolist(), 1.0]
# grid denominators above this leave every quotient finite
_FINITE_DENOMINATOR = float(_GRID_NUMERATOR[-1]) / sys.float_info.max


@functools.cache
def _grid_power(k: int) -> np.ndarray:
    """GRID**k, read-only, computed on first use."""
    power = _GRID**k
    power.flags.writeable = False
    return power


class DegreeOneUnsupported(CsaFloorError):
    """Recursion undefined for distributions with mass on degree 0 or 1."""


@dataclass(frozen=True)
class DeResult:
    fixed_point_q: float
    unresolved_fraction: float


def _check_min_degree(dist: DegreeDistribution):
    if dist.probs[0] > 0.0 or dist.probs[1] > 0.0:
        raise DegreeOneUnsupported(
            "density evolution needs all mass on degrees >= 2; "
            f"got lambda_0 = {dist.probs[0]}, lambda_1 = {dist.probs[1]}"
        )


def _terms(dist: DegreeDistribution) -> list[tuple[int, float]]:
    """(k, w_k) of P's nonzero terms w_k p^k, after the degree check."""
    _check_min_degree(dist)
    return [(l - 1, l * lam) for l, lam in enumerate(dist.probs) if lam]


def de_fixed_point(dist: DegreeDistribution, g: float) -> DeResult:
    """The recursion's limit at load g: p the largest root of f(p) = g, or
    p = q = 0 exactly when g is below f's infimum (``threshold`` when that
    is below 1), and also when g equals an infimum that is the p -> 0 limit,
    which f never reaches.

    The root lies right of the last grid sample of f at or below g and
    right of f's minimizer, which catches a basin narrower than the grid
    around it; with neither, it lies in (0, GRID[0]), where f falls to
    1 / (2 lambda_2). The next grid point, or p = 1, closes the bracket. A
    basin narrower than the grid that is not f's minimum's is not seen. A
    safeguarded Newton solve of R(p) = -ln(1 - p) - g P(p) = 0 closes in on
    the root: R <= 0 at the bracket's left end and R > 0 at its right end.
    """
    terms = _terms(dist)
    if g <= 0.0:
        raise ValueError(f"load must be positive, got {g}")
    g_star, a, values = _minimum(terms)
    if g < g_star or (g == g_star and a == 0.0):
        return DeResult(fixed_point_q=0.0, unresolved_fraction=0.0)
    below = np.flatnonzero(values <= g)
    if below.size:
        a = max(a, float(_GRID[below[-1]]))
    b = _EDGES[int(np.searchsorted(_GRID, a, side="right")) + 1]

    def newton(x: float):
        poly = slope = 0.0
        for k, w in terms:
            t = w * x ** (k - 1)  # P(x) = sum t x, P'(x) = sum k t
            poly += t * x
            slope += k * t
        r = -math.log1p(-x) - g * poly
        dr = 1.0 / (1.0 - x) - g * slope
        return r, r / dr if dr else math.inf, poly

    poly, p = _newton(newton, a, 0.5 * (a + b), b)
    return DeResult(
        fixed_point_q=poly / sum(w for _, w in terms),
        unresolved_fraction=sum(dist.probs[k + 1] * p ** (k + 1) for k, _ in terms),
    )


def threshold(dist: DegreeDistribution) -> float:
    """Load threshold g*: the supremum of loads whose recursion converges to
    zero, capped at 1.

    g* is the infimum over p in (0, 1) of f(p) = -ln(1 - p) / P(p), with
    P(p) = sum_l l lambda_l p^(l-1), the load at which p is a fixed point of
    the recursion. ``_minimum`` finds it.
    """
    return min(1.0, _minimum(_terms(dist))[0])


def _minimum(terms) -> tuple[float, float, np.ndarray]:
    """f's infimum over (0, 1), not capped; the p where f reaches it, 0.0
    for the p -> 0 limit; and f on the grid.

    The infimum is the smallest of these values: f's minimum over the grid,
    f at the stationary point that a safeguarded Newton solve finds between
    the grid argmin's neighbours, and the p -> 0 limit 1 / (2 lambda_2)
    when lambda_2 > 0, which is where the infimum sits for degree-2-heavy
    laws. So it is never above the grid minimum.

    The solve is skipped where it would only creep toward p = 0: the grid
    argmin is the first point, f there is at least the limit, and f rises
    from the limit. As p -> 0, f(p) = (1 + p/2 + p^2/3 + ...) /
    (2 lambda_2 + 3 lambda_3 p + 4 lambda_4 p^2 + ...), so f'(0+) has the
    sign of lambda_2 - 3 lambda_3, and when that is zero f''(0+) has the
    sign of lambda_2 - 6 lambda_4.

    The grid sums the nonzero terms only, w_k * GRID**k with w_k the
    coefficient of p^k in P, from powers that ``_grid_power`` memoizes.
    The stationarity condition is H(p) = P(p) + (1-p) ln(1-p) P'(p) = 0; H
    has the sign of f's slope, and H'(p) = ln(1-p) ((1-p) P''(p) - P'(p)).
    Near p = 0, H(p) = (lambda_2 - 3 lambda_3) p^2 + O(p^3), so Newton runs
    on H(p) / p: it has the same roots in (0, 1) and, unless lambda_2 =
    3 lambda_3, a simple one at 0, which Newton approaches quadratically
    where H's double root would only halve the distance per step. Newton
    starts from the grid argmin. It never evaluates f at p = 0 or p = 1,
    where the bracket may end.
    """
    (k, w), *rest = terms
    values = w * _grid_power(k)
    for k, w in rest:
        values += w * _grid_power(k)
    if values[0] > _FINITE_DENOMINATOR:  # P rises with p: no quotient overflows
        np.divide(_GRID_NUMERATOR, values, out=values)
    else:  # powers underflow: f is infinite there, which never wins
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(_GRID_NUMERATOR, values, out=values)
    i = int(values.argmin())
    k, w = terms[0]
    limit = 1.0 / w if k == 1 else math.inf  # 1 / (2 lambda_2)
    if i == 0 and values[0] >= limit:
        w_2, w_3 = (dict(terms).get(j, 0.0) for j in (2, 3))
        # lambda_2 > 3 lambda_3, or lambda_2 = 3 lambda_3 and lambda_2 > 6 lambda_4
        if w > 2.0 * w_2 or (w == 2.0 * w_2 and w > 3.0 * w_3):
            return limit, 0.0, values
    a, x, b = _EDGES[i : i + 3]
    log1p = math.log1p

    def stationary(x: float):
        """Newton on H(p) / p, reporting f: x -> (H(x), step, f(x))."""
        u = 1.0 - x
        ln_u = log1p(-x)
        u_ln_u = u * ln_u
        poly = h = dh = 0.0
        for k, w in terms:
            t = w * x ** (k - 1)  # P(x) = sum t x, P'(x) = sum k t
            poly += t * x
            h += t * (x + u_ln_u * k)
            dh += k * t * (u * (k - 1) - x)
        slope = ln_u * dh - h  # x H'(x) = ln_u dh; x^2 (H(p) / p)' at x
        return h, h * x / slope if slope else math.inf, -ln_u / poly

    best = min((float(values[i]), x), _newton(stationary, a, x, b), (limit, 0.0))
    return *best, values


def _newton(newton, a: float, x: float, b: float):
    """(report, x) at the x where a safeguarded Newton solve in the bracket
    [a, b] from x stops.

    ``newton(x)`` returns a value that is negative when the solution lies
    right of x, the Newton step, and a report on x for the caller. The
    bracket shrinks to x on that value's side, a step that would leave it
    bisects instead, and the solve stops once the step or the bracket is
    below a tolerance: NEWTON_TOL in p while 1 - a is at least 1/2049, the
    grid's first p, and NEWTON_TOL relative to 1 - a over 1/2049 closer to
    p = 1, but no less than the spacing of two floats just below 1, so that
    the bracket toward p = 1 closes and f is never evaluated at p = 1.
    """
    tol = max(NEWTON_TOL * min(1.0, (1.0 - a) * 2049), sys.float_info.epsilon)
    while True:
        value, step, report = newton(x)
        if value < 0.0:
            a = x
        else:
            b = x
        if abs(step) <= tol or b - a <= tol:
            return report, x
        x -= step
        if not a < x < b:
            x = 0.5 * (a + b)
