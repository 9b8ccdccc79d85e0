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
f(p) = g. Both sample f on a fixed grid, and on a tail grid toward p = 1
when a lower bound of f there allows it, and close the answer with the same
safeguarded Newton solve between samples.

The recursion assumes every user has degree >= 2: with mass on degree 0 or 1
it stops describing the actual decoder (a degree-1 user occupies one slot
and has no "other slots"), so such distributions are rejected. In particular
any erasure-induced distribution with eps > 0 is rejected, reflecting that
the asymptotic threshold over an erasure channel is zero and the floor is
governed by the induced degree-0 mass instead.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import DegreeDistribution
from .errors import CsaFloorError

GRID_POINTS = 2048
NEWTON_TOL = 1e-12
_GRID_STEP = 1.0 / (GRID_POINTS + 1)
_GRID = np.arange(1, GRID_POINTS + 1) / (GRID_POINTS + 1)
_GRID_NUMERATOR = -np.log1p(-_GRID)
# grid denominators above this leave every quotient finite
_FINITE_DENOMINATOR = float(_GRID_NUMERATOR[-1]) / sys.float_info.max
# past the grid: 1 - p halving from the last grid point's down to 9e-16
_TAIL = 1.0 - (1.0 - _GRID[-1]) * 0.5 ** np.arange(1, 40)
_TAIL_EDGES = np.concatenate((_GRID[-1:], _TAIL, [1.0])).tolist()
_TAIL_NUMERATOR = -np.log1p(-_TAIL)


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
    is below 1).

    The root lies right of the last sample of f at or below g, on the grid
    or, when f may reach g past it, on the tail grid, and right of f's
    minimizer, which catches a basin narrower than the grid around it; with
    neither, it lies in (0, GRID[0]), where f falls to 1 / (2 lambda_2).
    The next sample point, or p = 1, closes the bracket. A basin narrower
    than the grid that is not f's minimum's is not seen. A safeguarded
    Newton solve of R(p) = -ln(1 - p) - g P(p) = 0 closes in on the root:
    R <= 0 at the bracket's left end and R > 0 at its right end.
    """
    terms = _terms(dist)
    if g <= 0.0:
        raise ValueError(f"load must be positive, got {g}")
    g_star, a, values = _minimum(terms)
    if g < g_star:
        return DeResult(fixed_point_q=0.0, unresolved_fraction=0.0)
    below = np.flatnonzero(values <= g)
    if below.size:
        a = max(a, float(_GRID[below[-1]]))
    dbar = sum(w for _, w in terms)
    if _GRID_NUMERATOR[-1] < g * dbar:  # past the grid f >= -ln(1 - p) / dbar
        below = np.flatnonzero(_tail_ratio(terms) <= g)
        if below.size:
            a = max(a, float(_TAIL[below[-1]]))
    if a < _TAIL_EDGES[0]:
        b = float(_GRID[np.searchsorted(_GRID, a, side="right")])
    else:
        b = _TAIL_EDGES[bisect.bisect_right(_TAIL_EDGES, a)]

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
        fixed_point_q=poly / dbar,
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

    The infimum is the smallest of these values: f's minimum over a fixed
    grid of GRID_POINTS interior points, f at the stationary point that a
    safeguarded Newton solve finds between the grid argmin's neighbours, and
    the p -> 0 limit 1 / (2 lambda_2) when lambda_2 > 0, which is where the
    infimum sits for degree-2-heavy laws. Past the last grid point
    f >= -ln(1 - p) / P(1), p at that point; when this bound is below the
    value so far, as it can be for a law whose mean degree is in the
    hundreds, f's minimum on ``_TAIL``, where 1 - p halves 39 times, and
    Newton's around its argmin join them. So it is never above the grid
    minimum.

    The grid sums the nonzero terms only, w_k * GRID**k with w_k the
    coefficient of p^k in P, from powers that ``_grid_power`` memoizes.
    The stationarity condition is H(p) = P(p) + (1-p) ln(1-p) P'(p) = 0; H
    has the sign of f's slope, and H'(p) = ln(1-p) ((1-p) P''(p) - P'(p)).
    Near p = 0, H(p) = (lambda_2 - 3 lambda_3) p^2 + O(p^3), so Newton runs
    on H(p) / p: it has the same roots in (0, 1) and, unless lambda_2 =
    3 lambda_3, a simple one at 0, which Newton approaches quadratically
    where H's double root would only halve the distance per step. Newton
    starts from the vertex of the parabola through the three grid values
    around the argmin. It never evaluates f at p = 0 or p = 1, where the
    bracket may end.
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
    best = (float(values[i]), float(_GRID[i]))

    if 0 < i < GRID_POINTS - 1:
        a, x, b = _GRID[i - 1 : i + 2].tolist()
        left, right = float(values[i - 1]), float(values[i + 1])
        curvature = left - 2.0 * best[0] + right
        if curvature > 0.0:  # start from the vertex of the parabola
            x += _GRID_STEP * 0.5 * (left - right) / curvature
    else:  # the bracket reaches p = 0 or p = 1, where f is not evaluated
        a = float(_GRID[i - 1]) if i else 0.0
        b = 1.0 if i else float(_GRID[1])
        x = float(_GRID[i])
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

    best = min(best, _newton(stationary, a, x, b))
    if _GRID_NUMERATOR[-1] < best[0] * sum(w for _, w in terms):
        # past the last grid point f >= -ln(1 - p) / P(1), which may undercut the minimum
        tail = _tail_ratio(terms)
        j = int(tail.argmin())
        a, x, b = _TAIL_EDGES[j : j + 3]
        best = min(best, (float(tail[j]), x), _newton(stationary, a, x, b))
    k, w = terms[0]
    if k == 1:  # lambda_2 > 0
        best = min(best, (1.0 / w, 0.0))
    return *best, values


def _tail_ratio(terms) -> np.ndarray:
    """f on the tail grid ``_TAIL``."""
    with np.errstate(divide="ignore", over="ignore"):
        return _TAIL_NUMERATOR / sum(w * _TAIL**k for k, w in terms)


def _newton(newton, a: float, x: float, b: float):
    """(report, x) at the x where a safeguarded Newton solve in the bracket
    [a, b] from x stops.

    ``newton(x)`` returns a value that is negative when the solution lies
    right of x, the Newton step, and a report on x for the caller. The
    bracket shrinks to x on that value's side, a step that would leave it
    bisects instead, and the solve stops once the step or the bracket is
    below a tolerance: NEWTON_TOL in p for a bracket that starts on the
    grid, and past the last grid point NEWTON_TOL scaled by 1 - a over the
    last grid point's 1 - p, but no less than the spacing of two floats
    just below 1, so that the bracket toward p = 1 closes and f is never
    evaluated at p = 1.
    """
    tol = NEWTON_TOL
    if a > _TAIL_EDGES[0]:  # relative to 1 - p past the grid
        tol = max(tol * (1.0 - a) / (1.0 - _TAIL_EDGES[0]), sys.float_info.epsilon)
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
