"""Asymptotic (n -> infinity) peeling analysis and load threshold.

With m = g*n users and n -> infinity, slot occupancies become Poisson with
mean g times the mean degree, and the decoder admits the standard two-message
fixed-point recursion: starting from q = p = 1,

    p <- 1 - exp(-g * dbar * q)        (slot fails to reveal the user)
    q <- lambda_e(p)                   (user unrevealed through other slots)

where lambda_e is the edge-perspective degree polynomial and dbar the mean
degree. The unresolved user fraction at the fixed point is
sum_l lambda_l p^l. The threshold g* is the largest load whose fixed point
leaves a vanishing unresolved fraction. A nonzero fixed point p exists at
load g exactly when g = -ln(1 - p) / (dbar * lambda_e(p)), so g* is the
infimum of that ratio over p in (0, 1). ``threshold`` computes it in that
closed form: the ratio on a fixed grid, then a Newton solve of its
stationarity condition between the grid argmin's neighbours, and the same
on a tail grid toward p = 1 when a lower bound of the ratio there allows a
lower value.
``de_fixed_point`` keeps the recursion for traces and the unresolved
fraction at a given load.

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

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
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
    converged: bool
    iterations: int


def _check_min_degree(dist: DegreeDistribution):
    if dist.probs[0] > 0.0 or dist.probs[1] > 0.0:
        raise DegreeOneUnsupported(
            "density evolution needs all mass on degrees >= 2; "
            f"got lambda_0 = {dist.probs[0]}, lambda_1 = {dist.probs[1]}"
        )


def _horner(coeffs, p: float) -> float:
    """sum_k coeffs[k] p^k."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def de_fixed_point(
    dist: DegreeDistribution,
    g: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    trace: list | None = None,
) -> DeResult:
    """Iterate the recursion at load g until q moves less than tol.

    ``trace``, when given, collects the q value of every iteration (the
    sequence is monotone non-increasing).
    """
    _check_min_degree(dist)
    if g <= 0.0:
        raise ValueError(f"load must be positive, got {g}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    edge = dist.edge_perspective()  # coefficient for p^(l-1) at index l-1
    dbar = dist.mean_degree()
    rate = g * dbar

    q = 1.0
    p = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p = 1.0 - math.exp(-rate * q)
        acc = 0.0
        for c in reversed(edge):
            acc = acc * p + c
        if trace is not None:
            trace.append(acc)
        if abs(acc - q) < tol:
            q = acc
            converged = True
            break
        q = acc
    return DeResult(
        fixed_point_q=q,
        unresolved_fraction=_horner(dist.probs, p),
        converged=converged,
        iterations=iterations,
    )


def threshold(dist: DegreeDistribution) -> float:
    """Load threshold g*: the supremum of loads whose recursion converges to
    zero, capped at 1.

    g* is the infimum over p in (0, 1) of f(p) = -ln(1 - p) / P(p), with
    P(p) = sum_l l lambda_l p^(l-1), the load at which p is a fixed point of
    the recursion. It is the smallest of these values: f's minimum over a
    fixed grid of GRID_POINTS interior points, f at the stationary point
    that a safeguarded Newton solve (``_newton_min``) finds between the grid
    argmin's neighbours, and the p -> 0 limit 1 / (2 lambda_2) when
    lambda_2 > 0, which is where the infimum sits for degree-2-heavy laws.
    Past the last grid point f >= -ln(1 - p) / P(1), p at that point; when
    this bound is below the value so far, as it can be for a law whose
    mean degree is in the hundreds, f's minimum on ``_TAIL``, where 1 - p
    halves 39 times, and Newton's around its argmin join them. So it is
    never above the grid minimum.

    The grid sums the nonzero terms only, w_k * GRID**k with w_k the
    coefficient of p^k in P, from powers that ``_grid_power`` memoizes.
    The stationarity condition is H(p) = P(p) + (1-p) ln(1-p) P'(p) = 0; H
    has the sign of f's slope, and H'(p) = ln(1-p) ((1-p) P''(p) - P'(p)).
    Near p = 0, H(p) = (lambda_2 - 3 lambda_3) p^2 + O(p^3), so Newton runs
    on H(p) / p: it has the same roots in (0, 1) and, unless lambda_2 =
    3 lambda_3, a simple one at 0, which Newton approaches quadratically
    where H's double root would only halve the distance per step. Newton
    starts from the vertex of the parabola through the three grid values
    around the argmin, stops once its step or the bracket is below
    NEWTON_TOL, keeps the bracket [a, b] by the sign of H and bisects
    whenever a step would leave it. It never evaluates f at p = 0 or
    p = 1, where the bracket may end.
    """
    _check_min_degree(dist)
    terms = [(l - 1, l * lam) for l, lam in enumerate(dist.probs) if lam]  # w_k p^k of P
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
    g_star = float(values[i])

    if 0 < i < GRID_POINTS - 1:
        a, x, b = _GRID[i - 1 : i + 2].tolist()
        left, right = float(values[i - 1]), float(values[i + 1])
        curvature = left - 2.0 * g_star + right
        if curvature > 0.0:  # start from the vertex of the parabola
            x += _GRID_STEP * 0.5 * (left - right) / curvature
    else:  # the bracket reaches p = 0 or p = 1, where f is not evaluated
        a = float(_GRID[i - 1]) if i else 0.0
        b = 1.0 if i else float(_GRID[1])
        x = float(_GRID[i])
    g_star = min(g_star, _newton_min(terms, a, x, b))
    if _GRID_NUMERATOR[-1] < g_star * sum(w for _, w in terms):
        # past the last grid point f >= -ln(1 - p) / P(1), which may undercut g_star
        with np.errstate(divide="ignore", over="ignore"):
            tail = _TAIL_NUMERATOR / sum(w * _TAIL**k for k, w in terms)
        j = int(tail.argmin())
        a, x, b = _TAIL_EDGES[j : j + 3]
        g_star = min(g_star, float(tail[j]), _newton_min(terms, a, x, b))
    if dist.probs[2] > 0.0:
        g_star = min(g_star, 0.5 / dist.probs[2])
    return min(1.0, g_star)


def _newton_min(terms, a: float, x: float, b: float) -> float:
    """f at the stationary point that a safeguarded Newton solve on H(p) / p
    finds in the bracket [a, b] from x, P being sum w p^k over ``terms``."""
    log1p = math.log1p
    while True:
        u = 1.0 - x
        ln_u = log1p(-x)
        u_ln_u = u * ln_u
        poly = h = dh = 0.0
        for k, w in terms:
            t = w * x ** (k - 1)  # P(x) = sum t x, P'(x) = sum k t
            poly += t * x
            h += t * (x + u_ln_u * k)
            dh += k * t * (u * (k - 1) - x)
        if h < 0.0:  # f falls at x: its minimum lies to the right
            a = x
        else:
            b = x
        slope = ln_u * dh - h  # x H'(x) = ln_u dh; x^2 (H(p) / p)' at x
        step = h * x / slope if slope else math.inf
        if abs(step) <= NEWTON_TOL or b - a <= NEWTON_TOL:
            break
        x -= step
        if not a < x < b:
            x = 0.5 * (a + b)
    return -ln_u / poly
