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
infimum of that ratio over p in (0, 1); ``threshold`` computes it in that
closed form, and ``de_fixed_point`` keeps the recursion for traces and the
unresolved fraction at a given load.

The recursion assumes every user has degree >= 2: with mass on degree 0 or 1
it stops describing the actual decoder (a degree-1 user occupies one slot
and has no "other slots"), so such distributions are rejected. In particular
any erasure-induced distribution with eps > 0 is rejected, reflecting that
the asymptotic threshold over an erasure channel is zero and the floor is
governed by the induced degree-0 mass instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DegreeDistribution

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
GRID_POINTS = 2048
REFINE_WIDTH = 1e-12
_GRID = np.arange(1, GRID_POINTS + 1) / (GRID_POINTS + 1)
_GRID_NUMERATOR = -np.log1p(-_GRID)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class DegreeOneUnsupported(ValueError):
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

    g* is the infimum over p in (0, 1) of -ln(1 - p) / sum_l l lambda_l p^(l-1),
    the load at which p is a fixed point of the recursion: the minimum over a
    fixed grid of GRID_POINTS interior points, refined by golden section
    between the grid argmin's neighbours, or the p -> 0 limit 1 / (2 lambda_2)
    when smaller, which is where the infimum sits for degree-2-heavy laws.

    The grid polynomial is evaluated by Horner's rule in place on one array,
    and the golden-section objective inline. Both Horner loops start from the
    top coefficient, multiply at every lower degree and add only the nonzero
    coefficients. A valid law has no negative coefficient, so adding a zero
    changes no partial sum except a -0.0 above the top nonzero one into
    +0.0, and that nonzero add absorbs either sign. Both therefore reproduce
    the formulation with ``numpy.polynomial.polynomial.polyval`` and a
    golden-section closure bit for bit, and the tests hold them to it.
    """
    _check_min_degree(dist)
    weights = [l * lam for l, lam in enumerate(dist.probs)][1:]  # coefficient of p^(l-1)
    top, *lower = weights[::-1]  # lower[-1] = lambda_1 = 0: its step only multiplies
    values = _GRID * top
    for w in lower[:-1]:
        if w:
            values += w
        values *= _GRID
    np.divide(_GRID_NUMERATOR, values, out=values)
    i = int(np.argmin(values))

    a = float(_GRID[i - 1]) if i > 0 else 0.0
    b = float(_GRID[i + 1]) if i + 1 < GRID_POINTS else 1.0
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc = -math.log1p(-c) / _horner(weights, c)
    fd = -math.log1p(-d) / _horner(weights, d)
    log1p = math.log1p
    while b - a > REFINE_WIDTH:
        left = fc < fd
        if left:
            b, d, fd = d, c, fc
            x = c = b - _INV_PHI * (b - a)
        else:
            a, c, fc = c, d, fd
            x = d = a + _INV_PHI * (b - a)
        acc = top
        for w in lower:
            acc = acc * x + w if w else acc * x
        if left:
            fc = -log1p(-x) / acc
        else:
            fd = -log1p(-x) / acc
    g_star = min(float(values[i]), fc, fd)
    if dist.probs[2] > 0.0:
        g_star = min(g_star, 0.5 / dist.probs[2])
    return min(1.0, g_star)
