"""Term-by-term formulations of the analytic kernels, kept as test references.

Each function evaluates its formula the direct way: ``rho`` through
``multinomial_pmf`` and the class's beta formula on every call,
``plr_per_degree`` by scanning every class profile at every degree,
``induce`` with the binomial coefficients and powers recomputed per term,
``threshold`` with a generator sum of ``w * GRID**k`` on the grid, the
p -> 0 skip tested on the lambdas themselves, and a Newton closure, with the
package's stop rule, for the refinement between the grid argmin's
neighbours, ``average_plr`` over a generator of products,
and ``to_distribution`` on the raw weights as given, numpy scalars included. The package's kernels precompute and reuse what these
recompute and skip the adds of zero terms, with the same results in every
bit, and ``test_analytic_kernels.py`` holds them to bitwise equality.

``threshold_golden`` is the threshold's earlier formulation, an independent
oracle rather than a restatement: ``numpy.polynomial.polynomial.polyval``
over every coefficient on its own uniform grid, then golden-section search
on f itself between the grid argmin's neighbours down to ``REFINE_WIDTH``.
``de_recursion`` is the density-evolution recursion itself, iterated from
q = p = 1 until q moves less than a tolerance: the independent reference
for ``de_fixed_point``'s root of f(p) = g and for the threshold's split of
loads into those whose fixed point is zero and those stuck above it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from csa_floor.density_evolution import _GRID, _GRID_NUMERATOR, NEWTON_TOL, _check_min_degree
from csa_floor.distributions import ChannelModel, DegreeDistribution
from csa_floor.frame_model import SlotCountTooSmall
from csa_floor.predictor import FLAG_NOT_APPLICABLE, FLAG_OK, FLAG_OUT_OF_VALIDITY, VALIDITY_LIMIT
from csa_floor.stopping_sets import CATALOG, StoppingSetClass, TooFewUsers

# threshold_golden's grid of 2048 points spaced 1/2049 apart, its bracket
# width in p and golden-section ratio
GOLDEN_GRID = np.arange(1, 2049) / 2049
REFINE_WIDTH = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Recursion(NamedTuple):
    fixed_point_q: float
    unresolved_fraction: float
    converged: bool


def _horner(coeffs, p: float) -> float:
    """sum_k coeffs[k] p^k."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def de_recursion(
    dist: DegreeDistribution,
    g: float,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    trace: list | None = None,
) -> Recursion:
    """Iterate p <- 1 - exp(-g dbar q), q <- lambda_e(p) from q = p = 1 at
    load g until q moves less than tol, or max_iter times.

    ``trace``, when given, collects the q value of every iteration (the
    sequence is monotone non-increasing).
    """
    _check_min_degree(dist)
    dbar = math.fsum(l * lam for l, lam in enumerate(dist.probs))
    edge = [l * lam / dbar for l, lam in enumerate(dist.probs)][1:]  # coefficient of p^(l-1) at index l-1
    rate = g * dbar
    q = p = 1.0
    converged = False
    for _ in range(max_iter):
        p = 1.0 - math.exp(-rate * q)
        acc = _horner(edge, p)
        if trace is not None:
            trace.append(acc)
        converged = abs(acc - q) < tol
        q = acc
        if converged:
            break
    return Recursion(q, _horner(dist.probs, p), converged)


def multinomial_pmf(u, dist: DegreeDistribution, m: int) -> float:
    """Probability that m users drawn from dist have profile u.

    Returns 0 when the profile total differs from m or when it puts users on
    degrees beyond the distribution's range.
    """
    counts = [int(c) for c in u]
    if any(c < 0 for c in counts):
        raise ValueError(f"profile entries must be non-negative, got {u}")
    if sum(counts) != m:
        return 0.0
    if len(counts) > dist.q + 1 and any(c > 0 for c in counts[dist.q + 1 :]):
        return 0.0
    value = float(math.factorial(m))
    for l, c in enumerate(counts):
        if c == 0:
            continue
        value *= dist.probs[l] ** c / math.factorial(c)
    return value


def beta(sclass: StoppingSetClass, n: int) -> float:
    if n < 4:
        raise SlotCountTooSmall(f"catalog beta formulas need n >= 4, got {n}")
    return float(sclass.beta_fn(n))


def alpha(sclass: StoppingSetClass, m: int, induced: DegreeDistribution) -> float:
    s = sclass.size
    if m < s:
        raise TooFewUsers(f"class {sclass.id} needs {s} users, frame has {m}")
    if sclass.max_degree > induced.q:
        return 0.0
    prof = sclass.profile + (0,) * (induced.q + 1 - len(sclass.profile))
    return math.comb(m, s) * multinomial_pmf(prof, induced, s)


def rho(sclass: StoppingSetClass, m: int, n: int, induced: DegreeDistribution) -> float:
    if m < sclass.size:
        return 0.0
    return alpha(sclass, m, induced) * beta(sclass, n)


def plr_per_degree(m: int, n: int, induced_dist: DegreeDistribution):
    if m < 1:
        raise ValueError(f"need at least one user, got m = {m}")
    q = induced_dist.q
    rhos = [rho(sclass, m, n, induced_dist) for sclass in CATALOG]
    p = [0.0] * (q + 1)
    flags = [FLAG_OK] * (q + 1)
    p[0] = 1.0
    for l in range(1, q + 1):
        lam = induced_dist.probs[l]
        if lam == 0.0:
            flags[l] = FLAG_NOT_APPLICABLE
            continue
        expected_unresolved = 0.0
        for sclass, r in zip(CATALOG, rhos):
            if l < len(sclass.profile) and sclass.profile[l]:
                expected_unresolved += sclass.profile[l] * r
        raw = expected_unresolved / (m * lam)
        if raw > VALIDITY_LIMIT:
            flags[l] = FLAG_OUT_OF_VALIDITY
        p[l] = min(raw, 1.0)
    return tuple(p), tuple(flags)


def induce(dist: DegreeDistribution, channel: ChannelModel) -> DegreeDistribution:
    eps = channel.epsilon
    keep = 1.0 - eps
    q = dist.q
    out = []
    for l in range(q + 1):
        acc = 0.0
        for k in range(l, q + 1):
            if dist.probs[k] == 0.0:
                continue
            acc += math.comb(k, l) * eps ** (k - l) * keep**l * dist.probs[k]
        out.append(acc)
    return DegreeDistribution(tuple(out))


def average_plr(p, induced_dist: DegreeDistribution) -> float:
    return math.fsum(lam * pl for lam, pl in zip(induced_dist.probs, p))


def to_distribution(weights, support: tuple[int, ...]) -> DegreeDistribution:
    q = max(support)
    probs = [0.0] * (q + 1)
    total = math.fsum(weights)
    for deg, w in zip(support, weights):
        probs[deg] = w / total
    return DegreeDistribution(tuple(probs))


def threshold(dist: DegreeDistribution) -> float:
    _check_min_degree(dist)
    terms = [(l - 1, l * lam) for l, lam in enumerate(dist.probs) if lam > 0.0]
    with np.errstate(divide="ignore", over="ignore"):
        values = _GRID_NUMERATOR / sum(w * _GRID**k for k, w in terms)
    i = int(np.argmin(values))
    limit = 0.5 / dist.probs[2] if dist.probs[2] > 0.0 else math.inf
    lam2, lam3, lam4 = (dist.probs[l] if l <= dist.q else 0.0 for l in (2, 3, 4))
    rises = lam2 > 3.0 * lam3 or (lam2 == 3.0 * lam3 and lam2 > 6.0 * lam4)
    if i == 0 and values[0] >= limit and rises:
        return min(1.0, limit)

    def f(p: float) -> float:
        return -math.log1p(-p) / sum(w * p ** (k - 1) * p for k, w in terms)

    def newton(p: float) -> tuple[float, float]:
        """H(p) and the Newton step on H(p) / p."""
        u = 1.0 - p
        ln_u = math.log1p(-p)
        h = sum(w * p ** (k - 1) * (p + u * ln_u * k) for k, w in terms)
        dh = sum(k * (w * p ** (k - 1)) * (u * (k - 1) - p) for k, w in terms)
        slope = ln_u * dh - h
        return h, h * p / slope if slope else math.inf

    edges = [0.0, *_GRID.tolist(), 1.0]
    a, x, b = edges[i : i + 3]
    tol = max(NEWTON_TOL * min(1.0, (1.0 - a) * 2049), 2.0**-52)
    while True:
        h, step = newton(x)
        if h < 0.0:
            a = x
        else:
            b = x
        if abs(step) <= tol or b - a <= tol:
            break
        x -= step
        if not a < x < b:
            x = 0.5 * (a + b)
    return min(1.0, float(values[i]), f(x), limit)


def threshold_golden(dist: DegreeDistribution) -> float:
    _check_min_degree(dist)
    weights = [l * lam for l, lam in enumerate(dist.probs)][1:]
    values = -np.log1p(-GOLDEN_GRID) / np.polynomial.polynomial.polyval(GOLDEN_GRID, weights)
    i = int(np.argmin(values))

    def f(p: float) -> float:
        return -math.log1p(-p) / _horner(weights, p)

    a = float(GOLDEN_GRID[i - 1]) if i > 0 else 0.0
    b = float(GOLDEN_GRID[i + 1]) if i + 1 < GOLDEN_GRID.size else 1.0
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > REFINE_WIDTH:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    g_star = min(float(values[i]), fc, fd)
    if dist.probs[2] > 0.0:
        g_star = min(g_star, 0.5 / dist.probs[2])
    return min(1.0, g_star)
