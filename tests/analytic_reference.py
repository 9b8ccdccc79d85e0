"""Term-by-term formulations of the analytic kernels, kept as test references.

Each function evaluates its formula the direct way: ``rho`` through
``multinomial_pmf`` and the class's beta formula on every call,
``plr_per_degree`` by scanning every class profile at every degree,
``induce`` with the binomial coefficients and powers recomputed per term,
``threshold`` with a generator sum of ``w * GRID**k`` on the grid and a
Newton closure for the refinement near the argmin and, when the bound
``-ln(1 - p) / P(1)`` past the grid is below that, around the tail argmin,
``average_plr`` over a generator of products, and ``to_distribution`` on
the raw weights as given, numpy scalars included. The package's kernels precompute and reuse what these
recompute and skip the adds of zero terms, with the same results in every
bit, and ``test_analytic_kernels.py`` holds them to bitwise equality.

``threshold_golden`` is the threshold's earlier formulation, an independent
oracle rather than a restatement: ``numpy.polynomial.polynomial.polyval``
over every coefficient on the grid, then golden-section search on f itself
between the grid argmin's neighbours down to ``REFINE_WIDTH``.
"""

from __future__ import annotations

import math

import numpy as np

from csa_floor.density_evolution import (
    _GRID,
    _GRID_NUMERATOR,
    _TAIL,
    _TAIL_NUMERATOR,
    GRID_POINTS,
    NEWTON_TOL,
    _check_min_degree,
    _horner,
)
from csa_floor.distributions import ChannelModel, DegreeDistribution
from csa_floor.frame_model import SlotCountTooSmall, multinomial_pmf
from csa_floor.predictor import FLAG_NOT_APPLICABLE, FLAG_OK, FLAG_OUT_OF_VALIDITY, VALIDITY_LIMIT
from csa_floor.stopping_sets import CATALOG, StoppingSetClass, TooFewUsers

# threshold_golden's bracket width in p and golden-section ratio
REFINE_WIDTH = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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

    def refine(a: float, x: float, b: float) -> float:
        """f where the safeguarded Newton solve in [a, b] from x stops."""
        while True:
            h, step = newton(x)
            if h < 0.0:
                a = x
            else:
                b = x
            if abs(step) <= NEWTON_TOL or b - a <= NEWTON_TOL:
                return f(x)
            x -= step
            if not a < x < b:
                x = 0.5 * (a + b)

    a = float(_GRID[i - 1]) if i > 0 else 0.0
    b = float(_GRID[i + 1]) if i + 1 < GRID_POINTS else 1.0
    x = float(_GRID[i])
    if 0 < i < GRID_POINTS - 1:
        left, mid, right = float(values[i - 1]), float(values[i]), float(values[i + 1])
        if left - 2.0 * mid + right > 0.0:
            x += 1.0 / (GRID_POINTS + 1) * 0.5 * (left - right) / (left - 2.0 * mid + right)
    g_star = min(float(values[i]), refine(a, x, b))
    if _GRID_NUMERATOR[-1] < g_star * sum(w for _, w in terms):
        with np.errstate(divide="ignore", over="ignore"):
            tail = _TAIL_NUMERATOR / sum(w * _TAIL**k for k, w in terms)
        j = int(np.argmin(tail))
        edges = [float(_GRID[-1]), *_TAIL.tolist(), 1.0]
        g_star = min(g_star, float(tail[j]), refine(edges[j], edges[j + 1], edges[j + 2]))
    if dist.probs[2] > 0.0:
        g_star = min(g_star, 0.5 / dist.probs[2])
    return min(1.0, g_star)


def threshold_golden(dist: DegreeDistribution) -> float:
    _check_min_degree(dist)
    weights = [l * lam for l, lam in enumerate(dist.probs)][1:]
    values = _GRID_NUMERATOR / np.polynomial.polynomial.polyval(_GRID, weights)
    i = int(np.argmin(values))

    def f(p: float) -> float:
        return -math.log1p(-p) / _horner(weights, p)

    a = float(_GRID[i - 1]) if i > 0 else 0.0
    b = float(_GRID[i + 1]) if i + 1 < GRID_POINTS else 1.0
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
