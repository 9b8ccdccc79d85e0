"""Degree-distribution search over a threshold-plus-floor objective.

The score of a candidate distribution combines the asymptotic decoding
threshold with the analytic error floor at a finite design point:

    J = w_threshold * g*  +  w_floor * min(-log10(pbar), FLOOR_LOG_CAP) / 10

Both terms live on a [0, 1]-ish scale: the threshold is a load in [0, 1] and
the floor term maps loss rates down to 10^-FLOOR_LOG_CAP onto [0, 1]. Floors
predicted below the cap (including the exact zeros the catalog produces for
distributions whose failures involve no degree-1..3 structure) earn no extra
credit: such values are below the catalog's resolution, not real guarantees.

The search is derivative-free on the probability simplex over the allowed
degrees: a fifth of the budget samples uniform Dirichlet restarts, the rest
refines the incumbent with Dirichlet perturbations whose concentration is
annealed upward. Identical seeds give identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import DegreeDistribution, induce
from .density_evolution import threshold
from .errors import CsaFloorError
from .harness import check_seed
from .predictor import average_plr, design_point, plr_per_degree

FLOOR_LOG_CAP = 5.0


@dataclass(frozen=True)
class ObjectiveSpec:
    """Search-space and scoring parameters for the distribution optimizer.

    Construction checks them and sets ``channel``, the design point's
    ``ChannelModel``, and ``m``, its users in a frame."""

    support: tuple[int, ...]
    w_threshold: float = 0.5
    w_floor: float = 0.5
    g_target: float = 0.5
    n: int = 200
    epsilon: float = 0.0

    def __post_init__(self):
        support = tuple(sorted(set(int(d) for d in self.support)))
        object.__setattr__(self, "support", support)
        if not support:
            raise CsaFloorError("support must be non-empty")
        if support[0] < 2:
            raise CsaFloorError(
                f"support degrees must be >= 2 (density evolution), got {support}"
            )
        for name in ("w_threshold", "w_floor"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # false for NaN too
                raise CsaFloorError(f"{name} must be finite and non-negative, got {value}")
        if self.w_threshold + self.w_floor <= 0.0:
            raise CsaFloorError("at least one weight must be positive")
        channel, (m,) = design_point(self.n, self.epsilon, (self.g_target,), support[-1])
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class OptimizeResult:
    best: DegreeDistribution
    best_score: float
    trace: tuple[tuple[tuple[float, ...], float], ...]


def _to_distribution(weights: Sequence[float], support: tuple[int, ...]) -> DegreeDistribution:
    """Normalise weights on the (sorted) support degrees into a law."""
    weights = np.asarray(weights, dtype=float).tolist()
    total = math.fsum(weights)
    probs = [0.0] * (support[-1] + 1)
    for deg, w in zip(support, weights):
        probs[deg] = w / total
    return DegreeDistribution(tuple(probs))


def objective(dist: DegreeDistribution, spec: ObjectiveSpec) -> float:
    """Score a candidate; higher is better."""
    for l, p in enumerate(dist.probs):
        if p > 0.0 and l not in spec.support:
            raise CsaFloorError(f"candidate puts mass on degree {l} outside support")
    g_star = threshold(dist)
    induced_dist = induce(dist, spec.channel)
    p, _ = plr_per_degree(spec.m, spec.n, induced_dist)
    pbar = average_plr(p, induced_dist)
    if pbar <= 0.0:
        floor_term = FLOOR_LOG_CAP
    else:
        floor_term = min(-math.log10(pbar), FLOOR_LOG_CAP)
    return spec.w_threshold * g_star + spec.w_floor * floor_term / 10.0


def optimize(
    spec: ObjectiveSpec, budget: int, rng: np.random.Generator | int
) -> OptimizeResult:
    """Best-scoring distribution on the support simplex within the budget.

    Twenty percent of the budget goes to uniform Dirichlet restarts (the
    first restart is the barycenter), the rest to annealed Dirichlet
    perturbations around the incumbent. Ties resolve to the lexicographically
    smaller probability vector, so the outcome does not depend on evaluation
    order. An int ``rng`` is a seed for ``np.random.default_rng`` and obeys
    the sweep's seed rule, ``harness.check_seed``.
    """
    if budget < 1:
        raise CsaFloorError(f"budget must be >= 1, got {budget}")
    if isinstance(rng, (int, np.integer)):
        check_seed(int(rng))
        rng = np.random.default_rng(int(rng))
    k = len(spec.support)

    if k == 1:
        dist = _to_distribution([1.0], spec.support)
        score = objective(dist, spec)
        return OptimizeResult(best=dist, best_score=score, trace=((dist.probs, score),))

    trace: list[tuple[tuple[float, ...], float]] = []
    best: DegreeDistribution | None = None
    best_score = -math.inf

    def consider(weights):
        nonlocal best, best_score
        dist = _to_distribution(weights, spec.support)
        score = objective(dist, spec)
        trace.append((dist.probs, score))
        if best is None or score > best_score or (
            score == best_score and dist.probs < best.probs
        ):
            best = dist
            best_score = score

    n_restarts = max(1, budget // 5)
    n_refine = budget - n_restarts

    consider(np.full(k, 1.0 / k))
    for _ in range(n_restarts - 1):
        consider(rng.dirichlet(np.ones(k)))

    conc_lo, conc_hi = 50.0, 5000.0
    for i in range(n_refine):
        frac = i / max(n_refine - 1, 1)
        conc = conc_lo * (conc_hi / conc_lo) ** frac
        probs = best.probs
        consider(rng.dirichlet([probs[d] * conc + 0.5 for d in spec.support]))

    return OptimizeResult(best=best, best_score=best_score, trace=tuple(trace))
