"""Analytic error-floor prediction from the stopping-set catalog.

The expected number of unresolved degree-l users is approximated by summing
v_l(S) * alpha(S) * beta(S) over the eight catalog classes (a union bound
restricted to the dominant structures); dividing by the expected number of
degree-l users gives the per-degree loss rate. Degree-0 users are lost by
definition, which lower-bounds the average loss rate by the induced
degree-0 mass.

The per-degree sums read the classes with degree-l members from a table
built once from the catalog profiles; they add the same terms in the same
catalog order as a scan of every profile, so every rate is bit-identical to
it, and the tests hold them to it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

from .decoder import DegreeKeying
from .distributions import ChannelModel, DegreeDistribution, induce
from .frame_model import check_hosting
from .stopping_sets import CATALOG, check_frame_length, rho

# Per-degree annotations attached to analytic reports.
FLAG_OK = ""
FLAG_NOT_APPLICABLE = "not_applicable"  # induced mass at this degree is zero
FLAG_OUT_OF_VALIDITY = "out_of_validity"  # union bound left its trust region

# Raw per-degree values above this are flagged: the catalog approximation is
# an error-floor tool for low to moderate loads, not a waterfall predictor.
VALIDITY_LIMIT = 0.5

# Entry l lists (catalog index, user count) of the classes with degree-l
# users, in catalog order.
_CLASS_COUNTS_BY_DEGREE = tuple(
    tuple((i, c.profile[l]) for i, c in enumerate(CATALOG) if l < len(c.profile) and c.profile[l])
    for l in range(max(c.max_degree for c in CATALOG) + 1)
)


@dataclass(frozen=True)
class PlrReport:
    """Per-degree and average packet loss rates with provenance."""

    per_degree: tuple[float, ...]
    user_perspective: tuple[float, ...]
    average: float
    m: int
    n: int
    epsilon: float
    distribution: tuple[float, ...]
    source: str = "analytic"
    flags: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        """The report's fields, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    def keyed(self, keying: DegreeKeying) -> tuple[float, ...]:
        """Per-degree rates as ``keying`` counts degrees: ``per_degree`` by
        received degree, ``user_perspective`` by transmitted degree."""
        return self.per_degree if keying is DegreeKeying.INDUCED else self.user_perspective


def plr_per_degree(
    m: int, n: int, induced_dist: DegreeDistribution
) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """Per-induced-degree loss rates p_l from the catalog union bound.

    p_0 is 1 by definition. For l >= 1 with positive induced mass, p_l is
    sum_S v_l(S) rho(S) / (m lambda_l), clamped into [0, 1] and flagged when
    the raw value exceeds VALIDITY_LIMIT. Degrees with zero induced mass
    report 0 with a not-applicable flag.
    """
    if m < 1:
        raise ValueError(f"need at least one user, got m = {m}")
    probs = induced_dist.probs
    rhos = [rho(sclass, m, n, induced_dist) for sclass in CATALOG]
    p = [0.0] * len(probs)
    flags = [FLAG_OK] * len(probs)
    p[0] = 1.0
    for l, lam in enumerate(probs[1:], 1):
        if lam == 0.0:
            flags[l] = FLAG_NOT_APPLICABLE
            continue
        if l >= len(_CLASS_COUNTS_BY_DEGREE):
            continue  # no class has degree-l users: p_l = 0 / (m lambda_l) = 0
        expected_unresolved = 0.0
        for i, count in _CLASS_COUNTS_BY_DEGREE[l]:
            expected_unresolved += count * rhos[i]
        raw = expected_unresolved / (m * lam)
        if raw > VALIDITY_LIMIT:
            flags[l] = FLAG_OUT_OF_VALIDITY
        p[l] = min(raw, 1.0)
    return tuple(p), tuple(flags)


def plr_user_perspective(
    p: tuple[float, ...], original: DegreeDistribution, channel: ChannelModel
) -> tuple[float, ...]:
    """Loss rate seen by a transmitting degree-l user.

    Mixes the induced-degree rates with the binomial erasure kernel: a
    degree-l transmission is received as degree k with probability
    C(l,k) eps^(l-k) (1-eps)^k. Degrees the original distribution never uses
    report 0.
    """
    eps = channel.epsilon
    keep = 1.0 - eps
    out = []
    for l in range(original.q + 1):
        if original.probs[l] == 0.0:
            out.append(0.0)
            continue
        acc = 0.0
        for k in range(0, l + 1):
            acc += p[k] * math.comb(l, k) * eps ** (l - k) * keep**k
        out.append(acc)
    return tuple(out)


def average_plr(p: tuple[float, ...], induced_dist: DegreeDistribution) -> float:
    """Average loss rate: induced-mass-weighted sum of per-degree rates."""
    return math.fsum(map(operator.mul, induced_dist.probs, p))


def floor_lower_bound(original: DegreeDistribution, channel: ChannelModel) -> float:
    """Erasure-only floor: probability that every copy of a user is lost."""
    return original.evaluate(channel.epsilon)


def analytic_report(
    m: int, n: int, original: DegreeDistribution, channel: ChannelModel
) -> PlrReport:
    """Full analytic prediction for one (m, n, distribution, channel) point."""
    check_frame_length(n)
    check_hosting(n, original.max_support_degree())
    induced_dist = induce(original, channel)
    p, flags = plr_per_degree(m, n, induced_dist)
    return PlrReport(
        per_degree=p,
        user_perspective=plr_user_perspective(p, original, channel),
        average=average_plr(p, induced_dist),
        m=m,
        n=n,
        epsilon=channel.epsilon,
        distribution=original.probs,
        source="analytic",
        flags=flags,
    )
