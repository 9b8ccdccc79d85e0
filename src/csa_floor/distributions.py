"""Degree distributions for coded slotted ALOHA users.

A user encodes its message into l identical packet copies and places them in
distinct random slots of a contention frame; l is drawn from the degree
distribution held here as a probability vector ``probs[0..q]``. Over a packet
erasure channel each copy is lost independently with probability epsilon, so
the receiver observes a binomially thinned ("induced") distribution that in
general has mass on degrees 0 and 1 even when the transmit distribution does
not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import CsaFloorError

SIMPLEX_TOL = 1e-9
_IS_NON_NEGATIVE = (0.0).__le__  # x -> 0.0 <= x


class DistributionError(CsaFloorError):
    """Invalid degree-distribution input."""


class EmptyVector(DistributionError):
    """Probability vector missing or too short (need degrees 0..q, q >= 1)."""


class NegativeEntry(DistributionError):
    """Probability vector contains a negative entry."""


class SumNotOne(DistributionError):
    """Probability vector does not sum to 1 within SIMPLEX_TOL."""


class DomainError(CsaFloorError):
    """A number outside its domain: a polynomial argument or an erasure
    probability outside [0, 1], or a load outside (0, 2] or too small to
    put a user in the frame (``frame_model.load_users``)."""


@dataclass(frozen=True)
class ChannelModel:
    """Packet erasure channel: each copy lost independently w.p. epsilon."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise DomainError(f"erasure probability must be in [0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability vector over repetition degrees 0..q.

    Instances are validated on construction: entries non-negative numbers
    (NaN is refused), length at least 2 (q >= 1), and sum within SIMPLEX_TOL
    of 1. Inputs that fail are rejected rather than renormalized, so config
    typos surface immediately.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(map(float, self.probs))
        object.__setattr__(self, "probs", probs)
        if len(probs) < 2:
            raise EmptyVector(
                f"need probabilities for degrees 0..q with q >= 1, got length {len(probs)}"
            )
        if not all(map(_IS_NON_NEGATIVE, probs)):  # false for NaN too
            l, p = next((l, p) for l, p in enumerate(probs) if not 0.0 <= p)
            if p < 0.0:
                raise NegativeEntry(f"probs[{l}] = {p} is negative")
            raise DistributionError(f"probs[{l}] = {p} is not a number")
        total = math.fsum(probs)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise SumNotOne(f"probabilities sum to {total!r}, not 1")

    @property
    def q(self) -> int:
        """Maximum representable degree."""
        return len(self.probs) - 1

    def support(self) -> tuple[int, ...]:
        """Degrees with strictly positive probability."""
        return tuple(l for l, p in enumerate(self.probs) if p > 0.0)

    def max_support_degree(self) -> int:
        """Largest degree with positive probability (0 for a point mass at 0)."""
        sup = self.support()
        return sup[-1] if sup else 0

    def evaluate(self, x: float) -> float:
        """Generating polynomial sum_l probs[l] * x**l for x in [0, 1]."""
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"polynomial argument must be in [0, 1], got {x}")
        acc = 0.0
        for p in reversed(self.probs):
            acc = acc * x + p
        return acc


def validate(raw) -> DegreeDistribution:
    """Check a raw probability vector and wrap it; never renormalizes."""
    if raw is None or len(raw) == 0:
        raise EmptyVector("empty probability vector")
    return DegreeDistribution(tuple(float(p) for p in raw))


# from k = 1030 on, C(k, k // 2) exceeds the largest float
_FLOAT_COMB_DEGREES = 1030


@lru_cache(maxsize=64)
def _thinning_column(eps: float, k: int) -> tuple[float, ...]:
    """C(k,l) eps^(k-l) (1-eps)^l for l = 0..k.

    Below degree ``_FLOAT_COMB_DEGREES`` each term is that float product.
    From it on, where C(k, l) overflows a float, each term is the exp of its
    logarithm, by ``math.lgamma``; at eps = 0 or 1 the column puts all its
    mass on l = k or l = 0 exactly.
    """
    keep = 1.0 - eps
    if k < _FLOAT_COMB_DEGREES:
        return tuple(math.comb(k, l) * eps ** (k - l) * keep**l for l in range(k + 1))
    if not 0.0 < eps < 1.0:
        return tuple(float(l == (k if eps == 0.0 else 0)) for l in range(k + 1))
    log_eps, log_keep, log_k = math.log(eps), math.log1p(-eps), math.lgamma(k + 1)
    return tuple(
        math.exp(log_k - math.lgamma(l + 1) - math.lgamma(k - l + 1) + (k - l) * log_eps + l * log_keep)
        for l in range(k + 1)
    )


def induce(dist: DegreeDistribution, channel: ChannelModel) -> DegreeDistribution:
    """Distribution of surviving-copy counts after per-copy erasures.

    Entry l of the result is sum_{k=l..q} C(k,l) eps^(k-l) (1-eps)^l probs[k]:
    binomial thinning of each transmit degree. Same q as the input; entry 0
    equals the generating polynomial evaluated at eps.

    Only transmit degrees with mass are thinned: in order of k, each adds
    its thinning column, computed once per (eps, k), times probs[k] to
    entries 0..k. Every entry therefore sees the float operations of the
    term-by-term sum that skips zero-mass degrees, and the tests hold the
    two to bitwise equality.
    """
    probs = dist.probs
    out = [0.0] * len(probs)
    for k, p in enumerate(probs):
        if p:
            for l, coef in enumerate(_thinning_column(channel.epsilon, k)):
                out[l] += coef * p
    return DegreeDistribution(tuple(out))


def parse_distribution(text: str) -> DegreeDistribution:
    """Parse the ``degree:prob`` text format, e.g. ``2:0.25,3:0.6,8:0.15``.

    Unlisted degrees are zero. The result is validated, not renormalized.
    """
    entries: dict[int, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            deg_s, prob_s = item.split(":")
            deg = int(deg_s)
            prob = float(prob_s)
        except ValueError as exc:
            raise DistributionError(f"malformed degree:prob pair {item!r}") from exc
        if deg < 0:
            raise DistributionError(f"negative degree {deg}")
        if deg in entries:
            raise DistributionError(f"duplicate degree {deg}")
        entries[deg] = prob
    if not entries:
        raise EmptyVector(f"no degree:prob pairs in {text!r}")
    q = max(max(entries), 1)
    probs = [0.0] * (q + 1)
    for deg, prob in entries.items():
        probs[deg] = prob
    return validate(probs)


def format_distribution(dist: DegreeDistribution, digits: int = 12) -> str:
    """Inverse of parse_distribution: nonzero entries as degree:prob pairs."""
    parts = [f"{l}:{p:.{digits}g}" for l, p in enumerate(dist.probs) if p != 0.0]
    return ",".join(parts)
