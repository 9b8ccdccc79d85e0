"""Exact rational ground truth for stopping-set probabilities.

Everything here is exact rational arithmetic, so catalog formulas can be
checked by equality rather than tolerance. ``exact_beta`` counts the joint
slot assignments that realize a class topology in closed form, from the
topology's symmetries, so it answers at any frame length.
``exact_event_probabilities`` enumerates every joint assignment of a small
instance and decodes and labels each by the reference path:
``decoder.peel``, then ``stopping_sets.components`` and ``classify`` on the
residual. It exists for tests and manual exploration; the predictor never
calls it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from .decoder import peel
from .errors import CsaFloorError
from .frame_model import FrameGraph, UserRecord, check_hosting
from .stopping_sets import StoppingSetClass, classify, components

MAX_ENUMERATION = 10**8


class EnumerationTooLarge(CsaFloorError):
    """Joint assignment space exceeds MAX_ENUMERATION."""


def _assignment_space(degrees, n: int) -> int:
    return math.prod(math.comb(n, l) for l in degrees)


def exact_beta(sclass: StoppingSetClass, n: int) -> Fraction:
    """Exact probability that the class's users, each drawn uniformly among
    the slot sets of its degree in topology order, land on a relabelling of
    its topology.

    Two of the ``perm(n, k)`` maps of the ``k`` slot labels into the frame
    give the same multiset of slot sets exactly when they differ by one of
    the ``|Aut|`` label permutations that map the topology's users onto
    themselves. Each multiset is drawn in ``prod_d c_d! / prod_S mult_S!``
    user orders, where ``c_d`` counts the users of degree ``d`` and
    ``mult_S`` those on the slot-label set ``S``.
    """
    check_hosting(n, sclass.max_degree)
    users = Counter(sclass.topology)
    labels = sorted(frozenset().union(*users))
    automorphisms = sum(
        Counter(frozenset(relabel[l] for l in u) for u in sclass.topology) == users
        for relabel in (dict(zip(labels, p)) for p in permutations(labels))
    )
    degrees = [len(u) for u in sclass.topology]
    orders = math.prod(map(math.factorial, Counter(degrees).values()))
    repeats = math.prod(map(math.factorial, users.values()))
    return Fraction(
        math.perm(n, len(labels)) * orders,
        automorphisms * repeats * _assignment_space(degrees, n),
    )


@dataclass(frozen=True)
class ExactEventTally:
    """Exact outcome probabilities for one fixed user-degree multiset."""

    degrees: tuple[int, ...]
    n: int
    total: int
    unresolved: dict[int, Fraction]
    labels: dict[str, Fraction]


def exact_event_probabilities(degrees, n: int) -> ExactEventTally:
    """Peel every joint assignment of the given user degrees exhaustively.

    Returns the exact distribution of the unresolved-user count and, for each
    classifier label, the exact probability that at least one residual
    component carries it.
    """
    degrees = tuple(int(d) for d in degrees)
    if any(d < 0 for d in degrees):
        raise CsaFloorError(f"degrees must be non-negative, got {degrees}")
    check_hosting(n, max(degrees, default=0))
    total = _assignment_space(degrees, n)
    if total > MAX_ENUMERATION:
        raise EnumerationTooLarge(
            f"{total} joint assignments for degrees {degrees} at n = {n}"
            f" exceed the {MAX_ENUMERATION} cap"
        )

    unresolved_counts: dict[int, int] = {}
    label_counts: dict[str, int] = {}
    spaces = [tuple(combinations(range(n), l)) for l in degrees]
    for assignment in product(*spaces):
        graph = FrameGraph(
            n=n, users=tuple(UserRecord(len(s), frozenset(s)) for s in assignment)
        )
        residual = peel(graph).residual
        k = residual.m
        unresolved_counts[k] = unresolved_counts.get(k, 0) + 1
        for label in {classify(c) for c in components(residual)}:
            label_counts[label] = label_counts.get(label, 0) + 1

    return ExactEventTally(
        degrees=degrees,
        n=n,
        total=total,
        unresolved={k: Fraction(c, total) for k, c in sorted(unresolved_counts.items())},
        labels={lab: Fraction(c, total) for lab, c in sorted(label_counts.items())},
    )
