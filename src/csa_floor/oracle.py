"""Exact brute-force ground truth for small stopping-set instances.

Everything here counts joint slot assignments in exact rational
arithmetic, so catalog formulas can be checked by equality rather than
tolerance. ``exact_beta`` enumerates the assignments that realize a class
topology, one per label-to-slot map. ``exact_event_probabilities``
enumerates every joint assignment and decodes and labels each by the
reference path: ``decoder.peel``, then ``stopping_sets.components`` and
``classify`` on the residual. It exists for tests and manual exploration;
the predictor never calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from .decoder import peel
from .errors import CsaFloorError
from .frame_model import FrameGraph, SlotCountTooSmall, UserRecord
from .stopping_sets import CATALOG_BY_ID, StoppingSetClass, classify, components

MAX_ENUMERATION = 10**8


class EnumerationTooLarge(CsaFloorError):
    """Joint assignment space exceeds MAX_ENUMERATION."""


def _assignment_space(degrees: tuple[int, ...], n: int) -> int:
    size = 1
    for l in degrees:
        size *= math.comb(n, l)
    return size


def _check_size(size: int, what: str):
    if size > MAX_ENUMERATION:
        raise EnumerationTooLarge(f"{size} {what} exceed the {MAX_ENUMERATION} cap")


def _matching_assignments(sclass: StoppingSetClass, n: int) -> frozenset:
    """Every ordered joint assignment realizing the class topology.

    Assignments are tuples of per-user sorted slot tuples, users in topology
    order, from every injective label-to-slot map. For the catalog classes
    S1-S8 that also covers every permutation among equal-degree users,
    because each such permutation is a relabelling of the topology. It is
    not so for topologies in general: in the degree-2 4-cycle, swapping two
    adjacent users is no relabelling, and those assignments are missed.
    """
    labels = sorted({l for u in sclass.topology for l in u})
    _check_size(math.perm(n, len(labels)), f"label maps for class {sclass.id} at n = {n}")
    out = set()
    for slots in permutations(range(n), len(labels)):
        relabel = dict(zip(labels, slots))
        out.add(
            tuple(tuple(sorted(relabel[l] for l in u)) for u in sclass.topology)
        )
    return frozenset(out)


@lru_cache(maxsize=None)
def _exact_beta(class_id: str, n: int) -> Fraction:
    sclass = CATALOG_BY_ID[class_id]
    degrees = tuple(len(u) for u in sclass.topology)
    return Fraction(len(_matching_assignments(sclass, n)), _assignment_space(degrees, n))


def exact_beta(sclass: StoppingSetClass, n: int) -> Fraction:
    """Exact probability that the class's users land exactly on its topology:
    the assignments that realize it over all assignments of its degrees."""
    if n < sclass.max_degree:
        raise SlotCountTooSmall(f"class {sclass.id} needs n >= {sclass.max_degree}, got {n}")
    return _exact_beta(sclass.id, n)


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
    if any(d > n for d in degrees):
        raise CsaFloorError(f"degree larger than slot count {n}: {degrees}")
    total = _assignment_space(degrees, n)
    _check_size(total, f"joint assignments for degrees {degrees} at n = {n}")

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
