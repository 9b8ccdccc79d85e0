"""Catalog of dominant stopping sets and residual-graph classification.

A non-empty set of users (all with at least one surviving copy) is a stopping
set when every slot it occupies holds at least two of its copies; the peeling
decoder can never resolve any member. The eight catalog entries below are the
small structures that dominate the error floor for distributions that are
heavy on degrees 2 and 3. Each entry carries its abstract topology (users as
sets of slot labels) and the closed-form placement probability ``beta(n)``;
its profile (user counts by degree) is read off the topology.

``rho`` is evaluated once per class per analytic report or optimizer step,
so each class precomputes its size, ``float(s!)`` and its ``(degree, count,
count!)`` terms, and caches ``beta`` per frame length. From these ``alpha``
and ``rho`` reproduce, bit for bit, the term-by-term ``C(m, s) *
multinomial(profile) * beta`` of ``tests/analytic_reference``, and the tests
hold them to it.

A stopping set's signature is its profile and the number of distinct slots
it occupies. Among stopping sets, the signature alone fixes the catalog
class: no other stopping set shares the signature of S1-S8 (the tests check
every assignment of up to four users at n = 5). So ``classify`` labels a
stopping set by looking its signature up in ``CATALOG_BY_SIGNATURE``, a
lone user with no surviving copy "Degree0", and anything else "Other". The
sweep applies the same rule to residual components, which are stopping sets
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .distributions import DegreeDistribution
from .errors import CsaFloorError
from .frame_model import FrameGraph, SlotCountTooSmall

DEGREE0_LABEL = "Degree0"
OTHER_LABEL = "Other"
# frames shorter than the four slots of S7, the widest class, get no beta
MIN_FRAME_LENGTH = 4


class TooFewUsers(CsaFloorError):
    """Graph has fewer users than the stopping-set class needs."""


def signature(slot_sets: Sequence[frozenset]) -> tuple[tuple[int, ...], int]:
    """User counts by degree and distinct slots of users given as slot sets."""
    degrees = [len(ss) for ss in slot_sets]
    profile = tuple(degrees.count(l) for l in range(max(degrees) + 1))
    return profile, len(frozenset().union(*slot_sets))


@dataclass(frozen=True)
class StoppingSetClass:
    """One catalog entry: id, abstract topology, beta formula."""

    id: str
    topology: tuple[frozenset[str], ...]
    beta_fn: Callable[[Fraction], Fraction]

    @cached_property
    def profile(self) -> tuple[int, ...]:
        """User counts by degree, read off the topology."""
        return self.signature[0]

    @cached_property
    def signature(self) -> tuple[tuple[int, ...], int]:
        """(profile, distinct slots), which no other stopping set shares."""
        return signature(self.topology)

    @cached_property
    def size(self) -> int:
        """Number of users in the structure."""
        return sum(self.profile)

    @cached_property
    def max_degree(self) -> int:
        return len(self.profile) - 1

    @cached_property
    def _size_factorial(self) -> float:
        return float(math.factorial(self.size))

    @cached_property
    def _pmf_terms(self) -> tuple[tuple[int, int, float], ...]:
        """(degree, user count, float(count!)) of each degree the class uses."""
        return tuple((l, c, float(math.factorial(c))) for l, c in enumerate(self.profile) if c)

    @cached_property
    def _beta_by_n(self) -> dict[int, float]:
        """beta(self, n) of every n asked for so far."""
        return {}


def _users(*slot_groups: str) -> tuple[frozenset[str], ...]:
    return tuple(frozenset(group) for group in slot_groups)


CATALOG: tuple[StoppingSetClass, ...] = (
    # Two degree-1 users colliding in one slot.
    StoppingSetClass("S1", _users("a", "a"), lambda n: 1 / n),
    # Degree-2 user covered by a degree-1 user in each of its slots.
    StoppingSetClass("S2", _users("ab", "a", "b"), lambda n: 2 / n**2),
    # Degree-3 user covered by three degree-1 users.
    StoppingSetClass("S3", _users("abc", "a", "b", "c"), lambda n: 6 / n**3),
    # Degree-3 user, degree-2 user on two of its slots, degree-1 on the third.
    StoppingSetClass("S4", _users("abc", "ab", "c"), lambda n: 6 / ((n - 1) * n**2)),
    # Two degree-2 users on the same slot pair (shortest cycle).
    StoppingSetClass("S5", _users("ab", "ab"), lambda n: 2 / ((n - 1) * n)),
    # Three degree-2 users forming a triangle.
    StoppingSetClass(
        "S6",
        _users("ab", "bc", "ac"),
        lambda n: 4 * (n - 3) / ((n - 2) * n**3),
    ),
    # Two degree-3 users sharing two slots, closed by a degree-2 user.
    StoppingSetClass(
        "S7",
        _users("acd", "bcd", "ab"),
        lambda n: 36 * (n - 3) / ((n - 2) * (n - 1) * n**3),
    ),
    # Two degree-3 users on the same slot triple.
    StoppingSetClass(
        "S8",
        _users("abc", "abc"),
        lambda n: 6 / ((n - 2) * (n - 1) * n),
    ),
)

CATALOG_BY_ID: dict[str, StoppingSetClass] = {c.id: c for c in CATALOG}
CATALOG_BY_SIGNATURE: dict[tuple, StoppingSetClass] = {c.signature: c for c in CATALOG}


def beta(sclass: StoppingSetClass, n: int) -> float:
    """Placement probability of the class in a frame with n slots.

    ``beta_exact`` rounded to the nearest float once per (class, n) and
    then read back; each formula is one int/int division, so this is the
    float it gives on an int n.
    """
    value = sclass._beta_by_n.get(n)
    if value is None:
        value = sclass._beta_by_n[n] = float(beta_exact(sclass, n))
    return value


def check_frame_length(n: int):
    """The frame-length rule: the catalog's beta formulas, and so every
    analytic rate, need frames of at least MIN_FRAME_LENGTH slots."""
    if n < MIN_FRAME_LENGTH:
        raise SlotCountTooSmall(f"catalog beta formulas need n >= {MIN_FRAME_LENGTH}, got {n}")


def beta_exact(sclass: StoppingSetClass, n: int) -> Fraction:
    """Same formula as beta() evaluated in exact rational arithmetic."""
    check_frame_length(n)
    return sclass.beta_fn(Fraction(n))


def alpha(sclass: StoppingSetClass, m: int, induced: DegreeDistribution) -> float:
    """Expected number of ways to pick the class's user multiset from a frame.

    Equals C(m, s) times the multinomial probability that s users drawn from
    the induced distribution realize the class profile, where s is the class
    size. The probability is s! * prod_l lambda_l^c_l / c_l! over the class's
    per-degree counts c_l, multiplied in degree order as the reference
    ``alpha`` in ``tests/analytic_reference`` does, without its per-call
    validation.
    """
    s = sclass.size
    if m < s:
        raise TooFewUsers(f"class {sclass.id} needs {s} users, frame has {m}")
    probs = induced.probs
    if sclass.max_degree >= len(probs):
        return 0.0
    pmf = sclass._size_factorial
    for l, c, c_factorial in sclass._pmf_terms:
        pmf *= probs[l] ** c / c_factorial
    return math.comb(m, s) * pmf


def rho(sclass: StoppingSetClass, m: int, n: int, induced: DegreeDistribution) -> float:
    """Expected occurrence count alpha * beta; 0 when m is too small."""
    if m < sclass.size:
        return 0.0
    return alpha(sclass, m, induced) * beta(sclass, n)


def is_stopping_set(fragment: FrameGraph) -> bool:
    """True iff non-empty, no degree-0 users, and every occupied slot has >= 2 copies."""
    if not fragment.users:
        return False
    occupancy: dict[int, int] = {}
    for user in fragment.users:
        if not user.slots:
            return False
        for s in user.slots:
            occupancy[s] = occupancy.get(s, 0) + 1
    return all(count >= 2 for count in occupancy.values())


def components(residual: FrameGraph) -> tuple[FrameGraph, ...]:
    """Connected components of the user/slot incidence graph.

    Users sharing a slot land in one component; users with no surviving
    copies come back as isolated single-user fragments.
    """
    slot_users: dict[int, list[int]] = {}
    for idx, user in enumerate(residual.users):
        for s in user.slots:
            slot_users.setdefault(s, []).append(idx)

    seen = [False] * len(residual.users)
    out = []
    for start in range(len(residual.users)):
        if seen[start]:
            continue
        seen[start] = True
        member_idx = [start]
        stack = [start]
        while stack:
            idx = stack.pop()
            for s in residual.users[idx].slots:
                for other in slot_users[s]:
                    if not seen[other]:
                        seen[other] = True
                        member_idx.append(other)
                        stack.append(other)
        members = tuple(residual.users[i] for i in sorted(member_idx))
        out.append(FrameGraph(n=residual.n, users=members))
    return tuple(out)


def classify(fragment: FrameGraph) -> str:
    """Catalog id of a stopping set with a catalog signature, Degree0 for a
    lone user with no surviving copy, or Other."""
    slot_sets = [user.slots for user in fragment.users]
    if len(slot_sets) == 1 and not slot_sets[0]:
        return DEGREE0_LABEL
    if not is_stopping_set(fragment):
        return OTHER_LABEL
    sclass = CATALOG_BY_SIGNATURE.get(signature(slot_sets))
    return sclass.id if sclass else OTHER_LABEL
