"""Iterative interference-cancellation (peeling) decoder.

A slot holding exactly one surviving copy is a singleton: its user is decoded
and all of that user's copies are subtracted from the frame, possibly exposing
new singletons. Peeling repeats until no singleton remains. The fixed point is
schedule-independent, so the residual is the unique maximal stopping set of
the graph regardless of the order singletons are consumed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .frame_model import FrameGraph


class DegreeKeying(Enum):
    INDUCED = "induced"
    ORIGINAL = "original"


@dataclass(frozen=True)
class DecodeOutcome:
    """Per-user resolution flags plus the untouched residual graph."""

    resolved: tuple[bool, ...]
    residual: FrameGraph


def peel(graph: FrameGraph, rng: np.random.Generator | None = None) -> DecodeOutcome:
    """Run peeling to its fixed point, in rounds.

    Each round takes the slots that are singletons when it starts, in slot
    order, and resolves the user of each one that an earlier resolution in
    the round has not emptied. Passing ``rng`` instead takes one singleton
    per round, ``singles[rng.integers(len(singles))]`` of the sorted list;
    the resolved set is identical either way (order independence), so the
    knob exists purely to let tests exercise that property.
    """
    slot_users: dict[int, set[int]] = {}
    for idx, user in enumerate(graph.users):
        for s in user.slots:
            slot_users.setdefault(s, set()).add(idx)

    resolved = [False] * len(graph.users)
    while singles := sorted(s for s, occ in slot_users.items() if len(occ) == 1):
        if rng is not None:
            singles = [singles[int(rng.integers(len(singles)))]]
        for s in singles:
            if s in slot_users:
                (user_idx,) = slot_users[s]
                resolved[user_idx] = True
                for t in graph.users[user_idx].slots:
                    occupants = slot_users[t]
                    occupants.discard(user_idx)
                    if not occupants:
                        del slot_users[t]

    residual_users = tuple(
        user for idx, user in enumerate(graph.users) if not resolved[idx]
    )
    return DecodeOutcome(
        resolved=tuple(resolved),
        residual=FrameGraph(n=graph.n, users=residual_users),
    )
