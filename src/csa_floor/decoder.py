"""Iterative interference-cancellation (peeling) decoder.

A slot holding exactly one surviving copy is a singleton: its user is decoded
and all of that user's copies are subtracted from the frame, possibly exposing
new singletons. Peeling repeats until no singleton remains. The fixed point is
schedule-independent, so the residual is the unique maximal stopping set of
the graph regardless of the order singletons are consumed in.
"""

from __future__ import annotations

from collections import deque
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
    """Run peeling to its fixed point.

    The default schedule consumes singletons in FIFO waves. Passing ``rng``
    instead resolves one uniformly random singleton at a time; the resolved
    set is identical either way (order independence), so the knob exists
    purely to let tests exercise that property.
    """
    slot_users: dict[int, set[int]] = {}
    for idx, user in enumerate(graph.users):
        for s in user.slots:
            slot_users.setdefault(s, set()).add(idx)

    resolved = [False] * len(graph.users)

    def resolve(user_idx: int):
        resolved[user_idx] = True
        for s in graph.users[user_idx].slots:
            occupants = slot_users[s]
            occupants.discard(user_idx)
            if not occupants:
                del slot_users[s]

    if rng is None:
        queue = deque(s for s, occ in slot_users.items() if len(occ) == 1)
        while queue:
            next_wave: deque[int] = deque()
            for s in queue:
                occ = slot_users.get(s)
                if occ is None or len(occ) != 1:
                    continue
                user_idx = next(iter(occ))
                touched = graph.users[user_idx].slots
                resolve(user_idx)
                for t in touched:
                    if t != s and len(slot_users.get(t, ())) == 1:
                        next_wave.append(t)
            queue = next_wave
    else:
        while True:
            singles = sorted(s for s, occ in slot_users.items() if len(occ) == 1)
            if not singles:
                break
            s = singles[int(rng.integers(len(singles)))]
            resolve(next(iter(slot_users[s])))

    residual_users = tuple(
        user for idx, user in enumerate(graph.users) if not resolved[idx]
    )
    return DecodeOutcome(
        resolved=tuple(resolved),
        residual=FrameGraph(n=graph.n, users=residual_users),
    )
