"""Random contention frames as bipartite user/slot graphs.

One frame is n slots; each of m users draws a repetition degree, picks that
many distinct slots uniformly at random, and each placed copy then survives
the erasure channel independently. The surviving copies define a bipartite
graph between users and slots; all decoding and stopping-set analysis happens
on that graph.

``draw_frame`` is the reference definition of that draw as arrays, and
``sample_frame`` wraps its result in a ``FrameGraph``. The sweep's block
sampler (``harness._sample_chunk``) reads the same stream words in the same
order, so it produces the same frame, and tests hold it to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ChannelModel, DegreeDistribution


class SlotCountTooSmall(ValueError):
    """Frame has fewer slots than the largest drawable degree needs."""


def round_half_up(x: float) -> int:
    """Nearest integer, halves up; a frame of n slots at load g has
    round_half_up(g * n) users."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class UserRecord:
    """One user: drawn degree plus the slots whose copies survived."""

    original_degree: int
    slots: frozenset[int]

    @property
    def received_degree(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class FrameGraph:
    """Post-erasure bipartite graph of one contention frame."""

    n: int
    users: tuple[UserRecord, ...]

    @property
    def m(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class FrameConfig:
    m: int
    n: int
    dist: DegreeDistribution
    channel: ChannelModel = field(default_factory=lambda: ChannelModel(0.0))

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"user count must be non-negative, got {self.m}")
        if self.n < 1:
            raise ValueError(f"slot count must be positive, got {self.n}")
        need = self.dist.max_support_degree()
        if self.n < need:
            raise SlotCountTooSmall(
                f"n = {self.n} slots cannot host degree-{need} users"
            )


def draw_frame(rng: np.random.Generator, cdf: np.ndarray, n: int, m: int, eps: float):
    """Reference draw of one frame as arrays: (degrees, slots, survive).

    ``cdf`` is the cumulative degree distribution. One ``rng.random`` call
    supplies, in order, the m degree uniforms, an (m, q) block of slot
    uniforms and, when ``eps > 0``, an (m, q) block of erasure uniforms.
    Degrees come from ``searchsorted`` on the CDF. Row u of ``slots`` holds
    user u's slots in its first ``degrees[u]`` columns; a row with a
    repeated slot is redrawn whole from the same stream until it has none.
    ``survive`` marks the placed copies that the channel did not erase.

    The sweep's ``harness._sample_chunk`` computes this draw across blocks of
    frames; this per-frame form is the reference it is tested against.
    """
    q = cdf.size - 1
    x = rng.random(m * (1 + q) if eps == 0.0 else m * (1 + 2 * q))
    deg = np.searchsorted(cdf, x[:m], side="right").astype(np.int16)
    np.minimum(deg, q, out=deg)  # guard against cdf[-1] rounding just below 1
    valid = np.arange(q, dtype=np.int16) < deg[:, None]
    slots = (x[m : m + m * q].reshape(m, q) * n).astype(np.int32)
    pad = np.arange(n, n + q, dtype=np.int32)  # distinct out-of-range sentinels
    while True:
        padded = np.where(valid, slots, pad)
        padded.sort(axis=1)
        bad = (padded[:, 1:] == padded[:, :-1]).any(axis=1)
        nbad = int(bad.sum())
        if not nbad:
            break
        slots[bad] = (rng.random((nbad, q)) * n).astype(np.int32)
    if eps > 0.0:
        survive = valid & (x[m + m * q :].reshape(m, q) >= eps)
    else:
        survive = valid
    return deg, slots, survive


def sample_frame(config: FrameConfig, rng: np.random.Generator) -> FrameGraph:
    """Draw one random frame; deterministic given the generator state.

    The draw is ``draw_frame``: with ``rng = harness.frame_generator(seed,
    i, f)`` the graph is frame f of load point i of a sweep.
    """
    deg, slots, survive = draw_frame(
        rng, np.cumsum(config.dist.probs), config.n, config.m, config.channel.epsilon
    )
    users = tuple(
        UserRecord(original_degree=int(d), slots=frozenset(slots[u, survive[u]].tolist()))
        for u, d in enumerate(deg.tolist())
    )
    return FrameGraph(n=config.n, users=users)


def profile(graph: FrameGraph, q: int | None = None) -> tuple[int, ...]:
    """Graph profile: entry l counts users with l surviving copies."""
    degrees = [u.received_degree for u in graph.users]
    if q is None:
        q = max(degrees, default=0)
    counts = [0] * (q + 1)
    for d in degrees:
        counts[d] += 1
    return tuple(counts)


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


def dump_frame(graph: FrameGraph) -> str:
    """Debug text dump: header line, then one ``degree<TAB>slot,slot`` per user."""
    lines = [f"n={graph.n}"]
    for user in graph.users:
        slots = ",".join(str(s) for s in sorted(user.slots))
        lines.append(f"{user.original_degree}\t{slots}")
    return "\n".join(lines)
