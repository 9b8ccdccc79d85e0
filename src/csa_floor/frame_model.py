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

from .distributions import ChannelModel, DegreeDistribution, DomainError
from .errors import CsaFloorError


class SlotCountTooSmall(CsaFloorError):
    """Frame too short: fewer slots than the largest degree needs, or than
    the catalog's beta formulas need (``stopping_sets.check_frame_length``)."""


def check_hosting(n: int, degree: int):
    """The hosting rule: a frame of n slots hosts users of degree at most n,
    who place their copies in distinct slots."""
    if n < degree:
        raise SlotCountTooSmall(f"n = {n} cannot host degree-{degree} users")


def round_half_up(x: float) -> int:
    """Nearest integer, halves up; a frame of n slots at load g has
    round_half_up(g * n) users."""
    return int(math.floor(x + 0.5))


def load_users(g: float, n: int) -> int:
    """The load rule: users at load g in frames of n slots,
    ``round_half_up(g * n)``; DomainError unless g is in (0, 2] and they
    are at least one."""
    if not 0.0 < g <= 2.0:
        raise DomainError(f"loads must be in (0, 2], got {g}")
    m = round_half_up(g * n)
    if m < 1:
        raise DomainError(f"load {g} at n = {n} rounds to zero users")
    return m


@dataclass(frozen=True)
class UserRecord:
    """One user: drawn degree plus the slots whose copies survived."""

    original_degree: int
    slots: frozenset[int]


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
        check_hosting(self.n, self.dist.max_support_degree())


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
