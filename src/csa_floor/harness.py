"""Monte Carlo sweep runner: sampling, decoding, statistics, file outputs.

Every frame owns an independent counter-based random stream derived from
(seed, sweep-point index, frame index), so results are bitwise reproducible
for any worker count: workers only change how deterministic per-frame
contributions are batched, and all accumulation is integer arithmetic.

Frames are processed in fixed-size chunks, which the sample, peel and
classify kernels walk in the same blocks of frames: as many as fit
``SAMPLE_WORDS`` words, a frame counting as the wider of its sampler row and
its n slots (``_block_frames``). Sampling repositions the Philox counter
once per frame and pulls that frame's uniforms in one call;
degrees, slots, duplicate-slot redraws and erasures are then computed
across the block, reading each frame's words in the order
``frame_model.draw_frame`` does, and the rare frame whose redraws outrun its
buffer row is drawn by ``draw_frame`` itself. The sampler reaches the
same frames by other arithmetic: a degree is a sum of compares against the
distinct CDF values, and a repeated slot is found by comparing the slot
columns pairwise on a column-major copy. A chunk's graph is one
frame-local slot per edge, in (frame, user, column) order, stored in the
narrowest dtype that holds n - 1 (``np.min_scalar_type(n - 1)``: a byte up
to n = 256), which each block writes straight into the chunk's one code
array; each edge's frame and user follow from the received degrees. So a
chunk's memory is its slots, its int16 degree arrays (one when nothing is
erased) and the working set of one block, bounded at any n.

A stopping set never leaves its frame, so decoding is block-local: each
block is peeled and labelled on state sized to the block, indexed by the
intp block-local code ``(frame - block_lo) * n + slot`` of each edge in its
slice of the slots, which the block's received degrees delimit; the cast
to intp adds each frame's offset over its edges, so no arithmetic runs in
the slots' own dtype. One packed int64 per slot holds its occupancy in the
high bits and the sum of its users' block-local ids in the low 32, which
name the user of any singleton slot. Each peeling wave resolves the users
of the current singleton slots and updates the packed counters of their
edges in one scatter, in time proportional to the edges it removes. Residual components are labelled by min-label propagation
over the block's residual user/slot edges, in numpy. Peeling leaves no
singleton slot, so each residual component is a stopping set, and one small
enough for the catalog takes the class of its signature
(``stopping_sets.signature``), computed for all of them at once in numpy.
A chunk returns one int64 record, its users and unresolved users per keyed
degree and its residual components per ``HISTOGRAM_KEYS`` class, and the
driver sums each load point's records into one row of counts.

Each chunk stage has a reference path that tests compare it against on the
same frames: ``sample_frame(cfg, frame_generator(seed, i, f))`` for
sampling, ``decoder.peel`` for peeling, and ``stopping_sets.components``
plus ``classify`` for classification.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .decoder import DegreeKeying
from .distributions import DegreeDistribution
from .errors import CsaFloorError
from .frame_model import draw_frame
from .predictor import analytic_report, design_point, fields_dict
from .stopping_sets import CATALOG, DEGREE0_LABEL, OTHER_LABEL

CHUNK_FRAMES = 4096
# words per block of every chunk kernel (2 MB of float64 uniforms): a block
# holds SAMPLE_WORDS // max(row width, n) frames, so neither the sampler's
# buffers nor the peel's and the labeller's slot state grow with n
SAMPLE_WORDS = 2**18
# SweepPlan rejects plans whose largest degree needs more redraws per row
MAX_ROW_REDRAWS = 64
CSV_HEADER = "g,m,n,frames,degree,plr_sim,ci95,plr_analytic,keying"
HISTOGRAM_KEYS = tuple(c.id for c in CATALOG) + (DEGREE0_LABEL, OTHER_LABEL)
_DEGREE0, _OTHER = HISTOGRAM_KEYS.index(DEGREE0_LABEL), HISTOGRAM_KEYS.index(OTHER_LABEL)
# residual components with more users than this can only be "Other"
_MAX_CLASS_SIZE = max(c.size for c in CATALOG)
# a small component's signature as one int: base-(_MAX_CLASS_SIZE + 1) digit
# l - 1 counts its users of degree l, degrees past the catalog's sharing the
# last digit, and its distinct slots count in units of _SLOT_KEY above them;
# no digit carries, as the component has at most _MAX_CLASS_SIZE users
_MAX_DEGREE = max(c.max_degree for c in CATALOG)
_DEGREE_KEY = np.array([0] + [(_MAX_CLASS_SIZE + 1) ** l for l in range(_MAX_DEGREE + 1)])
_SLOT_KEY = (_MAX_CLASS_SIZE + 1) ** (_MAX_DEGREE + 1)
_CLASS_BY_KEY = {
    sum(int(_DEGREE_KEY[len(u)]) for u in c.topology) + _SLOT_KEY * c.signature[1]: i
    for i, c in enumerate(CATALOG)
}

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# _peel_chunk's packed slot state: what one edge adds, and the index-sum bits
_EDGE = np.int64(1 << 32)
_LOW = np.int64((1 << 32) - 1)


class PlanError(CsaFloorError):
    """Invalid sweep plan or seed."""


def check_seed(seed: int):
    """The seed rule: a seed lies in [0, 2**64), the 64 bits a Philox key
    gives it (``_philox_key``); others are refused rather than folded onto
    another seed's streams."""
    if not 0 <= seed < 2**64:
        raise PlanError(f"seed must be in [0, 2**64), got {seed}")


def confidence_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% interval: (point estimate, symmetric half-width).

    The estimate is the raw proportion; the half-width is half the Wilson
    interval's span, which stays positive at 0 or trials successes.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    z2 = _Z95 * _Z95
    phat = successes / trials
    denom = 1.0 + z2 / trials
    half = (
        _Z95
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    return phat, half


@dataclass(frozen=True)
class SweepPlan:
    """One simulation campaign over a grid of channel loads.

    Construction checks the plan and sets ``channel``, its ``ChannelModel``,
    and ``users``, the users in a frame at each load."""

    dist: DegreeDistribution
    n: int
    epsilon: float
    loads: tuple[float, ...]
    frames: int
    seed: int = 0
    keying: DegreeKeying = DegreeKeying.INDUCED
    workers: int = 1
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        if self.frames < 1:
            raise PlanError(f"frames must be >= 1, got {self.frames}")
        if self.workers < 1:
            raise PlanError(f"workers must be >= 1, got {self.workers}")
        check_seed(self.seed)
        loads = tuple(float(g) for g in self.loads)
        object.__setattr__(self, "loads", loads)
        if not loads:
            raise PlanError("need at least one load point")
        l = self.dist.max_support_degree()
        channel, users = design_point(self.n, self.epsilon, loads, l)
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "users", users)
        # below 2**31 a frame's slot codes fit uint32, which the peel and the
        # labeller add to intp offsets exactly: numpy adds uint64 to intp in float64
        if self.n >= 2**31:
            raise PlanError(f"n must be below 2**31 for uint32 frame-local slot codes, got {self.n}")
        chunk = min(self.frames, CHUNK_FRAMES)
        for g, m in zip(loads, users):
            # caps the chunk's per-user arrays: two int16 degree matrices and
            # the resolved flags, 3-5 bytes per user. User ids need no cap:
            # they are block-local, and a block's rows are at least 2m words
            # wide, so ids stay below max(2**17, m) at any chunk size
            if chunk * m >= 2**31:
                raise PlanError(
                    f"load {g} at n = {self.n} puts {m} users in a frame, too "
                    f"many for chunks of {chunk} frames"
                )
        # slots are placed by whole-row rejection, which crawls near l = n
        redraws = _row_redraws(l, self.n)
        if redraws > MAX_ROW_REDRAWS:
            raise PlanError(
                f"degree-{l} users at n = {self.n} need {redraws:.0f} expected "
                f"slot redraws per row, more than {MAX_ROW_REDRAWS}; raise n"
            )


@dataclass
class SweepRow:
    """Aggregated results for one load point."""

    g: float
    m: int
    n: int
    frames: int
    keying: str
    totals: tuple[int, ...]
    unresolved: tuple[int, ...]
    plr_sim: tuple[float, ...]
    ci95: tuple[float, ...]
    plr_analytic: tuple[float, ...]
    avg_sim: float
    avg_ci95: float
    avg_analytic: float
    histogram: dict[str, int] = field(default_factory=dict)
    histogram_rates: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The row's fields, tuples as lists, as ``write_json`` writes them."""
        return fields_dict(self)


# ---------------------------------------------------------------------------
# per-frame streams and chunk-level sampling/decoding


def _philox_key(seed: int, point_index: int) -> int:
    """128-bit Philox key of load point ``point_index`` of a sweep seeded
    ``seed``; the one key behind both the reference and the chunk streams."""
    check_seed(seed)
    return seed | (point_index << 64)


def frame_generator(seed: int, point_index: int, frame_index: int) -> Generator:
    """Independent stream for one frame: Philox keyed by (seed, point),
    counter block selected by the frame index."""
    return Generator(Philox(key=_philox_key(seed, point_index), counter=frame_index << 128))


@dataclass(frozen=True)
class _ChunkSpec:
    probs: tuple[float, ...]
    n: int
    m: int
    epsilon: float
    seed: int
    point_index: int
    frame_lo: int
    frame_hi: int
    keying: str


class _FrameStreams:
    """The per-frame streams of one load point behind a single Philox, whose
    counter is repositioned for each frame instead of rebuilt. Its state, a
    fresh Philox's with the buffer used up, holds plain int lists: faster to
    assign than numpy arrays, whose words the setter unboxes one by one."""

    def __init__(self, seed: int, point_index: int):
        self._bg = Philox(key=_philox_key(seed, point_index))
        self._gen = Generator(self._bg)
        self._state = state = self._bg.state
        state["state"] = {name: words.tolist() for name, words in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        self._counter = state["state"]["counter"]  # word 2 is the frame

    def at(self, frame: int) -> Generator:
        """The generator at the start of frame ``frame``'s stream, where
        ``frame_generator(seed, point_index, frame)`` starts; valid until the
        next call."""
        self._counter[2] = frame
        self._bg.state = self._state
        return self._gen

    def fill(self, frame: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the first ``out.size`` uniforms of frame ``frame``."""
        return self.at(frame).random(out=out)


def _row_redraws(l: int, n: int) -> float:
    """Expected redraws of a degree-l row of slots at frame length n:
    clash / (1 - clash), clash being the chance that l uniform slots repeat."""
    clash = 1.0 - math.prod(1.0 - i / n for i in range(l))
    return clash / (1.0 - clash) if clash < 1.0 else math.inf


def _block_frames(spec: _ChunkSpec) -> int:
    """Frames per block of every chunk kernel: ``SAMPLE_WORDS`` words over
    the wider of a frame's sampler row and its n slots, at least one."""
    q = len(spec.probs) - 1
    width = _first_words(q, spec.m, spec.epsilon) + _spare_words(spec.probs, spec.n, spec.m)
    return max(1, SAMPLE_WORDS // max(width, spec.n))


def _blocks(B: int, block: int) -> list[tuple[int, int]]:
    """The frame ranges [lo, hi) of B frames, ``block`` each but the last."""
    return [(lo, min(lo + block, B)) for lo in range(0, B, block)]


def _spare_words(probs, n: int, m: int) -> int:
    """Uniforms each frame's buffer row carries past its first draw, for
    duplicate-slot redraws: q per expected redrawn row plus a margin, at most
    the first draw's own length. A frame that needs more takes the reference
    draw instead."""
    q = len(probs) - 1
    rows = sum(m * p * _row_redraws(l, n) for l, p in enumerate(probs) if p > 0.0)
    return min(q * math.ceil(rows + 4.0 * math.sqrt(rows) + 1.0), m * (1 + q))


def _has_repeat(cols: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Rows whose first ``deg`` slots are not all distinct, given column-major
    slots: ``cols[j]`` is column j of every row. Column j repeats an earlier
    column of its row only where ``deg > j``, so columns past a row's degree
    need no padding."""
    rep = np.zeros(deg.shape, dtype=bool)
    for j in range(1, len(cols)):
        hit = cols[0] == cols[j]
        for i in range(1, j):
            hit |= cols[i] == cols[j]
        rep |= hit & (deg > j)
    return rep


def _degrees(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` capped at q = cdf.size - 1,
    as int16. That count of CDF entries <= u is summed one distinct CDF value
    at a time, each compare weighted by how often its value repeats (degrees
    of probability zero repeat it). The cap guards against cdf[-1] rounding
    just below 1."""
    deg = np.zeros(u.shape, dtype=np.int16)
    values, counts = np.unique(cdf, return_counts=True)
    for value, count in zip(values.tolist(), counts.tolist()):
        deg += (u >= value) * np.int16(count)
    return np.minimum(deg, cdf.size - 1, out=deg)


def _sample_block(streams: _FrameStreams, frame_lo: int, B: int, cdf, n, m, eps, spare):
    """Frames frame_lo..frame_lo+B-1, each exactly ``frame_model.draw_frame``
    on its stream, as (degrees (B, m), received degrees (B, m), slots
    (B, m, q), survive (B, m, q)): each frame's own slots, in
    ``np.min_scalar_type(n - 1)``, and ``survive`` marks the surviving
    copies.

    One buffer row per frame holds its first-draw uniforms (degrees, slots,
    erasures) then ``spare`` more; everything after the fill runs across
    the block. Degrees are sums of CDF compares (``_degrees``) and repeats
    are found on a column-major (q, B, m) copy of the slots
    (``_has_repeat``); slots are drawn, compared and redrawn in their narrow
    dtype, which ``x * n`` is cast to. In each redraw round the k-th
    repeating row of frame f takes the q words from ``pos[f] + k*q``, the
    order ``draw_frame`` reads them. A frame whose redraws outrun its row leaves the rounds and
    takes its slots from ``draw_frame`` itself.
    """
    q = cdf.size - 1
    first = _first_words(q, m, eps)
    width = first + spare
    x = np.empty((B, width))
    for row in range(B):
        streams.fill(frame_lo + row, x[row])

    deg = _degrees(x[:, :m], cdf)
    slots = np.empty((B, m, q), dtype=np.min_scalar_type(n - 1))
    np.multiply(x[:, m : m + m * q].reshape(B, m, q), n, out=slots, casting="unsafe")

    pos = np.full(B, first, dtype=np.int64)  # next unread word of each frame
    by_col = np.ascontiguousarray(slots.transpose(2, 0, 1))
    fr, us = np.nonzero(_has_repeat(by_col, deg))  # (frame, user) order
    del by_col
    while fr.size:
        counts = np.bincount(fr, minlength=B)
        rank = np.arange(fr.size) - (np.cumsum(counts) - counts)[fr]
        words = pos[fr] + rank * q
        pos += counts * q
        over = pos[fr] > width
        for f in np.unique(fr[over]).tolist():
            slots[f] = draw_frame(streams.at(frame_lo + f), cdf, n, m, eps)[1]
        fr, us, words = fr[~over], us[~over], words[~over]
        rows = (x[fr[:, None], words[:, None] + np.arange(q)] * n).astype(slots.dtype)
        slots[fr, us] = rows
        again = _has_repeat(rows.T, deg[fr, us])
        fr, us = fr[again], us[again]

    survive = np.tri(q + 1, q, -1, dtype=bool).take(deg, axis=0)  # column < deg
    recv = deg
    if eps > 0.0:
        survive &= x[:, m + m * q : first].reshape(B, m, q) >= eps
        recv = np.zeros((B, m), dtype=np.int16)
        for j in range(q):
            recv += survive[..., j]
    return deg, recv, slots, survive


def _first_words(q: int, m: int, eps: float) -> int:
    """Uniforms of a frame's first draw: m degrees, m * q slots and, when
    ``eps > 0``, m * q erasures."""
    return m * (1 + q) if eps == 0.0 else m * (1 + 2 * q)


def _edge_capacity(probs, eps: float, users: int) -> int:
    """Codes to reserve for the received edges of ``users`` users: their
    expected count plus six standard deviations and q + 1. A received
    degree is binomial(l, 1 - eps) given the drawn degree l."""
    keep = 1.0 - eps
    mean = sum(p * l * keep for l, p in enumerate(probs))
    square = sum(p * (l * keep * eps + (l * keep) ** 2) for l, p in enumerate(probs))
    spread = math.sqrt(max(users * (square - mean * mean), 0.0))
    return math.ceil(users * mean + 6.0 * spread) + len(probs)


def _sample_chunk(spec: _ChunkSpec):
    """Sample frames frame_lo..frame_hi-1, one Philox stream per frame.

    Returns (orig, recv, codes): drawn and surviving degree matrices of shape
    (B, m), then each edge's frame-local slot, ``0 <= slot < n`` in
    ``np.min_scalar_type(n - 1)``, in (frame, user, column) order. Each
    frame's users own consecutive edges, as many as their received degrees,
    so the degrees give each edge its frame and user. When ``eps == 0``
    nothing is erased and ``recv`` is ``orig``. Each block is one
    ``_sample_block`` call, which compresses its surviving slots straight
    into the chunk's one code array, reserved by ``_edge_capacity``, grown
    in place on the rare overflow and shrunk in place to the edge count at
    the end.
    """
    n, m, eps = spec.n, spec.m, spec.epsilon
    B = spec.frame_hi - spec.frame_lo
    cdf = np.cumsum(spec.probs)
    spare = _spare_words(spec.probs, n, m)
    streams = _FrameStreams(spec.seed, spec.point_index)

    orig = np.empty((B, m), dtype=np.int16)
    recv = orig if eps == 0.0 else np.empty((B, m), dtype=np.int16)
    codes = np.empty(_edge_capacity(spec.probs, eps, B * m), dtype=np.min_scalar_type(n - 1))
    end = 0
    for lo, hi in _blocks(B, _block_frames(spec)):
        deg, rcv, slots, survive = _sample_block(streams, spec.frame_lo + lo, hi - lo, cdf, n, m, eps, spare)
        orig[lo:hi] = deg
        if recv is not orig:
            recv[lo:hi] = rcv
        k = int(rcv.sum())
        if end + k > codes.size:
            # no view of codes outlives the compress below, so it may move
            codes.resize(end + k + _edge_capacity(spec.probs, eps, (B - hi) * m), refcheck=False)
        np.compress(survive.reshape(-1), slots.reshape(-1), out=codes[end : end + k])
        end += k
    codes.resize(end, refcheck=False)
    return orig, recv, codes


def _peel_chunk(B, m, n, codes, recv, block):
    """Peeling of a chunk, block by block; returns (resolved (B, m),
    block_edges), where the edges of the i-th block of ``_blocks(B, block)``
    are ``codes[block_edges[i] : block_edges[i + 1]]``.

    ``codes`` are ``_sample_chunk``'s frame-local slots. The edges of
    frames [lo, hi) are peeled on a ``state`` of ``(hi - lo) * n`` slots,
    indexed by intp block-local codes: each frame's offset
    ``(frame - lo) * n`` repeated over its edges, plus their slots. Each
    slot packs its counters into one int64: every edge in the slot adds
    ``(1 << 32) + block-local user id``, so ``state >> 32`` is the slot's
    occupancy and, in a singleton slot, the low 32 bits are its user's
    block-local id. A slot with two or more edges keeps ``state >= 2 << 32``
    whatever its id sum, so the singleton test is exact for block-local ids
    below 2**32; they are below ``block * m``. Each user's edges are
    read off ``bptr``, the cumulative sums of the block's received degrees,
    so once its state is built, a block's working set is 8 bytes per block
    edge, per slot and per user.
    Each wave resolves the users of the current singleton slots, removes
    their edges with one ``np.subtract.at`` of each user's addend repeated
    over its edges, and takes the removed slots that became singletons as
    the next frontier, so a wave costs O(edges it removes) and peeling costs
    O(edges) in all.
    """
    blocks = _blocks(B, block)
    block_edges = np.zeros(len(blocks) + 1, dtype=np.int64)
    resolved = np.zeros(B * m, dtype=bool)
    for i, (lo, hi) in enumerate(blocks):
        bptr = np.zeros((hi - lo) * m + 1, dtype=np.int64)  # each user's first edge
        np.cumsum(recv[lo:hi].reshape(-1), out=bptr[1:])
        e0 = block_edges[i]
        block_edges[i + 1] = e0 + bptr[-1]
        # block-local intp codes: each frame's offset over its edges, plus the
        # slots, added in intp (numpy's fancy indexing converts others per call)
        bcodes = np.repeat(np.arange(0, (hi - lo) * n, n, dtype=np.intp), recv[lo:hi].sum(axis=1))
        np.add(bcodes, codes[e0 : block_edges[i + 1]], out=bcodes)
        addend = np.repeat(np.arange(_EDGE, _EDGE + (hi - lo) * m), recv[lo:hi].reshape(-1))
        state = np.zeros((hi - lo) * n, dtype=np.int64)
        np.add.at(state, bcodes, addend)
        del addend  # each wave repeats its users' addends over their edges

        done = resolved[lo * m : hi * m]
        owner = np.empty((hi - lo) * m, dtype=np.int32)  # dedupe scratch, see below
        frontier = np.flatnonzero(state >> 32 == 1)
        while frontier.size:
            # a singleton's user still has all its edges, so it is unresolved;
            # the frontier may repeat a slot or name one user through two slots,
            # and exactly one position per distinct user wins the owner write
            gid = state[frontier] & _LOW
            rank = np.arange(gid.size, dtype=np.int32)
            owner[gid] = rank
            gid = gid[owner[gid] == rank]
            done[gid] = True

            starts = bptr[gid]
            counts = bptr[gid + 1] - starts
            ends = np.cumsum(counts)
            idx = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
            removed = bcodes[idx]
            np.subtract.at(state, removed, np.repeat(gid + _EDGE, counts))
            frontier = removed[state[removed] >> 32 == 1]
    return resolved.reshape(B, m), block_edges


def _component_labels(rcode, u_inv, nu: int, nslots: int) -> tuple[np.ndarray, int]:
    """Connected components of a bipartite user/slot graph whose k-th edge
    joins user rank ``u_inv[k]`` in [0, nu) to slot code ``rcode[k]`` in
    [0, nslots). Returns (labels, rounds): each user's component label, the
    smallest user rank in its component, and the propagation rounds taken.

    Labels only fall: each round takes every slot's minimum user label, then
    every user's minimum slot label, hooks each user's old label (a user of
    its component) to its new one, then jumps pointers (label of label)
    until they settle. A round that moves no label ends the propagation.
    """
    labels = np.arange(nu, dtype=np.int32)
    slot_lab = np.full(nslots, nu, dtype=np.int32)
    for rounds in itertools.count(1):
        np.minimum.at(slot_lab, rcode, labels[u_inv])
        new = labels.copy()
        np.minimum.at(new, u_inv, slot_lab[rcode])
        np.minimum.at(new, labels, new.copy())
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            return labels, rounds
        labels = new


def _classify_residuals(B, m, n, codes, recv, block_edges, resolved_flat, block) -> np.ndarray:
    """Residual components per class of a decoded chunk, as an int64 count
    vector aligned to ``HISTOGRAM_KEYS``.

    A component lies in one frame, so each block is labelled on its own
    slots: the intp block-local codes of its residual edges, their slots
    picked from ``codes[block_edges[i] : block_edges[i + 1]]`` for the i-th
    block as ``_peel_chunk`` returns them, plus each residual user's frame
    offset repeated over its edges. Every residual component is a stopping
    set, so one of at most ``_MAX_CLASS_SIZE`` users is classified by its
    signature alone, packed as a key that ``_CLASS_BY_KEY`` maps to its
    catalog index: its users per degree, one ``np.bincount`` on the labels
    weighted by ``_DEGREE_KEY``, and its distinct slots, counted over the
    edges that win an owner write to their slot, as ``_peel_chunk`` dedupes
    users. Larger components and keys outside the catalog count as Other.
    """
    hist = np.zeros(len(HISTOGRAM_KEYS), dtype=np.int64)
    recv_flat = recv.reshape(B * m)
    degree0 = 0
    keys = [np.empty(0, dtype=np.int64)]
    for (lo, hi), e0, e1 in zip(_blocks(B, block), block_edges[:-1], block_edges[1:]):
        u0, u1 = lo * m, hi * m
        block_recv, block_unres = recv_flat[u0:u1], ~resolved_flat[u0:u1]
        # unresolved users with edges, by block-local id; edges are ordered
        # by (frame, user, column), so repeating each user's flag over its
        # edges selects the residual ones, grouped by user in id order
        users = np.flatnonzero(block_unres & (block_recv > 0))
        degree0 += np.count_nonzero(block_unres) - users.size
        if not users.size:
            continue
        degrees = block_recv[users]
        # block-local intp codes: each user's frame offset over its edges,
        # plus the slots, added in intp
        rcode = np.repeat(users // m * n, degrees)
        np.add(rcode, codes[e0:e1][np.repeat(block_unres, block_recv)], out=rcode)
        u_inv = np.repeat(np.arange(users.size), degrees)
        labels, _ = _component_labels(rcode, u_inv, users.size, (hi - lo) * n)
        sizes = np.bincount(labels, minlength=users.size)

        hist[_OTHER] += np.count_nonzero(sizes > _MAX_CLASS_SIZE)

        small = sizes[labels] <= _MAX_CLASS_SIZE
        weight = _DEGREE_KEY[np.minimum(degrees[small], _MAX_DEGREE + 1)]
        by_degree = np.bincount(labels[small], weights=weight, minlength=users.size)
        edges = small[u_inv]
        scode = rcode[edges]
        rank = np.arange(scode.size, dtype=np.int32)
        owner = np.empty((hi - lo) * n, dtype=np.int32)
        owner[scode] = rank
        slots = np.bincount(labels[u_inv[edges]][owner[scode] == rank], minlength=users.size)
        roots = (sizes > 0) & (sizes <= _MAX_CLASS_SIZE)
        keys.append(by_degree[roots].astype(np.int64) + _SLOT_KEY * slots[roots])
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    for key, count in zip(keys.tolist(), counts.tolist()):
        hist[_CLASS_BY_KEY.get(key, _OTHER)] += count
    hist[_DEGREE0] = degree0
    return hist


def _run_chunk(spec: _ChunkSpec):
    """Worker entry point: returns (point_index, record), the record one int64
    vector of users per keyed degree 0..q, unresolved users per keyed degree
    0..q and ``_classify_residuals``' counts per ``HISTOGRAM_KEYS`` class."""
    q = len(spec.probs) - 1
    B = spec.frame_hi - spec.frame_lo
    block = _block_frames(spec)
    orig, recv, codes = _sample_chunk(spec)
    resolved, block_edges = _peel_chunk(B, spec.m, spec.n, codes, recv, block)
    resolved_flat = resolved.reshape(-1)

    keyed = (recv if spec.keying == DegreeKeying.INDUCED.value else orig).reshape(-1)
    # counted one degree at a time: np.bincount casts int16 degrees to intp
    counts = [np.count_nonzero(d == l) for d in (keyed, keyed[~resolved_flat]) for l in range(q + 1)]
    hist = _classify_residuals(B, spec.m, spec.n, codes, recv, block_edges, resolved_flat, block)
    return spec.point_index, np.concatenate((np.array(counts, dtype=np.int64), hist))


# ---------------------------------------------------------------------------
# sweep driver


def _chunk_specs(plan: SweepPlan) -> list[_ChunkSpec]:
    specs = []
    for point_index, m in enumerate(plan.users):
        for lo in range(0, plan.frames, CHUNK_FRAMES):
            hi = min(lo + CHUNK_FRAMES, plan.frames)
            specs.append(
                _ChunkSpec(
                    probs=plan.dist.probs,
                    n=plan.n,
                    m=m,
                    epsilon=plan.epsilon,
                    seed=plan.seed,
                    point_index=point_index,
                    frame_lo=lo,
                    frame_hi=hi,
                    keying=plan.keying.value,
                )
            )
    return specs


def run_sweep(plan: SweepPlan) -> list[SweepRow]:
    """Execute the plan and return one row per load point.

    Each load point's row of counts is the sum of its chunks' records, in
    integer arithmetic, so results are bitwise identical for any worker
    count; output files are written only after every point completes. The
    pool has one process per chunk at most, and a plan of one chunk, or one
    worker, runs in this process.
    """
    q = plan.dist.q
    specs = _chunk_specs(plan)
    workers = min(plan.workers, len(specs))
    if workers > 1:
        import multiprocessing  # only pools need it; it adds ~9 ms to every import

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_run_chunk, specs, chunksize=1)
    else:
        results = map(_run_chunk, specs)
    counts = np.zeros((len(plan.loads), 2 * (q + 1) + len(HISTOGRAM_KEYS)), dtype=np.int64)
    for point_index, record in results:
        counts[point_index] += record

    rows = []
    for g, m, row in zip(plan.loads, plan.users, counts.tolist()):
        report = analytic_report(m, plan.n, plan.dist, plan.channel)
        tot, unres, hist = row[: q + 1], row[q + 1 : 2 * (q + 1)], row[2 * (q + 1) :]
        # a degree no user drew reads 0 with no interval
        plr_sim, ci = zip(*(confidence_interval(u, t) if t else (0.0, 0.0) for u, t in zip(unres, tot)))
        trials = plan.frames * m
        avg_sim, avg_ci = confidence_interval(sum(unres), trials)
        histogram = dict(zip(HISTOGRAM_KEYS, hist))
        rates = {key: histogram[key] / plan.frames for key in HISTOGRAM_KEYS}
        rows.append(
            SweepRow(
                g=g,
                m=m,
                n=plan.n,
                frames=plan.frames,
                keying=plan.keying.value,
                totals=tuple(tot),
                unresolved=tuple(unres),
                plr_sim=plr_sim,
                ci95=ci,
                plr_analytic=report.keyed(plan.keying),
                avg_sim=avg_sim,
                avg_ci95=avg_ci,
                avg_analytic=report.average,
                histogram=histogram,
                histogram_rates=rates,
            )
        )

    if plan.out_csv:
        write_csv(rows, plan.out_csv)
    if plan.out_json:
        write_json(rows, plan.out_json)
    return rows


# ---------------------------------------------------------------------------
# output formats


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def csv_line(g, m, n, frames, degree, plr_sim: str, ci95: str, plr_analytic, keying) -> str:
    """One CSV row; ``plr_sim`` and ``ci95`` come formatted, empty when not simulated."""
    fields = [_fmt(g), str(m), str(n), str(frames), str(degree)]
    return ",".join(fields + [plr_sim, ci95, _fmt(plr_analytic), keying])


def csv_lines(rows: list[SweepRow]) -> list[str]:
    lines = [CSV_HEADER]
    for row in rows:
        per_degree = zip(range(len(row.plr_sim)), row.plr_sim, row.ci95, row.plr_analytic)
        avg = ("avg", row.avg_sim, row.avg_ci95, row.avg_analytic)
        for degree, sim, ci, analytic in [*per_degree, avg]:
            lines.append(
                csv_line(row.g, row.m, row.n, row.frames, degree, _fmt(sim), _fmt(ci), analytic, row.keying)
            )
    return lines


def write_csv(rows: list[SweepRow], path: str):
    write_csv_lines(csv_lines(rows), path)


def write_csv_lines(lines: list[str], path: str):
    """The one CSV file writer: ``lines``, header first, each ending in a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def dump_json(payload, path: str | None = None) -> str:
    """``payload`` as indented, key-sorted JSON text ending in a newline,
    also written to ``path`` when one is given."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def write_json(rows: list[SweepRow], path: str):
    dump_json([row.to_dict() for row in rows], path)
