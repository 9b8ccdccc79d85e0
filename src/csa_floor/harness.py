"""Monte Carlo sweep runner: sampling, decoding, statistics, file outputs.

Every frame owns an independent counter-based random stream derived from
(seed, sweep-point index, frame index), so results are bitwise reproducible
for any worker count: workers only change how deterministic per-frame
contributions are batched, and all accumulation is integer arithmetic.

Frames are processed in fixed-size chunks. Sampling repositions the Philox
counter once per frame and pulls that frame's uniforms in one call; degrees,
slots, duplicate-slot redraws and erasures are then computed across a block
of frames at once, reading each frame's words in the order
``frame_model.draw_frame`` does. Decoding is vectorized across the chunk:
slot occupancy counters plus per-slot sums of user indices identify the
unique user in any singleton slot, and a frontier of touched slots drives
peeling in O(edges) total work. Residual components are labelled with
scipy's connected components and classified against the stopping-set
catalog.

Each chunk stage has a reference path that tests compare it against on the
same frames: ``sample_frame(cfg, frame_generator(seed, i, f))`` for
sampling, ``decoder.peel`` for peeling, and ``stopping_sets.components``
plus ``classify`` for classification.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .decoder import DegreeKeying
from .distributions import ChannelModel, DegreeDistribution
from .frame_model import round_half_up
from .predictor import analytic_report
from .stopping_sets import CATALOG, DEGREE0_LABEL, OTHER_LABEL, classify_slot_sets

CHUNK_FRAMES = 4096
# frames per uniform buffer in _sample_chunk: bounds the sampler's memory
SAMPLE_BLOCK_FRAMES = 512
CSV_HEADER = "g,m,n,frames,degree,plr_sim,ci95,plr_analytic,keying"
HISTOGRAM_KEYS = tuple(c.id for c in CATALOG) + (DEGREE0_LABEL, OTHER_LABEL)
# residual components with more users than this can only be "Other"
_MAX_CLASS_SIZE = max(c.size for c in CATALOG)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class PlanError(ValueError):
    """Invalid sweep plan."""


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
    """One simulation campaign over a grid of channel loads."""

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
        if self.n < 1:
            raise PlanError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise PlanError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.workers < 1:
            raise PlanError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 2**64:
            raise PlanError(f"seed must be in [0, 2**64), got {self.seed}")
        loads = tuple(float(g) for g in self.loads)
        object.__setattr__(self, "loads", loads)
        if not loads:
            raise PlanError("need at least one load point")
        for g in loads:
            if not 0.0 < g <= 2.0:
                raise PlanError(f"loads must be in (0, 2], got {g}")
            if round_half_up(g * self.n) < 1:
                raise PlanError(f"load {g} at n = {self.n} rounds to zero users")
        if self.n < self.dist.max_support_degree():
            raise PlanError(
                f"n = {self.n} cannot host degree-{self.dist.max_support_degree()} users"
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
        return {
            "g": self.g,
            "m": self.m,
            "n": self.n,
            "frames": self.frames,
            "keying": self.keying,
            "totals": list(self.totals),
            "unresolved": list(self.unresolved),
            "plr_sim": list(self.plr_sim),
            "ci95": list(self.ci95),
            "plr_analytic": list(self.plr_analytic),
            "avg_sim": self.avg_sim,
            "avg_ci95": self.avg_ci95,
            "avg_analytic": self.avg_analytic,
            "histogram": dict(self.histogram),
            "histogram_rates": dict(self.histogram_rates),
        }


# ---------------------------------------------------------------------------
# per-frame streams and chunk-level sampling/decoding


def _philox_key(seed: int, point_index: int) -> int:
    """128-bit Philox key of load point ``point_index`` of a sweep seeded
    ``seed``; the one key behind both the reference and the chunk streams."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
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
    counter is repositioned for each frame instead of rebuilt."""

    def __init__(self, seed: int, point_index: int):
        self._bg = Philox(key=_philox_key(seed, point_index))
        self._gen = Generator(self._bg)
        self._state = self._bg.state

    def fill(self, frame: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the first ``out.size`` uniforms of frame ``frame``,
        the same words ``frame_generator(seed, point_index, frame)`` yields."""
        state = self._state
        state["state"]["counter"] = np.array([0, 0, frame, 0], dtype=np.uint64)
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bg.state = state
        self._gen.random(out=out)
        return out


def _spare_words(probs, n: int, m: int) -> int:
    """Uniforms each frame's buffer row carries past its first draw, for
    duplicate-slot redraws: q per expected redrawn row plus a margin, at most
    the first draw's own length. Frames that need more draw a longer row."""
    q = len(probs) - 1
    rows = 0.0
    for l, p in enumerate(probs):
        if p > 0.0:
            clash = 1.0 - math.prod(1.0 - i / n for i in range(l))
            rows += m * p * clash / (1.0 - clash)  # mean redraws of a degree-l row
    return min(q * math.ceil(rows + 4.0 * math.sqrt(rows) + 1.0), m * (1 + q))


def _has_repeat(slots: np.ndarray, valid: np.ndarray, n: int) -> np.ndarray:
    """Rows (last axis) whose valid slots are not all distinct."""
    q = slots.shape[-1]
    padded = np.where(valid, slots, np.arange(n, n + q, dtype=np.int32))
    padded.sort(axis=-1)
    return (padded[..., 1:] == padded[..., :-1]).any(axis=-1)


def _sample_block(streams: _FrameStreams, frame_lo: int, B: int, cdf, n, m, eps, spare):
    """Frames frame_lo..frame_lo+B-1 as (degrees (B, m), slots (B, m, q),
    survive (B, m, q)), each frame exactly ``frame_model.draw_frame`` on its
    stream.

    One buffer row per frame holds its first-draw uniforms (degrees, slots,
    erasures) then ``spare`` more; everything after the fill runs across
    the block. In each redraw round the k-th repeating row of frame f takes
    the q words from ``pos[f] + k*q``, the order ``draw_frame`` reads them.
    """
    q = cdf.size - 1
    first = m * (1 + q) if eps == 0.0 else m * (1 + 2 * q)
    width = first + spare
    x = np.empty((B, width))
    for row in range(B):
        streams.fill(frame_lo + row, x[row])

    deg = np.searchsorted(cdf, x[:, :m], side="right").astype(np.int16)
    np.minimum(deg, q, out=deg)  # guard against cdf[-1] rounding just below 1
    valid = np.arange(q, dtype=np.int16) < deg[..., None]
    slots = (x[:, m : m + m * q].reshape(B, m, q) * n).astype(np.int32)

    pos = np.full(B, first, dtype=np.int64)  # next unread word of each frame
    longer: dict[int, np.ndarray] = {}  # rows of frames that outran the spare
    fr, us = np.nonzero(_has_repeat(slots, valid, n))  # (frame, user) order
    while fr.size:
        counts = np.bincount(fr, minlength=B)
        rank = np.arange(fr.size) - (np.cumsum(counts) - counts)[fr]
        cols = (pos[fr] + rank * q)[:, None] + np.arange(q)
        pos += counts * q
        words = np.empty((fr.size, q))
        inside = pos[fr] <= width
        words[inside] = x[fr[inside, None], cols[inside]]
        for f in np.unique(fr[~inside]).tolist():
            row = longer.get(f)
            if row is None or row.size < pos[f]:
                # double the length so a frame redrawing for many rounds
                # regenerates O(its total words), not O(words) per round
                row = longer[f] = streams.fill(frame_lo + f, np.empty(2 * int(pos[f])))
            sel = fr == f
            words[sel] = row[cols[sel]]
        slots[fr, us] = (words * n).astype(np.int32)
        again = _has_repeat(slots[fr, us], valid[fr, us], n)
        fr, us = fr[again], us[again]

    if eps > 0.0:
        survive = valid & (x[:, m + m * q : first].reshape(B, m, q) >= eps)
    else:
        survive = valid
    return deg, slots, survive


def _sample_chunk(spec: _ChunkSpec):
    """Sample frames frame_lo..frame_hi-1, one Philox stream per frame.

    Returns (orig, recv, e_frames, e_users, e_slots): drawn and surviving
    degree matrices of shape (B, m) plus flat edge arrays ordered by
    (frame, user, column). Frames go through ``_sample_block`` in blocks of
    ``SAMPLE_BLOCK_FRAMES``, which bounds the uniform buffer.
    """
    n, m, eps = spec.n, spec.m, spec.epsilon
    q = len(spec.probs) - 1
    B = spec.frame_hi - spec.frame_lo
    cdf = np.cumsum(spec.probs)
    spare = _spare_words(spec.probs, n, m)
    streams = _FrameStreams(spec.seed, spec.point_index)

    orig = np.empty((B, m), dtype=np.int16)
    recv = np.empty((B, m), dtype=np.int16)
    e_frames, e_users, e_slots = [], [], []
    for lo in range(0, B, SAMPLE_BLOCK_FRAMES):
        hi = min(lo + SAMPLE_BLOCK_FRAMES, B)
        deg, slots, survive = _sample_block(
            streams, spec.frame_lo + lo, hi - lo, cdf, n, m, eps, spare
        )
        orig[lo:hi] = deg
        recv[lo:hi] = survive.sum(axis=2, dtype=np.int16)
        edges = np.flatnonzero(survive)  # (frame, user, column) order
        e_frames.append((edges // (m * q) + lo).astype(np.int32))
        e_users.append((edges // q % m).astype(np.int32))
        e_slots.append(slots.reshape(-1)[edges])
    return orig, recv, np.concatenate(e_frames), np.concatenate(e_users), np.concatenate(e_slots)


def _sorted_unique(idx: np.ndarray, size: int) -> np.ndarray:
    """``np.unique`` of indices in [0, size), by marking a mask rather than
    sorting or hashing."""
    mark = np.zeros(size, dtype=bool)
    mark[idx] = True
    return np.flatnonzero(mark)


def _peel_chunk(B, m, n, ef, eu, es, recv):
    """Vectorized peeling of a whole chunk; returns the resolved mask (B, m).

    Occupancy counters C and per-slot user-index sums SU identify the unique
    user of any singleton slot; only slots touched by edge removals can
    become singletons, so the frontier does O(edges) total work.
    """
    edge_counts = recv.reshape(-1).astype(np.int64)
    indptr = np.zeros(B * m + 1, dtype=np.int64)
    np.cumsum(edge_counts, out=indptr[1:])

    slot_codes = ef.astype(np.int64) * n + es
    nslots = B * n
    C = np.bincount(slot_codes, minlength=nslots).astype(np.int32)
    SU = np.bincount(slot_codes, weights=eu, minlength=nslots)  # float64, exact

    resolved = np.zeros(B * m, dtype=bool)
    frontier = np.flatnonzero(C == 1)
    while frontier.size:
        frontier = frontier[C[frontier] == 1]
        if not frontier.size:
            break
        gid = (frontier // n) * m + SU[frontier].astype(np.int64)
        gid = _sorted_unique(gid, B * m)
        gid = gid[~resolved[gid]]
        if not gid.size:
            break
        resolved[gid] = True

        starts = indptr[gid]
        counts = indptr[gid + 1] - starts
        total = int(counts.sum())
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        idx = np.repeat(starts, counts) + offsets
        removed = slot_codes[idx]
        if total > nslots // 16:
            C -= np.bincount(removed, minlength=nslots).astype(np.int32)
            SU -= np.bincount(removed, weights=eu[idx], minlength=nslots)
        else:
            np.subtract.at(C, removed, 1)
            np.subtract.at(SU, removed, eu[idx])

        touched = _sorted_unique(removed, nslots)
        frontier = touched[C[touched] == 1]
    return resolved.reshape(B, m), indptr


def _classify_residuals(B, m, n, ef, eu, es, resolved_flat, recv, indptr) -> Counter:
    """Histogram of residual component classes for a decoded chunk."""
    hist: Counter = Counter()
    degree0 = int(((recv.reshape(-1) == 0) & ~resolved_flat).sum())
    if degree0:
        hist[DEGREE0_LABEL] += degree0

    if ef.size == 0:
        return hist
    edge_gid = ef.astype(np.int64) * m + eu
    residual = ~resolved_flat[edge_gid]
    if not residual.any():
        return hist
    rg = edge_gid[residual]
    rcode = ef[residual].astype(np.int64) * n + es[residual]

    u_nodes, u_inv = np.unique(rg, return_inverse=True)
    s_nodes, s_inv = np.unique(rcode, return_inverse=True)
    nu = u_nodes.size
    total_nodes = nu + s_nodes.size
    graph = coo_matrix(
        (np.ones(rg.size, dtype=np.int8), (u_inv, nu + s_inv)),
        shape=(total_nodes, total_nodes),
    )
    ncomp, labels = connected_components(graph, directed=False)
    comp_of_user = labels[:nu]
    sizes = np.bincount(comp_of_user, minlength=ncomp)

    hist[OTHER_LABEL] += int((sizes > _MAX_CLASS_SIZE).sum())

    small = np.flatnonzero((sizes >= 1) & (sizes <= _MAX_CLASS_SIZE))
    if small.size:
        order = np.argsort(comp_of_user, kind="stable")
        sorted_comp = comp_of_user[order]
        lo = np.searchsorted(sorted_comp, small, side="left")
        hi = np.searchsorted(sorted_comp, small, side="right")
        for a, b in zip(lo, hi):
            gids = u_nodes[order[a:b]]
            slot_sets = [
                frozenset(es[indptr[g] : indptr[g + 1]].tolist()) for g in gids
            ]
            hist[classify_slot_sets(slot_sets)] += 1
    return hist


def _run_chunk(spec: _ChunkSpec):
    """Worker entry point: returns (point_index, totals, unresolved, histogram)."""
    q = len(spec.probs) - 1
    B = spec.frame_hi - spec.frame_lo
    orig, recv, ef, eu, es = _sample_chunk(spec)
    resolved, indptr = _peel_chunk(B, spec.m, spec.n, ef, eu, es, recv)
    resolved_flat = resolved.reshape(-1)

    keyed = recv if spec.keying == DegreeKeying.INDUCED.value else orig
    keyed_flat = keyed.reshape(-1).astype(np.int64)
    totals = np.bincount(keyed_flat, minlength=q + 1)
    unresolved = np.bincount(keyed_flat[~resolved_flat], minlength=q + 1)
    hist = _classify_residuals(
        B, spec.m, spec.n, ef, eu, es, resolved_flat, recv, indptr
    )
    return spec.point_index, totals, unresolved, hist


# ---------------------------------------------------------------------------
# sweep driver


def _chunk_specs(plan: SweepPlan) -> list[_ChunkSpec]:
    specs = []
    for point_index, g in enumerate(plan.loads):
        m = round_half_up(g * plan.n)
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

    Results are bitwise identical for any worker count; output files are
    written only after every point completes.
    """
    q = plan.dist.q
    specs = _chunk_specs(plan)
    if plan.workers > 1:
        with multiprocessing.get_context("fork").Pool(plan.workers) as pool:
            results = pool.map(_run_chunk, specs, chunksize=1)
    else:
        results = [_run_chunk(spec) for spec in specs]

    totals = {i: np.zeros(q + 1, dtype=np.int64) for i in range(len(plan.loads))}
    unresolved = {i: np.zeros(q + 1, dtype=np.int64) for i in range(len(plan.loads))}
    hists: dict[int, Counter] = {i: Counter() for i in range(len(plan.loads))}
    for point_index, tot, unres, hist in results:
        totals[point_index] += tot
        unresolved[point_index] += unres
        hists[point_index] += hist

    channel = ChannelModel(plan.epsilon)
    rows = []
    for point_index, g in enumerate(plan.loads):
        m = round_half_up(g * plan.n)
        report = analytic_report(m, plan.n, plan.dist, channel)
        analytic = (
            report.per_degree
            if plan.keying is DegreeKeying.INDUCED
            else report.user_perspective
        )
        tot = totals[point_index]
        unres = unresolved[point_index]
        plr_sim = []
        ci = []
        for l in range(q + 1):
            if tot[l] > 0:
                est, half = confidence_interval(int(unres[l]), int(tot[l]))
            else:
                est, half = 0.0, 0.0
            plr_sim.append(est)
            ci.append(half)
        trials = plan.frames * m
        avg_sim, avg_ci = confidence_interval(int(unres.sum()), trials)
        hist = hists[point_index]
        histogram = {key: int(hist.get(key, 0)) for key in HISTOGRAM_KEYS}
        rates = {key: histogram[key] / plan.frames for key in HISTOGRAM_KEYS}
        rows.append(
            SweepRow(
                g=g,
                m=m,
                n=plan.n,
                frames=plan.frames,
                keying=plan.keying.value,
                totals=tuple(int(t) for t in tot),
                unresolved=tuple(int(u) for u in unres),
                plr_sim=tuple(plr_sim),
                ci95=tuple(ci),
                plr_analytic=tuple(analytic),
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
    with open(path, "w") as fh:
        fh.write("\n".join(csv_lines(rows)) + "\n")


def write_json(rows: list[SweepRow], path: str):
    with open(path, "w") as fh:
        json.dump([row.to_dict() for row in rows], fh, indent=2, sort_keys=True)
        fh.write("\n")
