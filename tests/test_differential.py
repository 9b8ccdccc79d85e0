"""The sweep's chunk kernel against the reference path, frame by frame.

Frame f of load point i is ``sample_frame(cfg, frame_generator(seed, i, f))``.
For every frame of a random chunk, the vectorized sample, peel and classify
stages must reproduce that graph, its ``decoder.peel`` outcome and the
catalog labels of its residual components.
"""

from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from csa_floor import harness
from csa_floor.decoder import peel
from csa_floor.distributions import ChannelModel, DegreeDistribution
from csa_floor.frame_model import FrameConfig, sample_frame
from csa_floor.harness import (
    SAMPLE_BLOCK_FRAMES,
    _ChunkSpec,
    _classify_residuals,
    _peel_chunk,
    _sample_chunk,
    frame_generator,
)
from csa_floor.stopping_sets import classify, components


@st.composite
def chunk_cases(draw):
    """Small chunks whose distributions may put mass on degrees 0 and 1."""
    weights = draw(st.lists(st.integers(0, 4), min_size=2, max_size=5).filter(any))
    total = sum(weights)
    dist = DegreeDistribution(tuple(w / total for w in weights))
    n = draw(st.integers(max(dist.max_support_degree(), 1), 12))
    m = draw(st.integers(0, 14))
    eps = draw(st.sampled_from((0.0, 0.1, 0.5)))
    frame_lo = draw(st.integers(0, 10**6))
    spec = _ChunkSpec(
        probs=dist.probs,
        n=n,
        m=m,
        epsilon=eps,
        seed=draw(st.integers(0, 2**64 - 1)),
        point_index=draw(st.integers(0, 3)),
        frame_lo=frame_lo,
        frame_hi=frame_lo + draw(st.integers(1, 6)),
        keying="induced",
    )
    return spec, FrameConfig(m=m, n=n, dist=dist, channel=ChannelModel(eps))


@given(chunk_cases())
def test_chunk_kernel_matches_reference_path(case):
    spec, cfg = case
    B, m, n = spec.frame_hi - spec.frame_lo, spec.m, spec.n
    orig, recv, ef, eu, es = _sample_chunk(spec)
    resolved, indptr = _peel_chunk(B, m, n, ef, eu, es, recv)
    hist = _classify_residuals(
        B, m, n, ef, eu, es, resolved.reshape(-1), recv, indptr
    )

    expected_hist = Counter()
    for row in range(B):
        rng = frame_generator(spec.seed, spec.point_index, spec.frame_lo + row)
        graph = sample_frame(cfg, rng)
        slot_sets = [
            frozenset(es[indptr[row * m + u] : indptr[row * m + u + 1]].tolist())
            for u in range(m)
        ]
        assert slot_sets == [u.slots for u in graph.users]
        assert orig[row].tolist() == [u.original_degree for u in graph.users]
        outcome = peel(graph)
        assert resolved[row].tolist() == list(outcome.resolved)
        expected_hist.update(classify(c) for c in components(outcome.residual))
    assert +hist == expected_hist


def test_sampler_blocks_and_spare_overflow_match_reference(monkeypatch):
    """Every user degree 3 in 4 slots: most rows repeat a slot and many frames
    redraw past their buffer row's spare. With eps > 0 and a chunk of three
    sampler blocks, frames on both sides of each block boundary and every
    frame that outran the spare must be the reference draw."""
    dist = DegreeDistribution((0.0, 0.0, 0.0, 1.0))
    m, n, eps = 5, 4, 0.2
    frame_lo, B = 1000, 2 * SAMPLE_BLOCK_FRAMES + 7
    spec = _ChunkSpec(dist.probs, n, m, eps, 2**64 - 3, 2, frame_lo, frame_lo + B, "original")

    fills = []  # (frame, words) of every row the sampler draws
    fill = harness._FrameStreams.fill

    def recording_fill(self, frame, out):
        fills.append((frame, out.size))
        return fill(self, frame, out)

    monkeypatch.setattr(harness._FrameStreams, "fill", recording_fill)
    orig, recv, ef, eu, es = _sample_chunk(spec)

    row_words = min(words for _, words in fills)
    overflowed = {frame - frame_lo for frame, words in fills if words > row_words}
    assert overflowed, "no frame outran the spare"
    boundaries = {0, B - 1}
    for k in range(1, B // SAMPLE_BLOCK_FRAMES + 1):
        boundaries |= {k * SAMPLE_BLOCK_FRAMES - 1, k * SAMPLE_BLOCK_FRAMES}

    indptr = np.concatenate(([0], np.cumsum(recv.reshape(-1))))
    cfg = FrameConfig(m=m, n=n, dist=dist, channel=ChannelModel(eps))
    for row in sorted(boundaries | overflowed):
        graph = sample_frame(cfg, frame_generator(spec.seed, spec.point_index, frame_lo + row))
        users = range(row * m, (row + 1) * m)
        assert [frozenset(es[indptr[g] : indptr[g + 1]].tolist()) for g in users] == [
            u.slots for u in graph.users
        ]
        assert (ef[indptr[row * m] : indptr[(row + 1) * m]] == row).all()
        assert orig[row].tolist() == [u.original_degree for u in graph.users]
        assert recv[row].tolist() == [u.received_degree for u in graph.users]
