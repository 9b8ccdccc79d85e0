"""The sweep's chunk kernel against the reference path, frame by frame.

Frame f of load point i is ``sample_frame(cfg, frame_generator(seed, i, f))``.
For every frame of a random chunk, the vectorized sample, peel and classify
stages must reproduce that graph, its ``decoder.peel`` outcome and the
catalog labels of its residual components.
"""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from csa_floor.decoder import peel
from csa_floor.distributions import ChannelModel, DegreeDistribution
from csa_floor.frame_model import FrameConfig, sample_frame
from csa_floor.harness import (
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

