"""The sweep's chunk kernel against the reference path, frame by frame.

Frame f of load point i is ``sample_frame(cfg, frame_generator(seed, i, f))``.
For every frame of a random chunk, the vectorized sample, peel and classify
stages must reproduce that graph, its ``decoder.peel`` outcome and the
catalog labels of its residual components. The residual labeller is also
checked on its own against scipy's connected components.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from csa_floor import harness
from csa_floor.decoder import peel
from csa_floor.distributions import ChannelModel, DegreeDistribution, parse_distribution
from csa_floor.frame_model import FrameConfig, round_half_up, sample_frame
from csa_floor.harness import (
    HISTOGRAM_KEYS,
    _ChunkSpec,
    _block_frames,
    _classify_residuals,
    _component_labels,
    _degrees,
    _has_repeat,
    _peel_chunk,
    _sample_chunk,
    frame_generator,
)
from csa_floor.stopping_sets import classify, components


@st.composite
def chunk_cases(draw):
    """Small chunks whose distributions may put mass on degrees 0 and 1, and
    on degrees up to 9, so the duplicate test sees every column pair."""
    weights = draw(st.lists(st.integers(0, 4), min_size=2, max_size=10).filter(any))
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


def _check_chunk_against_reference(spec, cfg):
    B, m, n = spec.frame_hi - spec.frame_lo, spec.m, spec.n
    block = _block_frames(spec)
    orig, recv, codes = _sample_chunk(spec)
    indptr = np.concatenate(([0], np.cumsum(recv.reshape(-1))))
    _check_frame_local(codes, indptr, n)
    resolved, block_edges = _peel_chunk(B, m, n, codes, recv, block)
    _check_block_edges(block_edges, indptr, m, B, block)
    hist = _class_counts(_classify_residuals(B, m, n, codes, recv, block_edges, resolved.reshape(-1), block))

    expected_hist = Counter()
    for row in range(B):
        rng = frame_generator(spec.seed, spec.point_index, spec.frame_lo + row)
        graph = sample_frame(cfg, rng)
        assert _slot_sets(codes, indptr, m, row) == [u.slots for u in graph.users]
        assert orig[row].tolist() == [u.original_degree for u in graph.users]
        outcome = peel(graph)
        assert resolved[row].tolist() == list(outcome.resolved)
        expected_hist.update(classify(c) for c in components(outcome.residual))
    assert +hist == expected_hist
    return hist, resolved


def _class_counts(hist):
    """``_classify_residuals``' count vector as a Counter of its non-zero
    classes, the form ``stopping_sets.classify`` labels add up to."""
    assert hist.dtype == np.int64 and hist.shape == (len(HISTOGRAM_KEYS),)
    return Counter({key: count for key, count in zip(HISTOGRAM_KEYS, hist.tolist()) if count})


def _check_frame_local(codes, indptr, n):
    """``codes`` are frame-local slots in the narrowest dtype that holds
    ``n - 1``, one per received edge."""
    assert codes.dtype == np.min_scalar_type(n - 1) and codes.size == indptr[-1]
    assert (codes < n).all()


def _check_block_edges(block_edges, indptr, m, B, block):
    """The peel's ``block_edges`` are the cumulative received degrees at
    every block boundary, the chunk's first and last frames included."""
    bounds = [*range(0, B, block), B]
    assert block_edges.tolist() == indptr[np.array(bounds) * m].tolist()


def _slot_sets(codes, indptr, m, row):
    """Each user's slots in frame ``row`` of a chunk, from the frame-local
    codes."""
    return [frozenset(codes[indptr[g] : indptr[g + 1]].tolist()) for g in range(row * m, (row + 1) * m)]


@given(chunk_cases())
def test_chunk_kernel_matches_reference_path(case):
    _check_chunk_against_reference(*case)


def _has_repeat_by_sort(rows, deg, n):
    """Rows whose first ``deg`` slots are not all distinct, by sorting each
    row with its columns past ``deg`` padded by distinct out-of-range slots,
    as ``frame_model.draw_frame`` tests them."""
    q = rows.shape[1]
    valid = np.arange(q) < deg[:, None]
    padded = np.where(valid, rows, np.arange(n, n + q))
    padded.sort(axis=1)
    return (padded[:, 1:] == padded[:, :-1]).any(axis=1)


@st.composite
def slot_rows(draw):
    """Rows of q slots in few slot values, so repeats are common, each with a
    degree from 0 to q; there are frames * m of them, to be viewed as frames."""
    q = draw(st.integers(1, 10))
    n = draw(st.integers(1, q + 2))
    m = draw(st.integers(1, 4))
    frames = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, n - 1), min_size=q, max_size=q)
    rows = draw(st.lists(row, min_size=frames * m, max_size=frames * m))
    deg = draw(st.lists(st.integers(0, q), min_size=frames * m, max_size=frames * m))
    return np.array(rows, dtype=np.int32), np.array(deg, dtype=np.int16), n, frames


@pytest.mark.parametrize(
    "row, deg, repeats",
    [
        ([3, 3, 5, 7], 4, True),  # adjacent columns
        ([3, 5, 7, 3], 4, True),  # first and last columns
        ([1, 2, 3, 4, 5, 6, 7, 8, 9, 5], 10, True),  # columns 4 and 9
        ([3, 5, 3, 3], 2, False),  # repeats only past the degree
        ([3, 5, 7, 3], 3, False),  # column 3 repeats column 0, deg is 3
        ([4, 4, 4], 1, False),
        ([4, 4, 4], 0, False),
        ([1, 2, 3, 4, 5, 6, 7, 8, 9, 1], 9, False),
    ],
)
def test_has_repeat_cases(row, deg, repeats):
    rows = np.array([row], dtype=np.int32)
    deg = np.array([deg], dtype=np.int16)
    assert _has_repeat(rows.T, deg).tolist() == [repeats]
    assert _has_repeat_by_sort(rows, deg, 10).tolist() == [repeats]


@given(slot_rows())
def test_has_repeat_matches_sort(case):
    """The pairwise duplicate test against the sort-based one, on rows given
    as transposed (k, q) rows, as the redraw loop passes them, and as a
    contiguous column-major (q, frames, m) copy, as the first draw does."""
    rows, deg, n, frames = case
    expected = _has_repeat_by_sort(rows, deg, n)
    assert _has_repeat(rows.T, deg).tolist() == expected.tolist()
    q = rows.shape[1]
    by_col = np.ascontiguousarray(rows.reshape(frames, -1, q).transpose(2, 0, 1))
    got = _has_repeat(by_col, deg.reshape(frames, -1))
    assert got.reshape(-1).tolist() == expected.tolist()


@st.composite
def degree_cases(draw):
    """A CDF, possibly with repeated values (degrees of probability zero),
    and uniforms on its values, next to them and in between."""
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=10).filter(any))
    cdf = np.cumsum(np.array(weights) / sum(weights))
    edges = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [0.0]))
    edges = edges[edges < 1.0].tolist() + [np.nextafter(1.0, 0.0)]
    u = draw(st.lists(st.sampled_from(edges) | st.floats(0.0, 1.0, exclude_max=True)))
    return cdf, np.array(u, dtype=np.float64)


def _degrees_by_search(u, cdf):
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


@given(degree_cases())
def test_degrees_match_searchsorted(case):
    cdf, u = case
    deg = _degrees(u, cdf)
    assert deg.dtype == np.int16
    assert deg.tolist() == _degrees_by_search(u, cdf).tolist()


def test_degrees_when_cdf_ends_below_one():
    """Ten probabilities of 0.1 sum to just below 1; a uniform past the last
    CDF entry must still take the largest degree, as the capped
    ``searchsorted`` gives it."""
    cdf = np.cumsum([0.1] * 10)
    assert cdf[-1] < 1.0
    u = np.array([0.0, 0.1, np.nextafter(0.1, 0.0), cdf[-2], cdf[-1], np.nextafter(1.0, 0.0)])
    assert _degrees(u, cdf).tolist() == _degrees_by_search(u, cdf).tolist()
    assert _degrees(u, cdf)[-2:].tolist() == [9, 9]


def test_degrees_with_zero_probability_degrees(ref_dist):
    """The reference mixture's CDF repeats 0 twice and 0.85 five times; the
    degrees must count each repeat."""
    cdf = np.cumsum(ref_dist.probs)
    u = np.array([0.0, 0.2, 0.25, 0.5, 0.85, 0.9])
    assert _degrees(u, cdf).tolist() == [2, 2, 3, 3, 8, 8]


@pytest.mark.parametrize("g", [0.9, 1.0])
def test_large_residual_chunks_match_reference(ref_dist, g):
    """Past the threshold most frames keep a residual of tens to hundreds of
    users, which the labeller must join across many propagation rounds."""
    n, frames = 200, 300
    m = round_half_up(g * n)
    spec = _ChunkSpec(ref_dist.probs, n, m, 0.0, 31, 1, 5000, 5000 + frames, "induced")
    cfg = FrameConfig(m=m, n=n, dist=ref_dist, channel=ChannelModel(0.0))
    hist, _ = _check_chunk_against_reference(spec, cfg)
    assert hist["Other"] > frames // 2


def test_block_boundaries_match_reference(ref_dist):
    """Seven blocks of 149 frames, the last partial, past the threshold:
    every block keeps residual components, which the peel and the labeller
    handle on block-local state from frame-local slots. Frames on both
    sides of each block boundary must match the reference path."""
    n, frames = 200, 1031
    m = round_half_up(0.9 * n)
    spec = _ChunkSpec(ref_dist.probs, n, m, 0.0, 53, 2, 9000, 9000 + frames, "induced")
    cfg = FrameConfig(m=m, n=n, dist=ref_dist, channel=ChannelModel(0.0))
    block = _block_frames(spec)
    assert -(-frames // block) == 7
    hist, resolved = _check_chunk_against_reference(spec, cfg)
    for lo in range(0, frames, block):
        assert not resolved[lo : lo + block].all()
    assert sum(hist[c] for c in hist if c.startswith("S")) > 0


@pytest.mark.parametrize(
    "law, n, g, frames, dtype, top",
    [
        ("2:0.25,3:0.6,8:0.15", 256, 0.9, 8, np.uint8, 255),
        ("2:1.0", 257, 0.9, 300, np.uint16, 256),
        ("1:1.0", 70_000, 0.01, 3, np.uint32, 2**16),
    ],
)
def test_slot_dtype_boundaries_match_reference(law, n, g, frames, dtype, top):
    """The chunk stores each edge's frame-local slot in the narrowest dtype
    that holds n - 1: uint8 up to n = 256, uint16 up to 65536, uint32 above.
    Each chunk draws a slot of at least ``top``, past the next narrower
    dtype, and keeps a residual; its frames share one block, so at n = 256
    and 257 a frame offset added in the slot dtype would wrap (at frame 1
    and frame 255) and join slots of different frames. At n = 70000 degree-1
    users meet in a shared slot about 3.5 times a frame."""
    dist = parse_distribution(law)
    m = round_half_up(g * n)
    spec = _ChunkSpec(dist.probs, n, m, 0.0, 61, 3, 2000, 2000 + frames, "induced")
    cfg = FrameConfig(m=m, n=n, dist=dist, channel=ChannelModel(0.0))
    assert _block_frames(spec) >= frames
    hist, resolved = _check_chunk_against_reference(spec, cfg)
    codes = _sample_chunk(spec)[2]
    assert codes.dtype == dtype and codes.max() >= top
    assert not resolved.all() and sum(hist.values()) > 0


def test_waterfall_chunk_matches_reference(ref_dist):
    """Just below the threshold this chunk peels in about thirty waves, and a
    frame may be fully resolved or keep a large residual."""
    n, frames = 200, 300
    m = round_half_up(0.8 * n)
    spec = _ChunkSpec(ref_dist.probs, n, m, 0.0, 47, 0, 7000, 7000 + frames, "induced")
    cfg = FrameConfig(m=m, n=n, dist=ref_dist, channel=ChannelModel(0.0))
    _, resolved = _check_chunk_against_reference(spec, cfg)
    assert 0 < resolved.sum() < resolved.size
    assert resolved.all(axis=1).any() and not resolved.all(axis=1).all()


def test_packed_slot_state_exact_past_32_bit_index_sums():
    """One frame whose crowded slots 0 and 1 hold users 1..m-2, with index
    sums past 2**32. Slot 3 resolves user 0, which leaves user m-1 alone in
    slot 2; its index must come back exactly from the low bits, and the
    crowded slots must never look like singletons."""
    n, m = 4, 100_001
    slots = [(2, 3)] + [(0, 1)] * (m - 2) + [(2,)]
    recv = np.array([[len(s) for s in slots]], dtype=np.int16)
    codes = np.array([s for row in slots for s in row], dtype=np.int32)
    assert sum(range(1, m - 1)) > 2**32

    resolved, block_edges = _peel_chunk(1, m, n, codes, recv, 1)
    expected = np.zeros((1, m), dtype=bool)
    expected[0, [0, m - 1]] = True
    assert np.array_equal(resolved, expected)
    _check_block_edges(block_edges, np.concatenate(([0], np.cumsum(recv))), m, 1, 1)
    hist = _class_counts(_classify_residuals(1, m, n, codes, recv, block_edges, resolved.reshape(-1), 1))
    assert hist == {"Other": 1}  # users 1..m-2, all joined through slots 0 and 1


def test_catalog_look_alikes_classified_as_other():
    """One frame with the S6 and S7 look-alikes, whose users per degree are
    S6's and S7's but whose slots are one fewer, beside a true S6 and S7.
    No slot is a singleton, so all four components stay whole."""
    n = 12
    slots = [
        (0, 1), (0, 1), (0, 1),  # three degree-2 users on one slot pair
        (2, 3, 4), (2, 3, 4), (2, 3),  # two triples closed inside them
        (5, 6), (6, 7), (5, 7),  # S6
        (8, 10, 11), (9, 10, 11), (8, 9),  # S7
    ]
    m = len(slots)
    recv = np.array([[len(s) for s in slots]], dtype=np.int16)
    codes = np.array([s for row in slots for s in row], dtype=np.int32)
    resolved, block_edges = _peel_chunk(1, m, n, codes, recv, 1)
    assert not resolved.any()
    hist = _class_counts(_classify_residuals(1, m, n, codes, recv, block_edges, resolved.reshape(-1), 1))
    assert hist == {"Other": 2, "S6": 1, "S7": 1}


def _path(length):
    """User i holds slots i and i+1."""
    return [(i, i + 1) for i in range(length)]


def _ladder(length):
    """Rails of slots 2i and 2i+1, one user per rail step and one per rung."""
    rails = [(2 * i + r, 2 * i + 2 + r) for i in range(length) for r in (0, 1)]
    return rails + [(2 * i, 2 * i + 1) for i in range(length + 1)]


def _chain3(length):
    """Degree-3 users, each sharing its last slot with the next one's first."""
    return [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(length)]


def _bipartite(shapes):
    """Disjoint components as (user slot tuples, slot count), slots numbered
    apart."""
    users, base = [], 0
    for slots in shapes:
        users += [tuple(base + s for s in u) for u in slots]
        base += 1 + max(s for u in slots for s in u)
    return users, base


def _edges(users):
    """(slot code, user rank) of every edge; user rank r holds users[r]."""
    u_inv = np.repeat(np.arange(len(users)), [len(slots) for slots in users])
    return np.array([s for slots in users for s in slots]), u_inv


@st.composite
def long_components(draw):
    """Paths, ladders and degree-3 chains with shuffled user ranks and slot
    codes, so the smallest rank may sit anywhere along a long component."""
    shape = st.one_of(
        st.integers(1, 80).map(_path),
        st.integers(1, 25).map(_ladder),
        st.integers(1, 40).map(_chain3),
    )
    users, nslots = _bipartite(draw(st.lists(shape, min_size=1, max_size=4)))
    rank = draw(st.permutations(range(len(users))))
    code = draw(st.permutations(range(2 * nslots)))
    by_rank = [None] * len(users)
    for u, slots in enumerate(users):
        by_rank[rank[u]] = [code[s] for s in slots]
    return by_rank, 2 * nslots


@given(long_components())
def test_component_labels_match_scipy(case):
    users, nslots = case
    nu = len(users)
    rcode, u_inv = _edges(users)
    labels, _ = _component_labels(rcode, u_inv, nu, nslots)

    graph = coo_matrix(
        (np.ones(rcode.size), (u_inv, nu + rcode)), shape=(nu + nslots, nu + nslots)
    )
    _, comp = connected_components(graph, directed=False)
    comp = comp[:nu]
    smallest = np.full(comp.max() + 1, nu)
    np.minimum.at(smallest, comp, np.arange(nu))
    assert labels.tolist() == smallest[comp].tolist()


@pytest.mark.parametrize("shape", [_path(200), _ladder(100), _chain3(200)])
def test_long_chain_with_rising_ranks_settles_in_three_rounds(shape):
    """Ranks rising along a chain: a propagation round points each user at a
    smaller neighbour and pointer jumping carries rank 0 along the whole
    chain, so a round or two moves every label and one more confirms.
    Without jumping the labels move one hop per round."""
    users, nslots = _bipartite([shape])
    labels, rounds = _component_labels(*_edges(users), len(users), nslots)
    assert not labels.any()
    assert rounds <= 3


def test_sampler_blocks_and_spare_overflow_match_reference(monkeypatch):
    """Every user degree 3 in 4 slots: most rows repeat a slot and many frames
    redraw past their buffer row's spare, which hands them to ``draw_frame``.
    With eps > 0 and a budget of 400 buffer rows, a chunk of three blocks,
    every frame, on either side of each block boundary and whichever path
    drew it, must be the reference draw."""
    dist = DegreeDistribution((0.0, 0.0, 0.0, 1.0))
    m, n, eps = 5, 4, 0.2
    frame_lo, B = 1000, 1031
    width = harness._first_words(dist.q, m, eps) + harness._spare_words(dist.probs, n, m)
    monkeypatch.setattr(harness, "SAMPLE_WORDS", 400 * width)
    spec = _ChunkSpec(dist.probs, n, m, eps, 2**64 - 3, 2, frame_lo, frame_lo + B, "original")
    block = _block_frames(spec)
    assert block == 400

    overflowed = []  # frames the sampler takes from the reference draw
    draw_frame = harness.draw_frame

    def recording_draw_frame(rng, *args):
        overflowed.append(int(rng.bit_generator.state["state"]["counter"][2]))
        return draw_frame(rng, *args)

    monkeypatch.setattr(harness, "draw_frame", recording_draw_frame)
    orig, recv, codes = _sample_chunk(spec)
    assert overflowed, "no frame outran the spare"
    assert len(set(overflowed)) == len(overflowed)
    assert all(frame_lo <= f < frame_lo + B for f in overflowed)

    indptr = np.concatenate(([0], np.cumsum(recv.reshape(-1))))
    _check_frame_local(codes, indptr, n)
    resolved, block_edges = _peel_chunk(B, m, n, codes, recv, block)
    _check_block_edges(block_edges, indptr, m, B, block)
    hist = _class_counts(_classify_residuals(B, m, n, codes, recv, block_edges, resolved.reshape(-1), block))

    expected_hist = Counter()
    cfg = FrameConfig(m=m, n=n, dist=dist, channel=ChannelModel(eps))
    for row in range(B):
        graph = sample_frame(cfg, frame_generator(spec.seed, spec.point_index, frame_lo + row))
        assert _slot_sets(codes, indptr, m, row) == [u.slots for u in graph.users]
        assert orig[row].tolist() == [u.original_degree for u in graph.users]
        assert recv[row].tolist() == [len(u.slots) for u in graph.users]
        outcome = peel(graph)
        assert resolved[row].tolist() == list(outcome.resolved)
        expected_hist.update(classify(c) for c in components(outcome.residual))
    assert +hist == expected_hist


def test_sub_blocks_and_code_growth_match_reference(ref_dist, monkeypatch):
    """A word budget of seven buffer rows and a few words splits the chunk
    into blocks of 7 frames and a last one of 5, which the sampler, the peel
    and the labeller all walk, and a capacity of one code makes every block
    grow the code array. With eps > 0, every frame must still be the
    reference draw, peel and classification."""
    n, eps, frames = 60, 0.1, 1034
    m = round_half_up(0.8 * n)
    q = ref_dist.q
    width = harness._first_words(q, m, eps) + harness._spare_words(ref_dist.probs, n, m)
    monkeypatch.setattr(harness, "SAMPLE_WORDS", 7 * width + 5)

    grown, blocks = [], []
    sample_block = harness._sample_block

    def tiny_capacity(probs, eps, users):
        grown.append(users)
        return 1

    def recording_sample_block(streams, frame_lo, B, *args):
        blocks.append(B)
        return sample_block(streams, frame_lo, B, *args)

    monkeypatch.setattr(harness, "_edge_capacity", tiny_capacity)
    monkeypatch.setattr(harness, "_sample_block", recording_sample_block)
    spec = _ChunkSpec(ref_dist.probs, n, m, eps, 11, 1, 3000, 3000 + frames, "original")
    cfg = FrameConfig(m=m, n=n, dist=ref_dist, channel=ChannelModel(eps))
    assert _block_frames(spec) == 7
    _check_chunk_against_reference(spec, cfg)
    assert blocks == [7] * 147 + [5]
    assert len(grown) == 1 + len(blocks)  # the reservation, then every block


def _decoded_chunk(spec):
    """A chunk's sample, peel and classify outputs at its ``_block_frames``,
    with each edge as its (frame, slot) pair, the frame read off the received
    degrees."""
    B, m, n = spec.frame_hi - spec.frame_lo, spec.m, spec.n
    block = _block_frames(spec)
    orig, recv, codes = _sample_chunk(spec)
    resolved, block_edges = _peel_chunk(B, m, n, codes, recv, block)
    hist = _class_counts(_classify_residuals(B, m, n, codes, recv, block_edges, resolved.reshape(-1), block))
    frame = np.repeat(np.arange(B), recv.sum(axis=1))
    return block, orig, recv, frame, codes, resolved, hist


@pytest.mark.parametrize("g, eps", [(0.5, 0.03), (0.9, 0.0)])
def test_block_partition_leaves_chunk_outputs_unchanged(ref_dist, monkeypatch, g, eps):
    """Slot codes never cross a frame, so the block size changes no output:
    one chunk at its own blocks and at blocks of 13 frames must give the same
    degrees, edges (as frame and slot), resolved users and histogram."""
    n, frames = 200, 600
    m = round_half_up(g * n)
    spec = _ChunkSpec(ref_dist.probs, n, m, eps, 97, 1, 4000, 4000 + frames, "original")
    wide = _decoded_chunk(spec)
    width = harness._first_words(ref_dist.q, m, eps) + harness._spare_words(ref_dist.probs, n, m)
    monkeypatch.setattr(harness, "SAMPLE_WORDS", 13 * width)
    narrow = _decoded_chunk(spec)
    assert narrow[0] == 13 < wide[0]
    assert frames % wide[0] and frames % 13  # both partitions end on a partial block
    for a, b in zip(wide[1:-1], narrow[1:-1]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert wide[-1] == narrow[-1]
