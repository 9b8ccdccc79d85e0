import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binomtest

from csa_floor import harness
from csa_floor.decoder import DegreeKeying
from csa_floor.distributions import ChannelModel, DomainError, parse_distribution, validate
from csa_floor.frame_model import SlotCountTooSmall, round_half_up
from csa_floor.harness import (
    CHUNK_FRAMES,
    CSV_HEADER,
    HISTOGRAM_KEYS,
    SAMPLE_WORDS,
    PlanError,
    SweepPlan,
    _ChunkSpec,
    _FrameStreams,
    _block_frames,
    _chunk_specs,
    _classify_residuals,
    _peel_chunk,
    _run_chunk,
    _sample_chunk,
    confidence_interval,
    csv_lines,
    frame_generator,
    run_sweep,
    write_csv,
    write_json,
)
from csa_floor.predictor import floor_lower_bound


def scipy_wilson(successes, trials):
    ci = binomtest(successes, trials).proportion_ci(
        confidence_level=0.95, method="wilson"
    )
    return float(ci.low), float(ci.high)


class TestConfidenceInterval:
    def test_zero_successes_never_degenerate(self):
        est, half = confidence_interval(0, 100)
        assert est == 0.0 and half > 0.0

    def test_half_successes(self):
        est, half = confidence_interval(50, 100)
        lo, hi = scipy_wilson(50, 100)
        assert est == 0.5
        assert half == pytest.approx((hi - lo) / 2, abs=1e-12)
        assert half == pytest.approx(0.09617, abs=1e-4)

    def test_all_successes_upper_bound_one(self):
        est, half = confidence_interval(100, 100)
        lo, hi = scipy_wilson(100, 100)
        assert est == 1.0 and hi == pytest.approx(1.0)
        assert half == pytest.approx((hi - lo) / 2, abs=1e-12)

    @pytest.mark.parametrize("successes,trials", [(3, 17), (0, 5), (5, 5), (123, 4567)])
    def test_matches_scipy_wilson(self, successes, trials):
        _, half = confidence_interval(successes, trials)
        lo, hi = scipy_wilson(successes, trials)
        assert half == pytest.approx((hi - lo) / 2, abs=1e-12)

    def test_rejects_empty_trials(self):
        with pytest.raises(ValueError):
            confidence_interval(0, 0)


class TestPlanValidation:
    def test_bad_loads(self, ref_dist):
        with pytest.raises(DomainError):
            SweepPlan(dist=ref_dist, n=200, epsilon=0.0, loads=(0.0,), frames=10)
        with pytest.raises(DomainError):
            SweepPlan(dist=ref_dist, n=200, epsilon=0.0, loads=(2.5,), frames=10)

    def test_bad_frames(self, ref_dist):
        with pytest.raises(PlanError):
            SweepPlan(dist=ref_dist, n=200, epsilon=0.0, loads=(0.5,), frames=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, ref_dist, seed):
        # a masked seed would silently reuse another seed's streams
        with pytest.raises(PlanError, match="seed"):
            SweepPlan(dist=ref_dist, n=200, epsilon=0.0, loads=(0.5,), frames=10, seed=seed)

    def test_frame_shorter_than_catalog_rejected(self):
        # the analytic overlay's beta formulas need 4 slots; the plan must
        # fail before any frame is simulated, not after all of them
        with pytest.raises(SlotCountTooSmall, match="need n >= 4"):
            SweepPlan(dist=parse_distribution("2:1.0"), n=3, epsilon=0.0, loads=(0.6,), frames=400_000)

    def test_load_rounding_to_zero_users(self, ref_dist):
        with pytest.raises(DomainError, match="zero users"):
            SweepPlan(dist=ref_dist, n=9, epsilon=0.0, loads=(0.05,), frames=10)

    @pytest.mark.parametrize("n", [8, 9])
    def test_rows_needing_many_redraws_rejected(self, n):
        # 415 and 118 expected redraws per degree-8 row; the sampler crawls
        with pytest.raises(PlanError, match="redraws"):
            SweepPlan(dist=parse_distribution("8:1.0"), n=n, epsilon=0.0, loads=(0.5,), frames=10)

    def test_rows_below_redraw_limit_admitted(self):
        # 54 expected redraws per degree-8 row at n = 10
        plan = SweepPlan(dist=parse_distribution("8:1.0"), n=10, epsilon=0.0, loads=(0.5,), frames=10)
        assert run_sweep(plan)[0].frames == 10

    def test_frame_too_large_for_packed_user_ids_rejected(self):
        # 4096 frames of 524288 users: 2**31 global user ids in one chunk
        with pytest.raises(PlanError, match="users in a frame"):
            SweepPlan(dist=parse_distribution("3:1.0"), n=262144, epsilon=0.0, loads=(2.0,), frames=4096)

    def test_largest_frame_for_packed_user_ids_admitted(self):
        plan = SweepPlan(dist=parse_distribution("3:1.0"), n=262143, epsilon=0.0, loads=(2.0,), frames=4096)
        assert plan.n == 262143

    def test_block_too_large_for_int32_slot_codes_rejected(self):
        # a frame of 2**31 slots: its slot codes leave the plan's uint32 bound
        with pytest.raises(PlanError, match="slot codes"):
            SweepPlan(dist=parse_distribution("3:1.0"), n=2**31, epsilon=0.0, loads=(1e-4,), frames=1)

    @pytest.mark.parametrize(
        "n, frames", [(2**22 - 1, 4096), (2**22, 256), (2**22, 4096), (2**31 - 1, 1)]
    )
    def test_largest_block_for_int32_slot_codes_admitted(self, n, frames):
        # blocks shrink as n grows, so every admitted plan's blocks keep
        # their block-local slot codes below 2**31
        for load in (1e-6, 0.1):
            plan = SweepPlan(dist=parse_distribution("3:1.0"), n=n, epsilon=0.0, loads=(load,), frames=frames)
            for spec in _chunk_specs(plan):
                block = _block_frames(spec)
                assert block >= 1 and block * n < 2**31, (load, block)

    def test_round_half_up(self):
        assert round_half_up(22.5) == 23
        assert round_half_up(89.9999) == 90
        assert round_half_up(40.0) == 40


class TestFrameGenerator:
    def test_streams_reproducible_and_distinct(self):
        a = frame_generator(7, 1, 123).random(8)
        b = frame_generator(7, 1, 123).random(8)
        c = frame_generator(7, 1, 124).random(8)
        d = frame_generator(7, 2, 123).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    @pytest.mark.parametrize("frame", [2**40 + 3, 2**63 + 5, 2**64 - 1])
    def test_repositioned_stream_matches_frame_generator(self, frame):
        # a fill of another frame leaves the Philox buffer and counter moved
        streams = _FrameStreams(7, 2)
        streams.fill(frame - 1, np.empty(1001))
        got = streams.at(frame).random(9)
        assert np.array_equal(got, frame_generator(7, 2, frame).random(9))
        streams.at(5).integers(0, 2**31, 3, dtype=np.uint32)  # a pending half word
        assert np.array_equal(streams.fill(frame, np.empty(9)), got)

    def test_seed_outside_64_bits_rejected(self):
        # seed 2**64 at point 0 would otherwise be seed 0 at point 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                frame_generator(seed, 0, 0)


@pytest.fixture(scope="module")
def small_rows():
    dist = parse_distribution("2:0.5,3:0.5")
    plan = SweepPlan(
        dist=dist, n=40, epsilon=0.1, loads=(0.3, 0.6), frames=4000, seed=5
    )
    return plan, run_sweep(plan)


class TestRunSweep:
    def test_conservation(self, small_rows):
        plan, rows = small_rows
        for row in rows:
            assert sum(row.totals) == row.frames * row.m
            assert all(u <= t for u, t in zip(row.unresolved, row.totals))

    def test_m_follows_rounding_rule(self, small_rows):
        _, rows = small_rows
        assert rows[0].m == 12 and rows[1].m == 24

    def test_histogram_keys_complete(self, small_rows):
        _, rows = small_rows
        for row in rows:
            assert set(row.histogram) == set(HISTOGRAM_KEYS)
            assert row.histogram_rates["S5"] == row.histogram["S5"] / row.frames

    def test_simulated_average_respects_erasure_floor(self, small_rows):
        plan, rows = small_rows
        bound = floor_lower_bound(plan.dist, ChannelModel(plan.epsilon))
        for row in rows:
            assert row.avg_sim >= bound - 3 * row.avg_ci95

    def test_degree0_users_unresolved_under_induced_keying(self, small_rows):
        _, rows = small_rows
        for row in rows:
            assert row.unresolved[0] == row.totals[0]
            assert row.plr_analytic[0] == 1.0

    def test_json_roundtrip(self, small_rows, tmp_path):
        _, rows = small_rows
        path = tmp_path / "rows.json"
        write_json(rows, str(path))
        payload = json.loads(path.read_text())
        assert len(payload) == 2
        assert payload[0]["m"] == 12
        assert payload[0]["histogram"].keys() == payload[0]["histogram_rates"].keys()

    def test_original_keying_attributes_erased_users_to_drawn_degree(self):
        dist = parse_distribution("2:1.0")
        common = dict(dist=dist, n=30, epsilon=0.4, loads=(0.4,), frames=3000, seed=8)
        induced_row = run_sweep(SweepPlan(keying=DegreeKeying.INDUCED, **common))[0]
        original_row = run_sweep(SweepPlan(keying=DegreeKeying.ORIGINAL, **common))[0]
        # all users drew degree 2, so original keying empties every other bin
        assert sum(original_row.totals) == original_row.totals[2]
        assert induced_row.totals[0] > 0  # erasures produce degree-0 receptions
        # total unresolved counts agree between keyings
        assert sum(induced_row.unresolved) == sum(original_row.unresolved)
        # user-perspective analytics accompany original keying
        assert original_row.plr_analytic[2] >= induced_row.plr_analytic[2]

    @pytest.mark.parametrize("eps", [0.0, 0.03])
    def test_chunk_records_sum_to_rows(self, ref_dist, eps):
        # two loads of two chunks each, the second one partial
        plan = SweepPlan(dist=ref_dist, n=50, epsilon=eps, loads=(0.5, 0.9), frames=5000, seed=4)
        width = 2 * (ref_dist.q + 1) + len(HISTOGRAM_KEYS)
        sums = np.zeros((len(plan.loads), width), dtype=np.int64)
        for spec in _chunk_specs(plan):
            point_index, record = _run_chunk(spec)
            assert record.dtype == np.int64 and record.shape == (width,)
            sums[point_index] += record
        rows = run_sweep(plan)
        for counts, row in zip(sums.tolist(), rows):
            assert counts == [*row.totals, *row.unresolved, *(row.histogram[k] for k in HISTOGRAM_KEYS)]
        assert rows[1].histogram["Other"] > 0 and (rows[0].histogram["Degree0"] > 0) == (eps > 0.0)

    def test_four_user_s3_components_counted(self):
        # S3 (a degree-3 user covered by three degree-1 users) is the largest
        # catalog structure; rho(S3) is about 0.056 per frame here
        dist = parse_distribution("1:0.5,2:0.2,3:0.3")
        plan = SweepPlan(dist=dist, n=20, epsilon=0.0, loads=(0.6,), frames=2000, seed=7)
        assert run_sweep(plan)[0].histogram["S3"] > 0


class TestDeterminism:
    def test_one_chunk_plan_runs_in_process(self, ref_dist, monkeypatch):
        # the pool is sized to min(workers, chunks): one chunk opens none
        import multiprocessing

        def no_pool(*args):
            raise AssertionError("run_sweep opened a process pool")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        plan = SweepPlan(dist=ref_dist, n=50, epsilon=0.03, loads=(0.5,), frames=200, seed=4, workers=8)
        assert run_sweep(plan)[0].frames == 200

    def test_csv_bytes_identical_across_worker_counts(self, ref_dist, tmp_path):
        blobs = []
        for workers in (1, 4, 8):
            path = tmp_path / f"out_{workers}.csv"
            plan = SweepPlan(
                dist=ref_dist,
                n=50,
                epsilon=0.03,
                loads=(0.2, 0.5),
                frames=2500,
                seed=99,
                workers=workers,
                out_csv=str(path),
            )
            run_sweep(plan)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize(
        "epsilon,keying,csv_sha256,json_sha256",
        [
            (
                0.0,
                DegreeKeying.INDUCED,
                "ab8b10faa4bdcd026b66bf7e180dd086f66eecf78d73b87ce3b84aad325656e2",
                "8a1b820dd8410daab243d0f4d672f473a6f7f9df6e7d58b5a6c5dbd336ed679b",
            ),
            (
                0.03,
                DegreeKeying.ORIGINAL,
                "bf610d9d67b4532c9b28689b9b19497de77ca36df4fdbddf8679ad926623849d",
                "8db0854c00926e1bdfb42f6e30f6a812b6241dcdc9129f1eb7dc278ee6ea51b5",
            ),
        ],
    )
    def test_multi_block_bytes_pinned(self, ref_dist, tmp_path, epsilon, keying, csv_sha256, json_sha256):
        # two to eight blocks per load, the last one partial
        csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
        plan = SweepPlan(
            dist=ref_dist,
            n=200,
            epsilon=epsilon,
            loads=(0.2, 0.5),
            frames=1031,
            seed=20141209,
            keying=keying,
            out_csv=str(csv_path),
            out_json=str(json_path),
        )
        run_sweep(plan)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha256
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == json_sha256

    def test_multi_block_waterfall_bytes_pinned(self, ref_dist, tmp_path):
        # seven blocks per load in the waterfall, where every block keeps
        # residual components for the peel and the labeller to carry
        csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
        plan = SweepPlan(
            dist=ref_dist,
            n=200,
            epsilon=0.0,
            loads=(0.8, 0.9),
            frames=1031,
            seed=20141209,
            keying=DegreeKeying.INDUCED,
            out_csv=str(csv_path),
            out_json=str(json_path),
        )
        run_sweep(plan)
        assert (
            hashlib.sha256(csv_path.read_bytes()).hexdigest()
            == "ad674b5adccf23ee73d23b7c214302b6870c58aec2641a9723538e994cdb6e37"
        )
        assert (
            hashlib.sha256(json_path.read_bytes()).hexdigest()
            == "31287bd48acf47762230d8c19b427529a74eadb124f8ec065e684b73609ddcb1"
        )

    def test_rerun_identical(self, ref_dist):
        plan = SweepPlan(
            dist=ref_dist, n=60, epsilon=0.0, loads=(0.4,), frames=1500, seed=3
        )
        assert csv_lines(run_sweep(plan)) == csv_lines(run_sweep(plan))


class TestCsvFormat:
    def test_header_and_shape(self, ref_dist, tmp_path):
        plan = SweepPlan(
            dist=ref_dist, n=30, epsilon=0.0, loads=(0.5,), frames=300, seed=1
        )
        rows = run_sweep(plan)
        lines = csv_lines(rows)
        assert lines[0] == CSV_HEADER
        assert lines[0] == "g,m,n,frames,degree,plr_sim,ci95,plr_analytic,keying"
        assert len(lines) == 1 + (ref_dist.q + 2)  # degrees 0..8 plus avg
        first = lines[1].split(",")
        assert first[:5] == ["0.5", "15", "30", "300", "0"]
        assert first[-1] == "induced"
        avg = lines[-1].split(",")
        assert avg[4] == "avg"

    def test_nine_significant_digits(self):
        dist = validate([0, 0, 1.0])
        plan = SweepPlan(
            dist=dist, n=20, epsilon=0.0, loads=(1 / 3,), frames=100, seed=1
        )
        lines = csv_lines(run_sweep(plan))
        assert lines[1].startswith("0.333333333,7,20,100,0,")

    def test_write_csv_trailing_newline(self, ref_dist, tmp_path):
        plan = SweepPlan(
            dist=ref_dist, n=30, epsilon=0.0, loads=(0.5,), frames=100, seed=1
        )
        path = tmp_path / "out.csv"
        write_csv(run_sweep(plan), str(path))
        text = path.read_text()
        assert text.endswith("\n") and text.splitlines()[0] == CSV_HEADER


class TestSimulationAgainstAnalytics:
    def test_error_floor_agreement_on_small_configuration(self):
        # light version of the flagship comparison: pure degree-2 traffic at
        # low load fails almost only through slot-pair collisions (S5)
        dist = validate([0, 0, 1.0])
        plan = SweepPlan(
            dist=dist, n=100, epsilon=0.0, loads=(0.1,), frames=60_000, seed=77
        )
        row = run_sweep(plan)[0]
        assert row.plr_sim[2] == pytest.approx(row.plr_analytic[2], rel=0.35)
        assert row.histogram["S5"] > 0


def _extra_traced_bytes(kernel, *args):
    """Working memory of one kernel call: the traced peak, less what was
    traced at entry and the arrays it returns."""
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        out = kernel(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # at eps = 0 the sampler returns one degree array as both orig and recv
    distinct = {id(a): a for a in out}.values() if isinstance(out, tuple) else ()
    return peak - entry - sum(a.nbytes for a in distinct), out


@pytest.mark.parametrize("n", [200, 1000])
def test_decode_working_memory_bounded_by_block(ref_dist, n):
    """Past the threshold every frame keeps a residual. The peel and the
    labeller run each block on state sized to the block, whose frames fit
    SAMPLE_WORDS words, so their working memory stays under three times
    those words' bytes at any n and block count. Blocks of a fixed 512
    frames need about 25 and 50 MB more at n = 1000, and state sized to the
    chunk grows with its frames."""
    m = round_half_up(0.9 * n)
    for frames in (512, 2048):
        spec = _ChunkSpec(ref_dist.probs, n, m, 0.0, 5, 0, 0, frames, "induced")
        block = _block_frames(spec)
        orig, recv, codes = _sample_chunk(spec)
        extra, (resolved, block_edges) = _extra_traced_bytes(_peel_chunk, frames, m, n, codes, recv, block)
        assert extra < 3 * SAMPLE_WORDS * 8, ("peel", frames, extra)
        indptr = np.concatenate(([0], np.cumsum(recv.reshape(-1))))
        bounds = [*range(0, frames, block), frames]
        assert block_edges.tolist() == indptr[np.array(bounds) * m].tolist()
        extra, _ = _extra_traced_bytes(
            _classify_residuals, frames, m, n, codes, recv, block_edges, resolved.reshape(-1), block
        )
        assert extra < 3 * SAMPLE_WORDS * 8, ("classify", frames, extra)


def test_waterfall_chunk_peak_memory(ref_dist):
    """One 4096-frame chunk at the waterfall point (n = 200, g = 0.9), whose
    edge array is the largest of the flagship points, stays under 9 MB of
    traced memory from sampling to its record, about 7 MB with one byte per
    edge."""
    n = 200
    spec = _ChunkSpec(ref_dist.probs, n, round_half_up(0.9 * n), 0.0, 3, 0, 0, CHUNK_FRAMES, "induced")
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        _run_chunk(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - entry < 9e6, peak - entry


@pytest.mark.parametrize("n", [200, 1000, 5000])
@pytest.mark.parametrize("g, eps", [(0.005, 0.0), (0.1, 0.03), (0.9, 0.0), (2.0, 0.3)])
def test_block_fits_sample_words_by_row_and_by_slots(ref_dist, n, g, eps):
    """A block's sampler rows and its slots both fit SAMPLE_WORDS words, so
    at tiny loads, where a frame's row is narrower than its n slots, the
    peel's per-slot state stays at most SAMPLE_WORDS int64s."""
    m = round_half_up(g * n)
    spec = _ChunkSpec(ref_dist.probs, n, m, eps, 5, 0, 0, 4096, "induced")
    width = harness._first_words(ref_dist.q, m, eps) + harness._spare_words(ref_dist.probs, n, m)
    block = _block_frames(spec)
    assert block * n <= SAMPLE_WORDS and (block == 1 or block * width <= SAMPLE_WORDS)
    assert (block + 1) * max(width, n) > SAMPLE_WORDS


def test_chunk_arrays_hold_four_bytes_per_edge_and_per_user(ref_dist):
    """What spans a chunk: one frame-local slot per edge, a byte each at
    n = 200, and the two int16 degree matrices, whatever the block count.
    Without erasures the received degrees are the drawn ones, and one matrix
    serves as both."""
    n = 200
    m = round_half_up(0.9 * n)
    frames = 1031
    for eps in (0.0, 0.03):
        spec = _ChunkSpec(ref_dist.probs, n, m, eps, 5, 0, 0, frames, "induced")
        out = _sample_chunk(spec)
        edges = int(out[1].sum())
        assert out[2].size == edges and out[2].dtype == np.uint8
        assert (out[0] is out[1]) == (eps == 0.0)
        distinct = {id(a): a for a in out}.values()
        degree_bytes = 2 if eps == 0.0 else 4  # per user, one or two int16 matrices
        assert sum(a.nbytes for a in distinct) == edges + degree_bytes * frames * m


@pytest.mark.parametrize("n", [200, 1000])
def test_sampler_working_memory_bounded_by_sample_words(ref_dist, n):
    """The sampler holds its chunk's arrays and, at a time, one block of
    about SAMPLE_WORDS uniforms and two slot copies, each at most half the
    uniforms' bytes. So its working memory stays under three times the
    uniforms' bytes at any n and block count; a buffer of 512 frames
    needs 16.8 MB at n = 200 and 77 MB at n = 1000, and a final concatenate
    holds the codes twice."""
    m = round_half_up(0.9 * n)
    for frames in (512, 2048):
        spec = _ChunkSpec(ref_dist.probs, n, m, 0.0, 5, 0, 0, frames, "induced")
        extra, _ = _extra_traced_bytes(_sample_chunk, spec)
        assert extra < 3 * SAMPLE_WORDS * 8, (frames, extra)
