"""Tests of the benchmark's own gates: golden digests, invariants, tracing."""

from __future__ import annotations

import dataclasses
import math

import pytest

import run
import workloads
from csa_floor import harness
from tracing import Span, Tracer, patched, percentile, tail_percentile


@pytest.fixture(scope="module")
def floor_outputs(tmp_path_factory):
    golden = workloads.load_golden()
    out_dir = tmp_path_factory.mktemp("golden")
    return golden, list(workloads.golden_outputs("sweep_floor", golden, out_dir))


def test_golden_digests_match(floor_outputs):
    golden, outputs = floor_outputs
    checks = workloads.Checks()
    for (_, _, csv_bytes, json_bytes), want in zip(outputs, golden["sweeps"]["sweep_floor"]):
        workloads.check_digest(checks, csv_bytes, want["csv_sha256"], "csv")
        workloads.check_digest(checks, json_bytes, want["json_sha256"], "json")
    assert checks.attempted == 4 and not checks.failures


@pytest.mark.parametrize("kind", ["csv", "json"])
def test_gate_rejects_one_byte_change(floor_outputs, kind):
    golden, outputs = floor_outputs
    for (_, _, csv_bytes, json_bytes), want in zip(outputs, golden["sweeps"]["sweep_floor"]):
        data = bytearray(csv_bytes if kind == "csv" else json_bytes)
        data[len(data) // 2] ^= 1
        checks = workloads.Checks()
        workloads.check_digest(checks, bytes(data), want[f"{kind}_sha256"], kind)
        assert len(checks.failures) == 1


def test_sweep_invariants(floor_outputs):
    _, outputs = floor_outputs
    plan, rows = outputs[1][:2]
    checks = workloads.Checks()
    workloads.check_sweep(checks, plan, rows)
    assert checks.attempted > 0 and not checks.failures

    bad = dataclasses.replace(rows[0], unresolved=(rows[0].totals[0] + 1,) + rows[0].unresolved[1:])
    checks = workloads.Checks()
    workloads.check_sweep(checks, dataclasses.replace(plan, out_csv=None, out_json=None), [bad])
    assert any("outside [0, totals" in f for f in checks.failures)


def test_optimize_invariants():
    result = workloads.run_optimize(seed=3, rep=0, budget=6)
    checks = workloads.Checks()
    workloads.check_optimize(checks, result, 6)
    assert not checks.failures
    checks = workloads.Checks()
    workloads.check_optimize(checks, dataclasses.replace(result, best_score=0.0), 6)
    assert len(checks.failures) == 2


def test_threshold_reference_matches_known_value():
    assert workloads.threshold_reference((0.0, 0.0, 1.0)) == pytest.approx(0.5, abs=1e-5)


def test_missing_layer_fails_loudly(monkeypatch):
    sample = harness._sample_chunk
    monkeypatch.delattr(harness, "_peel_chunk")
    with pytest.raises(LookupError, match="_peel_chunk"):
        with patched(Tracer(), run.trace_targets()):
            pass
    assert harness._sample_chunk is sample


def test_closure_detects_overlapping_spans():
    tracer = Tracer()
    tracer.spans = [Span("root", 0.0, 10.0, None), Span("a", 1.0, 3.0, 0), Span("b", 4.0, 5.0, 0)]
    assert tracer.self_seconds("root", ("a", "b")) == 7.0
    assert tracer.closure_error("root", ("a", "b")) == 0.0
    tracer.spans[2] = Span("b", 2.0, 5.0, 0)
    assert tracer.closure_error("root", ("a", "b")) == pytest.approx(0.1)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(5) == 50.0
    values = [float(i) for i in range(1, 1001)]
    assert percentile(values, 99.0) == 990.0
    assert sum(v > percentile(values, 99.0) for v in values) == 10
    assert percentile([], 50.0) == 0.0 and not math.isnan(percentile([1.0], 99.0))
