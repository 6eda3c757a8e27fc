"""Tests of the benchmark's own logic (not of the simulator).

    python3 -m pytest perfledger/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.dirname(HERE)
ROOT = os.path.dirname(LEDGER)
sys.path.insert(0, LEDGER)
sys.path.insert(0, os.path.join(ROOT, "src"))

import probe  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from layers import CallRecorder, Spans, StubCache, fresh_device, fresh_offchip, replay  # noqa: E402


# ----------------------------------------------------------------------
# metric arithmetic
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 21)]  # 20 ops
    assert run.tail(values) == (50.0, 10.0)
    values = [float(v) for v in range(100, 0, -1)]  # 100 ops, unsorted
    assert run.tail(values) == (90.0, 90.0)
    pct, value = run.tail([float(v) for v in range(1, 12)])  # 11 ops
    assert value == 1.0 and pct == pytest.approx(100 / 11)


def test_tail_needs_more_than_ten_ops():
    assert run.tail([1.0] * 10) == (0.0, 0.0)
    assert run.tail([]) == (0.0, 0.0)


def test_end_to_end_metrics_from_fixed_op_times():
    ref = probe.REFERENCE_S
    result = {
        "op_s": [0.3, 0.1, 0.2, 0.4],
        "probe_s": [ref] * 5,
        "records": 1000,
        "peak_rss_mb": 50.5,
    }
    metrics = run.end_to_end([2.0, 1.0, 3.0, 2.5, 1.5], result)
    assert metrics == {
        "setup_s": pytest.approx(2.0),
        "peak_rss_mb": 50.5,
        "op_ms_p50": pytest.approx(250.0),
        "records_per_s": pytest.approx(1000.0),
    }
    spec_names = [m["name"] for m in run.load_spec()["end_to_end"]]
    assert sorted(metrics) == sorted(spec_names)


def test_each_op_is_normalized_by_the_probes_around_it():
    ref = probe.REFERENCE_S
    slow = 2.0 ** probe.HOST_EXPONENT  # a host whose probe takes twice as long
    # The host is 2x slower (by the probe) for the last two ops and, by
    # the median probe, over set-up: normalized, every op takes 0.1 s
    # and set-up 1 s.
    between = 1 / probe.host_factor(1.5 * ref)  # op 1 sits between probes ref and 2 ref
    result = {
        "op_s": [0.1, 0.1 * between, 0.1 * slow, 0.1 * slow],
        "probe_s": [ref, ref, 2 * ref, 2 * ref, 2 * ref],
        "records": 400,
        "peak_rss_mb": 50.5,
    }
    assert run.normalized_ops(result) == pytest.approx([0.1, 0.1, 0.1, 0.1])
    metrics = run.end_to_end([slow, slow, slow], result)
    assert metrics["op_ms_p50"] == pytest.approx(100.0)
    assert metrics["records_per_s"] == pytest.approx(1000.0)
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert probe.host_factor(ref) == 1.0
    assert probe.probe() > 0


def test_per_layer_reports_every_metric_and_tracing_overhead():
    result = {
        "op_s": [0.1] * 6,
        "traced_op_s": [0.12] * 6,
        "probe_s": [0.02] * 7,
        "traced_probe_s": [0.03] * 6,
        "records_per_op": 500,
        "gc_per_op": 1.5,
        "layers": {"harness.runner.build_ms": 4.0},
    }
    names = [m["name"] for m in run.load_spec()["per_layer"]]
    values = run.per_layer(names, result, warmup_ops=1)
    assert list(values) == names
    assert values["ops"] == 12
    assert values["host.reference_ms"] == pytest.approx(20.0)  # median of 13 probes
    assert values["tracing_overhead_ms"] == pytest.approx(20.0)
    assert values["op_ms_tail_pct"] == pytest.approx(100 * 2 / 12)
    assert values["harness.runner.build_ms"] == 4.0
    assert values["mrc.dse_sim_ms"] == 0.0  # not exercised here


def test_spread_is_iqr_over_median():
    assert run.spread([10.0] * 10) == 0.0
    assert run.spread([8.0, 9.0, 10.0, 11.0, 12.0] * 2) > 0.1


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class _FakeWorkload:
    def __init__(self, outputs):
        self.outputs = outputs

    def key(self, k):
        return "1"

    def op(self, k):
        out = self.outputs[k]
        if isinstance(out, Exception):
            raise out
        return 10, out


def test_perturbed_stats_count_as_failed_op():
    good = {"hit_rate": 0.5, "records": 10, "global_state": (3, 8)}
    bad = dict(good, hit_rate=0.5000001)
    expected = {"1": workloads.digest(good)}
    tally = worker.Tally(
        _FakeWorkload([good, bad, RuntimeError("boom")]), expected, probed=False
    )
    assert tally.run(tally.workload.op, 0) is True
    assert tally.run(tally.workload.op, 1) is False
    assert tally.run(tally.workload.op, 2) is False
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.records == 20  # the exception's op has no records
    assert "digest" in tally.errors[0] and "boom" in tally.errors[1]


def test_digest_is_canonical():
    assert workloads.digest({"a": 1, "b": (1, 2)}) == workloads.digest({"b": [1, 2], "a": 1})
    assert workloads.digest({"a": 1.0}) != workloads.digest({"a": 1.0000000001})


# ----------------------------------------------------------------------
# stubs and recorders
# ----------------------------------------------------------------------
def _small_trace(accesses_per_core=300):
    from repro.harness.runner import ExperimentSetup

    setup = ExperimentSetup(accesses_per_core=accesses_per_core, seed=3)
    return setup, setup.trace_records("Q8")


def test_stub_cache_completes_a_drive(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    from repro.harness.runner import drive_cache

    _, trace = _small_trace()
    stub = StubCache()
    result = drive_cache(stub, trace, streams=4, warmup=len(trace) // 2)
    assert result.accesses == len(trace) == stub.accesses


def test_stub_cache_completes_a_multiprogrammed_run():
    from repro.cores.multiprog import MultiProgramRunner
    from repro.workloads.mixes import get_mix

    runner = MultiProgramRunner(get_mix("Q7"), StubCache, accesses_per_core=200, seed=2)
    mp = runner.run_multiprogrammed()
    assert sum(c.reads + c.writes for c in mp.cores) == 4 * 200
    assert mp.cache.accesses == 4 * 200


def _recorded_drive(scheme):
    from repro.harness.runner import build_cache, drive_cache

    setup, trace = _small_trace()

    def build():
        return build_cache(scheme, setup.system, scale=setup.scale)

    plain = drive_cache(build(), trace, streams=4)
    with CallRecorder() as recorder:
        cache = build()
        recorded = drive_cache(cache, trace, streams=4)
    assert recorded.to_dict() == plain.to_dict()  # recording changes nothing
    return setup, trace, recorder, cache


def _replayed_device(recorder, cache):
    device = fresh_device(cache.geometry)
    replay(device, recorder.device_stream(cache))
    return device


def _replayed_offchip(recorder, cache, setup):
    offchip = fresh_offchip(setup.system)
    replay(offchip, recorder.offchip_stream(cache))
    return offchip


def _device_counts(device):
    return device.reads, device.writes, device.total_activations()


def _offchip_counts(offchip):
    return offchip.reads, offchip.writes, offchip.device.bytes_transferred


def test_call_recorder_replays_alloy_exactly(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    from repro.dram.device import DRAMDevice

    original = DRAMDevice.read_fast
    setup, trace, recorder, cache = _recorded_drive("alloy")
    assert DRAMDevice.read_fast is original  # unpatched on exit
    assert len(recorder.device_stream(cache)) >= len(trace)
    device = _replayed_device(recorder, cache)
    assert _device_counts(device) == _device_counts(cache.dram)
    offchip = _replayed_offchip(recorder, cache, setup)
    assert _offchip_counts(offchip) == _offchip_counts(cache.offchip)


def test_call_recorder_on_bimodal(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    setup, _, recorder, cache = _recorded_drive("bimodal")
    names = {name for name, _, _ in recorder.offchip_stream(cache)}
    assert {"read_fast", "device.read_fast"} <= names  # demand reads and fill tails
    offchip = _replayed_offchip(recorder, cache, setup)
    assert _offchip_counts(offchip) == _offchip_counts(cache.offchip)
    # Locator-hit data reads are inlined into the bimodal kernel and
    # reach the device without a call, so the replay has fewer reads.
    device = _replayed_device(recorder, cache)
    assert 0 < device.reads < cache.dram.reads


def test_spans_nest_and_self_time():
    spans = Spans()
    with spans.span("op"):
        with spans.span("child"):
            pass
    op, child = spans.records
    assert child["parent"] == 0 and op["parent"] is None
    assert spans.self_time(0) == pytest.approx(
        (op["end"] - op["start"]) - (child["end"] - child["start"])
    )


# ----------------------------------------------------------------------
# isolation and inputs
# ----------------------------------------------------------------------
def test_pinned_env_drops_simulator_knobs():
    base = {
        "REPRO_BACKEND": "vectorized",
        "REPRO_JOBS": "4",
        "REPRO_TRACE_CACHE": "0",
        "REPRO_TRACE_CACHE_DIR": "/somewhere/warm",
        "REPRO_TRACE_CACHE_MB": "1",
        "REPRO_PROFILE": "1",
        "REPRO_FAULT_INJECT": "raise",
        "REPRO_CELL_RETRIES": "3",
        "REPRO_CHAOS": "disk",
        "PYTHONPATH": "/elsewhere",
        "HOME": "/home/x",
    }
    env = run.pinned_env(base, "/checkout", "/checkout/.perfledger-runs/x/traces")
    assert env == {
        "HOME": "/home/x",
        "PYTHONPATH": os.path.join("/checkout", "src"),
        "REPRO_TRACE_CACHE_DIR": "/checkout/.perfledger-runs/x/traces",
    }


def test_every_input_has_an_expected_digest():
    with open(worker.EXPECTED) as fh:
        expected = json.load(fh)
    for seed in range(-3, 200):
        assert str(workloads.input_seed(seed)) in expected["drive_bimodal"]
        assert str(workloads.input_seed(seed)) in expected["antt_alloy"]
        keys = [workloads.request_seed(seed, k) for k in range(workloads.ServiceDse.max_ops + 1)]
        assert len(set(keys)) == len(keys)  # no request repeats within a run
        assert all(str(key) in expected["service_dse"] for key in keys)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(LEDGER, tmp_path / "perfledger", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfledger/run.py", "--workload", "drive_bimodal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
