"""Benchmark worker: set up one workload, run its closed loop, report.

``run.py`` starts this in a child process with a pinned environment:

    python3 perfledger/worker.py --workload W --seed N --seconds S \\
        --trace 0|1 --phase setup|measure --run-dir DIR [--spans-out FILE]

It prints ``READY`` once set-up is done: imports, trace materialization
into an empty cache, daemon boot, and one untimed warm-up op. In the
``setup`` phase it then stops. In the ``measure`` phase it runs ops,
one at a time, until ``--seconds`` have passed and prints one
``RESULT <json>`` line. Before each timed op, and once after the
last, it prints ``PROBE`` and waits for ``GO <seconds>`` on stdin while
``run.py`` times its host-speed probe (probe.py); ``service_dse`` first
waits for its daemon to go idle, so no daemon work overlaps a probe.
Every op's simulated output is checked against
``expected.json``; a mismatch or an exception counts as a failed op.

With ``--trace 1`` untraced and traced ops alternate, and each traced
op is followed by the layer replays of ``layers.py``; spans are kept in
memory and written to ``--spans-out`` at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

from layers import Spans
from workloads import WORKLOADS, digest

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
MAX_ERRORS = 5  # error messages kept for the report


def load_expected(workload: str) -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)[workload]


def _await_probe(workload) -> float:
    """Wait while ``run.py`` times its host-speed probe; its seconds."""
    workload.settle()
    print("PROBE", flush=True)
    reply = sys.stdin.readline().split()
    if len(reply) != 2 or reply[0] != "GO":
        raise SystemExit("perfledger worker: run.py went away")
    return float(reply[1])


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


class Tally:
    """Attempted/failed ops, per-op wall and probe times, records, GC runs."""

    def __init__(self, workload, expected: dict, probed: bool = True) -> None:
        self.workload = workload
        self.expected = expected
        self.probed = probed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_s: list[float] = []
        self.probe_s: list[float] = []
        self.records = 0
        self.gc = 0
        self.last_output = None

    def run(self, op, k: int) -> bool:
        """Time ``op(k)`` and check its output; True if it passed.

        The host-speed probe runs just before the op, untimed by it.
        """
        self.attempted += 1
        probe_s = _await_probe(self.workload) if self.probed else 0.0
        collections = _gc_collections()
        start = time.perf_counter()
        try:
            records, output = op(k)
        except Exception as exc:  # a failed op is counted, not fatal
            self._fail(f"op {k}: {type(exc).__name__}: {exc}")
            return False
        elapsed = time.perf_counter() - start
        self.gc += _gc_collections() - collections
        self.op_s.append(elapsed)
        self.probe_s.append(probe_s)
        self.records += records
        key = self.workload.key(k)
        if self.expected.get(key) != digest(output):
            self._fail(f"op {k}: output digest differs from expected[{key!r}]")
            return False
        self.last_output = output
        return True

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    expected = load_expected(args.workload)
    workload = WORKLOADS[args.workload](args.seed, args.run_dir)
    try:
        warmup = Tally(workload, expected, probed=False)
        warmup.run(workload.op, 0)
        print("READY", flush=True)
        if args.phase == "setup":
            if warmup.failed:
                print("\n".join(warmup.errors), file=sys.stderr)
                return 1
            return 0
        result = measure(workload, expected, args.seconds, bool(args.trace), args.spans_out)
        result["warmup_failed"] = warmup.failed
        result["errors"] = warmup.errors + result["errors"]
        result["peak_rss_mb"] = workload.peak_rss_mb()
    finally:
        workload.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def measure(workload, expected: dict, seconds: float, traced: bool, spans_out: str) -> dict:
    """The closed loop: one op in flight until ``seconds`` have passed."""
    tally = Tally(workload, expected)
    spans = Spans()
    traced_tally = Tally(workload, expected)
    if traced:
        workload.prepare_traced(spans)
    k = 1
    deadline = time.perf_counter() + seconds
    while k <= workload.max_ops and time.perf_counter() < deadline:
        tally.run(workload.op, k)
        k += 1
        if traced and k <= workload.max_ops:
            spans.op = k
            if traced_tally.run(lambda i: workload.traced_op(i, spans), k):
                workload.replay(k, spans)
            k += 1
    # One more probe after the last op, so every op has one on each side.
    end_probe = _await_probe(workload)
    result = {
        "attempted": tally.attempted + traced_tally.attempted,
        "failed": tally.failed + traced_tally.failed,
        "errors": tally.errors + traced_tally.errors,
        "op_s": tally.op_s,
        "probe_s": tally.probe_s + [end_probe],
        "records": tally.records,
        "records_per_op": tally.records / len(tally.op_s) if tally.op_s else 0,
        "gc_per_op": tally.gc / len(tally.op_s) if tally.op_s else 0.0,
    }
    if traced:
        result["traced_op_s"] = traced_tally.op_s
        result["traced_probe_s"] = traced_tally.probe_s
        result["layers"] = layer_metrics(workload, spans, traced_tally.last_output)
        if spans_out:
            with open(spans_out, "w") as fh:
                json.dump({"workload": workload.name, "spans": spans.records}, fh)
    return result


def layer_metrics(workload, spans: Spans, output) -> dict:
    """The workload's per-layer numbers plus the op's unattributed share."""
    if output is None:
        return {}
    metrics = workload.layer_metrics(spans, output)
    if "unattributed_pct" not in metrics:
        shares = [
            100.0 * spans.self_time(i) / (r["end"] - r["start"])
            for i, r in enumerate(spans.records)
            if r["name"] == "op"
        ]
        metrics["unattributed_pct"] = statistics.median(shares)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
