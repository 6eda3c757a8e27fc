"""The repository benchmark: three closed-loop workloads, checked outputs.

    python3 perfledger/run.py --workload drive_bimodal --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout. Workloads: ``drive_bimodal``,
``antt_alloy`` and ``service_dse`` (see README.md). Each run is
isolated: its own directory under ``.perfledger-runs/`` holds a fresh
trace cache and, for ``service_dse``, a fresh daemon state dir; every
inherited ``REPRO_*`` variable is dropped. The run directory is removed
at exit.

``--trace 0`` sets up the workload ``SETUP_REPEATS`` times in fresh
child processes and measures ops in the last one; it reports the
end-to-end metrics, with times normalized to a reference host speed by
the probe of probe.py. ``--trace 1`` makes one traced run and reports
the per-layer metrics; its spans go to ``.perfledger-out/``. The metric
names and units come from ``BENCHMARK.json``. The last line of stdout
is the result JSON; the line before it carries the host fingerprint and
the raw set-up, per-op and probe times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from probe import host_factor, probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # every child of one run must finish inside this
RUNS_DIR = ".perfledger-runs"
OUT_DIR = ".perfledger-out"
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail

# Every variable the simulator reads that could switch engines, inject
# faults, profile, or point at a warm cache. All ``REPRO_*`` go.
DROPPED_ENV_PREFIXES = ("REPRO_",)


class ChildError(RuntimeError):
    """A worker process failed before it could report."""


# ----------------------------------------------------------------------
# metric arithmetic
# ----------------------------------------------------------------------
def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with ``beyond``
    samples above it (nearest rank). ``(0.0, 0.0)`` when there are too
    few samples for any percentile to qualify."""
    n = len(values)
    if n <= beyond:
        return 0.0, 0.0
    index = n - beyond - 1
    return 100.0 * (index + 1) / n, sorted(values)[index]


def normalized_ops(result: dict) -> list[float]:
    """Each op's wall time at the reference host speed (see probe.py).

    ``probe_s`` holds one probe before each op and one after the last,
    so op ``k`` is scaled by the mean of the probes on either side of
    it; that follows the host's drift within a run as well as between
    runs.
    """
    probes = result["probe_s"]
    return [
        o * host_factor((before + after) / 2)
        for o, before, after in zip(result["op_s"], probes, probes[1:])
    ]


def end_to_end(setup_s: list[float], result: dict) -> dict:
    """The four end-to-end metrics of an untraced run, host-normalized.

    Set-up runs before any probe, so it is scaled by the run's median
    probe.
    """
    ops = normalized_ops(result)
    return {
        "setup_s": statistics.median(setup_s)
        * host_factor(statistics.median(result["probe_s"])),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_ms_p50": 1e3 * statistics.median(ops),
        "records_per_s": result["records"] / sum(ops),
    }


def per_layer(names: list[str], result: dict, warmup_ops: int) -> dict:
    """Every per-layer metric in ``names`` for a traced run (0 where not
    exercised)."""
    untraced = result["op_s"]
    traced = result["traced_op_s"]
    pct, tail_s = tail(untraced + traced)
    values = {name: 0.0 for name in names}
    values.update(result["layers"])
    values.update(
        {
            "host.reference_ms": 1e3
            * statistics.median(result["probe_s"] + result["traced_probe_s"]),
            "ops": len(untraced) + len(traced),
            "warmup_ops": warmup_ops,
            "records_per_op": result["records_per_op"],
            "op_ms_tail": 1e3 * tail_s,
            "op_ms_tail_pct": pct,
            "tracing_overhead_ms": 1e3
            * (statistics.median(traced) - statistics.median(untraced)),
            "gc.collections_per_op": result["gc_per_op"],
        }
    )
    return {name: values[name] for name in names}


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# ----------------------------------------------------------------------
# isolation
# ----------------------------------------------------------------------
def pinned_env(base: dict, root: str, trace_dir: str) -> dict:
    """``base`` without inherited simulator knobs, pointed at ``root``."""
    env = {
        name: value
        for name, value in base.items()
        if not name.startswith(DROPPED_ENV_PREFIXES)
    }
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_TRACE_CACHE_DIR"] = trace_dir
    return env


def host_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(args, phase: str, child_dir: str, deadline: float, spans_out: str = ""):
    """Start one worker; returns ``(ready_s, exit_code, result)``.

    ``ready_s`` runs from process start to the worker's ``READY`` line.
    Each ``PROBE`` request is answered with ``GO <seconds>`` after
    timing the host-speed probe here, while the worker waits.
    The worker leads its own process group, so a hung worker and any
    daemon it started are killed together when the run's budget ends.
    """
    trace_dir = os.path.join(child_dir, "traces")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--phase", phase,
        "--run-dir", child_dir,
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise ChildError(f"{phase} child: run budget of {RUN_BUDGET_S:g}s spent")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stdin=subprocess.PIPE,
        text=True,
        env=pinned_env(os.environ, ROOT, trace_dir),
        start_new_session=True,
    )
    timer = threading.Timer(budget, _kill_group, (proc,))
    timer.start()
    ready_s = None
    result = None
    try:
        for line in proc.stdout:
            if line == "PROBE\n":
                try:
                    proc.stdin.write(f"GO {probe():.9f}\n")
                    proc.stdin.flush()
                except BrokenPipeError:
                    pass  # the worker died; its stdout ends next
            elif line == "READY\n" and ready_s is None:
                ready_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        _kill_group(proc)  # strays of a worker that died mid-run
        proc.wait()
        proc.stdin.close()
    if ready_s is None:
        raise ChildError(f"{phase} child exited {proc.returncode} before set-up finished")
    if phase == "measure" and (proc.returncode != 0 or result is None):
        raise ChildError(f"measure child exited {proc.returncode} without a result")
    return ready_s, proc.returncode, result


def measure_run(args) -> tuple[list[float], dict]:
    """All children of one run: set-up repeats, then the measuring one."""
    run_dir = os.path.join(ROOT, RUNS_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    spans_out = ""
    if args.trace:
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        spans_out = os.path.join(
            ROOT, OUT_DIR, f"spans-{args.workload}-s{args.seed}-p{os.getpid()}.json"
        )
    phases = ["measure"] if args.trace else ["setup"] * (SETUP_REPEATS - 1) + ["measure"]
    deadline = time.monotonic() + RUN_BUDGET_S
    setup_s: list[float] = []
    setup_failures = 0
    try:
        for index, phase in enumerate(phases):
            child_dir = os.path.join(run_dir, f"child{index}")
            os.makedirs(child_dir)
            ready_s, code, result = run_child(args, phase, child_dir, deadline, spans_out)
            setup_s.append(ready_s)
            if phase == "setup" and code != 0:
                setup_failures += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run still uses it
    result["warmup_failed"] += setup_failures
    return setup_s, result


def load_spec() -> dict:
    """``BENCHMARK.json``: workload names and metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfledger: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2

    host = host_fingerprint()
    try:
        setup_s, result = measure_run(args)
    except ChildError as exc:
        print(f"perfledger: {exc}", file=sys.stderr)
        return 1
    if not result["op_s"]:
        print("perfledger: no op completed", file=sys.stderr)
        return 1
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    if args.trace:
        values = per_layer(list(units), result, len(setup_s))
    else:
        values = end_to_end(setup_s, result)
    pct, tail_s = tail(result["op_s"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "ops": len(result["op_s"]),
        "warmup_ops": len(setup_s),
        "warmup_failed": result["warmup_failed"],
        "records_per_op": result["records_per_op"],
        "setup_s_raw": setup_s,
        "op_ms_raw": [round(1e3 * s, 3) for s in result["op_s"]],
        "op_ms_raw_tail": [pct, 1e3 * tail_s],
        "probe_ms": [round(1e3 * s, 3) for s in result["probe_s"]],
        "errors": result["errors"],
    }
    print(json.dumps({"perfledger": info}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["warmup_failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
