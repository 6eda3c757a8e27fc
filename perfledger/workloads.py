"""The three benchmark workloads: inputs, one op, and its traced form.

Every op of a workload has the same input shape and is checked against
a committed digest of its simulated output (``expected.json``). The
inputs come from a finite table of input seeds so that every op of
every run has an expected digest; ``record_expected.py`` regenerates
the table.

* ``drive_bimodal``: ``build_cache("bimodal")`` + ``drive_cache`` over
  a 4-core Q8 trace materialized during set-up.
* ``antt_alloy``: the Fig 7 ANTT protocol on AlloyCache / Q7 (one
  multiprogrammed run plus four standalone runs, traces generated
  inside the op).
* ``service_dse``: one ``repro dse`` request round trip to a
  ``python -m repro serve`` child, a distinct request seed per op.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from statistics import median

from layers import (
    CallRecorder,
    StubCache,
    fresh_device,
    fresh_offchip,
    iterate_programs,
    replay,
)

INPUT_SEEDS = 32  # drive_bimodal / antt_alloy input seeds 1..32
DSE_REQUEST_SEEDS = 64  # service_dse request seeds 1..64
DSE_SEED_STRIDE = 16

DRIVE_MIX, DRIVE_ACCESSES = "Q8", 15_000
ANTT_MIX, ANTT_ACCESSES = "Q7", 5_000
DSE_MIX, DSE_ACCESSES, DSE_FRONTIER = "Q1", 5_000, 2
# Daemon idle check before each probe: CPU ticks (10 ms) unchanged over
# SETTLE_QUIET_POLLS polls SETTLE_POLL_S apart, waiting SETTLE_MAX_S at most.
SETTLE_POLL_S, SETTLE_QUIET_POLLS, SETTLE_MAX_S = 0.015, 2, 2.0


def input_seed(seed: int) -> int:
    """The trace seed ``--seed`` selects (1..INPUT_SEEDS)."""
    return 1 + (seed - 1) % INPUT_SEEDS


def request_seed(seed: int, k: int) -> int:
    """The request seed of op ``k`` (op 0 is the warm-up) of a run."""
    return 1 + ((seed - 1) * DSE_SEED_STRIDE + k) % DSE_REQUEST_SEEDS


def digest(output) -> str:
    """SHA-256 of an op's simulated output in canonical JSON."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _adaptation_interval(total: int) -> int:
    return max(1_000, total // 150)


def _streams(recorder: CallRecorder, caches: list) -> list[tuple]:
    """Per cache: its stacked-device geometry, the calls it made into
    that device, and the calls it made into off-chip memory."""
    return [
        (cache.geometry, recorder.device_stream(cache), recorder.offchip_stream(cache))
        for cache in caches
    ]


def _replay_dram(streams: list[tuple], system, spans) -> None:
    """Replay each recorded cache's calls on fresh DRAM layers."""
    with spans.span("replay.dram.device"):
        for geometry, stack_calls, _ in streams:
            replay(fresh_device(geometry), stack_calls)
    with spans.span("replay.dram.controller"):
        for _, _, offchip_calls in streams:
            replay(fresh_offchip(system), offchip_calls)


def _dram_metrics(streams: list[tuple], spans) -> dict:
    stack_calls = sum(len(s[1]) for s in streams)
    offchip_calls = sum(len(s[2]) for s in streams)
    return {
        "dram.device.ns_per_op": 1e9
        * median(spans.durations("replay.dram.device"))
        / stack_calls,
        "dram.controller.ns_per_op": 1e9
        * median(spans.durations("replay.dram.controller"))
        / offchip_calls,
    }


# ----------------------------------------------------------------------
class _InProcess:
    """A workload whose simulator runs in the worker process itself."""

    max_ops = 100_000

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def settle(self) -> None:
        """Nothing runs between ops in this process."""

    def close(self) -> None:
        pass


class DriveBimodal(_InProcess):
    """Bi-modal cache over a materialized 4-core Q8 trace."""

    name = "drive_bimodal"

    def __init__(self, seed: int, run_dir: str) -> None:
        from repro.harness.runner import ExperimentSetup

        self.input = input_seed(seed)
        self.setup = ExperimentSetup(accesses_per_core=DRIVE_ACCESSES, seed=self.input)
        self.total = DRIVE_ACCESSES * self.setup.num_cores
        start = time.perf_counter()
        self.trace = self.setup.trace_records(DRIVE_MIX)
        self.materialize_s = time.perf_counter() - start
        self.streams: list[tuple] = []

    def key(self, k: int) -> str:
        return str(self.input)

    def _build(self):
        from repro.harness.runner import build_cache

        return build_cache(
            "bimodal",
            self.setup.system,
            scale=self.setup.scale,
            adaptation_interval=_adaptation_interval(self.total),
        )

    def _drive(self, cache):
        from repro.harness.runner import drive_cache

        return drive_cache(
            cache, self.trace, streams=self.setup.num_cores, warmup=self.total // 2
        )

    def op(self, k: int):
        result = self._drive(self._build())
        return result.accesses, result.to_dict()

    # -- traced ----------------------------------------------------------
    def prepare_traced(self, spans) -> None:
        """Record the stacked-device and off-chip calls of one real drive."""
        with CallRecorder() as recorder:
            cache = self._build()
            self._drive(cache)
        self.streams = _streams(recorder, [cache])

    def traced_op(self, k: int, spans):
        with spans.span("op"):
            with spans.span("harness.runner.build_cache"):
                cache = self._build()
            with spans.span("harness.runner.drive_cache"):
                result = self._drive(cache)
        return result.accesses, result.to_dict()

    def replay(self, k: int, spans) -> None:
        with spans.span("replay.harness.runner.stub_drive"):
            self._drive(StubCache())
        _replay_dram(self.streams, self.setup.system, spans)

    def layer_metrics(self, spans, output: dict) -> dict:
        records = len(self.trace)
        drive = median(spans.durations("harness.runner.drive_cache"))
        stub = median(spans.durations("replay.harness.runner.stub_drive"))
        return {
            "harness.runner.build_ms": 1e3 * median(
                spans.durations("harness.runner.build_cache")
            ),
            "harness.runner.loop_ns_per_record": 1e9 * stub / records,
            "bimodal.access_ns_per_record": 1e9 * (drive - stub) / records,
            **_dram_metrics(self.streams, spans),
            "workloads.trace_cache.materialize_ns_per_record": 1e9
            * self.materialize_s
            / records,
            "dramcache.hit_rate": output["hit_rate"],
            "bimodal.way_locator_hit_rate": output["way_locator_hit_rate"],
            "bimodal.small_access_fraction": output["small_access_fraction"],
            "dram.stack_rbh": output["stack_rbh"],
            "offchip.fetched_bytes": output["offchip_fetched_bytes"],
            "offchip.writeback_bytes": output["offchip_writeback_bytes"],
        }


# ----------------------------------------------------------------------
class AnttAlloy(_InProcess):
    """Fig 7 ANTT protocol, AlloyCache on Q7: 1 multiprogrammed + 4 runs."""

    name = "antt_alloy"

    def __init__(self, seed: int, run_dir: str) -> None:
        from repro.harness.runner import ExperimentSetup
        from repro.workloads.mixes import mixes_for_cores

        self.input = input_seed(seed)
        self.setup = ExperimentSetup(accesses_per_core=ANTT_ACCESSES, seed=self.input)
        self.mix = mixes_for_cores(self.setup.num_cores)[ANTT_MIX]
        self.total = ANTT_ACCESSES * self.setup.num_cores
        self.streams: list[tuple] = []
        self.records = 0

    def key(self, k: int) -> str:
        return str(self.input)

    @staticmethod
    def _output(antt_value: float, mp) -> dict:
        return {
            "antt": antt_value,
            "per_core_cycles": mp.per_core_cycles,
            "stats": mp.cache.stats_snapshot(),
        }

    @staticmethod
    def _records(mp) -> int:
        # The four standalone runs replay the same per-program streams.
        return 2 * sum(core.reads + core.writes for core in mp.cores)

    def op(self, k: int):
        from repro.harness.experiments.performance import measure_antt

        antt_value, mp = measure_antt("alloy", ANTT_MIX, setup=self.setup)
        return self._records(mp), self._output(antt_value, mp)

    # -- traced ----------------------------------------------------------
    def _runner(self, factory):
        """The runner ``measure_antt`` builds, over ``factory``."""
        from repro.cores.multiprog import MultiProgramRunner

        return MultiProgramRunner(
            self.mix,
            factory,
            accesses_per_core=ANTT_ACCESSES,
            seed=self.setup.seed,
            footprint_scale=self.setup.footprint_scale,
            intensity_scale=self.setup.intensity_scale,
            warmup_fraction=0.5,
        )

    def _build(self):
        from repro.harness.runner import build_cache

        return build_cache(
            "alloy",
            self.setup.system,
            scale=self.setup.scale,
            adaptation_interval=_adaptation_interval(self.total),
        )

    def _protocol(self, runner, spans=None):
        """Multiprogrammed run, then each program standalone (Fig 7)."""
        from repro.cores.metrics import antt

        with spans.span("cores.multiprog.multiprog") if spans else nullcontext():
            mp = runner.run_multiprogrammed()
        with spans.span("cores.multiprog.standalone") if spans else nullcontext():
            standalone = [
                runner.run_standalone(i).per_core_cycles[0]
                for i in range(self.mix.num_cores)
            ]
        return antt(mp.per_core_cycles, standalone), mp

    def prepare_traced(self, spans) -> None:
        """Record every run's stacked-device and off-chip calls once."""
        caches = []

        def factory():
            caches.append(self._build())
            return caches[-1]

        with CallRecorder() as recorder:
            _, mp = self._protocol(self._runner(factory))
        self.records = self._records(mp)
        self.streams = _streams(recorder, caches)

    def traced_op(self, k: int, spans):
        def factory():
            with spans.span("harness.runner.build_cache"):
                return self._build()

        with spans.span("op"):
            antt_value, mp = self._protocol(self._runner(factory), spans)
        return self._records(mp), self._output(antt_value, mp)

    def replay(self, k: int, spans) -> None:
        runner = self._runner(StubCache)
        with spans.span("replay.workloads.generator"):
            iterate_programs(
                runner.mix,
                accesses_per_core=ANTT_ACCESSES,
                seed=self.setup.seed,
                runs=2,
            )
        with spans.span("replay.cores.multiprog.stub"):
            self._protocol(runner)
        _replay_dram(self.streams, self.setup.system, spans)

    def layer_metrics(self, spans, output: dict) -> dict:
        records = self.records
        build = median(spans.durations("harness.runner.build_cache"))
        multiprog = median(spans.durations("cores.multiprog.multiprog"))
        standalone = median(spans.durations("cores.multiprog.standalone"))
        generation = median(spans.durations("replay.workloads.generator"))
        stub = median(spans.durations("replay.cores.multiprog.stub"))
        builds = 1 + self.mix.num_cores
        real = multiprog + standalone - builds * build
        stats = output["stats"]
        return {
            "harness.runner.build_ms": 1e3 * build,
            "cores.multiprog.multiprog_ms": 1e3 * multiprog,
            "cores.multiprog.standalone_ms": 1e3 * standalone,
            "workloads.generator.ns_per_record": 1e9 * generation / records,
            "cores.multiprog.loop_ns_per_record": 1e9 * (stub - generation) / records,
            "dramcache.alloy.access_ns_per_record": 1e9 * (real - stub) / records,
            **_dram_metrics(self.streams, spans),
            "antt": output["antt"],
            "dramcache.hit_rate": stats["hit_rate"],
            "dram.stack_rbh": stats["stack_rbh"],
            "offchip.fetched_bytes": stats["offchip_fetched_bytes"],
            "offchip.writeback_bytes": stats["offchip_writeback_bytes"],
        }


# ----------------------------------------------------------------------
class ServiceDse:
    """``repro dse`` round trips to a fresh ``repro serve`` daemon."""

    name = "service_dse"
    # Each op needs a request seed not yet seen by this daemon, or it
    # would be answered from the daemon's state as a warm resubmit.
    max_ops = DSE_REQUEST_SEEDS - 1

    def __init__(self, seed: int, run_dir: str) -> None:
        from repro import api

        self.seed = seed
        self.wall_s: list[float] = []
        self.rtt_s: list[float] = []
        self.last_result = None
        self.last_request = None
        start = time.perf_counter()
        self.daemon = _spawn_daemon(run_dir)
        try:
            host, port = _await_banner(self.daemon, os.path.join(run_dir, "daemon.out"))
            self.client = api.ServiceClient(host, port, timeout=170.0)
            self.client.ping()
        except BaseException:
            _stop(self.daemon)
            raise
        self.boot_s = time.perf_counter() - start

    def key(self, k: int) -> str:
        return str(request_seed(self.seed, k))

    def _request(self, k: int):
        from repro import api

        return api.dse_request(
            mixes=(DSE_MIX,),
            accesses_per_core=DSE_ACCESSES,
            jobs=1,
            max_frontier=DSE_FRONTIER,
            seed=request_seed(self.seed, k),
        )

    @staticmethod
    def output(result) -> dict:
        """A DseResult's simulated content (``wall_s`` is host time)."""
        return {
            "status": result.status,
            "rows": list(result.rows),
            "winner": result.winner,
            "stats": result.stats,
        }

    def op(self, k: int):
        request = self._request(k)
        start = time.perf_counter()
        result = self.client.run_dse(request)
        self.rtt_s.append(time.perf_counter() - start)
        self.wall_s.append(result.wall_s)
        self.last_result, self.last_request = result, request
        if result.status != "ok":
            raise RuntimeError(f"dse status {result.status!r}")
        return DSE_ACCESSES * request.cores, self.output(result)

    # -- traced ----------------------------------------------------------
    def prepare_traced(self, spans) -> None:
        self.wall_s.clear()
        self.rtt_s.clear()

    def traced_op(self, k: int, spans):
        with spans.span("op"):
            with spans.span("api.client.run_dse"):
                records, output = self.op(k)
        return records, output

    def replay(self, k: int, spans) -> None:
        """The request's layers, re-run in this process."""
        from dataclasses import replace

        from repro.api.wire import decode_line, encode_line
        from repro.harness.runner import ExperimentSetup
        from repro.mrc.dse import (
            DesignPoint,
            DseEstimateCell,
            DseSimCell,
            default_space,
            dse_estimate_cell,
            dse_sim_cell,
        )

        result = self.last_result
        with spans.span("replay.api.wire.roundtrip"):
            decode_line(encode_line(result))
        setup = ExperimentSetup(
            accesses_per_core=DSE_ACCESSES, seed=request_seed(self.seed, k)
        )
        with spans.span("replay.workloads.trace_cache.materialize"):
            setup.trace_records(DSE_MIX)
        with spans.span("replay.mrc.ghost"):
            dse_estimate_cell(
                DseEstimateCell(mix=DSE_MIX, setup=setup, space=default_space())
            )
        quarter = replace(setup, accesses_per_core=max(1, DSE_ACCESSES // 4))
        with spans.span("replay.mrc.dse_sim"):
            for row in result.rows:
                point = DesignPoint(
                    row["cache_mb"], row["block_size"], row["associativity"], row["policy"]
                )
                if row["frontier"]:
                    dse_sim_cell(DseSimCell(point=point, mix=DSE_MIX, setup=quarter))
                if row["sim_fraction"] == 1.0:
                    dse_sim_cell(DseSimCell(point=point, mix=DSE_MIX, setup=setup))

    def layer_metrics(self, spans, output: dict) -> dict:
        records = DSE_ACCESSES * 4
        materialize = median(spans.durations("replay.workloads.trace_cache.materialize"))
        ghost = median(spans.durations("replay.mrc.ghost"))
        sims = median(spans.durations("replay.mrc.dse_sim"))
        overhead = [rtt - wall for rtt, wall in zip(self.rtt_s, self.wall_s)]
        start = time.perf_counter()
        self.client.run_dse(self.last_request)  # answered from daemon state
        warm = time.perf_counter() - start
        daemon_metrics = self.client.stats().metrics
        # The daemon's execution time not covered by the replayed layers
        # (grid engine, facade, journal); the replays run in this
        # process, so host noise can push it below zero.
        wall = median(self.wall_s)
        unattributed = 100.0 * (wall - materialize - ghost - sims) / median(self.rtt_s)
        return {
            "unattributed_pct": unattributed,
            "server.boot_s": self.boot_s,
            "server.overhead_ms": 1e3 * median(overhead),
            "server.warm_resubmit_ms": 1e3 * warm,
            "api.wire.roundtrip_ms": 1e3
            * median(spans.durations("replay.api.wire.roundtrip")),
            "workloads.trace_cache.materialize_ns_per_record": 1e9 * materialize / records,
            "mrc.ghost_ns_per_record": 1e9 * ghost / records,
            "mrc.dse_sim_ms": 1e3 * sims,
            "mrc.ghosts": daemon_metrics["mrc.ghosts"] / daemon_metrics["mrc.passes"],
            "dse.full_sims_equivalent": output["stats"]["full_sims_equivalent"],
            "dramcache.hit_rate": output["winner"].get("hit_rate", 0.0),
        }

    def settle(self) -> None:
        """Return once the daemon has used no CPU for a few polls.

        Work the daemon does after it replies would otherwise overlap
        the host-speed probe that follows, and be divided out of the
        next op's time as host slowness. ``SETTLE_MAX_S`` caps the wait.
        """
        deadline = time.perf_counter() + SETTLE_MAX_S
        last, quiet = _cpu_ticks(self.daemon.pid), 0
        while quiet < SETTLE_QUIET_POLLS and time.perf_counter() < deadline:
            time.sleep(SETTLE_POLL_S)
            now = _cpu_ticks(self.daemon.pid)
            quiet = quiet + 1 if now == last else 0
            last = now

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon, the process that runs the simulator."""
        with open(f"/proc/{self.daemon.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("daemon VmHWM unavailable")

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            _stop(self.daemon)


WORKLOADS = {cls.name: cls for cls in (DriveBimodal, AnttAlloy, ServiceDse)}


# ----------------------------------------------------------------------
def _spawn_daemon(run_dir: str) -> subprocess.Popen:
    """``python -m repro serve`` with its own state dir and trace cache."""
    env = dict(os.environ)
    env["REPRO_TRACE_CACHE_DIR"] = os.path.join(run_dir, "daemon-traces")
    with open(os.path.join(run_dir, "daemon.out"), "w") as out:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--state-dir", os.path.join(run_dir, "daemon-state"),
            ],
            stdout=out,
            stdin=subprocess.DEVNULL,
            env=env,
        )


def _await_banner(daemon: subprocess.Popen, path: str, budget_s: float = 60.0):
    """Poll the daemon's stdout file for its ``listening on`` banner."""
    import re

    deadline = time.perf_counter() + budget_s
    pattern = re.compile(r"listening on (\S+):(\d+)")
    while time.perf_counter() < deadline:
        with open(path) as fh:
            match = pattern.search(fh.read())
        if match:
            return match.group(1), int(match.group(2))
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon exited with {daemon.returncode} before listening")
        time.sleep(0.005)
    raise RuntimeError("daemon did not listen within its budget")


def _cpu_ticks(pid: int) -> int:
    """User plus system CPU clock ticks of every thread of ``pid``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime, stime


def _stop(proc: subprocess.Popen) -> None:
    """SIGTERM (the daemon drains), then SIGKILL; always reaped."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
