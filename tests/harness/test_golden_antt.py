"""Golden byte-identity for the ANTT protocol (multiprogrammed + standalone).

``tests/harness/test_golden_stats.py`` pins the flat drive loop; this
file pins the other timing path, ``MultiProgramRunner``, which every
ANTT figure (Fig 7, Fig 8a, Table VI, Fig 12) runs. Every registered
scheme goes through :func:`measure_antt` on Q7, plus two Table VI
prefetch cells (the experiment's own runner: a ``NextNPrefetcher`` of
degree 3 in front of the cache). Each snapshot holds the ANTT, the
per-core measured cycles, the multiprogrammed cache's
``stats_snapshot()`` and each core's instructions, reads, writes and
stall cycles — after a JSON round-trip, so "equal here" means
"byte-identical in an export".

To regenerate after an *intentional* simulation-semantics change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/harness/test_golden_antt.py

then commit the updated JSON alongside the change that explains it.
A pure performance change must never need to regenerate this file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cores.multiprog import RunResult
from repro.harness.experiments.performance import measure_antt
from repro.harness.experiments.prefetch import _prefetch_runner, _PrefetchCell
from repro.harness.runner import ExperimentSetup
from repro.harness.schemes import available_schemes
from repro.prefetch.nextn import PREF_BYPASS, PREF_NORMAL

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "antt_stats_q7.json"

MIX = "Q7"
SETUP = ExperimentSetup(accesses_per_core=1_500)
PREFETCH_CELLS = (("alloy", PREF_NORMAL), ("bimodal", PREF_BYPASS))
PREFETCH_DEGREE = 3


def _snapshot(antt: float, mp: RunResult) -> dict:
    snapshot = {
        "antt": antt,
        "per_core_cycles": mp.per_core_cycles,
        "stats": mp.cache.stats_snapshot(),
        "cores": [
            {
                "instructions": core.instructions,
                "reads": core.reads,
                "writes": core.writes,
                "memory_stall_cycles": core.memory_stall_cycles,
            }
            for core in mp.cores
        ],
    }
    return json.loads(json.dumps(snapshot))


def _prefetch_key(scheme: str, mode: str) -> str:
    return f"{scheme}+nextn{PREFETCH_DEGREE}-{mode}"


def _current_snapshots() -> dict[str, dict]:
    snapshots = {
        scheme: _snapshot(*measure_antt(scheme, MIX, setup=SETUP))
        for scheme in available_schemes()
    }
    for scheme, mode in PREFETCH_CELLS:
        cell = _PrefetchCell(
            scheme=scheme, mix=MIX, setup=SETUP, degree=PREFETCH_DEGREE, mode=mode
        )
        snapshots[_prefetch_key(scheme, mode)] = _snapshot(*_prefetch_runner(cell).run_antt())
    return snapshots


def test_antt_protocol_matches_golden():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(_current_snapshots(), indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "REPRO_REGEN_GOLDEN=1 python -m pytest tests/harness/test_golden_antt.py"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    current = _current_snapshots()
    assert sorted(current) == sorted(golden), (
        "registered scheme set changed; regenerate the golden file"
    )
    for key in sorted(golden):
        assert current[key] == golden[key], (
            f"ANTT cell {key!r} drifted from the golden snapshot — a change "
            "to the multiprogrammed runner altered simulation results"
        )


def test_golden_covers_all_registered_schemes():
    """The committed file must track the registry, not a stale subset."""
    if not GOLDEN_PATH.exists():
        pytest.skip("golden file not generated yet")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(
        list(available_schemes()) + [_prefetch_key(s, m) for s, m in PREFETCH_CELLS]
    )
