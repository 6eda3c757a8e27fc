"""Regenerate ``expected.json``: the digest of every op input's output.

    python3 perfledger/record_expected.py

Run from the root of a checkout, on a commit whose simulated output is
trusted. Digests are keyed by input seed (``drive_bimodal``,
``antt_alloy``: 1..INPUT_SEEDS) or by request seed (``service_dse``:
1..DSE_REQUEST_SEEDS). ``service_dse`` digests come from the in-process
``repro.api.run_dse`` facade, so every benchmark op also checks that the
daemon's answer equals the local one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import RUNS_DIR, pinned_env  # noqa: E402
from workloads import (  # noqa: E402
    DSE_ACCESSES,
    DSE_FRONTIER,
    DSE_MIX,
    DSE_REQUEST_SEEDS,
    INPUT_SEEDS,
    AnttAlloy,
    DriveBimodal,
    ServiceDse,
    digest,
)


def record_dse(seed: int) -> str:
    from repro import api

    request = api.dse_request(
        mixes=(DSE_MIX,),
        accesses_per_core=DSE_ACCESSES,
        jobs=1,
        max_frontier=DSE_FRONTIER,
        seed=seed,
    )
    return digest(ServiceDse.output(api.run_dse(request)))


def main() -> int:
    run_dir = os.path.join(ROOT, RUNS_DIR, f"record-p{os.getpid()}")
    env = pinned_env(dict(os.environ), ROOT, os.path.join(run_dir, "traces"))
    os.environ.clear()
    os.environ.update(env)
    expected = {}
    try:
        for name in ("drive_bimodal", "antt_alloy", "service_dse"):
            if name == "service_dse":
                table = {
                    str(s): record_dse(s) for s in range(1, DSE_REQUEST_SEEDS + 1)
                }
            else:
                cls = {"drive_bimodal": DriveBimodal, "antt_alloy": AnttAlloy}[name]
                table = {
                    str(s): digest(cls(s, run_dir).op(0)[1])
                    for s in range(1, INPUT_SEEDS + 1)
                }
            expected[name] = table
            print(f"{name}: {len(table)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
