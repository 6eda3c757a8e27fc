#!/usr/bin/env bash
# Tier-1 CI: full test suite + an end-to-end fault-tolerance smoke run.
#
# The smoke run exercises the robustness contract (docs/robustness.md)
# against the real CLI: a grid with one injected permanently-failing
# cell must still export the completed rows, record the failure in the
# manifest, exit with code 3 — and a subsequent --resume from its
# checkpoint (without the fault) must finish only the missing cell and
# produce a CSV byte-identical to an uninterrupted run.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PWD}/src${PYTHONPATH:+:${PYTHONPATH}}"

echo "== static analysis (simlint, cold cache) =="
# The tree itself must be clean: ignore the baseline so tolerated debt
# cannot mask a regression sneaking in under an existing fingerprint.
# Run once cold (scratch cache dir) and once warm: the warm replay must
# agree and be >= 5x faster — same gate the ci.yml lint job enforces.
LINT_CACHE="$(mktemp -d)/simlint-cache"
LINT_LOG="$(mktemp -d)"
python -m repro lint --no-baseline --cache-dir "${LINT_CACHE}" \
    2> "${LINT_LOG}/cold.log"
cat "${LINT_LOG}/cold.log"

echo "== static analysis (simlint, warm cache) =="
python -m repro lint --no-baseline --cache-dir "${LINT_CACHE}" \
    2> "${LINT_LOG}/warm.log"
cat "${LINT_LOG}/warm.log"
python - "${LINT_LOG}/cold.log" "${LINT_LOG}/warm.log" <<'EOF'
import re, sys
def wall(path):
    return float(re.search(r"wall_s=([0-9.]+)", open(path).read()).group(1))
cold, warm = wall(sys.argv[1]), wall(sys.argv[2])
assert cold >= 5 * max(warm, 1e-9), (
    f"warm {warm:.3f}s not 5x faster than cold {cold:.3f}s")
print(f"[perfbench] simlint.speedup cold_s={cold:.3f} warm_s={warm:.3f} "
      f"ratio={cold / max(warm, 1e-9):.1f}x")
EOF

echo "== static analysis (simlint, SARIF gate) =="
# --format sarif output must validate against the SARIF 2.1.0 subset
# checked by scripts/sarif_check.py (the same file CI uploads).
python -m repro lint --no-baseline --cache-dir "${LINT_CACHE}" \
    --format sarif > "${LINT_LOG}/simlint.sarif" 2>/dev/null
python scripts/sarif_check.py "${LINT_LOG}/simlint.sarif"
rm -rf "$(dirname "${LINT_CACHE}")" "${LINT_LOG}"

# ruff is not part of the offline container image; run it when the
# environment provides it (the CI lint job installs it explicitly).
if command -v ruff >/dev/null 2>&1; then
    echo "== static analysis (ruff) =="
    ruff check src tests
else
    echo "== static analysis (ruff) == skipped: ruff not on PATH"
fi

echo "== tier-1 test suite =="
python -m pytest -x -q

echo "== benchmark self-tests (perfledger) =="
# The repository benchmark's own logic (BENCHMARK.json, perfledger/);
# testpaths = ["tests"] keeps these out of the tier-1 run above.
python3 -m pytest perfledger/tests -q

echo "== fault-tolerance smoke =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
export REPRO_TRACE_CACHE_DIR="${SMOKE_DIR}/traces"
RUN=(python -m repro run fig10 --mixes Q1 Q2 --accesses 1500)

# Uninterrupted baseline.
"${RUN[@]}" --export "${SMOKE_DIR}/base.csv" >/dev/null

# Same grid with cell 1 failing permanently: exit 3, partial export.
set +e
REPRO_FAULT_INJECT='{"1": {"action": "raise"}}' \
    "${RUN[@]}" --export "${SMOKE_DIR}/part.csv" >/dev/null 2>"${SMOKE_DIR}/part.err"
status=$?
set -e
[ "${status}" -eq 3 ] || { echo "expected exit 3, got ${status}"; exit 1; }
grep -q "Q1" "${SMOKE_DIR}/part.csv" || { echo "partial export lost Q1 row"; exit 1; }
! grep -q "Q2" "${SMOKE_DIR}/part.csv" || { echo "failed cell leaked a row"; exit 1; }
grep -q '"status": "partial"' "${SMOKE_DIR}/part.csv.manifest.json" \
    || { echo "manifest missing partial status"; exit 1; }
grep -q '"InjectedFault"' "${SMOKE_DIR}/part.csv.manifest.json" \
    || { echo "manifest missing failure record"; exit 1; }

# Resume from the partial run's checkpoint: byte-identical to baseline.
"${RUN[@]}" --export "${SMOKE_DIR}/part.csv" \
    --resume "${SMOKE_DIR}/part.csv.ckpt.jsonl" >/dev/null
cmp "${SMOKE_DIR}/base.csv" "${SMOKE_DIR}/part.csv" \
    || { echo "resumed CSV differs from uninterrupted run"; exit 1; }

echo "== service smoke (repro serve) =="
# Boots the daemon on an ephemeral port, drives one grid through the
# typed client and asserts the export is byte-identical to the CLI
# path, plus warm-state behavior (trace-cache hits, checkpoint resume).
# See docs/service.md.
python scripts/serve_smoke.py

echo "== dse smoke (MRC engine + design-space driver) =="
# Three gates (docs/dse.md): the ghost cache must match the reference
# LRU walk integer-for-integer at sampling rate 1.0, its hit-rate
# estimate must land within 2% absolute of a full timing simulation on
# two mixes, and `repro dse` must spend >= 5x fewer full-simulation
# equivalents than the exhaustive grid.
python scripts/dse_smoke.py

echo "== chaos suite =="
# The chaos-marked tests (disk + wire fault injection, see
# docs/robustness.md) run inside tier-1 above; this pass re-runs them
# under pytest-timeout so a hung drain or reconnect fails fast instead
# of wedging the job. Skipped where the plugin is not installed (the
# offline container) — coverage is unchanged, only the hang cap is.
if python -c "import pytest_timeout" >/dev/null 2>&1; then
    python -m pytest -m chaos -q --timeout=120
else
    echo "pytest-timeout not on PATH; chaos tests already ran in tier-1"
fi

echo "== perf gate =="
# Fast-path throughput vs the last committed BENCH_perf.json entry for
# the same mode/scheme/mix/backend; exits 4 when the measured rate
# drops below 0.7x the committed one. Both drive engines are gated —
# the scalar reference kernel and the vectorized SoA backend — so a
# regression in either is caught. The gate prints the ratio either way
# so every CI log carries the current numbers; gated runs take
# best-of-3 regardless of --repeats.
python -m repro.harness.perfbench --modes fast --repeats 3 \
    --gate BENCH_perf.json
python -m repro.harness.perfbench --schemes bimodal,alloy --mixes Q1 \
    --backends scalar,vectorized --repeats 3 --gate BENCH_perf.json
# The MRC ghost pass is gated too: the dse driver's estimation phase
# must stay fast enough to be worth the pruning it buys.
python -m repro.harness.perfbench --modes mrc --repeats 3 \
    --gate BENCH_perf.json

echo "ci.sh: all checks passed"
