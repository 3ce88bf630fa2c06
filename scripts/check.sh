#!/usr/bin/env bash
# Full correctness gate: static lint, Werror build + tests, the determinism
# analyzer over the exported compilation database, the same suite under
# AddressSanitizer + UBSan, the parallel sim engine under ThreadSanitizer,
# then the end-to-end benchmark of the working tree against HEAD.
# Exits non-zero on the first failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== physics_lint =="
python3 scripts/physics_lint.py "${repo_root}"

echo "== dev build (Werror) + tests =="
cmake --preset dev
cmake --build --preset dev -j "${jobs}"
ctest --preset dev

echo "== check-analyze (determinism analyzer) =="
# AST-grounded A1-A5 checks over the compilation database the dev configure
# exported, plus the seeded-violation fixture suite for the analyzer itself.
python3 scripts/milback_analyze.py "${repo_root}" \
    --compdb "${repo_root}/build-dev/compile_commands.json"
python3 tests/analyze/run_fixture_checks.py

echo "== asan-ubsan build + tests =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${jobs}"
ctest --preset asan-ubsan

echo "== tsan build + sim engine tests =="
# TSan only pays off on the multi-threaded paths: the sim engine suites and
# the thread-invariance integration tests that drive TrialRunner at >1 worker.
cmake --preset tsan
cmake --build --preset tsan -j "${jobs}"
ctest --preset tsan -R 'TrialRunner|Sweep|Accumulator|ThreadInvariance'

echo "== bench/e2e: HEAD vs working tree =="
# The one performance gate. The end-to-end benchmark runs 3 repetitions at
# its own run length on a `git archive` of HEAD (built in its own directory)
# and then on the working tree; `run.py compare` exits 1 when a metric is
# worse than its BENCHMARK.json bound or when a simulated output (digest)
# differs. A change that moves outputs on purpose fails here on
# `digests: differ` and says so in CHANGES.md. The pinned anchor.json is not
# the reference: its digests predate deliberate output changes.
e2e_dir="$(mktemp -d)"
trap 'rm -rf "${e2e_dir}"' EXIT
git archive HEAD | tar -x -C "${e2e_dir}"
CARGO_TARGET_DIR="${e2e_dir}/.bench_build" \
    python3 "${e2e_dir}/bench/e2e/run.py" --repeats 3 --out "${e2e_dir}/HEAD.json"
python3 bench/e2e/run.py --repeats 3 --out "${e2e_dir}/tree.json"
python3 bench/e2e/run.py compare "${e2e_dir}/HEAD.json" "${e2e_dir}/tree.json"

echo "== all checks passed =="
