#!/usr/bin/env bash
# Full correctness gate: the static checker and its fixtures, Werror build +
# tests, the same suite under AddressSanitizer + UBSan, the parallel sim
# engine under ThreadSanitizer, then two comparisons of the working tree
# against HEAD: the bench/example outputs byte for byte, and the end-to-end
# benchmark.
# Exits non-zero on the first failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== physics_lint =="
python3 scripts/physics_lint.py "${repo_root}"
python3 tests/lint/run_lint_fixtures.py

echo "== dev build (Werror) + tests =="
cmake --preset dev
cmake --build --preset dev -j "${jobs}"
ctest --preset dev

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

# One `git archive` of HEAD serves both HEAD-vs-tree stages below.
head_dir="$(mktemp -d)"
trap 'rm -rf "${head_dir}"' EXIT
git archive HEAD | tar -x -C "${head_dir}"

echo "== bench/example outputs: HEAD vs working tree =="
# Every bench_* binary and example of a dev build of HEAD and of the tree
# must print and write the same bytes, at the default seed and at seed 7. A
# change that moves outputs on purpose fails here and says so in CHANGES.md.
(cd "${head_dir}" && cmake --preset dev && cmake --build --preset dev -j "${jobs}")
python3 scripts/diff_bench_outputs.py "${head_dir}/build-dev" build-dev

echo "== bench/e2e: HEAD vs working tree =="
# The one performance gate. The end-to-end benchmark runs 3 repetitions at
# its own run length on a `git archive` of HEAD (built in its own directory)
# and then on the working tree; `run.py compare` exits 1 when a metric is
# worse than its BENCHMARK.json bound or when a simulated output (digest)
# differs. A change that moves outputs on purpose fails here on
# `digests: differ` and says so in CHANGES.md. The pinned anchor.json is not
# the reference: its digests predate deliberate output changes.
CARGO_TARGET_DIR="${head_dir}/.bench_build" \
    python3 "${head_dir}/bench/e2e/run.py" --repeats 3 --out "${head_dir}/HEAD.json"
python3 bench/e2e/run.py --repeats 3 --out "${head_dir}/tree.json"
python3 bench/e2e/run.py compare "${head_dir}/HEAD.json" "${head_dir}/tree.json"

echo "== all checks passed =="
