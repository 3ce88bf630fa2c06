#!/usr/bin/env python3
"""Fixture suite for scripts/physics_lint.py rules R1, R10, R11, R12 and R13.

Stages the seeded-violation fixtures from tests/lint/fixtures/ into a
temporary repository layout (src/milback/fix/ for the flagged ones, plus
bench/ for the R1 engines; tests/util/, src/milback/channel/ and
src/milback/mesh/ for the allowed-scope negative controls; a tests/ and a
bench/ includer for the R12 headers; src/milback/dsp/ for the per-function
R12 header, with a bench/ user of one function and a tests/ user of the
other), runs physics_lint on the staged tree, and asserts the reported
findings match the `lint-expect: R<n>` markers exactly — same rule id, same
staged file, same line — with nothing reported for the clean controls.

Exit status 0 on an exact match, 1 otherwise.
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
LINTER = REPO / "scripts" / "physics_lint.py"
FIXTURES = HERE / "fixtures"

EXPECT_RE = re.compile(r"lint-expect:\s*(R\d+)")
FINDING_RE = re.compile(r"^([^:]+):(\d+): \[(R\d+)\]")

# (fixture file, path inside the staged tree); a fixture may be staged twice.
STAGE = [
    ("r1_engine.cpp", "src/milback/fix/r1_engine.cpp"),
    ("r1_engine.cpp", "bench/r1_engine.cpp"),
    ("r1_clean.cpp", "src/milback/fix/r1_clean.cpp"),
    ("r1_tests_ok.cpp", "tests/util/r1_tests_ok.cpp"),
    ("r10_fspl.cpp", "src/milback/fix/r10_fspl.cpp"),
    ("r10_clean.cpp", "src/milback/fix/r10_clean.cpp"),
    ("r10_channel_ok.cpp", "src/milback/channel/r10_channel_ok.cpp"),
    ("r11_flood.cpp", "src/milback/fix/r11_flood.cpp"),
    ("r11_clean.cpp", "src/milback/fix/r11_clean.cpp"),
    ("r11_mesh_ok.cpp", "src/milback/mesh/r11_mesh_ok.cpp"),
    ("r12_tests_only.hpp", "src/milback/fix/r12_tests_only.hpp"),
    ("r12_test_user.cpp", "tests/fix/r12_test_user.cpp"),
    ("r12_bench_used.hpp", "src/milback/fix/r12_bench_used.hpp"),
    ("r12_bench_user.cpp", "bench/r12_bench_user.cpp"),
    ("r12_fn_decls.hpp", "src/milback/dsp/r12_fn_decls.hpp"),
    ("r12_fn_decls.cpp", "src/milback/dsp/r12_fn_decls.cpp"),
    ("r12_fn_bench_user.cpp", "bench/r12_fn_bench_user.cpp"),
    ("r12_fn_test_user.cpp", "tests/fix/r12_fn_test_user.cpp"),
    ("r13_noexcept_check.cpp", "src/milback/fix/r13_noexcept_check.cpp"),
    ("r13_clean.cpp", "src/milback/fix/r13_clean.cpp"),
    ("r13_noexcept_call.cpp", "src/milback/fix/r13_noexcept_call.cpp"),
    ("r13_call_clean.cpp", "src/milback/fix/r13_call_clean.cpp"),
]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        expected = set()
        for name, rel in STAGE:
            text = (FIXTURES / name).read_text(encoding="utf-8")
            dest = root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text, encoding="utf-8")
            for ln, line in enumerate(text.splitlines(), start=1):
                for m in EXPECT_RE.finditer(line):
                    expected.add((m.group(1), rel, ln))

        proc = subprocess.run(
            [sys.executable, str(LINTER), str(root)],
            capture_output=True,
            text=True,
        )
        found = set()
        for line in proc.stdout.splitlines():
            m = FINDING_RE.match(line)
            if m:
                found.add((m.group(3), m.group(1), int(m.group(2))))

        if found == expected:
            print(f"lint_fixtures: {len(expected)} expected finding(s) matched")
            return 0
        for item in sorted(expected - found):
            print(f"MISSING  {item[0]} at {item[1]}:{item[2]}")
        for item in sorted(found - expected):
            print(f"SPURIOUS {item[0]} at {item[1]}:{item[2]}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
