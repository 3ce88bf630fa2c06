#!/usr/bin/env python3
"""Fixture suite for scripts/physics_lint.py.

Stages the seeded-violation fixtures from tests/lint/fixtures/ into one
temporary repository layout, runs physics_lint on the staged tree, and
asserts the reported findings match the `lint-expect: <ID>` markers exactly
-- same rule id, same staged file, same line -- with nothing reported for
the clean controls, and a non-zero exit. Every id that
`physics_lint.py --list-rules` prints must carry at least one marker, so
deleting any rule or check fails the suite.

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

EXPECT_RE = re.compile(r"lint-expect:\s*([A-Z]+\d*)")
FINDING_RE = re.compile(r"^([^:]+):(\d+): \[([A-Z]+\d*)\]")
RULE_RE = re.compile(r"^  ([A-Z]+\d*)\s", re.M)

# (fixture file, path inside the staged tree); a fixture may be staged twice.
# Hits sit where their rule applies (mostly src/milback/fix/), and each rule
# has a clean control in the same scope; allowed-scope controls sit in the
# one directory a rule exempts.
STAGE = [
    ("r1_engine.cpp", "src/milback/fix/r1_engine.cpp"),
    ("r1_engine.cpp", "bench/r1_engine.cpp"),
    ("r1_clean.cpp", "src/milback/fix/r1_clean.cpp"),
    ("r1_tests_ok.cpp", "tests/util/r1_tests_ok.cpp"),
    ("r2_using.hpp", "bench/fix/r2_using.hpp"),
    ("r2_clean.hpp", "bench/fix/r2_clean.hpp"),
    ("r3_units.hpp", "src/milback/fix/r3_units.hpp"),
    ("r3_clean.hpp", "src/milback/fix/r3_clean.hpp"),
    ("includer.cpp", "bench/includer.cpp"),
    ("r4_hygiene.hpp", "bench/fix/r4_hygiene.hpp"),
    ("r4_clean.hpp", "bench/fix/r4_clean.hpp"),
    ("r5_thread.cpp", "src/milback/fix/r5_thread.cpp"),
    ("r5_clean.cpp", "src/milback/fix/r5_clean.cpp"),
    ("r5_comment_hit.cpp", "src/milback/fix/r5_comment_hit.cpp"),
    ("r5_comment_clean.cpp", "src/milback/fix/r5_comment_clean.cpp"),
    ("r6_fork.cpp", "bench/r6_fork.cpp"),
    ("r6_clean.cpp", "bench/r6_clean.cpp"),
    ("r7_phasor.cpp", "src/milback/fix/r7_phasor.cpp"),
    ("r7_clean.cpp", "src/milback/fix/r7_clean.cpp"),
    ("r8_rounds.cpp", "src/milback/fix/r8_rounds.cpp"),
    ("r8_clean.cpp", "src/milback/fix/r8_clean.cpp"),
    ("r9_clock.cpp", "src/milback/fix/r9_clock.cpp"),
    ("r9_alias.cpp", "src/milback/fix/r9_alias.cpp"),
    ("r9_alias.hpp", "src/milback/fix/r9_alias.hpp"),
    ("r9_alias_user.cpp", "src/milback/fix/r9_alias_user.cpp"),
    ("r9_clean.cpp", "src/milback/fix/r9_clean.cpp"),
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
    ("a1_api.hpp", "src/milback/fix/a1_api.hpp"),
    ("a1_api.cpp", "src/milback/fix/a1_api.cpp"),
    ("a2_report.cpp", "src/milback/fix/a2_report.cpp"),
    ("a2_route.cpp", "src/milback/fix/a2_route.cpp"),
    ("a3_rng.cpp", "src/milback/fix/a3_rng.cpp"),
    ("a3_stream_wrapper.cpp", "src/milback/fix/a3_stream_wrapper.cpp"),
    # A5 fires only in the reduction scopes (sim/, cell/, bench/).
    ("a5_sum.cpp", "src/milback/cell/a5_sum.cpp"),
    ("clean.hpp", "src/milback/fix/clean.hpp"),
    ("clean.cpp", "src/milback/fix/clean.cpp"),
    ("waived.cpp", "src/milback/cell/waived.cpp"),
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
        rules = subprocess.run(
            [sys.executable, str(LINTER), "--list-rules"],
            capture_output=True,
            text=True,
        ).stdout

        ok = found == expected
        for item in sorted(expected - found):
            print(f"MISSING  {item[0]} at {item[1]}:{item[2]}")
        for item in sorted(found - expected):
            print(f"SPURIOUS {item[0]} at {item[1]}:{item[2]}")
        if proc.returncode == 0:
            print("EXIT     physics_lint exited 0 despite live findings")
            ok = False
        marked = {rule for rule, _, _ in expected}
        table = RULE_RE.findall(rules)
        if not table:
            print("TABLE    physics_lint --list-rules printed no rule ids")
            ok = False
        for rule in table:
            if rule not in marked:
                print(f"FIXTURE  no fixture marker exercises {rule}")
                ok = False
        if not ok:
            print(proc.stdout + proc.stderr)
            return 1
        print(f"lint_fixtures: {len(expected)} expected finding(s) matched,"
              f" {len(table)} rule ids exercised")
        return 0


if __name__ == "__main__":
    sys.exit(main())
