#!/usr/bin/env python3
"""Fixture suite for scripts/milback_analyze.py.

Stages the seeded-violation fixtures from tests/analyze/fixtures/ into a
temporary repository layout (src/milback/fix/ for the generic ones,
src/milback/cell/ for the reduction-scoped ones), writes a synthetic
compile_commands.json, runs the analyzer, and asserts the reported findings
match the `analyze-expect: <CHECK>` markers in the fixtures exactly — same
check id, same staged file, same line.

Exit status 0 when the analyzer reports exactly the expected findings (and
nothing for the clean negative-control pair), 1 otherwise.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
ANALYZER = REPO / "scripts" / "milback_analyze.py"
FIXTURES = HERE / "fixtures"

EXPECT_RE = re.compile(r"analyze-expect:\s*([A-Z0-9]+)")
FINDING_RE = re.compile(r"^([^:]+):(\d+): \[([A-Z0-9]+)\]")

# fixture file -> path inside the staged tree. Reduction-scope fixtures must
# land under src/milback/cell/ (A5 only fires inside sim/cell/bench scopes).
STAGE = {
    "a1_api.hpp": "src/milback/fix/a1_api.hpp",
    "a1_api.cpp": "src/milback/fix/a1_api.cpp",
    "a2_report.cpp": "src/milback/fix/a2_report.cpp",
    "a2_route.cpp": "src/milback/fix/a2_route.cpp",
    "a3_rng.cpp": "src/milback/fix/a3_rng.cpp",
    "a3_stream_wrapper.cpp": "src/milback/fix/a3_stream_wrapper.cpp",
    "a4_clock.cpp": "src/milback/fix/a4_clock.cpp",
    "a5_sum.cpp": "src/milback/cell/a5_sum.cpp",
    "clean.hpp": "src/milback/fix/clean.hpp",
    "clean.cpp": "src/milback/fix/clean.cpp",
    "waived.cpp": "src/milback/cell/waived.cpp",
}


def stage_tree(root):
    expected = set()
    for name, rel in STAGE.items():
        text = (FIXTURES / name).read_text(encoding="utf-8")
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(text, encoding="utf-8")
        for ln, line in enumerate(text.splitlines(), start=1):
            for m in EXPECT_RE.finditer(line):
                expected.add((m.group(1), rel, ln))
    # Synthetic compilation database covering the staged TUs.
    entries = [{
        "directory": str(root),
        "file": str(root / rel),
        "command": f"c++ -std=c++20 -I{root}/src -c {root / rel}",
    } for rel in sorted(STAGE.values()) if rel.endswith(".cpp")]
    build = root / "build"
    build.mkdir()
    (build / "compile_commands.json").write_text(json.dumps(entries, indent=1),
                                                encoding="utf-8")
    return expected


def main():
    with tempfile.TemporaryDirectory(prefix="milback_analyze_fix.") as td:
        root = Path(td)
        expected = stage_tree(root)
        proc = subprocess.run(
            [sys.executable, str(ANALYZER), str(root)],
            capture_output=True, text=True)
        got = set()
        for line in proc.stdout.splitlines():
            m = FINDING_RE.match(line)
            if m:
                got.add((m.group(3), m.group(1), int(m.group(2))))

        ok = True
        for miss in sorted(expected - got):
            print(f"MISSING  expected finding not reported: "
                  f"[{miss[0]}] {miss[1]}:{miss[2]}")
            ok = False
        for extra in sorted(got - expected):
            print(f"EXTRA    unexpected finding: "
                  f"[{extra[0]}] {extra[1]}:{extra[2]}")
            ok = False
        if proc.returncode == 0 and expected:
            print("EXIT     analyzer exited 0 despite live findings")
            ok = False
        checks_seen = {c for c, _, _ in expected}
        for required in ("A1", "A2", "A3", "A4", "A5", "WAIVER"):
            if required not in checks_seen:
                print(f"FIXTURE  no fixture marker exercises {required}")
                ok = False
        if not ok:
            print("--- analyzer stdout ---")
            print(proc.stdout)
            print("--- analyzer stderr ---")
            print(proc.stderr)
            return 1
        print(f"analyze fixtures OK: {len(expected)} seeded finding(s) "
              "reported exactly; clean pair silent")
        return 0


if __name__ == "__main__":
    sys.exit(main())
