#!/usr/bin/env python3
"""Self-test for scripts/diff_bench_outputs.py.

Usage: run_diff_bench_selftest.py BUILD_DIR

1. Passes the same build directory as both builds (restricted to a few fast
   binaries) and expects exit 0: every run must reproduce itself.
2. Stages two fake builds whose one `bench_*` binary differs in stdout, and
   then in a written CSV, and expects exit 1 for each.

Exit status 0 when both hold, 1 otherwise.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
TOOL = REPO / "scripts" / "diff_bench_outputs.py"


def diff(parent, change, *extra):
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change), *extra],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)


def fake_build(root: Path, stdout: str, csv: str) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "examples").mkdir()
    script = root / "bench" / "bench_fake"
    script.write_text("#!/bin/sh\n"
                      f"echo '{stdout}' \"$@\"\n"
                      f"echo '{csv}' > \"$MILBACK_CSV_DIR/fake.csv\"\n")
    script.chmod(0o755)
    return root


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    build = Path(sys.argv[1])
    failures = []

    same = diff(build, build, "--only", r"^(bench_fig12a_ranging|bench_ext_nlos|quickstart)$")
    if same.returncode != 0:
        failures.append("same build twice exited %d:\n%s" % (same.returncode, same.stdout))

    with tempfile.TemporaryDirectory() as tmp:
        t = Path(tmp)
        base = fake_build(t / "base", "x", "a,1")
        for name, stdout, csv in (("stdout", "y", "a,1"), ("csv", "x", "a,2")):
            other = fake_build(t / name, stdout, csv)
            r = diff(base, other)
            if r.returncode != 1 or "DIFF" not in r.stdout:
                failures.append("a %s difference exited %d:\n%s" % (name, r.returncode, r.stdout))
        r = diff(base, fake_build(t / "copy", "x", "a,1"))
        if r.returncode != 0:
            failures.append("identical fake builds exited %d:\n%s" % (r.returncode, r.stdout))

    for f in failures:
        print("FAIL:", f)
    print("diff_bench_outputs self-test:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
