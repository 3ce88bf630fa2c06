#!/usr/bin/env python3
"""Byte-compare what two builds of the repository print and write.

Usage:
    scripts/diff_bench_outputs.py PARENT_BUILD CHANGE_BUILD [--only REGEX]

Runs every `bench/bench_*` binary and every `examples/*` binary of both
build directories, once with no argument (the binary's default seed) and
once with argument `7` (a seed everywhere except `link_budget_explorer`,
which reads it as a distance in metres). Each run gets a fresh directory as
both its working directory and its `MILBACK_CSV_DIR`, so the CSVs of the two
builds land apart. The stdout, the exit status and every file the run left
behind must be byte-identical between the builds.

`bench_perf_pipeline` is skipped: it prints host timings, not simulation
output. `--only REGEX` restricts the run to binaries whose name matches.

Prints one line per run and exits 1 when any run differs (or a binary exists
in only one build), 0 otherwise. This is the check for changes that must not
move a single simulated bit.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SKIP = {"bench_perf_pipeline"}  # host timings, not simulation output
ARGS = ([], ["7"])


def binaries(build: Path) -> dict[str, Path]:
    found = {}
    for sub, pattern in (("bench", "bench_*"), ("examples", "*")):
        for path in sorted((build / sub).glob(pattern)):
            if path.is_file() and os.access(path, os.X_OK) and path.name not in SKIP:
                found[path.name] = path
    return found


def run(binary: Path, args: list[str], workdir: Path) -> tuple[int, bytes, dict[str, bytes]]:
    workdir.mkdir(parents=True)
    env = dict(os.environ, MILBACK_CSV_DIR=str(workdir))
    proc = subprocess.run([str(binary.resolve()), *args], cwd=workdir, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, files


def describe(a, b) -> str:
    if a[0] != b[0]:
        return f"exit {a[0]} vs {b[0]}"
    if a[1] != b[1]:
        return "stdout differs"
    only = sorted(set(a[2]) ^ set(b[2]))
    if only:
        return "files in one build only: " + ", ".join(only)
    changed = [name for name in sorted(a[2]) if a[2][name] != b[2][name]]
    return "files differ: " + ", ".join(changed) if changed else ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_build", type=Path)
    ap.add_argument("change_build", type=Path)
    ap.add_argument("--only", default="", help="regex on binary names to run")
    opts = ap.parse_args()

    parent, change = binaries(opts.parent_build), binaries(opts.change_build)
    names = sorted(n for n in set(parent) | set(change) if re.search(opts.only, n))
    if not names:
        print("no bench_* or example binaries found", file=sys.stderr)
        return 1

    differences = 0
    with tempfile.TemporaryDirectory(prefix="diff_bench_outputs_") as tmp:
        for name in names:
            if name not in parent or name not in change:
                print(f"DIFF  {name}: present in one build only")
                differences += 1
                continue
            for args in ARGS:
                label = f"{name} {' '.join(args) or '(default)'}"
                case = Path(tmp) / f"{name}-{'-'.join(args) or 'default'}"
                a = run(parent[name], args, case / "parent")
                b = run(change[name], args, case / "change")
                why = describe(a, b)
                print(f"DIFF  {label}: {why}" if why else f"same  {label}")
                differences += bool(why)

    print(f"{differences} difference(s) over {len(names)} binaries")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
