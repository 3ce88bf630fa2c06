#!/usr/bin/env python3
"""End-to-end benchmark of milback: build the binary, run it, check it.

Usage (from the repository root):

  python3 bench/e2e/run.py [--repeats N] [--seed S] [--seconds T] [--out FILE]
      Runs every workload: N untraced runs on seeds S..S+N-1 (the end-to-end
      metrics) and one traced run on seed S (the per-layer breakdown). Prints
      every metric with its unit, a layer table per workload and the drift
      against the pinned anchor.json, and writes all runs with their
      provenance to FILE. Exits non-zero when a traced and an untraced run of
      one seed disagree on the simulated outputs, or on malformed output.

  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1
      One run of one workload. Prints the metrics, then as its last line one
      JSON object {"correct", "attempted", "failed", "metrics"} holding the
      end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
      metrics (--trace 1).

  python3 bench/e2e/run.py compare A.json B.json
      Compares two result files metric by metric: both medians, their
      quartile spreads, the change against the metric's bound and a verdict
      (ok, worse, or unresolved when the spread exceeds the bound), then
      whether the simulated outputs of each (workload, seed) are identical.

The binary, milback_e2e, is built from source into
$CARGO_TARGET_DIR/milback_e2e (default .bench_build/milback_e2e) with its own
CMake project, and runs with MILBACK_SIM_THREADS=2.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ANCHOR = HERE / "anchor.json"
SIM_THREADS = 2
RUN_TIMEOUT_S = 170
# Metrics `compare` judges beside the gated ones in BENCHMARK.json. The tail
# latency of campus_100k is the slowest of its 3 repetitions and spreads too
# far to gate; the simulated outcomes are pure functions of (code, seed), so
# they only move when a change alters the simulation itself.
UNGATED_BOUNDS = {
    "op_ms_p99": ("lower", 0.20),
    "outcome.loc_err_cm_p90": ("lower", 0.05),
    "outcome.goodput_mbps": ("higher", 0.01),
    "outcome.bytes_per_node": ("lower", 0.02),
}
FAIL_RATIO_BOUND = 0.002  # absolute
EXTRA_UNITS = {"op_ms_p99": "ms", "fail_ratio": "ratio", "host_slowdown": "ratio"}
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def units(spec: dict) -> dict:
    out = dict(EXTRA_UNITS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        out[m["name"]] = m["unit"]
    return out


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR")
    base_path = Path(base) if base else Path(".bench_build")
    if not base_path.is_absolute():
        base_path = ROOT / base_path
    return base_path / "milback_e2e"


def run_logged(cmd: list[str]) -> None:
    """Runs a build step with its output on stderr (stdout carries results)."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")


def build() -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no milback sources to build")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(bdir), "--target", "milback_e2e", "-j", jobs])
    binary = bdir / "milback_e2e"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def sim_threads() -> int:
    return max(1, min(SIM_THREADS, os.cpu_count() or 1))


def fixed_layout() -> None:
    """Turns address-space randomization off in the child before it execs the
    binary. With it on, the peak resident set of one seed moved by up to
    0.2 MB of 4 MB between runs; with it off a short run repeats it to the
    page. Where the kernel refuses, the run goes ahead randomized."""
    try:
        personality = ctypes.CDLL(None).personality
        personality.argtypes = [ctypes.c_ulong]
        persona = personality(0xFFFFFFFF)  # query only
        if persona != -1:
            personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_binary(binary: Path, workload: str, seed: int, seconds: float,
               traced: bool) -> dict:
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, MILBACK_SIM_THREADS=str(sim_threads()))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, check=False,
                              text=True, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} seed {seed}: milback_e2e exceeded "
                         f"{RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: milback_e2e exited with "
                         f"{proc.returncode}")
    try:
        run = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{workload} seed {seed}: malformed milback_e2e output") from e
    for key in ("workload", "seed", "traced", "attempted", "failed", "digest",
                "correct", "metrics", "layers", "layer_root_ms"):
        if key not in run:
            raise BenchError(f"{workload} seed {seed}: milback_e2e output lacks {key}")
    for name, value in run["metrics"].items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{workload} seed {seed}: metric {name} is {value}")
    run["seconds"] = seconds
    return run


def contract_metrics(run: dict, spec: dict) -> dict:
    """The BENCHMARK.json metric set of this run, each with its unit."""
    wanted = spec["per_layer"] if run["traced"] else spec["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in run["metrics"]:
            raise BenchError(f"{run['workload']}: milback_e2e did not report {m['name']}")
        out[m["name"]] = {"value": run["metrics"][m["name"]], "unit": m["unit"]}
    return out


def fmt(value: float) -> str:
    return f"{value:.4g}"


def print_metrics(run: dict, spec: dict) -> None:
    unit = units(spec)
    mode = "traced" if run["traced"] else "timed"
    print(f"== {run['workload']} seed {run['seed']} ({mode}): {run['ops']} ops "
          f"({run['op']}), {run['reps']} reps, {run['attempted']} checked, "
          f"{run['failed']} failed, digest {run['digest']}")
    zero = [name for name, value in run["metrics"].items() if value == 0]
    for name, value in run["metrics"].items():
        if value != 0:
            print(f"  {name:34s} {fmt(value):>12s} {unit.get(name, '')}")
    if zero:
        print(f"  reading 0 (a layer not exercised, or no misses/failures): "
              f"{', '.join(zero)}")
    if run["traced"]:
        print_layer_table(run)


def print_layer_table(run: dict) -> None:
    """Calls/op x cost/call per layer, its share of the mean operation, each
    parent's unexplained remainder and the tracing overhead."""
    rows = run["layers"]
    op_ms = run["layer_root_ms"]
    children: dict[str, list[dict]] = {}
    for r in rows:
        children.setdefault(r["parent"], []).append(r)

    def wall_ms(r: dict) -> float:
        return r["calls_per_op"] * r["cost_ms"] / r["par"]

    print(f"  layers of {run['workload']} (mean op {fmt(op_ms)} ms untraced; "
          f"share = of that op; 'par' rows run on that many workers)")
    print(f"    {'layer':40s} {'calls/op':>10s} {'cost/call':>12s} "
          f"{'ms/op':>10s} {'share':>7s}")

    def emit(parent: str, depth: int, total_ms: float) -> None:
        kids = children.get(parent, [])
        for r in kids:
            w = wall_ms(r)
            par = f" par {r['par']:g}" if r["par"] > 1 else ""
            print(f"    {'  ' * depth + r['name']:40s} {r['calls_per_op']:10.4g} "
                  f"{fmt(r['cost_ms']) + ' ms':>12s} {w:10.4g} "
                  f"{100 * w / op_ms:6.1f}%{par}")
            emit(r["name"], depth + 1, w)
        if kids and parent != "setup":
            rest = total_ms - sum(wall_ms(r) for r in kids)
            label = "unattributed" if parent == "op" else f"{parent} (self)"
            print(f"    {'  ' * depth + label:40s} {'':10s} {'':12s} "
                  f"{rest:10.4g} {100 * rest / op_ms:6.1f}%")
            if rest < 0:
                print(f"    warning: the layers under {parent} add up to more "
                      f"than it ({fmt(total_ms - rest)} > {fmt(total_ms)} ms)")

    emit("op", 0, op_ms)
    if "setup" in children:
        print("    set-up (outside the op):")
        emit("setup", 1, 0.0)
    print(f"    tracing overhead: traced/untraced = "
          f"{fmt(run['metrics'].get('trace.overhead_ratio', 0.0))}")


def git_state() -> dict:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout
        return {"git_sha": sha, "git_dirty": bool(dirty.strip())}
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": "unknown (not a git checkout)", "git_dirty": None}


def provenance(seeds: list[int], load_avg: tuple[float, ...]) -> dict:
    bdir = build_dir()
    out = git_state()
    shown_dir = bdir.relative_to(ROOT) if bdir.is_relative_to(ROOT) else bdir
    out.update({"nproc": os.cpu_count(), "milback_sim_threads": sim_threads(),
                "load_avg_at_start": list(load_avg), "seeds": seeds,
                "build_dir": str(shown_dir)})
    try:
        cache = (bdir / "CMakeCache.txt").read_text()
        for line in cache.splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                out["build_type"] = line.split("=", 1)[1]
        # Flags of a library translation unit: the code under measurement.
        for entry in json.loads((bdir / "compile_commands.json").read_text()):
            if entry["file"].endswith("src/milback/ap/localizer.cpp"):
                words = entry["command"].split()
                out["compiler"] = words[0]
                out["flags"] = [w for w in words[1:]
                                if w.startswith(("-O", "-g", "-D", "-std", "-f", "-m"))]
        version = subprocess.run([out["compiler"], "--version"], capture_output=True,
                                 text=True, check=False).stdout.splitlines()
        out["compiler_version"] = version[0] if version else "unknown"
    except (OSError, ValueError, KeyError):
        out.setdefault("build_type", "unknown")
    return out


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def seed_values(runs: list[dict], workload: str, name: str) -> dict[int, float]:
    """The untraced runs' values of one metric, by seed."""
    return {r["seed"]: r["metrics"][name] for r in runs
            if r["workload"] == workload and not r["traced"] and name in r["metrics"]}


def metric_values(runs: list[dict], workload: str, name: str) -> list[float]:
    return list(seed_values(runs, workload, name).values())


def bounds(spec: dict) -> list[tuple[str, str, float, bool]]:
    """(name, better, bound, absolute) for every compared metric."""
    out = [(m["name"], m["better"], m["bound"], False) for m in spec["end_to_end"]]
    out += [(n, b, v, False) for n, (b, v) in UNGATED_BOUNDS.items()]
    out.append(("fail_ratio", "lower", FAIL_RATIO_BOUND, True))
    return out


def seeded_change(a: list[dict], b: list[dict], workload: str, name: str) -> float:
    """Median relative change over the seeds both sets ran. Simulated outcomes
    are pure functions of (code, seed), so they are compared seed by seed:
    their spread over seeds is the workload's, not noise."""
    sa, sb = seed_values(a, workload, name), seed_values(b, workload, name)
    changes = [(sb[s] - sa[s]) / sa[s] for s in sa.keys() & sb.keys() if sa[s]]
    return statistics.median(changes) if changes else 0.0


def compare(a_path: Path, b_path: Path, spec: dict) -> int:
    a = json.loads(a_path.read_text())["runs"]
    b = json.loads(b_path.read_text())["runs"]
    worse = 0
    print(f"{'workload':12s} {'metric':24s} {'median A':>11s} {'median B':>11s} "
          f"{'spread A':>9s} {'spread B':>9s} {'change':>8s} {'bound':>7s}  verdict")
    for w in [wl["name"] for wl in spec["workloads"]]:
        for name, better, bound, absolute in bounds(spec):
            va, vb = metric_values(a, w, name), metric_values(b, w, name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if better == "lower" else -1.0
            if absolute:
                change, sa, sb = sign * (mb - ma), 0.0, 0.0
            elif name.startswith("outcome."):
                change, sa, sb = sign * seeded_change(a, b, w, name), 0.0, 0.0
            else:
                change = sign * (mb - ma) / ma if ma else 0.0
                sa, sb = spread(va), spread(vb)
            all_better = all(sign * (y - x) < 0 for x in va for y in vb)
            if max(sa, sb) > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{w:12s} {name:24s} {fmt(ma):>11s} {fmt(mb):>11s} {sa:9.3f} "
                  f"{sb:9.3f} {100 * change:+7.2f}% {100 * bound:6.1f}%  {verdict}")
    digests_a = {(r["workload"], r["seed"]): r["digest"] for r in a}
    shared = [((r["workload"], r["seed"]), r["digest"]) for r in b
              if (r["workload"], r["seed"]) in digests_a]
    mismatched = sorted({k for k, d in shared if digests_a[k] != d})
    if mismatched:
        print(f"digests: differ for {mismatched}")
    else:
        print(f"digests: identical on all {len(shared)} runs sharing a (workload, seed)")
    return 1 if worse or mismatched else 0


def drift_against_anchor(runs: list[dict], spec: dict) -> None:
    if not ANCHOR.is_file():
        print("drift: no anchor.json to compare against")
        return
    anchor = json.loads(ANCHOR.read_text())["runs"]
    print(f"drift against {ANCHOR.name} (informational; it never gates):")
    for w in [wl["name"] for wl in spec["workloads"]]:
        parts = []
        for name, better, _, absolute in bounds(spec):
            now, then = metric_values(runs, w, name), metric_values(anchor, w, name)
            if not now or not then or absolute:
                continue
            base = statistics.median(then)
            if base:
                parts.append(f"{name} {100 * (statistics.median(now) - base) / base:+.1f}%")
        if parts:
            print(f"  {w}: " + ", ".join(parts))


def run_all(args: argparse.Namespace, spec: dict) -> int:
    out_path = Path(args.out) if args.out else build_dir() / "results" / time.strftime(
        "run-%Y%m%d-%H%M%S.json")
    if out_path.resolve() == ANCHOR and ANCHOR.exists():
        raise BenchError(f"refusing to overwrite the pinned {ANCHOR}")
    seeds = list(range(args.seed, args.seed + args.repeats))
    load_avg = os.getloadavg()
    binary = build()
    prov = provenance(seeds, load_avg)
    print("provenance: " + json.dumps(prov))
    runs, bad = [], []
    for w in [wl["name"] for wl in spec["workloads"]]:
        timed = [run_binary(binary, w, s, args.seconds, False) for s in seeds]
        traced = run_binary(binary, w, args.seed, args.seconds, True)
        for r in timed + [traced]:
            contract_metrics(r, spec)
            if not r["correct"] or r["failed"]:
                bad.append(f"{w} seed {r['seed']}: {r['failed']} failed {r['error']}")
        runs += timed + [traced]
        print(f"\n#### {w}: median over seeds {seeds[0]}..{seeds[-1]} "
              f"(spread = quartile distance / median)")
        unit = units(spec)
        for name in timed[0]["metrics"]:
            vals = [r["metrics"][name] for r in timed]
            print(f"  {name:34s} {fmt(statistics.median(vals)):>12s} "
                  f"{unit.get(name, ''):6s} spread {spread(vals):.3f}")
        print_metrics(traced, spec)
        if traced["digest"] != timed[0]["digest"]:
            bad.append(f"{w} seed {args.seed}: traced digest {traced['digest']} != "
                       f"untraced {timed[0]['digest']}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"provenance": prov, "runs": runs},
                                   separators=(",", ":")) + "\n")
    print(f"\nwrote {out_path}")
    drift_against_anchor(runs, spec)
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    return 1 if bad else 0


def run_one(args: argparse.Namespace, spec: dict) -> int:
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload}")
    load_avg = os.getloadavg()
    binary = build()
    run = run_binary(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    metrics = contract_metrics(run, spec)
    print("provenance: " + json.dumps(provenance([args.seed], load_avg)))
    print_metrics(run, spec)
    if run["error"]:
        print(f"error: {run['error']}", file=sys.stderr)
    print(json.dumps({"correct": bool(run["correct"]) and run["failed"] == 0,
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", type=Path)
        p.add_argument("b", type=Path)
        args = p.parse_args(argv[1:])
        return compare(args.a, args.b, load_spec())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seed < 0 or args.repeats < 1 or not 0 < args.seconds <= 600:
        p.error("need --seed >= 0, --repeats >= 1 and 0 < --seconds <= 600")
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
