#!/usr/bin/env python3
"""Builds and runs the whole-stack benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metrics and bounds are declared in BENCHMARK.json at the
repository root; perfbench/layers.json says why each workload exists,
which workloads measure each per-layer metric, and which end-to-end
metric it should move.

The script builds the `perfbench` program (a cargo package of its own in
this directory) and the `csp-serve` binary, both in release mode under
$CARGO_TARGET_DIR (default: .bench_build), then runs one workload. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The line above it holds the
provenance header (host threads, rustc, source revision, build profile,
seed, tracing). The full result, header included, is also written to
perfbench/out/, next to the span file of a traced run.

Exit status is 0 only when a result was printed; a failed build or a
crashed run exits 1 without printing one.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
PROFILE = "release"
# The program itself stops after --seconds plus at most one operation
# and its checks; this only guards against a hang.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_revision():
    """The git revision, or a digest of the sources when not in git."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    rev = command_output(["git", "rev-parse", "HEAD"])
    if rev and top and Path(top).resolve() == ROOT:
        dirty = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
        return rev + ("+dirty" if dirty else "")
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for sub in ("crates", "vendor", "perfbench"):
        files += sorted(
            p
            for p in (ROOT / sub).rglob("*")
            if p.is_file() and "out" not in p.relative_to(ROOT).parts
        )
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def host_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "csp-serve", "--bin", "csp-serve"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def validate(result, declared, measured_here):
    """Checks the program's metrics against the declared ones.

    Per-layer metrics a workload does not measure (layers.json lists
    where each is measured) are reported as 0: the workload made no call
    they count. Returns (metrics, problems).
    """
    metrics = dict(result["metrics"])
    problems = []
    for name, unit in declared.items():
        if name not in metrics:
            if measured_here is not None and name not in measured_here:
                metrics[name] = {"value": 0, "unit": unit}
            else:
                problems.append(f"metric {name} missing from the output")
            continue
        got = metrics[name]
        if got.get("unit") != unit:
            problems.append(f"metric {name} has unit {got.get('unit')!r}, declared {unit!r}")
        value = got.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"metric {name} has no numeric value ({value!r})")
    for name in metrics:
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        if not NAME.match(name):
            problems.append(f"metric name {name!r} does not match {NAME.pattern}")
    return {n: metrics[n] for n in declared if n in metrics}, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    layers = load_json(HERE / "layers.json")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build(target_dir)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    provenance = {
        "workload": args.workload,
        "host_threads": host_threads(),
        "rustc": command_output(["rustc", "-V"]),
        "revision": source_revision(),
        "profile": PROFILE,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }

    cmd = [
        str(target_dir / PROFILE / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out_dir),
        "--serve-bin", str(target_dir / PROFILE / "csp-serve"),
    ]
    # One malloc arena: with one arena per thread, how much freed memory
    # the sharded core's and the service's worker threads leave resident
    # varies from run to run, and peak_rss_mb with it.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"the benchmark exited with status {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"the benchmark's last line is not JSON: {lines[-1][:200]!r}")

    if args.trace:
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        measured_here = {
            name
            for name, spec in layers["per_layer"].items()
            if args.workload in spec["measured_on"]
        }
    else:
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        measured_here = None
    metrics, problems = validate(result, declared, measured_here)
    for p in problems:
        print(f"schema: {p}")
    final = {
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(
        json.dumps({"provenance": provenance, "notes": lines[:-1], "result": final}, indent=1)
        + "\n"
    )
    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(provenance))
    print(json.dumps(final))


if __name__ == "__main__":
    main()
