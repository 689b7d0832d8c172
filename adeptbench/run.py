#!/usr/bin/env python3
"""Build and run the adept benchmark.

    python3 adeptbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library, the `adept` CLI and the benchmark driver from source (CMake,
Release) into $CARGO_TARGET_DIR/adeptbench, or .bench_build/adeptbench
when that variable is unset; later runs rebuild only when a source file
changed. The driver's standard output is passed through, so its last
line is the JSON result. Every process the driver starts is stopped
before this script returns.

    python3 adeptbench/run.py --unit-tests

builds and runs the benchmark's own unit tests instead.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("plan-cold", "serve-open", "churn", "dist-fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"adeptbench: {message}", file=sys.stderr)
    sys.exit(2)


def newest_source_mtime(paths):
    newest = 0.0
    for root in paths:
        for dirpath, _, files in os.walk(root):
            for name in files:
                if name.endswith((".cpp", ".hpp", ".txt")):
                    newest = max(newest, os.stat(os.path.join(dirpath, name)).st_mtime)
    return newest


def build(bench_dir, repo_root, build_dir, targets):
    stamp = build_dir / ".adeptbench-stamp"
    sources = newest_source_mtime([repo_root / "src", bench_dir])
    binaries = [build_dir / t for t in targets]
    if stamp.exists() and all(b.exists() for b in binaries):
        if float(stamp.read_text() or 0) >= sources:
            return
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(bench_dir), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    stamp.write_text(repr(sources))


def revision(repo_root):
    try:
        done = subprocess.run(["git", "-C", str(repo_root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_stopping_children(argv, timeout_s):
    """Runs argv in its own session and kills the whole group afterwards."""
    child = subprocess.Popen(argv, start_new_session=True)
    try:
        code = child.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print("adeptbench: run timed out", file=sys.stderr)
        code = 3
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        # Reap anything of the group that outlived the driver.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit-tests", action="store_true")
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    repo_root = bench_dir.parent
    if not (repo_root / "src" / "planner" / "planner.hpp").is_file():
        fail(f"the adept sources are missing under {repo_root / 'src'}")
    target_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target_root if target_root.is_absolute() else Path.cwd() / target_root) / "adeptbench"

    if args.unit_tests:
        build(bench_dir, repo_root, build_dir, ["adeptbench_tests"])
        sys.exit(subprocess.run([str(build_dir / "adeptbench_tests")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build(bench_dir, repo_root, build_dir, ["adeptbench", "adept"])
    argv = [str(build_dir / "adeptbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--results-dir", str(Path.cwd() / ".bench_results"),
            "--revision", revision(repo_root),
            "--adept", str(build_dir / "adept")]
    sys.stdout.flush()
    sys.exit(run_stopping_children(argv, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
