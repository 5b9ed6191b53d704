#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-ll-robust [--seed 14]
                             [--seconds 35] [--trace 0|1]
    python3 perfbench/run.py --self-test

The benchmark is compiled from the checkout's sources into .bench_build/
(Release) on first use and rebuilt incrementally afterwards. Its output goes
to standard output unchanged; the last line is the JSON result. Run from any
directory: paths are resolved against the repository root.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
REQUIRED = ("src/CMakeLists.txt", "tests/golden/paper_grid.txt")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    """Runs a build step with its output appended to `log`; exits on failure."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        result = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed: {' '.join(cmd)}")


def build(target):
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail("not a source checkout of the library (missing " + ", ".join(missing) + ")")
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    log.write_text("")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Once configured, the build step re-runs CMake itself when a build file
    # or the set of sources changes.
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs], log)
    return BUILD_DIR / target


def source_id():
    """The git commit when the checkout has one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_tests")
        sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build("ecdra_perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(OUT_DIR), "--commit", source_id()]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
