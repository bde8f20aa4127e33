#!/usr/bin/env python3
"""Builds the Tabula benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Workloads: filter_wire, ingest_budget,
cube_build (BENCHMARK.json says why each exists).

The CMake project in perfbench/ compiles src/ and the benchmark into
$CARGO_TARGET_DIR (default: .bench_build under the root); the first run
configures and builds, later runs reuse the build. The benchmark runs
on one CPU (it pins itself) and times set-ups and reads on the process
CPU clock, which leaves out time the hypervisor gives that CPU to other
guests; TABULA_THREADS is set to 1 rather than inherited. Each run gets
a fresh temporary directory inside the build directory for its ingest
journal and spill file, removed when the run ends, so back-to-back runs
share no state.

Standard output ends with two JSON lines: the run envelope (commit,
threads, SIMD path, sample counts, error and degraded rates, cache hit
rate, ingest lag) and then the result, {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer split. The exit code is non-zero when a
call failed or an unflagged answer violated the accuracy bound.

Tests of the benchmark's own statistics:

    cmake --build .bench_build --target perfbench_stats_test
    .bench_build/perfbench_stats_test
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("filter_wire", "ingest_budget", "cube_build")
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no Tabula sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(max(1, min(4, os.cpu_count() or 1)))],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def fixed_layout():
    """Turns off address-space randomization for the benchmark process
    (personality ADDR_NO_RANDOMIZE; inherited through exec). With it on,
    about one process in four ran its set-ups ~60% slower, whatever the
    seed; left on where the kernel refuses."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def source_id():
    """Names the code under test: a digest of the sources the benchmark
    compiles, preceded by the git commit when the checkout has one."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            ident = head.stdout.strip() + " " + ident
    return ident


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    env = dict(os.environ, TABULA_THREADS="1")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp_dir, "--commit", source_id()]
    try:
        proc = subprocess.run(command, env=env, cwd=tmp_dir,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
