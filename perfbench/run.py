#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repo root. Configures and builds perfbench/ (a CMake
project that compiles the protozoa library from src/) into the
directory named by CARGO_TARGET_DIR, else .bench_build, then runs the
perfbench binary with the same arguments. Build output goes to stderr;
the binary's stdout passes through unchanged, so its last line is the
JSON result. The exit code is the binary's: 0 when every operation
passed, 1 when one failed, 2 when the build or the arguments were
refused.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# Environment knobs that would change what is measured (sharded
# engine, sweep threads, trace scale); the binary clears them too.
PINNED_ENV = ("PROTOZOA_SIM_THREADS", "PROTOZOA_JOBS", "PROTOZOA_SCALE")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def run_step(cmd, timeout, env):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"protozoa sources not found at {ROOT / 'src'}")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    # Keep the compiler's temporary files inside the build tree.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not (out / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env)
    run_step(["cmake", "--build", str(out), "--target", "perfbench",
              "-j", jobs], BUILD_TIMEOUT_S, env)
    return out / "perfbench"


def main():
    out = build_dir()
    binary = build(out)
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cmd = [str(binary), *sys.argv[1:], "--scratch", str(out)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench/run.py: run timed out", file=sys.stderr)
        rc = 124
    finally:
        # The binary removes its PZTR trace itself; this covers a crash.
        for leftover in out.glob(f"perfbench-{proc.pid}-*.pztr"):
            leftover.unlink()
    if rc < 0:
        rc = 128 - rc
        print(f"perfbench/run.py: killed by {signal.Signals(rc - 128).name}",
              file=sys.stderr)
    sys.exit(rc)


if __name__ == "__main__":
    main()
