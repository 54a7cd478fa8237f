#!/usr/bin/env python3
"""Build and run the ccsim host-time benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-pins

Run from the repository root. The benchmark binary is built from the
repository's src/ tree into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then run single-threaded with every CCSIM_*
environment knob removed, so the environment cannot change what it
simulates. The last stdout line is the binary's JSON result. A traced run
also writes its first point's lifecycle spans to spans-<workload>.jsonl
next to the binary.

Exits nonzero without a result when the sources or the toolchain are
missing, the build fails, or the run does not finish in time.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.tsv")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so no process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ccsim sources (src/CMakeLists.txt) next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    log = sys.stderr  # Keep stdout for the result.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
               stdout=log) != 0:
            fail("cmake configure failed")
    if run(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S,
           stdout=log) != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "ccsim_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no ccsim_perfbench binary")
    return binary


def revision():
    """git commit when the tree is a git checkout, plus a digest of src/ so
    the code measured is identified either way."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    return "git:%s src-sha256:%s" % (commit, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-pins", action="store_true",
                        help="rewrite pins.tsv from the current code")
    args = parser.parse_args()
    if not (args.self_test or args.write_pins or args.workload):
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCSIM_")}
    if args.write_pins:
        cmd = [binary, "--write-pins", PINS]
    elif args.self_test:
        cmd = [binary, "--self-test", "--pins", PINS]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--pins", PINS, "--rev", revision()]
        if args.trace:
            # The traced run's lifecycle spans, next to the binary.
            cmd += ["--spans", os.path.join(os.path.dirname(binary),
                                            "spans-%s.jsonl" % args.workload)]
    sys.stdout.flush()
    sys.exit(run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env))


if __name__ == "__main__":
    main()
