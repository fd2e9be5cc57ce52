#!/usr/bin/env python3
"""The repository's benchmark: builds the runner from source, runs a workload.

    python3 perfbench/run.py --workload paper3d|program|serve|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/ (CMake, Release) into .bench_build/perfbench at the
checkout root, then runs the runner from the root. Its output is relayed
as is; the last stdout line is the one-line JSON result
{"correct", "attempted", "failed", "metrics"}. A JSON record with
provenance (and, with --trace 1, a Chrome trace) lands in .bench_out/.

--workload all runs the three workloads in turn, printing each one's
metrics by name and unit; it exits nonzero if any of them does.
Exit codes: 0 all jobs bit-exact, 1 a failed/inexact job or a timeout,
2 a build or usage error. See perfbench/README.md for what each workload
and metric is for.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
WORKLOADS = ("paper3d", "program", "serve")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_runner", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def commit():
    # Only this checkout's own metadata: git would otherwise search the
    # parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: the provenance that
    survives a checkout without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_one(args, workload, provenance):
    cmd = [RUNNER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--commit", provenance[0],
           "--source-digest", provenance[1]]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: runner exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:  # interrupted: never leave the runner behind
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: the self-check mode")
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    # A terminated driver must not orphan the runner: turn SIGTERM into an
    # exception so run_one's cleanup kills and reaps it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not build():
        return 2
    provenance = (commit(), source_digest())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_one(args, w, provenance) for w in workloads]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())
