#!/usr/bin/env python3
"""Build and run the repository benchmark; see perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-ingest --seed 1 --seconds 15 --trace 0

It builds bin/scallop.exe and perfbench/bench.exe with dune, then runs the
benchmark, whose last line of standard output is the JSON result.  Files it
writes go under perfbench/out/ and the dune build directory.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve-ingest", "serve-query", "train-step")
TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def commit_id():
    """The git commit, or a hash of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run this from the root of a Scallop checkout (dune-project, bin/ and lib/ not found)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir, "./bin/scallop.exe", "./perfbench/bench.exe"],
        env=env, capture_output=True, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    work = os.path.join("perfbench", "out")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.abspath(os.path.join(build_dir, "default", "perfbench", "bench.exe")),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--exe", os.path.abspath(os.path.join(build_dir, "default", "bin", "scallop.exe")),
        "--work", work, "--commit", commit_id(),
    ]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark did not finish within {TIMEOUT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
