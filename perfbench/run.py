#!/usr/bin/env python3
"""Run one lcp benchmark workload, from the root of an lcp checkout.

    python3 perfbench/run.py --workload hot-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds `lcp` and the harness with dune, then runs perfbench/lcpbench.exe
against real `lcp serve` / `lcp route` processes. Every metric is printed
by name with its unit; the last line of stdout is the JSON result, and
the run record is appended to perfbench/out/results.jsonl. Exits 2 when
the current directory is not an lcp checkout, 1 on a wrong verdict.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD = "_build/default"
SOURCES = ("dune-project", "lib", "bin", "perfbench")


def source_digest():
    """SHA-256 over every source file the benchmark builds from."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if not d.startswith(os.path.join("perfbench", "out"))
            for f in files)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout, if it is itself a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath("."):
        return "unknown"
    return lines[1]


def run_child(argv, timeout):
    """Run argv, forwarding SIGINT/SIGTERM, and kill it past timeout."""
    child = subprocess.Popen(argv)

    def forward(signum, _frame):
        child.send_signal(signal.SIGINT)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.send_signal(signal.SIGINT)
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="perfbench/out/results.jsonl")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if not all(os.path.exists(p) for p in SOURCES):
        print("perfbench: run from the root of an lcp checkout", file=sys.stderr)
        return 2
    if not a.selftest and not a.workload:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2

    # dune's shared cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/lcp.exe",
         "./perfbench/lcpbench.exe", "./perfbench/selftest.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()

    if a.selftest:
        return run_child([os.path.join(BUILD, "perfbench/selftest.exe")], 600)
    os.makedirs("perfbench/out", exist_ok=True)
    argv = [
        os.path.join(BUILD, "perfbench/lcpbench.exe"),
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--lcp", os.path.join(BUILD, "bin/lcp.exe"),
        "--dir", "perfbench/out", "--out", a.out,
        "--commit", commit(), "--source-digest", source_digest(),
    ]
    return run_child(argv, 2 * a.seconds + 120)


if __name__ == "__main__":
    sys.exit(main())
