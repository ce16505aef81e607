#!/usr/bin/env python3
"""Builds the macro benchmark from this checkout and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload cad_sync --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20
    python3 perfbench/run.py --selfcheck

The engine libraries are built from ./src together with the benchmark, in
Release, under $CARGO_TARGET_DIR (default .bench_build).  Build output goes
to stderr; stdout carries the benchmark's report, whose last line is one
JSON object with the keys correct, attempted, failed and metrics (--all
prints one report per workload and mode instead).  All run data is written
under the build directory and removed afterwards.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per run of one workload in one mode; --all makes six such runs.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "macro", "-j",
           str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "macro")


def source_sha256():
    """Digest of the engine and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD's commit, read from ./.git without running git; 'none' when the
    checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, end-to-end and traced")
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    if not (a.selfcheck or a.all or a.workload):
        p.error("--workload, --all or --selfcheck is required")

    out = build_dir()
    macro = build(out)
    work = os.path.join(out, "run")
    if a.selfcheck:
        cmd = [macro, "--selfcheck", "--dir", work]
    elif a.all:
        cmd = [macro, "--all", "--seed", str(a.seed), "--seconds",
               str(a.seconds), "--dir", work, "--git-sha", git_sha(),
               "--source-sha", source_sha256()]
    else:
        cmd = [macro, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--dir", work, "--git-sha", git_sha(),
               "--source-sha", source_sha256()]
        if a.trace:
            cmd += ["--spans-out",
                    os.path.join(out, f"spans-{a.workload}-{a.seed}.json")]
    timeout = RUN_TIMEOUT_S * (6 if a.all else 1)
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout} s", 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
