#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The benchmark program is a dune
project of its own (perfbench/_pkg).  It is built from the checkout's
sources in a staging tree under the build directory named by
CARGO_TARGET_DIR (default .bench_build): the tree holds the project's
dune-project, its sources as perfbench/ and a copy of the checkout's
lib/.  The program then runs with the same arguments.  Its standard
output is passed through unchanged, so the last line is the result
object.  Build output goes to standard error.
"""

import hashlib
import os
import shutil
import subprocess
import sys

PKG = os.path.join("perfbench", "_pkg")
TARGET = "perfbench/main.exe"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def stage(build_dir):
    """Refresh the staging tree from the checkout and return its path."""
    tree = os.path.join(build_dir, "tree")
    os.makedirs(tree, exist_ok=True)
    shutil.copy2(os.path.join(PKG, "dune-project"), tree)
    for src, dst in [(PKG, "perfbench"), ("lib", "lib")]:
        dst = os.path.join(tree, dst)
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst,
                        ignore=shutil.ignore_patterns("dune-project"))
    return tree


def build(build_dir):
    tree = stage(build_dir)
    cmd = ["dune", "build", "--root", tree, "--profile", "release",
           "./" + TARGET]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(tree, "_build", "default", TARGET)


def git_commit():
    """The commit of this checkout, if it is the top of a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the program's sources, which identifies the code
    measured even where there is no git metadata."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for root, dirs, files in os.walk("lib"):
        dirs.sort()
        paths += [os.path.join(root, f) for f in sorted(files)]
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def json_str(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir(PKG)):
        fail("run from the root of a full checkout (dune-project, lib/ or "
             + PKG + " is missing)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    commit = git_commit()
    provenance = "{%s}" % ", ".join([
        '"git_commit": ' + (json_str(commit) if commit else "null"),
        '"source_sha256": ' + json_str(source_digest()),
        '"cpu_model": ' + json_str(cpu_model()),
    ])
    span_dir = os.path.join(build_dir, "perfbench-spans")
    os.makedirs(span_dir, exist_ok=True)
    args = [exe] + sys.argv[1:] + ["--provenance", provenance,
                                   "--span-dir", span_dir]
    try:
        r = subprocess.run(args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
