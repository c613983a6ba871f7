#!/usr/bin/env python3
"""Build and run the kmachine benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pagerank-tcp --seed 1 --seconds 20 --trace 0

Builds perfbench (a Go module beside the repository's own) into
.bench_build/, computes the workload's reference outputs in a separate
process, then measures. The last line of standard output is the result
object. Everything the build and the run write stays in .bench_build/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")

# The first build compiles the standard library into an empty cache.
BUILD_TIMEOUT_S = 840
REF_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    """Keeps the Go toolchain's caches and scratch files in the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="-buildvcs=false")
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        die("no go.mod at %s: run from the root of a kmachine checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    try:
        subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        die("build failed: %s" % e)


def commit():
    """The checked-out revision, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """A digest of the Go sources, which identifies the code built."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(top, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        ref = subprocess.run([BIN, "--mode", "ref"] + common, stdout=subprocess.PIPE,
                             check=True, timeout=REF_TIMEOUT_S, text=True).stdout
        res = subprocess.run([BIN, "--mode", "run"] + common +
                             ["--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--ref", ref.strip(), "--out", BUILD,
                              "--commit", commit(), "--source", source_digest()],
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        die("%s: %s" % (args.workload, e))
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
