#!/usr/bin/env python3
"""Build the jigsaw CLI and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_churn --seed 1 --seconds 50 --trace 0

`--workload all` runs serve_churn and cg_sense in turn.

Cargo's output goes to stderr; stdout carries only the benchmark's own
lines, the last of which is the JSON result. Builds land in
$CARGO_TARGET_DIR (default: .bench_build).
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def cargo_build(args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=ENV)
    if done.returncode != 0:
        sys.exit("perfbench: `%s` failed" % " ".join(cmd))


def git_rev():
    if not os.path.exists(".git"):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


if not (os.path.isfile("Cargo.toml") and os.path.isfile(MANIFEST)):
    sys.exit("perfbench: run from the repository root (Cargo.toml and %s)" % MANIFEST)

target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
ENV = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
cargo_build(["-p", "jigsaw-cli"])
cargo_build(["--manifest-path", MANIFEST])

release = os.path.join(target, "release")
bench = [os.path.join(release, "perfbench"), "--jigsaw", os.path.join(release, "jigsaw")]
env = dict(os.environ, PERFBENCH_GIT_REV=git_rev())
args = sys.argv[1:]
runs = [args]
if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
    i = args.index("--workload") + 1
    runs = [args[:i] + [w] + args[i + 1:] for w in ("serve_churn", "cg_sense")]
codes = [subprocess.run(bench + r, cwd=ROOT, env=env).returncode for r in runs]
sys.exit(max(codes))
