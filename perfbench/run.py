#!/usr/bin/env python3
"""Runs one workload of the daemon benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source (cargo, into $CARGO_TARGET_DIR or
.bench_build), then runs it pinned to one CPU, so the daemon and the load
generator share that CPU for the whole run. The binary's standard output is
passed through; its last line is the JSON result. The exit code is the
binary's: nonzero on any wrong answer, on a failed build, or on a timeout.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("read_resident", "read_paged", "write_mix", "kb_ingest")
RUN_TIMEOUT_S = 170


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds from."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "target"))
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # One CPU for the daemon and the load generator alike: unpinned, the
    # socket round trips flip between scheduling modes from run to run.
    cpu = min(os.sched_getaffinity(0))
    cmd = [
        os.path.join(target, "release", "tc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", source_id(),
    ]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
