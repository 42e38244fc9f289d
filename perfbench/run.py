#!/usr/bin/env python3
"""Build and run the ccdp benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload fleet_wire|large_wire|stream_cold \
        --seed N --seconds S --trace 0|1

Builds the `ccdp_perfbench` package (perfbench/Cargo.toml, release profile,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs it. The
build log goes to stderr. The benchmark's last stdout line is the result
object; the line before it stamps the environment (commit, source digest,
rustc, profile, nproc, seed), sample counts and the per-layer attribution.
Unit tests of the benchmark's own machinery:

    cargo test --offline --manifest-path perfbench/Cargo.toml
"""

import hashlib
import os
import subprocess
import sys

# The benchmark itself stops measuring by 120 s; this only catches a hang.
RUN_TIMEOUT_S = 175
# Sources whose digest identifies the measured code when there is no git.
DIGEST_ROOTS = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def source_digest():
    h = hashlib.sha256()
    for root in DIGEST_ROOTS:
        paths = []
        if os.path.isfile(root):
            paths = [root]
        for top, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            paths += [os.path.join(top, f) for f in sorted(files)]
        for path in paths:
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(args):
    try:
        out = subprocess.run(args, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("run.py: run from the root of a ccdp source checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    env["CCDP_BENCH_COMMIT"] = (command_output(["git", "rev-parse", "HEAD"])
                                if os.path.isdir(".git") else "unknown")
    env["CCDP_BENCH_RUSTC"] = command_output(["rustc", "-V"])
    env["CCDP_BENCH_SOURCE_DIGEST"] = source_digest()
    binary = os.path.join(target, "release", "ccdp_perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
