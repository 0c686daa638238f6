#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-later-8k --seed 1 \\
        --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library sources
under src/ plus the benchmark program under perfbench/src/) into
.bench_build/perfbench; later runs only rebuild what changed. Build output goes to stderr. The
benchmark's stdout is passed through unchanged: its last line is the
result JSON. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    env = dict(os.environ, CCACHE_DISABLE="1")
    generator = ["-G", "Ninja"] if _have("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, env=env)


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke tests)")
    parser.add_argument("--test-drop-hop", action="store_true",
                        help="test-only fault: drop a hop of every route")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha=" + git_sha(),
           "--source-digest=" + source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    if args.test_drop_hop:
        cmd.append("--test-drop-hop")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
