#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <gemm_f32_square|gemm_dtype_mix|dnn_forward> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package twice
into $CARGO_TARGET_DIR (default `.bench_build`): `timed/` as a user builds
the library, and `traced/` with cake-core's traffic counters. Both builds
happen on every call (a no-op once they are fresh), so the first run pays
for both. `--trace 1` runs the traced build, anything else the timed one.

The library is measured as a user calls it: CAKE_KERNEL and
CAKE_TUNE_CACHE are removed from the environment. The run record gets
the git revision (when the root is a git work tree), a digest of the
library sources and the compiler version. The benchmark's exit code is
passed through; a failed build exits non-zero without a result line.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VARIANTS = {"timed": [], "traced": ["--features", "traced"]}
SOURCE_DIRS = ["crates", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def trace_requested(argv):
    return any(a == "--trace" and b == "1" for a, b in zip(argv, argv[1:]))


def build(target_root):
    """Build both variants; return their executables, or None on failure."""
    exes = {}
    for variant, features in VARIANTS.items():
        target = os.path.join(target_root, variant)
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml"),
               "--target-dir", target] + features
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
        exes[variant] = os.path.join(target, "release", "perfbench")
    return exes


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = [x for x in dirs if x != "target"]
            paths += [os.path.join(base, f) for f in files if f.endswith((".rs", ".toml"))]
    for p in sorted(set(paths)):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd, env=None):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def git_rev():
    # Git must not look for a repository above the root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    git = ["git", "-C", ROOT]
    top = command_output(git + ["rev-parse", "--show-toplevel"], env)
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "none (not a git work tree)"
    rev = command_output(git + ["rev-parse", "HEAD"], env) or "unknown"
    dirty = command_output(git + ["status", "--porcelain", "--untracked-files=no"], env)
    return rev + ("+dirty" if dirty else "")


def main():
    argv = sys.argv[1:]
    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    exes = build(target_root)
    if exes is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    for var in ("CAKE_KERNEL", "CAKE_TUNE_CACHE"):
        env.pop(var, None)
    env["PERFBENCH_GIT_REV"] = git_rev()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    exe = exes["traced" if trace_requested(argv) else "timed"]
    return subprocess.run([exe] + argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
