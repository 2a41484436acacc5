#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wan_read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --check

The first form measures one workload (wan_read, mpiio_rw or metastorm)
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer split with --trace 1. The second form runs every workload,
cross-checks the modeled rates against the experiments package, checks
determinism and the layer mapping, prints every metric by name with its
unit, and exits non-zero on any failure. GLOSSARY.md defines the metrics.

The Go driver in this directory is built from source on every run into
.bench_build/ (or $CARGO_TARGET_DIR when set), with the Go build cache
kept there too, so a run reads and writes only inside the checkout.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.abspath(os.path.join(ROOT, out))
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=tmp,
        # The go command keeps its telemetry and env file under the user
        # config directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        XDG_CACHE_HOME=os.path.join(out, "cache"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, check=True, timeout=BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    if not args.check and not args.workload:
        ap.error("--workload or --check is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "-commit", commit()]
    timeout = None
    if args.check:
        cmd.append("-check")
    else:
        cmd += ["-workload", args.workload, "-seed", str(args.seed),
                "-seconds", str(args.seconds), "-trace", str(args.trace)]
        timeout = RUN_TIMEOUT_S
    sys.stdout.flush()
    # Its own process group, so a timeout or interrupt kills and waits
    # for everything the driver started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
