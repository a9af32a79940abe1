#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload corpus|paper-large|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/bench.exe with dune
(no shared dune cache, so nothing is written outside the tree), runs it
with generated inputs under .bench_build/perfbench/ (where a traced run
also leaves its spans; a timed run is pinned to one processor), and
passes its output through; the last line is the JSON result. The exit
code is the benchmark's: 0 only when every output was correct.
BENCHMARK.json at the root lists the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the library and benchmark sources, for the stamp."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    # Turn SIGTERM into an exception, so the benchmark process is killed
    # and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build = subprocess.run(
        ["dune", "build", "--cache=disabled", "--root", ROOT,
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # A timed run goes on one processor, the last this process may use:
    # on a shared host, handing work between processors (server threads,
    # compile domain, client) costs a different wake-up each time. The
    # traced run keeps every processor, for its two-domain engine sweep.
    if args.trace == 0 and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    out = os.path.join(ROOT, ".bench_build", "perfbench")
    work = os.path.join(out, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    spans = os.path.join(out, "spans-%s-seed%d.tsv" % (args.workload, args.seed))
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", work, "--trace-out", spans, "--git-sha", git_sha(),
             "--source", source_digest(), "--nproc", str(os.cpu_count())],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode

    # The result must carry exactly the metrics BENCHMARK.json lists.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = set(json.loads(run.stdout.strip().splitlines()[-1])["metrics"])
    if got != listed:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(listed - got), sorted(got - listed)),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
