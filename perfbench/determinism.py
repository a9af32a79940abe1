#!/usr/bin/env python3
"""Check that the benchmark's counts are a function of the seed alone.

    python3 perfbench/determinism.py [--seed N] [--seconds S]

Runs each count-bearing workload twice with one seed and once with the
next seed. The copy and spill counts must repeat exactly with the same
seed, and so must allocation per function (both workloads compile on one
domain); the inputs digest must repeat with the same seed
and change with the other. Exits 1 on any difference.
"""

import argparse
import json
import os
import re
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
COUNTS = ["static_copies", "dynamic_copies", "spill_ops"]
EXACT = {w: COUNTS + ["alloc_words_per_func"] for w in ("corpus", "paper-large")}


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout
    # Full digits from the JSON result; spill_ops is only on a metric line.
    metrics = dict(re.findall(r"^metric \S+ (\S+) = (\S+)", out, re.M))
    result = json.loads(out.strip().splitlines()[-1])["metrics"]
    metrics.update((k, repr(v["value"])) for k, v in result.items())
    inputs = re.search(r"inputs ([0-9a-f]+)", out).group(1)
    return metrics, inputs


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    args = p.parse_args()
    ok = True
    for workload, names in EXACT.items():
        (m1, in1), (m2, in2) = (run(workload, args.seed, args.seconds)
                                for _ in range(2))
        _, in3 = run(workload, args.seed + 1, args.seconds)
        for name in names:
            same = m1[name] == m2[name]
            ok &= same
            print("%s %s: %s %s %s" % (workload, name, m1[name], m2[name],
                                       "same" if same else "DIFFERENT"))
        print("%s inputs: seed %d %s twice %s, seed %d %s %s" % (
            workload, args.seed, in1, "same" if in1 == in2 else "DIFFERENT",
            args.seed + 1, in3, "changed" if in3 != in1 else "UNCHANGED"))
        ok &= in1 == in2 and in3 != in1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
