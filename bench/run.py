"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts the workload in
a fresh interpreter (``harness.py``) with ``OPENBLAS_NUM_THREADS=1`` and
``OMP_NUM_THREADS=1`` and the checkout's ``src`` first on the path, waits
for it, and prints its result as the last line of standard output.
"""

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Beyond --seconds a run spends time on imports, inputs, the last
# round's overrun and the output checks.
CHILD_EXTRA_S = 140
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in compare.load_spec()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ssnt", "__init__.py")):
        print(f"error: no ssnt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = args.seconds + CHILD_EXTRA_S
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: workload run exceeded {timeout:g} s", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload run exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"error: malformed result line {lines[-1]!r}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
