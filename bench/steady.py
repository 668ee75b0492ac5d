"""Make a result set: run every workload of ``BENCHMARK.json`` once per
seed, untraced, for its ``run_seconds``, one run after another.

    python3 bench/steady.py --out bench/out/set-a.jsonl [--runs 10] [--seed0 1]

Seeds are ``seed0, seed0 + 1, ...``.  Records are appended to ``--out``
as they finish, then the set is summarised by ``compare.py``.
"""

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    spec = compare.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    for wl in (w["name"] for w in spec["workloads"]):
        for seed in range(args.seed0, args.seed0 + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=compare.ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": wl, "seed": seed, "trace": 0, "result": result}) + "\n")
            print(f"{wl} seed {seed}: correct={result['correct']}", file=sys.stderr)
    compare.summarize(compare.load_set(args.out), compare.load_benchmark())
    return 0


if __name__ == "__main__":
    sys.exit(main())
