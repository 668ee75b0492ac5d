"""Summarise one result set, or compare two, against the benchmark's bounds.

    python3 bench/compare.py SET.jsonl
    python3 bench/compare.py BASE.jsonl NEW.jsonl

A result set is a JSON-lines file written by ``steady.py``: one record
``{"workload", "seed", "trace", "result"}`` per run.  For each workload
and metric the median and quartiles (``statistics.quantiles(n=4)``) are
printed with the spread, the distance between the quartiles as a share
of the median.  An end-to-end metric is steady in a set when its spread
is within its bound.  Two sets agree on a metric when it is steady in
both and the second median is not worse than the first by more than the
bound; on a workload they also need the same share of failed
operations.  The exit status is 1 when two sets disagree.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_benchmark():
    spec = load_spec()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_set(path):
    """``{workload: [result, ...]}`` from a JSON-lines result set."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def stats(values):
    """(median, q1, q3, spread share)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_share(base, new, better):
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) if better == "lower" else (base - new)
    return change / abs(base) if base else 0.0


def failed_share(results):
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def steady(spread, bound):
    return spread <= bound


def summarize(runs, bench):
    """Print one set, flagging end-to-end spreads outside their bound."""
    for wl, results in sorted(runs.items()):
        correct = sum(r["correct"] for r in results)
        print(f"{wl}: {len(results)} runs, {correct} correct, failed share {failed_share(results):.6f}")
        for name in results[0]["metrics"]:
            values = metric_values(results, name)
            med, q1, q3, spread = stats(values)
            bound = bench.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f} {'steady' if steady(spread, bound) else 'NOT STEADY'}"
            print(f"  {name:42s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}  {flag}")


def compare(base, new, bench):
    """Print both sets side by side; returns True when they agree."""
    agree = True
    for wl in sorted(set(base) | set(new)):
        if wl not in base or wl not in new:
            print(f"{wl}: only in one set")
            agree = False
            continue
        fb, fn = failed_share(base[wl]), failed_share(new[wl])
        print(f"{wl}: failed share {fb:.6f} vs {fn:.6f}{'' if fb == fn else '  DIFFERENT'}")
        agree &= fb == fn
        for name in base[wl][0]["metrics"]:
            a, b = stats(metric_values(base[wl], name)), stats(metric_values(new[wl], name))
            spec = bench.get(name, {})
            bound = spec.get("bound")
            worse = worse_share(a[0], b[0], spec.get("better", "lower"))
            verdict = ""
            if bound is not None:
                ok = steady(a[3], bound) and steady(b[3], bound) and worse <= bound
                agree &= ok
                verdict = "agree" if ok else "DISAGREE"
            print(f"  {name:42s} {a[0]:12.6g} [{a[1]:.6g}, {a[2]:.6g}]  vs  {b[0]:12.6g} "
                  f"[{b[1]:.6g}, {b[2]:.6g}]  worse by {worse:+7.2%}  {verdict}")
    return agree


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    sets = [load_set(p) for p in argv]
    if len(sets) == 1:
        summarize(sets[0], bench)
        return 0
    return 0 if compare(sets[0], sets[1], bench) else 1


if __name__ == "__main__":
    sys.exit(main())
