"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with BLAS pinned to one thread.  Prints one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced run reports the per-layer ones.  The full record of the run
(environment, every timing, every check) is appended to
``bench/out/runs.jsonl`` and a traced run's spans go to
``bench/out/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy.linalg  # noqa: F401  (imported before timing starts)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

_t = time.perf_counter()
import ssnt  # noqa: E402
from ssnt import cli, fileio, metrics, network, problems, solvers, tensors  # noqa: E402,F401

IMPORT_SSNT_S = time.perf_counter() - _t

import tracing  # noqa: E402
import workloads  # noqa: E402

# Output and cold set-up time per round as shares of the round's solve
# time, the share of a traced run spent on untraced solves, and the
# fewest rounds (or solves) a median is taken over.
OUTPUT_RATIO = 0.3
SETUP_RATIO = 0.15
UNTRACED_SHARE = 0.35
MIN_ROUNDS = 3
TRACE_MIN_ROUNDS = 2


def environment():
    cfg = np.show_config(mode="dicts")["Build Dependencies"]
    blas = cfg.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class ColdSetups:
    """Cold set-ups on request.  A process forked before the run's first
    set-up stays in that state; for each request it forks a child that
    times one set-up, sends the time and exits.  A set-up repeated in
    one process is warm and measures something else."""

    def __init__(self, wl, inputs):
        req_r, self._req = os.pipe()
        self._res, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._req)
            os.close(self._res)
            code = 1
            try:
                self._serve(wl, inputs, req_r, res_w)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(res_w)

    @staticmethod
    def _serve(wl, inputs, req_r, res_w):
        while os.read(req_r, 1):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    t0 = time.perf_counter()
                    wl.setup(inputs)
                    os.write(res_w, struct.pack("<d", time.perf_counter() - t0))
                    code = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            if os.waitpid(pid, 0)[1] != 0:
                os.write(res_w, struct.pack("<d", float("nan")))

    def time_one(self):
        os.write(self._req, b"s")
        data = os.read(self._res, 8)
        dt = struct.unpack("<d", data)[0] if len(data) == 8 else float("nan")
        if dt != dt:
            raise RuntimeError("a cold set-up failed")
        return dt

    def close(self):
        os.close(self._req)
        os.close(self._res)
        os.waitpid(self.pid, 0)


class Run:
    """Timed phases of one run, optionally traced."""

    def __init__(self, wl, inputs, tracer=None):
        self.wl, self.inputs, self.tracer = wl, inputs, tracer
        self.attempted = 0
        self.fingerprints = {"solve": set(), "output": set()}
        self.solve_iters = []  # per traced solve: (span index, iterations)

    def _timed(self, phase, fn, *args):
        self.attempted += 1
        if self.tracer is None:
            t0 = time.perf_counter()
            out = fn(*args)
            return out, time.perf_counter() - t0
        with self.tracer.span("bench." + phase):
            idx = len(self.tracer.spans) - 1
            t0 = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - t0
        if phase == "solve":
            self.solve_iters.append((idx, self.wl.iterations(self.inputs, out)))
        return out, dt

    def setup(self):
        self.state, dt = self._timed("setup", self.wl.setup, self.inputs)
        return dt

    def solve(self):
        self.solved, dt = self._timed("solve", self.wl.solve, self.inputs, self.state)
        self.fingerprints["solve"].add(self.wl.solve_fingerprint(self.solved))
        return dt

    def output(self):
        self.produced, dt = self._timed("output", self.wl.output, self.inputs, self.state, self.solved)
        self.fingerprints["output"].add(self.wl.output_fingerprint(self.produced))
        return dt

    def solves(self, seconds, min_reps):
        times = []
        start = time.perf_counter()
        while len(times) < min_reps or time.perf_counter() - start < seconds:
            times.append(self.solve())
        return times

    def rounds(self, seconds, min_rounds, cold=None):
        """Rounds of one solve, then outputs worth OUTPUT_RATIO of its
        time, then cold set-ups from ``cold`` worth SETUP_RATIO of it, so
        that every phase samples the same stretches of the run.  A new
        round starts only if one more like the last ends within
        ``seconds``."""
        solve, output, setup = [], [], []
        end = time.perf_counter() + seconds
        round_s = 0.0
        while len(solve) < min_rounds or time.perf_counter() + round_s <= end:
            t0 = time.perf_counter()
            solve.append(self.solve())
            spent = 0.0
            while spent < OUTPUT_RATIO * solve[-1]:
                output.append(self.output())
                spent += output[-1]
            spent = 0.0
            while cold is not None and spent < SETUP_RATIO * solve[-1]:
                self.attempted += 1
                setup.append(cold.time_one())
                spent += setup[-1]
            round_s = time.perf_counter() - t0
        return solve, output, setup


def per_layer(tracer, run, untraced_solve, traced_solve):
    spans = tracer.spans
    own = tracing.self_times(spans)
    root = tracing.phase_of(spans)
    phase = [spans[r][0] if r >= 0 else s[0] for r, s in zip(root, spans)]
    solve_roots = {i for i, _ in run.solve_iters}
    iters = sum(n for _, n in run.solve_iters)
    n_solve = len(run.solve_iters)
    n_output = sum(1 for s in spans if s[0] == "bench.output")

    def in_solve(i):
        return root[i] in solve_roots

    def total(name, use_own=False, attr=None):
        acc = 0.0
        for i, s in enumerate(spans):
            if s[0] == name and in_solve(i):
                acc += (s[4] or {}).get(attr, 0.0) if attr else (own[i] if use_own else s[2] - s[1])
        return acc

    def count(name):
        return sum(1 for i, s in enumerate(spans) if s[0] == name and in_solve(i))

    def per_iter_ms(*names, use_own=False):
        return 1000.0 * sum(total(n, use_own=use_own) for n in names) / iters

    def mean_ms(name, command=None):
        d = [own[i] if command else s[2] - s[1] for i, s in enumerate(spans)
             if s[0] == name and (command is None or (s[4] or {}).get("command") == command)]
        return 1000.0 * sum(d) / len(d) if d else 0.0

    def per_pass(name, value):
        """One setup + one solve + one output worth of ``value(i)``."""
        acc = {"bench.setup": 0.0, "bench.solve": 0.0, "bench.output": 0.0}
        for i, s in enumerate(spans):
            if s[0] == name and phase[i] in acc:
                acc[phase[i]] += value(i)
        return acc["bench.setup"] + acc["bench.solve"] / n_solve + acc["bench.output"] / max(n_output, 1)

    def io(name):
        nbytes = sum((s[4] or {}).get("bytes", 0) for s in spans if s[0] == name)
        secs = sum(s[2] - s[1] for s in spans if s[0] == name)
        mb = per_pass(name, lambda i: (spans[i][4] or {}).get("bytes", 0)) / 1e6
        return mb, (nbytes / 1e6 / secs if secs else 0.0)

    m3_time = total("tensors.mode3_product")
    read_mb, read_rate = io("fileio.read_tensor")
    write_mb, write_rate = io("fileio.write_tensor")
    out = {
        "network.lowrank_svd.ms_per_iter": (per_iter_ms("network.lowrank_svd"), "ms"),
        "network.lowrank_svd.slices_per_iter": (total("network.lowrank_svd", attr="slices") / iters, "count"),
        "network.forward_f.ms_per_iter": (per_iter_ms("network.forward_f"), "ms"),
        "network.forward_g.ms_per_iter": (per_iter_ms("network.forward_g"), "ms"),
        "network.reconstruct.ms_per_iter": (per_iter_ms("network.reconstruct"), "ms"),
        "network.loss_and_grad.self_ms_per_iter": (per_iter_ms("network.loss_and_grad", use_own=True), "ms"),
        "tensors.mode3_product.ms_per_iter": (per_iter_ms("tensors.mode3_product"), "ms"),
        "tensors.mode3_product.calls_per_iter": (count("tensors.mode3_product") / iters, "count"),
        "tensors.mode3_product.gflops": (
            total("tensors.mode3_product", attr="flops") / m3_time / 1e9 if m3_time else 0.0, "GFLOP/s"),
        "tensors.unfold3.ms_per_iter": (per_iter_ms("tensors.unfold3"), "ms"),
        "tensors.unfold3.calls_per_iter": (count("tensors.unfold3") / iters, "count"),
        "tensors.diff_p.ms_per_iter": (per_iter_ms("tensors.diff_p", "tensors.diff_p_adj"), "ms"),
        "problems.fidelity.ms_per_iter": (per_iter_ms("problems.fidelity"), "ms"),
        "problems.init_observation.ms": (mean_ms("problems.init_observation"), "ms"),
        "problems.ObservationModel.ms": (mean_ms("problems.ObservationModel"), "ms"),
        "solvers.adam_step.ms_per_iter": (per_iter_ms("solvers.adam_step"), "ms"),
        "solvers.v_update.ms_per_iter": (per_iter_ms("solvers.v_update"), "ms"),
        "solvers.multiplier_update.ms_per_iter": (per_iter_ms("solvers.multiplier_update"), "ms"),
        "solvers.loop.self_ms_per_iter": (per_iter_ms("solvers.loop", use_own=True), "ms"),
        "solvers.iterations": (iters / n_solve, "count"),
        "fileio.read_tensor.mb_per_s": (read_rate, "MB/s"),
        "fileio.read_tensor.mb": (read_mb, "MB"),
        "fileio.write_tensor.mb_per_s": (write_rate, "MB/s"),
        "fileio.write_tensor.mb": (write_mb, "MB"),
        "fileio.export_diagnostics.ms": (mean_ms("fileio.export_diagnostics"), "ms"),
        "metrics.metric_report.ms": (mean_ms("metrics.metric_report"), "ms"),
        "metrics.acc_egy.ms": (mean_ms("metrics.acc_egy"), "ms"),
        "cli.main.self_ms": (1000.0 * per_pass("cli.main", lambda i: own[i]), "ms"),
        "ssnt.import_ms": (1000.0 * IMPORT_SSNT_S, "ms"),
        "trace.overhead_solve_s": (statistics.median(traced_solve) - statistics.median(untraced_solve), "s"),
        "trace.missing": (len(tracer.missing), "count"),
    }
    for command in ("convert", "subtract", "metrics", "accegy"):
        out[f"cli.main.{command}.self_ms"] = (mean_ms("cli.main", command), "ms")
    return out


def trace_checks(tracer, run, rows, inner_steps):
    """Totals reached by independent paths must agree."""
    spans = tracer.spans
    root = tracing.phase_of(spans)
    out = {}
    if "ssnt.network.loss_and_grad" not in tracer.missing:
        bad = [i for i, n in run.solve_iters
               if sum(1 for j, s in enumerate(spans) if s[0] == "network.loss_and_grad" and root[j] == i)
               != rows * inner_steps]
        out["trace_loss_and_grad_calls"] = (
            f"{len(bad)} solves with loss_and_grad calls != {rows} diagnostics rows x {inner_steps}" if bad else None)
    io_spans = [s for s in spans if s[0] in ("fileio.read_tensor", "fileio.write_tensor")]
    wrong = [s[4] for s in io_spans if not s[4]["ok"]]
    out["trace_container_bytes"] = f"array bytes disagree with file sizes: {wrong[:3]}" if wrong else None
    return out


def measure(wl, seed, seconds, trace, work):
    inputs = wl.prepare(seed, work)
    tracer = tracing.Tracer() if trace else None
    record = {}
    if tracer is None:
        run = Run(wl, inputs)
        cold = ColdSetups(wl, inputs)
        try:
            start = time.perf_counter()
            setup = [run.setup()]
            solve, output, more = run.rounds(seconds - (time.perf_counter() - start), MIN_ROUNDS, cold)
        finally:
            cold.close()
        record["times"] = {"setup": setup + more, "solve": solve, "output": output}
    else:
        run = Run(wl, inputs, tracer)
        tracer.install()
        run.setup()
        tracer.uninstall()
        run.tracer = None
        untraced = run.solves(UNTRACED_SHARE * seconds, TRACE_MIN_ROUNDS)
        run.tracer = tracer
        tracer.install()
        traced, output, _ = run.rounds((1.0 - UNTRACED_SHARE) * seconds, TRACE_MIN_ROUNDS)
        tracer.uninstall()
        record["times"] = {"untraced_solve": untraced, "solve": traced, "output": output}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ctx = wl.derive(inputs, run.state, run.solved, run.produced)
    checks = workloads.run_checks(wl, ctx)
    for phase, prints in run.fingerprints.items():
        checks[f"deterministic_{phase}"] = None if len(prints) == 1 else f"{len(prints)} distinct {phase} outputs"
    if tracer is None:
        times = record["times"]
        result_metrics = {
            "setup_s": (statistics.median(times["setup"]), "s"),
            "solve_s": (statistics.median(times["solve"]), "s"),
            "output_s": (statistics.median(times["output"]), "s"),
            "psnr_db": (wl.psnr_db(ctx), "dB"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        rows = len(workloads.rows(ctx, "diag"))
        checks.update(trace_checks(tracer, run, rows, wl.inner_steps(run.state)))
        result_metrics = per_layer(tracer, run, untraced, traced)
        record["missing"] = tracer.missing
        with open(os.path.join(OUT, f"trace-{wl.name}-{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"], "spans": tracer.spans}, fh)
    failed_checks = {k: v for k, v in checks.items() if v is not None}
    result = {
        "correct": not failed_checks,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in result_metrics.items()},
    }
    record.update(checks=checks, peak_rss_mb=peak_rss_mb)
    return result, record, failed_checks


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT)
    try:
        result, record, failed_checks = measure(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, why in failed_checks.items():
        print(f"check {name} failed: {why}", file=sys.stderr)
    record.update(workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=environment(), result=result)
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
