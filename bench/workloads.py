"""The three benchmark workloads.

Each workload makes its inputs from the seed with the benchmark's own
code (``reference``), then calls the program in three timed phases:

* ``setup``  -- everything before the first solver iteration: reading or
  ingesting the inputs, building the ``ObservationModel`` and
  ``init_observation``;
* ``solve``  -- the fixed-iteration solve;
* ``output`` -- writing result containers and diagnostics, and the
  quality report.

``checks`` then compares the outputs with ``reference`` computations or
with properties the method must have.  The program is called through
module attributes (``fileio.read_tensor``, not a name bound at import),
so the tracer's wrappers see every call.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import replace

import numpy as np

import reference
from ssnt import cli, fileio, metrics, network, problems, solvers


# The scenes are fixed synthetic datasets, like a standard test image;
# the run seed draws the degradation (mask, corruption, foreground), so
# quality and time vary with the sampling and not with the scene.
SCENE_SEED = 7


class CheckFailed(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(a, b, atol, what):
    a, b = np.asarray(a), np.asarray(b)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    worst = float(np.max(np.abs(a - b))) if a.size else 0.0
    require(worst <= atol, f"{what}: max deviation {worst:.3e} > {atol:.1e}")


def rel_close(a, b, rtol, what):
    require(abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300), f"{what}: {a!r} != {b!r}")


def digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def tensor(ctx, key):
    """Container ``key`` of ``ctx["paths"]``, parsed by the reference codec once."""
    cache = ctx.setdefault("tensors", {})
    if key not in cache:
        cache[key] = reference.read_container(ctx["paths"][key])
    return cache[key]


def rows(ctx, key):
    return csv_rows(ctx["paths"][key])


def layers_of(params, weights=None):
    """(f, g) layer lists of ``(W, kind, slope)`` for ``reference.run_stack``."""
    layers = params.f_layers + params.g_layers
    weights = weights if weights is not None else [lay.weight for lay in layers]
    spec = [(w, lay.activation.kind, lay.activation.slope) for w, lay in zip(weights, layers)]
    return spec[: len(params.f_layers)], spec[len(params.f_layers):]


class _Learned:
    """Shared checks of the two library workloads, which return
    ``(x, params, history)`` from the solver."""

    kind = None

    def iterations(self, inp, solved):
        return len(solved["history"])

    def inner_steps(self, state):
        return state["cfg"].inner_steps

    def solve_fingerprint(self, solved):
        totals = [d.loss.total for d in solved["history"]]
        return digest(solved["x"].tobytes(), totals)

    def output_fingerprint(self, produced):
        rep = produced["report"]
        return digest(*(file_bytes(p) for p in produced["files"]), rep.psnr, rep.ssim, rep.sam)

    def _tv(self, state, solved):
        return None

    def _ref_loss(self, ctx, weights=None):
        st, params = ctx["state"], ctx["solved"]["params"]
        f, g = layers_of(params, weights)
        cfg = st["cfg"]
        return reference.loss_terms(
            st["x0"], f, g, cfg.lam, self.kind, ctx["inputs"]["obs"], ctx["inputs"]["mask"],
            self._tv(st, ctx["solved"]),
        )

    def derive(self, inp, state, solved, produced):
        """Everything the checks look at, computed once."""
        cfg = state["cfg"]
        loss, grads = network.loss_and_grad(
            state["x0"], solved["params"], state["model"], cfg, solved.get("admm")
        )
        ctx = dict(inputs=inp, state=state, solved=solved, produced=produced, paths=produced["paths"],
                   loss=loss, grads=grads)
        ctx["ref_loss"] = self._ref_loss(ctx)
        return ctx

    def check_loss_terms(self, ctx):
        lowrank, fid, tv = ctx["ref_loss"]
        loss = ctx["loss"]
        rel_close(loss.l1_lowrank, lowrank, 1e-8, "low-rank term vs scipy SVD")
        rel_close(loss.l2_fidelity, fid, 1e-8, "fidelity term")
        rel_close(loss.tv_penalty, tv, 1e-8, "TV penalty")

    def check_loss_decreased(self, ctx):
        h = ctx["solved"]["history"]
        require(h[-1].loss.total < h[0].loss.total,
                f"final loss {h[-1].loss.total!r} not below first {h[0].loss.total!r}")

    def check_directional_derivative(self, ctx):
        weights = ctx["solved"]["params"].weights()
        rng = np.random.default_rng(ctx["inputs"]["seed"] + 17)
        dirs = [rng.standard_normal(w.shape) for w in weights]
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in dirs))
        dirs = [d / norm for d in dirs]
        h = 1e-6
        plus = sum(self._ref_loss(ctx, [w + h * d for w, d in zip(weights, dirs)]))
        minus = sum(self._ref_loss(ctx, [w - h * d for w, d in zip(weights, dirs)]))
        fd = (plus - minus) / (2.0 * h)
        an = sum(float(np.sum(g * d)) for g, d in zip(ctx["grads"], dirs))
        floor = 100.0 * np.finfo(float).eps * abs(plus) / h
        require(abs(fd - an) <= 1e-4 * abs(an) + floor,
                f"central difference {fd!r} vs <grad, d> {an!r}")

    def check_container(self, ctx):
        require(np.array_equal(tensor(ctx, "x"), ctx["solved"]["x"]), "written container differs from x")

    def check_diagnostics_rows(self, ctx):
        diag, history = rows(ctx, "diag"), ctx["solved"]["history"]
        require(len(diag) == self.iters, f"{len(diag)} diagnostics rows for {self.iters} iterations")
        require([float(r["loss_total"]) for r in diag] == [d.loss.total for d in history],
                "diagnostics loss_total column differs from the returned history")

    def check_report_psnr(self, ctx):
        rel_close(ctx["produced"]["report"].psnr, self.psnr_db(ctx), 1e-10, "metric_report psnr")

    def psnr_db(self, ctx):
        return reference.psnr(ctx["solved"]["x"], ctx["inputs"]["truth"])

    def _write_outputs(self, inp, solved, extra=()):
        paths = inp["paths"]
        fileio.write_tensor(paths["x"], solved["x"])
        for key, t in extra:
            fileio.write_tensor(paths[key], t)
        fileio.export_diagnostics(solved["history"], paths["diag"])
        report = metrics.metric_report(solved["x"], inp["truth"])
        files = [paths["x"], paths["diag"]] + [paths[k] for k, _ in extra]
        return dict(paths=paths, files=files, report=report)


class TcHsi(_Learned):
    """Completion of a hyperspectral-like cube read from containers,
    with the documented defaults (width 2*n3, p=q=2)."""

    name = "tc-hsi"
    kind = "tc"
    CHECKS = ("observed_entries", "unobserved_gf", "init", "loss_terms", "loss_decreased",
              "directional_derivative", "container", "diagnostics_rows", "report_psnr")

    def __init__(self, dims=(128, 128, 31), iters=4, sr=0.1):
        self.dims, self.iters, self.sr = dims, iters, sr

    def prepare(self, seed, work):
        truth = reference.hsi_cube(self.dims, SCENE_SEED)
        mask = reference.random_mask(self.dims, self.sr, np.random.default_rng(seed + 1))
        obs = mask * truth
        paths = {k: os.path.join(work, f"{k}.{ext}") for k, ext in
                 (("obs", "ssnt"), ("mask", "ssnt"), ("x", "ssnt"), ("diag", "csv"))}
        reference.write_container(paths["obs"], obs)
        reference.write_container(paths["mask"], mask)
        return dict(seed=seed, truth=truth, obs=obs, mask=mask, paths=paths)

    def setup(self, inp):
        obs = fileio.read_tensor(inp["paths"]["obs"])
        mask = fileio.read_tensor(inp["paths"]["mask"])
        model = problems.ObservationModel("tc", obs, mask)
        x0 = problems.init_observation(model)
        cfg = replace(solvers.default_config("tc", model.dims), t_max=self.iters, seed=0)
        return dict(model=model, x0=x0, cfg=cfg)

    def solve(self, inp, state):
        x, params, history = solvers.solve_ssnt(state["model"], state["cfg"], x0=state["x0"])
        return dict(x=x, params=params, history=history)

    def output(self, inp, state, solved):
        return self._write_outputs(inp, solved)

    def check_observed_entries(self, ctx):
        seen = ctx["inputs"]["mask"] == 1.0
        require(np.array_equal(ctx["solved"]["x"][seen], ctx["inputs"]["obs"][seen]),
                "result differs from the observation on observed entries")

    def check_unobserved_gf(self, ctx):
        f, g = layers_of(ctx["solved"]["params"])
        gf = reference.run_stack(reference.run_stack(ctx["state"]["x0"], f), g)
        miss = ctx["inputs"]["mask"] == 0.0
        close(ctx["solved"]["x"][miss], gf[miss], 1e-9 * max(1.0, np.abs(gf).max()),
              "unobserved entries vs reference g(f(x0))")

    def check_init(self, ctx):
        x0, obs, mask = ctx["state"]["x0"], ctx["inputs"]["obs"], ctx["inputs"]["mask"]
        seen = mask == 1.0
        require(np.array_equal(x0[seen], obs[seen]), "x0 differs from the observation on observed entries")
        lo = np.where(seen, obs, np.inf).min(axis=2, keepdims=True)
        hi = np.where(seen, obs, -np.inf).max(axis=2, keepdims=True)
        some = seen.any(axis=2)
        inside = (x0 >= lo) & (x0 <= hi)
        require(inside[some].all(), "x0 leaves a tube's observed range")
        mean = obs[seen].sum() / seen.sum()
        close(x0[~some], np.full(x0[~some].shape, mean), 1e-12, "empty tubes vs observed mean")


class RtcTvSmall(_Learned):
    """Robust completion with TV on the 30x30x16 acceptance instance,
    the criterion-9 network (width 48, p=q=3) and an explicit tau."""

    name = "rtc-tv-small"
    kind = "rtc"
    CHECKS = ("sparse_part", "x_is_gf", "loss_terms", "loss_decreased",
              "directional_derivative", "container", "diagnostics_rows", "report_psnr")

    def __init__(self, dims=(30, 30, 16), iters=200, width=48, layers=3):
        self.dims, self.iters, self.width, self.layers = dims, iters, width, layers

    def prepare(self, seed, work):
        rng = np.random.default_rng(seed + 1)
        truth = reference.low_tubal_rank(self.dims, 2, SCENE_SEED)
        mask = reference.random_mask(self.dims, 0.3, rng)
        obs = mask * truth
        observed = np.flatnonzero(mask)
        bad = rng.permutation(observed)[: observed.size // 10]
        obs.flat[bad] = rng.integers(0, 2, bad.size).astype(np.float64)
        paths = {k: os.path.join(work, f"{k}.{ext}") for k, ext in
                 (("x", "ssnt"), ("sparse", "ssnt"), ("diag", "csv"))}
        return dict(seed=seed, truth=truth, obs=obs, mask=mask, paths=paths)

    def setup(self, inp):
        model = problems.ObservationModel("rtc", inp["obs"].copy(), inp["mask"].copy())
        x0 = problems.init_observation(model)
        cfg = replace(solvers.default_config("rtc", model.dims), t_max=self.iters, lr=3e-3,
                      width=self.width, p=self.layers, q=self.layers, tau=0.2, seed=0)
        return dict(model=model, x0=x0, cfg=cfg)

    def solve(self, inp, state):
        x0 = state["x0"]
        zero = np.zeros(x0.shape)
        admm = solvers.AdmmState(reference.diff(x0, 1), reference.diff(x0, 2), zero, zero.copy())
        x, params, history = solvers.solve_ssnt_tv(state["model"], state["cfg"], x0=x0, admm0=admm)
        return dict(x=x, params=params, history=history, admm=admm)

    def output(self, inp, state, solved):
        res = problems.assemble(solved["x"], state["model"])
        return self._write_outputs(inp, solved, [("sparse", res.sparse)])

    def _tv(self, state, solved):
        a = solved["admm"]
        return a.v1, a.v2, a.l1, a.l2, state["cfg"].beta

    def check_sparse_part(self, ctx):
        mask, obs, x = ctx["inputs"]["mask"], ctx["inputs"]["obs"], ctx["solved"]["x"]
        sparse = tensor(ctx, "sparse")
        close(sparse, mask * (obs - x), 1e-14, "written sparse part vs mask*(obs - x)")
        require(not sparse[mask == 0.0].any(), "sparse part nonzero off the mask")

    def check_x_is_gf(self, ctx):
        f, g = layers_of(ctx["solved"]["params"])
        gf = reference.run_stack(reference.run_stack(ctx["state"]["x0"], f), g)
        close(ctx["solved"]["x"], gf, 1e-9 * max(1.0, np.abs(gf).max()), "x vs reference g(f(x0))")


class CliBsVideo:
    """Background subtraction through ``ssnt.cli.main``: convert from
    CSV, subtract, then metrics and accegy."""

    name = "cli-bs-video"
    CHECKS = ("ingest", "sum", "metrics_psnr", "accegy", "diagnostics_rows", "manifest")

    def __init__(self, dims=(96, 96, 60), iters=3, block=12):
        self.dims, self.iters, self.block = dims, iters, block

    def prepare(self, seed, work):
        n1, n2, n3 = self.dims
        fixed = np.random.default_rng(SCENE_SEED)
        scene = np.outer(reference.smooth_profile(n1, fixed), reference.smooth_profile(n2, fixed))
        scene *= 220.0 / scene.max()
        light = 1.0 + 0.1 * np.sin(2 * np.pi * np.arange(n3) / n3)
        background = scene[:, :, None] * light[None, None, :]
        rng = np.random.default_rng(seed)
        video = background.copy()
        b = self.block
        top = int(rng.integers(0, n1 - b))
        # foreground values inside the background's range keep the
        # ingest normalisation, and so the truth, the same for every seed
        texture = rng.uniform(background.min(), background.max(), (b, b))
        for k in range(n3):
            left = (k * (n2 - b)) // max(n3 - 1, 1)
            video[top:top + b, left:left + b, k] = texture
        lo, hi = video.min(), video.max()
        truth = (background - lo) / (hi - lo)
        names = (("csv", "video.csv"), ("video", "video.ssnt"), ("convert_manifest", "convert.json"),
                 ("truth", "truth.ssnt"), ("bg", "bg.ssnt"), ("fg", "fg.ssnt"), ("diag", "diag.csv"),
                 ("manifest", "run.json"), ("curve", "curve.csv"))
        paths = {k: os.path.join(work, v) for k, v in names}
        flat = np.moveaxis(video, 2, 0).ravel()
        with open(paths["csv"], "w", encoding="utf-8") as fh:
            for start in range(0, flat.size, 65536):
                fh.write("".join(f"{v!r}\n" for v in flat[start:start + 65536].tolist()))
        reference.write_container(paths["truth"], truth)
        return dict(seed=seed, video=video, truth=truth, paths=paths)

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ssnt {argv[0]} exited with {code}")
        return out.getvalue()

    def setup(self, inp):
        p = inp["paths"]
        self._cli(["convert", "--from-csv", p["csv"], "--dims", ",".join(map(str, self.dims)),
                   "--out", p["video"], "--manifest", p["convert_manifest"]])
        return dict(inner_steps=1)

    def solve(self, inp, state):
        p = inp["paths"]
        self._cli(["subtract", "--input", p["video"], "--background", p["bg"], "--foreground", p["fg"],
                   "--tmax", str(self.iters), "--seed", "0", "--diagnostics", p["diag"],
                   "--manifest", p["manifest"]])
        return dict(paths=p)

    def output(self, inp, state, solved):
        p = inp["paths"]
        printed = self._cli(["metrics", p["bg"], p["truth"]])
        self._cli(["accegy", p["bg"], "--dft", "--out", p["curve"]])
        return dict(printed=printed, paths=p)

    def iterations(self, inp, solved):
        return len(csv_rows(inp["paths"]["diag"]))

    def inner_steps(self, state):
        return state["inner_steps"]

    def solve_fingerprint(self, solved):
        p = solved["paths"]
        return digest(file_bytes(p["bg"]), file_bytes(p["fg"]), file_bytes(p["diag"]))

    def output_fingerprint(self, produced):
        return digest(produced["printed"], file_bytes(produced["paths"]["curve"]))

    def derive(self, inp, state, solved, produced):
        ctx = dict(inputs=inp, produced=produced, paths=inp["paths"])
        fields = dict(kv.split("=", 1) for kv in produced["printed"].split())
        ctx["printed_psnr"] = float(fields["psnr"])
        return ctx

    def psnr_db(self, ctx):
        return ctx["printed_psnr"]

    def check_ingest(self, ctx):
        video = ctx["inputs"]["video"]
        lo, hi = video.min(), video.max()
        close(tensor(ctx, "video"), (video - lo) / (hi - lo), 1e-14, "ingested container vs (csv - min)/(max - min)")

    def check_sum(self, ctx):
        close(tensor(ctx, "bg") + tensor(ctx, "fg"), tensor(ctx, "video"), 1e-14, "background + foreground vs ingested video")

    def check_metrics_psnr(self, ctx):
        ref = reference.psnr(tensor(ctx, "bg"), ctx["inputs"]["truth"])
        rel_close(ctx["printed_psnr"], ref, 1e-10, "psnr printed by ssnt metrics")

    def check_accegy(self, ctx):
        curve = rows(ctx, "curve")
        frac = np.array([float(r["fraction"]) for r in curve])
        ratio = np.array([float(r["energy_ratio"]) for r in curve])
        require(ratio.size > 0 and (np.diff(ratio) >= 0.0).all(), "energy curve decreases")
        require(abs(ratio[-1] - 1.0) <= 1e-12, f"energy curve ends at {ratio[-1]!r}")
        close(frac, np.arange(1, frac.size + 1) / frac.size, 1e-15, "curve fractions")
        close(ratio, reference.dft_energy_curve(tensor(ctx, "bg")), 1e-9, "curve vs reference DFT-slice energies")

    def check_diagnostics_rows(self, ctx):
        n = len(rows(ctx, "diag"))
        require(n == self.iters, f"{n} diagnostics rows for {self.iters} iterations")

    def check_manifest(self, ctx):
        with open(ctx["paths"]["manifest"], encoding="utf-8") as fh:
            m = json.load(fh)
        named = list(m["outputs"].values()) + ([m["diagnostics_csv"]] if m.get("diagnostics_csv") else [])
        require(all(os.path.isfile(f) for f in named), f"manifest names a missing file: {named}")


WORKLOADS = {w.name: w for w in (TcHsi, RtcTvSmall, CliBsVideo)}


def run_checks(wl, ctx):
    """``{check name: None or failure message}`` for every check of ``wl``."""
    out = {}
    for name in wl.CHECKS:
        try:
            getattr(wl, "check_" + name)(ctx)
            out[name] = None
        except (CheckFailed, reference.ContainerError) as exc:
            out[name] = str(exc)
    return out
