"""Command-line surface.

Subcommands: ``synth``, ``degrade``, ``complete``, ``subtract``,
``robust-complete``, ``sci``, ``metrics``, ``accegy``, ``baseline-tnn``
and ``convert``.  Solver defaults come from
:func:`ssnt.solvers.default_config`; every command is seed-deterministic
and identical invocations produce byte-identical tensor and CSV outputs.

The four solver commands (``complete``, ``robust-complete``,
``subtract``, ``sci``) run one body, :func:`_run_solver`, on the
observation :func:`_observe` builds.  ``--input`` is a ground truth to
degrade at ``--sr`` and, unless ``--ref`` is given, the metrics
reference; for ``subtract`` it is the video.  ``--ref`` is read, and
its shape and values checked, before the solve; ``metrics`` checks its
two files the same way.  ``convert`` takes exactly one of
``--from-csv`` (with ``--dims``) and ``--to-csv``, and rejects a CSV
holding NaN or inf.  A malformed ``--dims`` or ``--layers`` is a usage
error.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 malformed tensor
file, 5 inconsistent shapes or configuration.  Failures print one
machine-readable line ``error code=<n> kind=<kind> detail=<...>`` on
stderr.  Inputs and flags are checked before the first output is
written.
"""

import argparse
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np

from .fileio import (
    FormatError,
    RunManifest,
    export_diagnostics,
    read_tensor,
    write_csv,
    write_tensor,
)
from .metrics import acc_egy, metric_report, tnn_baseline_complete
from .network import forward_f
from .problems import (
    ObservationModel,
    SamplingSpec,
    assemble,
    degrade,
    init_observation,
    synth_low_tubal_rank,
)
from .solvers import default_config, solve_ssnt, solve_ssnt_tv
from .tensors import dft_mode3

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_CONFIG = 5


def _now():
    return datetime.now(timezone.utc).isoformat()


def _positive_ints(usage, count):
    """An argparse type for ``count`` comma-separated positive integers;
    ``usage`` names the flag in the error."""

    def parse(text):
        parts = text.split(",")
        if len(parts) != count or not all(p.strip().isdecimal() and int(p) > 0 for p in parts):
            raise argparse.ArgumentTypeError(
                f"expected {usage} with {count} positive integers, got {text!r}"
            )
        return tuple(int(p) for p in parts)

    return parse


_parse_dims = _positive_ints("--dims n1,n2,n3", 3)
_parse_layers = _positive_ints("--layers P,Q", 2)


def _read_finite(path):
    """A tensor file that must hold only finite values."""
    t = read_tensor(path)
    if not np.isfinite(t).all():
        raise ValueError(f"{path} holds non-finite values (NaN or inf)")
    return t


def _add_observation_flags(sub, obs_flag, sr):
    """Observation flags of the solver commands that degrade ``--input``.
    A command lacking a flag that :func:`_observe` reads sets that value
    with ``set_defaults``."""
    sub.add_argument(obs_flag, dest="obs", default=None, metavar="SSNT")
    sub.add_argument("--mask", default=None, metavar="SSNT")
    sub.add_argument("--input", default=None, metavar="SSNT",
                     help="ground truth; degrade at --sr first")
    sub.add_argument("--sr", type=float, default=sr)
    sub.add_argument("--out", required=True, metavar="SSNT")


def _add_solver_flags(sub):
    sub.add_argument("--tv", action="store_true", help="use the TV-regularized solver")
    sub.add_argument("--linear", action="store_true", help="drop the nonlinearity")
    sub.add_argument("--layers", type=_parse_layers, default=None, metavar="P,Q",
                     help="layer counts, e.g. 2,2")
    sub.add_argument("--lambda", dest="lam", type=float, default=None, help="low-rank weight")
    sub.add_argument("--tau", type=float, default=None, help="TV weight")
    sub.add_argument("--beta", type=float, default=None, help="ADMM penalty")
    sub.add_argument("--tmax", dest="t_max", type=int, default=None, help="outer iterations")
    sub.add_argument("--inner-steps", type=int, default=None,
                     help="Adam steps per outer iteration (--tv only)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--lr", type=float, default=None, help="Adam learning rate")
    sub.add_argument("--width", type=int, default=None, help="transform interface width")
    sub.add_argument("--slope", type=float, default=None, help="leaky-relu slope")
    sub.add_argument("--diagnostics", default=None, metavar="CSV")
    sub.add_argument("--manifest", default=None, metavar="JSON")
    sub.add_argument("--save-transform", default=None, metavar="SSNT",
                     help="write the transformed tensor f(obs)")
    sub.add_argument("--ref", default=None, metavar="SSNT", help="ground truth for metrics")
    sub.add_argument("--peak", type=float, default=1.0, help="PSNR/SSIM dynamic range")


# SolverConfig fields that a solver flag of the same dest overrides when given.
_CONFIG_FLAGS = ("lam", "tau", "beta", "t_max", "inner_steps", "lr", "width", "slope")


def _config_from_args(args, kind, dims):
    over = {name: getattr(args, name) for name in _CONFIG_FLAGS if getattr(args, name) is not None}
    over["seed"] = args.seed
    if args.layers is not None:
        over["p"], over["q"] = args.layers
    if args.linear:
        over["activation"] = "identity"
    return replace(default_config(kind, dims), **over)


def _observe(kind, args):
    """The observation of a solver command, and the ground truth it was
    simulated from (``None`` when it was read from files).

    ``--input`` is a ground truth to degrade at ``--sr``, except for
    ``bs``, where it is the video itself.
    """
    if kind == "bs":
        return ObservationModel("bs", read_tensor(args.input)), None
    if args.input is not None:
        truth = read_tensor(args.input)
        spec = SamplingSpec(
            sr=args.sr, noise_sr=args.noise_sr, gauss_sigma=args.sigma, seed=args.seed
        )
        return degrade(truth, kind, spec), truth
    if args.obs is None or args.mask is None:
        obs_flag = "--measurement" if kind == "sci" else "--obs"
        raise ValueError(f"need either --input with --sr, or {obs_flag} with --mask")
    obs = read_tensor(args.obs)
    if kind == "sci":
        if obs.shape[2] != 1:
            raise ValueError("sci measurement file must have dims n1,n2,1")
        obs = obs[:, :, 0]
    return ObservationModel(kind, obs, read_tensor(args.mask)), None


def _run_solver(args):
    """The four solver commands: observe, check ``--ref``, solve, then
    write the estimate, its sparse part, diagnostics, metrics and
    manifest.

    The metrics reference is ``--ref``, or else the ground truth that
    ``--input`` was degraded from.
    """
    kind = args.kind
    model, ref = _observe(kind, args)
    if args.ref:
        ref = _read_finite(args.ref)
    if ref is not None and ref.shape != model.dims:
        raise ValueError(f"reference dims {ref.shape} differ from the solve's {model.dims}")
    cfg = _config_from_args(args, kind, model.dims)
    started = _now()
    x0 = init_observation(model)
    solver = solve_ssnt_tv if args.tv else solve_ssnt
    x, params, history = solver(model, cfg, x0=x0)

    result = assemble(x, model)
    outputs = {"x": args.out}
    write_tensor(args.out, result.x)
    if args.sparse:
        write_tensor(args.sparse, result.sparse)
        outputs["sparse"] = args.sparse
    if args.save_transform:
        y, _ = forward_f(x0, params)
        write_tensor(args.save_transform, y)
        outputs["transform"] = args.save_transform
    # An empty history (--tmax 0) writes no CSV, so the manifest names none.
    diagnostics = args.diagnostics if history else None
    if diagnostics:
        export_diagnostics(history, diagnostics)

    metrics = None
    if ref is not None:
        rep = metric_report(x, ref, peak=args.peak)
        metrics = {"psnr": rep.psnr, "ssim": rep.ssim, "sam": rep.sam, "peak": rep.peak}
        print(f"psnr={rep.psnr!r} ssim={rep.ssim!r} sam={rep.sam!r}")
    if args.manifest:
        RunManifest(
            command=kind,
            config=asdict(cfg),
            seed=cfg.seed,
            started=started,
            finished=_now(),
            outputs=outputs,
            diagnostics_csv=diagnostics,
            metrics=metrics,
        ).save(args.manifest)
    return EXIT_OK


def _cmd_synth(args):
    x = synth_low_tubal_rank(args.dims, args.tubal_rank, args.seed)
    write_tensor(args.out, x)
    return EXIT_OK


def _cmd_degrade(args):
    if args.kind != "bs" and args.mask is None:
        raise ValueError(f"{args.kind} degradation needs --mask to store the mask")
    x = read_tensor(args.input)
    spec = SamplingSpec(
        sr=args.sr, noise_sr=args.noise_sr, gauss_sigma=args.sigma, seed=args.seed
    )
    model = degrade(x, args.kind, spec)
    if args.kind == "sci":
        write_tensor(args.obs, model.measurement[:, :, None])
    else:
        write_tensor(args.obs, model.measurement)
    if model.mask is not None:
        write_tensor(args.mask, model.mask)
    return EXIT_OK


def _cmd_metrics(args):
    x = _read_finite(args.x)
    ref = _read_finite(args.ref)
    peak = float(np.abs(ref).max()) if args.peak_from_ref else args.peak
    rep = metric_report(x, ref, peak=peak)
    print(f"psnr={rep.psnr!r} ssim={rep.ssim!r} sam={rep.sam!r}")
    if args.out:
        write_csv(
            args.out,
            ("psnr", "ssim", "sam", "peak"),
            [(rep.psnr, rep.ssim, rep.sam, rep.peak)],
        )
    return EXIT_OK


def _cmd_accegy(args):
    t = read_tensor(args.x)
    curve = acc_egy(dft_mode3(t) if args.dft else t)
    write_csv(
        args.out,
        ("fraction", "energy_ratio"),
        list(zip(curve.fractions.tolist(), curve.energy_ratio.tolist())),
    )
    return EXIT_OK


def _cmd_baseline_tnn(args):
    model = ObservationModel("tc", read_tensor(args.obs), read_tensor(args.mask))
    x = tnn_baseline_complete(model, rho=args.rho, iters=args.iters)
    write_tensor(args.out, x)
    return EXIT_OK


def _cmd_convert(args):
    if args.to_csv is not None:
        t = read_tensor(args.to_csv)
        write_csv(args.out, None, ((v,) for v in np.moveaxis(t, 2, 0).ravel().tolist()))
        return EXIT_OK
    values = np.loadtxt(args.from_csv, dtype=np.float64, ndmin=1)
    if not np.isfinite(values).all():
        raise ValueError(f"{args.from_csv} holds non-finite values (NaN or inf)")
    n1, n2, n3 = args.dims
    if values.size != n1 * n2 * n3:
        raise ValueError(f"{values.size} values do not fill dims {args.dims}")
    t = values.reshape(n3, n1, n2).transpose(1, 2, 0)
    norm = None
    if not args.no_normalize:
        lo, hi = float(t.min()), float(t.max())
        if hi > lo:
            t = (t - lo) / (hi - lo)
        norm = {"min": lo, "max": hi}
    write_tensor(args.out, t)
    if args.manifest:
        RunManifest(
            command="convert",
            config={"dims": list(args.dims), "normalize": not args.no_normalize},
            seed=0,
            started=_now(),
            finished=_now(),
            outputs={"x": args.out},
            normalization=norm,
        ).save(args.manifest)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ssnt",
        description="Self-supervised nonlinear transform tensor recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate synthetic low-tubal-rank ground truth")
    s.add_argument("--dims", type=_parse_dims, required=True, metavar="N1,N2,N3")
    s.add_argument("--tubal-rank", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("degrade", help="simulate an observation model")
    s.add_argument("--kind", choices=("tc", "bs", "rtc", "sci"), required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--sr", type=float, default=1.0)
    s.add_argument("--noise-sr", type=float, default=0.0)
    s.add_argument("--sigma", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--obs", required=True)
    s.add_argument("--mask", default=None)
    s.set_defaults(func=_cmd_degrade)

    s = sub.add_parser("complete", help="tensor completion")
    _add_observation_flags(s, "--obs", sr=1.0)
    _add_solver_flags(s)
    s.set_defaults(func=_run_solver, kind="tc", noise_sr=0.0, sigma=0.0, sparse=None)

    s = sub.add_parser("robust-complete", help="completion under sparse corruption")
    _add_observation_flags(s, "--obs", sr=1.0)
    s.add_argument("--noise-sr", type=float, default=0.1)
    s.add_argument("--sparse", default=None, help="write the implied sparse part")
    _add_solver_flags(s)
    s.set_defaults(func=_run_solver, kind="rtc", sigma=0.0)

    s = sub.add_parser("subtract", help="background subtraction")
    s.add_argument("--input", required=True, help="the video")
    s.add_argument("--background", dest="out", required=True, metavar="SSNT")
    s.add_argument("--foreground", dest="sparse", default=None, metavar="SSNT")
    _add_solver_flags(s)
    s.set_defaults(func=_run_solver, kind="bs")

    s = sub.add_parser("sci", help="snapshot compressive imaging")
    _add_observation_flags(s, "--measurement", sr=0.25)
    s.add_argument("--sigma", type=float, default=0.0)
    _add_solver_flags(s)
    s.set_defaults(func=_run_solver, kind="sci", noise_sr=0.0, sparse=None)

    s = sub.add_parser("metrics", help="psnr / ssim / sam report")
    s.add_argument("x")
    s.add_argument("ref")
    s.add_argument("--peak", type=float, default=1.0)
    s.add_argument("--peak-from-ref", action="store_true")
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_metrics)

    s = sub.add_parser("accegy", help="singular-value energy compaction curve")
    s.add_argument("x")
    s.add_argument("--dft", action="store_true", help="transform along mode 3 first")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_accegy)

    s = sub.add_parser("baseline-tnn", help="convex transform-domain completion oracle")
    s.add_argument("--obs", required=True)
    s.add_argument("--mask", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--rho", type=float, default=1e-2)
    s.add_argument("--iters", type=int, default=200)
    s.set_defaults(func=_cmd_baseline_tnn)

    s = sub.add_parser("convert", help="flat CSV ingestion / export")
    direction = s.add_mutually_exclusive_group(required=True)
    direction.add_argument("--from-csv", default=None, metavar="CSV")
    direction.add_argument("--to-csv", default=None, metavar="SSNT")
    s.add_argument("--dims", type=_parse_dims, default=None, metavar="N1,N2,N3",
                   help="required with --from-csv")
    s.add_argument("--out", required=True)
    s.add_argument("--no-normalize", action="store_true")
    s.add_argument("--manifest", default=None)
    s.set_defaults(func=_cmd_convert)

    return parser


def _fail(code, kind, exc):
    detail = str(exc).replace("\n", " ")
    print(f"error code={code} kind={kind} detail={detail!r}", file=sys.stderr)
    return code


def main(argv=None):
    """Entry point returning the exit status (no sys.exit)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "convert" and args.from_csv is not None and args.dims is None:
            parser.error("convert --from-csv needs --dims n1,n2,n3")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except FormatError as exc:
        return _fail(EXIT_FORMAT, "format", exc)
    except FileNotFoundError as exc:
        return _fail(EXIT_IO, "io", exc)
    except OSError as exc:
        return _fail(EXIT_IO, "io", exc)
    except (ValueError, KeyError, FloatingPointError) as exc:
        return _fail(EXIT_CONFIG, "config", exc)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
