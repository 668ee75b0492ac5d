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
reference; for ``subtract`` it is the video.  ``--input`` excludes
``--obs`` (``--measurement``) and ``--mask``, and ``--sr``,
``--noise-sr`` and ``--sigma`` need it; both rules are checked before
any file is read.  ``--ref`` is read, and its shape checked, before the
solve.  ``metrics`` takes at most one of ``--peak`` and
``--peak-from-ref``, which rejects an all-zero reference.  Every tensor
file read must hold only finite values; a NaN or inf fails naming the
file.  ``--peak`` must be finite and positive, ``--tau``, ``--beta`` and
``--inner-steps`` need ``--tv``, and ``--slope`` excludes ``--linear``;
the solver commands check these, and the value of every solver flag,
before reading any input.
``degrade`` needs ``--mask`` for every kind but ``bs``, which rejects
it.  ``convert`` takes one of ``--from-csv`` (with ``--dims``) and
``--to-csv`` (with none of ``--dims``, ``--no-normalize``, ``--manifest``)
and rejects a CSV holding NaN or inf.  A malformed ``--dims`` or
``--layers``, a negative ``--seed`` and a ``--tubal-rank`` below 1 are
usage errors.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 malformed tensor
file, 5 inconsistent shapes or configuration (a network too large to
allocate among them).  Failures print one
machine-readable line ``error code=<n> kind=<kind> detail=<...>`` on
stderr.  Every command checks its outputs' directories before it
reads any input, and inputs, flags and the metrics before the first
output is written.
"""

import argparse
import os
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
from .metrics import acc_egy, check_peak, metric_report, tnn_baseline_complete
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


def _int_at_least(low, what):
    """An argparse type for one integer ``>= low``; argparse names the
    flag in the error, ``what`` the kind of integer expected."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value

    return parse


_parse_seed = _int_at_least(0, "non-negative")
_parse_rank = _int_at_least(1, "positive")


def _read_finite(path):
    """A tensor file that must hold only finite values."""
    t = read_tensor(path)
    if not np.isfinite(t).all():
        raise ValueError(f"{path} holds non-finite values (NaN or inf)")
    return t


# The flags that say how a solver command degrades --input, by dest.
_SAMPLING_FLAGS = {"sr": "--sr", "noise_sr": "--noise-sr", "sigma": "--sigma"}


def _add_observation_flags(sub, obs_flag, **sampling):
    """Observation flags of the solver commands that degrade ``--input``.
    ``sampling`` maps the dest of each sampling flag the command takes to
    its default.  The flags parse to ``None`` when absent, so that
    :func:`_observe` can reject one given without ``--input``."""
    sub.add_argument(obs_flag, dest="obs", default=None, metavar="SSNT")
    sub.add_argument("--mask", default=None, metavar="SSNT")
    sub.add_argument("--input", default=None, metavar="SSNT",
                     help="ground truth; degrade at --sr first")
    for dest, default in sampling.items():
        sub.add_argument(_SAMPLING_FLAGS[dest], dest=dest, type=float, default=None,
                         help=f"with --input only (default {default})")
    sub.add_argument("--out", required=True, metavar="SSNT")
    sub.set_defaults(sampling={"noise_sr": 0.0, "sigma": 0.0, **sampling})


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
    sub.add_argument("--seed", type=_parse_seed, default=0)
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
# The solver flags that only the TV solver reads.
_TV_FLAGS = ("--tau", "--beta", "--inner-steps")


def _config_from_args(args, kind, dims):
    over = {name: getattr(args, name) for name in _CONFIG_FLAGS if getattr(args, name) is not None}
    over["seed"] = args.seed
    if args.layers is not None:
        over["p"], over["q"] = args.layers
    if args.linear:
        over["activation"] = "identity"
    return replace(default_config(kind, dims), **over)


def _degrade_input(kind, args):
    """``--input`` and its observation under ``kind``, simulated at ``--sr``."""
    truth = _read_finite(args.input)
    spec = SamplingSpec(sr=args.sr, noise_sr=args.noise_sr, gauss_sigma=args.sigma, seed=args.seed)
    return degrade(truth, kind, spec), truth


def _observe(kind, args):
    """The observation of a solver command, and the ground truth it was
    simulated from (``None`` when it was read from files).

    ``--input`` is a ground truth to degrade at ``--sr``, except for
    ``bs``, where it is the video itself.  It excludes the observation
    files, and the sampling flags need it.  Both are checked before any
    file is read.
    """
    if kind == "bs":
        return ObservationModel("bs", _read_finite(args.input)), None
    obs_flag = "--measurement" if kind == "sci" else "--obs"
    given = {dest: getattr(args, dest) for dest in args.sampling
             if getattr(args, dest, None) is not None}
    if args.input is not None:
        if args.obs is not None or args.mask is not None:
            raise ValueError(f"--input is degraded to the observation: drop {obs_flag} and --mask")
        vars(args).update({**args.sampling, **given})
        return _degrade_input(kind, args)
    if given:
        raise ValueError(f"{_SAMPLING_FLAGS[next(iter(given))]} needs --input: "
                         "only a degraded --input reads it")
    if args.obs is None or args.mask is None:
        raise ValueError(f"need either --input with --sr, or {obs_flag} with --mask")
    obs = _read_finite(args.obs)
    if kind == "sci":
        if obs.shape[2] != 1:
            raise ValueError("sci measurement file must have dims n1,n2,1")
        obs = obs[:, :, 0]
    return ObservationModel(kind, obs, _read_finite(args.mask)), None


def _check_out_dirs(*paths):
    """Every output path that is given must lie in an existing directory."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"the directory of output {path} does not exist")


def _report(x, ref, peak):
    """Print the psnr / ssim / sam line of ``x`` against ``ref`` and
    return the report as the ``psnr,ssim,sam,peak`` row."""
    row = asdict(metric_report(x, ref, peak=peak))
    print("psnr={psnr!r} ssim={ssim!r} sam={sam!r}".format(**row))
    return row


def _run_solver(args):
    """The four solver commands: check the flags and the output
    directories, observe, check ``--ref``, solve, report the metrics,
    then write the estimate, its sparse part, the transform, diagnostics
    and manifest.

    The metrics reference is ``--ref``, or else the ground truth that
    ``--input`` was degraded from.
    """
    kind = args.kind
    check_peak(args.peak)
    for flag in _TV_FLAGS:  # flags the chosen solver would ignore
        if not args.tv and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} is read by the TV solver only: need --tv")
    if args.linear and args.slope is not None:
        raise ValueError("--slope sets the leaky-relu slope, which --linear drops")
    _config_from_args(args, kind, (1, 1, 1))  # the flag values, whatever the dims
    outputs = {"x": args.out, "sparse": args.sparse, "transform": args.save_transform}
    _check_out_dirs(*outputs.values(), args.diagnostics, args.manifest)
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
    metrics = _report(x, ref, args.peak) if ref is not None else None

    write_tensor(args.out, x)
    if args.sparse:
        write_tensor(args.sparse, assemble(x, model).sparse)
    if args.save_transform:
        write_tensor(args.save_transform, forward_f(x0, params)[0])
    # An empty history (--tmax 0) writes no CSV, so the manifest names none.
    diagnostics = args.diagnostics if history else None
    if diagnostics:
        export_diagnostics(history, diagnostics)
    if args.manifest:
        RunManifest(
            command=kind,
            config=asdict(cfg),
            seed=cfg.seed,
            started=started,
            finished=_now(),
            outputs={k: v for k, v in outputs.items() if v},
            diagnostics_csv=diagnostics,
            metrics=metrics,
        ).save(args.manifest)
    return EXIT_OK


def _cmd_synth(args):
    _check_out_dirs(args.out)
    x = synth_low_tubal_rank(args.dims, args.tubal_rank, args.seed)
    write_tensor(args.out, x)
    return EXIT_OK


def _cmd_degrade(args):
    if args.kind != "bs" and args.mask is None:
        raise ValueError(f"{args.kind} degradation needs --mask to store the mask")
    if args.kind == "bs" and args.mask is not None:
        raise ValueError("bs degradation has no mask: the video is observed whole; drop --mask")
    _check_out_dirs(args.obs, args.mask)
    model, _ = _degrade_input(args.kind, args)
    write_tensor(args.obs, model.measurement[:, :, None] if args.kind == "sci" else model.measurement)
    if model.mask is not None:
        write_tensor(args.mask, model.mask)
    return EXIT_OK


def _cmd_metrics(args):
    _check_out_dirs(args.out)
    x = _read_finite(args.x)
    ref = _read_finite(args.ref)
    peak = float(np.abs(ref).max()) if args.peak_from_ref else args.peak
    if args.peak_from_ref and peak == 0.0:
        raise ValueError(f"--peak-from-ref takes the peak from {args.ref}, which is all zero")
    row = _report(x, ref, peak)
    if args.out:
        write_csv(args.out, row, [row.values()])
    return EXIT_OK


def _cmd_accegy(args):
    _check_out_dirs(args.out)
    t = _read_finite(args.x)
    curve = acc_egy(t, dft=args.dft)
    rows = zip(curve.fractions.tolist(), curve.energy_ratio.tolist())
    write_csv(args.out, ("fraction", "energy_ratio"), rows)
    return EXIT_OK


def _cmd_baseline_tnn(args):
    _check_out_dirs(args.out)
    model = ObservationModel("tc", _read_finite(args.obs), _read_finite(args.mask))
    x = tnn_baseline_complete(model, rho=args.rho, iters=args.iters)
    write_tensor(args.out, x)
    return EXIT_OK


def _cmd_convert(args):
    _check_out_dirs(args.out, args.manifest)
    if args.to_csv is not None:
        t = _read_finite(args.to_csv)
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
    s.add_argument("--tubal-rank", type=_parse_rank, default=2)
    s.add_argument("--seed", type=_parse_seed, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("degrade", help="simulate an observation model")
    s.add_argument("--kind", choices=("tc", "bs", "rtc", "sci"), required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--sr", type=float, default=1.0)
    s.add_argument("--noise-sr", type=float, default=0.0)
    s.add_argument("--sigma", type=float, default=0.0)
    s.add_argument("--seed", type=_parse_seed, default=0)
    s.add_argument("--obs", required=True)
    s.add_argument("--mask", default=None)
    s.set_defaults(func=_cmd_degrade)

    s = sub.add_parser("complete", help="tensor completion")
    _add_observation_flags(s, "--obs", sr=1.0)
    _add_solver_flags(s)
    s.set_defaults(func=_run_solver, kind="tc", sparse=None)

    s = sub.add_parser("robust-complete", help="completion under sparse corruption")
    _add_observation_flags(s, "--obs", sr=1.0, noise_sr=0.1)
    s.add_argument("--sparse", default=None, help="write the implied sparse part")
    _add_solver_flags(s)
    s.set_defaults(func=_run_solver, kind="rtc")

    s = sub.add_parser("subtract", help="background subtraction")
    s.add_argument("--input", required=True, help="the video")
    s.add_argument("--background", dest="out", required=True, metavar="SSNT")
    s.add_argument("--foreground", dest="sparse", default=None, metavar="SSNT")
    _add_solver_flags(s)
    s.set_defaults(func=_run_solver, kind="bs")

    s = sub.add_parser("sci", help="snapshot compressive imaging")
    _add_observation_flags(s, "--measurement", sr=0.25, sigma=0.0)
    _add_solver_flags(s)
    s.set_defaults(func=_run_solver, kind="sci", sparse=None)

    s = sub.add_parser("metrics", help="psnr / ssim / sam report")
    s.add_argument("x")
    s.add_argument("ref")
    peak = s.add_mutually_exclusive_group()
    peak.add_argument("--peak", type=float, default=1.0)
    peak.add_argument("--peak-from-ref", action="store_true", help="peak = max |ref|")
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
        if args.command == "convert" and args.to_csv is not None:
            for flag in ("--dims", "--no-normalize", "--manifest"):  # the --from-csv flags
                if getattr(args, flag[2:].replace("-", "_")) not in (None, False):
                    parser.error(f"convert --to-csv does not take {flag}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # Every non-finite result is checked and reported as one error line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except FormatError as exc:
        return _fail(EXIT_FORMAT, "format", exc)
    except OSError as exc:
        return _fail(EXIT_IO, "io", exc)
    except (ValueError, KeyError, FloatingPointError, MemoryError) as exc:
        return _fail(EXIT_CONFIG, "config", exc)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
