"""Command-line surface: subcommand flows, reproducibility of outputs
and the exit-code table."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ssnt
from ssnt.cli import main
from ssnt.fileio import RunManifest, read_diagnostics, read_tensor, write_tensor
from ssnt.problems import SamplingSpec, degrade, synth_low_tubal_rank
from ssnt.solvers import default_config, solve_ssnt


# The output flags of robust-complete, the solver command with the most.
SOLVER_OUTPUTS = ("--out", "--sparse", "--save-transform", "--diagnostics", "--manifest")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def truth_file(tmp_path):
    path = tmp_path / "truth.ssnt"
    assert run("synth", "--dims", "12,12,4", "--tubal-rank", "2", "--seed", "7", "--out", path) == 0
    return path


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.ssnt"
        b = tmp_path / "b.ssnt"
        run("synth", "--dims", "30,30,16", "--tubal-rank", "2", "--seed", "7", "--out", a)
        run("synth", "--dims", "30,30,16", "--tubal-rank", "2", "--seed", "7", "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestBlasThreadCount:
    """Loss, relative-change and metric sums run in numpy, not in BLAS,
    whose long dot products split across its threads: every output of a
    seeded solve is the same bytes for any BLAS thread count."""

    def run_with_threads(self, threads, truth, out):
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(ssnt.__file__).parents[1]), env.get("PYTHONPATH")) if p
        )
        stdout = b""
        # 30x30x16 = 14400 entries: above the length at which OpenBLAS
        # splits a dot product across threads.
        for argv in (
            ("complete", "--input", truth, "--sr", "0.5", "--tmax", "3", "--seed", "1",
             "--out", out / "c.ssnt", "--diagnostics", out / "c.csv"),
            ("robust-complete", "--input", truth, "--sr", "0.5", "--tmax", "2", "--seed", "1",
             "--tv", "--tau", "0.2", "--inner-steps", "2",
             "--out", out / "r.ssnt", "--sparse", out / "s.ssnt", "--diagnostics", out / "r.csv"),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "ssnt.cli", *map(str, argv)],
                env=env, capture_output=True, check=True,
            )
            stdout += proc.stdout
        return stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        truth = tmp_path / "truth.ssnt"
        assert run("synth", "--dims", "30,30,16", "--seed", "7", "--out", truth) == 0
        one = self.run_with_threads("1", truth, tmp_path / "one")
        two = self.run_with_threads("2", truth, tmp_path / "two")
        assert sorted(one[1]) == ["c.csv", "c.ssnt", "r.csv", "r.ssnt", "s.ssnt"]
        assert one == two


class TestComplete:
    def test_full_observation_returns_input(self, tmp_path, truth_file, capsys):
        out = tmp_path / "rec.ssnt"
        code = run(
            "complete", "--input", truth_file, "--sr", "1.0", "--out", out,
            "--tmax", "3", "--seed", "0",
        )
        assert code == 0
        assert np.array_equal(read_tensor(out), read_tensor(truth_file))
        assert "psnr=inf" in capsys.readouterr().out

    def test_seeded_rerun_byte_identical(self, tmp_path, truth_file):
        blobs = []
        for tag in ("a", "b"):
            rec = tmp_path / f"rec_{tag}.ssnt"
            diag = tmp_path / f"diag_{tag}.csv"
            assert run(
                "complete", "--input", truth_file, "--sr", "0.4", "--out", rec,
                "--tmax", "25", "--seed", "3", "--diagnostics", diag,
            ) == 0
            blobs.append((rec.read_bytes(), diag.read_bytes()))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command", ["complete", "robust-complete", "sci"])
    def test_tv_flag_and_manifest(self, tmp_path, truth_file, command, capsys):
        """--input is the metrics reference of every command that degrades it."""
        out = tmp_path / "rec.ssnt"
        manifest = tmp_path / "run.json"
        diag = tmp_path / "diag.csv"
        code = run(
            command, "--input", truth_file, "--sr", "0.5", "--out", out,
            "--tv", "--tau", "0.2", "--tmax", "10", "--seed", "1",
            "--manifest", manifest, "--diagnostics", diag,
        )
        assert code == 0
        m = RunManifest.load(manifest)
        assert m.command == {"complete": "tc", "robust-complete": "rtc", "sci": "sci"}[command]
        assert m.config["tau"] == 0.2
        assert m.config["t_max"] == 10
        assert set(m.metrics) == {"psnr", "ssim", "sam", "peak"}
        assert f"psnr={m.metrics['psnr']!r}" in capsys.readouterr().out
        rows = read_diagnostics(diag)
        assert len(rows) == 10

    def test_obs_mask_path(self, tmp_path, truth_file):
        obs = tmp_path / "obs.ssnt"
        mask = tmp_path / "mask.ssnt"
        assert run(
            "degrade", "--kind", "tc", "--input", truth_file, "--sr", "0.5",
            "--seed", "2", "--obs", obs, "--mask", mask,
        ) == 0
        out = tmp_path / "rec.ssnt"
        assert run("complete", "--obs", obs, "--mask", mask, "--out", out, "--tmax", "5") == 0
        rec = read_tensor(out)
        m = read_tensor(mask)
        assert np.array_equal(rec[m == 1.0], read_tensor(obs)[m == 1.0])

    def test_obs_mask_output_equals_the_library(self, tmp_path):
        """A run fed from files computes what the library computes on
        the same values held in memory."""
        truth = synth_low_tubal_rank((12, 12, 4), 2, seed=7)
        model = degrade(truth, "tc", SamplingSpec(sr=0.5, seed=2))
        obs, mask = tmp_path / "obs.ssnt", tmp_path / "mask.ssnt"
        write_tensor(obs, model.measurement)
        write_tensor(mask, model.mask)
        out = tmp_path / "rec.ssnt"
        assert run("complete", "--obs", obs, "--mask", mask, "--out", out, "--tmax", "5") == 0
        x, _, _ = solve_ssnt(model, replace(default_config("tc", truth.shape), t_max=5, seed=0))
        lib = tmp_path / "lib.ssnt"
        write_tensor(lib, x)
        assert out.read_bytes() == lib.read_bytes()

    def test_save_transform(self, tmp_path, truth_file):
        out = tmp_path / "rec.ssnt"
        trans = tmp_path / "f_of_obs.ssnt"
        assert run(
            "complete", "--input", truth_file, "--sr", "0.5", "--out", out,
            "--tmax", "3", "--save-transform", trans,
        ) == 0
        assert read_tensor(trans).shape == (12, 12, 8)


class TestOtherSolvers:
    def test_subtract_outputs_split(self, tmp_path):
        rng = np.random.default_rng(0)
        video = np.clip(rng.uniform(0.2, 0.8, (10, 10, 6)), 0, 1)
        vid = tmp_path / "video.ssnt"
        write_tensor(vid, video)
        bg = tmp_path / "bg.ssnt"
        fg = tmp_path / "fg.ssnt"
        assert run(
            "subtract", "--input", vid, "--background", bg, "--foreground", fg,
            "--tmax", "10", "--seed", "0",
        ) == 0
        assert np.allclose(read_tensor(bg) + read_tensor(fg), video)

    def test_robust_complete_sparse_output(self, tmp_path, truth_file):
        out = tmp_path / "rec.ssnt"
        sp = tmp_path / "sparse.ssnt"
        assert run(
            "robust-complete", "--input", truth_file, "--sr", "0.5",
            "--noise-sr", "0.1", "--out", out, "--sparse", sp,
            "--tmax", "5", "--seed", "1",
        ) == 0
        assert read_tensor(sp).shape == (12, 12, 4)

    def test_sci_roundtrip_files(self, tmp_path, truth_file):
        obs = tmp_path / "meas.ssnt"
        mask = tmp_path / "mask.ssnt"
        assert run(
            "degrade", "--kind", "sci", "--input", truth_file, "--sr", "0.5",
            "--seed", "3", "--obs", obs, "--mask", mask,
        ) == 0
        assert read_tensor(obs).shape == (12, 12, 1)
        out = tmp_path / "rec.ssnt"
        assert run(
            "sci", "--measurement", obs, "--mask", mask, "--out", out, "--tmax", "5",
        ) == 0
        assert read_tensor(out).shape == (12, 12, 4)


class TestMetricsCommand:
    def test_self_comparison(self, tmp_path, truth_file, capsys):
        report = tmp_path / "report.csv"
        assert run("metrics", truth_file, truth_file, "--out", report) == 0
        out = capsys.readouterr().out
        assert "psnr=inf" in out and "ssim=1.0" in out and "sam=0.0" in out
        header, row = report.read_text().strip().split("\n")
        assert header == "psnr,ssim,sam,peak"
        assert row.split(",")[0] == "inf"


class TestAccegyCommand:
    def test_curve_csv(self, tmp_path, truth_file):
        curve = tmp_path / "curve.csv"
        assert run("accegy", truth_file, "--dft", "--out", curve) == 0
        lines = curve.read_text().strip().split("\n")
        assert lines[0] == "fraction,energy_ratio"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(1.0, abs=1e-12)


class TestBaselineCommand:
    def test_baseline_recovers(self, tmp_path):
        truth = tmp_path / "truth.ssnt"
        run("synth", "--dims", "16,16,4", "--tubal-rank", "2", "--seed", "4", "--out", truth)
        obs = tmp_path / "obs.ssnt"
        mask = tmp_path / "mask.ssnt"
        run("degrade", "--kind", "tc", "--input", truth, "--sr", "0.6", "--seed", "5",
            "--obs", obs, "--mask", mask)
        out = tmp_path / "rec.ssnt"
        assert run("baseline-tnn", "--obs", obs, "--mask", mask, "--out", out,
                   "--rho", "0.3", "--iters", "200") == 0
        t = read_tensor(truth)
        err = np.linalg.norm(read_tensor(out) - t) / np.linalg.norm(t)
        assert err < 1e-2


class TestConvert:
    def test_csv_roundtrip_without_normalization(self, tmp_path, truth_file):
        csv_path = tmp_path / "x.csv"
        assert run("convert", "--to-csv", truth_file, "--out", csv_path) == 0
        back = tmp_path / "back.ssnt"
        assert run(
            "convert", "--from-csv", csv_path, "--dims", "12,12,4",
            "--out", back, "--no-normalize",
        ) == 0
        assert np.array_equal(read_tensor(back), read_tensor(truth_file))

    def test_ingest_normalizes_with_manifest(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        values = np.linspace(-5.0, 15.0, 24)
        csv_path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        out = tmp_path / "x.ssnt"
        manifest = tmp_path / "m.json"
        assert run(
            "convert", "--from-csv", csv_path, "--dims", "2,3,4",
            "--out", out, "--manifest", manifest,
        ) == 0
        t = read_tensor(out)
        assert t.min() == 0.0 and t.max() == 1.0
        m = RunManifest.load(manifest)
        assert m.normalization == {"min": -5.0, "max": 15.0}


    @pytest.mark.parametrize("direction", [[], ["--from-csv", "x.csv", "--to-csv", "x.ssnt"]],
                             ids=["neither", "both"])
    def test_exactly_one_direction(self, tmp_path, direction, capsys):
        out, manifest = tmp_path / "out", tmp_path / "m.json"
        code = run("convert", *direction, "--dims", "2,2,2", "--out", out, "--manifest", manifest)
        assert code == 2
        assert "--from-csv" in capsys.readouterr().err
        assert not out.exists() and not manifest.exists()

    def test_from_csv_needs_dims(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("1.0\n2.0\n")
        out, manifest = tmp_path / "x.ssnt", tmp_path / "m.json"
        assert run("convert", "--from-csv", csv_path, "--out", out, "--manifest", manifest) == 2
        assert "--dims" in capsys.readouterr().err
        assert not out.exists() and not manifest.exists()

    @pytest.mark.parametrize("normalize", [[], ["--no-normalize"]], ids=["normalize", "raw"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_csv_is_rejected(self, tmp_path, bad, normalize, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("\n".join(["0.5"] * 7 + [bad]) + "\n")
        out, manifest = tmp_path / "x.ssnt", tmp_path / "m.json"
        code = run("convert", "--from-csv", csv_path, "--dims", "2,2,2", "--out", out,
                   "--manifest", manifest, *normalize)
        assert code == 5
        err = capsys.readouterr().err
        assert "kind=config" in err and str(csv_path) in err and "non-finite" in err
        assert not out.exists() and not manifest.exists()


class TestExitCodes:
    def test_unknown_flag_is_usage(self, truth_file, capsys):
        assert run("synth", "--dims", "2,2,2", "--out", "x", "--bogus") == 2
        capsys.readouterr()

    def test_missing_file_is_io(self, tmp_path, capsys):
        code = run("metrics", tmp_path / "none.ssnt", tmp_path / "none.ssnt")
        assert code == 3
        assert "error code=3 kind=io" in capsys.readouterr().err

    def test_corrupt_file_is_format(self, tmp_path, truth_file, capsys):
        blob = bytearray(truth_file.read_bytes())
        blob[40] ^= 0xFF
        bad = tmp_path / "bad.ssnt"
        bad.write_bytes(bytes(blob))
        assert run("metrics", bad, bad) == 4
        assert "kind=format" in capsys.readouterr().err

    def test_inconsistent_config_is_config_error(self, tmp_path, truth_file, capsys):
        csv_path = tmp_path / "x.csv"
        run("convert", "--to-csv", truth_file, "--out", csv_path)
        code = run("convert", "--from-csv", csv_path, "--dims", "5,5,5", "--out", tmp_path / "y.ssnt")
        assert code == 5
        assert "kind=config" in capsys.readouterr().err

    def test_complete_has_no_noise_rate(self, tmp_path, truth_file, capsys):
        out = tmp_path / "rec.ssnt"
        code = run("complete", "--input", truth_file, "--sr", "0.5", "--noise-sr", "0.3",
                   "--out", out, "--tmax", "1")
        assert code == 2
        capsys.readouterr()
        assert not out.exists()

    def test_shape_mismatch_between_files(self, tmp_path, truth_file, capsys):
        other = tmp_path / "other.ssnt"
        run("synth", "--dims", "6,6,3", "--out", other)
        assert run("metrics", truth_file, other) == 5
        capsys.readouterr()


class TestFailEarly:
    @pytest.mark.parametrize("kind", ["tc", "rtc", "sci"])
    def test_degrade_without_mask_writes_nothing(self, tmp_path, truth_file, kind, capsys):
        obs = tmp_path / "obs.ssnt"
        code = run("degrade", "--kind", kind, "--input", truth_file, "--sr", "0.5", "--obs", obs)
        assert code == 5
        assert f"{kind} degradation needs --mask to store the mask" in capsys.readouterr().err
        assert not obs.exists()

    @pytest.mark.parametrize("layers", ["2", "a,b", "0,2", "2,0", "1,2,3", ""])
    def test_bad_layers_is_usage(self, tmp_path, truth_file, layers, capsys):
        out = tmp_path / "rec.ssnt"
        code = run("complete", "--input", truth_file, "--sr", "0.5", "--out", out,
                   "--tmax", "1", "--layers", layers)
        assert code == 2
        assert "--layers P,Q" in capsys.readouterr().err
        assert not out.exists()

    def test_layers_reach_the_config(self, tmp_path, truth_file):
        manifest = tmp_path / "run.json"
        assert run("complete", "--input", truth_file, "--sr", "0.5", "--out", tmp_path / "rec.ssnt",
                   "--tmax", "1", "--layers", "1,3", "--manifest", manifest) == 0
        m = RunManifest.load(manifest)
        assert (m.config["p"], m.config["q"]) == (1, 3)

    @pytest.mark.parametrize("tmax", [0, 2])
    def test_manifest_names_only_written_files(self, tmp_path, truth_file, tmax):
        manifest = tmp_path / "m.json"
        diag = tmp_path / "d.csv"
        assert run("complete", "--input", truth_file, "--sr", "0.5", "--out", tmp_path / "rec.ssnt",
                   "--tmax", tmax, "--diagnostics", diag, "--manifest", manifest) == 0
        m = RunManifest.load(manifest)
        named = list(m.outputs.values()) + [m.diagnostics_csv] * (m.diagnostics_csv is not None)
        assert named and all(Path(p).exists() for p in named)
        assert (m.diagnostics_csv is not None) == (tmax > 0) == diag.exists()

    def test_inner_steps_without_tv_writes_nothing(self, tmp_path, truth_file, capsys):
        out = tmp_path / "rec.ssnt"
        code = run("complete", "--input", truth_file, "--sr", "0.5", "--out", out,
                   "--tmax", "5", "--inner-steps", "5")
        assert code == 5
        assert "inner_steps=5 needs the TV solver" in capsys.readouterr().err
        assert not out.exists()

    def test_ref_is_checked_before_the_solve(self, tmp_path, truth_file, capsys):
        out = tmp_path / "rec.ssnt"
        base = ("complete", "--input", truth_file, "--sr", "0.5", "--out", out, "--tmax", "1")
        assert run(*base, "--ref", tmp_path / "none.ssnt") == 3
        assert "kind=io" in capsys.readouterr().err
        assert not out.exists()
        other = tmp_path / "other.ssnt"
        run("synth", "--dims", "6,6,3", "--out", other)
        assert run(*base, "--ref", other) == 5
        assert "kind=config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["-0.05", "0"])
    def test_nonpositive_lr_writes_nothing(self, tmp_path, truth_file, lr, capsys):
        out = tmp_path / "rec.ssnt"
        code = run("complete", "--input", truth_file, "--sr", "0.5", "--out", out,
                   "--tmax", "20", "--lr", lr)
        assert code == 5
        assert "kind=config" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_ref_writes_nothing(self, tmp_path, truth_file, capsys):
        ref = read_tensor(truth_file)
        ref[0, 1, 2] = np.nan
        bad = tmp_path / "nan.ssnt"
        write_tensor(bad, ref)
        out = tmp_path / "rec.ssnt"
        code = run("complete", "--input", truth_file, "--sr", "0.5", "--tmax", "2",
                   "--ref", bad, "--out", out)
        assert code == 5
        captured = capsys.readouterr()
        assert "kind=config" in captured.err and str(bad) in captured.err
        assert "non-finite" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("dims", ["a,b,c", "2,2", "0,1,1"])
    @pytest.mark.parametrize("command", ["synth", "convert"])
    def test_bad_dims_is_usage(self, tmp_path, dims, command, capsys):
        out = tmp_path / "x.ssnt"
        if command == "synth":
            argv = ("synth", "--dims", dims, "--out", out)
        else:
            csv_path = tmp_path / "raw.csv"
            csv_path.write_text("0.5\n" * 4)
            argv = ("convert", "--from-csv", csv_path, "--dims", dims, "--out", out)
        assert run(*argv) == 2
        assert "--dims" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_video_names_the_measurement(self, tmp_path, truth_file, capsys):
        video = read_tensor(truth_file)
        video[1, 1, 1] = np.nan
        bad = tmp_path / "video.ssnt"
        write_tensor(bad, video)
        background = tmp_path / "bg.ssnt"
        code = run("subtract", "--input", bad, "--background", background, "--tmax", "2")
        assert code == 5
        err = capsys.readouterr().err
        assert "kind=config" in err and "measurement holds non-finite values" in err
        assert not background.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_metrics_rejects_nonfinite(self, tmp_path, truth_file, bad, which, capsys):
        t = read_tensor(truth_file)
        t[3, 2, 1] = bad
        bad_file = tmp_path / "bad.ssnt"
        write_tensor(bad_file, t)
        report = tmp_path / "report.csv"
        files = [bad_file, truth_file] if which == 0 else [truth_file, bad_file]
        assert run("metrics", *files, "--out", report) == 5
        captured = capsys.readouterr()
        assert "kind=config" in captured.err and str(bad_file) in captured.err
        assert captured.out == ""
        assert not report.exists()

    @pytest.mark.parametrize("peak", ["0", "-1", "nan", "inf"])
    def test_nonpositive_peak_writes_nothing(self, tmp_path, truth_file, peak, capsys, monkeypatch):
        """A peak that is not finite and positive fails before any input
        is read or any solve runs."""

        def never(*args, **kwargs):
            raise AssertionError("reached past the --peak check")

        monkeypatch.setattr("ssnt.cli.solve_ssnt", never)
        monkeypatch.setattr("ssnt.cli.read_tensor", never)
        out = tmp_path / "rec.ssnt"
        diag = tmp_path / "diag.csv"
        code = run("complete", "--input", truth_file, "--sr", "0.5", "--tmax", "2",
                   "--out", out, "--diagnostics", diag, "--peak", peak)
        assert code == 5
        assert "peak must be positive" in capsys.readouterr().err
        assert not out.exists() and not diag.exists()

    @pytest.mark.parametrize("peak", ["0", "-1", "nan", "inf"])
    def test_metrics_rejects_a_bad_peak(self, tmp_path, truth_file, peak, capsys):
        report = tmp_path / "report.csv"
        assert run("metrics", truth_file, truth_file, "--peak", peak, "--out", report) == 5
        captured = capsys.readouterr()
        assert "peak must be positive" in captured.err and captured.out == ""
        assert not report.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--rho", "0"), ("--rho", "-1"), ("--rho", "nan"), ("--iters", "-3"),
    ])
    def test_baseline_rejects_a_bad_rho_or_iters(self, tmp_path, truth_file, flag, value, capsys):
        obs, mask, out = tmp_path / "obs.ssnt", tmp_path / "mask.ssnt", tmp_path / "rec.ssnt"
        assert run("degrade", "--kind", "tc", "--input", truth_file, "--sr", "0.5",
                   "--obs", obs, "--mask", mask) == 0
        assert run("baseline-tnn", "--obs", obs, "--mask", mask, "--out", out, flag, value) == 5
        assert f"{flag[2:]} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("degrade", "--kind", "sci", "--sigma", "nan", "--obs", "{out}", "--mask", "{mask}"),
        ("sci", "--sigma", "inf", "--tmax", "2", "--out", "{out}"),
    ], ids=["degrade-nan", "sci-inf"])
    def test_nonfinite_sigma_writes_nothing(self, tmp_path, truth_file, argv, capsys):
        paths = {"out": tmp_path / "out.ssnt", "mask": tmp_path / "mask.ssnt"}
        code = run(*(a.format(**paths) for a in argv), "--input", truth_file)
        assert code == 5
        assert "sigma must be finite and nonnegative" in capsys.readouterr().err
        assert not any(p.exists() for p in paths.values())

    def test_degrade_bs_rejects_a_mask(self, tmp_path, truth_file, capsys):
        obs, mask = tmp_path / "obs.ssnt", tmp_path / "m.ssnt"
        code = run("degrade", "--kind", "bs", "--input", truth_file, "--obs", obs, "--mask", mask)
        assert code == 5
        assert "bs degradation has no mask" in capsys.readouterr().err
        assert not obs.exists() and not mask.exists()

    @pytest.mark.parametrize("flag", ["--tau", "--beta"])
    def test_tv_weight_without_tv_writes_nothing(self, tmp_path, truth_file, flag, capsys):
        out = tmp_path / "rec.ssnt"
        code = run("complete", "--input", truth_file, "--sr", "0.5", "--tmax", "2",
                   "--out", out, flag, "0.2")
        assert code == 5
        assert "need --tv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [("accegy",), ("accegy", "--dft"), ("convert", "--to-csv")],
        ids=["accegy", "accegy-dft", "convert-to-csv"],
    )
    def test_nonfinite_input_writes_nothing(self, tmp_path, truth_file, argv, capsys):
        t = read_tensor(truth_file)
        t[2, 3, 1] = np.nan
        bad = tmp_path / "nan.ssnt"
        write_tensor(bad, t)
        out = tmp_path / "out.csv"
        assert run(*argv, bad, "--out", out) == 5
        err = capsys.readouterr().err
        assert "kind=config" in err and str(bad) in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", SOLVER_OUTPUTS)
    def test_output_in_missing_directory_writes_nothing(self, tmp_path, truth_file, flag, capsys):
        paths = {name: tmp_path / f"{name[2:]}.out" for name in SOLVER_OUTPUTS}
        missing = paths[flag] = tmp_path / "no" / "such.out"
        argv = ["robust-complete", "--input", truth_file, "--sr", "0.5", "--tmax", "2"]
        for name, path in paths.items():
            argv += [name, path]
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert "kind=io" in err and str(missing) in err and ".ssnt-tmp-" not in err
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.parametrize("command", ["degrade", "convert"])
    def test_second_output_in_missing_directory(self, tmp_path, truth_file, command, capsys):
        first = tmp_path / "first.ssnt"
        missing = tmp_path / "no" / "second"
        if command == "degrade":
            argv = ("degrade", "--kind", "tc", "--input", truth_file, "--sr", "0.5",
                    "--obs", first, "--mask", missing)
        else:
            csv_path = tmp_path / "raw.csv"
            csv_path.write_text("0.5\n" * 8)
            argv = ("convert", "--from-csv", csv_path, "--dims", "2,2,2",
                    "--out", first, "--manifest", missing)
        assert run(*argv) == 3
        assert str(missing) in capsys.readouterr().err
        assert not first.exists()
