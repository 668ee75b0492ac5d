"""Quality metrics, the energy-compaction curve and the convex
completion baseline."""

import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from ssnt import metrics, network
from ssnt.metrics import (
    AccEgyCurve,
    _tsvt,
    acc_egy,
    metric_report,
    psnr,
    sam,
    ssim,
    tnn_baseline_complete,
)
from ssnt.problems import SamplingSpec, degrade, synth_low_tubal_rank
from ssnt.tensors import dft_mode3, tnn


class TestPsnr:
    def test_exact_equality_is_inf(self):
        x = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
        assert psnr(x, x) == float("inf")

    def test_constant_offset_quarter(self):
        """MSE 0.01 at peak 1 is exactly 20 dB."""
        ref = np.random.default_rng(1).uniform(0, 1, (16, 16, 4))
        assert psnr(ref + 0.1, ref, peak=1.0) == pytest.approx(20.0, abs=1e-9)

    def test_monotone_in_error(self):
        rng = np.random.default_rng(2)
        ref = rng.uniform(0, 1, (8, 8, 3))
        noise = rng.standard_normal(ref.shape)
        values = [psnr(ref + a * noise, ref) for a in (0.01, 0.05, 0.2)]
        assert values[0] > values[1] > values[2]

    def test_guards(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("metric", [psnr, ssim, sam], ids=["psnr", "ssim", "sam"])
    def test_shape_mismatch_names_both_shapes(self, metric):
        with pytest.raises(ValueError, match=r"estimate \(3, 3, 2\) vs reference \(3, 4, 2\)"):
            metric(np.zeros((3, 3, 2)), np.zeros((3, 4, 2)))

    @pytest.mark.parametrize("metric", [psnr, ssim, sam], ids=["psnr", "ssim", "sam"])
    @pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (4, 4, 0)])
    def test_empty_tensor_is_rejected(self, metric, shape):
        with pytest.raises(ValueError, match=rf"non-empty tensor, got shape \({shape[0]}, {shape[1]}, {shape[2]}\)"):
            metric(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("peak", [0.0, -1.0, np.nan, np.inf])
    def test_peak_must_be_finite_and_positive(self, peak):
        with pytest.raises(ValueError, match="peak must be positive"):
            psnr(np.zeros((2, 2, 2)), np.ones((2, 2, 2)), peak=peak)


class TestSsim:
    def test_self_similarity(self):
        rng = np.random.default_rng(3)
        for shape in ((16, 16, 3), (20, 17, 5), (128, 128, 31)):
            x = rng.uniform(0, 1, shape)
            assert ssim(x, x) == 1.0

    def test_degradation_lowers_score(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(0, 1, (24, 24, 2))
        mild = ssim(ref + 0.02 * rng.standard_normal(ref.shape), ref)
        harsh = ssim(ref + 0.3 * rng.standard_normal(ref.shape), ref)
        assert 1.0 > mild > harsh

    def test_small_slices_supported(self):
        x = np.random.default_rng(5).uniform(0, 1, (7, 7, 2))
        assert ssim(x, x) == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(24, 20, 3), (9, 12, 2), (4, 6, 2), (128, 128, 31),
                                       (45, 37, 13), (11, 11, 2), (12, 13, 1)])
    def test_equals_the_two_dimensional_window(self, shape):
        """The separable filter agrees with the 2-D Gaussian window, slice
        by slice, to rounding, also where tiles of output rows and
        blocks of slices end short."""
        rng = np.random.default_rng(7)
        ref = rng.uniform(0, 1, shape)
        x = np.clip(ref + 0.1 * rng.standard_normal(shape), 0, 1)
        win = min(11, shape[0], shape[1])
        if win % 2 == 0:
            win -= 1
        g = np.exp(-((np.arange(win) - (win - 1) / 2) ** 2) / (2 * 1.5**2))
        w = np.outer(g, g) / np.outer(g, g).sum()

        def filt(img):
            return np.einsum("ijkl,kl->ij", np.lib.stride_tricks.sliding_window_view(img, (win, win)), w)

        def one_slice(a, b):
            mu_a, mu_b = filt(a), filt(b)
            var_a, var_b = filt(a * a) - mu_a**2, filt(b * b) - mu_b**2
            cov = filt(a * b) - mu_a * mu_b
            c1, c2 = 0.01**2, 0.03**2
            return np.mean((2 * mu_a * mu_b + c1) * (2 * cov + c2) / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)))

        expected = np.mean([one_slice(x[:, :, k], ref[:, :, k]) for k in range(shape[2])])
        assert ssim(x, ref) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    @staticmethod
    def pair(shape=(128, 128, 31), seed=8):
        rng = np.random.default_rng(seed)
        ref = rng.uniform(0, 1, shape)
        return np.clip(ref + 0.1 * rng.standard_normal(shape), 0, 1), ref

    def test_one_slice_per_block(self, monkeypatch):
        x, ref = self.pair()
        want = ssim(x, ref)
        monkeypatch.setattr(metrics, "_SSIM_BLOCK_ENTRIES", 1)
        assert ssim(x, ref) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_same_at_any_blas_thread_count(self, monkeypatch):
        """ssim runs its products with BLAS on one thread and gives the
        caller's count back."""
        libs = network.controls()
        if not libs:
            pytest.skip("no OpenBLAS thread setter found")
        seen = []
        real = metrics._valid_filter

        def valid_filter(*args):
            seen.append([get() for get, _ in libs])
            return real(*args)

        monkeypatch.setattr(metrics, "_valid_filter", valid_filter)
        x, ref = self.pair((45, 37, 13))
        saved = [get() for get, _ in libs]
        try:
            values = []
            for count in (1, 2):
                for _, put in libs:
                    put(count)
                values.append(ssim(x, ref))
                assert [get() for get, _ in libs] == [count] * len(libs)
        finally:
            for (_, put), count in zip(libs, saved):
                put(count)
        assert values[0] == values[1]
        assert seen and all(counts == [1] * len(libs) for counts in seen)

    def test_report_memory_at_paper_scale(self):
        x, ref = self.pair()
        tracemalloc.start()
        try:
            metric_report(x, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestSam:
    def test_orthogonal_tubes(self):
        x = np.zeros((1, 1, 4))
        y = np.zeros((1, 1, 4))
        x[0, 0, 0] = 1.0
        y[0, 0, 1] = 1.0
        assert sam(x, y) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_zero_tube_contributes_zero(self):
        x = np.zeros((1, 2, 3))
        y = np.zeros((1, 2, 3))
        x[0, 0, :] = [1.0, 0.0, 0.0]
        y[0, 0, :] = [1.0, 0.0, 0.0]
        assert sam(x, y) == 0.0

    def test_per_tube_scale_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.1, 1, (5, 4, 6))
        y = rng.uniform(0.1, 1, (5, 4, 6))
        scales = rng.uniform(0.5, 4.0, (5, 4, 1))
        assert sam(scales * x, y) == pytest.approx(sam(x, y), rel=1e-12)

    def test_self_is_zero(self):
        x = np.random.default_rng(7).uniform(0.1, 1, (4, 4, 5))
        assert sam(x, x) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_tube_is_not_a_match(self, bad):
        x = np.random.default_rng(8).uniform(0.1, 1, (3, 3, 4))
        y = x.copy()
        y[1, 2, 0] = bad
        assert np.isnan(sam(x, y)) and np.isnan(sam(y, x)) and np.isnan(sam(y, y))


class TestMetricReport:
    def test_bundles_the_csv_row(self):
        x = np.random.default_rng(8).uniform(0, 1, (9, 9, 3))
        rep = metric_report(x, x)
        assert rep.psnr == float("inf") and rep.ssim == pytest.approx(1.0)
        assert rep.sam == pytest.approx(0.0, abs=1e-7)
        assert list(asdict(rep)) == ["psnr", "ssim", "sam", "peak"]


class TestAccEgy:
    def test_two_singular_values(self):
        """Single slice with sigmas (2, 1): curve (4/5, 1)."""
        slab = np.diag([2.0, 1.0])
        curve = acc_egy(slab[:, :, None])
        assert np.allclose(curve.energy_ratio, [0.8, 1.0], atol=1e-12)
        assert np.allclose(curve.fractions, [0.5, 1.0])

    def test_rank_one_slices_saturate_at_slice_count(self):
        rng = np.random.default_rng(9)
        slabs = [np.outer(rng.standard_normal(5), rng.standard_normal(4)) for _ in range(3)]
        curve = acc_egy(np.dstack(slabs))
        assert curve.energy_ratio[2] == pytest.approx(1.0, abs=1e-12)

    def test_gram_eigenvalue_oracle(self):
        """Pooled squared singular values equal pooled Gram eigenvalues."""
        t = np.random.default_rng(10).standard_normal((6, 5, 4))
        evals = np.concatenate(
            [np.linalg.eigvalsh(t[:, :, k].T @ t[:, :, k]) for k in range(4)]
        )
        evals = np.sort(np.clip(evals, 0.0, None))[::-1]
        expect = np.cumsum(evals) / evals.sum()
        curve = acc_egy(t)
        # oracle has one eigenvalue per column; drop the padding zeros
        assert np.allclose(curve.energy_ratio, expect[: curve.energy_ratio.size], atol=1e-10)

    def test_nondecreasing_ends_at_one(self):
        t = np.random.default_rng(11).standard_normal((5, 5, 3))
        curve = acc_egy(t)
        assert (np.diff(curve.energy_ratio) >= -1e-15).all()
        assert curve.energy_ratio[-1] == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        t = np.random.default_rng(12).standard_normal((5, 5, 3))
        a = acc_egy(t)
        b = acc_egy(7.3 * t)
        assert np.allclose(a.energy_ratio, b.energy_ratio, atol=1e-12)

    @pytest.mark.parametrize("dft", [False, True], ids=["real", "dft"])
    def test_equals_per_slice_svds(self, dft):
        """The batched SVD pools exactly the per-slice singular values."""
        t = np.random.default_rng(13).standard_normal((7, 5, 4))
        if dft:
            t = np.fft.fft(t, axis=2)
        sv = np.concatenate([np.linalg.svd(t[:, :, k], compute_uv=False) for k in range(4)])
        energy = np.sort(sv)[::-1] ** 2
        assert np.array_equal(acc_egy(t).energy_ratio, np.cumsum(energy) / energy.sum())

    @pytest.mark.parametrize("shape", [(7, 5, 1), (7, 5, 2), (6, 8, 5), (6, 8, 6)])
    def test_dft_matches_the_full_spectrum(self, shape):
        """The half spectrum, each slice counted with its conjugate, pools
        the singular values of every DFT slice."""
        t = np.random.default_rng(14).standard_normal(shape)
        full = acc_egy(dft_mode3(t))
        half = acc_egy(t, dft=True)
        assert np.array_equal(half.fractions, full.fractions)
        assert np.allclose(half.energy_ratio, full.energy_ratio, rtol=1e-14, atol=0.0)

    def test_all_zero_warns(self):
        with pytest.warns(RuntimeWarning):
            curve = acc_egy(np.zeros((3, 3, 2)))
        assert np.array_equal(curve.energy_ratio, np.ones(6))

    def test_at_fraction(self):
        curve = AccEgyCurve(np.arange(1, 11) / 10, np.linspace(0.1, 1.0, 10))
        assert curve.at_fraction(0.1) == pytest.approx(0.1)
        assert curve.at_fraction(0.05) == pytest.approx(0.1)
        assert curve.at_fraction(1.0) == pytest.approx(1.0)


class TestTnnBaseline:
    def test_fully_observed_returns_input(self):
        x = np.random.default_rng(13).uniform(0, 1, (6, 6, 4))
        model = degrade(x, "tc", SamplingSpec(sr=1.0, seed=0))
        out = tnn_baseline_complete(model, rho=0.1, iters=30)
        assert np.linalg.norm(out - x) <= 1e-9 * np.linalg.norm(x)

    def test_low_tubal_rank_recovery(self):
        """Half-observed tubal-rank-2 tensor is recovered nearly exactly
        (pilot: 1.9e-4 relative)."""
        truth = synth_low_tubal_rank((20, 20, 8), 2, seed=11)
        model = degrade(truth, "tc", SamplingSpec(sr=0.5, seed=12))
        x = tnn_baseline_complete(model, rho=0.3, iters=300)
        assert np.linalg.norm(x - truth) <= 1e-3 * np.linalg.norm(truth)

    def test_objective_below_zero_fill(self):
        truth = synth_low_tubal_rank((12, 12, 6), 2, seed=14)
        model = degrade(truth, "tc", SamplingSpec(sr=0.5, seed=15))
        x = tnn_baseline_complete(model, rho=0.3, iters=150)
        assert tnn(x) <= tnn(model.measurement)

    def test_rejects_other_kinds(self):
        model = degrade(np.random.default_rng(16).uniform(0, 1, (4, 4, 3)), "bs", SamplingSpec())
        with pytest.raises(ValueError):
            tnn_baseline_complete(model)

    @pytest.mark.parametrize("name, value", [
        ("rho", 0.0), ("rho", -1.0), ("rho", np.nan), ("rho", np.inf), ("iters", -3),
    ])
    def test_rejects_bad_rho_and_iters(self, name, value):
        model = degrade(np.random.default_rng(17).uniform(0, 1, (4, 4, 3)), "tc", SamplingSpec(sr=0.5))
        with pytest.raises(ValueError, match=f"{name} must be"):
            tnn_baseline_complete(model, **{name: value})


class TestTsvt:
    """Slice-wise singular value thresholding from the half spectrum
    against the same thresholding of every full-spectrum slice."""

    @pytest.mark.parametrize("n3", [1, 2, 5, 6])
    @pytest.mark.parametrize("thr", [0.0, 0.7, 1e3])
    def test_matches_full_spectrum(self, n3, thr):
        t = np.random.default_rng(n3).standard_normal((5, 4, n3))
        that = np.fft.fft(t, axis=2)
        out = np.zeros_like(that)
        for k in range(n3):
            u, s, vh = np.linalg.svd(that[:, :, k], full_matrices=False)
            out[:, :, k] = (u * np.maximum(s - thr, 0.0)) @ vh
        expect = np.fft.ifft(out, axis=2)
        assert np.abs(expect.imag).max() < 1e-12
        got = _tsvt(t, thr)
        assert got.shape == t.shape and np.isrealobj(got)
        assert np.allclose(got, expect.real, rtol=0.0, atol=1e-12)
