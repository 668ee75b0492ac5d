"""Observation models: mask sampling, degradation simulators, fidelity
terms and gradients, assembly rules and initializers."""

import numpy as np
import pytest

from ssnt.problems import (
    ObservationModel,
    SamplingSpec,
    assemble,
    degrade,
    fidelity,
    init_observation,
    interpolate_tubes,
    sample_mask,
    sci_measure,
    synth_low_tubal_rank,
    tv_backprojection_init,
)
from ssnt.tensors import tubal_rank


def interpolate_per_tube(obs, mask):
    """``interpolate_tubes`` by definition: ``np.interp`` on each tube."""
    out = obs.copy()
    fallback = float(obs.sum() / mask.sum()) if mask.sum() > 0 else 0.0
    grid = np.arange(obs.shape[2])
    for i in range(obs.shape[0]):
        for j in range(obs.shape[1]):
            seen = mask[i, j, :] == 1.0
            if not seen.any():
                out[i, j, :] = fallback
            else:
                out[i, j, :] = np.interp(grid, grid[seen], obs[i, j, seen])
    return out


class TestSampleMask:
    def test_full_rate(self):
        assert np.array_equal(sample_mask((3, 4, 5), 1.0), np.ones((3, 4, 5)))

    def test_exact_count(self):
        m = sample_mask((10, 10, 10), 0.1, seed=3)
        assert m.sum() == 100
        assert np.isin(m, (0.0, 1.0)).all()

    def test_deterministic(self):
        assert np.array_equal(sample_mask((6, 7, 5), 0.3, seed=9), sample_mask((6, 7, 5), 0.3, seed=9))

    def test_rate_range(self):
        with pytest.raises(ValueError):
            sample_mask((2, 2, 2), 0.0)

    def test_per_slice_hypergeometric(self):
        """Mean per-slice count over 200 seeds within 4 sigma of the
        without-replacement expectation."""
        dims, sr = (6, 7, 5), 0.3
        n = 6 * 7 * 5
        draw, slice_size = int(np.floor(sr * n)), 6 * 7
        counts = np.array(
            [sample_mask(dims, sr, seed=s)[:, :, 0].sum() for s in range(200)]
        )
        mean = draw * slice_size / n
        var = draw * (slice_size / n) * (1 - slice_size / n) * (n - draw) / (n - 1)
        assert abs(counts.mean() - mean) < 4.0 * np.sqrt(var / 200)


class TestDegrade:
    def test_tc_full_rate(self):
        x = np.random.default_rng(0).uniform(0, 1, (4, 4, 3))
        model = degrade(x, "tc", SamplingSpec(sr=1.0, seed=1))
        assert np.array_equal(model.measurement, x)

    def test_sci_allones_sum(self):
        x = np.arange(8, dtype=float).reshape(2, 2, 2)
        model = ObservationModel("sci", sci_measure(x, np.ones((2, 2, 2))), np.ones((2, 2, 2)))
        assert np.array_equal(model.measurement, x[:, :, 0] + x[:, :, 1])

    def test_sci_degrade_noiseless(self):
        x = np.random.default_rng(2).uniform(0, 1, (5, 5, 4))
        model = degrade(x, "sci", SamplingSpec(sr=0.5, gauss_sigma=0.0, seed=3))
        assert np.allclose(model.measurement, (model.mask * x).sum(axis=2))

    def test_rtc_corruption_count(self):
        """Exactly floor(noise_sr * |observed set|) entries corrupted,
        counted against entries strictly inside (0, 1)."""
        rng = np.random.default_rng(4)
        x = 0.1 + 0.8 * rng.uniform(0, 1, (8, 8, 6))
        spec = SamplingSpec(sr=0.5, noise_sr=0.1, seed=5)
        model = degrade(x, "rtc", spec)
        clean = sample_mask(x.shape, 0.5, seed=5) * x
        changed = np.count_nonzero(model.measurement != clean)
        budget = int(np.floor(0.1 * clean.astype(bool).sum()))
        assert changed == budget
        assert np.isin(model.measurement[model.measurement != clean], (0.0, 1.0)).all()

    def test_rtc_untouched_outside_mask(self):
        x = np.random.default_rng(6).uniform(0.2, 0.9, (6, 6, 4))
        model = degrade(x, "rtc", SamplingSpec(sr=0.4, noise_sr=0.2, seed=7))
        assert np.array_equal(model.measurement[model.mask == 0.0], np.zeros(np.count_nonzero(model.mask == 0.0)))

    def test_bs_identity(self):
        x = np.random.default_rng(8).uniform(0, 1, (4, 4, 3))
        model = degrade(x, "bs", SamplingSpec())
        assert np.array_equal(model.measurement, x)
        assert model.mask is None

    def test_sci_forward_linearity(self):
        rng = np.random.default_rng(9)
        mask = sample_mask((5, 4, 3), 0.5, seed=10)
        x, y = rng.standard_normal((5, 4, 3)), rng.standard_normal((5, 4, 3))
        lhs = sci_measure(2.0 * x + 3.0 * y, mask)
        assert np.allclose(lhs, 2.0 * sci_measure(x, mask) + 3.0 * sci_measure(y, mask))


class TestFidelity:
    def build(self, kind, seed=0):
        rng = np.random.default_rng(seed)
        x_true = rng.uniform(0.1, 0.9, (4, 4, 3))
        spec = SamplingSpec(sr=0.6, noise_sr=0.1, seed=seed + 1)
        return degrade(x_true, kind, spec)

    @pytest.mark.parametrize("kind", ["tc", "bs", "rtc", "sci"])
    def test_zero_at_consistent_point(self, kind):
        model = self.build(kind)
        if kind == "sci":
            # any tensor whose masked slice-sum reproduces the measurement
            x = np.zeros(model.dims)
            weight = model.mask.sum(axis=2) + (model.mask.sum(axis=2) == 0)
            x += model.mask * (model.measurement / weight)[:, :, None]
            val, grad = fidelity(x, model)
            assert val < 1e-20
        else:
            val, grad = fidelity(model.measurement, model)
            assert val == 0.0
        assert np.allclose(grad, 0.0)

    def test_tc_empty_mask(self):
        model = ObservationModel("tc", np.zeros((3, 3, 2)), np.zeros((3, 3, 2)))
        x = np.random.default_rng(1).standard_normal((3, 3, 2))
        val, grad = fidelity(x, model)
        assert val == 0.0
        assert np.array_equal(grad, np.zeros_like(x))

    @pytest.mark.parametrize("kind", ["tc", "bs", "rtc", "sci"])
    def test_gradient_finite_differences(self, kind):
        """Central differences on every coordinate (l1 kinds are
        evaluated away from their kinks)."""
        rng = np.random.default_rng(11)
        model = self.build(kind, seed=11)
        x = model.measurement + rng.uniform(0.05, 0.4, model.dims) if kind != "sci" else rng.uniform(
            0.05, 0.4, model.dims
        )
        val, grad = fidelity(x, model)
        h = 1e-7
        fd = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            xp = x.copy()
            xp[idx] += h
            xm = x.copy()
            xm[idx] -= h
            fd[idx] = (fidelity(xp, model)[0] - fidelity(xm, model)[0]) / (2 * h)
        scale = max(np.abs(fd).max(), np.abs(grad).max(), 1e-12)
        assert np.abs(fd - grad).max() <= 1e-5 * scale

    def test_values_nonnegative(self):
        for kind in ("tc", "bs", "rtc", "sci"):
            model = self.build(kind, seed=21)
            x = np.random.default_rng(22).uniform(0, 1, model.dims)
            assert fidelity(x, model)[0] >= 0.0

    def test_shape_guard(self):
        model = self.build("tc")
        with pytest.raises(ValueError):
            fidelity(np.zeros((2, 2, 2)), model)


class TestAssemble:
    def test_tc_observed_entries_exact(self):
        model = TestFidelity().build("tc", seed=31)
        raw = np.random.default_rng(32).standard_normal(model.dims)
        out = assemble(raw, model)
        assert np.array_equal(out.x[model.mask == 1.0], model.measurement[model.mask == 1.0])
        assert np.array_equal(out.x[model.mask == 0.0], raw[model.mask == 0.0])

    def test_tc_full_mask_returns_observation(self):
        x = np.random.default_rng(33).uniform(0, 1, (4, 4, 3))
        model = degrade(x, "tc", SamplingSpec(sr=1.0, seed=0))
        raw = np.random.default_rng(34).standard_normal(x.shape)
        assert np.array_equal(assemble(raw, model).x, x)

    def test_bs_additive_split(self):
        model = TestFidelity().build("bs", seed=35)
        raw = np.random.default_rng(36).standard_normal(model.dims)
        out = assemble(raw, model)
        assert np.allclose(out.x + out.sparse, model.measurement)

    def test_rtc_keeps_raw_and_masks_sparse(self):
        model = TestFidelity().build("rtc", seed=37)
        raw = np.random.default_rng(38).standard_normal(model.dims)
        out = assemble(raw, model)
        assert np.array_equal(out.x, raw)
        assert np.array_equal(out.sparse, model.mask * (model.measurement - raw))


class TestInitObservation:
    def test_fully_observed_unchanged(self):
        x = np.random.default_rng(41).uniform(0, 1, (4, 4, 5))
        model = degrade(x, "tc", SamplingSpec(sr=1.0, seed=0))
        assert np.array_equal(init_observation(model), x)

    def test_linear_interpolation_tube(self):
        obs = np.zeros((1, 1, 5))
        mask = np.zeros((1, 1, 5))
        obs[0, 0, 0], obs[0, 0, 4] = 0.0, 4.0
        mask[0, 0, 0] = mask[0, 0, 4] = 1.0
        filled = interpolate_tubes(obs, mask)
        assert np.allclose(filled[0, 0, :], [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_constant_extrapolation_at_ends(self):
        obs = np.zeros((1, 1, 5))
        mask = np.zeros((1, 1, 5))
        obs[0, 0, 2] = 3.0
        mask[0, 0, 2] = 1.0
        assert np.allclose(interpolate_tubes(obs, mask)[0, 0, :], 3.0)

    def test_projection_onto_observed(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 1, (6, 5, 7))
        model = degrade(x, "tc", SamplingSpec(sr=0.4, seed=43))
        filled = init_observation(model)
        assert np.array_equal(filled[model.mask == 1.0], model.measurement[model.mask == 1.0])

    def test_empty_tube_gets_global_mean(self):
        rng = np.random.default_rng(44)
        obs = rng.uniform(0, 1, (2, 2, 3))
        mask = np.ones((2, 2, 3))
        mask[0, 0, :] = 0.0
        obs = obs * mask
        filled = interpolate_tubes(obs, mask)
        mean = obs.sum() / mask.sum()
        assert np.allclose(filled[0, 0, :], mean)

    @pytest.mark.parametrize("sr", [0.02, 0.1, 0.5])
    def test_equals_np_interp_per_tube_bitwise(self, sr):
        x = np.random.default_rng(47).uniform(0, 1, (20, 24, 31))
        model = degrade(x, "tc", SamplingSpec(sr=sr, seed=48))
        filled = interpolate_tubes(model.measurement, model.mask)
        assert filled.tobytes() == interpolate_per_tube(model.measurement, model.mask).tobytes()

    def test_edge_tubes_bitwise(self):
        """Empty, full and single-observed tubes, observations only at the
        ends or side by side, and negative zeros, against np.interp."""
        rows = [
            ("0000000", [0.0] * 7),
            ("1111111", [0.5, -0.0, 2.0, -1.0, 0.25, 3.0, -0.0]),
            ("1000000", [-0.0] + [0.0] * 6),
            ("0001000", [0, 0, 0, 1.5, 0, 0, 0]),
            ("0000001", [0, 0, 0, 0, 0, 0, -2.0]),
            ("1000001", [-0.0, 0, 0, 0, 0, 0, -0.0]),
            ("1000001", [1.0, 0, 0, 0, 0, 0, -1e-300]),
            ("0110110", [0, 0.1, 0.7, 0, 1e300, -1e300, 0]),
        ]
        mask = np.array([[[float(c) for c in bits]] for bits, _ in rows])
        obs = np.array([[values] for _, values in rows]) * mask  # -0.0 * 1.0 stays -0.0
        filled = interpolate_tubes(obs, mask)
        assert filled.tobytes() == interpolate_per_tube(obs, mask).tobytes()
        assert np.signbit(filled[2, 0, :]).all()  # constant from a lone -0.0
        assert np.signbit(filled[5, 0, [0, 6]]).all() and not np.signbit(filled[5, 0, 1:6]).any()
        assert filled.flags.c_contiguous and filled is not obs

    def test_bs_is_observation(self):
        model = degrade(np.random.default_rng(45).uniform(0, 1, (3, 3, 4)), "bs", SamplingSpec())
        assert np.array_equal(init_observation(model), model.measurement)


class TestSciInit:
    def test_single_slice_recovery(self):
        """All-ones mask, one slice: back-projection converges to the
        slice (pilot: error ~1e-13 by 50 steps; bound 1e-8)."""
        rng = np.random.default_rng(46)
        truth = rng.uniform(0, 1, (12, 12, 1))
        mask = np.ones((12, 12, 1))
        model = ObservationModel("sci", sci_measure(truth, mask), mask)
        x = tv_backprojection_init(model, steps=50)
        assert np.abs(x - truth).max() < 1e-8

    def test_zero_measurement(self):
        mask = np.ones((4, 4, 3))
        model = ObservationModel("sci", np.zeros((4, 4)), mask)
        assert np.array_equal(tv_backprojection_init(model, steps=10), np.zeros((4, 4, 3)))

    def test_residual_nonincreasing(self):
        truth = np.abs(synth_low_tubal_rank((16, 16, 4), 2, seed=3))
        mask = sample_mask((16, 16, 4), 0.5, seed=4)
        model = ObservationModel("sci", sci_measure(truth, mask), mask)
        prev = np.inf
        for steps in range(1, 30):
            x = tv_backprojection_init(model, steps=steps)
            r = np.linalg.norm(sci_measure(x, mask) - model.measurement)
            assert r <= prev + 1e-12
            prev = r

    def test_deterministic(self):
        truth = np.abs(synth_low_tubal_rank((8, 8, 3), 2, seed=5))
        mask = sample_mask((8, 8, 3), 0.5, seed=6)
        model = ObservationModel("sci", sci_measure(truth, mask), mask)
        assert np.array_equal(
            tv_backprojection_init(model, steps=20), tv_backprojection_init(model, steps=20)
        )


class TestSynth:
    def test_deterministic(self):
        a = synth_low_tubal_rank((6, 5, 4), 2, seed=1)
        b = synth_low_tubal_rank((6, 5, 4), 2, seed=1)
        assert np.array_equal(a, b)

    def test_tubal_rank_bound(self):
        x = synth_low_tubal_rank((10, 9, 6), 3, seed=2)
        assert tubal_rank(x) <= 3

    def test_unit_peak(self):
        x = synth_low_tubal_rank((7, 7, 5), 2, seed=3)
        assert np.abs(x).max() == pytest.approx(1.0)


class TestObservationModelValidation:
    def test_mask_required(self):
        with pytest.raises(ValueError):
            ObservationModel("tc", np.zeros((2, 2, 2)))

    def test_bs_rejects_mask(self):
        with pytest.raises(ValueError):
            ObservationModel("bs", np.zeros((2, 2, 2)), np.ones((2, 2, 2)))

    def test_mask_binary(self):
        with pytest.raises(ValueError):
            ObservationModel("tc", np.zeros((2, 2, 2)), 0.5 * np.ones((2, 2, 2)))

    def test_sci_measurement_shape(self):
        with pytest.raises(ValueError):
            ObservationModel("sci", np.zeros((2, 3)), np.ones((2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["tc", "bs", "rtc", "sci"])
    def test_nonfinite_measurement(self, kind, bad):
        meas = np.zeros((3, 3) if kind == "sci" else (3, 3, 2))
        meas[1, 2] = bad
        mask = None if kind == "bs" else np.ones((3, 3, 2))
        with pytest.raises(ValueError, match="measurement holds non-finite"):
            ObservationModel(kind, meas, mask)
