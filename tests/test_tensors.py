"""Tensor algebra: mode-3 products, norms, prox, differences,
DFT-domain quantities and the t-SVD.  Expected values come from
independent oracles (index loops, naive summation, eigen decompositions,
grid search) computed inside the tests."""

import warnings

import numpy as np
import pytest

from ssnt.tensors import (
    EPS_RANK,
    conj_transpose,
    dft_mode3,
    diff_p,
    diff_p_adj,
    identity_tensor,
    mode3_product,
    nuclear_norm,
    soft_threshold,
    t_product,
    t_svd,
    tnn,
    tubal_rank,
)


def rand(dims, seed):
    return np.random.default_rng(seed).standard_normal(dims)


class TestMode3Product:
    def test_identity(self):
        t = rand((3, 4, 5), 2)
        assert np.allclose(mode3_product(t, np.eye(5)), t)

    def test_constant_tubes(self):
        v = np.array([1.0, -2.0, 0.5])
        a = rand((4, 3), 3)
        t = np.broadcast_to(v, (2, 2, 3)).copy()
        out = mode3_product(t, a)
        for i in range(2):
            for j in range(2):
                assert np.allclose(out[i, j, :], a @ v)

    def test_triple_loop_oracle(self):
        t = rand((2, 2, 3), 4)
        a = rand((4, 3), 5)
        expect = np.zeros((2, 2, 4))
        for i in range(2):
            for j in range(2):
                for r in range(4):
                    expect[i, j, r] = sum(a[r, k] * t[i, j, k] for k in range(3))
        assert np.allclose(mode3_product(t, a), expect, atol=1e-12)

    def test_composition(self):
        t = rand((4, 3, 5), 6)
        a = rand((6, 5), 7)
        b = rand((2, 6), 8)
        lhs = mode3_product(mode3_product(t, a), b)
        rhs = mode3_product(t, b @ a)
        assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mode3_product(rand((2, 2, 3), 0), rand((3, 4), 0))


class TestNorms:
    def test_diagonal_nuclear(self):
        assert nuclear_norm(np.diag([3.0, 2.0])) == pytest.approx(5.0)

    def test_zero(self):
        z = np.zeros((4, 3, 2))
        assert nuclear_norm(np.zeros((3, 3))) == 0.0
        assert np.linalg.norm(z) == 0.0
        assert np.abs(z).sum() == 0.0

    def test_nuclear_eigen_oracle(self):
        """trace(sqrt(M^T M)) via an eigen decomposition."""
        m = rand((5, 4), 9)
        evals = np.linalg.eigvalsh(m.T @ m)
        expect = np.sqrt(np.clip(evals, 0.0, None)).sum()
        assert nuclear_norm(m) == pytest.approx(expect, rel=1e-10)

    def test_nuclear_orthogonal_invariance(self):
        m = rand((5, 4), 10)
        q, _ = np.linalg.qr(rand((5, 5), 11))
        assert nuclear_norm(q @ m) == pytest.approx(nuclear_norm(m), rel=1e-9)


class TestSoftThreshold:
    def test_closed_forms(self):
        assert soft_threshold(np.array(1.2), 0.5) == pytest.approx(0.7)
        assert soft_threshold(np.array(-0.3), 0.5) == 0.0

    def test_zero_threshold_is_identity(self):
        t = rand((3, 3, 3), 12)
        assert np.array_equal(soft_threshold(t, 0.0), t)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros(3), -0.1)

    def test_prox_grid_oracle(self):
        """Soft thresholding minimizes v*|z| + 0.5*(z - x)^2 per entry."""
        grid = np.linspace(-3, 3, 60001)
        for x in (-1.7, -0.2, 0.0, 0.4, 2.3):
            for v in (0.0, 0.3, 1.1):
                objective = v * np.abs(grid) + 0.5 * (grid - x) ** 2
                zstar = grid[np.argmin(objective)]
                assert soft_threshold(np.array(x), v) == pytest.approx(zstar, abs=2e-4)

    def test_nonexpansive(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.standard_normal((4, 4, 3))
            y = rng.standard_normal((4, 4, 3))
            v = rng.uniform(0, 2)
            d_out = np.linalg.norm(soft_threshold(x, v) - soft_threshold(y, v))
            assert d_out <= np.linalg.norm(x - y) + 1e-12


class TestDifferences:
    def test_constant_tensor(self):
        t = np.full((4, 5, 3), 2.5)
        assert np.array_equal(diff_p(t, 1), np.zeros_like(t))
        assert np.array_equal(diff_p(t, 2), np.zeros_like(t))

    def test_linear_ramp(self):
        c = 0.7
        ramp = c * np.arange(5)[:, None, None] * np.ones((1, 4, 2))
        d = diff_p(ramp, 1)
        assert np.allclose(d[:-1], c)
        assert np.array_equal(d[-1], np.zeros((4, 2)))

    @pytest.mark.parametrize("p", [1, 2])
    def test_adjoint_identity(self, p):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = rng.standard_normal((4, 5, 3))
            y = rng.standard_normal((4, 5, 3))
            lhs = np.vdot(diff_p(x, p), y)
            rhs = np.vdot(x, diff_p_adj(y, p))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            diff_p(np.zeros((2, 2, 2)), 3)


class TestDftAndTnn:
    def test_constant_slices(self):
        a = rand((4, 3), 15)
        t = np.dstack([a] * 5)
        assert tnn(t) == pytest.approx(5 * nuclear_norm(a), rel=1e-10)

    def test_zero(self):
        assert tnn(np.zeros((3, 3, 4))) == 0.0

    def test_naive_dft_oracle(self):
        """Per-tube O(n3^2) DFT summation."""
        t = rand((4, 4, 3), 16)
        n1, n2, n3 = t.shape
        that = np.zeros((n1, n2, n3), dtype=complex)
        for i in range(n1):
            for j in range(n2):
                for r in range(n3):
                    that[i, j, r] = sum(
                        t[i, j, k] * np.exp(-2j * np.pi * r * k / n3) for k in range(n3)
                    )
        assert np.allclose(dft_mode3(t), that, atol=1e-10)
        expect = sum(nuclear_norm(that[:, :, k]) for k in range(n3))
        assert tnn(t) == pytest.approx(expect, rel=1e-10)

    def test_tnn_via_explicit_dft_matrix(self):
        t = rand((5, 4, 6), 17)
        n3 = t.shape[2]
        f = np.exp(-2j * np.pi * np.outer(np.arange(n3), np.arange(n3)) / n3)
        transformed = mode3_product(t.astype(complex), f)
        expect = sum(nuclear_norm(transformed[:, :, k]) for k in range(n3))
        assert tnn(t) == pytest.approx(expect, rel=1e-9)

    def test_inverse_dft_imaginary_residual(self):
        t = rand((4, 5, 6), 18)
        back = np.fft.ifft(dft_mode3(t), axis=2)
        assert np.linalg.norm(back.imag) <= 1e-10 * np.linalg.norm(t)
        assert np.allclose(back.real, t)


class TestTProductFamily:
    def test_identity_tensor(self):
        a = rand((3, 4, 5), 19)
        ident = identity_tensor(3, 5)
        assert np.allclose(t_product(ident, a), a, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            t_product(rand((3, 4, 5), 0), rand((3, 4, 5), 0))

    def test_conj_transpose_definition(self):
        a = rand((3, 4, 5), 20)
        ah = conj_transpose(a)
        assert np.array_equal(ah[:, :, 0], a[:, :, 0].T)
        for i in range(1, 5):
            assert np.array_equal(ah[:, :, i], a[:, :, 5 - i].T)

    def test_conj_transpose_of_product(self):
        a = rand((3, 4, 5), 21)
        b = rand((4, 2, 5), 22)
        lhs = conj_transpose(t_product(a, b))
        rhs = t_product(conj_transpose(b), conj_transpose(a))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_tsvd_reconstruction_and_orthogonality(self):
        a = rand((6, 5, 4), 23)
        u, s, v = t_svd(a)
        rec = t_product(t_product(u, s), conj_transpose(v))
        assert np.linalg.norm(rec - a) <= 1e-9 * np.linalg.norm(a)
        eye_u = identity_tensor(6, 4)
        eye_v = identity_tensor(5, 4)
        assert np.linalg.norm(t_product(u, conj_transpose(u)) - eye_u) <= 1e-9
        assert np.linalg.norm(t_product(v, conj_transpose(v)) - eye_v) <= 1e-9

    def test_tsvd_fdiagonal_in_dft_domain(self):
        a = rand((5, 4, 3), 24)
        _, s, _ = t_svd(a)
        shat = dft_mode3(s)
        r = np.arange(4)
        for k in range(3):
            slab = shat[:, :, k].copy()
            slab[r, r] = 0.0
            assert np.abs(slab).max() < 1e-9

    def test_rank_one_dc_construction(self):
        rng = np.random.default_rng(25)
        u = np.dstack([rng.standard_normal((4, 1))] * 6)
        v = np.dstack([rng.standard_normal((3, 1))] * 6)
        a = t_product(u, conj_transpose(v))
        assert tubal_rank(a) == 1

    def test_tubal_rank_of_zero(self):
        assert tubal_rank(np.zeros((3, 3, 2))) == 0

    @pytest.mark.parametrize("n3", [1, 5, 6])
    @pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
    def test_tubal_rank_equals_the_factor_count(self, rank, n3):
        """The half-spectrum count equals counting the tube norms of the
        t-SVD factor S, on tensors of exact tubal rank 0-4."""
        a = t_product(rand((7, rank, n3), 30 + rank), rand((rank, 6, n3), 40 + n3))
        _, s, _ = t_svd(a)
        norms = np.array([np.linalg.norm(s[i, i, :]) for i in range(min(s.shape[:2]))])
        expected = int(np.count_nonzero(norms > EPS_RANK * norms.max()))
        assert tubal_rank(a) == expected == rank

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_tubal_rank_is_scale_safe(self, scale):
        """Squaring the singular values of a huge or tiny tensor would
        overflow or underflow; the rank must not depend on the scale."""
        a = scale * t_product(np.ones((4, 1, 3)), np.ones((1, 4, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tubal_rank(a) == 1


class TestHalfSpectrum:
    """t_svd and tnn decompose DFT slices 0..n3//2 only; checked against
    per-slice SVDs of the full mode-3 spectrum."""

    @pytest.mark.parametrize("n3", [1, 2, 5, 6])
    def test_tnn_matches_full_spectrum(self, n3):
        t = rand((5, 4, n3), 30 + n3)
        that = np.fft.fft(t, axis=2)
        expect = sum(np.linalg.svd(that[:, :, k], compute_uv=False).sum() for k in range(n3))
        assert tnn(t) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("n3", [5, 6])
    def test_tnn_decomposes_half_the_slices(self, n3, monkeypatch):
        seen = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            seen.append(a.shape[:-2])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        tnn(rand((4, 3, n3), 40))
        assert seen == [(n3 // 2 + 1,)]

    @pytest.mark.parametrize("n3", [1, 2, 5, 6])
    def test_tsvd_factors_every_dft_slice(self, n3):
        a = rand((5, 4, n3), 50 + n3)
        u, s, v = t_svd(a)
        assert u.shape == (5, 5, n3) and s.shape == (5, 4, n3) and v.shape == (4, 4, n3)
        ahat, uhat, shat, vhat = (np.fft.fft(f, axis=2) for f in (a, u, s, v))
        for k in range(n3):
            sv = np.linalg.svd(ahat[:, :, k], compute_uv=False)
            assert np.allclose(np.diag(shat[:, :, k]), sv, atol=1e-12)
            rebuilt = uhat[:, :, k] @ shat[:, :, k] @ vhat[:, :, k].conj().T
            assert np.allclose(rebuilt, ahat[:, :, k], atol=1e-12)
