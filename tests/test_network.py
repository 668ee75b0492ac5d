"""Transform network: initialization, forward maps, the nuclear-norm
subgradient and full reverse-mode gradients, all checked against finite
differences or layer-by-layer oracles."""

import os
import sys
import threading
import time
from collections.abc import Mapping
from dataclasses import replace

import numpy as np
import pytest

from ssnt import network
from ssnt.network import (
    Activation,
    Layer,
    NetworkParams,
    forward_f,
    forward_g,
    init_weights,
    loss_and_grad,
    nuclear_subgrad,
    reconstruct,
)
from ssnt.problems import ObservationModel, SamplingSpec, degrade
from ssnt.solvers import AdmmState, SolverConfig
from ssnt.tensors import EPS_RANK, mode3_product, nuclear_norm

LEAKY = Activation("leaky_relu", 0.01)
IDENT = Activation("identity")


def activate(act, z):
    """``act(z)`` by the in-place kernel on a fresh float64 copy of ``z``."""
    return act.apply_in_place(np.array(z, dtype=np.float64))


def small_net(n3, width, p=2, q=2, act=LEAKY, seed=0):
    cfg = SolverConfig(width=width, p=p, q=q, activation=act.kind, slope=act.slope, seed=seed)
    return init_weights(n3, cfg)


class TestActivation:
    def test_leaky_slope_range(self):
        with pytest.raises(ValueError):
            Activation("leaky_relu", 1.5)
        with pytest.raises(ValueError):
            Activation("nope")

    def test_apply(self):
        z = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(activate(LEAKY, z), [-0.02, 0.0, 3.0])
        assert np.allclose(activate(Activation("relu"), z), [0.0, 0.0, 3.0])
        assert np.array_equal(activate(IDENT, z), z)
        assert np.array_equal(z, [-2.0, 0.0, 3.0])

    @pytest.mark.parametrize("act", [IDENT, Activation("relu"), LEAKY, Activation("leaky_relu", 0.5)],
                             ids=["identity", "relu", "leaky", "leaky-half"])
    def test_backprop_from_output_equals_backprop_from_input(self, act):
        """The derivative read off the output gives the bytes of the one
        read off the pre-activation, signed zeros, subnormals and extremes
        included."""
        tiny = np.finfo(float).smallest_subnormal
        z = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310, -1e-310,
                      1e300, -1e300, 1.0, -1.0, 2.5, -2.5])
        g = np.linspace(-3.0, 4.0, z.size)
        from_out = act.backprop_in_place(activate(act, z), g.copy())
        assert from_out.tobytes() == act.backprop_in_place(z, g.copy()).tobytes()

    def test_relu_derivative_is_written_in_place_with_the_bytes_of_where(self):
        """The cotangent itself is returned, holding ``g`` where the output
        is positive and ``0.0 * g`` (a signed zero) elsewhere."""
        tiny = np.finfo(float).smallest_subnormal
        z = np.array([0.0, -0.0, tiny, -tiny, 1e300, -1e300, 1.0, -1.0, 2.5, -2.5])
        g = np.array([-1.0, 2.0, -tiny, tiny, -3.0, -1e300, 1e-300, -0.0, -2.0, 5.0])
        out = activate(Activation("relu"), z)
        g_own = g.copy()
        assert Activation("relu").backprop_in_place(out, g_own) is g_own
        assert g_own.tobytes() == np.where(out > 0, g, 0.0 * g).tobytes()
        assert g_own.tobytes() == (g * (out > 0.0)).tobytes()

    def test_kernels_match_where_for_random_slopes(self):
        """The in-place forward and the factor backward give the bytes of
        ``where(z > 0, z, s * z)`` and ``where(out > 0, g, s * g)`` for
        any slope in (0, 1), tiny and near-1 ones included."""
        rng = np.random.default_rng(9)
        tiny = np.finfo(float).smallest_subnormal
        slopes = np.concatenate([rng.uniform(0.0, 1.0, 200), 10.0 ** rng.uniform(-300, -1, 50),
                                 1.0 - 10.0 ** rng.uniform(-16, -1, 50), [tiny, 0.5, np.nextafter(1.0, 0.0)]])
        z = np.concatenate([rng.standard_normal(64), [0.0, -0.0, tiny, -tiny, 1e300, -1e300]])
        g = np.concatenate([rng.standard_normal(64) * 1e3, [-0.0, 0.0, tiny, -tiny, 1e-300, -1e300]])
        for s in slopes[(slopes > 0.0) & (slopes < 1.0)].tolist():
            act = Activation("leaky_relu", s)
            assert (1.0 - s) + s == 1.0
            out = act.apply_in_place(z.copy())
            assert out.tobytes() == np.where(z > 0, z, s * z).tobytes()
            assert act.backprop_in_place(out, g.copy()).tobytes() == np.where(out > 0, g, s * g).tobytes()


class TestInitWeights:
    def test_deterministic(self):
        a = small_net(3, 6, seed=7)
        b = small_net(3, 6, seed=7)
        for wa, wb in zip(a.weights(), b.weights()):
            assert np.array_equal(wa, wb)

    def test_bound(self):
        params = small_net(3, 6, p=1, q=1, seed=1)
        bound = np.sqrt(6.0 / 9.0)
        for w in params.weights():
            assert (np.abs(w) <= bound).all()

    def test_mean_monte_carlo(self):
        """Uniform(+-a) over 1e4 draws: |mean| within 3 standard errors."""
        w = small_net(100, 100, p=1, q=1, act=IDENT, seed=2).f_layers[0].weight
        a = np.sqrt(6.0 / 200.0)
        se = a / np.sqrt(3.0 * w.size)
        assert abs(w.mean()) < 3.0 * se

    def test_zero_third_mode_length_is_rejected(self):
        with pytest.raises(ValueError, match="third-mode length"):
            init_weights(0, SolverConfig())


class TestForward:
    def test_nofc3_identity(self):
        t = np.random.default_rng(0).standard_normal((3, 4, 5))
        assert np.array_equal(activate(IDENT, mode3_product(t, np.eye(5))), t)

    def test_nofc3_leaky_closed_form(self):
        t = -np.ones((1, 1, 2))
        out = activate(LEAKY, mode3_product(t, np.eye(2)))
        assert np.allclose(out, -0.01)

    def test_nofc3_loop_oracle(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((5, 4))
        z = mode3_product(t, w)
        expect = np.where(z > 0, z, 0.01 * z)
        assert np.allclose(activate(LEAKY, mode3_product(t, w)), expect)

    def test_single_identity_layer(self):
        t = np.random.default_rng(2).standard_normal((3, 3, 4))
        params = NetworkParams([Layer(np.eye(4), IDENT)], [])
        out, _ = forward_f(t, params)
        assert np.array_equal(out, t)

    def test_linear_collapse(self):
        """All-identity activations compose into one mode-3 product."""
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 3, 5))
        ws = [rng.standard_normal((6, 5)), rng.standard_normal((7, 6))]
        params = NetworkParams([Layer(w, IDENT) for w in ws], [])
        out, _ = forward_f(t, params)
        assert np.allclose(out, mode3_product(t, ws[1] @ ws[0]), rtol=1e-10)

    def test_three_layer_sequential_oracle(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 4, 5))
        ws = [rng.standard_normal(s) for s in ((6, 5), (6, 6), (4, 6))]
        params = NetworkParams([Layer(w, LEAKY) for w in ws], [])
        out, _ = forward_f(t, params)
        x = t
        for w in ws:
            x = activate(LEAKY, mode3_product(x, w))
        assert np.allclose(out, x)

    def test_scale_covariance(self):
        """Positively homogeneous activations commute with c > 0."""
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 3, 4))
        for act in (LEAKY, Activation("relu"), IDENT):
            params = small_net(4, 8, act=act, seed=6)
            a, _ = forward_f(3.7 * t, params)
            b, _ = forward_f(t, params)
            assert np.allclose(a, 3.7 * b, rtol=1e-12)

    def test_shape_guard(self):
        params = small_net(4, 8)
        with pytest.raises(ValueError):
            forward_f(np.zeros((2, 2, 5)), params)


class TestNuclearSubgrad:
    def test_identity(self):
        sub, norm = nuclear_subgrad(np.eye(3))
        assert np.allclose(sub, np.eye(3))
        assert norm == pytest.approx(3.0)

    def test_zero(self):
        sub, norm = nuclear_subgrad(np.zeros((3, 4)))
        assert np.array_equal(sub, np.zeros((3, 4))) and norm == 0.0

    @pytest.mark.parametrize("shape", [(0, 3, 4), (2, 0, 3, 4)])
    def test_empty_stack(self, shape):
        sub, norms = nuclear_subgrad(np.zeros(shape))
        assert sub.shape == shape and norms.shape == shape[:-2]
        assert sub.size == norms.size == 0

    def test_directional_derivative(self):
        """Central differences of the nuclear norm along random
        directions at full-rank points with separated singular values."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            sv = np.sort(rng.uniform(0.5, 3.0, 4))[::-1]
            m = u[:, :4] @ np.diag(sv) @ v.T
            h = rng.standard_normal(m.shape)
            eps = 1e-6
            fd = (nuclear_norm(m + eps * h) - nuclear_norm(m - eps * h)) / (2 * eps)
            analytic = np.vdot(nuclear_subgrad(m)[0], h)
            assert fd == pytest.approx(analytic, rel=1e-5)


def tc_setup(dims, width, p=2, q=2, act=LEAKY, seed=0, lam=0.05, sr=0.6):
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0, 1, dims)
    model = degrade(truth, "tc", SamplingSpec(sr=sr, seed=seed + 1))
    obs = model.measurement + 0.05 * rng.standard_normal(dims)
    params = small_net(dims[2], width, p, q, act, seed=seed + 2)
    cfg = SolverConfig(lam=lam, width=width, p=p, q=q, seed=seed)
    return obs, params, model, cfg


class TestLossAndGrad:
    def test_identity_net_fully_observed_is_flat(self):
        """g(f) = identity on fully observed data sits at the quadratic
        minimum: zero loss, zero gradients."""
        rng = np.random.default_rng(8)
        data = rng.uniform(0, 1, (4, 4, 3))
        model = degrade(data, "tc", SamplingSpec(sr=1.0, seed=0))
        params = NetworkParams([Layer(np.eye(3), IDENT)], [Layer(np.eye(3), IDENT)])
        cfg = SolverConfig(lam=0.0, width=3, p=1, q=1, activation="identity")
        loss, grads = loss_and_grad(data, params, model, cfg)
        assert loss.total == 0.0
        for g in grads:
            assert np.array_equal(g, np.zeros_like(g))

    def test_quadratic_gradient_analytic(self):
        """With identity g and lam = 0 the fidelity cotangent 2(x - obs)
        pulls back to the analytic weight gradient."""
        rng = np.random.default_rng(9)
        data = rng.uniform(0, 1, (4, 4, 3))
        model = degrade(data, "tc", SamplingSpec(sr=1.0, seed=0))
        obs = data + 0.3 * rng.standard_normal(data.shape)
        w = rng.standard_normal((3, 3))
        params = NetworkParams([Layer(w, IDENT)], [Layer(np.eye(3), IDENT)])
        cfg = SolverConfig(lam=0.0, width=3, p=1, q=1, activation="identity")
        loss, grads = loss_and_grad(obs, params, model, cfg)
        x = mode3_product(obs, w)
        r = 2.0 * (x - data)

        def unfold(t):
            return np.moveaxis(t, 2, 0).reshape(t.shape[2], -1)

        expect_f = unfold(r) @ unfold(obs).T
        expect_g = unfold(r) @ unfold(x).T
        assert loss.l2_fidelity == pytest.approx(np.vdot(x - data, x - data))
        assert np.allclose(grads[0], expect_f)
        assert np.allclose(grads[1], expect_g)

    def test_zero_weights_relu(self):
        obs, params, model, cfg = tc_setup((4, 5, 6), 8, act=Activation("relu"))
        params = params.with_weights([np.zeros_like(w) for w in params.weights()])
        loss, _ = loss_and_grad(obs, params, model, cfg)
        assert loss.l1_lowrank == 0.0
        y, _ = forward_f(obs, params)
        assert np.array_equal(y, np.zeros_like(y))

    def test_finite_difference_sweep(self):
        """Every weight gradient on a 4x5x6 p=q=2 instance matches
        central differences."""
        obs, params, model, cfg = tc_setup((4, 5, 6), 8, seed=11)
        loss, grads = loss_and_grad(obs, params, model, cfg)
        h = 1e-6
        ws = params.weights()
        for wi, w in enumerate(ws):
            fd = np.zeros_like(w)
            for idx in np.ndindex(*w.shape):
                plus = [v.copy() for v in ws]
                plus[wi][idx] += h
                minus = [v.copy() for v in ws]
                minus[wi][idx] -= h
                lp, _ = loss_and_grad(obs, params.with_weights(plus), model, cfg)
                lm, _ = loss_and_grad(obs, params.with_weights(minus), model, cfg)
                fd[idx] = (lp.total - lm.total) / (2 * h)
            scale = max(np.abs(fd).max(), np.abs(grads[wi]).max())
            assert np.abs(fd - grads[wi]).max() <= 1e-5 * scale

    def test_lowrank_term_nonnegative_and_zero_iff(self):
        obs, params, model, cfg = tc_setup((4, 4, 4), 6, seed=12, lam=0.3)
        loss, _ = loss_and_grad(obs, params, model, cfg)
        assert loss.l1_lowrank > 0.0
        zeroed = params.with_weights([np.zeros_like(w) for w in params.weights()])
        loss0, _ = loss_and_grad(obs, zeroed, model, cfg)
        assert loss0.l1_lowrank == 0.0

    def test_deterministic(self):
        obs, params, model, cfg = tc_setup((4, 5, 6), 8, seed=13)
        a = loss_and_grad(obs, params, model, cfg)
        b = loss_and_grad(obs, params, model, cfg)
        assert a[0].total == b[0].total
        for ga, gb in zip(a[1], b[1]):
            assert np.array_equal(ga, gb)

    def test_nonfinite_loss_aborts(self):
        """A finite reconstruction whose fidelity overflows fails at the
        loss check, after the network's output check has passed."""
        obs, params, model, cfg = tc_setup((3, 3, 3), 4, seed=14)
        model = ObservationModel("tc", 1e200 * model.mask, model.mask)  # finite; its square is not
        assert np.isfinite(reconstruct(obs, params)).all()
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite loss"):
            loss_and_grad(obs, params, model, cfg)

    @staticmethod
    def overflowing(f_scale, g_scale):
        """A p=q=2 leaky net whose f and g weights are scaled as given;
        a scale of 1e200 overflows that stack's output."""
        obs, params, _, _ = tc_setup((3, 4, 5), 6, seed=17)
        weights = params.weights()
        scales = [f_scale] * len(params.f_layers) + [g_scale] * len(params.g_layers)
        return obs, params.with_weights([c * w for c, w in zip(scales, weights)])

    @pytest.mark.parametrize("run, f_scale, g_scale", [
        ("forward_f", 1e200, 1.0),
        ("forward_g", 1.0, 1e200),
        ("reconstruct", 1e200, 1.0),
        ("reconstruct", 1.0, 1e200),
    ], ids=["f", "g", "reconstruct-f", "reconstruct-g"])
    def test_overflowing_output_raises(self, run, f_scale, g_scale):
        """Every forward run checks its stack's output, not only the
        training step."""
        obs, params = self.overflowing(f_scale, g_scale)
        call = {"forward_f": lambda: forward_f(obs, params),
                "forward_g": lambda: forward_g(obs[:, :, :1].repeat(6, axis=2), params),
                "reconstruct": lambda: reconstruct(obs, params)}[run]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite network output"):
            call()
        finite = self.overflowing(1.0, 1.0)[1]
        assert np.isfinite(reconstruct(obs, finite)).all()

    def test_reconstruct_matches_forwards(self):
        obs, params, model, cfg = tc_setup((3, 4, 5), 6, seed=15)
        y, _ = forward_f(obs, params)
        x, _ = forward_g(y, params)
        x_r = reconstruct(obs, params)
        assert x.flags.c_contiguous and x_r.flags.c_contiguous
        assert x_r.tobytes() == x.tobytes()

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 3), (3, 1)])
    def test_tape_is_the_input_then_each_layer_output(self, p, q):
        """The tape holds ``len(layers) + 1`` slice-major matrices: the
        stack input, then each layer's output, and no pre-activation."""
        obs, params, _, _ = tc_setup((3, 4, 5), 6, p=p, q=q, seed=16)
        y, tape_f = forward_f(obs, params)
        x, tape_g = forward_g(y, params)
        for t, tape, layers in ((obs, tape_f, params.f_layers), (y, tape_g, params.g_layers)):
            assert len(tape) == len(layers) + 1
            assert tape[0].tobytes() == np.moveaxis(t, 2, 0).tobytes()
            for m_in, m_out, lay in zip(tape, tape[1:], layers):
                assert m_out.flags.c_contiguous and m_out.shape == (lay.weight.shape[0], 12)
                assert m_out.tobytes() == activate(lay.activation, lay.weight @ m_in).tobytes()
        assert np.moveaxis(y, 2, 0).tobytes() == tape_f[-1].tobytes()
        assert x.tobytes() == np.moveaxis(tape_g[-1].reshape(5, 3, 4), 0, 2).tobytes()


class TestLowrankStep:
    """The batched, chunked low-rank step against a per-slice loop."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(21)
        st = rng.standard_normal((9, 7, 6))
        st[2] = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 6))  # rank 2
        st[5] = 0.0
        return st

    def test_signed_zero_and_subnormal_slices_match_slice_loop(self):
        """One truncation rule for every slice: a -0.0 slice and a +0.0
        slice keep no singular vector and give +0.0 bytes, and subnormal
        slices of full rank and of rank 1 keep theirs, bitwise as the
        per-slice loop."""
        tiny = np.finfo(float).smallest_subnormal
        rng = np.random.default_rng(31)
        st = rng.standard_normal((7, 6, 5))
        st[1] = -0.0
        st[2] = tiny * rng.integers(-1000, 1000, (6, 5))
        st[3] = tiny * np.outer(rng.integers(1, 9, 6), rng.integers(1, 9, 5))
        st[4] = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        st[5] = 0.0
        sub, norms = np.empty_like(st), np.zeros(len(st))
        network._subgrad_chunk(st, sub, norms, 0, len(st))
        ranks = []
        for k in range(len(st)):
            u, s, vh = np.linalg.svd(st[k], full_matrices=False)
            keep = s > EPS_RANK * s[0]
            expect = np.zeros_like(st[k]) if s[0] <= 0.0 else u[:, keep] @ vh[keep, :]
            assert sub[k].tobytes() == expect.tobytes()
            assert norms[k] == s.sum()
            ranks.append(int(keep.sum()))
        assert ranks == [5, 0, 5, 1, 2, 0, 5]
        assert sub[1].tobytes() == sub[5].tobytes() == np.zeros((6, 5)).tobytes()

    def test_norms_match_slice_loop_bitwise(self):
        st = self.stack()
        _, norms = nuclear_subgrad(st)
        assert norms.shape == (9,)
        for k in range(len(st)):
            assert norms[k] == np.linalg.svd(st[k], full_matrices=False)[1].sum()

    def test_subgrad_matches_slice_loop(self):
        """Truncation at EPS_RANK * sigma_max per slice, including a
        rank-deficient and an all-zero slice."""
        st = self.stack()
        sub, _ = nuclear_subgrad(st)
        for k in range(len(st)):
            u, s, vh = np.linalg.svd(st[k], full_matrices=False)
            keep = s > EPS_RANK * s[0]
            expect = np.zeros_like(st[k]) if s[0] <= 0.0 else u[:, keep] @ vh[keep, :]
            assert np.array_equal(sub[k], expect)
            assert np.array_equal(nuclear_subgrad(st[k])[0], expect)
        assert np.linalg.matrix_rank(sub[2]) == 2
        assert not sub[5].any()

    def test_loss_lowrank_matches_slice_loop_bitwise(self):
        obs, params, model, cfg = tc_setup((6, 5, 4), 9, seed=21)
        loss, _ = loss_and_grad(obs, params, model, cfg)
        y, _ = forward_f(obs, params)
        expect = 0.0
        for k in range(y.shape[2]):
            expect += cfg.lam * float(np.linalg.svd(y[:, :, k], full_matrices=False)[1].sum())
        assert loss.l1_lowrank == expect

    def test_chunks_and_workers_do_not_change_results(self, monkeypatch):
        """Chunks write disjoint parts of shared buffers; more workers than
        cores and a short switch interval must not lose or mix a write."""
        st = np.random.default_rng(22).standard_normal((13, 40, 30))
        st[4] = 0.0
        monkeypatch.setattr(network, "_BLOCK_MATRICES", 1)
        monkeypatch.setattr(network, "_BLOCK_WORK", 1)
        monkeypatch.setattr(network, "_WORKERS", 1)
        sub1, norms1 = network._lowrank_chunks(st)()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 8):
                monkeypatch.setattr(network, "_WORKERS", workers)
                sub, norms = network._lowrank_chunks(st)()
                assert sub.tobytes() == sub1.tobytes()
                assert norms.tobytes() == norms1.tobytes()
        finally:
            sys.setswitchinterval(interval)
        whole, norms = nuclear_subgrad(st)
        assert whole.tobytes() == sub1.tobytes() and norms.tobytes() == norms1.tobytes()

    def test_loss_and_grad_same_on_one_or_two_workers(self, monkeypatch):
        obs, params, model, cfg = tc_setup((20, 18, 5), 10, seed=23)
        monkeypatch.setattr(network, "_BLOCK_MATRICES", 2)
        monkeypatch.setattr(network, "_BLOCK_WORK", 1)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(network, "_WORKERS", workers)
            runs.append(loss_and_grad(obs, params, model, cfg))
        (loss1, grads1), (loss2, grads2) = runs
        assert loss1 == loss2
        assert [g.tobytes() for g in grads1] == [g.tobytes() for g in grads2]

    @staticmethod
    def overlap_setup(case):
        obs, params, model, cfg = tc_setup((20, 18, 5), 10, seed=24, lam=0.0 if case == "lam0" else 0.05)
        admm = None
        if case == "admm":
            rng = np.random.default_rng(25)
            admm = AdmmState(*(rng.standard_normal(obs.shape) for _ in range(4)))
            cfg = replace(cfg, tau=0.1, beta=2.0)
        return obs, params, model, cfg, admm

    @pytest.mark.parametrize("case", ["tc", "lam0", "admm"])
    def test_overlapped_step_same_on_any_worker_count(self, monkeypatch, case):
        """The chunks run while g's passes do; with more workers than
        cores and a short switch interval the loss and every gradient
        keep their bytes."""
        obs, params, model, cfg, admm = self.overlap_setup(case)
        monkeypatch.setattr(network, "_BLOCK_MATRICES", 1)
        monkeypatch.setattr(network, "_BLOCK_WORK", 1)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 8):
                monkeypatch.setattr(network, "_WORKERS", workers)
                loss, grads = loss_and_grad(obs, params, model, cfg, admm)
                runs.append((loss, [g.tobytes() for g in grads]))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]
        assert (runs[0][0].l1_lowrank == 0.0) == (case == "lam0")
        assert (runs[0][0].tv_penalty > 0.0) == (case == "admm")

    @staticmethod
    def counted_chunks(monkeypatch, workers=2, fail_first=False):
        """Run the low-rank step as 10 slow chunks on ``workers`` threads,
        as one when ``workers`` is 1, and record the thread each chunk
        started on and each chunk finished; with ``fail_first`` the first
        chunk raises at once."""
        log = {"started": [], "finished": []}
        lock = threading.Lock()
        chunk = network._subgrad_chunk

        def slow_chunk(stack, sub, norms, lo, hi):
            with lock:
                log["started"].append(threading.current_thread())
            if fail_first and lo == 0:
                raise RuntimeError("chunk failed")
            time.sleep(0.05)
            chunk(stack, sub, norms, lo, hi)
            with lock:
                log["finished"].append(lo)

        monkeypatch.setattr(network, "_subgrad_chunk", slow_chunk)
        monkeypatch.setattr(network, "_BLOCK_MATRICES", 1)
        monkeypatch.setattr(network, "_BLOCK_WORK", 1)
        monkeypatch.setattr(network, "_WORKERS", workers)
        return log

    def test_one_worker_runs_no_thread(self, monkeypatch):
        obs, params, model, cfg, _ = self.overlap_setup("tc")
        log = self.counted_chunks(monkeypatch, workers=1)
        monkeypatch.setattr(network, "_EXECUTORS", {})
        loss_and_grad(obs, params, model, cfg)
        assert log["started"] == [threading.current_thread()]
        assert log["finished"] == [0] and network._EXECUTORS == {}

    @pytest.mark.parametrize("workers", [2, 8])
    def test_small_calls_start_no_pool(self, monkeypatch, workers):
        """At every shape of criterion 1's gradient check the SVD job,
        like every layer product, is below the work floor: nothing
        reaches the pool, however many threads it has."""
        monkeypatch.setattr(network, "_WORKERS", workers)
        monkeypatch.setattr(network, "_EXECUTORS", {})
        for dims, width in [((3, 4, 3), 6), ((4, 4, 3), 6), ((4, 5, 4), 8), ((5, 4, 4), 8),
                            ((4, 4, 5), 10), ((6, 6, 8), 16)]:
            obs, params, model, cfg = tc_setup(dims, width, seed=35)
            loss, _ = loss_and_grad(obs, params, model, cfg)
            assert loss.l1_lowrank > 0.0
        assert network._EXECUTORS == {}

    @pytest.mark.parametrize("shape, bounds", [
        ((16, 6, 6), [(0, 16)]),
        ((48, 30, 30), [(i, i + 8) for i in range(0, 48, 8)]),
        ((12, 30, 30), [(0, 12)]),  # a 4-matrix tail is below the floor, so nothing splits
        ((62, 128, 128), [(i, i + 8) for i in range(0, 56, 8)] + [(56, 62)]),
    ], ids=["16x6x6", "48x30x30", "12x30x30", "62x128x128"])
    def test_svd_blocks(self, monkeypatch, shape, bounds):
        """The SVD job takes its blocks from _blocks: the same bounds on
        2 and 8 workers, and one block on one."""
        st = np.random.default_rng(36).standard_normal(shape)
        seen = []
        chunk = network._subgrad_chunk

        def logged(stack, sub, norms, lo, hi):
            seen.append((lo, hi))
            chunk(stack, sub, norms, lo, hi)

        monkeypatch.setattr(network, "_subgrad_chunk", logged)
        for workers, expect in ((2, bounds), (8, bounds), (1, [(0, shape[0])])):
            monkeypatch.setattr(network, "_WORKERS", workers)
            seen.clear()
            nuclear_subgrad(st)
            assert sorted(seen) == expect

    def test_one_worker_starts_no_pool_at_paper_scale(self, monkeypatch):
        """At 128x128x31 f's layer products are large enough to split, yet
        with one worker neither they nor the SVD chunks start a pool."""
        obs, params, model, cfg = tc_setup((128, 128, 31), 62, seed=33)
        monkeypatch.setattr(network, "_WORKERS", 1)
        monkeypatch.setattr(network, "_EXECUTORS", {})
        loss_and_grad(obs, params, model, cfg)
        reconstruct(obs, params)
        assert network._EXECUTORS == {}

    def test_failing_layer_block_is_raised_after_the_others_finish(self, monkeypatch):
        """f's first layer at 128x128x31 runs as 8 blocks on 2 workers; the
        first block to start raises, and the join reports it only once the
        other 7 are done, with the pool no longer held."""
        obs, params, _, _ = tc_setup((128, 128, 31), 62, seed=34)
        monkeypatch.setattr(network, "_WORKERS", 2)
        log = {"threads": set(), "started": 0, "finished": 0}
        lock = threading.Lock()
        real = network.Activation.apply_in_place

        def slow_apply(act, z):
            with lock:
                log["threads"].add(threading.current_thread())
                log["started"] += 1
                first = log["started"] == 1
            if first:
                raise RuntimeError("block failed")
            time.sleep(0.02)
            real(act, z)
            with lock:
                log["finished"] += 1

        monkeypatch.setattr(network.Activation, "apply_in_place", slow_apply)
        with pytest.raises(RuntimeError, match="block failed"):
            forward_f(obs, params)
        assert log["started"] == 8 and log["finished"] == 7
        assert threading.current_thread() not in log["threads"]
        assert not getattr(network._HELD, "pool", False)

    def test_nonfinite_g_output_leaves_no_chunk_running(self, monkeypatch):
        obs, params, model, cfg, _ = self.overlap_setup("tc")
        bad = [w.copy() for w in params.weights()]
        bad[len(params.f_layers)][0, 0] = np.inf  # f(obs) stays finite, g(f(obs)) does not
        params = params.with_weights(bad)
        y, _ = forward_f(obs, params)
        assert np.isfinite(y).all()
        log = self.counted_chunks(monkeypatch)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="network output"):
            loss_and_grad(obs, params, model, cfg)
        assert len(log["started"]) == len(log["finished"]) == 10

    def test_failing_fidelity_leaves_no_chunk_running(self, monkeypatch):
        obs, params, model, cfg, _ = self.overlap_setup("tc")
        log = self.counted_chunks(monkeypatch)

        def broken_fidelity(x, model):
            raise RuntimeError("fidelity failed")

        monkeypatch.setattr(network, "fidelity", broken_fidelity)
        with pytest.raises(RuntimeError, match="fidelity failed"):
            loss_and_grad(obs, params, model, cfg)
        assert len(log["started"]) == len(log["finished"]) == 10

    def test_failing_chunk_is_raised_after_the_others_finish(self, monkeypatch):
        obs, params, model, cfg, _ = self.overlap_setup("tc")
        log = self.counted_chunks(monkeypatch, fail_first=True)
        with pytest.raises(RuntimeError, match="chunk failed"):
            loss_and_grad(obs, params, model, cfg)
        assert len(log["started"]) == 10 and sorted(log["finished"]) == list(range(1, 10))

    @pytest.mark.parametrize("env, cpus", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "16"}, 1),
        ({"OMP_NUM_THREADS": "x"}, 1),
    ])
    def test_worker_rule(self, monkeypatch, env, cpus):
        """With no BLAS thread setter found, one thread; with one found,
        one per usable cpu.  The environment changes neither."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(network, "controls", lambda: ())
        assert network._worker_count() == 1
        monkeypatch.setattr(network, "controls", lambda: ((lambda: 1, lambda n: None),))
        assert network._worker_count() == cpus

    def test_worker_rule_reads_no_environment(self, monkeypatch):
        class Unreadable(Mapping):
            def __getitem__(self, key):
                raise AssertionError(f"read the environment at {key!r}")

            def __iter__(self):
                raise AssertionError("listed the environment")

            def __len__(self):
                raise AssertionError("sized the environment")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        counts = []
        with monkeypatch.context() as m:  # undone before pytest writes the environment again
            m.setattr(os, "environ", Unreadable())
            for found in ((), ((lambda: 1, lambda n: None),)):
                m.setattr(network, "controls", lambda: found)
                counts.append(network._worker_count())
        assert counts == [1, 4]


class TestSplitLayers:
    """f's passes, and stack runs while no SVD chunk holds the pool, split
    large layer products into fixed blocks on the worker pool."""

    @staticmethod
    def split_counter(monkeypatch):
        """Count the layer products that split into more than one block;
        the SVD jobs, cut by the same rule, are left out."""
        calls = {"split": 0, "whole": 0}
        real = network._blocks

        def counting(n, step, work):
            blocks = real(n, step, work)
            if step != network._BLOCK_MATRICES:
                calls["split" if len(blocks) > 1 else "whole"] += 1
            return blocks

        monkeypatch.setattr(network, "_blocks", counting)
        return calls

    @pytest.mark.parametrize("dims, width, split", [
        ((128, 128, 31), 62, True), ((96, 96, 60), 120, True), ((30, 30, 16), 48, False),
    ], ids=["128x128x31", "96x96x60", "30x30x16"])
    def test_loss_and_grad_same_on_1_2_8_workers(self, monkeypatch, dims, width, split):
        """With 1 worker every product runs whole; with 2 or 8 (more than
        cores, under a short switch interval) the large ones run in
        blocks.  Loss, gradients and the reconstruction keep their bytes.
        At 30x30x16 nothing splits."""
        obs, params, model, cfg = tc_setup(dims, width, p=2, q=3, seed=31)
        calls = self.split_counter(monkeypatch)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 8):
                monkeypatch.setattr(network, "_WORKERS", workers)
                for lam in (cfg.lam, 0.0):  # with lam = 0 no chunk holds the pool, so g splits too
                    loss, grads = loss_and_grad(obs, params, model, replace(cfg, lam=lam))
                    runs.append((workers, loss, [g.tobytes() for g in grads]))
                runs.append((workers, reconstruct(obs, params).tobytes()))
                if workers == 1:
                    assert calls["split"] == 0
        finally:
            sys.setswitchinterval(interval)
        one = [r[1:] for r in runs if r[0] == 1]
        assert [r[1:] for r in runs if r[0] == 2] == one
        assert [r[1:] for r in runs if r[0] == 8] == one
        assert (calls["split"] > 0) == split

    def test_g_runs_whole_while_chunks_hold_the_pool(self, monkeypatch):
        """Inside loss_and_grad, g's layer products do not queue behind
        the SVD chunks: they run whole on the calling thread."""
        obs, params, model, cfg = tc_setup((96, 96, 31), 62, seed=32)
        monkeypatch.setattr(network, "_WORKERS", 2)
        held = []
        real = network._blocks

        def blocks(n, step, work):
            out = real(n, step, work)
            held.append((getattr(network._HELD, "pool", False), len(out)))
            return out

        monkeypatch.setattr(network, "_blocks", blocks)
        loss_and_grad(obs, params, model, cfg)
        assert any(h for h, _ in held) and all(k == 1 for h, k in held if h)
        assert any(k > 1 for h, k in held if not h)
        assert not getattr(network._HELD, "pool", False)

    @pytest.mark.parametrize("n, step, work, expect", [
        (16384, 2048, 62 * 31, [(i, i + 2048) for i in range(0, 16384, 2048)]),
        (9216, 2048, 120 * 60, [(0, 2048), (2048, 4096), (4096, 6144), (6144, 8192), (8192, 9216)]),
        (5000, 2048, 1024, [(0, 2048), (2048, 5000)]),  # the 904-column tail joins the block before it
        (900, 2048, 48 * 48, [(0, 900)]),
        (62, 32, 62 * 16384, [(0, 32), (32, 62)]),
        (62, 32, 31 * 900, [(0, 62)]),
        (48, 8, 16 * 30 * 30 * 30, [(i, i + 8) for i in range(0, 48, 8)]),  # SVDs of (48, 30, 30)
        (16, 8, 16 * 6 * 6 * 6, [(0, 16)]),  # SVDs of (16, 6, 6), criterion 1's largest stack
        (3000, 2048, 1024, [(0, 3000)]),  # the short tail is popped, leaving one start
    ])
    def test_block_bounds(self, monkeypatch, n, step, work, expect):
        """Blocks start at multiples of the step; each does at least
        _BLOCK_WORK multiply-adds, or the range runs whole.  The bounds
        are the same for any number of workers above one."""
        for workers in (2, 3, 8):
            monkeypatch.setattr(network, "_WORKERS", workers)
            assert network._blocks(n, step, work) == expect
        monkeypatch.setattr(network, "_WORKERS", 1)
        assert network._blocks(n, step, work) == [(0, n)]


needs_setter = pytest.mark.skipif(not network.controls(), reason="no OpenBLAS thread setter found")


class TestBlasScope:
    """The library runs BLAS on one thread in every solve and public
    network call, and restores the caller's count on every exit."""

    @staticmethod
    def counts(controls=None):
        return [get() for get, _ in (controls or network.controls())]

    @pytest.fixture
    def caller_at_two(self):
        """Every loaded OpenBLAS at 2 threads for the test; the count it
        had is restored afterwards."""
        before = self.counts()
        for _, put in network.controls():
            put(2)
        yield [2] * len(before)
        for (_, put), count in zip(network.controls(), before):
            put(count)

    @needs_setter
    def test_count_inside_a_solve_is_one(self, monkeypatch, caller_at_two):
        from ssnt.solvers import solve_ssnt

        seen = []
        fid = network.fidelity

        def spy(x, model):
            seen.append(self.counts())
            return fid(x, model)

        monkeypatch.setattr(network, "fidelity", spy)
        obs, params, model, cfg = tc_setup((12, 10, 6), 8, seed=33)
        solve_ssnt(model, replace(cfg, t_max=2))
        loss_and_grad(obs, params, model, cfg)  # a public call outside a solve
        assert seen == [[1] * len(caller_at_two)] * 3
        assert self.counts() == caller_at_two

    @needs_setter
    def test_caller_count_restored_after_an_error(self, caller_at_two):
        obs, params, _, _ = tc_setup((6, 5, 4), 8, seed=34)
        bad = params.with_weights([np.full_like(w, np.inf) for w in params.weights()])
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(FloatingPointError):
            forward_f(obs, bad)
        assert self.counts() == caller_at_two

    @needs_setter
    def test_nested_scopes_restore_only_at_the_outermost_exit(self, caller_at_two):
        one = [1] * len(caller_at_two)
        with network.single_thread():
            with network.single_thread():
                assert self.counts() == one
            assert self.counts() == one
        assert self.counts() == caller_at_two

    @needs_setter
    def test_scopes_on_two_threads_share_one_count(self, caller_at_two):
        """The scope is process-wide: a thread leaving its scope while
        another is still inside one leaves BLAS at one thread."""
        one = [1] * len(caller_at_two)
        entered, release, seen = threading.Event(), threading.Event(), []

        def other():
            with network.single_thread():
                entered.set()
                release.wait(10)
                seen.append(self.counts())

        t = threading.Thread(target=other)
        with network.single_thread():
            t.start()
            assert entered.wait(10)
        assert self.counts() == one  # the other thread is still inside
        release.set()
        t.join(10)
        assert not t.is_alive()
        assert seen == [one] and self.counts() == caller_at_two

    @needs_setter
    def test_without_a_setter_the_scope_changes_nothing(self, monkeypatch, caller_at_two):
        real = network.controls()
        monkeypatch.setattr(network, "controls", lambda: ())
        with network.single_thread():
            assert self.counts(real) == caller_at_two
        obs, params, _, _ = tc_setup((6, 5, 4), 8, seed=35)
        forward_f(obs, params)
        assert self.counts(real) == caller_at_two


def slice_major(t):
    """The same values as ``t``, held as a view of a slice-major matrix."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(t, 2, 0)), 0, 2)


class TestSliceMajorInput:
    def test_view_and_c_ordered_input_agree_bitwise(self):
        """A C-ordered tensor and a slice-major view of the same values
        give identical bytes; the view enters f without a copy."""
        obs, params, model, cfg = tc_setup((3, 4, 5), 6, seed=25)
        view = slice_major(obs)
        assert not view.flags.c_contiguous
        y, tape = forward_f(obs, params)
        y_v, tape_v = forward_f(view, params)
        assert y.shape == (3, 4, 6) and y.tobytes() == y_v.tobytes()
        assert np.shares_memory(tape_v[0], view)
        assert len(tape) == len(tape_v) == len(params.f_layers) + 1
        assert [m.tobytes() for m in tape] == [m.tobytes() for m in tape_v]
        assert reconstruct(obs, params).tobytes() == reconstruct(view, params).tobytes()
        (loss, grads), (loss_v, grads_v) = (loss_and_grad(t, params, model, cfg) for t in (obs, view))
        assert loss == loss_v
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in grads_v]

    def test_f_output_enters_g_without_a_copy(self):
        obs, params, _, _ = tc_setup((3, 4, 5), 6, seed=26)
        y, _ = forward_f(obs, params)
        _, tape_g = forward_g(y, params)
        assert np.shares_memory(tape_g[0], y)
        assert np.moveaxis(y, 2, 0).flags.c_contiguous
