"""Transform network: initialization, forward maps, the nuclear-norm
subgradient and full reverse-mode gradients, all checked against finite
differences or layer-by-layer oracles."""

import os
import sys

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
from ssnt.solvers import SolverConfig
from ssnt.tensors import EPS_RANK, mode3_product, nuclear_norm

LEAKY = Activation("leaky_relu", 0.01)
IDENT = Activation("identity")


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
        assert np.allclose(LEAKY.apply(z), [-0.02, 0.0, 3.0])
        assert np.allclose(Activation("relu").apply(z), [0.0, 0.0, 3.0])
        assert np.array_equal(IDENT.apply(z), z)

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
        assert act.backprop(act.apply(z), g).tobytes() == act.backprop(z, g).tobytes()


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
        assert np.array_equal(IDENT.apply(mode3_product(t, np.eye(5))), t)

    def test_nofc3_leaky_closed_form(self):
        t = -np.ones((1, 1, 2))
        out = LEAKY.apply(mode3_product(t, np.eye(2)))
        assert np.allclose(out, -0.01)

    def test_nofc3_loop_oracle(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((5, 4))
        z = mode3_product(t, w)
        expect = np.where(z > 0, z, 0.01 * z)
        assert np.allclose(LEAKY.apply(mode3_product(t, w)), expect)

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
            x = LEAKY.apply(mode3_product(x, w))
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
        obs, params, model, cfg = tc_setup((3, 3, 3), 4, seed=14)
        bad = [w.copy() for w in params.weights()]
        bad[0][0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            loss_and_grad(obs, params.with_weights(bad), model, cfg)

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
                assert m_out.tobytes() == lay.activation.apply(lay.weight @ m_in).tobytes()
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
        monkeypatch.setattr(network, "_CHUNK_ENTRIES", 40 * 30)
        sub1, norms1 = network._lowrank_chunks(st, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 8):
                sub, norms = network._lowrank_chunks(st, workers)
                assert sub.tobytes() == sub1.tobytes()
                assert norms.tobytes() == norms1.tobytes()
        finally:
            sys.setswitchinterval(interval)
        whole, norms = nuclear_subgrad(st)
        assert whole.tobytes() == sub1.tobytes() and norms.tobytes() == norms1.tobytes()

    def test_loss_and_grad_same_on_one_or_two_workers(self, monkeypatch):
        obs, params, model, cfg = tc_setup((20, 18, 5), 10, seed=23)
        monkeypatch.setattr(network, "_CHUNK_ENTRIES", 2 * 20 * 18)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(network, "_LOWRANK_WORKERS", workers)
            runs.append(loss_and_grad(obs, params, model, cfg))
        (loss1, grads1), (loss2, grads2) = runs
        assert loss1 == loss2
        assert [g.tobytes() for g in grads1] == [g.tobytes() for g in grads2]

    @pytest.mark.parametrize("env, expect", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "16"}, 1),
        ({"OMP_NUM_THREADS": "x"}, 1),
    ])
    def test_worker_rule(self, monkeypatch, env, expect):
        """max(1, cpus // blas_threads) with the BLAS thread count read
        from the environment as BLAS reads it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert network._lowrank_workers() == expect


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
