"""Optimization drivers: Adam, the plain solver, the ADMM/TV solver and
their closed-form updates and diagnostics."""

import re
import threading
import time
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ssnt import network, solvers
from ssnt.cli import main
from ssnt.network import Activation, Layer, NetworkParams, init_weights, loss_and_grad, reconstruct
from ssnt.problems import SamplingSpec, assemble, degrade, init_observation, synth_low_tubal_rank
from ssnt.solvers import (
    REL_ERR_FLOOR,
    AdamState,
    AdmmState,
    SolverConfig,
    adam_step,
    default_config,
    multiplier_update,
    solve_ssnt,
    solve_ssnt_tv,
    v_update,
)
from ssnt.tensors import diff_p, soft_threshold, sum_squares


class TestDefaultConfig:
    def test_tc_lowrank_weight(self):
        cfg = default_config("tc", (256, 256, 191))
        assert cfg.lam == pytest.approx(256 * 256 * 191 * 1e-7)

    def test_interface_width_doubles(self):
        assert default_config("tc", (10, 10, 31)).width == 62

    @pytest.mark.parametrize("kind", ["tc", "bs", "rtc", "sci"])
    def test_beta_is_one(self, kind):
        assert default_config(kind, (8, 8, 4)).beta == 1.0

    def test_remaining_defaults(self):
        n = 8 * 9 * 10
        cfg = default_config("bs", (8, 9, 10))
        assert cfg.lam == pytest.approx(n * 1e-3)
        assert cfg.tau == pytest.approx(0.01 * n)
        assert cfg.t_max == 7000
        assert (cfg.p, cfg.q) == (2, 2)
        assert default_config("sci", (8, 9, 10)).lam == pytest.approx(n * 1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(beta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(inner_steps=0)
        with pytest.raises(ValueError):
            SolverConfig(lr=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("p", 0), ("q", 0), ("width", 0), ("width", -3),
        ("slope", 1.5), ("slope", 0.0), ("activation", "tanh"),
        ("lr", 0.0), ("lr", -1e-3),
        ("lam", -1.0), ("lam", float("nan")), ("tau", -1.0), ("beta", 0.0), ("beta", float("inf")),
        ("t_max", -1), ("inner_steps", 0),
    ])
    def test_bad_value_is_rejected_naming_the_field(self, field, value):
        """The message names the one bad field first and ends with its value."""
        with pytest.raises(ValueError, match=rf"^{field} .*, got {re.escape(repr(value))}$"):
            SolverConfig(**{field: value})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown problem kind 'foo'$"):
            default_config("foo", (4, 4, 3))

    def test_replace_validates(self):
        with pytest.raises(ValueError, match="slope"):
            replace(default_config("tc", (4, 4, 3)), slope=-0.1)


class TestAdam:
    def cfg(self, lr=0.05):
        return SolverConfig(lam=0.0, lr=lr, width=1)

    def test_first_step_magnitude(self):
        """First bias-corrected step is ~lr * sign(g) when |g| >> eps."""
        w = [np.array([[3.0]])]
        new, _ = adam_step(w, [np.array([[2.0]])], AdamState.zeros(w), self.cfg())
        assert float(w[0][0, 0] - new[0][0, 0]) == pytest.approx(0.05, rel=1e-6)

    def test_zero_gradient_no_move(self):
        w = [np.random.default_rng(0).standard_normal((3, 2))]
        new, state = adam_step(w, [np.zeros((3, 2))], AdamState.zeros(w), self.cfg())
        assert np.array_equal(new[0], w[0])
        assert state.t == 1

    def test_scalar_quadratic_descent(self):
        """100 steps on 0.5*w^2 from w=1 with lr=0.05: |w| decreases
        monotonically while above 0.5 and ends below it."""
        w = [np.array([[1.0]])]
        state = AdamState.zeros(w)
        traj = [1.0]
        for _ in range(100):
            w, state = adam_step(w, [w[0].copy()], state, self.cfg())
            traj.append(abs(float(w[0][0, 0])))
        for a, b in zip(traj, traj[1:]):
            if a > 0.5:
                assert b <= a + 1e-12
        assert traj[-1] < 0.5

    def test_nonfinite_gradient_aborts(self):
        w = [np.ones((2, 2))]
        with pytest.raises(FloatingPointError):
            adam_step(w, [np.full((2, 2), np.nan)], AdamState.zeros(w), self.cfg())

    def test_inputs_not_mutated(self):
        w = [np.ones((2, 2))]
        g = [np.ones((2, 2))]
        state = AdamState.zeros(w)
        adam_step(w, g, state, self.cfg())
        assert np.array_equal(w[0], np.ones((2, 2)))
        assert state.t == 0
        assert np.array_equal(state.m[0], np.zeros((2, 2)))


def tc_instance(dims=(8, 8, 4), sr=1.0, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0, 1, dims)
    return data, degrade(data, "tc", SamplingSpec(sr=sr, seed=seed + 1))


class TestSolveSsnt:
    def test_tmax_zero_returns_initial_assembly(self):
        data, model = tc_instance(seed=1)
        cfg = SolverConfig(lam=0.0, t_max=0, width=8, seed=2)
        x, params, history = solve_ssnt(model, cfg)
        assert history == []
        x0 = init_observation(model)
        expect = reconstruct(x0, init_weights(4, cfg))
        expect[model.mask == 1.0] = model.measurement[model.mask == 1.0]
        assert np.array_equal(x, expect)

    def test_deterministic(self):
        data, model = tc_instance(seed=3)
        cfg = SolverConfig(lam=1e-3, t_max=15, width=8, seed=4)
        xa, pa, ha = solve_ssnt(model, cfg)
        xb, pb, hb = solve_ssnt(model, cfg)
        assert np.array_equal(xa, xb)
        assert xa.flags.c_contiguous
        for a, b in zip(pa.weights(), pb.weights()):
            assert np.array_equal(a, b)
        assert [d.loss.total for d in ha] == [d.loss.total for d in hb]

    def test_loss_decreases_tenfold(self):
        """lam=0, fully observed: 500 Adam steps cut the loss by >= 10x
        (pilot run: ~15x)."""
        data, model = tc_instance((8, 8, 4), seed=5)
        cfg = SolverConfig(lam=0.0, t_max=500, width=8, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, _, history = solve_ssnt(model, cfg)
        assert history[0].loss.total >= 10.0 * history[-1].loss.total

    def test_history_length_and_finiteness(self):
        data, model = tc_instance(seed=7)
        cfg = SolverConfig(lam=1e-3, t_max=12, width=8, seed=8)
        _, _, history = solve_ssnt(model, cfg)
        assert len(history) == 12
        for i, d in enumerate(history):
            assert d.iteration == i
            assert d.rel_err_weights >= 0.0
            assert d.rel_err_v == 0.0
            assert np.isfinite(d.loss.total)

    def test_warns_when_loss_increases(self):
        data, model = tc_instance((5, 5, 3), sr=0.8, seed=9)
        cfg = SolverConfig(lam=0.0, t_max=8, lr=1.0, width=6, seed=10)
        with pytest.warns(RuntimeWarning):
            solve_ssnt(model, cfg)

    def test_inner_steps_need_tv(self):
        _, model = tc_instance(seed=13)
        cfg = SolverConfig(lam=1e-3, t_max=2, width=8, seed=14, inner_steps=2)
        with pytest.raises(ValueError, match="inner_steps=2 needs the TV solver"):
            solve_ssnt(model, cfg)


class TestStartShapes:
    """A solve checks ``x0`` and every array of ``admm0`` against the
    model's shape before it builds the network or runs ``f``."""

    @staticmethod
    def instance(monkeypatch):
        _, model = tc_instance((8, 7, 5), sr=0.6, seed=40)

        def forbidden(*args, **kwargs):
            raise AssertionError("the solve started work")

        monkeypatch.setattr(network, "forward_f", forbidden)
        monkeypatch.setattr(solvers, "init_weights", forbidden)
        return model, SolverConfig(lam=1e-3, t_max=2, width=8, seed=41)

    @pytest.mark.parametrize("solve", [solve_ssnt, solve_ssnt_tv])
    def test_bad_x0(self, monkeypatch, solve):
        model, cfg = self.instance(monkeypatch)
        with pytest.raises(ValueError, match=re.escape("x0 has shape (8, 7, 4), the model (8, 7, 5)")):
            solve(model, cfg, x0=np.zeros((8, 7, 4)))

    @pytest.mark.parametrize("field", ["v1", "v2", "l1", "l2"])
    def test_bad_admm0(self, monkeypatch, field):
        model, cfg = self.instance(monkeypatch)
        arrays = {name: np.zeros((8, 7, 5)) for name in ("v1", "v2", "l1", "l2")}
        arrays[field] = np.zeros((8, 7, 4))
        with pytest.raises(ValueError, match=re.escape(f"admm0.{field} has shape (8, 7, 4), the model (8, 7, 5)")):
            solve_ssnt_tv(model, cfg, admm0=AdmmState(**arrays))


class TestVUpdate:
    def setup_state(self, seed=0, dims=(5, 5, 3)):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(dims)
        admm = AdmmState(
            v1=rng.standard_normal(dims),
            v2=rng.standard_normal(dims),
            l1=rng.standard_normal(dims),
            l2=rng.standard_normal(dims),
        )
        return x, admm

    def test_zero_tau_passthrough(self):
        x, admm = self.setup_state(1)
        cfg = SolverConfig(lam=0.0, tau=0.0, beta=2.0, width=3)
        v1, v2 = v_update(x, admm, cfg)
        assert np.array_equal(v1, diff_p(x, 1) + admm.l1 / 2.0)
        assert np.array_equal(v2, diff_p(x, 2) + admm.l2 / 2.0)

    def test_zero_inputs(self):
        dims = (4, 4, 2)
        admm = AdmmState(*(np.zeros(dims) for _ in range(4)))
        cfg = SolverConfig(lam=0.0, tau=0.7, beta=1.0, width=2)
        v1, v2 = v_update(np.zeros(dims), admm, cfg)
        assert np.array_equal(v1, np.zeros(dims))
        assert np.array_equal(v2, np.zeros(dims))

    def test_grid_oracle(self):
        """v_update minimizes tau*|v| + beta/2*(v - target)^2 entrywise."""
        x, admm = self.setup_state(2, dims=(3, 3, 2))
        cfg = SolverConfig(lam=0.0, tau=0.6, beta=1.7, width=2)
        v1, _ = v_update(x, admm, cfg)
        target = diff_p(x, 1) + admm.l1 / cfg.beta
        grid = np.linspace(-6, 6, 120001)
        for idx in [(0, 0, 0), (1, 2, 1), (2, 2, 0)]:
            objective = cfg.tau * np.abs(grid) + 0.5 * cfg.beta * (grid - target[idx]) ** 2
            assert v1[idx] == pytest.approx(grid[np.argmin(objective)], abs=2e-4)

    def test_prox_sign_optimality(self):
        """0 in tau*d|v|_1 + beta*(v - target) entrywise."""
        for seed in range(20):
            x, admm = self.setup_state(seed)
            cfg = SolverConfig(lam=0.0, tau=0.4, beta=1.3, width=3)
            for p, v in zip((1, 2), v_update(x, admm, cfg)):
                target = diff_p(x, p) + (admm.l1 if p == 1 else admm.l2) / cfg.beta
                resid = cfg.beta * (target - v)
                nonzero = v != 0.0
                assert np.allclose(resid[nonzero], cfg.tau * np.sign(v[nonzero]))
                assert (np.abs(resid[~nonzero]) <= cfg.tau + 1e-12).all()


class TestMultiplierUpdate:
    def test_feasible_point_unchanged(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4, 3))
        admm = AdmmState(diff_p(x, 1), diff_p(x, 2), rng.standard_normal((4, 4, 3)), rng.standard_normal((4, 4, 3)))
        cfg = SolverConfig(lam=0.0, beta=1.5, width=3)
        l1, l2 = multiplier_update(admm, x, cfg)
        assert np.array_equal(l1, admm.l1)
        assert np.array_equal(l2, admm.l2)

    def test_from_zero_state(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 4, 3))
        admm = AdmmState(*(np.zeros((4, 4, 3)) for _ in range(4)))
        cfg = SolverConfig(lam=0.0, beta=2.5, width=3)
        l1, l2 = multiplier_update(admm, x, cfg)
        assert np.array_equal(l1, 2.5 * diff_p(x, 1))
        assert np.array_equal(l2, 2.5 * diff_p(x, 2))

    def test_two_step_telescoping(self):
        """After two updates the multiplier equals L0 + beta*(r1 + r2)."""
        rng = np.random.default_rng(7)
        cfg = SolverConfig(lam=0.0, beta=1.2, width=3)
        l0 = rng.standard_normal((4, 4, 3))
        admm = AdmmState(rng.standard_normal((4, 4, 3)), rng.standard_normal((4, 4, 3)), l0.copy(), np.zeros((4, 4, 3)))
        xs = [rng.standard_normal((4, 4, 3)) for _ in range(2)]
        residuals = []
        for x in xs:
            residuals.append(diff_p(x, 1) - admm.v1)
            admm.l1, admm.l2 = multiplier_update(admm, x, cfg)
        expect = l0 + cfg.beta * (residuals[0] + residuals[1])
        assert np.allclose(admm.l1, expect, atol=1e-12)


class TestSolveSsntTv:
    def test_algorithm_initialization(self):
        """First outer iteration must start from V = diff(init), L = 0:
        replaying one manual iteration reproduces the solver exactly."""
        truth = synth_low_tubal_rank((6, 6, 4), 2, seed=1)
        model = degrade(truth, "tc", SamplingSpec(sr=0.6, seed=2))
        cfg = SolverConfig(lam=1e-3, tau=0.1, beta=1.0, t_max=1, width=8, seed=3)
        x0 = init_observation(model)
        params = init_weights(4, cfg)
        admm = AdmmState(diff_p(x0, 1), diff_p(x0, 2), np.zeros(x0.shape), np.zeros(x0.shape))
        loss, grads = loss_and_grad(x0, params, model, cfg, admm)
        ws, _ = adam_step(params.weights(), grads, AdamState.zeros(params.weights()), cfg)
        _, _, history = solve_ssnt_tv(model, cfg)
        assert history[0].loss.total == loss.total
        rel = sum(
            np.linalg.norm(n - o) / max(np.linalg.norm(o), 1e-12)
            for n, o in zip(ws, params.weights())
        )
        assert history[0].rel_err_weights == pytest.approx(rel, rel=1e-12)

    def test_tau_zero_on_trajectory_matches_plain(self):
        """With tau=0, L=0 and V started at the initial network output's
        differences, the ADMM terms vanish and the weight trajectory is
        bitwise that of the plain solver."""
        truth = synth_low_tubal_rank((6, 6, 4), 2, seed=5)
        model = degrade(truth, "tc", SamplingSpec(sr=0.6, seed=6))
        cfg = SolverConfig(lam=0.05, tau=0.0, beta=1.0, t_max=30, width=8, seed=7)
        x0 = init_observation(model)
        xnet = reconstruct(x0, init_weights(4, cfg))
        admm0 = AdmmState(diff_p(xnet, 1), diff_p(xnet, 2), np.zeros(x0.shape), np.zeros(x0.shape))
        xa, pa, ha = solve_ssnt(model, cfg)
        xb, pb, hb = solve_ssnt_tv(model, cfg, admm0=admm0)
        for a, b in zip(pa.weights(), pb.weights()):
            assert np.array_equal(a, b)
        assert np.array_equal(xa, xb)
        assert all(d.loss.tv_penalty == 0.0 for d in hb)

    def test_outputs_same_on_one_or_two_lowrank_workers(self, monkeypatch):
        """The chunked low-rank step gives byte-identical solves whatever
        its thread count."""
        truth = synth_low_tubal_rank((16, 14, 6), 2, seed=11)
        model = degrade(truth, "rtc", SamplingSpec(sr=0.6, noise_sr=0.1, seed=12))
        cfg = SolverConfig(lam=0.05, tau=0.05, beta=1.0, t_max=8, width=12, seed=13)
        monkeypatch.setattr(network, "_BLOCK_MATRICES", 3)
        monkeypatch.setattr(network, "_BLOCK_WORK", 1)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(network, "_WORKERS", workers)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                x, params, history = solve_ssnt_tv(model, cfg)
            runs.append((x.tobytes(), [w.tobytes() for w in params.weights()],
                         [(d.rel_err_weights, d.rel_err_v, d.loss.total) for d in history]))
        assert runs[0] == runs[1]

    def test_diagnostics_nonnegative_full_length(self):
        truth = synth_low_tubal_rank((6, 6, 4), 2, seed=8)
        model = degrade(truth, "tc", SamplingSpec(sr=0.5, seed=9))
        cfg = SolverConfig(lam=1e-3, tau=0.05, beta=1.0, t_max=20, width=8, seed=10)
        x, _, history = solve_ssnt_tv(model, cfg)
        assert x.flags.c_contiguous
        assert len(history) == 20
        for d in history:
            assert d.rel_err_weights >= 0.0
            assert d.rel_err_v >= 0.0
            assert np.isfinite(d.loss.total)
            assert d.loss.tv_penalty >= 0.0

    def test_weight_change_decays(self):
        """Relative weight change at iteration 500 falls well below its
        iteration-10 value (pilot ratio ~0.08; asserted < 0.1)."""
        truth = synth_low_tubal_rank((16, 16, 4), 2, seed=3)
        model = degrade(truth, "tc", SamplingSpec(sr=0.5, seed=4))
        cfg = SolverConfig(
            lam=default_config("tc", truth.shape).lam,
            tau=0.2, beta=1.0, t_max=500, width=8, seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, _, history = solve_ssnt_tv(model, cfg)
        assert history[499].rel_err_weights < 0.1 * history[9].rel_err_weights

    def test_admm0_holds_final_state(self, monkeypatch):
        """A caller's ``admm0`` ends holding the last splitting and
        multiplier updates of the loop."""
        truth = synth_low_tubal_rank((6, 6, 4), 2, seed=14)
        model = degrade(truth, "rtc", SamplingSpec(sr=0.6, noise_sr=0.1, seed=15))
        cfg = SolverConfig(lam=1e-3, tau=0.05, beta=1.0, t_max=3, width=8, seed=16)
        updates = []

        def recording(admm, x, cfg):
            out = multiplier_update(admm, x, cfg)
            updates.append((admm.v1, admm.v2) + out)
            return out

        monkeypatch.setattr(solvers, "multiplier_update", recording)
        x0 = init_observation(model)
        admm0 = AdmmState(diff_p(x0, 1), diff_p(x0, 2), np.zeros(x0.shape), np.zeros(x0.shape))
        solve_ssnt_tv(model, cfg, x0=x0, admm0=admm0)
        assert len(updates) == 3
        for got, last in zip((admm0.v1, admm0.v2, admm0.l1, admm0.l2), updates[-1]):
            assert got is last

    def test_first_admm0_arrays_are_freed_during_the_solve(self, monkeypatch):
        """Once the loop has replaced them, the solve keeps no reference to
        the arrays ``admm0`` came with."""
        truth = synth_low_tubal_rank((6, 6, 4), 2, seed=14)
        model = degrade(truth, "rtc", SamplingSpec(sr=0.6, noise_sr=0.1, seed=15))
        cfg = SolverConfig(lam=1e-3, tau=0.05, beta=1.0, t_max=2, width=8, seed=16)
        x0 = init_observation(model)
        admm0 = AdmmState(diff_p(x0, 1), diff_p(x0, 2), np.zeros(x0.shape), np.zeros(x0.shape))
        first = [weakref.ref(a) for a in (admm0.v1, admm0.v2, admm0.l1, admm0.l2)]
        alive = []

        def recording(admm, x, cfg):
            alive.append([ref() is not None for ref in first])
            return multiplier_update(admm, x, cfg)

        monkeypatch.setattr(solvers, "multiplier_update", recording)
        solve_ssnt_tv(model, cfg, x0=x0, admm0=admm0)
        assert alive == [[False, False, True, True], [False] * 4]

    def test_inner_steps_run(self):
        truth = synth_low_tubal_rank((5, 5, 3), 2, seed=11)
        model = degrade(truth, "tc", SamplingSpec(sr=0.7, seed=12))
        cfg1 = SolverConfig(lam=1e-3, tau=0.05, t_max=4, width=6, seed=13, inner_steps=1)
        cfg3 = SolverConfig(lam=1e-3, tau=0.05, t_max=4, width=6, seed=13, inner_steps=3)
        _, pa, _ = solve_ssnt_tv(model, cfg1)
        _, pb, _ = solve_ssnt_tv(model, cfg3)
        assert any(not np.array_equal(a, b) for a, b in zip(pa.weights(), pb.weights()))


class TestIdentityInitMonotone:
    def run_losses(self, w_f, steps=300, lr=1e-4):
        rng = np.random.default_rng(20)
        data = rng.uniform(0, 1, (6, 6, 4))
        model = degrade(data, "tc", SamplingSpec(sr=1.0, seed=0))
        ident = Activation("identity")
        params = NetworkParams([Layer(w_f, ident)], [Layer(np.eye(4), ident)])
        cfg = SolverConfig(lam=0.0, lr=lr, width=4, p=1, q=1, activation="identity")
        state = AdamState.zeros(params.weights())
        x0 = init_observation(model)
        losses = []
        for _ in range(steps):
            loss, grads = loss_and_grad(x0, params, model, cfg)
            losses.append(loss.total)
            ws, state = adam_step(params.weights(), grads, state, cfg)
            params = params.with_weights(ws)
        return losses

    def test_exact_identity_stays_at_zero(self):
        losses = self.run_losses(np.eye(4), steps=50)
        assert losses == [0.0] * 50

    def test_near_identity_nonincreasing(self):
        """From a perturbed identity the quadratic loss is non-increasing
        at lr=1e-4 over every recorded step."""
        pert = np.eye(4) + np.random.default_rng(21).normal(0, 0.02, (4, 4))
        losses = self.run_losses(pert, steps=300)
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-15


def public_loop(model, cfg, x0, admm):
    """Both solvers' loop from public calls alone: every step runs its
    own forward pass, and the TV update and the estimate run their own
    reconstruction."""

    def rel_change(new, old):
        return float(sum(np.sqrt(sum_squares(n - o)) / max(np.sqrt(sum_squares(o)), REL_ERR_FLOOR)
                         for n, o in zip(new, old)))

    params = init_weights(x0.shape[2], cfg)
    state = AdamState.zeros(params.weights())
    history = []
    for it in range(cfg.t_max):
        old = params.weights()
        for _ in range(cfg.inner_steps):
            loss, grads = loss_and_grad(x0, params, model, cfg, admm)
            new, state = adam_step(params.weights(), grads, state, cfg)
            params = params.with_weights(new)
        rel_v = 0.0
        if admm is not None:
            x = reconstruct(x0, params)
            v1, v2 = v_update(x, admm, cfg)
            rel_v = rel_change([v1, v2], [admm.v1, admm.v2])
            admm.v1, admm.v2 = v1, v2
            admm.l1, admm.l2 = multiplier_update(admm, x, cfg)
        history.append(solvers.Diagnostics(it, rel_change(params.weights(), old), rel_v, loss))
    return assemble(reconstruct(x0, params), model).x, params, history


def solve_bytes(x, params, history, admm):
    rows = [(d.iteration, d.rel_err_weights, d.rel_err_v, d.loss.l1_lowrank, d.loss.l2_fidelity,
             d.loss.tv_penalty) for d in history]
    tv = [] if admm is None else [a.tobytes() for a in (admm.v1, admm.v2, admm.l1, admm.l2)]
    return x.tobytes(), [w.tobytes() for w in params.weights()], np.array(rows).tobytes(), tv


class ChunkLog:
    """Counts the SVD chunks started and finished; each one sleeps
    first, so a chunk nobody waits for is still running when its solve
    returns."""

    def __init__(self, monkeypatch):
        self.lock = threading.Lock()
        self.started = self.finished = 0
        real = network._subgrad_chunk

        def chunk(*args):
            with self.lock:
                self.started += 1
            try:
                time.sleep(0.01)
                real(*args)
            finally:
                with self.lock:
                    self.finished += 1

        monkeypatch.setattr(network, "_subgrad_chunk", chunk)

    def all_joined(self):
        with self.lock:
            return self.started > 0 and self.started == self.finished


def rtc_instance(dims=(16, 14, 6), seed=21):
    truth = synth_low_tubal_rank(dims, 2, seed=seed)
    return truth, degrade(truth, "rtc", SamplingSpec(sr=0.6, noise_sr=0.1, seed=seed + 1))


def inject(monkeypatch, fault):
    """Make a TV solve raise at one point of its first outer iteration."""
    if fault == "v_update":
        def v_update_fails(x, admm, cfg):
            raise FloatingPointError("injected")

        monkeypatch.setattr(solvers, "v_update", v_update_fails)
    elif fault == "nonfinite-forward":
        real_adam = solvers.adam_step

        def poisons_g(weights, grads, state, cfg):
            new, state = real_adam(weights, grads, state, cfg)
            new[-1] = np.full_like(new[-1], np.inf)  # f runs, g's output is not finite
            return new, state

        monkeypatch.setattr(solvers, "adam_step", poisons_g)
    else:
        real_grad = solvers.loss_and_grad

        def nan_gradient(*args, **kwargs):
            loss, grads = real_grad(*args, **kwargs)
            grads[0] = np.full_like(grads[0], np.nan)
            return loss, grads

        monkeypatch.setattr(solvers, "loss_and_grad", nan_gradient)


class TestForwardPassAhead:
    """The solvers run each step's forward pass once, right after the Adam
    step that fixes its weights; the TV update reads its ``x``."""

    @pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(network, "_WORKERS", request.param)
        monkeypatch.setattr(network, "_BLOCK_MATRICES", 2)
        monkeypatch.setattr(network, "_BLOCK_WORK", 1)

    @pytest.mark.parametrize("tv, inner", [(False, 1), (True, 1), (True, 3)],
                             ids=["tc", "rtc-inner1", "rtc-inner3"])
    def test_bytes_equal_the_public_loop(self, workers, tv, inner):
        _, model = rtc_instance()
        cfg = SolverConfig(lam=0.05, tau=0.05, t_max=5, inner_steps=inner, width=12, seed=23, lr=3e-3)
        x0 = init_observation(model)

        def admm():
            return AdmmState(diff_p(x0, 1), diff_p(x0, 2), np.zeros(x0.shape), np.zeros(x0.shape))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want_admm = admm() if tv else None
            want = solve_bytes(*public_loop(model, cfg, x0, want_admm), want_admm)
            got_admm = admm() if tv else None
            solve = solve_ssnt_tv(model, cfg, x0=x0, admm0=got_admm) if tv else solve_ssnt(model, cfg, x0=x0)
        assert solve_bytes(*solve, got_admm) == want

    @pytest.mark.parametrize("solve, t_max, inner", [
        (solve_ssnt_tv, 3, 1), (solve_ssnt_tv, 2, 3), (solve_ssnt_tv, 0, 2), (solve_ssnt, 4, 1),
    ], ids=["tv-3x1", "tv-2x3", "tv-0x2", "plain-4"])
    def test_one_forward_pass_per_adam_step(self, monkeypatch, solve, t_max, inner):
        """T outer iterations of k steps run f T*k + 1 times (one pass
        per step, and the last pass for the estimate), and only the passes
        a gradient step takes start SVDs."""
        calls = {"forward_f": 0, "stacks": []}
        real_f, real_chunks = network.forward_f, network._lowrank_chunks

        def forward_f(t, params):
            calls["forward_f"] += 1
            return real_f(t, params)

        def lowrank_chunks(stack):
            calls["stacks"].append(stack.shape[0])
            return real_chunks(stack)

        monkeypatch.setattr(network, "forward_f", forward_f)
        monkeypatch.setattr(network, "_lowrank_chunks", lowrank_chunks)
        _, model = rtc_instance()
        cfg = SolverConfig(lam=0.05, tau=0.05, t_max=t_max, inner_steps=inner, width=12, seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solve(model, cfg)
        assert calls["forward_f"] == t_max * inner + 1
        assert calls["stacks"] == [12] * (t_max * inner)

    @staticmethod
    def count_svds(monkeypatch, fail=False):
        """Count the SVD calls the network makes; with ``fail`` each raises."""
        calls = []
        real = network.np.linalg.svd

        def svd(*args, **kwargs):
            calls.append(1)
            if fail:
                raise AssertionError("no SVD job should start")
            return real(*args, **kwargs)

        monkeypatch.setattr(network.np.linalg, "svd", svd)
        return calls

    def test_lam0_starts_no_svd(self, monkeypatch):
        """A lam = 0 pass joins without an SVD call, in a step and in a solve."""
        _, model = rtc_instance()
        cfg = SolverConfig(lam=0.0, tau=0.05, t_max=2, inner_steps=2, width=12, seed=23)
        x0 = init_observation(model)
        self.count_svds(monkeypatch, fail=True)
        loss, _ = loss_and_grad(x0, init_weights(6, cfg), model, cfg)
        assert loss.l1_lowrank == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, _, history = solve_ssnt_tv(model, cfg)
        assert len(history) == 2

    @pytest.mark.parametrize("solve, t_max, inner", [(solve_ssnt_tv, 3, 2), (solve_ssnt, 4, 1)],
                             ids=["tv-3x2", "plain-4"])
    def test_one_svd_call_per_adam_step(self, monkeypatch, solve, t_max, inner):
        """On one worker the SVD job is one call, made once per Adam step
        and not for the last pass."""
        monkeypatch.setattr(network, "_WORKERS", 1)
        calls = self.count_svds(monkeypatch)
        _, model = rtc_instance()
        cfg = SolverConfig(lam=0.05, tau=0.05, t_max=t_max, inner_steps=inner, width=12, seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solve(model, cfg)
        assert len(calls) == t_max * inner

    @pytest.mark.parametrize("fault", ["v_update", "nonfinite-forward", "nonfinite-gradient"])
    def test_a_raise_waits_for_the_chunks(self, monkeypatch, tmp_path, capsys, fault):
        """Through the library and through the CLI, which then exits 5
        and writes nothing."""
        monkeypatch.setattr(network, "_WORKERS", 2)
        monkeypatch.setattr(network, "_BLOCK_MATRICES", 1)
        monkeypatch.setattr(network, "_BLOCK_WORK", 1)
        truth = tmp_path / "t.ssnt"
        assert main(["synth", "--dims", "12,10,6", "--out", str(truth)]) == 0
        log = ChunkLog(monkeypatch)
        inject(monkeypatch, fault)
        _, model = rtc_instance()
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            solve_ssnt_tv(model, SolverConfig(lam=0.05, tau=0.05, t_max=3, width=12, seed=23))
        assert log.all_joined()
        assert not getattr(network._HELD, "pool", False)

        argv = ["robust-complete", "--input", str(truth), "--sr", "0.5", "--tv", "--tau", "0.2",
                "--tmax", "3", "--inner-steps", "2"]
        for flag, name in (("--out", "x.ssnt"), ("--sparse", "s.ssnt"), ("--diagnostics", "d.csv"),
                           ("--manifest", "m.json"), ("--save-transform", "f.ssnt")):
            argv += [flag, str(tmp_path / name)]
        assert main(argv) == 5
        assert "error code=5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [truth]
        assert log.all_joined()
        assert not getattr(network._HELD, "pool", False)

    def test_ahead_is_taken_once_at_its_own_inputs(self, monkeypatch):
        monkeypatch.setattr(network, "_WORKERS", 2)
        monkeypatch.setattr(network, "_BLOCK_MATRICES", 1)
        monkeypatch.setattr(network, "_BLOCK_WORK", 1)
        log = ChunkLog(monkeypatch)
        _, model = rtc_instance()
        cfg = SolverConfig(lam=0.05, width=12, seed=23)
        x0 = init_observation(model)
        params = init_weights(6, cfg)
        ahead = network._ForwardPass(x0, params, cfg.lam)
        loss, grads = loss_and_grad(x0, params, model, cfg, ahead=ahead)
        want_loss, want_grads = loss_and_grad(x0, params, model, cfg)
        assert loss == want_loss
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]
        with pytest.raises(ValueError, match="already used"):
            loss_and_grad(x0, params, model, cfg, ahead=ahead)
        copied = params.with_weights(params.weights())
        for obs, at, lam in ((x0.copy(), params, cfg.lam), (x0, copied, cfg.lam), (x0, params, 0.0)):
            ahead = network._ForwardPass(obs, at, lam)
            with pytest.raises(ValueError, match="built at other"):
                loss_and_grad(x0, params, model, cfg, ahead=ahead)
            assert not getattr(network._HELD, "pool", False)
            assert log.all_joined()
