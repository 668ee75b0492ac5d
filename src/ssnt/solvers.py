"""Optimization drivers.

Both solvers run one training loop.  Each iteration takes Adam steps on
the low-rank-plus-fidelity loss; ``solve_ssnt`` takes one step per
iteration.  ``solve_ssnt_tv`` adds an anisotropic spatial
total-variation term, handled ADMM-style: per outer iteration the
network takes ``inner_steps`` Adam steps on the augmented objective,
then the TV splitting variables get their closed-form soft-threshold
update and the multipliers a dual ascent step.

Each step's forward pass (``f``, the SVDs of the low-rank term started
on the worker pool, ``g``) runs once, right after the Adam step that
fixes its weights, and the next :func:`~ssnt.network.loss_and_grad`
call takes it as ``ahead``.  The TV update reads that pass's ``x`` while
the SVDs run, and the last pass, which only gives the estimate, starts
no SVDs.

The network is built from the config alone by
:func:`ssnt.network.init_weights`.  The whole observed tensor is one
batch, and every solve runs ``t_max`` iterations: there is no early
stopping.  The loop feeds the network a slice-major view of ``x0``
made once per solve; reconstructions come back C-ordered, and so does
the returned estimate.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .network import (
    Activation,
    LossBreakdown,
    _ForwardPass,
    init_weights,
    loss_and_grad,
    single_thread,
)
from .problems import assemble, init_observation
from .tensors import diff_p, soft_threshold, sum_squares

# Relative-error denominators are floored here; division by an exactly
# zero previous iterate never produces inf diagnostics.
REL_ERR_FLOOR = 1e-12

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of one solve.

    ``lam`` weights the transformed low-rank term, ``tau`` the TV term
    and ``beta`` the ADMM penalty.  The network has ``p`` layers in f
    and ``q`` in g with ``activation`` (``slope`` for leaky_relu), and
    ``width`` is the third-mode length at the f/g interface (``None``
    means twice the input length).  Adam runs with ``lr`` and the
    module's moment constants; everything is seeded.  Invalid values
    raise ``ValueError`` naming the field at construction.
    """

    lam: float = 0.0
    tau: float = 0.0
    beta: float = 1.0
    t_max: int = 1
    inner_steps: int = 1
    lr: float = 1e-3
    seed: int = 0
    width: int | None = None
    p: int = 2
    q: int = 2
    activation: str = "leaky_relu"
    slope: float = 0.01

    def __post_init__(self):
        for name in ("lam", "tau", "beta", "lr"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name, low in (("lam", 0), ("tau", 0), ("t_max", 0), ("inner_steps", 1),
                          ("p", 1), ("q", 1), ("width", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
        for name in ("beta", "lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        Activation(self.activation, self.slope)  # rejects an unknown kind or a bad slope


def default_config(kind, dims):
    """Documented defaults per problem kind for a tensor of shape ``dims``.

    With ``N = n1*n2*n3``: the low-rank weight is ``1e-7 * N`` for
    completion and robust completion, ``1e-3 * N`` for background
    subtraction and ``1e-5 * N`` for snapshot imaging; the TV weight is
    ``0.01 * N``; the penalty is 1; two layers on each side with the
    interface width twice the third-mode length; 7000 iterations.

    Note the background-subtraction weight is large by design on
    [0, 1]-normalized data; it is exposed as-is rather than rescaled.
    """
    weights = {"tc": 1e-7, "rtc": 1e-7, "bs": 1e-3, "sci": 1e-5}
    if kind not in weights:
        raise ValueError(f"unknown problem kind {kind!r}")
    n = int(np.prod(dims))
    lam = weights[kind] * n
    return SolverConfig(lam=lam, tau=0.01 * n, t_max=7000, width=2 * int(dims[2]))


@dataclass
class AdamState:
    """First/second moment buffers mirroring the weight list."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def zeros(cls, weights):
        return cls([np.zeros_like(w) for w in weights], [np.zeros_like(w) for w in weights])


@dataclass
class AdmmState:
    """Splitting variables and multipliers of the TV solver, one pair
    per spatial difference direction."""

    v1: np.ndarray
    v2: np.ndarray
    l1: np.ndarray
    l2: np.ndarray


@dataclass
class Diagnostics:
    iteration: int
    rel_err_weights: float
    rel_err_v: float
    loss: LossBreakdown


def adam_step(weights, grads, state, cfg):
    """One bias-corrected Adam update over a list of weight matrices.

    Returns the updated weights and state; inputs are not mutated.
    Non-finite gradients abort.
    """
    for g in grads:
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient")
    t = state.t + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    new_w, new_m, new_v = [], [], []
    for w, g, m, v in zip(weights, grads, state.m, state.v):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        new_m.append(m)
        new_v.append(v)
        new_w.append(w - cfg.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS))
    return new_w, AdamState(new_m, new_v, t)


def _rel_change(new, old):
    return float(
        sum(
            np.sqrt(sum_squares(n - o)) / max(np.sqrt(sum_squares(o)), REL_ERR_FLOOR)
            for n, o in zip(new, old)
        )
    )


def v_update(x, admm, cfg):
    """Closed-form TV splitting update: soft-threshold the shifted
    spatial differences of the current reconstruction at ``tau/beta``."""
    thr = cfg.tau / cfg.beta
    v1 = soft_threshold(diff_p(x, 1) + admm.l1 / cfg.beta, thr)
    v2 = soft_threshold(diff_p(x, 2) + admm.l2 / cfg.beta, thr)
    return v1, v2


def multiplier_update(admm, x, cfg):
    """Dual ascent on the splitting residual: ``L_p += beta * (diff_p(x) - V_p)``."""
    l1 = admm.l1 + cfg.beta * (diff_p(x, 1) - admm.v1)
    l2 = admm.l2 + cfg.beta * (diff_p(x, 2) - admm.v2)
    return l1, l2


def _solve(model, cfg, x0, admm):
    """The training loop of both solvers; ``admm`` is ``None`` for the
    plain solver and is otherwise updated in place."""
    # Shapes only: a reference to admm0's first arrays would keep them
    # alive through the solve.
    shapes = {"x0": np.shape(x0)}
    if admm is not None:
        shapes.update((f"admm0.{name}", np.shape(getattr(admm, name))) for name in ("v1", "v2", "l1", "l2"))
    for name, shape in shapes.items():
        if shape != model.dims:
            raise ValueError(f"{name} has shape {shape}, the model {model.dims}")
    # The slice-major view of x0, made once: every forward pass takes it
    # without a copy.
    xs = np.moveaxis(np.ascontiguousarray(np.moveaxis(x0, 2, 0)), 0, 2)
    params = init_weights(xs.shape[2], cfg)
    state = AdamState.zeros(params.weights())
    history = []
    steps = cfg.t_max * cfg.inner_steps
    # steps counts the gradient steps still to come: the last pass only
    # gives the estimate, so it starts no SVDs.
    ahead = _ForwardPass(xs, params, cfg.lam if steps else 0.0)
    try:
        for it in range(cfg.t_max):
            old = params.weights()
            for _ in range(cfg.inner_steps):
                loss, grads = loss_and_grad(xs, params, model, cfg, admm, ahead=ahead)
                new, state = adam_step(params.weights(), grads, state, cfg)
                params = params.with_weights(new)
                steps -= 1
                ahead = _ForwardPass(xs, params, cfg.lam if steps else 0.0)
            rel_v = 0.0
            if admm is not None:
                v1, v2 = v_update(ahead.x, admm, cfg)
                rel_v = _rel_change([v1, v2], [admm.v1, admm.v2])
                admm.v1, admm.v2 = v1, v2
                admm.l1, admm.l2 = multiplier_update(admm, ahead.x, cfg)
            history.append(Diagnostics(it, _rel_change(params.weights(), old), rel_v, loss))
    finally:
        ahead.close()  # no chunk outlives the solve; the tapes are freed before assemble
    if history and history[-1].loss.total > history[0].loss.total:
        warnings.warn("loss increased over the run", RuntimeWarning)
    x = assemble(ahead.x, model).x
    return x, params, history


@single_thread()
def solve_ssnt(model, cfg, x0=None):
    """Train the transform pair with plain Adam (no TV term).

    ``x0`` overrides the problem initializer feeding the network; one
    whose shape is not ``model.dims`` raises ``ValueError`` before any
    work.
    Returns the assembled estimate, the trained parameters and the
    per-iteration diagnostics.  Warns (does not fail) when the final
    loss exceeds the initial one.  ``cfg.inner_steps`` must be 1: inner
    steps belong to the TV solver.
    """
    if cfg.inner_steps != 1:
        raise ValueError(
            f"inner_steps={cfg.inner_steps} needs the TV solver; the plain solver "
            "takes one Adam step per iteration"
        )
    return _solve(model, cfg, init_observation(model) if x0 is None else x0, None)


@single_thread()
def solve_ssnt_tv(model, cfg, x0=None, admm0=None):
    """TV-regularized solve (ADMM-style outer loop).

    Initialization: splitting variables start at the spatial differences
    of the initialized observation, multipliers at zero (``admm0``
    overrides this and is updated in place, so it ends holding the
    final state; each of its arrays must have shape ``model.dims``, as
    ``x0`` must).  Each outer iteration runs ``inner_steps`` Adam steps
    on the augmented objective, then the splitting update, then the
    multiplier update.  Diagnostics record the summed relative changes
    of the weights and of the splitting variables per outer iteration.
    """
    if x0 is None:
        x0 = init_observation(model)
    admm = admm0 if admm0 is not None else AdmmState(
        v1=diff_p(x0, 1),
        v2=diff_p(x0, 2),
        l1=np.zeros(x0.shape),
        l2=np.zeros(x0.shape),
    )
    return _solve(model, cfg, x0, admm)
