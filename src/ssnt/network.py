"""Nonlinear mode-3 transform network.

The transform ``f`` is a stack of nonlinear mode-3 fully connected
layers ``x -> act(x x3 W)`` mapping the third-mode length ``n3`` up to a
working width, and ``g`` is a second stack mapping back down to ``n3``.
Both are trained self-supervised on a single observed tensor by
minimizing a weighted sum of the nuclear norms of the transformed
frontal slices plus a data-fidelity term; the reconstruction is
``g(f(obs))``.

:func:`init_weights` builds the pair from a solve config alone:
``cfg.p`` layers ``n3 -> width -> ... -> width`` and ``cfg.q`` layers
``width -> ... -> width -> n3``, all with ``cfg.activation``.

Gradients are hand-written reverse mode.  The nuclear-norm term is
back-propagated through its subgradient ``U_r @ V_r.T`` built from the
singular vectors of each slice (singular values below
``EPS_RANK * sigma_max`` truncated); the truncated factors are treated
as constants of the step.

The hot path holds tensors slice-major (:class:`SliceStack`): a layer
is one ``W @ X`` on a ``(channels, n1*n2)`` matrix and the transformed
slices form one contiguous ``(width, n1, n2)`` stack for the batched
SVD.  The forward tape holds each layer's slice-major input and
pre-activation matrices, the form the backward pass consumes.  The SVD
stack runs in chunks on ``max(1, cpus // blas_threads)`` threads,
where ``blas_threads`` is what BLAS reads from
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` (all usable cpus when
neither is set), so BLAS's own threads are never oversubscribed.
Results do not depend on the thread count.
"""

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .tensors import EPS_RANK, diff_p, diff_p_adj
from .problems import fidelity


@dataclass(frozen=True)
class Activation:
    """Elementwise activation: ``identity``, ``relu`` or ``leaky_relu``."""

    kind: str = "leaky_relu"
    slope: float = 0.01

    def __post_init__(self):
        if self.kind not in ("identity", "relu", "leaky_relu"):
            raise ValueError(
                f"activation must be identity, relu or leaky_relu, got {self.kind!r}"
            )
        if self.kind == "leaky_relu" and not 0.0 < self.slope < 1.0:
            raise ValueError(f"slope must lie in (0, 1) for leaky_relu, got {self.slope!r}")

    def apply(self, z):
        if self.kind == "identity":
            return z
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        # Equals where(z > 0, z, slope * z) because 0 < slope < 1.
        return np.maximum(z, self.slope * z)

    def backprop(self, z, g):
        """Cotangent at the pre-activation ``z`` from the cotangent ``g``
        at the output (subgradient 0 at relu kinks)."""
        if self.kind == "identity":
            return g
        if self.kind == "relu":
            return g * (z > 0.0)
        return np.where(z > 0.0, g, self.slope * g)


@dataclass
class Layer:
    weight: np.ndarray  # (out_dim, in_dim), acts on mode-3 tubes
    activation: Activation


@dataclass
class NetworkParams:
    """Weights and activations of the forward stack ``f`` and the
    inverse-role stack ``g``.  ``f`` maps third-mode length n3 to the
    working width and ``g`` maps it back."""

    f_layers: list = field(default_factory=list)
    g_layers: list = field(default_factory=list)

    def weights(self):
        """All weight matrices, f stack first then g stack."""
        return [lay.weight for lay in self.f_layers + self.g_layers]

    def with_weights(self, weights):
        """Copy of the params with the given weight matrices substituted."""
        n_f = len(self.f_layers)
        f_new = [Layer(w, lay.activation) for w, lay in zip(weights[:n_f], self.f_layers)]
        g_new = [Layer(w, lay.activation) for w, lay in zip(weights[n_f:], self.g_layers)]
        return NetworkParams(f_new, g_new)


@dataclass
class LossBreakdown:
    l1_lowrank: float
    l2_fidelity: float
    tv_penalty: float = 0.0

    @property
    def total(self):
        return self.l1_lowrank + self.l2_fidelity + self.tv_penalty


def init_weights(n3, cfg):
    """The f and g stacks of a solve config for third-mode length ``n3``.

    The layers run ``n3 -> width -> ... -> width -> n3``: ``cfg.p`` of
    them in f and ``cfg.q`` in g, with ``width = cfg.width`` or twice
    ``n3`` when that is ``None``.  Each weight is drawn in layer order
    from one generator seeded with ``cfg.seed``, uniformly from
    ``+-sqrt(6 / (in_dim + out_dim))``.
    """
    if n3 < 1:
        raise ValueError(f"third-mode length must be positive, got {n3}")
    width = cfg.width if cfg.width is not None else 2 * n3
    act = Activation(cfg.activation, cfg.slope)
    dims = [n3] + [width] * (cfg.p + cfg.q - 1) + [n3]
    rng = np.random.default_rng(cfg.seed)
    layers = []
    for d_in, d_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        layers.append(Layer(rng.uniform(-bound, bound, size=(d_out, d_in)), act))
    return NetworkParams(layers[: cfg.p], layers[cfg.p:])


@dataclass(frozen=True)
class SliceStack:
    """A tensor held slice-major: ``data[k]`` is frontal slice ``k``
    flattened row-major, so ``data`` is ``(n3, n1*n2)`` and a mode-3
    product is the single matmul ``W @ data``."""

    data: np.ndarray
    n1: int
    n2: int

    @classmethod
    def from_tensor(cls, t):
        t = np.asarray(t)
        if t.ndim != 3:
            raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
        n1, n2, n3 = t.shape
        return cls(np.ascontiguousarray(np.moveaxis(t, 2, 0)).reshape(n3, n1 * n2), n1, n2)

    @property
    def channels(self):
        return self.data.shape[0]

    def like(self, data):
        """A stack of the same spatial size holding ``data``."""
        return SliceStack(data, self.n1, self.n2)

    def slices(self):
        """The ``(n3, n1, n2)`` view of the frontal slices."""
        return self.data.reshape(-1, self.n1, self.n2)

    def to_tensor(self):
        """The ``(n1, n2, n3)`` tensor, C-contiguous."""
        return np.ascontiguousarray(self.slices().transpose(1, 2, 0))


def _as_stack(t):
    return t if isinstance(t, SliceStack) else SliceStack.from_tensor(t)


def _run_stack(t, layers):
    """Run a layer stack on a tensor or a :class:`SliceStack`.  The
    result comes back in the input's form; the tape holds each layer's
    slice-major (input, pre-activation) matrices."""
    xs = _as_stack(t)
    if layers and xs.channels != layers[0].weight.shape[1]:
        raise ValueError("input third-mode length does not match the first layer")
    tape = []
    x = xs.data
    for lay in layers:
        z = lay.weight @ x
        tape.append((x, z))
        x = lay.activation.apply(z)
    out = xs.like(x)
    return (out if isinstance(t, SliceStack) else out.to_tensor()), tape


def forward_f(t, params):
    """Apply the forward transform; returns the transformed tensor and
    the tape of cached slice-major (input, pre-activation) matrices
    needed for reverse mode.  ``t`` is an ``(n1, n2, n3)`` tensor or a
    :class:`SliceStack`; the result comes back in the same form."""
    return _run_stack(t, params.f_layers)


def forward_g(t, params):
    """Apply the inverse-role transform (same contract as :func:`forward_f`)."""
    return _run_stack(t, params.g_layers)


def _backward_stack(layers, tape, cotangent, input_grad=True):
    """Reverse through a slice-major stack, consuming its tape.  Returns
    per-layer weight gradients and the cotangent with respect to the
    stack input (``None`` when ``input_grad`` is false)."""
    grads = [None] * len(layers)
    g = cotangent
    for i in range(len(layers) - 1, -1, -1):
        x_in, z = tape.pop()  # frees each layer's cache once it is used
        dz = layers[i].activation.backprop(z, g)
        grads[i] = dz @ x_in.T
        g = layers[i].weight.T @ dz if i or input_grad else None
    return grads, g


def _lowrank_workers():
    """``max(1, cpus // blas_threads)``; see the module docstring."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blas = cpus
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        # BLAS takes the leading integer and skips unset or non-positive values.
        m = re.match(r"\s*\+?(\d+)", os.environ.get(name, ""))
        if m and int(m.group(1)) > 0:
            blas = int(m.group(1))
            break
    return max(1, cpus // blas)


_LOWRANK_WORKERS = _lowrank_workers()
# Matrix entries per SVD chunk (512 KB of float64), which bounds the
# U/Vh temporaries each worker holds.
_CHUNK_ENTRIES = 1 << 16
# Worker pools live for the process: starting one per call costs about
# 0.4 ms, a few percent of a small iteration.
_EXECUTORS = {}
if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's worker threads.
    os.register_at_fork(after_in_child=_EXECUTORS.clear)


def _subgrad_chunk(stack, sub, norms, lo, hi):
    """Fill ``sub[lo:hi]`` and ``norms[lo:hi]`` for ``stack[lo:hi]``.  A
    matrix that keeps all its singular vectors takes ``u @ vh``; any
    other is recomputed from its kept vectors alone, or set to zero."""
    u, s, vh = np.linalg.svd(stack[lo:hi], full_matrices=False)
    norms[lo:hi] = s.sum(axis=-1)
    np.matmul(u, vh, out=sub[lo:hi])
    top = s[:, 0]
    keep = s > EPS_RANK * top[:, None]
    for k in np.flatnonzero(~keep.all(axis=1) | (top <= 0.0)):
        if top[k] <= 0.0:
            sub[lo + k] = 0.0
        else:
            sub[lo + k] = u[k][:, keep[k]] @ vh[k][keep[k], :]


def _lowrank_chunks(stack, workers):
    """Subgradients and nuclear norms of every matrix of a ``(K, r, c)``
    stack, split into contiguous chunks run on ``workers`` threads.
    Each matrix is computed the same way whatever the chunking, so the
    results do not depend on ``workers``."""
    k = stack.shape[0]
    sub = np.empty(stack.shape, dtype=np.result_type(stack.dtype, np.float64))
    norms = np.empty(k)
    per_chunk = max(1, _CHUNK_ENTRIES // (stack.shape[1] * stack.shape[2]))
    n = min(k, max(-(-k // per_chunk), workers))
    edges = [k * i // n for i in range(n + 1)]
    bounds = list(zip(edges[:-1], edges[1:]))
    if workers == 1 or n == 1:
        for lo, hi in bounds:
            _subgrad_chunk(stack, sub, norms, lo, hi)
        return sub, norms
    pool = _EXECUTORS.get(workers)
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor  # only multi-core runs pay its import

        pool = _EXECUTORS[workers] = ThreadPoolExecutor(workers, thread_name_prefix="ssnt-svd")
    for job in [pool.submit(_subgrad_chunk, stack, sub, norms, lo, hi) for lo, hi in bounds]:
        job.result()
    return sub, norms


def nuclear_subgrad(m):
    """Subgradient ``U_r @ V_r.T`` of the nuclear norm at ``m``, or at
    every matrix of a stack ``m[..., :, :]``, and the nuclear norms
    (shape ``m.shape[:-2]``).

    ``U_r, V_r`` keep the singular vectors whose singular values exceed
    ``EPS_RANK`` times the largest one; a zero matrix maps to a zero
    matrix.
    """
    m = np.asarray(m)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    if m.size == 0:
        return np.zeros(m.shape, np.result_type(m.dtype, np.float64)), np.zeros(m.shape[:-2])
    sub, norms = _lowrank_chunks(m.reshape((-1,) + m.shape[-2:]), _LOWRANK_WORKERS)
    return sub.reshape(m.shape), norms.reshape(m.shape[:-2])


def loss_and_grad(obs, params, model, cfg, admm=None):
    """Loss and exact reverse-mode weight gradients at ``params``.

    ``obs`` is the (already initialized) network input, a tensor or a
    :class:`SliceStack` (solvers convert it once per solve); the
    fidelity term compares the reconstruction ``g(f(obs))`` against the
    measurement held by ``model``.  With an ADMM state the quadratic
    penalty ``beta/2 * sum_p ||diff_p(x) - V_p + L_p/beta||_F^2`` is
    added and reported as ``tv_penalty``.

    Returns ``(LossBreakdown, grads)`` where ``grads`` aligns with
    ``params.weights()``.  A non-finite loss aborts with ``FloatingPointError``.
    """
    xs = _as_stack(obs)
    y, tape_f = forward_f(xs, params)
    x, tape_g = forward_g(y, params)
    x = x.to_tensor()
    if not (np.isfinite(y.data).all() and np.isfinite(x).all()):
        raise FloatingPointError("non-finite network output; check weights and input")

    lam = cfg.lam
    l1 = 0.0
    sub = None
    if lam > 0.0:
        sub, norms = nuclear_subgrad(y.slices())
        for v in norms.tolist():  # summed in slice order
            l1 += lam * v

    l2, g_x = fidelity(x, model)

    tv = 0.0
    if admm is not None:
        beta = cfg.beta
        for p, v_p, l_p in ((1, admm.v1, admm.l1), (2, admm.v2, admm.l2)):
            r = diff_p(x, p) - v_p + l_p / beta
            tv += 0.5 * beta * float(np.vdot(r, r).real)
            g_x = g_x + beta * diff_p_adj(r, p)

    loss = LossBreakdown(l1, l2, tv)
    if not np.isfinite(loss.total):
        raise FloatingPointError(
            f"non-finite loss: lowrank={l1!r} fidelity={l2!r} tv={tv!r}"
        )

    del x, y  # dropped before the backward pass to lower peak memory
    g_x = SliceStack.from_tensor(g_x).data
    grads_g, g_y = _backward_stack(params.g_layers, tape_g, g_x)
    del g_x
    if sub is not None:
        sub *= lam
        g_y += sub.reshape(g_y.shape)
    grads_f, _ = _backward_stack(params.f_layers, tape_f, g_y, input_grad=False)
    return loss, grads_f + grads_g


def reconstruct(obs, params):
    """Reconstruction ``g(f(obs))`` for a tensor or a :class:`SliceStack`,
    returned in the same form."""
    y, _ = forward_f(_as_stack(obs), params)
    x, _ = forward_g(y, params)
    return x if isinstance(obs, SliceStack) else x.to_tensor()
