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

Every function takes and returns plain ``(n1, n2, c)`` arrays.  The
hot path holds them slice-major: a layer is one ``W @ X`` on the
C-contiguous ``(c, n1*n2)`` matrix whose row ``k`` is frontal slice
``k``.  :func:`forward_f` returns the ``(n1, n2, width)`` view of its
output matrix, so ``f``'s output enters ``g`` without a copy and
``np.moveaxis(y, 2, 0)`` is the contiguous ``(width, n1, n2)`` stack
the batched SVD takes; :func:`forward_g` and :func:`reconstruct`
return C-ordered arrays.  The forward tape is the slice-major stack
input, then each layer's output: activation derivatives are read off
the outputs.  The SVD stack runs in chunks on
``max(1, cpus // blas_threads)`` threads, where ``blas_threads`` is
what BLAS reads from ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``
(all usable cpus when neither is set), so BLAS's own threads are never
oversubscribed.  Results do not depend on the thread count.
"""

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .tensors import EPS_RANK, diff_p, diff_p_adj, sum_squares
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

    def backprop(self, out, g):
        """Cotangent at the pre-activation from ``g`` at the output ``out``,
        which is > 0 exactly where the pre-activation is (0 at relu kinks)."""
        if self.kind == "identity":
            return g
        if self.kind == "relu":
            return g * (out > 0.0)
        return np.where(out > 0.0, g, self.slope * g)


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


def _slices(t):
    """The C-contiguous ``(c, n1*n2)`` matrix of an ``(n1, n2, c)``
    tensor: row ``k`` is frontal slice ``k`` flattened row-major.  No
    copy is made when ``t`` is already a view of such a matrix."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    n1, n2, c = t.shape
    return np.ascontiguousarray(np.moveaxis(t, 2, 0)).reshape(c, n1 * n2)


def _tensor(m, n1, n2):
    """The ``(n1, n2, c)`` view of a slice-major ``(c, n1*n2)`` matrix."""
    return np.moveaxis(m.reshape(-1, n1, n2), 0, 2)


def _run_stack(t, layers):
    """Run a layer stack on an ``(n1, n2, c)`` tensor.  Returns the
    output as a view of slice-major memory and the tape: the stack's
    slice-major input matrix, then each layer's output matrix."""
    x = _slices(t)
    if layers and x.shape[0] != layers[0].weight.shape[1]:
        raise ValueError("input third-mode length does not match the first layer")
    tape = [x]
    for lay in layers:
        x = lay.activation.apply(lay.weight @ x)
        tape.append(x)
    n1, n2 = np.shape(t)[:2]
    return _tensor(x, n1, n2), tape


def forward_f(t, params):
    """Apply the forward transform; returns the transformed tensor and
    the tape of ``len(params.f_layers) + 1`` slice-major matrices that
    reverse mode consumes.  ``t`` is an ``(n1, n2, n3)`` tensor; the
    result is an ``(n1, n2, width)`` view of slice-major memory, which
    :func:`forward_g` takes without a copy."""
    return _run_stack(t, params.f_layers)


def forward_g(t, params):
    """Apply the inverse-role transform; as :func:`forward_f`, but C-ordered."""
    x, tape = _run_stack(t, params.g_layers)
    return np.ascontiguousarray(x), tape


def _backward_stack(layers, tape, cotangent, input_grad=True):
    """Reverse through a slice-major stack, consuming its tape.  Returns
    per-layer weight gradients and the cotangent with respect to the
    stack input (``None`` when ``input_grad`` is false)."""
    grads = [None] * len(layers)
    g = cotangent
    out = tape.pop()
    for i in range(len(layers) - 1, -1, -1):
        dz = layers[i].activation.backprop(out, g)
        out = tape.pop()  # layer i's input; its output is freed once used
        grads[i] = dz @ out.T
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

    ``obs`` is the (already initialized) ``(n1, n2, n3)`` network input;
    a view of slice-major memory (solvers make one per solve) enters
    ``f`` without a copy.  The fidelity term compares the reconstruction
    ``g(f(obs))`` against the measurement held by ``model``.  With an
    ADMM state the quadratic penalty
    ``beta/2 * sum_p ||diff_p(x) - V_p + L_p/beta||_F^2`` is added and
    reported as ``tv_penalty``.

    Returns ``(LossBreakdown, grads)`` where ``grads`` aligns with
    ``params.weights()``.  A non-finite loss aborts with ``FloatingPointError``.
    """
    y, tape_f = forward_f(obs, params)
    x, tape_g = forward_g(y, params)
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise FloatingPointError("non-finite network output; check weights and input")

    lam = cfg.lam
    l1 = 0.0
    sub = None
    if lam > 0.0:
        sub, norms = nuclear_subgrad(np.moveaxis(y, 2, 0))
        for v in norms.tolist():  # summed in slice order
            l1 += lam * v

    l2, g_x = fidelity(x, model)

    tv = 0.0
    if admm is not None:
        beta = cfg.beta
        for p, v_p, l_p in ((1, admm.v1, admm.l1), (2, admm.v2, admm.l2)):
            r = diff_p(x, p) - v_p + l_p / beta
            tv += 0.5 * beta * sum_squares(r)
            g_x = g_x + beta * diff_p_adj(r, p)

    loss = LossBreakdown(l1, l2, tv)
    if not np.isfinite(loss.total):
        raise FloatingPointError(
            f"non-finite loss: lowrank={l1!r} fidelity={l2!r} tv={tv!r}"
        )

    del x, y  # x is freed before the backward pass; y lives on in the tapes
    g_x = _slices(g_x)
    grads_g, g_y = _backward_stack(params.g_layers, tape_g, g_x)
    del g_x
    if sub is not None:
        sub *= lam
        g_y += sub.reshape(g_y.shape)
    grads_f, _ = _backward_stack(params.f_layers, tape_f, g_y, input_grad=False)
    return loss, grads_f + grads_g


def reconstruct(obs, params):
    """Reconstruction ``g(f(obs))``, C-ordered."""
    y, _ = forward_f(obs, params)
    x, _ = forward_g(y, params)
    return x
