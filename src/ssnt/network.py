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
singular vectors of each slice (singular values not above
``EPS_RANK * sigma_max`` truncated, so a zero slice keeps none and its
subgradient is zero); the truncated factors are treated as constants
of the step.

Every function takes and returns plain ``(n1, n2, c)`` arrays.  The
hot path holds them slice-major: a layer is one ``W @ X`` on the
C-contiguous ``(c, n1*n2)`` matrix whose row ``k`` is frontal slice
``k``.  :func:`forward_f` returns the ``(n1, n2, width)`` view of its
output matrix, so ``f``'s output enters ``g`` without a copy and
``np.moveaxis(y, 2, 0)`` is the contiguous ``(width, n1, n2)`` stack
the batched SVD takes; :func:`forward_g` and :func:`reconstruct`
return C-ordered arrays.  The forward tape is the slice-major stack
input, then each layer's output: activation derivatives are read off
the outputs.  Every stack run checks its output: NaN or inf raises
``FloatingPointError`` from :func:`forward_f`, :func:`forward_g`,
:func:`reconstruct` and :func:`loss_and_grad` alike.

This module holds the library's whole thread policy; it has no option:

* BLAS runs on one thread.  Every public function here, and every
  solve, runs in :func:`single_thread`, a process-wide, re-entrant
  scope whose outermost exit, returning or raising, restores the
  caller's count.
* The work runs on the library's own pool of one thread per usable
  cpu.  One rule cuts every pool job into fixed blocks, started and
  joined together: a layer product's ``W @ X``, activation, derivative
  and ``W.T @ dZ`` by columns and its weight gradient ``dZ @ X.T`` by
  rows of ``dZ``, so that each entry keeps its whole reduction, and the
  SVD job by matrices.  A job runs whole on the calling thread unless
  every block does enough work to pay for the pool, the pool has more
  than one thread and no job this thread started is pending: queued
  behind those blocks, the job would leave this thread idle, and
  running it here makes 128x128x31 completion steps 2-5% faster on two
  cores.  The blocks do not depend on the thread count, so neither do
  the bytes.
* When :func:`controls` finds no OpenBLAS thread setter, the scope does
  nothing, BLAS keeps its own count and the pool has one thread: every
  job runs on the calling thread.

A training step's forward pass runs ``f``, starts the SVD job and runs
``g``; :func:`loss_and_grad` runs the fidelity and TV terms and ``g``'s
backward pass before it joins the SVDs.  The solvers build each step's
pass right after the Adam step that fixes its weights, so the TV
update reads its ``x`` while the SVDs run.
"""

import contextlib
import contextvars
import ctypes
import functools
import math
import os
import threading
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

    def apply_in_place(self, z):
        """Overwrite the float64 array ``z`` with ``act(z)`` and return it."""
        if self.kind == "relu":
            np.maximum(z, 0.0, out=z)
        elif self.kind == "leaky_relu":
            # Equals where(z > 0, z, slope * z) because 0 < slope < 1.
            np.maximum(z, np.multiply(z, self.slope), out=z)
        return z

    def backprop_in_place(self, out, g):
        """Overwrite the float64 array ``g``, the cotangent at the output
        ``out``, with the cotangent at the pre-activation and return it;
        ``out`` is > 0 exactly where the pre-activation is (0 at relu
        kinks)."""
        if self.kind == "relu":
            np.multiply(g, out > 0.0, out=g)
        elif self.kind == "leaky_relu":
            # The factor is 1.0 where out > 0 and slope elsewhere, so g
            # gets the bytes of where(out > 0, g, slope * g): (1 - s) + s
            # rounds to exactly 1.0 for every double s in (0, 1).  For
            # s >= 1/2, 1 - s is exact (Sterbenz).  For s < 1/2,
            # fl(1 - s) = 1 - s + e with |e| <= ulp(1/2)/2 = 2**-54, so the
            # sum is the rounding of 1 + e; the doubles next to 1 are
            # 1 - 2**-53 and 1 + 2**-52, so 1 + e rounds to 1, at the tie
            # e = -2**-54 by round-half-even.
            fac = np.multiply(out > 0.0, 1.0 - self.slope)
            fac += self.slope
            g *= fac
        return g


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


# (prefix, suffix) of OpenBLAS's thread-count functions: numpy 2's
# scipy-openblas wheels, older numpy wheels, then plain builds.
_BLAS_NAMES = (("scipy_", "64_"), ("", "64_"), ("", ""))
# The single_thread scope: its depth over all threads, and the counts
# the outermost entry saved.
_BLAS_LOCK = threading.Lock()
_blas_depth = 0
_blas_saved = []


@functools.cache
def controls():
    """``(get, set)`` pairs of the thread counts of every OpenBLAS among
    the shared objects mapped into the process, found through ``ctypes``;
    empty when there is none or its functions cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in os.path.basename(line.split()[-1]).lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _BLAS_NAMES:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def single_thread():
    """Run the body, or the decorated function, with BLAS on one thread;
    see the module docstring."""
    global _blas_depth, _blas_saved
    libs = controls()
    with _BLAS_LOCK:
        if _blas_depth == 0:
            _blas_saved = [get() for get, _ in libs]
            for _, put in libs:
                put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, put), count in zip(libs, _blas_saved):
                    put(count)


def _worker_count():
    """Threads of the worker pool; see the module docstring."""
    if not controls():
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_WORKERS = None  # _worker_count(), taken on first use
# A layer product runs on the pool in blocks of _BLOCK_COLS columns of
# its right-hand matrix, or, for a weight gradient dZ @ X.T, of
# _BLOCK_ROWS rows of dZ, and the SVD job in blocks of _BLOCK_MATRICES
# matrices.  Blocks start at multiples of 64 columns and of 4 rows, and
# each does at least _BLOCK_WORK multiply-adds: OpenBLAS takes other
# kernels, which round differently, for block edges off those multiples
# and for products of at most 1e6 multiply-adds, and smaller jobs do not
# pay for the pool's hand-offs.
_BLOCK_COLS = 2048
_BLOCK_ROWS = 32
_BLOCK_MATRICES = 8
_BLOCK_WORK = 1 << 21
# Worker pools live for the process: starting one per call costs about
# 0.4 ms, a few percent of a small iteration.
_EXECUTORS = {}
if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's worker threads.
    os.register_at_fork(after_in_child=_EXECUTORS.clear)
# Whether jobs this thread started are pending on the pool; its other
# jobs then run whole on this thread rather than queue behind them.
_HELD = threading.local()


def _workers():
    global _WORKERS
    if _WORKERS is None:
        _WORKERS = _worker_count()
    return _WORKERS


def _blocks(n, step, work):
    """Bounds of the blocks of ``range(n)`` a pool job runs in: ``step``
    indices each, a short last one joined to the block before it, when
    every block does at least ``_BLOCK_WORK`` multiply-adds at ``work``
    per index, the pool has more than one thread and it is free; else
    the whole range.  The bounds never depend on the number of
    workers."""
    if n <= step or step * work < _BLOCK_WORK or _workers() == 1 or getattr(_HELD, "pool", False):
        return [(0, n)]
    starts = list(range(0, n, step))
    if (n - starts[-1]) * work < _BLOCK_WORK:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _start(*parts):
    """Start ``fn(lo, hi)`` for every block of every ``(fn, blocks)`` part
    and return the join, which waits for every block and then raises the
    first failure.  When no part splits (as on a pool of one thread), the
    blocks run here before this returns.  Otherwise each runs on the pool
    in a copy of this thread's context, so that numpy's error state
    carries over, and until the join this thread holds the pool."""
    jobs = [(fn, lo, hi) for fn, blocks in parts for lo, hi in blocks]
    if all(len(blocks) == 1 for _, blocks in parts):
        for fn, lo, hi in jobs:
            fn(lo, hi)
        return lambda: None
    workers = _workers()
    pool = _EXECUTORS.get(workers)
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor  # only multi-core runs pay its import

        pool = _EXECUTORS[workers] = ThreadPoolExecutor(workers, thread_name_prefix="ssnt-worker")
    jobs = [pool.submit(contextvars.copy_context().run, *job) for job in jobs]
    _HELD.pool = True

    def join():
        try:
            for job in jobs:
                job.exception()  # waits; a failed job still lets the others finish
        finally:
            _HELD.pool = False
        for job in jobs:
            job.result()

    return join


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
    slice-major input matrix, then each layer's output matrix.  An
    output holding NaN or inf raises ``FloatingPointError``."""
    x = _slices(t)
    if layers and x.shape[0] != layers[0].weight.shape[1]:
        raise ValueError("input third-mode length does not match the first layer")
    tape = [x]
    n = x.shape[1]
    for lay in layers:
        w, act = lay.weight, lay.activation
        z = np.empty((w.shape[0], n), dtype=np.result_type(w, x))
        _start((lambda lo, hi: act.apply_in_place(np.matmul(w, x[:, lo:hi], out=z[:, lo:hi])),
                _blocks(n, _BLOCK_COLS, w.size)))()
        x = z
        tape.append(x)
    if not np.isfinite(x).all():
        raise FloatingPointError("non-finite network output; check weights and input")
    n1, n2 = np.shape(t)[:2]
    return _tensor(x, n1, n2), tape


@single_thread()
def forward_f(t, params):
    """Apply the forward transform; returns the transformed tensor and
    the tape of ``len(params.f_layers) + 1`` slice-major matrices that
    reverse mode consumes.  ``t`` is an ``(n1, n2, n3)`` tensor; the
    result is an ``(n1, n2, width)`` view of slice-major memory, which
    :func:`forward_g` takes without a copy.  A result holding NaN or inf
    raises ``FloatingPointError``."""
    return _run_stack(t, params.f_layers)


@single_thread()
def forward_g(t, params):
    """Apply the inverse-role transform; as :func:`forward_f`, but C-ordered."""
    x, tape = _run_stack(t, params.g_layers)
    return np.ascontiguousarray(x), tape


def _backward_stack(layers, tape, cotangent, input_grad=True):
    """Reverse through a slice-major stack, consuming its tape and
    writing over ``cotangent``, which the caller gives up.  Returns
    per-layer weight gradients and the cotangent with respect to the
    stack input (``None`` when ``input_grad`` is false)."""
    grads = [None] * len(layers)
    dz = cotangent
    n = dz.shape[1]
    out = tape.pop()
    if layers:
        act = layers[-1].activation
        _start((lambda lo, hi: act.backprop_in_place(out[:, lo:hi], dz[:, lo:hi]),
                _blocks(n, _BLOCK_COLS, layers[-1].weight.size)))()
    for i in range(len(layers) - 1, -1, -1):
        w = layers[i].weight
        out = tape.pop()  # layer i's input; its output is freed before the next cotangent exists
        gw = grads[i] = np.empty(w.shape, dtype=np.result_type(dz, out))
        parts = [(lambda lo, hi: np.matmul(dz[lo:hi], out.T, out=gw[lo:hi]),
                  _blocks(w.shape[0], _BLOCK_ROWS, w.shape[1] * n))]
        g = None
        if i or input_grad:
            g = np.empty((w.shape[1], n), dtype=np.result_type(w, dz))
            act = layers[i - 1].activation if i else None

            def cotangent_block(lo, hi):
                np.matmul(w.T, dz[:, lo:hi], out=g[:, lo:hi])
                if act is not None:  # layer i - 1's derivative, on the block just written
                    act.backprop_in_place(out[:, lo:hi], g[:, lo:hi])

            parts.append((cotangent_block, _blocks(n, _BLOCK_COLS, w.size)))
        _start(*parts)()
        dz = g
    return grads, dz


def _subgrad_chunk(stack, sub, norms, lo, hi):
    """Fill ``sub[lo:hi]`` and ``norms[lo:hi]`` for ``stack[lo:hi]``.  A
    matrix that keeps all its singular vectors takes ``u @ vh``; any
    other is recomputed from its kept vectors alone.  A zero matrix
    keeps none, so it gets the empty product: zero."""
    u, s, vh = np.linalg.svd(stack[lo:hi], full_matrices=False)
    norms[lo:hi] = s.sum(axis=-1)
    np.matmul(u, vh, out=sub[lo:hi])
    keep = s > EPS_RANK * s[:, :1]
    for k in np.flatnonzero(~keep.all(axis=1)):
        sub[lo + k] = u[k][:, keep[k]] @ vh[k][keep[k], :]


def _lowrank_chunks(stack):
    """Start the subgradients and nuclear norms of every matrix of a
    ``(K, r, c)`` stack in the blocks of :func:`_blocks`, and return the
    join, which waits for them and returns ``(sub, norms)``.  Each matrix
    is computed the same way in any block, so the results do not depend
    on the pool.  Until the join, ``stack`` must not be written nor the
    results read."""
    k, r, c = stack.shape
    sub = np.empty(stack.shape, dtype=np.result_type(stack.dtype, np.float64))
    norms = np.zeros(k)
    # An r x c matrix's thin SVD and u @ vh count as 16 r c min(r, c)
    # multiply-adds, a little above LAPACK's count (and slower per add).
    join = _start((functools.partial(_subgrad_chunk, stack, sub, norms),
                   _blocks(k, _BLOCK_MATRICES, 16 * r * c * min(r, c))))
    return lambda: join() or (sub, norms)  # the join returns None


def _no_chunks():
    """The join of a pass with lam = 0, which starts no SVD job: no
    subgradient and no nuclear norms."""
    return None, np.zeros(0)


@single_thread()
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
    stack = m.reshape((math.prod(m.shape[:-2]),) + m.shape[-2:])
    sub, norms = _lowrank_chunks(stack)()
    return sub.reshape(m.shape), norms.reshape(m.shape[:-2])


class _ForwardPass:
    """``f`` and ``g`` run once at fixed weights, with the SVD chunks of
    the low-rank step started on ``f``'s output when ``lam > 0``.  ``x``
    is the C-ordered reconstruction ``g(f(obs))``; it may be read until
    :func:`loss_and_grad` takes the pass as ``ahead``, once, at the same
    ``obs``, ``params`` and ``lam``.  A pass that is not taken must be
    closed: :meth:`close` waits for its chunks and frees its tapes."""

    def __init__(self, obs, params, lam):
        self._key = (obs, params, lam)
        y, self._tape_f = forward_f(obs, params)
        # With lam = 0 the low-rank term is 0: start nothing.
        self._join = _lowrank_chunks(np.moveaxis(y, 2, 0)) if lam > 0.0 else _no_chunks
        try:
            self.x, self._tape_g = forward_g(y, params)
        except BaseException:
            self.close()
            raise

    def close(self):
        """Wait for the chunks unless they were taken or waited for
        already, and free the tapes; ``x`` stays readable, and the pass
        can no longer be taken."""
        join, self._join = self._join, None
        self._key = self._tape_f = self._tape_g = None
        if join is not None:
            join()

    def take(self, obs, params, lam):
        """Hand over f's tape, ``x``, g's tape and the join of the chunks,
        and keep no reference to them.  A pass built at other inputs is
        closed; it, and a pass already taken or closed, raise
        ``ValueError``."""
        key, self._key = self._key, None
        if key is None:
            raise ValueError("this forward pass was already used or closed")
        if key[0] is not obs or key[1] is not params or key[2] != lam:
            self.close()
            raise ValueError("this forward pass was built at other obs, params or lam")
        out = self._tape_f, self.x, self._tape_g, self._join
        self._tape_f = self.x = self._tape_g = self._join = None
        return out


@single_thread()
def loss_and_grad(obs, params, model, cfg, admm=None, *, ahead=None):
    """Loss and exact reverse-mode weight gradients at ``params``.

    ``obs`` is the (already initialized) ``(n1, n2, n3)`` network input;
    a view of slice-major memory (solvers make one per solve) enters
    ``f`` without a copy.  The fidelity term compares the reconstruction
    ``g(f(obs))`` against the measurement held by ``model``.  With an
    ADMM state the quadratic penalty
    ``beta/2 * sum_p ||diff_p(x) - V_p + L_p/beta||_F^2`` is added and
    reported as ``tv_penalty``.

    The low-rank step depends on ``f(obs)`` alone: its SVD chunks are
    started right after ``f`` and joined after ``g``'s backward pass, on
    every exit.  ``ahead`` is a forward pass the solvers ran at these
    ``obs``, ``params`` and ``cfg.lam`` already; it is used once, and
    one built at other inputs, or used before, raises ``ValueError``.

    Returns ``(LossBreakdown, grads)`` where ``grads`` aligns with
    ``params.weights()``.  A non-finite network output or loss aborts
    with ``FloatingPointError``.
    """
    lam = cfg.lam
    if ahead is None:
        ahead = _ForwardPass(obs, params, lam)
    tape_f, x, tape_g, join = ahead.take(obs, params, lam)
    try:
        l2, g_x = fidelity(x, model)

        tv = 0.0
        if admm is not None:
            beta = cfg.beta
            for p, v_p, l_p in ((1, admm.v1, admm.l1), (2, admm.v2, admm.l2)):
                r = diff_p(x, p) - v_p + l_p / beta
                tv += 0.5 * beta * sum_squares(r)
                g_x = g_x + beta * diff_p_adj(r, p)

        del x  # freed before the backward pass
        grads_g, g_y = _backward_stack(params.g_layers, tape_g, _slices(g_x))
        del g_x
    finally:
        sub, norms = join()  # no chunk outlives the call

    l1 = 0.0
    for v in norms.tolist():  # summed in slice order
        l1 += lam * v
    loss = LossBreakdown(l1, l2, tv)
    if not np.isfinite(loss.total):
        raise FloatingPointError(
            f"non-finite loss: lowrank={l1!r} fidelity={l2!r} tv={tv!r}"
        )

    if lam > 0.0:
        sub *= lam
        g_y += sub.reshape(g_y.shape)
    grads_f, _ = _backward_stack(params.f_layers, tape_f, g_y, input_grad=False)
    return loss, grads_f + grads_g


@single_thread()
def reconstruct(obs, params):
    """Reconstruction ``g(f(obs))``, C-ordered; checked as the forwards are."""
    y, _ = forward_f(obs, params)
    x, _ = forward_g(y, params)
    return x
