"""Dense third-order tensor algebra.

A third-order tensor is an ordinary ``numpy.ndarray`` of shape
``(n1, n2, n3)`` and dtype ``float64``, indexed ``t[i, j, k]``.  The
``k``-th frontal slice is ``t[:, :, k]`` and the ``(i, j)``-th tube is
``t[i, j, :]``.  Complex tensors appear only on the DFT path.

Fixed conventions:

* A mode-3 product acts on every tube: ``(t x3 a)[i, j, :] = a @ t[i, j, :]``.
* The mode-3 DFT is the unnormalized forward transform with a
  ``1/n3``-scaled inverse (numpy's default), so the tensor nuclear norm
  computed here depends on that scale.
* Forward differences use a Neumann boundary: the last difference row
  (or column) is zero, which keeps the operator linear with an exact
  adjoint.
"""

import numpy as np

# Relative threshold below which a singular value (or singular tube) is
# treated as zero; exact zeros never occur in floating point.
EPS_RANK = 1e-8


def _as_tensor(t):
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    return t


def mode3_product(t, a):
    """Mode-3 tensor-matrix product, tube by tube:
    ``(t x3 a)[i, j, :] = a @ t[i, j, :]``.

    ``a`` has shape ``(rows, n3)``; the result has shape
    ``(n1, n2, rows)``.  Works for real or complex ``a``.
    """
    t = np.asarray(t)
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[1] != t.shape[2]:
        raise ValueError(
            f"matrix {a.shape} does not act on mode-3 of tensor {t.shape}"
        )
    return np.tensordot(t, a, axes=([2], [1]))


def nuclear_norm(m):
    """Nuclear norm (sum of singular values) of a matrix.

    SVD non-convergence surfaces as ``numpy.linalg.LinAlgError``.
    """
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())


def sum_squares(a):
    """Sum of the squared entries of a real array, as a float.

    numpy's own pairwise sum, not ``np.vdot`` or ``np.linalg.norm``:
    those call BLAS, which splits a long sum across its threads, so
    their last bits depend on the thread count.
    """
    return float(np.sum(np.square(a)))


def soft_threshold(t, v):
    """Entrywise soft-thresholding ``sign(x) * max(|x| - v, 0)``.

    The proximal operator of ``v * ||.||_1``; requires ``v >= 0``.
    """
    if v < 0:
        raise ValueError("threshold must be nonnegative")
    t = np.asarray(t)
    return np.sign(t) * np.maximum(np.abs(t) - v, 0.0)


def diff_p(t, p):
    """Forward difference along spatial dimension ``p`` in {1, 2}.

    Neumann boundary: the final difference along the chosen axis is
    zero, so the output shape equals the input shape.
    """
    t = np.asarray(t)
    d = np.zeros_like(t)
    if p == 1:
        d[:-1] = t[1:] - t[:-1]
    elif p == 2:
        d[:, :-1] = t[:, 1:] - t[:, :-1]
    else:
        raise ValueError("p must be 1 or 2")
    return d


def diff_p_adj(y, p):
    """Exact adjoint of :func:`diff_p`: ``<diff_p(x), y> = <x, diff_p_adj(y)>``."""
    y = np.asarray(y)
    out = np.zeros_like(y)
    if p == 1:
        if y.shape[0] == 1:
            return out
        out[0] = -y[0]
        out[1:-1] = y[:-2] - y[1:-1]
        out[-1] = y[-2]
    elif p == 2:
        if y.shape[1] == 1:
            return out
        out[:, 0] = -y[:, 0]
        out[:, 1:-1] = y[:, :-2] - y[:, 1:-1]
        out[:, -1] = y[:, -2]
    else:
        raise ValueError("p must be 1 or 2")
    return out


def dft_mode3(t):
    """Unnormalized forward DFT along every mode-3 tube (complex result)."""
    return np.fft.fft(np.asarray(t), axis=2)


def half_spectrum_svd(t, full_matrices=False, compute_uv=True):
    """Batched SVD of the mode-3 DFT slices ``0..n3//2`` of a real tensor.

    The slices come from ``np.fft.rfft`` as one ``(n3//2 + 1, n1, n2)``
    stack.  Slice ``n3 - k`` is the complex conjugate of slice ``k``, so
    its SVD is the conjugate one and is never computed.  Returns what
    ``np.linalg.svd`` returns for the stack.
    """
    half = np.moveaxis(np.fft.rfft(_as_tensor(t), axis=2), 2, 0)
    return np.linalg.svd(half, full_matrices=full_matrices, compute_uv=compute_uv)


def from_half_spectrum(slices, n3):
    """The real ``(n1, n2, n3)`` tensor whose mode-3 DFT slices
    ``0..n3//2`` are the ``(n3//2 + 1, n1, n2)`` stack ``slices``
    (inverse of the stack :func:`half_spectrum_svd` factors)."""
    return np.fft.irfft(np.moveaxis(slices, 0, 2), n=n3, axis=2)


def _conjugate_weights(n3):
    """How often each DFT slice ``0..n3//2`` occurs in the full spectrum:
    once for DC and (even ``n3``) Nyquist, else twice with its conjugate."""
    weights = np.full(n3 // 2 + 1, 2.0)
    weights[0] = 1.0
    if n3 % 2 == 0:
        weights[-1] = 1.0
    return weights


def tnn(t):
    """Tensor nuclear norm: sum of nuclear norms of the DFT-domain slices.

    Conjugate slices share their singular values, so only slices
    ``0..n3//2`` are decomposed, each weighted by how often it occurs.
    """
    t = _as_tensor(t)
    s = half_spectrum_svd(t, compute_uv=False)
    return float(_conjugate_weights(t.shape[2]) @ s.sum(axis=1))


def identity_tensor(n, n3):
    """Identity tensor for the t-product: first frontal slice is I, rest 0."""
    ident = np.zeros((n, n, n3))
    ident[:, :, 0] = np.eye(n)
    return ident


def t_product(a, b):
    """Tensor-tensor product via slice-wise products in the DFT domain.

    ``a`` is ``(n1, n2, n3)`` and ``b`` is ``(n2, m, n3)``; the result is
    ``(n1, m, n3)``.  Equivalent to circular convolution of matching
    tubes.  Real inputs give a real result.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ValueError(f"t-product shape mismatch: {a.shape} * {b.shape}")
    ahat = np.fft.fft(a, axis=2)
    bhat = np.fft.fft(b, axis=2)
    chat = np.einsum("ijk,jlk->ilk", ahat, bhat)
    c = np.fft.ifft(chat, axis=2)
    if np.isrealobj(a) and np.isrealobj(b):
        return c.real
    return c


def conj_transpose(a):
    """Conjugate transpose: slice 0 is transposed, slices 1.. are
    transposed and reversed in order."""
    a = np.asarray(a)
    n3 = a.shape[2]
    out = np.conj(np.swapaxes(a, 0, 1)).copy()
    if n3 > 1:
        out[:, :, 1:] = out[:, :, :0:-1]
    return out


def t_svd(a):
    """Tensor singular value decomposition ``a = U * S * V^H``.

    ``U`` (n1 x n1 x n3) and ``V`` (n2 x n2 x n3) are orthogonal in the
    t-product sense and ``S`` (n1 x n2 x n3) is f-diagonal in the DFT
    domain.  Per-slice SVDs are computed for the first ``n3//2 + 1``
    DFT slices only (:func:`half_spectrum_svd`); the rest follow by
    conjugate symmetry, so the factors come back exactly real.
    """
    a = _as_tensor(a)
    n1, n2, n3 = a.shape
    uhat, s, vh = half_spectrum_svd(a, full_matrices=True)
    shat = np.zeros((s.shape[0], n1, n2))
    r = np.arange(s.shape[1])
    shat[:, r, r] = s
    vhat = np.conj(np.swapaxes(vh, 1, 2))
    return tuple(from_half_spectrum(f, n3) for f in (uhat, shat, vhat))


def tubal_rank(a):
    """Number of singular tubes of the t-SVD with Frobenius norm above
    ``EPS_RANK`` times the largest tube norm.

    By Parseval, ``n3`` times the squared norm of tube ``i`` is the sum of
    every DFT slice's squared ``i``-th singular value; no factor is built.
    """
    a = _as_tensor(a)
    s = half_spectrum_svd(a, compute_uv=False)
    top = s.max(initial=0.0)
    if top > 0.0:
        s = s / top  # squares neither overflow nor underflow at any scale
    tube_norms = np.sqrt(_conjugate_weights(a.shape[2]) @ s**2)
    return int(np.count_nonzero(tube_norms > EPS_RANK * tube_norms.max(initial=0.0)))
