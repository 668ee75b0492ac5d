"""Reference computations made apart from the program under test.

The benchmark checks the program's outputs against these functions, so
none of them calls into ``ssnt``.  They follow the documented contracts
(README "Tensor container", "Conventions that matter", the loss in
``ssnt.network.loss_and_grad``'s docstring) with different code: an
``einsum`` network instead of ``tensordot``, ``scipy.linalg.svd``
instead of ``numpy.linalg.svd``, a byte-level container codec.
"""

import struct

import numpy as np
import scipy.linalg

MAGIC = b"SSNT1"
HEADER_LEN = 31  # magic (5) + version (2) + three uint64 dims (24)
TRAILER_LEN = 8  # uint64 FNV-1a of the payload
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = 0xFFFFFFFFFFFFFFFF


class ContainerError(ValueError):
    """A byte string that is not a well-formed tensor container."""


def fnv1a64(data):
    """64-bit FNV-1a of a byte string."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def encode_container(t):
    """Version-1 container bytes of a third-order tensor."""
    t = np.asarray(t, dtype=np.float64)
    n1, n2, n3 = t.shape
    payload = np.ascontiguousarray(np.moveaxis(t, 2, 0), dtype="<f8").tobytes()
    header = MAGIC + struct.pack("<HQQQ", 1, n1, n2, n3)
    return header + payload + struct.pack("<Q", fnv1a64(payload))


def write_container(path, t):
    with open(path, "wb") as fh:
        fh.write(encode_container(t))


def decode_container(blob):
    """Tensor of version-1 container bytes, whose trailer is the uint64
    FNV-1a of the payload."""
    if len(blob) < HEADER_LEN or blob[:5] != MAGIC:
        raise ContainerError("bad magic")
    version, n1, n2, n3 = struct.unpack("<HQQQ", blob[5:HEADER_LEN])
    if version != 1:
        raise ContainerError(f"unknown version {version}")
    if min(n1, n2, n3) == 0:
        raise ContainerError("zero dimension")
    end = HEADER_LEN + 8 * n1 * n2 * n3
    payload, trailer = blob[HEADER_LEN:end], blob[end:]
    if len(payload) != end - HEADER_LEN:
        raise ContainerError("truncated payload")
    if len(trailer) != TRAILER_LEN or struct.unpack("<Q", trailer)[0] != fnv1a64(payload):
        raise ContainerError("bad FNV-1a trailer")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return np.moveaxis(flat.reshape(n3, n1, n2), 0, 2).copy()


def read_container(path):
    with open(path, "rb") as fh:
        return decode_container(fh.read())


def activation(z, kind, slope):
    """The three activations of the transform stacks."""
    if kind == "identity":
        return z
    if kind == "relu":
        return z * (z > 0.0)
    if kind == "leaky_relu":
        return np.where(z > 0.0, z, slope * z)
    raise ValueError(f"unknown activation {kind!r}")


def run_stack(x, layers):
    """``act(x x3 W)`` layer after layer; ``layers`` holds (W, kind, slope)."""
    for w, kind, slope in layers:
        x = activation(np.einsum("ijk,ok->ijo", x, w), kind, slope)
    return x


def diff(x, p):
    """Spatial forward difference along axis ``p - 1``, last one zero."""
    d = np.zeros_like(x)
    if p == 1:
        d[:-1] = np.diff(x, axis=0)
    else:
        d[:, :-1] = np.diff(x, axis=1)
    return d


def loss_terms(x0, f_layers, g_layers, lam, kind, obs, mask=None, tv=None):
    """(low-rank, fidelity, TV penalty) of ``g(f(x0))``.

    Low rank: ``lam`` times the summed singular values of the frontal
    slices of ``f(x0)``.  Fidelity: squared masked error (tc), l1 error
    (bs) or masked l1 error (rtc).  ``tv`` is ``(v1, v2, l1, l2, beta)``
    for the penalty ``beta/2 sum_p ||D_p x - V_p + L_p/beta||^2``.
    """
    y = run_stack(x0, f_layers)
    x = run_stack(y, g_layers)
    lowrank = lam * sum(
        float(scipy.linalg.svd(y[:, :, k], compute_uv=False).sum()) for k in range(y.shape[2])
    ) if lam > 0.0 else 0.0
    err = x - obs
    if kind == "tc":
        fid = float(np.sum((mask * err) ** 2))
    elif kind == "rtc":
        fid = float(np.sum(np.abs(mask * err)))
    elif kind == "bs":
        fid = float(np.sum(np.abs(err)))
    else:
        raise ValueError(f"no reference fidelity for {kind!r}")
    pen = 0.0
    if tv is not None:
        v1, v2, m1, m2, beta = tv
        for p, v, m in ((1, v1, m1), (2, v2, m2)):
            r = diff(x, p) - v + m / beta
            pen += 0.5 * beta * float(np.sum(r * r))
    return lowrank, fid, pen


def psnr(x, ref, peak=1.0):
    """``10 log10(peak^2 N / sum (x - ref)^2)`` in dB."""
    err = float(np.sum((np.asarray(x) - np.asarray(ref)) ** 2))
    return 10.0 * np.log10(peak * peak * np.size(x) / err)


def dft_energy_curve(t):
    """Cumulative pooled squared singular values of the mode-3 DFT slices."""
    that = np.fft.fft(t, axis=2)
    sv = np.concatenate(
        [scipy.linalg.svd(that[:, :, k], compute_uv=False) for k in range(t.shape[2])]
    )
    energy = np.sort(sv)[::-1] ** 2
    return np.cumsum(energy) / energy.sum()


def random_mask(dims, sr, rng):
    """{0,1} mask with exactly ``floor(sr * N)`` ones."""
    n = int(np.prod(dims))
    mask = np.zeros(n)
    mask[rng.permutation(n)[: int(np.floor(sr * n))]] = 1.0
    return mask.reshape(dims)


def smooth_profile(n, rng, bumps=3):
    """Positive sum of Gaussian bumps on ``n`` samples."""
    grid = np.arange(n)
    out = np.full(n, 0.1)
    for _ in range(bumps):
        c, w = rng.uniform(0, n), rng.uniform(n / 10, n / 3)
        out += rng.uniform(0.3, 1.0) * np.exp(-0.5 * ((grid - c) / w) ** 2)
    return out


def hsi_cube(dims, seed, endmembers=3):
    """Hyperspectral-like cube in [0, 1] of tubal rank <= 2 * endmembers.

    Each endmember is a smooth spectrum times a rank-2 smooth abundance
    map, so every DFT slice has rank <= 2 * endmembers.
    """
    n1, n2, n3 = dims
    rng = np.random.default_rng(seed)
    x = np.zeros(dims)
    for _ in range(endmembers):
        spectrum = smooth_profile(n3, rng)
        abundance = sum(np.outer(smooth_profile(n1, rng), smooth_profile(n2, rng)) for _ in range(2))
        x += abundance[:, :, None] * spectrum[None, None, :]
    return x / x.max()


def low_tubal_rank(dims, rank, seed):
    """t-product of two Gaussian factors, low-passed along mode 3 and
    scaled to unit peak magnitude (the acceptance-suite construction)."""
    n1, n2, n3 = dims
    rng = np.random.default_rng(seed)
    ahat = np.fft.fft(rng.standard_normal((n1, rank, n3)), axis=2)
    bhat = np.fft.fft(rng.standard_normal((rank, n2, n3)), axis=2)
    freq = np.minimum(np.arange(n3), n3 - np.arange(n3))
    lowpass = np.exp(-((freq / (n3 / 8.0)) ** 2))
    x = np.fft.ifft(np.einsum("irk,rjk->ijk", ahat, bhat) * lowpass, axis=2).real
    return x / np.abs(x).max()
