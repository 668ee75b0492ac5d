"""Quality metrics, the singular-value energy diagnostic, and an
independent transform-domain nuclear-norm completion baseline.

The baseline exists as a correctness oracle for the learned solvers: it
minimizes the classical DFT-domain tensor nuclear norm subject to the
observed entries, a convex problem with a known good answer on
synthetic low-tubal-rank data.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .network import single_thread
from .tensors import _conjugate_weights, from_half_spectrum, half_spectrum_svd, sum_squares


@dataclass
class MetricReport:
    """psnr in dB (inf for exact equality), ssim in [-1, 1], sam in
    radians; ``peak`` records the dynamic range the numbers assume."""

    psnr: float
    ssim: float
    sam: float
    peak: float = 1.0


def check_peak(peak):
    """Reject a dynamic range that is not finite and positive."""
    if not 0.0 < peak < np.inf:
        raise ValueError(f"peak must be positive and finite, got {peak!r}")


def _same_shape(x, ref):
    """``x`` and ``ref`` as arrays, which must have one shape with no
    zero dimension."""
    x, ref = np.asarray(x), np.asarray(ref)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch: estimate {x.shape} vs reference {ref.shape}")
    if 0 in x.shape:
        raise ValueError(f"metrics need a non-empty tensor, got shape {x.shape}")
    return x, ref


def psnr(x, ref, peak=1.0):
    """Peak signal-to-noise ratio ``10*log10(peak^2 * N / ||x - ref||_F^2)``."""
    x, ref = _same_shape(x, ref)
    check_peak(peak)
    err = sum_squares(x - ref)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 * x.size / err))


# Entries per SSIM block over its five filtered quantities: 2 MB of
# float64, so that a 128x128 block holds three frontal slices and the
# block's temporaries stay near 8 MB.
_SSIM_BLOCK_ENTRIES = 1 << 18
# Output rows per product of the filter's tap band.
_SSIM_TILE = 16


def _gaussian_taps(size):
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * 1.5**2))
    return g / g.sum()


def _valid_filter(q, band, axis):
    """Valid-region 1-D filter of a ``(5, n1, slices, n2)`` stack along
    ``axis`` 1 or 3, by products with ``band``, whose row ``i`` holds the
    taps in columns ``i..i+w-1``: one batched product per tile of
    ``band.shape[0]`` output rows, of one shape for every quantity."""
    w = band.shape[1] - band.shape[0] + 1
    m = q.shape[axis] - w + 1
    out = np.empty(q.shape[:axis] + (m,) + q.shape[axis + 1 :])
    for i in range(0, m, band.shape[0]):
        r = min(band.shape[0], m - i)
        tile = band[:r, : r + w - 1]
        if axis == 1:
            np.matmul(tile, q[:, i : i + r + w - 1].reshape(len(q), r + w - 1, -1),
                      out=out[:, i : i + r].reshape(len(q), r, -1))
        else:
            np.matmul(q[..., i : i + r + w - 1].reshape(len(q), -1, r + w - 1), tile.T,
                      out=out[..., i : i + r].reshape(len(q), -1, r))
    return out


@single_thread()
def ssim(x, ref, peak=1.0):
    """Mean over frontal slices of windowed 2-D structural similarity.

    Each slice is filtered with an 11x11 Gaussian window (sigma 1.5),
    shrunk to the largest odd size that fits small slices, with the
    usual K1 = 0.01, K2 = 0.03; statistics over the valid interior only.
    The window is separable: a block of slices holds ``a, b, a*a, b*b,
    a*b`` in one ``(5, n1, slices, n2)`` array, filtered along ``n1``
    and then ``n2`` by products with a band of the 1-D taps, a tile of
    output rows at a time.  A block holds as many slices as fit in 2^18
    entries, and at least one, so at 128x128x31 the temporaries stay
    near 8 MB.  The products run with BLAS on one thread, so the value
    does not depend on the caller's count.
    """
    x, ref = _same_shape(x, ref)
    n1, n2, n3 = x.shape
    win = min(11, n1, n2)
    if win % 2 == 0:
        win -= 1
    taps = _gaussian_taps(win)
    band = np.zeros((_SSIM_TILE, _SSIM_TILE + win - 1))
    for i in range(_SSIM_TILE):
        band[i, i : i + win] = taps
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    step = max(1, _SSIM_BLOCK_ENTRIES // (5 * n1 * n2))
    means = []
    for k in range(0, n3, step):
        q = np.empty((5, n1, min(step, n3 - k), n2))
        q[0] = x[:, :, k : k + step].transpose(0, 2, 1)
        q[1] = ref[:, :, k : k + step].transpose(0, 2, 1)
        np.multiply(q[:2], q[:2], out=q[2:4])
        np.multiply(q[0], q[1], out=q[4])
        mu_a, mu_b, var_a, var_b, cov = _valid_filter(_valid_filter(q, band, 1), band, 3)
        del q
        # Identical inputs give exactly 1: 2 * mu_ab is then mu_a**2 + mu_b**2
        # and 2 * cov is var_a + var_b.  mu_a and mu_b become their squares.
        mu_ab = mu_a * mu_b
        cov -= mu_ab
        var_a -= np.square(mu_a, out=mu_a)
        var_b -= np.square(mu_b, out=mu_b)
        num = (2.0 * mu_ab + c1) * (2.0 * cov + c2)
        den = (mu_a + mu_b + c1) * (var_a + var_b + c2)
        # The map in (rows, columns, slices) order: the per-slice means sum
        # it pixel by pixel, as earlier releases did.
        out = np.empty((n1 - win + 1, n2 - win + 1, len(num[0])))
        np.divide(num, den, out=out.transpose(0, 2, 1))
        means.append(out.mean(axis=(0, 1)))
    return float(np.mean(np.concatenate(means)))


def sam(x, ref):
    """Spectral angle mapper: mean angle between matching mode-3 tubes.

    Tube pairs where either side has zero norm contribute angle 0.  A
    tube with a non-finite entry on either side has no angle, so the
    mean is NaN.
    """
    x, ref = _same_shape(x, ref)
    dot = (x * ref).sum(axis=2)
    nx = np.linalg.norm(x, axis=2)
    nr = np.linalg.norm(ref, axis=2)
    finite = np.isfinite(x).all(axis=2) & np.isfinite(ref).all(axis=2)
    ok = finite & (nx > 0) & (nr > 0) & ~(x == ref).all(axis=2)
    cos = np.where(finite, 1.0, np.nan)
    cos[ok] = np.clip(dot[ok] / (nx[ok] * nr[ok]), -1.0, 1.0)
    return float(np.mean(np.arccos(cos)))


def metric_report(x, ref, peak=1.0):
    return MetricReport(psnr(x, ref, peak), ssim(x, ref, peak), sam(x, ref), peak)


@dataclass
class AccEgyCurve:
    """Cumulative squared-singular-value energy over the pooled,
    descending-sorted singular values of all frontal slices."""

    fractions: np.ndarray
    energy_ratio: np.ndarray

    def at_fraction(self, frac):
        """Energy ratio at the smallest pool fraction >= ``frac``."""
        k = max(1, int(np.ceil(frac * self.fractions.size)))
        return float(self.energy_ratio[k - 1])


def acc_egy(transformed, dft=False):
    """Energy-compaction curve of a (real or complex) tensor's slices.

    With ``dft``, the curve of the mode-3 DFT slices of a real tensor:
    only slices ``0..n3//2`` are decomposed, and each one's singular
    values count as often as the slice occurs in the full spectrum.
    An all-zero input yields a curve of ones, with a warning.
    """
    t = np.asarray(transformed)
    if dft:
        counts = _conjugate_weights(t.shape[2]).astype(int)
        sv = np.repeat(half_spectrum_svd(t, compute_uv=False), counts, axis=0).ravel()
    else:
        sv = np.linalg.svd(np.moveaxis(t, 2, 0), compute_uv=False).ravel()
    sv = np.sort(sv)[::-1]
    energy = sv**2
    total = energy.sum()
    fractions = np.arange(1, sv.size + 1) / sv.size
    if total == 0.0:
        warnings.warn("all singular values are zero", RuntimeWarning)
        return AccEgyCurve(fractions, np.ones(sv.size))
    return AccEgyCurve(fractions, np.cumsum(energy) / total)


def _tsvt(t, thr):
    """Slice-wise singular value thresholding in the mode-3 DFT domain.

    Conjugate-symmetric slices share one SVD so the result is exactly
    real for real input.
    """
    u, s, vh = half_spectrum_svd(t)
    s = np.maximum(s - thr, 0.0)
    return from_half_spectrum((u * s[:, None, :]) @ vh, t.shape[2])


def tnn_baseline_complete(model, rho=1e-2, iters=200):
    """ADMM completion under the DFT-domain tensor nuclear norm.

    Minimizes the transform-domain nuclear norm subject to agreement on
    the observed entries: a singular-value-thresholding step (threshold
    ``1/rho``), re-imposition of the observed entries, and a multiplier
    update, for ``iters >= 0`` iterations at a finite ``rho > 0``.
    """
    if model.kind != "tc":
        raise ValueError("the baseline handles tensor completion only")
    if not 0.0 < rho < np.inf:
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters!r}")
    mask = model.mask
    obs = model.measurement
    x = obs.copy()
    y = np.zeros_like(x)
    for _ in range(iters):
        z = _tsvt(x - y / rho, 1.0 / rho)
        x = z + y / rho
        x = np.where(mask == 1.0, obs, x)
        y = y + rho * (z - x)
    return x
