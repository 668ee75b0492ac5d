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

from .tensors import from_half_spectrum, half_spectrum_svd, sum_squares


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


def psnr(x, ref, peak=1.0):
    """Peak signal-to-noise ratio ``10*log10(peak^2 * N / ||x - ref||_F^2)``."""
    x = np.asarray(x)
    ref = np.asarray(ref)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch")
    check_peak(peak)
    err = sum_squares(x - ref)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 * x.size / err))


# Frontal slices per SSIM block: about 2^16 entries (512 KB of float64)
# per filtered array, so the filter's temporaries stay small next to the
# tensors themselves.
_SSIM_BLOCK_ENTRIES = 1 << 16


def _gaussian_taps(size):
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * 1.5**2))
    return g / g.sum()


def _gaussian_pass(t, taps, axis):
    """Valid-region 1-D filter of ``t`` along ``axis`` (0 or 1): a sum of
    shifted copies, one per tap."""
    n = t.shape[axis] - taps.size + 1

    def shifted(i):
        return t[i : i + n] if axis == 0 else t[:, i : i + n]

    acc = taps[0] * shifted(0)
    for i in range(1, taps.size):
        acc += taps[i] * shifted(i)
    return acc


def _ssim_map(a, b, taps, peak):
    """Per-pixel SSIM of a block of frontal slices over the valid interior."""

    def filt(img):
        return _gaussian_pass(_gaussian_pass(img, taps, 0), taps, 1)

    mu_a = filt(a)
    mu_b = filt(b)
    var_a = filt(a * a) - mu_a**2
    var_b = filt(b * b) - mu_b**2
    cov = filt(a * b) - mu_a * mu_b
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return num / den


def ssim(x, ref, peak=1.0):
    """Mean over frontal slices of windowed 2-D structural similarity.

    Each slice is filtered with an 11x11 Gaussian window (sigma 1.5),
    shrunk to the largest odd size that fits small slices, with the
    usual K1 = 0.01, K2 = 0.03; statistics over the valid interior only.
    The window is separable, so a block of slices is filtered at once by
    one 1-D pass along each spatial axis.
    """
    x = np.asarray(x)
    ref = np.asarray(ref)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch")
    win = min(11, x.shape[0], x.shape[1])
    if win % 2 == 0:
        win -= 1
    taps = _gaussian_taps(win)
    step = max(1, _SSIM_BLOCK_ENTRIES // (x.shape[0] * x.shape[1]))
    means = [
        _ssim_map(x[:, :, k : k + step], ref[:, :, k : k + step], taps, peak).mean(axis=(0, 1))
        for k in range(0, x.shape[2], step)
    ]
    return float(np.mean(np.concatenate(means)))


def sam(x, ref):
    """Spectral angle mapper: mean angle between matching mode-3 tubes.

    Tube pairs where either side has zero norm contribute angle 0.  A
    tube with a non-finite entry on either side has no angle, so the
    mean is NaN.
    """
    x = np.asarray(x)
    ref = np.asarray(ref)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch")
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


def acc_egy(transformed):
    """Energy-compaction curve of a (real or complex) tensor's slices.

    An all-zero input yields a curve of ones, with a warning.
    """
    t = np.asarray(transformed)
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
