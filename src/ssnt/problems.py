"""The four inverse problems: observation models, degradation
simulators, fidelity terms with gradients, initializers and result
assembly.

Problem kinds:

* ``tc``  -- tensor completion: entries observed on a random set.
* ``bs``  -- background subtraction: the raw video is the observation.
* ``rtc`` -- robust tensor completion: observed entries additionally
  carry salt-and-pepper corruption.
* ``sci`` -- snapshot compressive imaging: a binary sensing mask is
  applied and the frontal slices are summed into one 2-D measurement.

Data is assumed pre-normalized to [0, 1]; the CLI normalizes on ingest.
"""

from dataclasses import dataclass

import numpy as np

from .tensors import diff_p, diff_p_adj, soft_threshold, sum_squares, t_product

KINDS = ("tc", "bs", "rtc", "sci")


@dataclass
class ObservationModel:
    """Observation for one inverse problem.

    ``mask`` is a {0,1} tensor (the observed set for tc/rtc, the sensing
    mask for sci) and is absent for bs.  ``measurement`` is the observed
    tensor, except for sci where it is the summed 2-D snapshot.  A
    measurement holding NaN or inf is rejected.
    """

    kind: str
    measurement: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "bs":
            if self.mask is not None:
                raise ValueError("background subtraction takes no mask")
        elif self.mask is None:
            raise ValueError(f"{self.kind} requires a mask")
        if not np.isfinite(self.measurement).all():
            raise ValueError("measurement holds non-finite values (NaN or inf)")
        if self.mask is not None and not np.isin(self.mask, (0.0, 1.0)).all():
            raise ValueError("mask entries must be 0 or 1")
        if self.kind == "sci":
            if self.measurement.shape != self.mask.shape[:2]:
                raise ValueError("sci measurement must be n1 x n2")
        elif self.mask is not None and self.measurement.shape != self.mask.shape:
            raise ValueError("measurement and mask shapes differ")

    @property
    def dims(self):
        if self.kind == "bs":
            return self.measurement.shape
        return self.mask.shape


@dataclass(frozen=True)
class SamplingSpec:
    """Degradation parameters: sampling rate, sparse-corruption rate
    (rtc only) and Gaussian measurement noise (sci only)."""

    sr: float = 1.0
    noise_sr: float = 0.0
    gauss_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.sr <= 1.0:
            raise ValueError("sampling rate must lie in (0, 1]")
        if not 0.0 <= self.noise_sr < 1.0:
            raise ValueError("noise rate must lie in [0, 1)")
        if self.gauss_sigma < 0.0:
            raise ValueError("noise sigma must be nonnegative")


def sample_mask(dims, sr, seed=0):
    """{0,1} mask with exactly ``floor(sr * n1*n2*n3)`` ones placed
    uniformly without replacement; deterministic per seed."""
    if not 0.0 < sr <= 1.0:
        raise ValueError("sampling rate must lie in (0, 1]")
    n = int(np.prod(dims))
    count = int(np.floor(sr * n))
    rng = np.random.default_rng(seed)
    mask = np.zeros(n)
    mask[rng.choice(n, size=count, replace=False)] = 1.0
    return mask.reshape(dims)


def sci_measure(x, mask):
    """Snapshot forward operator: mask the tensor and sum frontal slices."""
    return (mask * x).sum(axis=2)


def degrade(x_true, kind, spec):
    """Simulate the observation of ``x_true`` under a problem kind.

    rtc replaces ``floor(noise_sr * |observed set|)`` observed entries
    with salt-and-pepper values {0, 1} (equal probability); corrupting
    unobserved entries would be a no-op, so the budget counts against
    the observed set.
    """
    x_true = np.asarray(x_true, dtype=np.float64)
    if kind == "bs":
        return ObservationModel("bs", x_true.copy())
    mask = sample_mask(x_true.shape, spec.sr, spec.seed)
    if kind == "tc":
        return ObservationModel("tc", mask * x_true, mask)
    if kind == "rtc":
        obs = mask * x_true
        rng = np.random.default_rng(spec.seed + 1)
        observed = np.flatnonzero(mask.ravel())
        n_bad = int(np.floor(spec.noise_sr * observed.size))
        bad = rng.choice(observed, size=n_bad, replace=False)
        flat = obs.ravel()
        flat[bad] = rng.integers(0, 2, size=n_bad).astype(np.float64)
        return ObservationModel("rtc", flat.reshape(x_true.shape), mask)
    if kind == "sci":
        rng = np.random.default_rng(spec.seed + 2)
        meas = sci_measure(x_true, mask)
        if spec.gauss_sigma > 0.0:
            meas = meas + spec.gauss_sigma * rng.standard_normal(meas.shape)
        return ObservationModel("sci", meas, mask)
    raise ValueError(f"unknown problem kind {kind!r}")


def fidelity(x, model):
    """Fidelity value and its gradient with respect to ``x``.

    tc:  ||P_mask(x - obs)||_F^2        grad 2 * P_mask(x - obs)
    bs:  ||x - obs||_1                  grad sign(x - obs)
    rtc: ||P_mask(x - obs)||_1          grad P_mask(sign(x - obs))
    sci: ||sum_k (mask*x)^(k) - obs||_F^2, grad broadcast through the mask

    The l1 gradients use ``sign(0) = 0``.
    """
    x = np.asarray(x)
    if x.shape != model.dims:
        raise ValueError(f"reconstruction {x.shape} does not match model {model.dims}")
    if model.kind == "tc":
        r = model.mask * (x - model.measurement)
        return sum_squares(r), 2.0 * r
    if model.kind == "bs":
        d = x - model.measurement
        return float(np.abs(d).sum()), np.sign(d)
    if model.kind == "rtc":
        r = model.mask * (x - model.measurement)
        return float(np.abs(r).sum()), model.mask * np.sign(r)
    r = sci_measure(x, model.mask) - model.measurement
    return sum_squares(r), 2.0 * model.mask * r[:, :, None]


@dataclass
class RecoveryResult:
    """Assembled output: the estimate ``x`` plus, for the separation
    problems, the implied sparse component."""

    x: np.ndarray
    sparse: np.ndarray | None = None


def assemble(raw, model):
    """Apply the per-problem assembly rule to the network output ``raw``.

    tc overwrites the observed entries with the observation (they are
    exact there).  rtc must not overwrite (observed entries carry the
    sparse errors); it returns ``raw`` plus the implied sparse part on
    the observed set.  bs splits the video additively.  sci returns
    ``raw`` unchanged.
    """
    raw = np.asarray(raw)
    if raw.shape != model.dims:
        raise ValueError(f"raw {raw.shape} does not match model {model.dims}")
    if model.kind == "tc":
        x = np.where(model.mask == 1.0, model.measurement, raw)
        return RecoveryResult(x)
    if model.kind == "rtc":
        return RecoveryResult(raw.copy(), model.mask * (model.measurement - raw))
    if model.kind == "bs":
        return RecoveryResult(raw.copy(), model.measurement - raw)
    return RecoveryResult(raw.copy())


def interpolate_tubes(obs, mask):
    """Fill missing mode-3 entries of each tube by piecewise-linear
    interpolation between observed neighbors, constant at the ends, and
    the global observed mean for empty tubes.

    All tubes at once: each entry finds the observed indices ``k0`` before
    and ``k1`` after it by a running max / min along the tube, and gets
    np.interp's own formula ``slope * (k - k0) + obs[k0]``, so finite
    input gives ``np.interp``'s result bit for bit.
    """
    n3 = obs.shape[2]
    out = np.array(obs, order="C")
    observed = mask.sum()
    fallback = float(obs.sum() / observed) if observed > 0 else 0.0
    tubes = out.reshape(-1, n3)
    seen = (mask == 1.0).reshape(-1, n3)
    # The narrowest integer type holding the sentinels -1 and n3 and
    # their difference.
    k = np.arange(n3, dtype=np.min_scalar_type(-n3 - 2))
    before = np.maximum.accumulate(np.where(seen, k, -1), axis=1)
    after = np.minimum.accumulate(np.where(seen, k, n3)[:, ::-1], axis=1)[:, ::-1]
    lo = np.take_along_axis(tubes, np.maximum(before, 0), axis=1)
    hi = np.take_along_axis(tubes, np.minimum(after, n3 - 1), axis=1)
    fill = (hi - lo) / np.maximum(after - before, 1) * (k - before) + lo
    np.copyto(fill, hi, where=before < 0)  # constant before the first observation
    np.copyto(fill, lo, where=after == n3)  # and after the last
    np.copyto(tubes, fill, where=~seen)
    tubes[~seen.any(axis=1)] = fallback
    return out


# Smoothing threshold of the sci start per unit of mean absolute residual;
# at 1/4 or more the smoothing can defeat the back-projection contraction.
TV_INIT_SHRINK = 0.05


def tv_backprojection_init(model, steps=50):
    """Data-consistent start for sci: mask-weighted back-projection of
    the measurement residual with a soft-threshold smoothing of the
    spatial differences after each step.

    The smoothing threshold is ``TV_INIT_SHRINK`` times the current
    mean absolute residual, so it vanishes as the iteration becomes
    consistent and noiseless instances can be recovered exactly.
    """
    mask = model.mask
    meas = model.measurement
    weight = mask.sum(axis=2) + 1.0
    x = np.zeros(mask.shape)
    for _ in range(steps):
        r = meas - sci_measure(x, mask)
        x = x + mask * (r / weight)[:, :, None]
        v = TV_INIT_SHRINK * float(np.abs(r).mean())
        if v > 0.0:
            for p in (1, 2):
                d = diff_p(x, p)
                x = x - 0.5 * diff_p_adj(d - soft_threshold(d, v), p)
    return x


def init_observation(model):
    """The problem-specific initializer feeding the transform network."""
    if model.kind in ("tc", "rtc"):
        return interpolate_tubes(model.measurement, model.mask)
    if model.kind == "bs":
        return model.measurement.copy()
    return tv_backprojection_init(model)


def synth_low_tubal_rank(dims, rank, seed=0):
    """Synthetic ground truth of tubal rank at most ``rank``.

    A t-product of two Gaussian factors, low-pass filtered along mode 3
    with a Gaussian of width ``n3 / 8`` in frequency (per-DFT-slice
    scaling keeps the tubal rank exact) so the tubes look like the
    smooth spectra / frame sequences the solvers target, then scaled to
    unit max magnitude (a shift would not preserve the rank).
    """
    n1, n2, n3 = dims
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n1, rank, n3))
    b = rng.standard_normal((rank, n2, n3))
    x = t_product(a, b)
    freq = np.minimum(np.arange(n3), n3 - np.arange(n3))
    lowpass = np.exp(-((freq / (n3 / 8.0)) ** 2))
    x = np.fft.ifft(np.fft.fft(x, axis=2) * lowpass[None, None, :], axis=2).real
    peak = np.abs(x).max()
    return x / peak if peak > 0 else x
