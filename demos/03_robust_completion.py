"""Robust tensor completion: missing entries plus salt-and-pepper
corruption inside the observed set.

The l1 fidelity absorbs gross errors instead of chasing them, and the
spatial TV term actively scrubs the isolated spikes that the
tube-interpolated start inherits from the corrupted observation.  The
recovered sparse part should light up exactly on the injected
corruption.
"""

import warnings
from dataclasses import replace

import numpy as np

from ssnt import (
    SamplingSpec,
    assemble,
    default_config,
    degrade,
    psnr,
    solve_ssnt,
    solve_ssnt_tv,
)
from ssnt.problems import init_observation, sample_mask, synth_low_tubal_rank

DIMS = (24, 24, 12)

# shift-normalize into [0, 1]: keeps the tensor near-low-rank (the DC
# offset only adds one rank) and makes {0,1} salt/pepper a gross error
raw = synth_low_tubal_rank(DIMS, rank=2, seed=11)
truth = (raw - raw.min()) / (raw.max() - raw.min())
spec = SamplingSpec(sr=0.5, noise_sr=0.1, seed=12)
model = degrade(truth, "rtc", spec)

clean_obs = sample_mask(DIMS, spec.sr, seed=spec.seed) * truth
corrupted = model.measurement != clean_obs
print(f"observing 50% of entries, {int(corrupted.sum())} of them replaced by salt/pepper values")
print(f"psnr of the corrupted observation: {psnr(model.measurement, truth):.2f} dB")

x0 = init_observation(model)
base = replace(default_config("rtc", DIMS), t_max=3000, lr=3e-3, seed=0)

for label, solver, cfg in (
    ("robust fit          ", solve_ssnt, base),
    ("robust fit + TV     ", solve_ssnt_tv, replace(base, tau=0.2)),
):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        x, _, _ = solver(model, cfg, x0=x0)
    split = assemble(x, model)
    on = np.abs(split.sparse)[corrupted].mean()
    off = np.abs(split.sparse)[(~corrupted) & (model.mask == 1.0)].mean()
    print(f"{label}: psnr {psnr(x, truth):5.2f} dB, "
          f"mean |sparse| on corrupted {on:.3f} vs clean observed {off:.3f}")
