"""Self-supervised nonlinear mode-3 transforms for low-rank recovery of
third-order tensors: completion, background subtraction, robust
completion and snapshot compressive imaging.

Tensors are plain ``numpy`` float64 arrays of shape ``(n1, n2, n3)``.
"""

from .metrics import MetricReport, acc_egy, metric_report, psnr, sam, ssim, tnn_baseline_complete
from .network import (
    Activation,
    LossBreakdown,
    NetworkParams,
    forward_f,
    forward_g,
    init_weights,
    loss_and_grad,
    nuclear_subgrad,
    reconstruct,
)
from .problems import (
    ObservationModel,
    RecoveryResult,
    SamplingSpec,
    assemble,
    degrade,
    fidelity,
    init_observation,
    sample_mask,
    synth_low_tubal_rank,
    tv_backprojection_init,
)
from .solvers import (
    AdamState,
    AdmmState,
    Diagnostics,
    SolverConfig,
    adam_step,
    default_config,
    multiplier_update,
    solve_ssnt,
    solve_ssnt_tv,
    v_update,
)
from .tensors import (
    conj_transpose,
    dft_mode3,
    diff_p,
    diff_p_adj,
    identity_tensor,
    mode3_product,
    nuclear_norm,
    soft_threshold,
    t_product,
    t_svd,
    tnn,
    tubal_rank,
)

__version__ = "0.1.0"
