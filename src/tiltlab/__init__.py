"""Contrastive learning as measure tilting: exact Gaussian solutions,
trainable encoder pairs, and deterministic desk-scale experiments."""

from .errors import (
    BadMagic,
    ConfigError,
    CountMismatch,
    DivergentNormalizer,
    NonFiniteGradient,
    NotPositiveDefinite,
    TiltlabError,
    TruncatedFile,
    ZeroNormRow,
)
from .gaussian import (
    BlockGaussian,
    CosineLinear,
    GaussianConditionalMap,
    QuadraticTiltingParams,
    cond_loss_closed,
    conditional_u_given_v,
    empirical_block_gaussian,
    exp_quadratic_expectation,
    joint_loss_closed,
    kl_gaussians,
    minimizer_cond,
    minimizer_joint,
    minimizer_quadratic_onesided,
    model_conditional,
    model_joint,
    model_marginal_u,
    recover_encoders,
    shrinkage_h,
)
from .encoders import (
    EncoderParams,
    EncoderSpec,
    encode,
    encode_vjp,
    frozen_table_spec,
    init_params,
    linear_spec,
    mlp_spec,
    params_from_table,
    similarity_matrix,
    similarity_vjp,
)
from .losses import (
    Kernel,
    LossKind,
    kernel_gram,
    loss_clip,
    loss_cond,
    loss_value_and_grad,
    mmd_unbiased,
)
from .training import TrainConfig, TrainHistory, adam_step, epoch_batches, train
from .crossmodal import EmbeddingIndex, build_index, classify, recall_at_k, retrieve, true_ranks
from .datagen import (
    FlowConfig,
    GpConfig,
    PairedDataset,
    draw_flow_config,
    gp_analytic_blocks,
    gp_modality_pair,
    lagrangian_dataset,
    lagrangian_pair,
    mnist_load,
    sample_block_gaussian,
    velocity_eval,
)
from .rng import SeededRng

__version__ = "0.1.0"
