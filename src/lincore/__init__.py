"""Linear-core surrogate losses for binary, multi-class, and chain-structured
prediction, with exact-inference baselines and stochastic pair-sampling
training.

The public surface groups into:

* scalar losses (:mod:`lincore.losses`): bases, the surrogates, derivatives;
* consistency numerics (:mod:`lincore.consistency`): the estimation-error
  transformation, biased-coin rate curves, slope fits;
* multi-class and structured sum losses with brute-force regret oracles
  (:mod:`lincore.multiclass`, :mod:`lincore.structured`);
* exact chain inference (:mod:`lincore.inference`);
* stochastic gradient estimators and the SGD driver (:mod:`lincore.trainers`);
* synthetic data and experiment drivers (:mod:`lincore.datagen`,
  :mod:`lincore.experiments`) behind the ``lincore`` command line.
"""

from ._version import __version__
from .errors import (
    BracketSearchError,
    ConfigError,
    DomainError,
    EnumerationLimitError,
    EvaluationOverflowError,
    LincoreError,
    TrainingDivergedError,
)
from .losses import (
    BaseLoss,
    EXPONENTIAL,
    LEFT,
    LOGISTIC,
    LinearCoreSpec,
    MarginLoss,
    ONE_SIDED,
    QUARTIC_LINEAR,
    RIGHT,
    SYMMETRIC,
    base_derivative,
    base_second_derivative,
    base_value,
    lc_branch_second_derivative,
    lc_derivative,
    lc_value,
    linear_core_margin_loss,
    plain_margin_loss,
)
from .consistency import (
    RatePoint,
    TauSlope,
    biased_coin_curve,
    conditional_objective,
    fit_loglog_slope,
    restricted_pair_infimum,
    tau_sweep,
    transformation_T,
    transformation_min_slack,
    weighted_margin_infimum,
)
from .multiclass import (
    ce_gradient,
    ce_loss,
    gce_gradient,
    gce_loss,
    mc_conditional_regrets,
    mc_sum_loss,
    mc_sum_loss_gradient,
)
from .structured import (
    ChainModel,
    enumerate_sequences,
    feature_radius_bound,
    feature_radius_exact,
    hamming_loss,
    joint_feature,
    model_weights,
    sequence_score,
    structured_conditional_regrets,
    structured_sum_loss_exact,
    structured_sum_loss_gradient_exact,
    weights_to_model,
)
from .inference import (
    Marginals,
    crf_nll_and_gradient,
    forward_backward,
    loss_augmented_viterbi,
    ssvm_loss_and_subgradient,
    viterbi,
)
from .trainers import (
    GradEstimate,
    PairProposal,
    SequenceData,
    TrainConfig,
    TrainResult,
    empirical_gradient_variance,
    exact_pair_estimator_expectation,
    lc_ksample_gradient_estimate,
    lc_pair_gradient_estimate,
    sgd_train,
    uniform_negative_gradient_exact,
)
from .datagen import HmmSpec, IdnSpec, generate_hmm_data, generate_hmm_split, generate_idn_dataset

__all__ = [name for name in dir() if not name.startswith("_")]
