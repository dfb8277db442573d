"""Forward-pass-only optimization with layer-wise low-rank random subspaces.

The estimator perturbs every weight matrix by U Z V^T with skinny
orthonormal U, V and a small Gaussian core Z, probes the loss at +/- eps,
and turns the scalar difference into a subspace gradient estimate whose
memory cost is one layer buffer regardless of model size.
"""

from .errors import (AllocationRefused, BudgetExceeded, ConfigError,
                     DegenerateGradient, NonFiniteLoss, RankDeficient,
                     ScaleRefused, ShapeError, StepFailure, SubzeroError)
from .numcore import (GaussianStream, derive_seed, gaussian_matrix,
                      qr_orthonormal, stack_params, unstack_params)
from .perturbation import (LayerPlan, LayerShape, PerturbSpec, ProjectionPair,
                           axpy_perturbation, build_pairs,
                           iter_perturbation_layers, pairs_from_plan,
                           plan_layers, perturb_params_inplace,
                           reshape_near_square, reshaped_view,
                           subspace_dimension)
from .problems import (LogisticProblem, Minibatch, MlpProblem,
                       QuadraticProblem, QuarticProblem, full_batch,
                       sample_minibatch)
from .estimators import (DENSE_ENTRY_CAP, EstimateMeta, GradEstimate,
                         LossDifference, dense_subspace_probe,
                         subzero_estimate, two_sided_loss_diff)
from .optimizer import (OptimizerConfig, RunRecord, StepRecord, TrainerState,
                        init_state, step, theoretical_step_size, train)
from .verification import (ConvergenceConfig, ConvergenceReport,
                           DiagnosticsRow, MonteCarloReport,
                           check_bias_bound, check_cosine_identity,
                           check_expectation_identity, check_second_moment,
                           convergence_battery, estimator_diagnostics,
                           fit_loglog_slope, materialize_projector,
                           measure_bias, run_default_battery)

__version__ = "0.1.0"

__all__ = [
    "AllocationRefused", "BudgetExceeded", "ConfigError", "ConvergenceConfig",
    "ConvergenceReport", "DegenerateGradient", "DENSE_ENTRY_CAP",
    "DiagnosticsRow", "EstimateMeta", "GaussianStream", "GradEstimate",
    "LayerPlan", "LayerShape", "LogisticProblem",
    "LossDifference", "Minibatch", "MlpProblem", "MonteCarloReport",
    "NonFiniteLoss", "OptimizerConfig", "PerturbSpec", "ProjectionPair",
    "QuadraticProblem", "QuarticProblem", "RankDeficient", "RunRecord",
    "ScaleRefused", "ShapeError", "StepFailure", "StepRecord", "SubzeroError",
    "TrainerState", "axpy_perturbation", "build_pairs", "check_bias_bound",
    "check_cosine_identity", "check_expectation_identity",
    "check_second_moment", "convergence_battery", "dense_subspace_probe",
    "derive_seed", "estimator_diagnostics", "fit_loglog_slope", "full_batch",
    "gaussian_matrix", "init_state", "iter_perturbation_layers",
    "materialize_projector", "measure_bias", "pairs_from_plan",
    "perturb_params_inplace", "plan_layers", "qr_orthonormal",
    "reshape_near_square", "reshaped_view", "run_default_battery",
    "sample_minibatch", "stack_params", "step", "subspace_dimension",
    "subzero_estimate", "theoretical_step_size", "train",
    "two_sided_loss_diff", "unstack_params",
]
