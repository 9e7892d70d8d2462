"""Triadic co-training on frozen two-view embeddings.

Two dropout-MLP students exchange MI-filtered pseudo-labels across views, a
non-parametric generator attacks their decision boundaries inside an
L-infinity budget, and a meta-learned teacher tunes the acceptance threshold
and loss weights against a held-out validation split. The game module checks
the equilibrium structure of trained configurations empirically.
"""

from .data import BatchIterator, BatchPlan, TwoViewDataset, gen_synthetic_two_view, make_splits
from .engine import StepReport, TrainConfig, TrainingReport, evaluate, run_training
from .errors import (
    ConfigError,
    FormatError,
    InsufficientHistoryError,
    InvalidInputError,
    NonFiniteError,
    OracleFailureError,
)
from .game import GameProfile, TrainedTriadicGame, nash_residual, stackelberg_residual
from .generator import PerturbConfig, pgd_perturb_batch, project_linf
from .numerics import cross_entropy, entropy, finite_diff_grad, softmax
from .student import OptimizerState, StudentParams, init_student
from .teacher import TeacherStrategy, init_strategy, map_strategy, soft_gate
from .uncertainty import batch_statistics, confidence_filter, mi_filter

__version__ = "0.1.0"

__all__ = [
    "BatchIterator",
    "BatchPlan",
    "ConfigError",
    "FormatError",
    "GameProfile",
    "InsufficientHistoryError",
    "InvalidInputError",
    "NonFiniteError",
    "OptimizerState",
    "OracleFailureError",
    "PerturbConfig",
    "StepReport",
    "StudentParams",
    "TeacherStrategy",
    "TrainConfig",
    "TrainedTriadicGame",
    "TrainingReport",
    "TwoViewDataset",
    "batch_statistics",
    "confidence_filter",
    "cross_entropy",
    "entropy",
    "evaluate",
    "finite_diff_grad",
    "gen_synthetic_two_view",
    "init_strategy",
    "init_student",
    "make_splits",
    "map_strategy",
    "mi_filter",
    "nash_residual",
    "pgd_perturb_batch",
    "project_linf",
    "run_training",
    "soft_gate",
    "softmax",
    "stackelberg_residual",
]
