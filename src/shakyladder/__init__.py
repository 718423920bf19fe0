"""Simulation library for noisy leaderboard mechanisms, adaptive
overfitting attacks, and leaderboard-backed adaptive estimation."""

from .core import (
    HoldoutSample,
    SubmittedModel,
    Trace,
    clamp_release,
    empirical_risk,
    make_random_label_sample,
    model_from_predictions,
)
from .noise import Rng, binomial_exceedance, gaussian, laplace
from .mechanisms import (
    BudgetExhaustedError,
    Ladder,
    LadderConfig,
    MechanismParams,
    ExactEmpiricalOracle,
    NoisyEmpiricalOracle,
    ParameterFreeLadder,
    ParameterRegimeError,
    PopulationMinOracle,
    ShakyLadder,
    make_mechanism,
    shaky_params,
)
from .audit import (
    EvalReport,
    EvaluationSession,
    envelope_check,
    faithfulness_audit,
    leaderboard_error,
    error_rate_ratio,
)
from .reduction import AdaptiveEstimator, Query, QueryOutcome, run_estimator_session
from .analysts import (
    AttackReport,
    majority_attack_direct,
    majority_attack_vs_mechanism,
    run_random_analyst,
    shifted_majority_attack,
)
from .experiments import ExperimentConfig, render_csv, run_experiment

__version__ = "0.1.0"

__all__ = [
    "HoldoutSample", "SubmittedModel", "Trace", "clamp_release",
    "empirical_risk", "make_random_label_sample", "model_from_predictions",
    "Rng", "binomial_exceedance", "gaussian", "laplace",
    "BudgetExhaustedError", "Ladder", "LadderConfig", "MechanismParams",
    "ExactEmpiricalOracle", "NoisyEmpiricalOracle", "ParameterFreeLadder",
    "ParameterRegimeError", "PopulationMinOracle", "ShakyLadder",
    "make_mechanism", "shaky_params",
    "EvalReport", "EvaluationSession", "envelope_check", "faithfulness_audit",
    "leaderboard_error", "error_rate_ratio",
    "AdaptiveEstimator", "Query", "QueryOutcome", "run_estimator_session",
    "AttackReport", "majority_attack_direct", "majority_attack_vs_mechanism",
    "run_random_analyst", "shifted_majority_attack",
    "ExperimentConfig", "render_csv", "run_experiment",
]
