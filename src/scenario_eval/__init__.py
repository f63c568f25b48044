"""Evaluation of counterfactual scenario projections.

Simulates worlds where both the realized outcome and the never-observed
counterfactual outcomes are known, runs three strategies for estimating a
projection model's error in the scenarios it modeled, and scores each
strategy against the true errors.
"""

__version__ = "0.1.0"

from .approaches import (
    ErrorDistribution,
    evaluate_plausible,
    infer_error_distribution,
    infer_observations,
)
from .harness import EvaluationReport, RunSettings, evaluate, run
from .metrics import decompose, ks_two_sample, mae_of_means
from .sir_core import SirParams, SirTrajectory, final_size, simulate
from .spline_fit import FittedSpline, SplineSpec, fit, predict, sample_predictive
from .world_gen import ExperimentConfig, ModelEnsemble, TrueWorld, generate, true_errors

__all__ = [
    "__version__",
    "ErrorDistribution",
    "EvaluationReport",
    "ExperimentConfig",
    "FittedSpline",
    "ModelEnsemble",
    "RunSettings",
    "SirParams",
    "SirTrajectory",
    "SplineSpec",
    "TrueWorld",
    "decompose",
    "evaluate",
    "evaluate_plausible",
    "final_size",
    "fit",
    "generate",
    "infer_error_distribution",
    "infer_observations",
    "ks_two_sample",
    "mae_of_means",
    "predict",
    "run",
    "sample_predictive",
    "simulate",
    "true_errors",
]
