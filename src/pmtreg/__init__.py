"""Differentially private least squares with public second-moment
preconditioning, plus the private-data-only baseline and an experiment
harness."""

from .estimators import (
    EstimatorOutput,
    LabeledDataset,
    Method,
    PublicMoments,
    UnstableInversionError,
    dp_olse_baseline,
    dp_pmtolse,
    olse,
)
from .privacy import PrivacyBudget
from .spectra import SpectralDiagnostics, SymmetricMatrix

__all__ = [
    "EstimatorOutput",
    "LabeledDataset",
    "Method",
    "PrivacyBudget",
    "PublicMoments",
    "SpectralDiagnostics",
    "SymmetricMatrix",
    "UnstableInversionError",
    "dp_olse_baseline",
    "dp_pmtolse",
    "olse",
]
