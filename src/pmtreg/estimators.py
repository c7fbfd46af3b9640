"""OLS estimators: non-private, sufficient-statistics DP baseline, and the
public-moment-preconditioned DP variant.

Both DP estimators are one mechanism, :func:`_release`: clip rows, add
Gaussian noise to X^T X / n and X^T y / n, and solve the noisy normal
equations ("Analyze Gauss", Dwork, Talwar, Thakurta and Zhang, STOC 2014).
They differ only in what they feed it.  The preconditioned variant whitens
private rows by the public second-moment matrix, which shrinks both the
truncation radius and the condition number of the matrix being inverted,
and undoes the change of variables on the solved coefficients.  The baseline
passes raw rows with radii taken from the private data's own moments.

Each DP estimator takes a tuple of budgets and returns one
:class:`EstimatorOutput`.  The work that does not depend on rho (whitening,
clipping, the two moments, the pre-noise spectrum) is done and held once; the
noise, the noisy spectrum and the solve once per budget.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import pmt
from .privacy import (
    PrivacyBudget,
    noise_scales,
    sample_gaussian_vector,
    sample_symmetric_gaussian,
)
from .spectra import (
    SpectralDiagnostics,
    SymmetricMatrix,
    UnstableInversionError,
    diagnostics,
    inv_sqrt_clamped,
    solve,
)

__all__ = [
    "Method",
    "LabeledDataset",
    "PublicMoments",
    "EstimatorOutput",
    "UnstableInversionError",
    "olse",
    "dp_pmtolse",
    "dp_olse_baseline",
]


class Method(enum.Enum):
    DP_OLSE = "DP_OLSE"
    DP_PMTOLSE = "DP_PMTOLSE"


@dataclass(frozen=True)
class LabeledDataset:
    """A design matrix with its response vector."""

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.responses, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"features must be an n x d matrix, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(
                f"responses must be a vector of length {x.shape[0]}, got shape {y.shape}"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("need n >= 1 and d >= 1")
        for name, values in (("features", x), ("responses", y[:, None])):
            if not np.isfinite(values).all():
                row, col = np.argwhere(~np.isfinite(values))[0]
                raise ValueError(
                    f"{name} must be finite: {values[row, col]} at row {row}, column {col}"
                )
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "responses", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class PublicMoments:
    """Public second moments used as the preconditioner.

    feature_moment is B^T B / n_B; response_moment is sqrt(mean(y_B^2)).
    """

    feature_moment: SymmetricMatrix
    response_moment: float
    n_pub: int

    def __post_init__(self):
        if not (math.isfinite(self.response_moment) and self.response_moment >= 0):
            raise ValueError(
                f"response_moment must be finite and nonnegative, got {self.response_moment}"
            )
        if self.n_pub < 1:
            raise ValueError("n_pub must be positive")


@dataclass(frozen=True)
class EstimatorOutput:
    """One DP call: a beta and a noisy spectrum per budget (beta None where
    :func:`solve` refused that spectrum), and the rho-independent stage once."""

    budgets: tuple[PrivacyBudget, ...]
    betas: tuple[np.ndarray | None, ...]
    post_diags: tuple[SpectralDiagnostics, ...]
    feature_truncation: pmt.TruncationReport
    response_truncation: pmt.TruncationReport
    pre_diag: SpectralDiagnostics
    notes: tuple = ()

    @property
    def ledger(self) -> tuple[tuple[str, float], ...]:
        """(statistic, rho) per release: two per budget."""
        return tuple(
            (s, float(b.rho)) for b in self.budgets for s in ("second_moment", "cross_moment")
        )

    @property
    def rho_total(self) -> float:
        """The ledger's sum, exactly rounded: the order of budgets cannot change it."""
        return math.fsum(rho for _, rho in self.ledger)


def olse(data: LabeledDataset) -> np.ndarray:
    """Plain least squares via the guarded normal-equations solve; returns beta."""
    x, y, n = data.features, data.responses, data.n
    return solve(diagnostics(SymmetricMatrix(x.T @ x / n)), x.T @ y / n)


def _release(
    features: np.ndarray,
    responses: np.ndarray,
    r_x: float,
    r_y: float,
    budgets: tuple[PrivacyBudget, ...],
    rng: np.random.Generator,
    notes: tuple = (),
) -> EstimatorOutput:
    """The Gaussian sufficient-statistics mechanism both DP estimators share.

    Clips feature rows to r_x and responses to r_y and forms X^T X / n,
    X^T y / n and the pre-noise spectrum once.  Then, for each budget in
    order, releases both statistics with the noise of :func:`noise_scales`
    (rho each, matrix noise drawn first) and solves the noisy normal equations
    through their eigenpairs.  Every budget gets its own independent noise,
    so each budget is a standalone release at its rho.  A budget whose noisy
    moment :func:`solve` refuses gets beta None; the other budgets stand.
    """
    n, d = features.shape
    if n <= d:
        raise ValueError(f"need n > d private samples, got n={n}, d={d}")
    x, feat_report = pmt.clip_rows(features, r_x)
    y, resp_report = pmt.clip_rows(responses[:, None], r_y)
    second = SymmetricMatrix(x.T @ x / n)
    cross = x.T @ y[:, 0] / n
    pre_diag = diagnostics(second)

    betas, post_diags = [], []
    for budget in budgets:
        sigma1, sigma2 = noise_scales(r_x, r_y, n, budget)
        noise_mat = sample_symmetric_gaussian(d, sigma1, rng)
        noise_vec = sample_gaussian_vector(d, sigma2, rng)
        post_diag = diagnostics(SymmetricMatrix(second.entries + noise_mat))
        post_diags.append(post_diag)
        try:
            betas.append(solve(post_diag, cross + noise_vec))
        except UnstableInversionError:
            betas.append(None)
    return EstimatorOutput(
        tuple(budgets), tuple(betas), tuple(post_diags),
        feat_report, resp_report, pre_diag, notes=notes,
    )


def dp_pmtolse(
    data: LabeledDataset,
    public: PublicMoments,
    eta: float,
    budgets: tuple[PrivacyBudget, ...],
    rng: np.random.Generator,
) -> EstimatorOutput:
    """DP least squares with public-moment preconditioning.

    Whitens features by the public feature moment and rescales responses by
    the public response moment, releases the two sufficient statistics with
    radii sqrt(d (1 + ln(2n/eta))) and sqrt(1 + ln(2n/eta)) (rho each, 2 rho
    per budget), and maps each whitened solution back.  The whitening and
    clipping are done once for all budgets; see :func:`_release`.  A public
    sample with all responses zero raises :class:`UnstableInversionError`.
    """
    n, d = data.n, data.d
    r_x, r_y = pmt.truncation_radius(d, n, eta), pmt.truncation_radius(1, n, eta)
    if public.n_pub <= d:
        raise ValueError(
            f"need n_pub > d for the preconditioner, got n_pub={public.n_pub}, d={d}"
        )
    if public.response_moment <= 0:
        raise UnstableInversionError("response_moment must be positive to rescale responses")

    pre = inv_sqrt_clamped(public.feature_moment)
    out = _release(
        pmt.transform(data.features, pre),
        data.responses / public.response_moment,
        r_x, r_y, budgets, rng,
    )
    sigma_b = public.response_moment
    return replace(
        out,
        betas=tuple(None if b is None else sigma_b * (pre.entries @ b) for b in out.betas),
    )


def dp_olse_baseline(
    data: LabeledDataset,
    eta: float,
    budgets: tuple[PrivacyBudget, ...],
    rng: np.random.Generator,
) -> EstimatorOutput:
    """Private-data-only DP least squares baseline.

    Releases the raw rows' sufficient statistics with radii
    R_x^2 = tr + d ln(2n/eta) and R_y^2 = sigma_y^2 + ln(2n/eta), where tr and
    sigma_y^2 are the mean squared feature-row norm and response of the
    untruncated private data, computed without privatization.  That is this
    baseline's known caveat, recorded in ``notes``.  See :func:`_release`.
    """
    n, d = data.n, data.d
    log_term = pmt.truncation_radius(1, n, eta) ** 2 - 1.0  # ln(2n/eta), eta checked
    trace_a = float(np.sum(data.features**2)) / n
    sigma_a_sq = float(np.mean(data.responses**2))
    return _release(
        data.features,
        data.responses,
        math.sqrt(trace_a + d * log_term),
        math.sqrt(sigma_a_sq + log_term),
        budgets, rng,
        notes=("truncation radii derived from unprivatized private moments",),
    )
