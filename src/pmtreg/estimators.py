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
clipping, the two moments) is done and held once, and the noise is drawn per
budget.  The pre-noise moment and every budget's noisy moment are then
decomposed as one stack, in one eigendecomposition call, and each budget is
solved through its own eigenpairs.

A :class:`LabeledDataset` forms X^T X, X^T y, their means over n and the
spectrum of X^T X / n once each, on first read.  A release reads the moments
of the rows it releases, and a clip that changes no row hands back the same
rows, so :func:`olse` and a release that clips nothing (the baseline on
standardized real data) share one Gram, one cross moment and one spectrum.

Each statistic of a single row is formed once per source of rows.  A checked
dataset forms every row's ||x_i||^2 and y_i^2 when it checks its cells (a
synthetic draw in ``data.generate``, the standardized real data in
``data.normalize``), and :meth:`LabeledDataset.head` and
:meth:`LabeledDataset.take` hand each subset its slice of them.  A release
screens both clips with them, and the baseline takes mean y^2 from them.  Its
mean ||x||^2 is still summed over the cells, as before: another summation
order moves r_x by an ulp, and where rows clip, the clipped Gram's
conditioning amplifies that: up to 1.5e-9 relative in the CSV's
``mean_avg_cond_pre`` on the ill-conditioned design below.  On real data,
``data.split`` may hand the private rows X^T X and X^T y from the
complement; see there.

DP_PMTOLSE forms its Gram from the whitened rows, never as P G P from the
raw Gram G, although that would skip a pass over the rows: P G P carries
rounding of order eps ||P||^2 ||G||, the ill-conditioning the
preconditioning exists to absorb.  On a design whose second moment has
avg_cond 1.5e8 (``pmtreg synth --psi-spec`` geomspace(1e-6, 1)
``--mu-scale 20``, seeds 0, 1 and 64) it moved DP_PMTOLSE's mean_err by up
to 1.2e-9 relative, where the row-formed Gram keeps every CSV byte.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

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
    shifted_diagnostics,
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


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


# Per-row statistics a dataset hands each subset of its rows.
_ROW_STATISTICS = ("feature_sq_norms", "response_sq")


@dataclass(frozen=True)
class LabeledDataset:
    """A design matrix with its response vector, both read-only and C-ordered.

    The moments and the spectrum below are computed once each, on first
    read, and kept; the per-row squared norms are formed when the cells are
    checked (or on first read, for rows that were not checked).
    :meth:`head` and :meth:`take` make subsets of the rows without checking
    their cells again, and hand each subset its share of the row norms.
    """

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64, order="C")
        y = np.asarray(self.responses, dtype=np.float64, order="C")
        if x.ndim != 2:
            raise ValueError(f"features must be an n x d matrix, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(
                f"responses must be a vector of length {x.shape[0]}, got shape {y.shape}"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("need n >= 1 and d >= 1")
        # A sum of squares is finite only if every term is, so the cells are
        # scanned only when it is not: to name the bad cell, or to find none
        # when finite entries overflowed the sum.
        with np.errstate(over="ignore"):
            totals = [np.dot(v, v) for v in (x.reshape(-1), y)]
        for name, values, total in zip(("features", "responses"), (x, y[:, None]), totals):
            if math.isfinite(total):
                continue
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                row, col = bad[0]
                raise ValueError(
                    f"{name} must be finite: {values[row, col]} at row {row}, column {col}"
                )
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "responses", y)
        # the per-row squared norms, formed once for every subset of these rows
        with np.errstate(over="ignore"):
            for name in _ROW_STATISTICS:
                getattr(self, name)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @classmethod
    def _unchecked(cls, features: np.ndarray, responses: np.ndarray) -> LabeledDataset:
        """Float64 rows taken from a checked dataset or computed from one,
        made read-only but not scanned again."""
        data = object.__new__(cls)
        features.flags.writeable = responses.flags.writeable = False
        object.__setattr__(data, "features", features)
        object.__setattr__(data, "responses", responses)
        return data

    def _subset(self, pick) -> LabeledDataset:
        """The rows ``pick`` selects from each per-row array, the row
        statistics included."""
        subset = self._unchecked(pick(self.features), pick(self.responses))
        for name in _ROW_STATISTICS:  # __dict__ is where cached_property keeps them
            subset.__dict__[name] = _read_only(pick(getattr(self, name)))
        return subset

    def head(self, n: int) -> LabeledDataset:
        """The first n rows: this dataset itself when it has n rows, else views."""
        if n == self.n:
            return self
        return self._subset(lambda values: values[:n])

    def take(self, index: np.ndarray) -> LabeledDataset:
        """The rows at ``index``, gathered into new arrays."""
        return self._subset(lambda values: np.take(values, index, axis=0))

    @cached_property
    def feature_sq_norms(self) -> np.ndarray:
        """||x_i||^2 for each row, as :func:`pmt.clip_rows` screens rows."""
        x = self.features
        return _read_only(np.einsum("ij,ij->i", x, x))

    @cached_property
    def response_sq(self) -> np.ndarray:
        """y_i^2 for each row."""
        y = self.responses
        return _read_only(y * y)

    @cached_property
    def gram(self) -> np.ndarray:
        """X^T X."""
        x = self.features
        return x.T @ x

    @cached_property
    def cross(self) -> np.ndarray:
        """X^T y."""
        return self.features.T @ self.responses

    @cached_property
    def second_moment(self) -> SymmetricMatrix:
        """X^T X / n."""
        return SymmetricMatrix(self.gram / self.n)

    @cached_property
    def cross_moment(self) -> np.ndarray:
        """X^T y / n."""
        return self.cross / self.n

    @cached_property
    def spectrum(self) -> SpectralDiagnostics:
        """The eigendecomposition of :attr:`second_moment`."""
        return diagnostics(self.second_moment)

    def noisy_spectra(self, noises) -> tuple[SpectralDiagnostics, list[SpectralDiagnostics]]:
        """:attr:`spectrum`, and the spectrum of second_moment + E for each
        exactly symmetric E in ``noises``, from one stacked eigendecomposition
        that takes in the second moment too unless its spectrum was read
        before."""
        pre = self.__dict__.get("spectrum")  # where cached_property keeps it
        post = shifted_diagnostics(self.second_moment, noises, include_m=pre is None)
        if pre is None:
            pre = self.__dict__["spectrum"] = post.pop(0)
        return pre, post


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
    """One DP call: a beta and a noisy spectrum per budget, in the caller's
    order (beta None where :func:`solve` refused that spectrum), and the
    rho-independent stage once."""

    betas: tuple[np.ndarray | None, ...]
    post_diags: tuple[SpectralDiagnostics, ...]
    feature_truncation: pmt.TruncationReport
    response_truncation: pmt.TruncationReport
    pre_diag: SpectralDiagnostics
    notes: tuple = ()


def olse(data: LabeledDataset) -> np.ndarray:
    """Plain least squares via the guarded normal-equations solve; returns beta."""
    return solve(data.spectrum, data.cross_moment)


def _release(
    data: LabeledDataset,
    r_x: float,
    r_y: float,
    budgets: tuple[PrivacyBudget, ...],
    rng: np.random.Generator,
    notes: tuple = (),
) -> EstimatorOutput:
    """The Gaussian sufficient-statistics mechanism both DP estimators share.

    Clips feature rows to r_x and responses to r_y, once.  For each budget in
    order it draws the noise of :func:`noise_scales` (rho each, matrix noise
    first), so every budget is a standalone release at its rho.  The clipped
    rows' pre-noise moment and the noisy moments are decomposed together
    (see :meth:`LabeledDataset.noisy_spectra`); when neither clip changed a
    row, the clipped rows are ``data`` itself, with any moment or spectrum it
    already holds.  Each budget then solves its noisy normal equations
    through its eigenpairs.  A budget whose noisy moment :func:`solve`
    refuses gets beta None; the other budgets stand.
    """
    n, d = data.n, data.d
    if n <= d:
        raise ValueError(f"need n > d private samples, got n={n}, d={d}")
    x, feat_report = pmt.clip_rows(data.features, r_x, data.feature_sq_norms)
    y, resp_report = pmt.clip_rows(data.responses[:, None], r_y, data.response_sq)
    if feat_report.truncated or resp_report.truncated:
        data = LabeledDataset._unchecked(x, y[:, 0])

    noise = []
    for budget in budgets:
        sigma1, sigma2 = noise_scales(r_x, r_y, n, budget)
        noise.append(
            (sample_symmetric_gaussian(d, sigma1, rng), sample_gaussian_vector(d, sigma2, rng))
        )
    pre_diag, post_diags = data.noisy_spectra([mat for mat, _ in noise])
    betas = []
    for post_diag, (_, vec) in zip(post_diags, noise):
        try:
            betas.append(solve(post_diag, data.cross_moment + vec))
        except UnstableInversionError:
            betas.append(None)
    return EstimatorOutput(
        tuple(betas), tuple(post_diags), feat_report, resp_report, pre_diag, notes=notes
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
    whitened = LabeledDataset._unchecked(
        pmt.transform(data.features, pre), data.responses / public.response_moment
    )
    out = _release(whitened, r_x, r_y, budgets, rng)
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
    # tr is summed over the cells, not over the carried row norms: another
    # summation order moves r_x by an ulp, and once rows clip, a design's
    # conditioning can make that a 1.5e-9 relative change of avg_cond.
    trace_a = float(np.sum(data.features**2)) / n
    sigma_a_sq = float(np.mean(data.response_sq))
    return _release(
        data,
        math.sqrt(trace_a + d * log_term),
        math.sqrt(sigma_a_sq + log_term),
        budgets, rng,
        notes=("truncation radii derived from unprivatized private moments",),
    )
