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
clipping, the two moments) is done once, the noise is drawn per budget, and
the noisy moments are decomposed as one stack, in one eigendecomposition
call.

A :class:`LabeledDataset` is its rows and the :class:`RowStatistics` it was
handed for them (row norms, X^T X, X^T y); what it was not handed, and the
moments and spectrum derived from them, it forms on first read.  A clip
that changes no row hands back the same rows, so :func:`olse` and a
baseline release that clips nothing share one Gram and one spectrum.
Designs not taken (P G P, the summation order of mean ||x||^2): README,
"Rejected designs".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

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
    "RowStatistics",
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


class RowStatistics(NamedTuple):
    """What a :class:`LabeledDataset` holds instead of forming it from its
    rows: each row's ||x_i||^2 (``feature_sq_norms``) and y_i^2
    (``response_sq``), X^T X (``gram``) and X^T y (``cross``).  None marks a
    statistic the dataset forms on first read.

    Made by :meth:`of_checked_rows` or :meth:`subset`.  ``RowStatistics()``
    holds nothing, for whitened or clipped rows.  A tuple, as a frozen
    dataclass took 0.6 ms more to define and 2.5x as long per instance
    (CPython 3.11, 2 vCPUs).
    """

    feature_sq_norms: np.ndarray | None = None
    response_sq: np.ndarray | None = None
    gram: np.ndarray | None = None
    cross: np.ndarray | None = None

    @classmethod
    def of_checked_rows(cls, x: np.ndarray, y: np.ndarray) -> RowStatistics:
        """The row norms of rows whose cells were checked, formed now for
        every subset of them (inf where a finite entry's square overflows)."""
        with np.errstate(over="ignore"):
            return cls(_read_only(np.einsum("ij,ij->i", x, x)), _read_only(y * y))

    @classmethod
    def subset(cls, parent: LabeledDataset, pick, left_out) -> RowStatistics:
        """A subset's slice of ``parent``'s row norms, ``pick`` selecting its
        rows from a per-row array.  If ``left_out`` holds, as datasets, the
        rows of ``parent`` that ``pick`` leaves out, its X^T X and X^T y are
        ``parent``'s sums less theirs (``data.split`` says when); else they
        are formed from its own rows."""
        gram = cross = None
        if left_out:
            gram, cross = parent.gram, parent.cross
            for rows in left_out:
                gram, cross = gram - rows.gram, cross - rows.cross
        sq_norms, response_sq = pick(parent.feature_sq_norms), pick(parent.response_sq)
        return cls(_read_only(sq_norms), _read_only(response_sq), gram, cross)


@dataclass(frozen=True)
class LabeledDataset:
    """A design matrix with its response vector, both read-only and C-ordered,
    and the :class:`RowStatistics` it holds for them.

    Built without ``stats``, it checks its cells and forms its row norms;
    with them, it takes float64 rows from a checked dataset, or computed from
    one, without scanning them.  What ``stats`` does not hold, and the
    moments and spectrum below, are formed on first read and kept.
    """

    features: np.ndarray
    responses: np.ndarray
    stats: RowStatistics | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.stats is not None:
            self.features.flags.writeable = self.responses.flags.writeable = False
            return
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
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "stats", RowStatistics.of_checked_rows(x, y))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def head(self, n: int) -> LabeledDataset:
        """The first n rows: this dataset itself when it has n rows, else views."""
        return self if n == self.n else self._subset(lambda values: values[:n], ())

    def take(self, index: np.ndarray, left_out=()) -> LabeledDataset:
        """The rows at ``index``, gathered into new arrays.  If ``left_out``
        holds the other rows as datasets, the subset's sums are their
        complement (:meth:`RowStatistics.subset`)."""
        return self._subset(lambda values: np.take(values, index, axis=0), left_out)

    def _subset(self, pick, left_out) -> LabeledDataset:
        """The rows ``pick`` selects from each per-row array, with their statistics."""
        stats = RowStatistics.subset(self, pick, left_out)
        return LabeledDataset(pick(self.features), pick(self.responses), stats)

    @cached_property
    def feature_sq_norms(self) -> np.ndarray:
        """||x_i||^2 for each row, as :func:`pmt.clip_rows` screens rows."""
        x, held = self.features, self.stats.feature_sq_norms
        return _read_only(np.einsum("ij,ij->i", x, x)) if held is None else held

    @cached_property
    def response_sq(self) -> np.ndarray:
        """y_i^2 for each row."""
        y, held = self.responses, self.stats.response_sq
        return _read_only(y * y) if held is None else held

    @cached_property
    def gram(self) -> np.ndarray:
        """X^T X."""
        x, held = self.features, self.stats.gram
        return x.T @ x if held is None else held

    @cached_property
    def cross(self) -> np.ndarray:
        """X^T y."""
        held = self.stats.cross
        return self.features.T @ self.responses if held is None else held

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
    shared: bool = False,
) -> EstimatorOutput:
    """The Gaussian sufficient-statistics mechanism both DP estimators share.

    Clips feature rows to r_x and responses to r_y, once.  For each budget in
    order it draws the noise of :func:`noise_scales` (rho each, matrix noise
    first), so every budget is a standalone release at its rho.  The noisy
    moments are decomposed in one :func:`shifted_diagnostics` stack, and each
    budget is solved through its eigenpairs; one whose noisy moment
    :func:`solve` refuses gets beta None, and the others stand.

    A clip that changes no row releases ``data`` itself, with whatever it
    holds.  ``shared`` marks ``data`` as the caller's rows, whose spectrum
    the caller may have formed (:func:`olse` reads it): unclipped, it is read
    from ``data``.  Rows new here (whitened or clipped) decompose their
    pre-noise moment in the stack.
    """
    n, d = data.n, data.d
    if n <= d:
        raise ValueError(f"need n > d private samples, got n={n}, d={d}")
    x, feat_report = pmt.clip_rows(data.features, r_x, data.feature_sq_norms)
    y, resp_report = pmt.clip_rows(data.responses[:, None], r_y, data.response_sq)
    if feat_report.truncated or resp_report.truncated:
        data, shared = LabeledDataset(x, y[:, 0], RowStatistics()), False

    noise = []
    for budget in budgets:
        sigma1, sigma2 = noise_scales(r_x, r_y, n, budget)
        noise.append(
            (sample_symmetric_gaussian(d, sigma1, rng), sample_gaussian_vector(d, sigma2, rng))
        )
    spectra = shifted_diagnostics(data.second_moment, [mat for mat, _ in noise], not shared)
    pre_diag, post_diags = (data.spectrum, spectra) if shared else (spectra[0], spectra[1:])
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
    x, y = pmt.transform(data.features, pre), data.responses / public.response_moment
    out = _release(LabeledDataset(x, y, RowStatistics()), r_x, r_y, budgets, rng)
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
    # tr is summed over the cells, not the row norms: README, "Rejected designs"
    trace_a = float(np.sum(data.features**2)) / n
    sigma_a_sq = float(np.mean(data.response_sq))
    return _release(
        data,
        math.sqrt(trace_a + d * log_term),
        math.sqrt(sigma_a_sq + log_term),
        budgets, rng,
        notes=("truncation radii derived from unprivatized private moments",),
        shared=True,
    )
