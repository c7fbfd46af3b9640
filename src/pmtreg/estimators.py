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

Each DP estimator takes a trial's largest private set, a tuple of budgets
and an ascending sequence of (n, rng) prefixes, and returns one
:class:`EstimatorOutput` per prefix, released from its first n rows; a lone
release is one prefix of the whole set.  The whitening and the baseline's
squares are formed once for every prefix.  The work that does not depend on
rho (clipping, the two moments) is done once per prefix, and the noise is
drawn per budget.
The pre-noise moment and the noisy ones take their eigenvalues from one
(K+1) x d x d stack, in one eigenvalues-only call: the pre-noise spectrum is
read only for its averaged condition number, a noisy one only for the
guard, and each budget's noisy system is then solved by LU.

A :class:`LabeledDataset` is its rows and the :class:`RowStatistics` it was
handed for them (X^T X, X^T y); what it was not handed, and the moments
derived from them, it forms on first read.  Each other statistic is formed
where it is read: the clip's squared row norms in :func:`pmt.clip_rows`, a
spectrum in the call that decomposes it.  A clip that changes no row hands
back the same rows, so :func:`olse` and a baseline release of a set that
holds its sums and clips nothing share one Gram.  Designs not taken (P G P,
the summation order of mean ||x||^2, carried row norms, one spectrum for two
readers, prefix sums as a running sum of row blocks):
README, "Rejected designs".
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


class RowStatistics(NamedTuple):
    """What a :class:`LabeledDataset` holds instead of forming it from its
    rows: X^T X (``gram``) and X^T y (``cross``).  None marks a sum the
    dataset forms on first read; ``RowStatistics()`` holds neither.

    ``data.split`` hands a private set its sums as a complement.  A tuple,
    as a frozen dataclass took 0.6 ms more to define and 2.5x as long per
    instance (CPython 3.11, 2 vCPUs).
    """

    gram: np.ndarray | None = None
    cross: np.ndarray | None = None


@dataclass(frozen=True)
class LabeledDataset:
    """A design matrix with its response vector, both read-only and C-ordered,
    and the :class:`RowStatistics` it holds for them.

    Built without ``stats``, it checks its cells; with them, it takes float64
    rows from a checked dataset, or computed from one, without scanning them.
    What ``stats`` does not hold, and the moments below, are formed on first
    read and kept.
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
        object.__setattr__(self, "stats", RowStatistics())

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def head(self, n: int) -> LabeledDataset:
        """The first n rows, 1 <= n <= the row count: this dataset itself
        when it has n rows, else views."""
        if not 1 <= n <= self.n:
            raise ValueError(f"head takes 1 to {self.n} rows, the row count, got n={n}")
        if n == self.n:
            return self
        return LabeledDataset(self.features[:n], self.responses[:n], RowStatistics())

    def take(self, index: np.ndarray) -> LabeledDataset:
        """The rows at ``index``, gathered into new arrays."""
        rows = (np.take(values, index, axis=0) for values in (self.features, self.responses))
        return LabeledDataset(*rows, RowStatistics())

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
    rho-independent stage once.  Each spectrum holds the moment it came
    from: ``post_diags[i].matrix`` is budget i's noisy X^T X / n."""

    betas: tuple[np.ndarray | None, ...]
    post_diags: tuple[SpectralDiagnostics, ...]
    feature_truncation: pmt.TruncationReport
    response_truncation: pmt.TruncationReport
    pre_diag: SpectralDiagnostics
    notes: tuple = ()


def olse(data: LabeledDataset) -> np.ndarray:
    """Plain least squares via the guarded normal-equations solve; returns beta."""
    return solve(diagnostics(data.second_moment), data.cross_moment)


def _prefix_sizes(data: LabeledDataset, prefixes) -> list[int]:
    """The prefixes' row counts, checked: strictly ascending, each above d
    and at most the set's row count."""
    sizes = [n for n, _ in prefixes]
    if not sizes:
        raise ValueError("need at least one prefix to release")
    if sizes[0] <= data.d:
        raise ValueError(f"need n > d private samples, got n={sizes[0]}, d={data.d}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[-1] > data.n:
        raise ValueError(
            f"prefix sizes must ascend strictly up to the {data.n} rows, got {sizes}"
        )
    return sizes


def _release(
    data: LabeledDataset,
    prefixes,
    radii,
    budgets: tuple[PrivacyBudget, ...],
    notes: tuple = (),
) -> tuple[EstimatorOutput, ...]:
    """The Gaussian sufficient-statistics mechanism both DP estimators share,
    applied to each prefix of ``data``: one :class:`EstimatorOutput` per
    (n, rng) in ``prefixes``, released from the first n rows with the
    (r_x, r_y) of ``radii`` at the same place.

    For each prefix it clips feature rows to r_x and responses to r_y, once.
    For each budget in order it draws the noise of :func:`noise_scales` from
    the prefix's rng (rho each, matrix noise first), so every budget is a
    standalone release at its rho.  The noisy moments take their eigenvalues
    from one :func:`shifted_diagnostics` stack, after the pre-noise moment,
    and each budget's system is solved by :func:`solve` (the eigenvalue
    guard, then LU), one call per budget; one whose noisy moment
    :func:`solve` refuses gets beta None, and the others stand.

    A prefix whose clips change no row releases :meth:`LabeledDataset.head`
    of ``data``, with the sums ``data`` holds for its full-size prefix; a
    prefix that clips forms its sums from the clipped rows.
    """
    outs = []
    for (n, rng), (r_x, r_y) in zip(prefixes, radii):
        rows = data.head(n)
        x, feat_report = pmt.clip_rows(rows.features, r_x)
        y, resp_report = pmt.clip_rows(rows.responses[:, None], r_y)
        if feat_report.truncated or resp_report.truncated:
            rows = LabeledDataset(x, y[:, 0], RowStatistics())

        noise = []
        for budget in budgets:
            sigma1, sigma2 = noise_scales(r_x, r_y, n, budget)
            noise.append(
                (sample_symmetric_gaussian(data.d, sigma1, rng),
                 sample_gaussian_vector(data.d, sigma2, rng))
            )
        pre_diag, *post_diags = shifted_diagnostics(rows.second_moment, [m for m, _ in noise])
        betas = []
        for post_diag, (_, vec) in zip(post_diags, noise):
            try:
                betas.append(solve(post_diag, rows.cross_moment + vec))
            except UnstableInversionError:
                betas.append(None)
        outs.append(EstimatorOutput(
            tuple(betas), tuple(post_diags), feat_report, resp_report, pre_diag, notes=notes
        ))
        del rows, x, y  # free a clipped copy before the next prefix makes its own
    return tuple(outs)


def dp_pmtolse(
    data: LabeledDataset,
    public: PublicMoments,
    eta: float,
    budgets: tuple[PrivacyBudget, ...],
    prefixes,
) -> tuple[EstimatorOutput, ...]:
    """DP least squares with public-moment preconditioning, one release per
    (n, rng) in ``prefixes``: the first n rows of ``data``, noised from rng.

    Whitens features by the public feature moment and rescales responses by
    the public response moment, releases the two sufficient statistics with
    radii sqrt(d (1 + ln(2n/eta))) and sqrt(1 + ln(2n/eta)) (rho each, 2 rho
    per budget), and maps each whitened solution back.  The whitening is
    done once for every prefix, and each prefix's clipping once for all its
    budgets; see :func:`_release`.  A public sample with all responses zero
    raises :class:`UnstableInversionError`.
    """
    d = data.d
    radii = [
        (pmt.truncation_radius(d, n, eta), pmt.truncation_radius(1, n, eta))
        for n in _prefix_sizes(data, prefixes)
    ]
    if public.n_pub <= d:
        raise ValueError(
            f"need n_pub > d for the preconditioner, got n_pub={public.n_pub}, d={d}"
        )
    if public.response_moment <= 0:
        raise UnstableInversionError("response_moment must be positive to rescale responses")

    pre = inv_sqrt_clamped(public.feature_moment)
    x, y = pmt.transform(data.features, pre), data.responses / public.response_moment
    outs = _release(LabeledDataset(x, y, RowStatistics()), prefixes, radii, budgets)
    sigma_b, p = public.response_moment, pre.entries
    return tuple(
        replace(out, betas=tuple(None if b is None else sigma_b * (p @ b) for b in out.betas))
        for out in outs
    )


def dp_olse_baseline(
    data: LabeledDataset,
    eta: float,
    budgets: tuple[PrivacyBudget, ...],
    prefixes,
) -> tuple[EstimatorOutput, ...]:
    """Private-data-only DP least squares baseline, one release per (n, rng)
    in ``prefixes``: the first n rows of ``data``, noised from rng.

    Releases the raw rows' sufficient statistics with radii
    R_x^2 = tr + d ln(2n/eta) and R_y^2 = sigma_y^2 + ln(2n/eta), where tr and
    sigma_y^2 are the mean squared feature-row norm and response of the
    prefix's untruncated rows, computed without privatization.  That is this
    baseline's known caveat, recorded in ``notes``.  The feature rows are
    squared once for every prefix; see :func:`_release`.
    """
    d = data.d
    sizes = _prefix_sizes(data, prefixes)
    # tr is summed over the cells, not the row norms: README, "Rejected designs"
    squares = data.features**2
    radii = []
    for n in sizes:
        log_term = pmt.truncation_radius(1, n, eta) ** 2 - 1.0  # ln(2n/eta), eta checked
        trace_a = float(np.sum(squares[:n])) / n
        # squared per prefix: a vector of them kept beside the n x d squares
        # could leave a heap hole that raised synth-wide's peak RSS 0.9 MB
        sigma_a_sq = float(np.mean(data.responses[:n] ** 2))
        radii.append((math.sqrt(trace_a + d * log_term), math.sqrt(sigma_a_sq + log_term)))
    del squares  # n x d floats, not needed through the releases
    return _release(
        data, prefixes, radii, budgets,
        notes=("truncation radii derived from unprivatized private moments",),
    )
