"""Public-moment transformation and norm truncation of private samples.

The pipeline whitens private rows by the inverse square root of a public
second-moment matrix, then clips any row whose Euclidean norm reaches the
radius sqrt(d (1 + ln(2n/eta))).  For well-matched public data the
transformed rows are near-isotropic and the clip almost never fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import SymmetricMatrix

__all__ = [
    "TruncationReport",
    "truncation_radius",
    "transform",
    "clip_rows",
]

_TINY = np.finfo(np.float64).tiny


def truncation_radius(d: int, n: int, eta: float) -> float:
    """Clip radius sqrt(d (1 + ln(2n/eta))) for n rows in dimension d.

    d = 1 gives the response radius.  This is where both DP estimators
    validate eta, so a bad eta fails the same way on either path.
    """
    if d < 1 or n < 1:
        raise ValueError(f"d and n must be positive, got d={d}, n={n}")
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    radius = math.sqrt(d * (1.0 + math.log(2.0 * n / eta)))
    if not math.isfinite(radius):
        raise ValueError(
            f"eta={eta} is too small: the radius sqrt(d (1 + ln(2n/eta))) overflows"
        )
    return radius


@dataclass(frozen=True)
class TruncationReport:
    """Empirical witness of how often the clip fired."""

    total: int
    truncated: int

    def __post_init__(self):
        if not (0 <= self.truncated <= self.total):
            raise ValueError("truncated count out of range")


def transform(samples: np.ndarray, preconditioner_inv_sqrt: SymmetricMatrix) -> np.ndarray:
    """Apply the whitening map row-wise: row_i -> P @ row_i.

    P is symmetric, so this is samples @ P.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError(f"expected an n x d sample matrix, got shape {samples.shape}")
    if samples.shape[1] != preconditioner_inv_sqrt.dim:
        raise ValueError(
            f"dimension mismatch: samples have d={samples.shape[1]}, "
            f"preconditioner is {preconditioner_inv_sqrt.dim}x{preconditioner_inv_sqrt.dim}"
        )
    return samples @ preconditioner_inv_sqrt.entries


def clip_rows(samples: np.ndarray, radius: float, sq_norms: np.ndarray | None = None):
    """Clip rows with norm >= radius back onto the radius sphere.

    Rows strictly inside the radius pass through bit-exactly; clipped rows
    keep their direction.  When no row reaches the radius the input array
    itself is returned, not a copy.  Returns (rows, TruncationReport).

    ``sq_norms``, if given, is each row's squared norm as
    ``np.einsum("ij,ij->i", samples, samples)`` gives it (a dataset carries
    them); it saves a pass over the rows and changes no result.
    """
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError(f"radius must be a positive finite real, got {radius}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError(f"expected an n x d matrix, got shape {samples.shape}")
    if sq_norms is not None and np.shape(sq_norms) != samples.shape[:1]:
        raise ValueError(
            f"sq_norms must hold one value per row, got shape {np.shape(sq_norms)} "
            f"for {samples.shape[0]} rows"
        )
    # Screen with squared norms, then take the exact norm (numpy's pairwise
    # row sum, as np.linalg.norm computes it) only of rows that could reach
    # the radius.  Both sums of d nonnegative terms are within about
    # (d - 1) eps of the true sum, relatively, so a 1e-9 margin is safe for
    # any d below about 10^6.  A nan row screens out and its exact norm would
    # not clip it either, so when no row passes the screen the input goes
    # back at once (not screened on sq.max(): README, "Rejected designs").
    # The bound fails for a subnormal or overflowing radius^2, which takes
    # exact norms for every row, as do non-C-ordered inputs, whose pairwise
    # row sums follow another order.
    low = radius * radius * (1.0 - 1e-9)
    if _TINY <= low < math.inf and samples.flags.c_contiguous:
        if sq_norms is None:
            sq_norms = np.einsum("ij,ij->i", samples, samples)
        near = sq_norms >= low
        if not near.any():
            return samples, TruncationReport(samples.shape[0], 0)
        rows = np.flatnonzero(near)
        norms = np.linalg.norm(samples[rows], axis=1)
    else:
        rows = np.arange(samples.shape[0])
        norms = np.linalg.norm(samples, axis=1)
    over = norms >= radius
    out = samples
    if over.any():
        clipped = rows[over]
        out = samples.copy()
        out[clipped] = samples[clipped] * (radius / norms[over])[:, None]
    return out, TruncationReport(samples.shape[0], int(np.count_nonzero(over)))
