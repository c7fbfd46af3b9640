"""zCDP accounting and sensitivity-calibrated Gaussian mechanisms.

Noise scales follow the Gaussian mechanism: a statistic with L2 sensitivity
Delta released with per-coordinate std Delta / sqrt(2 rho) satisfies
rho-zCDP.  Composition adds the rho values; conversion to (eps, delta)-DP
uses eps = rho + 2 sqrt(rho ln(1/delta)).

All logs are natural.  All sampling takes an explicit numpy Generator so
every mechanism is a pure function of (parameters, stream state).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrivacyBudget",
    "zcdp_to_dp",
    "noise_scales",
    "sample_symmetric_gaussian",
    "sample_gaussian_vector",
]


@dataclass(frozen=True)
class PrivacyBudget:
    """A zCDP budget, parameterized by rho > 0 with 2 rho finite: above that,
    sqrt(2 rho) overflows and :func:`noise_scales` would add no noise at all."""

    rho: float

    def __post_init__(self):
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be a positive finite real, got {self.rho}")
        if not math.isfinite(2.0 * self.rho):
            raise ValueError(
                f"rho must be below 2**1023, so that 2 rho is finite, got {self.rho}"
            )


def zcdp_to_dp(budget: PrivacyBudget, delta: float) -> float:
    """The epsilon at which rho-zCDP implies (epsilon, delta)-DP."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    rho = budget.rho
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def noise_scales(r_x: float, r_y: float, n: int, budget: PrivacyBudget) -> tuple[float, float]:
    """Noise stds (sigma1, sigma2) for the clipped X^T X / n and X^T y / n.

    With every row clipped to ||x|| <= r_x and |y| <= r_y, replacing one row
    moves X^T X / n by at most (||x||^2 + ||x'||^2) / n <= 2 r_x^2 / n in
    Frobenius norm and X^T y / n by at most 2 r_x r_y / n in L2 norm.  Each
    statistic gets sigma = Delta / sqrt(2 rho), so the pair costs 2 rho.  The
    matrix noise is drawn on the upper triangle only, whose L2 sensitivity is
    at most the Frobenius one.

    The matrix constant 2 r_x^2 / n is the paper's, and it is loose: since
    ||x x^T - x' x'^T||_F^2 = ||x||^4 + ||x'||^4 - 2 (x . x')^2 <= 2 r_x^4,
    the tight replace-one bound is sqrt(2) r_x^2 / n, so the matrix release
    meets rho / 2-zCDP while this scale charges it rho.  The vector constant is
    tight (take x' = -x).
    """
    scale = n * math.sqrt(2.0 * budget.rho)
    return 2.0 * r_x * r_x / scale, 2.0 * r_x * r_y / scale


def _check_sigma(sigma: float) -> None:
    if not (sigma >= 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")


@functools.cache
def _upper_triangle(d: int):
    """Row and column indices of the d x d upper triangle, diagonal included.

    Every caller shares the cached arrays, so they are read-only.
    """
    rows, cols = np.triu_indices(d)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def sample_symmetric_gaussian(d: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric d x d noise with every entry (diagonal included) N(0, sigma^2).

    The upper triangle is drawn i.i.d. in row-major order and mirrored, so
    the output equals its transpose bit-exactly.
    """
    _check_sigma(sigma)
    rows, cols = _upper_triangle(d)
    draws = rng.normal(0.0, sigma, size=rows.size)
    noise = np.empty((d, d))
    noise[rows, cols] = draws
    noise[cols, rows] = draws
    return noise


def sample_gaussian_vector(d: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """N(0, sigma^2 I) draw in R^d."""
    _check_sigma(sigma)
    return rng.normal(0.0, sigma, size=d)
