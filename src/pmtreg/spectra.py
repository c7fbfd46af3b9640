"""Spectral utilities for symmetric matrices.

This module owns the symmetrization convention, the one decomposition entry
point (:func:`eig_sym`), the matrix functions derived from a spectrum, and
the guarded solve.  Eigenvectors are computed only where a caller reads
them: the square roots take eigenpairs, while a condition diagnostic or the
guard of a solve takes eigenvalues alone.  A guarded solve refuses a
numerically singular matrix from its eigenvalues and then factors it by LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymmetricMatrix",
    "SpectralDiagnostics",
    "UnstableInversionError",
    "eig_sym",
    "inv_sqrt_clamped",
    "sqrt_sym",
    "diagnostics",
    "shifted_diagnostics",
    "solve",
    "theory_bracket",
]


_NOT_FINITE = "matrix entries must be finite, and so must M + M^T"


@dataclass(frozen=True)
class SymmetricMatrix:
    """A d x d real symmetric matrix, symmetrized on construction.

    The input is replaced by (M + M^T)/2, which is symmetric bit-exactly
    because float addition commutes.  M + M^T must be finite, so finite
    entries whose sum overflows are rejected as well.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            a = a + a.T
        if not np.isfinite(a).all():
            raise ValueError(_NOT_FINITE)
        a *= 0.5
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralDiagnostics:
    """The eigenvalues of a symmetric matrix, ascending, and the exactly
    symmetric d x d array they came from (``matrix``), which :func:`solve`
    factors.

    Summary figures are derived on read.  ``avg_cond`` is the averaged
    condition number: the mean of lambda_i / lambda_min over the spectrum.
    When lambda_min <= 0 both condition numbers are reported as +inf.
    """

    eigenvalues: np.ndarray
    matrix: np.ndarray

    @property
    def avg_cond(self) -> float:
        lam = self.eigenvalues
        if not lam[0] > 0:
            return np.inf
        return float(np.add.reduce(lam / lam[0]) / lam.size)  # np.mean, minus its dispatch

    def as_dict(self) -> dict:
        lam = self.eigenvalues
        trace = float(np.sum(lam))
        lam_min, lam_max = float(lam[0]), float(lam[-1])
        return {
            "eigenvalues": [float(v) for v in lam],
            "trace": trace,
            "avg_trace": trace / len(lam),
            "lambda_min": lam_min,
            "lambda_max": lam_max,
            "cond": lam_max / lam_min if lam_min > 0 else np.inf,
            "avg_cond": self.avg_cond,
        }


class UnstableInversionError(RuntimeError):
    """A symmetric system is too close to singular to solve."""


def eig_sym(m: SymmetricMatrix | np.ndarray, vectors: bool = True):
    """Eigendecomposition, eigenvalues ascending, eigenvectors as columns;
    with ``vectors=False`` the eigenvalues alone, from a LAPACK routine that
    forms no eigenvectors (about half the work at d = 50).

    ``m`` may also be a (k, d, d) stack of exactly symmetric arrays, all
    decomposed in this one call: numpy runs LAPACK on each matrix of the
    stack in turn, so each gets the same bits as from a call of its own.
    """
    a = m.entries if isinstance(m, SymmetricMatrix) else m
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


def inv_sqrt_clamped(m: SymmetricMatrix) -> SymmetricMatrix:
    """Inverse square root with eigenvalues below 1e-10 * lambda_max clamped
    up to it before taking lambda^{-1/2}."""
    lam, vec = eig_sym(m)
    lam_max = lam[-1]
    if lam_max <= 0:
        raise UnstableInversionError(
            f"all eigenvalues nonpositive (lambda_max={lam_max:.3e}); "
            "matrix has no inverse square root"
        )
    floor = 1e-10 * lam_max
    lam_eff = np.maximum(lam, floor)
    out = (vec * lam_eff ** -0.5) @ vec.T
    return SymmetricMatrix(out)


def sqrt_sym(m: SymmetricMatrix) -> SymmetricMatrix:
    """Symmetric PSD square root via the eigendecomposition."""
    lam, vec = eig_sym(m)
    lam_max = max(lam[-1], 0.0)
    if lam[0] < -1e-10 * lam_max:
        raise ValueError(
            f"matrix is not PSD: lambda_min={lam[0]:.3e} vs lambda_max={lam_max:.3e}"
        )
    lam = np.maximum(lam, 0.0)
    out = (vec * np.sqrt(lam)) @ vec.T
    return SymmetricMatrix(out)


def diagnostics(m: SymmetricMatrix) -> SpectralDiagnostics:
    """The eigenvalues of a symmetric matrix, with the matrix, as a record."""
    return SpectralDiagnostics(eig_sym(m, vectors=False), m.entries)


def shifted_diagnostics(m: SymmetricMatrix, shifts) -> list[SpectralDiagnostics]:
    """The spectra of m, first, and of m + s for each exactly symmetric
    array s, from one stacked eigenvalues-only :func:`eig_sym` call; each
    record's ``matrix`` is its read-only slice of the stack.

    A sum of two exactly symmetric matrices is exactly symmetric, float
    addition being commutative, so the sums are not symmetrized again.  As
    :class:`SymmetricMatrix` does, a sum whose M + M^T is not finite is
    refused: for a symmetric M that is 2M, finite exactly when 2 max|M| is.
    """
    stack = np.empty((1 + len(shifts), m.dim, m.dim))
    stack[0] = m.entries
    for out, s in zip(stack[1:], shifts):
        np.add(m.entries, s, out=out)
    if not math.isfinite(2.0 * float(np.abs(stack).max(initial=0.0))):
        raise ValueError(_NOT_FINITE)
    stack.flags.writeable = False
    return [SpectralDiagnostics(*pair) for pair in zip(eig_sym(stack, vectors=False), stack)]


def solve(diag: SpectralDiagnostics, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for the matrix M of ``diag``, by LU with partial
    pivoting (LAPACK gesv).

    M need not be positive definite, but a numerically singular one (smallest
    |lambda| at most 1e-12 of the largest) raises
    :class:`UnstableInversionError`, as does an exactly zero pivot.  Past the
    guard, LU and the eigenpair formula (V / lambda) @ (V^T rhs) are both
    backward stable, so they differ by about cond(M) * eps relative: the LU
    form is taken because it needs no eigenvectors.  ``rhs`` may be a
    vector or a matrix.
    """
    abs_eigs = np.abs(diag.eigenvalues)
    if abs_eigs.min() <= 1e-12 * abs_eigs.max():
        raise UnstableInversionError(
            f"numerically singular: |lambda| range "
            f"[{abs_eigs.min():.3e}, {abs_eigs.max():.3e}]"
        )
    try:
        return np.linalg.solve(diag.matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise UnstableInversionError(f"numerically singular: {exc}") from None


def theory_bracket(d: int, n_pub: int, eta: float) -> tuple[float, float]:
    """Lower/upper spectral bounds (L, U) for the preconditioned second moment.

    L = n / (sqrt(n) + sqrt(d) + sqrt(2 ln(1/eta)))^2 and U with a minus in
    the denominator; U is +inf when the denominator is nonpositive.  All
    unspecified constants are taken as 1.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if n_pub <= d:
        raise ValueError(f"need n_pub > d, got n_pub={n_pub}, d={d}")
    slack = np.sqrt(d) + np.sqrt(2.0 * np.log(1.0 / eta))
    lower = n_pub / (np.sqrt(n_pub) + slack) ** 2
    denom = np.sqrt(n_pub) - slack
    upper = n_pub / denom**2 if denom > 0 else np.inf
    return float(lower), float(upper)
