"""Synthetic data generation, CSV ingestion, normalization, and splitting.

Every dataset made here has its cells checked once (:func:`generate`,
:func:`normalize`); a prefix or split of its rows is not scanned again.
:func:`split` may build the private rows' X^T X and X^T y as a complement;
see there.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .estimators import LabeledDataset, PublicMoments, RowStatistics
from .spectra import SymmetricMatrix, sqrt_sym

__all__ = [
    "SyntheticModelSpec",
    "SplitMode",
    "CsvParseError",
    "generate",
    "normals_shape",
    "default_synthetic",
    "ingest_csv",
    "normalize",
    "split",
    "public_moments",
]


class CsvParseError(ValueError):
    pass


class SplitMode(Enum):
    RANDOM_WITHOUT_REPLACEMENT = "random"
    HEAD_TAIL = "head"


@dataclass(frozen=True)
class SyntheticModelSpec:
    """Linear model x ~ N(mean, covariance), y = x . beta + N(0, noise_std^2).

    ``coefficients`` may be None, meaning the caller samples beta (standard
    normal) once per experiment.  The implied feature second moment is
    covariance + mean mean^T.  The covariance's PSD square root is formed
    once, at construction, so a covariance that is not PSD fails here.
    """

    d: int
    mean: np.ndarray
    covariance: SymmetricMatrix
    coefficients: np.ndarray | None = None
    noise_std: float = 0.05
    covariance_root: SymmetricMatrix = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        if mean.shape != (self.d,):
            raise ValueError(f"mean must have shape ({self.d},), got {mean.shape}")
        if not np.isfinite(mean).all():
            raise ValueError(f"mean must be finite, got {mean[~np.isfinite(mean)][0]}")
        if self.covariance.dim != self.d:
            raise ValueError("covariance dimension does not match d")
        try:
            root = sqrt_sym(self.covariance)
        except ValueError as exc:
            raise ValueError(f"covariance must be PSD: {exc}") from None
        if self.coefficients is not None:
            coef = np.asarray(self.coefficients, dtype=np.float64)
            if coef.shape != (self.d,):
                raise ValueError(f"coefficients must have shape ({self.d},)")
            if not np.isfinite(coef).all():
                bad = coef[~np.isfinite(coef)][0]
                raise ValueError(f"coefficients must be finite, got {bad}")
            object.__setattr__(self, "coefficients", coef)
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.noise_std}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance_root", root)

    def second_moment(self) -> SymmetricMatrix:
        return SymmetricMatrix(self.covariance.entries + np.outer(self.mean, self.mean))


# Rows are drawn in blocks of this many, and each block's features come from
# their own BLAS call, so a row's bits do not depend on how many rows are drawn.
_BLOCK_ROWS = 64


def normals_shape(d: int, n: int) -> tuple:
    """The shape of the standard normal array :func:`generate` takes for n
    rows of dimension d: ceil(n/64) blocks of 64 rows of d + 1 normals."""
    return (-(-n // _BLOCK_ROWS), _BLOCK_ROWS, d + 1)


def generate(spec: SyntheticModelSpec, n: int, normals: np.ndarray) -> LabeledDataset:
    """n samples of the spec's linear model, made from ``normals``.

    ``normals`` is a standard normal array of shape ``normals_shape(d, n)``:
    ceil(n/64) blocks of 64 rows, each row holding d feature normals, then
    the normal of its response noise.  Each block's features are mapped
    through the covariance root by their own 64 x d product, so the first n
    rows are the same bits whatever larger n is made from the same stream:
    every smaller dataset is a prefix.  The dataset shares no memory with
    ``normals``, which the caller may refill once this returns.

    Requires spec.coefficients to be set.
    """
    if spec.coefficients is None:
        raise ValueError("spec.coefficients must be set before generating data")
    d = spec.d
    shape = normals_shape(d, n)
    if normals.shape != shape:
        raise ValueError(
            f"{n} rows of dimension {d} need normals of shape {shape}, got {normals.shape}"
        )
    x = normals[..., :d] @ spec.covariance_root.entries  # a stacked matmul, one gemm per block
    x += spec.mean
    y = x @ spec.coefficients + spec.noise_std * normals[..., d]
    return LabeledDataset(features=x.reshape(-1, d)[:n], responses=y.reshape(-1)[:n])


def default_synthetic(d: int = 10, mu_scale: float = 2.0, psi=None) -> SyntheticModelSpec:
    """Default ill-conditioned synthetic design.

    mean = mu_scale * ones and covariance diag(psi), psi by default a
    geometric ladder from 0.2 to 2.0; the rank-one mean term gives the second
    moment one dominant eigenvalue, so its averaged condition number lands
    well above 10.  Coefficients are left unset (sampled per experiment).  A
    psi not finite and nonnegative is refused by name, and so is an overflow
    of the top eigenvalue, about d * mu_scale^2, or of a second-moment entry.
    """
    if d < 1:  # checked here: d sizes the arrays before the spec sees it
        raise ValueError(f"d must be >= 1, got {d}")
    if not math.isfinite(mu_scale):  # else the spec names the mean, not mu_scale
        raise ValueError(f"mu_scale must be finite: the mean must be finite, got {mu_scale}")
    mu = float(mu_scale)  # Python floats overflow to inf without a warning
    if not math.isfinite(d * mu * mu):  # else eigh returns inf and diagnose prints it
        raise ValueError(
            f"mu_scale={mu_scale} is too large: the second moment "
            "covariance + mean mean^T overflows, or its top eigenvalue d * mu_scale^2 does"
        )
    if psi is None:
        psi = np.geomspace(0.2, 2.0, d)
    bad = [v for v in psi if not (math.isfinite(v) and v >= 0)]
    if bad:
        raise ValueError(f"synthetic design: psi must be finite and nonnegative, got {bad[0]}")
    top = float(max(psi))  # top + mu^2 is the second moment's largest entry
    if not math.isfinite(2 * (top + mu * mu)):  # as SymmetricMatrix requires
        raise ValueError(
            f"synthetic second moment overflows: max(psi) + mu_scale^2 = {top} + {mu * mu}"
        )
    return SyntheticModelSpec(d, np.full(d, mu_scale), SymmetricMatrix(np.diag(psi)))


def ingest_csv(
    path: str | Path, delimiter: str = ";", response_column: str = "quality"
) -> LabeledDataset:
    """Read a numeric CSV with a header row into a LabeledDataset.

    Features are all non-response columns in header order.  Cells that do
    not parse as finite numbers (including nan and inf) are reported with
    their row and column.
    """
    if len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")  # Excel's "CSV UTF-8" has a BOM
    except UnicodeDecodeError as exc:  # exc.start counts from after any BOM
        line = exc.object[: exc.start].count(b"\n") + 1
        raise CsvParseError(f"{path}: line {line} is not UTF-8 ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError(f"{path}: empty file") from None
    header = [h.strip().strip('"') for h in header]
    if response_column not in header:
        raise CsvParseError(
            f"{path}: response column {response_column!r} not in header {header}"
        )
    if header.count(response_column) > 1:
        raise CsvParseError(
            f"{path}: response column {response_column!r} repeats in header {header}"
        )
    if len(header) == 1:
        raise CsvParseError(f"{path}: no feature column besides {response_column!r}")
    resp_idx = header.index(response_column)
    rows = []
    for row_num, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise CsvParseError(
                f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
            )
        try:
            rows.append([float(cell) for cell in row])
        except ValueError:
            bad = next(i for i, c in enumerate(row) if not _is_float(c))
            raise CsvParseError(
                f"{path}: row {row_num}, column {header[bad]!r}: "
                f"cannot parse {row[bad]!r} as a number"
            ) from None
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=np.float64)
    nonfinite = np.argwhere(~np.isfinite(table))
    if nonfinite.size:
        i, j = nonfinite[0]
        raise CsvParseError(
            f"{path}: row {i + 2}, column {header[j]!r}: "
            f"cannot parse '{table[i, j]}' as a finite number"
        )
    features = np.delete(table, resp_idx, axis=1)
    responses = table[:, resp_idx]
    return LabeledDataset(features=features, responses=responses)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def normalize(data: LabeledDataset) -> LabeledDataset:
    """Standardize every feature column and the response to mean 0, variance 1.

    Uses population variance (divide by n) over the full dataset.
    A column is rejected when its max equals its min, which is exact (the
    computed std of a constant can be a rounding residue such as 1e-17), or
    when its std underflows to 0 or overflows.
    """
    x, y = data.features, data.responses
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        x_mean, x_std = x.mean(axis=0), x.std(axis=0)
        y_mean, y_std = float(y.mean()), float(y.std())
    zero = np.flatnonzero((x.max(axis=0) == x.min(axis=0)) | (x_std == 0))
    if zero.size:
        raise ValueError(f"zero-variance feature column(s) at index {zero.tolist()}")
    huge = np.flatnonzero(~np.isfinite(x_std))
    if huge.size:
        raise ValueError(f"overflowing-variance feature column(s) at index {huge.tolist()}")
    if y.max() == y.min() or y_std == 0:
        raise ValueError("zero-variance response column")
    if not math.isfinite(y_std):
        raise ValueError("overflowing-variance response column")
    return LabeledDataset(features=(x - x_mean) / x_std, responses=(y - y_mean) / y_std)


def split(
    data: LabeledDataset,
    n_pub: int,
    n_priv: int,
    seed,
    mode: SplitMode = SplitMode.RANDOM_WITHOUT_REPLACEMENT,
):
    """Deterministic disjoint public/private split; returns (public, private).

    One rule takes both sets from an order of the rows: the private rows are
    its first n_priv and the public rows its last n_pub, last first.  So
    each set is a prefix of any larger set of its kind from the same order,
    and the two stay disjoint while n_pub + n_priv <= n; the harness splits
    once per trial, at the grid's largest sizes, and every dataset takes
    prefixes.  ``mode`` is a :class:`SplitMode` or its value.  In random
    mode the order is one permutation drawn from ``seed``, anything
    ``np.random.default_rng`` accepts (the harness passes its per-trial
    key).  In head mode it is the rows reversed, whatever the seed: the
    public rows are the first n_pub and the private rows the last n_priv,
    last first.  Neither subset's cells are scanned again.

    When the rows the private set leaves out are fewer than its own
    (n - n_priv < n_priv), the split forms its X^T X and X^T y as a
    complement: the dataset's sums, formed on its first such split and
    kept, less the public rows' (kept for :func:`public_moments`) and less
    any unused rows'.  A split then passes over the n - n_priv left-out rows
    instead of the n_priv private ones.  The difference's error relative to
    the private sums is about eps * n / n_priv, below about 2 eps by the
    rule.  The rule stays because it pays: without it, real-csv sweeps (the
    wine grid, 249 of 4,898 rows left out) are slower; README's "Rejected
    designs" gives the figures.
    """
    n = data.n
    if n_pub < 1 or n_priv < 1:
        raise ValueError(f"split sizes must be positive, got n_pub={n_pub}, n_priv={n_priv}")
    if n_pub + n_priv > n:
        raise ValueError(f"split sizes {n_pub}+{n_priv} exceed dataset size {n}")
    if SplitMode(mode) is SplitMode.HEAD_TAIL:
        order = np.arange(n)[::-1]
    else:
        order = np.random.default_rng(seed).permutation(n)
    pub_idx, priv_idx = order[::-1][:n_pub], order[:n_priv]
    unused_idx = order[n_priv : n - n_pub]
    public, private = data.take(pub_idx), data.take(priv_idx)
    if n - n_priv >= n_priv:
        return public, private
    gram, cross = data.gram - public.gram, data.cross - public.cross
    if unused_idx.size:
        unused = data.take(unused_idx)
        gram, cross = gram - unused.gram, cross - unused.cross
    stats = RowStatistics(gram, cross)
    return public, LabeledDataset(private.features, private.responses, stats)


def public_moments(public: LabeledDataset) -> PublicMoments:
    """Uncentered second moments of the public rows (no mean subtraction)."""
    return PublicMoments(
        feature_moment=public.second_moment,
        response_moment=float(np.sqrt(np.mean(public.responses * public.responses))),
        n_pub=public.n,
    )
