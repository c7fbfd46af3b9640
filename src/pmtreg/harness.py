"""Multi-trial experiment orchestration and CSV emission.

A grid is the cross product (method, rho, n_priv, n_pub); each cell runs
``trials`` independent trials with per-trial rng streams derived from
(seed, cell index, trial index), so trial execution order and scheduling
never affect the numbers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import product
from pathlib import Path

import numpy as np

from .data import (
    SplitMode,
    SyntheticModelSpec,
    generate,
    public_moments,
    split,
)
from .estimators import (
    LabeledDataset,
    Method,
    dp_olse_baseline,
    dp_pmtolse,
    olse,
)
from .privacy import PrivacyBudget
from .spectra import UnstableInversionError, diagnostics, solve

__all__ = [
    "Reference",
    "ExperimentGrid",
    "CellResult",
    "DatasetSource",
    "run_grid",
    "emit_csv",
]

_SEED_MASK = 0xFFFFFFFFFFFFFFFF


class Reference(Enum):
    TRUE_BETA = "true_beta"
    NONPRIVATE_OLSE = "nonprivate_olse"


@dataclass(frozen=True)
class ExperimentGrid:
    methods: tuple
    rho_values: tuple
    n_priv_values: tuple
    n_pub_values: tuple
    eta: float
    trials: int
    seed: int
    reference: Reference
    zero_noise: bool = False

    def __post_init__(self):
        for name in ("methods", "rho_values", "n_priv_values", "n_pub_values"):
            value = tuple(getattr(self, name))
            if not value:
                raise ValueError(f"{name} must be non-empty")
            repeated = [v for i, v in enumerate(value) if v in value[:i]]
            if repeated:
                raise ValueError(f"{name} must not repeat a value, got {repeated[0]} twice")
            object.__setattr__(self, name, value)
        if not all(isinstance(m, Method) for m in self.methods):
            raise ValueError("grid methods must be DP_OLSE or DP_PMTOLSE")
        bad_rho = [r for r in self.rho_values if not (math.isfinite(r) and r > 0)]
        if bad_rho:
            raise ValueError(f"rho values must be finite and positive, got {bad_rho[0]}")
        for name in ("n_priv_values", "n_pub_values"):
            smallest = min(getattr(self, name))
            if smallest < 1:
                raise ValueError(f"{name} must be >= 1, got {smallest}")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")

    def cells(self):
        return list(
            product(self.methods, self.rho_values, self.n_priv_values, self.n_pub_values)
        )


@dataclass(frozen=True)
class CellResult:
    method: Method
    rho: float
    n_priv: int
    n_pub: int
    trials_ok: int
    trials_failed: int
    mean_err: float
    std_err: float
    mean_truncated_frac: float
    mean_avg_cond_pre: float


# The results CSV has one column per CellResult field, in field order.
CSV_HEADER = [f.name for f in fields(CellResult)]


@dataclass(frozen=True)
class DatasetSource:
    """Per-trial public/private resampling from a fixed (real) dataset."""

    dataset: LabeledDataset
    split_mode: SplitMode = SplitMode.RANDOM_WITHOUT_REPLACEMENT


def _trial_rng(seed: int, cell_index: int, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence([seed & _SEED_MASK, 1, cell_index, trial])
    return np.random.default_rng(ss)


def _grid_beta(grid: ExperimentGrid, d: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([grid.seed & _SEED_MASK, 0]))
    return rng.standard_normal(d)


def _validate(grid: ExperimentGrid, source):
    if isinstance(source, SyntheticModelSpec):
        d = source.d
        # a singular design fails or blows up every trial: refuse it up front
        try:
            solve(diagnostics(source.second_moment()), np.zeros(d))
        except UnstableInversionError as exc:
            raise ValueError(f"synthetic second moment is {exc}") from None
    elif isinstance(source, DatasetSource):
        if grid.reference is Reference.TRUE_BETA:
            raise ValueError("TRUE_BETA reference requires a synthetic source")
        need = max(grid.n_pub_values) + max(grid.n_priv_values)
        if need > source.dataset.n:
            raise ValueError(
                f"largest split needs {need} rows but dataset has {source.dataset.n}"
            )
        d = source.dataset.d
    else:
        raise TypeError(f"unsupported source type {type(source).__name__}")
    # the estimators check these too, but only inside a trial, after every
    # earlier cell has run
    if min(grid.n_priv_values) <= d:
        raise ValueError(f"n_priv must exceed d={d}, got {min(grid.n_priv_values)}")
    if Method.DP_PMTOLSE in grid.methods and min(grid.n_pub_values) <= d:
        raise ValueError(
            f"DP_PMTOLSE needs n_pub > d={d}, got {min(grid.n_pub_values)}"
        )


def _run_trial(grid, source, method, rho, n_priv, n_pub, rng):
    if isinstance(source, SyntheticModelSpec):
        public = generate(source, n_pub, rng)
        private = generate(source, n_priv, rng)
    else:
        split_seed = int(rng.integers(0, 2**63))
        public, private = split(
            source.dataset, n_pub, n_priv, split_seed, source.split_mode
        )

    if grid.reference is Reference.TRUE_BETA:
        ref = source.coefficients
    else:
        ref = olse(private)

    budget = PrivacyBudget(rho)
    if method is Method.DP_PMTOLSE:
        out = dp_pmtolse(
            private, public_moments(public), grid.eta, budget, rng,
            zero_noise=grid.zero_noise,
        )
    else:
        out = dp_olse_baseline(
            private, grid.eta, budget, rng, zero_noise=grid.zero_noise
        )

    err = float(np.linalg.norm(out.beta - ref))
    frac = (out.feature_truncation.truncated + out.response_truncation.truncated) / (
        out.feature_truncation.total + out.response_truncation.total
    )
    return err, frac, out.pre_diag.avg_cond


def run_grid(
    grid: ExperimentGrid, source: SyntheticModelSpec | DatasetSource
) -> list[CellResult]:
    """Run every cell of the grid; failed (unstable-inversion) trials are
    counted per cell and excluded from the mean/std, never silently dropped.

    A synthetic spec is resampled in every trial; if its coefficients are
    unset, beta is drawn once per grid from a standard normal, using a stream
    keyed off the grid seed.
    """
    _validate(grid, source)

    if isinstance(source, SyntheticModelSpec) and source.coefficients is None:
        source = replace(source, coefficients=_grid_beta(grid, source.d))

    results = []
    for cell_index, (method, rho, n_priv, n_pub) in enumerate(grid.cells()):
        errs, fracs, conds = [], [], []
        failed = 0
        for trial in range(grid.trials):
            rng = _trial_rng(grid.seed, cell_index, trial)
            try:
                err, frac, avg_cond = _run_trial(
                    grid, source, method, rho, n_priv, n_pub, rng
                )
            except UnstableInversionError:
                failed += 1
                continue
            errs.append(err)
            fracs.append(frac)
            conds.append(avg_cond)
        ok = len(errs)
        if ok:
            mean_err = float(np.mean(errs))
            std_err = float(np.std(errs, ddof=1)) if ok > 1 else 0.0
            mean_frac = float(np.mean(fracs))
            mean_cond = float(np.mean(conds))
        else:
            mean_err = std_err = mean_frac = mean_cond = math.nan
        results.append(
            CellResult(
                method=method,
                rho=float(rho),
                n_priv=int(n_priv),
                n_pub=int(n_pub),
                trials_ok=ok,
                trials_failed=failed,
                mean_err=mean_err,
                std_err=std_err,
                mean_truncated_frac=mean_frac,
                mean_avg_cond_pre=mean_cond,
            )
        )
    return results


def _sort_key(r: CellResult):
    return (r.method.value, r.rho, r.n_priv, r.n_pub)


def emit_csv(results: list[CellResult], out: str | Path) -> None:
    """Write results as UTF-8 CSV, sorted by (method, rho, n_priv, n_pub).

    Floats use the shortest round-trip decimal via repr().
    """
    if not results:
        raise ValueError("results must be non-empty")
    rows = sorted(results, key=_sort_key)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.method.value, *(getattr(r, f) for f in CSV_HEADER[1:])])
