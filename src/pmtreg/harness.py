"""Multi-trial experiment orchestration and CSV emission.

A grid is the cross product (method, rho, n_priv, n_pub); each cell runs
``trials`` trials.  Trials run outermost, and both sources lay a trial out
alike: its rows come from streams keyed by (seed, trial) alone, as one
public and one private set at the grid's largest n_pub and n_priv, and
every dataset of the trial takes the first n_pub public and the first
n_priv private rows.  So a dataset's rows do not depend on which other
sizes the grid holds, and neither do its sums, with one exception that
agrees to rounding: a real private set at the grid's largest n_priv takes
X^T X and X^T y as ``split``'s complement.  The two sets come

- synthetic: from one public and one private stream, keys (seed, 3, trial, 0)
  and (seed, 3, trial, 1), each drawn once per trial (``generate`` makes its
  rows prefix-stable);
- real: from one ``split`` per trial, whose random mode draws a permutation
  keyed (seed, 3, trial, 2); the private rows come from the front of its
  order and the public rows from its back, so they are disjoint at every
  size.  Head mode's order is the same every trial, so it splits once per
  sweep and every trial takes the same rows.

The unit of work is a (trial, n_pub) pair: each method releases every
n_priv prefix of the trial's private set in one call, and every (method,
rho) cell's trial on each dataset gives one ``TrialRecord``, filed by its
dataset and its position there; every CSV column is computed from a cell's
records alone.  A dataset, keyed by (seed, n_priv, n_pub, trial), has its
reference computed once and one rng stream, keyed (seed, 2, n_priv, n_pub,
trial), which draws for each method and each rho in grid order the matrix
noise and the vector noise.  The grid keeps its values in a canonical
order, so neither the order in which they are listed nor the order in which
datasets run changes a number.

A synthetic sweep draws on one worker thread, a trial ahead.  The worker
takes trial numbers from one queue and answers each on a second: it builds
the trial's noise Generators, draws its public and private normals into the
two buffers it refills every trial, and answers with the Generators, or
with its exception if it raised.  The main thread asks for trial t + 1 once
trial t's two ``generate`` calls have returned, so the draw overlaps trial
t's datasets; ``generate``'s datasets share no memory with the buffers.
The worker calls numpy's ``default_rng`` and ``standard_normal`` only.  It
ends with the sweep, whether the sweep returns or raises, and its exception
is raised again by ``run_grid``.  Real-data sweeps use the main thread alone.
"""

from __future__ import annotations

import csv
import math
import threading
from contextlib import closing
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import (
    SplitMode,
    SyntheticModelSpec,
    generate,
    normals_shape,
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
from .pmt import TruncationReport
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


def _integer(name, value) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be integral, got {value}")
    return int(value)


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
    budgets: tuple[PrivacyBudget, ...] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("methods", "rho_values", "n_priv_values", "n_pub_values"):
            value = tuple(getattr(self, name))
            if not value:
                raise ValueError(f"{name} must be non-empty")
            repeated = [v for i, v in enumerate(value) if v in value[:i]]
            if repeated:
                raise ValueError(f"{name} must not repeat a value, got {repeated[0]} twice")
            object.__setattr__(self, name, value)
        for name in ("n_priv_values", "n_pub_values"):
            object.__setattr__(self, name, tuple(_integer(name, v) for v in getattr(self, name)))
        for name in ("trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not all(isinstance(m, Method) for m in self.methods):
            raise ValueError("grid methods must be DP_OLSE or DP_PMTOLSE")
        # canonical order: methods as Method declares them, numbers ascending
        object.__setattr__(self, "methods", tuple(m for m in Method if m in self.methods))
        for name in ("rho_values", "n_priv_values", "n_pub_values"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name))))
        object.__setattr__(self, "budgets", tuple(PrivacyBudget(r) for r in self.rho_values))
        for name in ("n_priv_values", "n_pub_values"):
            smallest = min(getattr(self, name))
            if smallest < 1:
                raise ValueError(f"{name} must be >= 1, got {smallest}")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


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


def _key(grid: ExperimentGrid, *key) -> list:
    """The seed entropy of one stream, [seed, *key].  A grid's streams are
    keyed

    - (0,): its beta, when a spec leaves the coefficients unset;
    - (2, n_priv, n_pub, trial): one dataset's noise;
    - (3, trial, 0) and (3, trial, 1): a trial's public and private rows;
    - (3, trial, 2): a real-data trial's split.
    """
    return [grid.seed & _SEED_MASK, *key]


def _draw(grid: ExperimentGrid, sizes: list, buffers: tuple, trial: int) -> list:
    """Fill ``buffers`` with the trial's public and then its private normals
    (a real-data trial passes none); returns its noise Generators, one per
    (n_priv, n_pub) in ``sizes``, in lists shaped as its lists are."""
    rngs = [
        [np.random.default_rng(_key(grid, 2, *size, trial)) for size in group] for group in sizes
    ]
    for stream, buffer in enumerate(buffers):
        np.random.default_rng(_key(grid, 3, trial, stream)).standard_normal(out=buffer)
    return rngs


def _split_trials(grid: ExperimentGrid, source: DatasetSource, sizes: list):
    """Each trial's (public, private) sets and noise Generators, from one
    split; head mode's order does not depend on the trial, so its one split
    serves every trial."""
    largest = max(grid.n_pub_values), max(grid.n_priv_values)
    head = SplitMode(source.split_mode) is SplitMode.HEAD_TAIL
    for trial in range(grid.trials):
        if trial == 0 or not head:
            rows = split(source.dataset, *largest, _key(grid, 3, trial, 2), source.split_mode)
        yield rows, _draw(grid, sizes, (), trial)


def _drawn_trials(grid: ExperimentGrid, spec: SyntheticModelSpec, sizes: list):
    """Each trial's (public, private) sets and noise Generators, drawn a
    trial ahead on one worker thread (see the module docstring)."""
    largest = max(grid.n_pub_values), max(grid.n_priv_values)
    buffers = tuple(np.empty(normals_shape(spec.d, n)) for n in largest)
    # imported here, not with the module: a module-level import of queue
    # raised real-data sweeps' peak RSS by about 0.8 MB, and they draw nothing
    from queue import SimpleQueue

    requests, answers = SimpleQueue(), SimpleQueue()

    def work():
        for trial in iter(requests.get, None):
            try:
                answers.put(_draw(grid, sizes, buffers, trial))
            except BaseException as exc:  # raised again by the main thread
                answers.put(exc)
                return

    worker = threading.Thread(target=work, name="pmtreg-draws")
    worker.start()
    try:
        requests.put(0)
        for trial in range(grid.trials):
            rngs = answers.get()
            if isinstance(rngs, BaseException):
                raise rngs
            rows = tuple(generate(spec, n, buffer) for n, buffer in zip(largest, buffers))
            if trial + 1 < grid.trials:  # the buffers are read: draw the next trial
                requests.put(trial + 1)
            yield rows, rngs
    finally:
        requests.put(None)
        worker.join()


def _validate(grid: ExperimentGrid, source):
    if isinstance(source, SyntheticModelSpec):
        d = source.d
        # a singular design fails or blows up every trial: refuse it up front
        moment = source.second_moment()
        try:
            solve(diagnostics(moment), np.zeros(d))
        except UnstableInversionError as exc:
            raise ValueError(f"synthetic second moment is {exc}") from None
        # The baseline sums the private rows' squared norms, about n_priv
        # times the trace, and X^T X overflows at the same scale.  Python
        # floats overflow to inf without a warning.
        trace = sum(np.diagonal(moment.entries).tolist())
        n_priv = max(grid.n_priv_values)
        if not math.isfinite(n_priv * trace):
            raise ValueError(
                f"synthetic design is too large: the private rows' sum of squared norms, "
                f"about largest n_priv x trace of the second moment = {n_priv} x {trace:g}, "
                "overflows"
            )
    elif isinstance(source, DatasetSource):
        if grid.reference is Reference.TRUE_BETA:
            raise ValueError("TRUE_BETA reference requires a synthetic source")
        need = max(grid.n_pub_values) + max(grid.n_priv_values)
        if need > source.dataset.n:
            raise ValueError(
                f"largest split needs {need} rows but dataset has {source.dataset.n}"
            )
        # a split's moments, and the baseline's radii, are sums bounded by
        # the whole dataset's sums of squared row norms and responses
        with np.errstate(over="ignore"):
            totals = [np.sum(v * v) for v in (source.dataset.features, source.dataset.responses)]
        if not all(map(math.isfinite, totals)):
            raise ValueError(
                "dataset is too large: its sum of squared feature-row norms or of "
                "squared responses overflows"
            )
        d = source.dataset.d
    else:
        raise TypeError(f"unsupported source type {type(source).__name__}")
    # the estimators check these too, but only inside a trial, after every
    # earlier dataset has run
    if min(grid.n_priv_values) <= d:
        raise ValueError(f"n_priv must exceed d={d}, got {min(grid.n_priv_values)}")
    if Method.DP_PMTOLSE in grid.methods and min(grid.n_pub_values) <= d:
        raise ValueError(
            f"DP_PMTOLSE needs n_pub > d={d}, got {min(grid.n_pub_values)}"
        )


class TrialRecord(NamedTuple):
    """One (method, rho) cell's trial on one dataset.  If it failed, ``err``
    is nan and ``failure`` the UnstableInversionError text of a refused
    reference or public moment, or "refused budget"; with no release, no clip
    reports or ``avg_cond``.  A tuple, as ``RowStatistics`` is, for its cost."""

    method: Method
    rho: float
    n_priv: int
    n_pub: int
    trial: int
    err: float = math.nan
    failure: str | None = None
    feature_truncation: TruncationReport | None = None
    response_truncation: TruncationReport | None = None
    avg_cond: float = math.nan


def _run_trial(grid, truth, public, private, rngs, trial):
    """One trial's datasets at one n_pub, and every (method, rho) cell's
    trial on each.

    ``public`` holds the n_pub public rows and ``private`` the trial's
    largest private set, whose first n_priv rows are the dataset of each
    n_priv in the grid; ``rngs`` holds those datasets' noise Generators, in
    the same order.  ``truth`` is the reference beta, or None to use each
    dataset's own least squares.  Each method releases every dataset in one
    call, and each noise stream draws DP_OLSE's budgets before DP_PMTOLSE's.
    Returns each dataset's records, in the grid's n_priv order: one
    :class:`TrialRecord` per (method, rho), in grid order.  A singular noisy
    moment fails only its own (method, rho, n_priv); a singular reference
    fails its dataset's cells, and a singular public moment (or all-zero
    public responses) every n_priv of its method.
    """
    n_privs, rhos = grid.n_priv_values, grid.rho_values
    refs, refused = [truth] * len(n_privs), [None] * len(n_privs)
    if truth is None:
        for i, n_priv in enumerate(n_privs):
            try:
                refs[i] = olse(private.head(n_priv))
            except UnstableInversionError as exc:
                refused[i] = str(exc)
    prefixes = [(n, rng) for n, rng, reason in zip(n_privs, rngs, refused) if reason is None]

    datasets = [[] for _ in n_privs]
    for method in grid.methods:
        failed, outs = refused, ()
        try:
            if prefixes and method is Method.DP_PMTOLSE:
                moments = public_moments(public)
                outs = dp_pmtolse(private, moments, grid.eta, grid.budgets, prefixes)
            elif prefixes:
                outs = dp_olse_baseline(private, grid.eta, grid.budgets, prefixes)
        except UnstableInversionError as exc:
            failed = [str(exc) if reason is None else reason for reason in refused]
        outs = iter(outs)
        for records, n_priv, ref, reason in zip(datasets, n_privs, refs, failed):
            key = n_priv, public.n, trial
            if reason is not None:
                records += [TrialRecord(method, rho, *key, failure=reason) for rho in rhos]
                continue
            out = next(outs)
            release = out.feature_truncation, out.response_truncation, out.pre_diag.avg_cond
            for rho, beta in zip(rhos, out.betas):
                err, failure = math.nan, "refused budget"
                if beta is not None:
                    diff = beta - ref
                    # the formula np.linalg.norm evaluates for a real vector
                    err, failure = math.sqrt(diff.dot(diff)), None
                records.append(TrialRecord(method, rho, *key, err, failure, *release))
    return datasets


def _cell_result(records: list[TrialRecord]) -> CellResult:
    """One cell's CSV row from its trials' records alone; a failed trial is
    counted, and left out of every mean."""
    ok = [r for r in records if r.failure is None]
    mean_err = std_err = mean_frac = mean_cond = math.nan
    if ok:
        errs = [r.err for r in ok]
        mean_err = float(np.mean(errs))
        std_err = float(np.std(errs, ddof=1)) if len(ok) > 1 else 0.0
        reports = [(r.feature_truncation, r.response_truncation) for r in ok]
        fracs = [(f.truncated + g.truncated) / (f.total + g.total) for f, g in reports]
        mean_frac = float(np.mean(fracs))
        mean_cond = float(np.mean([r.avg_cond for r in ok]))
    key = records[0]
    return CellResult(
        method=key.method, rho=float(key.rho), n_priv=key.n_priv, n_pub=key.n_pub,
        trials_ok=len(ok), trials_failed=len(records) - len(ok), mean_err=mean_err,
        std_err=std_err, mean_truncated_frac=mean_frac, mean_avg_cond_pre=mean_cond,
    )


def run_grid(
    grid: ExperimentGrid, source: SyntheticModelSpec | DatasetSource
) -> list[CellResult]:
    """Run every cell of the grid, one dataset at a time; failed
    (unstable-inversion) trials are counted per cell and excluded from the
    mean/std, never silently dropped.

    Each trial forms its largest public and private sets once, from a
    synthetic spec's draws (a trial ahead on a worker thread) or from one
    split of a real dataset, and each dataset takes its prefix of both (see
    the module docstring).  If a spec's coefficients are unset, beta is
    drawn once per grid from a standard normal, using a stream keyed off the
    grid seed.
    """
    if isinstance(source, SyntheticModelSpec) and source.coefficients is None:
        beta = np.random.default_rng(_key(grid, 0)).standard_normal(source.d)
        source = replace(source, coefficients=beta)
    _validate(grid, source)
    truth = source.coefficients if grid.reference is Reference.TRUE_BETA else None

    # the datasets of one (trial, n_pub), in the grid's n_priv order
    sizes = [[(n_priv, n_pub) for n_priv in grid.n_priv_values] for n_pub in grid.n_pub_values]
    # each dataset's cells, in the order _run_trial returns its records
    per_dataset = len(grid.methods) * len(grid.rho_values)
    cells = {size: [[] for _ in range(per_dataset)] for group in sizes for size in group}
    if isinstance(source, DatasetSource):
        trials = _split_trials(grid, source, sizes)
    else:
        trials = _drawn_trials(grid, source, sizes)
    with closing(trials):
        for trial, ((public, private), rngs) in enumerate(trials):
            for n_pub, group, group_rngs in zip(grid.n_pub_values, sizes, rngs):
                datasets = _run_trial(grid, truth, public.head(n_pub), private, group_rngs, trial)
                for size, records in zip(group, datasets):
                    for cell, record in zip(cells[size], records):
                        cell.append(record)
    return [_cell_result(records) for dataset in cells.values() for records in dataset]


def emit_csv(results: list[CellResult], out: str | Path) -> None:
    """Write results as UTF-8 CSV, sorted by (method, rho, n_priv, n_pub).

    Floats use the shortest round-trip decimal via repr().
    """
    if not results:
        raise ValueError("results must be non-empty")
    rows = sorted(results, key=lambda r: (r.method.value, r.rho, r.n_priv, r.n_pub))
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.method.value, *(getattr(r, f) for f in CSV_HEADER[1:])])
