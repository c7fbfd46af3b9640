"""Multi-trial experiment orchestration and CSV emission.

A grid is the cross product (method, rho, n_priv, n_pub); each cell runs
``trials`` trials.  Trials run outermost.  Each trial's rows come from
streams keyed by (seed, trial) alone, so a dataset does not depend on which
other sizes the grid holds:

- synthetic: one public and one private stream, keys (seed, 3, trial, 0)
  and (seed, 3, trial, 1), each drawn once per trial at the grid's largest
  n_pub or n_priv; every dataset of the trial takes the first n_pub public
  and the first n_priv private rows (``generate`` makes them prefix-stable);
- real: one permutation per (seed, trial), key (seed, 3, trial, 2); the
  private rows come from its front and the public rows from its back, so
  they are disjoint at every size and each set is prefix-stable in its own.

The unit of work is a dataset, keyed by (seed, n_priv, n_pub, trial): its
reference is computed once, and every (method, rho) cell's trial runs on it.
One rng stream per dataset, keyed (seed, 2, n_priv, n_pub, trial), draws for
each method and each rho in grid order the matrix noise and the vector
noise.  The grid keeps its values in a canonical order, so neither the order
in which they are listed nor the order in which datasets run changes a
number.

A synthetic sweep draws on one worker thread, a trial ahead: while trial t's
datasets run, the worker builds trial t + 1's noise Generators, draws its
public and private normals into the buffers ``generate`` has finished
reading, and signals the trial ready.  The main thread waits for that
signal before the trial's ``generate`` calls; ``generate``'s datasets share
no memory with the buffers.  The worker calls numpy's ``default_rng``
and ``standard_normal`` only.  While any synthetic sweep runs, numpy's
bundled OpenBLAS runs one thread, so BLAS calls on the main thread do not
compete with the worker for the second core; the last sweep to end restores
the count, and where no such library is found BLAS is left alone.  The
worker ends with the sweep, whether it returns or raises, and an exception
in it is raised again by ``run_grid``.  Real-data sweeps use the main
thread alone.
"""

from __future__ import annotations

import csv
import ctypes
import math
import threading
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import chain, product
from pathlib import Path

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


def _grid_beta(grid: ExperimentGrid, d: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([grid.seed & _SEED_MASK, 0]))
    return rng.standard_normal(d)


def _trial_key(grid: ExperimentGrid, trial: int, stream: int) -> list:
    """Seed entropy of one per-trial row stream: 0 public rows, 1 private
    rows, 2 the real-data permutation."""
    return [grid.seed & _SEED_MASK, 3, trial, stream]


def _noise_key(grid: ExperimentGrid, n_priv: int, n_pub: int, trial: int) -> list:
    """Seed entropy of one dataset's noise stream."""
    return [grid.seed & _SEED_MASK, 2, n_priv, n_pub, trial]


def _openblas():
    """The thread-count getter and setter of the OpenBLAS that numpy's wheel
    bundles (``scipy_openblas``), or None where no such library is found."""
    package = Path(np.__file__).parent  # Linux and Windows wheels, then macOS ones
    found = chain(
        package.parent.glob("numpy.libs/*scipy_openblas*"),
        package.glob(".dylibs/*scipy_openblas*"),
    )
    path = next(found, None)
    if path is None:
        return None
    suffix = "64_" if "openblas64" in path.name else ""  # the ILP64 build's symbols
    try:
        lib = ctypes.CDLL(str(path))  # numpy loaded it already: the same library
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    except (AttributeError, OSError, TypeError):  # not loadable, or not the library named
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


# OpenBLAS has one thread count per process, so the sweeps that pin it are
# counted per process: the running sweeps, and (set, count) to restore.
_blas_lock = threading.Lock()
_blas_sweeps, _blas_restore = 0, None


def _pin_blas(step: int):
    """Count a synthetic sweep in (step 1) or out (step -1): the first in
    sets numpy's OpenBLAS to one thread, the last out restores the count."""
    global _blas_sweeps, _blas_restore
    with _blas_lock:
        _blas_sweeps += step
        if step == 1 and _blas_sweeps == 1 and (blas := _openblas()) is not None:
            get, set_ = blas
            _blas_restore = (set_, get())
            set_(1)
        elif _blas_sweeps == 0 and _blas_restore is not None:
            set_, threads = _blas_restore
            set_(threads)
            _blas_restore = None


class _DrawThread:
    """A synthetic sweep's worker thread, which draws each trial's rows and
    noise Generators while the main thread runs the trial before.

    For each trial it waits until the buffers are free, builds the trial's
    noise Generators, one per dataset size, draws the public and then the
    private normals, and releases one ready signal, as an exception in the
    worker does too; :meth:`normals` waits for it and returns both buffers.
    :meth:`hand_back` returns the Generators and frees the buffers.  As a
    context manager it pins OpenBLAS (:func:`_pin_blas`) and starts the
    worker, and on exit stops and joins it and unpins.
    """

    def __init__(self, grid: ExperimentGrid, spec: SyntheticModelSpec, sizes: list):
        self._grid, self._sizes = grid, sizes
        self._buffers = tuple(
            np.empty(normals_shape(spec.d, max(values)))
            for values in (grid.n_pub_values, grid.n_priv_values)
        )
        self._free, self._ready = threading.Semaphore(1), threading.Semaphore(0)
        self._rngs = self._error = None
        self._closed = False
        self._thread = threading.Thread(target=self._work, name="pmtreg-draws")

    def __enter__(self):
        _pin_blas(1)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._closed = True
        self._free.release()
        self._thread.join()
        _pin_blas(-1)

    def _work(self):
        try:
            for trial in range(self._grid.trials):
                self._free.acquire()
                if self._closed:
                    return
                self._draw(trial)
                self._ready.release()
        except BaseException as exc:  # raised again by the main thread's next wait
            self._error = exc
            self._ready.release()

    def _draw(self, trial: int):
        grid = self._grid
        self._rngs = [
            np.random.default_rng(_noise_key(grid, *size, trial)) for size in self._sizes
        ]
        for stream, buffer in enumerate(self._buffers):
            np.random.default_rng(_trial_key(grid, trial, stream)).standard_normal(out=buffer)

    def normals(self) -> tuple:
        self._ready.acquire()
        if self._error is not None:
            raise self._error
        return self._buffers

    def hand_back(self) -> list:
        """The trial's noise Generators, in the order of the sizes; the
        buffers go back to the worker, which draws the next trial into them."""
        rngs = self._rngs
        self._free.release()
        return rngs


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
            totals = [np.sum(source.dataset.feature_sq_norms), np.sum(source.dataset.response_sq)]
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


def _run_trial(grid, truth, public, private, rng):
    """One dataset and every (method, rho) cell's trial on it.

    ``truth`` is the reference beta, or None to use the private rows' own
    least squares; ``rng`` is the dataset's noise Generator.  Returns one
    outcome per cell, in the order of product(grid.methods, grid.rho_values): (err,
    truncated fraction, pre-noise avg_cond), or None for a cell whose trial
    failed.  A singular noisy moment fails only its own (method, rho); a
    singular reference or public moment (or all-zero public responses) fails
    every cell it feeds.
    """
    per_method = len(grid.rho_values)
    outcomes = [None] * (len(grid.methods) * per_method)
    if truth is None:
        try:
            truth = olse(private)
        except UnstableInversionError:
            return outcomes

    for i, method in enumerate(grid.methods):
        try:
            if method is Method.DP_PMTOLSE:
                out = dp_pmtolse(private, public_moments(public), grid.eta, grid.budgets, rng)
            else:
                out = dp_olse_baseline(private, grid.eta, grid.budgets, rng)
        except UnstableInversionError:
            continue
        feat, resp = out.feature_truncation, out.response_truncation
        frac = (feat.truncated + resp.truncated) / (feat.total + resp.total)
        cond = out.pre_diag.avg_cond
        for j, beta in enumerate(out.betas, i * per_method):
            if beta is not None:
                diff = beta - truth
                # the formula np.linalg.norm evaluates for a real vector
                outcomes[j] = (math.sqrt(diff.dot(diff)), frac, cond)
    return outcomes


def run_grid(
    grid: ExperimentGrid, source: SyntheticModelSpec | DatasetSource
) -> list[CellResult]:
    """Run every cell of the grid, one dataset at a time; failed
    (unstable-inversion) trials are counted per cell and excluded from the
    mean/std, never silently dropped.

    A synthetic spec is drawn from once per trial and stream, a trial ahead
    on a worker thread (see the module docstring), and each dataset takes
    its prefix; if its coefficients are unset, beta is drawn once per grid
    from a standard normal, using a stream keyed off the grid seed.
    """
    if isinstance(source, SyntheticModelSpec) and source.coefficients is None:
        source = replace(source, coefficients=_grid_beta(grid, source.d))
    _validate(grid, source)
    truth = source.coefficients if grid.reference is Reference.TRUE_BETA else None

    sizes = list(product(grid.n_priv_values, grid.n_pub_values))
    cells = list(product(grid.methods, grid.rho_values))
    # per dataset size, one list of trial outcomes per (method, rho)
    outcomes = {size: [[] for _ in cells] for size in sizes}

    def record(size, trial_outcomes):
        for cell, outcome in zip(outcomes[size], trial_outcomes):
            cell.append(outcome)

    if isinstance(source, DatasetSource):
        for trial in range(grid.trials):
            for n_priv, n_pub in sizes:
                key = _trial_key(grid, trial, 2)
                rows = split(source.dataset, n_pub, n_priv, key, source.split_mode)
                rng = np.random.default_rng(_noise_key(grid, n_priv, n_pub, trial))
                record((n_priv, n_pub), _run_trial(grid, truth, *rows, rng))
    else:
        with _DrawThread(grid, source, sizes) as draws:
            for trial in range(grid.trials):
                normals_pub, normals_priv = draws.normals()
                public = generate(source, max(grid.n_pub_values), normals_pub)
                private = generate(source, max(grid.n_priv_values), normals_priv)
                for (n_priv, n_pub), rng in zip(sizes, draws.hand_back()):
                    rows = public.head(n_pub), private.head(n_priv)
                    record((n_priv, n_pub), _run_trial(grid, truth, *rows, rng))

    results = []
    for i, (method, rho) in enumerate(cells):
        for n_priv, n_pub in sizes:
            cell = outcomes[n_priv, n_pub][i]
            done = [o for o in cell if o is not None]
            ok = len(done)
            if ok:
                errs, fracs, conds = zip(*done)
                mean_err = float(np.mean(errs))
                std_err = float(np.std(errs, ddof=1)) if ok > 1 else 0.0
                mean_frac = float(np.mean(fracs))
                mean_cond = float(np.mean(conds))
            else:
                mean_err = std_err = mean_frac = mean_cond = math.nan
            results.append(CellResult(
                method=method, rho=float(rho), n_priv=int(n_priv), n_pub=int(n_pub),
                trials_ok=ok, trials_failed=len(cell) - ok, mean_err=mean_err,
                std_err=std_err, mean_truncated_frac=mean_frac, mean_avg_cond_pre=mean_cond,
            ))
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
