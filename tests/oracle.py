"""A straight-line re-derivation of a pmtreg sweep, to check ``run_grid``
against: the key layout and the plain formulas, in numpy alone.

It shares no code with ``pmtreg``.  A synthetic sweep starts from the
spec's fields (mean, covariance, coefficients, noise std) and a real one
from the normalized dataset's arrays.  Nothing is cached, stacked, summed as
a complement, or drawn on another thread: every dataset of every trial is
formed from its rows and released from scratch.

The key layout (``seed`` reduced mod 2^64):

- beta, when the spec sets none: ``[seed, 0]``, d standard normals;
- a trial's synthetic rows: ``[seed, 3, trial, 0]`` public and
  ``[seed, 3, trial, 1]`` private, d + 1 normals per row (features, then the
  response noise) at the grid's largest size, in blocks of 64 rows whose
  features are mapped through the covariance root together; a dataset takes
  the first n_pub public and the first n_priv private rows;
- a trial's real-data split: ``[seed, 3, trial, 2]``, one permutation, the
  private rows its front and the public rows its back, last first; head
  mode puts the rows in reverse order in its place, so its public rows are
  the first n_pub and its private rows the last n_priv, last first;
- a dataset's noise: ``[seed, 2, n_priv, n_pub, trial]``, drawn for each
  method in turn (DP_OLSE, then DP_PMTOLSE) and each rho ascending: the
  matrix noise's upper triangle in row-major order, then the vector noise.

Each release clips the rows, adds Gaussian noise calibrated to rho-zCDP to
X^T X / n and X^T y / n, refuses a noisy moment whose smallest |eigenvalue|
is at most 1e-12 of its largest, and solves the rest by LU ("Analyze Gauss",
Dwork, Talwar, Thakurta and Zhang, STOC 2014).  The eigenvalues come from
``eigvalsh`` and the solve from ``np.linalg.solve``, the LAPACK routines
pmtreg calls: past the guard, an eigenpair solve and LU may differ by
cond * eps relative, more than the 1e-9 the oracle is checked at on its
ill-conditioned grids (avg_cond ~1.5e8).
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

METHODS = ("DP_OLSE", "DP_PMTOLSE")
COLUMNS = (
    "method", "rho", "n_priv", "n_pub", "trials_ok", "trials_failed",
    "mean_err", "std_err", "mean_truncated_frac", "mean_avg_cond_pre",
)
_MASK = 2**64 - 1


def _eig(m):
    """Eigenpairs of (m + m^T) / 2, eigenvalues ascending."""
    return np.linalg.eigh((m + m.T) / 2)


def _eigvals(m):
    """Eigenvalues of (m + m^T) / 2, ascending."""
    return np.linalg.eigvalsh((m + m.T) / 2)


def _solve(m, rhs):
    """m^{-1} rhs by LU, or None where m is numerically singular: smallest
    |eigenvalue| at most 1e-12 of the largest."""
    m = (m + m.T) / 2
    lam = np.abs(np.linalg.eigvalsh(m))
    if lam.min() <= 1e-12 * lam.max():
        return None
    return np.linalg.solve(m, rhs)


def _clip(rows, radius):
    """Rows of norm >= radius scaled back onto the sphere; the count clipped."""
    norms = np.linalg.norm(rows, axis=1)
    over = norms >= radius
    out = rows.copy()
    out[over] = rows[over] * (radius / norms[over])[:, None]
    return out, int(over.sum())


def _release(x, y, r_x, r_y, rhos, rng):
    """One DP call: for each rho, the solved noisy normal equations of the
    clipped rows (None where refused), then the fraction of clipped values
    and the pre-noise averaged condition number."""
    n, d = x.shape
    x, x_clipped = _clip(x, r_x)
    y, y_clipped = _clip(y[:, None], r_y)
    moment, cross = x.T @ x / n, x.T @ y[:, 0] / n
    betas = []
    for rho in rhos:
        sigma1 = 2 * r_x * r_x / (n * math.sqrt(2 * rho))
        sigma2 = 2 * r_x * r_y / (n * math.sqrt(2 * rho))
        upper = np.triu_indices(d)
        noise = np.empty((d, d))
        noise[upper] = noise[upper[::-1]] = rng.normal(0.0, sigma1, size=upper[0].size)
        vector = rng.normal(0.0, sigma2, size=d)
        betas.append(_solve((moment + moment.T) / 2 + noise, cross + vector))
    lam = _eigvals(moment)
    cond = np.mean(lam / lam[0]) if lam[0] > 0 else math.inf
    return betas, (x_clipped + y_clipped) / (2 * n), cond


def _dp_olse(x, y, eta, rhos, rng):
    """Radii from the private rows' own mean squared norm and response."""
    n, d = x.shape
    log_term = math.log(2 * n / eta)
    r_x = math.sqrt(np.sum(x**2) / n + d * log_term)
    r_y = math.sqrt(np.mean(y**2) + log_term)
    return _release(x, y, r_x, r_y, rhos, rng)


def _dp_pmtolse(x, y, public_x, public_y, eta, rhos, rng):
    """Rows whitened by the public second moment's inverse square root P
    (eigenvalues floored at 1e-10 of the largest), responses scaled by the
    public rms response s, and each solution mapped back as s P beta; None
    (no noise drawn) where the public moment or responses are all zero."""
    n, d = x.shape
    lam, vec = _eig(public_x.T @ public_x / len(public_x))
    scale = math.sqrt(np.mean(public_y**2))
    if lam[-1] <= 0 or scale <= 0:
        return None
    p = vec * np.maximum(lam, 1e-10 * lam[-1]) ** -0.5 @ vec.T
    p = (p + p.T) / 2
    log_term = math.log(2 * n / eta)
    r_x, r_y = math.sqrt(d * (1 + log_term)), math.sqrt(1 + log_term)
    betas, frac, cond = _release(x @ p, y / scale, r_x, r_y, rhos, rng)
    return [None if b is None else scale * (p @ b) for b in betas], frac, cond


def _synthetic_rows(mean, covariance, beta, noise_std, key, n):
    """n rows drawn from the stream ``key``: 64-row blocks of d + 1 normals."""
    d = len(mean)
    lam, vec = _eig(covariance)
    root = vec * np.sqrt(np.maximum(lam, 0.0)) @ vec.T
    root = (root + root.T) / 2
    blocks = np.random.default_rng(key).standard_normal((-(-n // 64), 64, d + 1))
    x = [block[:, :d] @ root + mean for block in blocks]
    y = [x_b @ beta + noise_std * block[:, d] for x_b, block in zip(x, blocks)]
    x, y = np.concatenate(x), np.concatenate(y)
    return x[:n], y[:n]


def synthetic_datasets(mean, covariance, coefficients, noise_std, n_privs, n_pubs, seed):
    """``datasets(trial)`` for a synthetic spec's fields, and beta."""
    seed &= _MASK
    beta = coefficients
    if beta is None:
        beta = np.random.default_rng([seed, 0]).standard_normal(len(mean))

    def datasets(trial):
        public, private = (
            _synthetic_rows(mean, covariance, beta, noise_std, [seed, 3, trial, stream], n)
            for stream, n in ((0, max(n_pubs)), (1, max(n_privs)))
        )
        for n_priv, n_pub in product(n_privs, n_pubs):
            yield n_priv, n_pub, (*(a[:n_pub] for a in public), *(a[:n_priv] for a in private))

    return datasets, beta


def real_datasets(features, responses, n_privs, n_pubs, seed, head=False):
    """``datasets(trial)`` for a normalized real dataset."""
    n = len(responses)

    def datasets(trial):
        if head:
            order = np.arange(n)[::-1]
        else:
            order = np.random.default_rng([seed & _MASK, 3, trial, 2]).permutation(n)
        for n_priv, n_pub in product(n_privs, n_pubs):
            public, private = order[::-1][:n_pub], order[:n_priv]
            rows = features[public], responses[public], features[private], responses[private]
            yield n_priv, n_pub, rows

    return datasets


def sweep(datasets, methods, rhos, eta, trials, seed, beta=None):
    """The results table, one dict per (method, rho, n_priv, n_pub) sorted
    as the CSV is; ``beta`` None makes each dataset's reference its private
    rows' least squares, and a trial whose reference is refused fails every
    cell of its dataset."""
    methods = [m for m in METHODS if m in methods]
    rhos = sorted(rhos)
    errs = {}  # (method, rho, n_priv, n_pub) -> [(err, frac, cond) or None per trial]
    for trial in range(trials):
        for n_priv, n_pub, (public_x, public_y, x, y) in datasets(trial):
            rng = np.random.default_rng([seed & _MASK, 2, n_priv, n_pub, trial])
            ref = beta
            if ref is None:
                ref = _solve(x.T @ x / n_priv, x.T @ y / n_priv)
            for method in methods:
                out = None
                if ref is not None and method == "DP_OLSE":
                    out = _dp_olse(x, y, eta, rhos, rng)
                elif ref is not None:
                    out = _dp_pmtolse(x, y, public_x, public_y, eta, rhos, rng)
                for i, rho in enumerate(rhos):
                    outcome = None
                    if out is not None and out[0][i] is not None:
                        outcome = (np.linalg.norm(out[0][i] - ref), out[1], out[2])
                    errs.setdefault((method, rho, n_priv, n_pub), []).append(outcome)
    return [cell_row(key, cell) for key, cell in sorted(errs.items())]


def cell_row(key, outcomes):
    """One CSV row, as a dict, of the cell ``key`` = (method, rho, n_priv,
    n_pub): its trials' outcomes, each (err, truncated fraction, avg_cond)
    or None for a failed trial, counted and left out of every mean."""
    done = [o for o in outcomes if o is not None]
    err = [o[0] for o in done]
    return dict(zip(COLUMNS, (
        *key, len(done), len(outcomes) - len(done),
        np.mean(err) if done else math.nan,
        (np.std(err, ddof=1) if len(done) > 1 else 0.0) if done else math.nan,
        np.mean([o[1] for o in done]) if done else math.nan,
        np.mean([o[2] for o in done]) if done else math.nan,
    )))
