"""Whole sweeps checked against ``oracle.py``, the straight-line statement of
what a sweep computes.

Each grid runs through ``pmtreg.cli.main`` and through the oracle, from the
same spec fields or normalized dataset.  Trial counts must match exactly,
and every float column within 1e-9 relative: the oracle forms each
statistic directly and in one order, so only rounding may differ.
"""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

import oracle
from pmtreg.cli import EXIT_OK, main
from pmtreg.data import default_synthetic, ingest_csv, normalize
from pmtreg.spectra import SymmetricMatrix

RTOL = 1e-9
ILL = ",".join(repr(float(v)) for v in np.geomspace(1e-6, 1.0, 10))


def _cli_table(argv, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == oracle.COLUMNS
    return [dict(zip(header, row)) for row in rows]


def _assert_same_sweep(cli, expected):
    keys = [(r["method"], float(r["rho"]), int(r["n_priv"]), int(r["n_pub"])) for r in cli]
    assert keys == [(e["method"], e["rho"], e["n_priv"], e["n_pub"]) for e in expected]
    for row, want in zip(cli, expected):
        for column in ("trials_ok", "trials_failed"):
            assert int(row[column]) == want[column], (column, row, want)
        for column in oracle.COLUMNS[6:]:
            got = float(row[column])
            assert np.isclose(got, want[column], rtol=RTOL, atol=0.0, equal_nan=True), (
                column, row, want,
            )


def _grid_argv(n_priv, n_pub, rho, trials, seed):
    return [
        "--n-priv", ",".join(map(str, n_priv)), "--n-pub", ",".join(map(str, n_pub)),
        "--rho", ",".join(map(str, rho)), "--trials", str(trials), "--seed", str(seed),
    ]


SYNTHETIC = {
    # (d, mu_scale, psi_spec, reference, n_priv, n_pub, rho, trials, seed)
    "seed-0": (10, 2.0, None, "true_beta", (3000, 5000), (20,), (2.0, 10.0), 20, 0),
    "seed-62": (10, 2.0, None, "true_beta", (3000, 5000), (20,), (2.0, 10.0), 20, 62),
    "seed-125": (10, 2.0, None, "true_beta", (3000, 5000), (20,), (2.0, 10.0), 20, 125),
    "d-50": (50, 2.0, None, "true_beta", (2000,), (100,), (1000.0,), 5, 0),
    "ill-conditioned": (10, 20.0, ILL, "true_beta", (3000,), (20, 40), (2.0, 10.0), 20, 64),
    "ill-conditioned-olse": (
        10, 20.0, ILL, "nonprivate_olse", (3000,), (20,), (2.0, 10.0), 20, 64,
    ),
}
# (methods, eta) of the grids that do not run both methods at eta 0.05: a
# lone method draws its noise first from each dataset's stream, and eta
# reaches every radius
OPTIONS = {
    "DP_PMTOLSE-alone": (("DP_PMTOLSE",), 0.05),
    "DP_OLSE-alone": (("DP_OLSE",), 0.05),
    "eta-0.2": (oracle.METHODS, 0.2),
}
SYNTHETIC.update(
    (name, (10, 2.0, None, "true_beta", (3000, 5000), (20,), (2.0, 10.0), 20, 7))
    for name in OPTIONS
)


@pytest.mark.parametrize("name", SYNTHETIC)
def test_synthetic_sweep_matches_the_oracle(name, tmp_path):
    d, mu_scale, psi, reference, n_priv, n_pub, rho, trials, seed = SYNTHETIC[name]
    methods, eta = OPTIONS.get(name, (oracle.METHODS, 0.05))
    argv = ["synth", "--d", str(d), "--mu-scale", str(mu_scale), "--reference", reference]
    argv += ["--methods", ",".join(methods), "--eta", repr(eta)]
    argv += _grid_argv(n_priv, n_pub, rho, trials, seed)
    spec = default_synthetic(d, mu_scale)
    if psi is not None:
        argv += ["--psi-spec", psi]
        psi_values = [float(v) for v in psi.split(",")]
        spec = replace(spec, covariance=SymmetricMatrix(np.diag(psi_values)))
    datasets, beta = oracle.synthetic_datasets(
        spec.mean, spec.covariance.entries, spec.coefficients, spec.noise_std,
        n_priv, n_pub, seed,
    )
    expected = oracle.sweep(
        datasets, methods, rho, eta, trials, seed, beta if reference == "true_beta" else None
    )
    _assert_same_sweep(_cli_table(argv, tmp_path), expected)


def _write_csv(path, x, y):
    lines = [";".join([*(f"f{j}" for j in range(x.shape[1])), "quality"])]
    lines += [";".join(repr(float(v)) for v in (*row, target)) for row, target in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _real_rows(n, sparse):
    """n rows of 4 features and a response; with ``sparse``, the last two
    features are nonzero in two rows each, so a private set that misses all
    four holds two proportional columns and a singular X^T X."""
    rng = np.random.default_rng(31)
    x = rng.standard_normal((n, 4)) * [1.0, 3.0, 0.5, 2.0] + [0.0, 1.0, 2.0, -1.0]
    if sparse:
        x[:, 2:] = 0.0
        x[[3, 7], 2], x[[11, 19], 3] = 1.0, -2.0
    y = x @ np.array([1.0, -0.5, 2.0, 0.3]) + 0.5 * rng.standard_normal(n)
    return x, y


REAL = {
    # (sparse, split, n_priv, n_pub, rho, trials, seed); n = 500 rows: 400
    # private rows leave 100 out, so their sums are the complement
    "complement-off-and-on": (False, "random", (100, 400), (50,), (1.0, 10.0), 20, 64),
    "head": (False, "head", (100, 400), (40, 60), (1.0, 10.0), 10, 3),
    "some-cells-fail": (True, "random", (100, 400), (50,), (1.0, 10.0), 20, 0),
}


@pytest.mark.parametrize("name", REAL)
def test_real_sweep_matches_the_oracle(name, tmp_path):
    sparse, split, n_priv, n_pub, rho, trials, seed = REAL[name]
    path = _write_csv(tmp_path / "rows.csv", *_real_rows(500, sparse))
    argv = ["real", "--data", str(path), "--split", split]
    argv += _grid_argv(n_priv, n_pub, rho, trials, seed)
    data = normalize(ingest_csv(path))
    datasets = oracle.real_datasets(
        data.features, data.responses, n_priv, n_pub, seed, head=split == "head"
    )
    expected = oracle.sweep(datasets, oracle.METHODS, rho, 0.05, trials, seed)
    cli = _cli_table(argv, tmp_path)
    _assert_same_sweep(cli, expected)
    failed = [int(row["trials_failed"]) for row in cli]
    if sparse:  # the grid shows both: cells with failed trials, and cells without
        assert max(failed) > 0 and min(failed) == 0
    else:
        assert not any(failed)
    assert not any(math.isnan(float(row["mean_err"])) for row in cli)
