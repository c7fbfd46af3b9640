"""Wine-shaped CSV for the ``real-csv`` workload.

The UCI white-wine file is not part of the repository, so the benchmark
writes a stand-in with the same shape: 4,898 rows, 11 correlated features on
their own scales plus an integer ``quality`` column, ``;``-delimited, with a
quoted header.  The population (means, spreads, correlations, the quality
model) is fixed; the seed only draws the rows, so mean errors recorded in
``reference.json`` hold for every seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ROWS = 4898

COLUMNS = (
    # name, mean, standard deviation, decimals written
    ("fixed acidity", 6.855, 0.844, 1),
    ("volatile acidity", 0.278, 0.101, 3),
    ("citric acid", 0.334, 0.121, 2),
    ("residual sugar", 6.39, 5.07, 1),
    ("chlorides", 0.0458, 0.0218, 3),
    ("free sulfur dioxide", 35.3, 17.0, 0),
    ("total sulfur dioxide", 138.4, 42.5, 0),
    ("density", 0.9940, 0.0030, 5),
    ("pH", 3.188, 0.151, 2),
    ("sulphates", 0.490, 0.114, 2),
    ("alcohol", 10.51, 1.23, 1),
)

# Pairwise correlations of roughly the size the UCI file shows; pairs not
# listed are uncorrelated.  Density, sugar and alcohol make the design
# ill-conditioned, which is the regime the preconditioner is meant for.
CORRELATIONS = {
    ("fixed acidity", "citric acid"): 0.29,
    ("fixed acidity", "density"): 0.27,
    ("fixed acidity", "pH"): -0.43,
    ("volatile acidity", "citric acid"): -0.15,
    ("residual sugar", "free sulfur dioxide"): 0.30,
    ("residual sugar", "total sulfur dioxide"): 0.40,
    ("residual sugar", "density"): 0.84,
    ("residual sugar", "alcohol"): -0.45,
    ("chlorides", "density"): 0.26,
    ("chlorides", "alcohol"): -0.36,
    ("free sulfur dioxide", "total sulfur dioxide"): 0.62,
    ("free sulfur dioxide", "density"): 0.29,
    ("total sulfur dioxide", "density"): 0.53,
    ("total sulfur dioxide", "alcohol"): -0.45,
    ("density", "alcohol"): -0.78,
    ("pH", "sulphates"): 0.16,
}

# quality = 5.88 + 0.886 * (standardized linear score + noise), rounded to
# an integer grade in [3, 9].
QUALITY_WEIGHTS = {
    "volatile acidity": -0.20,
    "residual sugar": 0.25,
    "chlorides": -0.05,
    "density": -0.30,
    "pH": 0.08,
    "sulphates": 0.06,
    "alcohol": 0.35,
}


def _correlation() -> np.ndarray:
    names = [c[0] for c in COLUMNS]
    corr = np.eye(len(names))
    for (a, b), r in CORRELATIONS.items():
        i, j = names.index(a), names.index(b)
        corr[i, j] = corr[j, i] = r
    # The table above is a little inconsistent (it is not positive definite),
    # as rounded published correlations often are; lift the smallest
    # eigenvalues and return to unit diagonal.  What is left is nearly
    # collinear, like the real file, where density is almost a linear
    # function of sugar and alcohol.
    lam, vec = np.linalg.eigh(corr)
    fixed = (vec * np.maximum(lam, 0.02)) @ vec.T
    scale = 1.0 / np.sqrt(np.diag(fixed))
    return fixed * np.outer(scale, scale)


def write_wine_csv(path: Path, seed: int) -> None:
    """Write the wine-shaped CSV drawn with ``seed`` to ``path``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    names = [c[0] for c in COLUMNS]
    root = np.linalg.cholesky(_correlation())
    z = rng.standard_normal((ROWS, len(names))) @ root.T
    weights = np.array([QUALITY_WEIGHTS.get(n, 0.0) for n in names])
    score = z @ weights + rng.normal(0.0, 0.85, ROWS)
    quality = np.clip(np.rint(5.88 + 0.886 * score / score.std()), 3, 9)

    lines = [";".join(f'"{n}"' for n in (*names, "quality"))]
    for row, grade in zip(z, quality):
        cells = [
            f"{mean + sd * v:.{dec}f}" for (_, mean, sd, dec), v in zip(COLUMNS, row)
        ]
        cells.append(str(int(grade)))
        lines.append(";".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
