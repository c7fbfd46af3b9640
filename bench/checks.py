"""Correctness checks on a results CSV written by ``pmtreg synth|real``.

``check_csv`` returns a list of problems; an empty list means the CSV passed.
The checks do not gate on the file's bytes (a later change may move RNG
consumption on purpose); the benchmark records the sha256 beside them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

HEADER = [
    "method",
    "rho",
    "n_priv",
    "n_pub",
    "trials_ok",
    "trials_failed",
    "mean_err",
    "std_err",
    "mean_truncated_frac",
    "mean_avg_cond_pre",
]
METHODS = ("DP_OLSE", "DP_PMTOLSE")
NUMERIC = HEADER[1:]

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# reference.json holds, per workload, seed and grid cell, these values of the
# sweep at this commit (record_reference.py).
REFERENCE_SEEDS = range(100)
REFERENCE_COLUMNS = ("mean_err", "mean_err_rel_se", "mean_avg_cond_pre")

# At a recorded seed a run draws the same beta (synthetic) or rows (real-csv)
# as the reference, so its mean_err may differ from the recorded one only by
# the Monte-Carlo error over trials: it must lie within SEED_Z combined
# standard errors of it (relative, so in log units).  With the per-trial
# streams keyed differently (as a change to RNG consumption would), the
# largest |z| over 400 cells at seeds 0-19 was 4.0, in heavy-tailed DP_OLSE
# cells; DP_PMTOLSE's stayed below 2.6.
SEED_Z = 6.0

# At any seed, mean_err and mean_avg_cond_pre must lie within POOLED_Z
# combined standard errors of their mean over the recorded seeds, in log
# units.  mean_err follows the seed's beta, so that band is wide (about a
# factor 20 either way); the conditioning of the clipped (and, for
# DP_PMTOLSE, whitened) design depends on the features only, so its band is
# narrow and tells the two methods apart.
POOLED_Z = 6.0


def cell_key(row) -> str:
    return f"{row['method']}/{float(row['rho']):g}/{int(row['n_priv'])}/{int(row['n_pub'])}"


def parse(text: str):
    """(header, rows as dicts) of a results CSV."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, r)) for r in reader]


def expected_cells(grid) -> set:
    return {
        f"{m}/{rho:g}/{n_priv}/{n_pub}"
        for m in METHODS
        for rho in grid["rho"]
        for n_priv in grid["n_priv"]
        for n_pub in grid["n_pub"]
    }


@dataclass
class Reference:
    """A workload's recorded values, as the checks of one seed use them."""

    trials: int
    seeds: int
    # This seed's recorded [mean_err, mean_err_rel_se, mean_avg_cond_pre]
    # per cell, or None when the seed was not recorded.
    own: dict | None
    # Per cell and column: (mean, sd) of the log over the recorded seeds.
    pooled: dict
    # DP_PMTOLSE cells whose mean_err was below DP_OLSE's at every
    # recorded seed; the ordering is gated in these.
    ordered: set


def load_reference(workload: str, seed: int) -> Reference | None:
    if not REFERENCE_PATH.is_file():
        return None
    recorded = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")).get(workload)
    if recorded is None:
        return None
    by_seed = recorded["seeds"].values()
    first = next(iter(by_seed))
    pooled = {}
    for key in first:
        pooled[key] = {}
        for i, column in enumerate(REFERENCE_COLUMNS):
            if column == "mean_err_rel_se":
                continue
            logs = [math.log(cells[key][i]) for cells in by_seed]
            pooled[key][column] = (statistics.fmean(logs), statistics.stdev(logs))
    ordered = {
        key
        for key in first
        if key.startswith("DP_PMTOLSE/")
        and all(cells[key][0] < cells[_olse(key)][0] for cells in by_seed)
    }
    return Reference(
        trials=recorded["trials"],
        seeds=len(by_seed),
        own=recorded["seeds"].get(str(seed)),
        pooled=pooled,
        ordered=ordered,
    )


def _olse(key: str) -> str:
    """The DP_OLSE cell beside a DP_PMTOLSE cell."""
    return key.replace("DP_PMTOLSE/", "DP_OLSE/", 1)


def check_csv(text: str, grid, trials: int, reference: Reference | None) -> tuple[list, list]:
    """Check one results CSV against its workload grid.

    Returns (problems, findings).  Problems fail the run.  Findings are
    printed but do not fail it: they are cells where DP_PMTOLSE's mean_err
    is not below DP_OLSE's and was not at some recorded seed either (see
    the benchmark README).
    """
    header, rows = parse(text)
    if header != HEADER:
        return [f"header {header} != {HEADER}"], []
    problems = []
    keys = [cell_key(r) for r in rows]
    want = expected_cells(grid)
    if len(keys) != len(want) or set(keys) != want:
        return [f"cells {sorted(keys)} != expected {sorted(want)}"], []
    for row, key in zip(rows, keys):
        if int(row["trials_ok"]) + int(row["trials_failed"]) != trials:
            problems.append(f"{key}: trials_ok + trials_failed != {trials}")
        bad = [c for c in NUMERIC if not math.isfinite(float(row[c]))]
        if bad:
            problems.append(f"{key}: non-finite {bad}")
    if problems:
        return problems, []
    if reference is None:
        return ["no recorded reference for this workload"], []
    if reference.trials != trials:
        return [f"reference recorded at {reference.trials} trials, run has {trials}"], []

    err = {k: float(r["mean_err"]) for k, r in zip(keys, rows)}
    findings = []
    for key in sorted(k for k in keys if k.startswith("DP_PMTOLSE/")):
        if err[key] >= err[_olse(key)]:
            message = (
                f"ordering: {key[len('DP_PMTOLSE/'):]} DP_PMTOLSE mean_err "
                f"{err[key]:.4g} >= DP_OLSE {err[_olse(key)]:.4g}"
            )
            (problems if key in reference.ordered else findings).append(message)

    for key, row in zip(keys, rows):
        # The run's own standard error of mean_err over trials, relative,
        # so in log units.
        rel_se = float(row["std_err"]) / math.sqrt(int(row["trials_ok"])) / err[key]
        if reference.own is not None:
            recorded, recorded_rel_se, _ = reference.own[key]
            z = math.log(err[key] / recorded) / math.hypot(rel_se, recorded_rel_se)
            if abs(z) > SEED_Z:
                problems.append(
                    f"{key}: mean_err {err[key]:.4g} is {z:+.1f} combined SE from "
                    f"{recorded:.4g}, recorded at this seed"
                )
        for column, (log_mean, log_sd) in reference.pooled[key].items():
            value = float(row[column])
            # Each seed draws its own beta (synthetic) or rows (real-csv),
            # so the spread between seeds is one run's standard error; the
            # mean over the recorded seeds adds sd / sqrt(seeds).  For
            # mean_err, the run's own standard error covers a run that one
            # extreme trial dominates.
            own = rel_se if column == "mean_err" else 0.0
            se = math.sqrt(log_sd**2 * (1.0 + 1.0 / reference.seeds) + own**2)
            z = (math.log(value) - log_mean) / se
            if abs(z) > POOLED_Z:
                problems.append(
                    f"{key}: {column} {value:.4g} is {z:+.1f} combined SE from the "
                    f"mean over recorded seeds {math.exp(log_mean):.4g}"
                )
    return problems, findings


def swap_methods(text: str) -> str:
    """The CSV with DP_OLSE and DP_PMTOLSE labels exchanged (a doctored file)."""
    return (
        text.replace("DP_PMTOLSE,", "\0,")
        .replace("DP_OLSE,", "DP_PMTOLSE,")
        .replace("\0,", "DP_OLSE,")
    )
