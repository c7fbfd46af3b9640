#!/usr/bin/env python3
"""Record the reference values that the benchmark's correctness check uses.

    python3 bench/record_reference.py

Runs every workload's sweep once for each seed in ``checks.REFERENCE_SEEDS``
and writes to ``bench/reference.json``, per seed and grid cell, the
``checks.REFERENCE_COLUMNS``: ``mean_err``, its relative standard error over
the trials, and ``mean_avg_cond_pre``.  A run at a recorded seed is checked
against that seed's values; a run at another seed against the spread over
all of them (``checks.py``).  Re-record only when a change is meant to alter
the estimators' errors.
"""

import json
import math
import sys

import run
from checks import REFERENCE_COLUMNS, REFERENCE_PATH, REFERENCE_SEEDS, cell_key, parse


def reference_row(row) -> list:
    mean_err = float(row["mean_err"])
    rel_se = float(row["std_err"]) / math.sqrt(int(row["trials_ok"])) / mean_err
    return [mean_err, rel_se, float(row["mean_avg_cond_pre"])]


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    parts = []
    for w in run.WORKLOADS.values():
        lines = []
        for seed in REFERENCE_SEEDS:
            inputs = run.make_inputs(w, seed)
            argv = run.cli_args(w, seed, inputs)
            _, rows = parse(run.run_sweep(argv, f"{w.name}-reference").text)
            if inputs is not None:
                inputs.unlink()
            cells = {cell_key(row): reference_row(row) for row in rows}
            lines.append(f'   "{seed}": {json.dumps(dict(sorted(cells.items())))}')
        parts.append(
            f' "{w.name}": {{\n  "trials": {w.trials},\n'
            f'  "columns": {json.dumps(REFERENCE_COLUMNS)},\n'
            '  "seeds": {\n' + ",\n".join(lines) + "\n  }\n }"
        )
        print(w.name, "recorded", flush=True)
    text = "{\n" + ",\n".join(parts) + "\n}\n"
    json.loads(text)
    REFERENCE_PATH.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
