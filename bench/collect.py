#!/usr/bin/env python3
"""Summarise benchmark runs across seeds.

    python3 bench/collect.py OUT.json .bench_work/results/*.json

For each workload and end-to-end metric of the untraced runs: the values by
seed, their median and quartiles (``statistics.quantiles(values, n=4)``),
and the spread, (q3 - q1) / median, beside the metric's bound in
BENCHMARK.json.  Traced runs are kept whole.  Prints one line per metric and
writes everything, with the first run's environment, to OUT.json.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(out: str, paths: list) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [json.loads(Path(p).read_text()) for p in sorted(paths)]
    summary = {"environment": runs[0]["environment"], "workloads": {}}
    for w in bench["workloads"]:
        plain = sorted(
            (r for r in runs if r["workload"] == w["name"] and r["trace"] == 0),
            key=lambda r: r["seed"],
        )
        traced = [r for r in runs if r["workload"] == w["name"] and r["trace"] == 1]
        entry = {
            "seeds": [r["seed"] for r in plain],
            "correct": all(r["correct"] for r in plain + traced),
            "findings": sorted({f for r in plain + traced for f in r["findings"]}),
            "end_to_end": {},
            "traced": [
                {k: r[k] for k in ("seed", "correct", "sha256", "values", "summaries")}
                for r in traced
            ],
        }
        for m in bench["end_to_end"]:
            values = [r["values"][m["name"]] for r in plain]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "values": values, "median": median,
                "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
            }
            print(
                f"{w['name']:<16} {m['name']:<14} median {median:<10.5g} {m['unit']:<4} "
                f"spread {spread:.4f}  bound {m['bound']}  spread/bound {spread / m['bound']:.2f}"
            )
        summary["workloads"][w["name"]] = entry
    Path(out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
