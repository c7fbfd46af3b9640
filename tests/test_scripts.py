"""The two reproduction scripts, each run through its own ``main()``."""

import csv
import importlib.util
import sys
from pathlib import Path

import numpy as np

from pmtreg.cli import EXIT_OK
from pmtreg.harness import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *map(str, argv)])
    return script.main()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def test_run_synthetic(tmp_path, monkeypatch):
    out = tmp_path / "synthetic.csv"
    assert run_script("run_synthetic", monkeypatch, out, "--trials", "2") == EXIT_OK
    header, rows = read_csv(out)
    assert header == CSV_HEADER
    assert len(rows) == 12  # 2 methods x rho in {2, 10} x n_priv in {3000, 5000, 10000}


def test_run_wine(tmp_path, monkeypatch):
    # the script's split needs n_pub + n_priv = 249 + 4649 rows, as in the
    # UCI white-wine file: 11 features and a "quality" column, ';'-separated
    rng = np.random.default_rng(0)
    data = tmp_path / "wine.csv"
    names = [f'"x{j}"' for j in range(11)] + ['"quality"']
    np.savetxt(
        data, rng.standard_normal((4898, 12)), fmt="%.6f", delimiter=";",
        header=";".join(names), comments="",
    )
    out = tmp_path / "wine-results.csv"
    assert run_script("run_wine", monkeypatch, data, out, "--trials", "2") == EXIT_OK
    header, rows = read_csv(out)
    assert header == CSV_HEADER
    assert len(rows) == 6  # 2 methods x rho in {5, 50, 500}
