import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pmtreg.cli import EXIT_OK, EXIT_USAGE, main
from pmtreg.data import default_synthetic
from pmtreg.estimators import Method
from pmtreg.harness import (
    CSV_HEADER,
    CellResult,
    ExperimentGrid,
    Reference,
    SyntheticSource,
    emit_csv,
    read_results_csv,
    run_grid,
)


def small_grid(**overrides):
    base = dict(
        methods=(Method.DP_OLSE, Method.DP_PMTOLSE),
        rho_values=(2.0,),
        n_priv_values=(400,),
        n_pub_values=(40,),
        eta=0.05,
        trials=3,
        seed=11,
        reference=Reference.TRUE_BETA,
    )
    base.update(overrides)
    return ExperimentGrid(**base)


class TestExperimentGrid:
    def test_cell_enumeration(self):
        grid = small_grid(rho_values=(1.0, 2.0), n_priv_values=(100, 200))
        assert len(grid.cells()) == 2 * 2 * 2 * 1

    def test_validation(self):
        with pytest.raises(ValueError):
            small_grid(rho_values=())
        with pytest.raises(ValueError):
            small_grid(rho_values=(-1.0,))
        with pytest.raises(ValueError):
            small_grid(eta=1.5)
        with pytest.raises(ValueError):
            small_grid(trials=0)
        with pytest.raises(ValueError):
            small_grid(methods=(Method.OLSE,))


class TestRunGrid:
    def test_zero_noise_recovers_truth(self):
        # the baseline still clips (its radii bind on this spec), so only the
        # preconditioned method is expected to land near the truth
        grid = small_grid(
            methods=(Method.DP_PMTOLSE,), zero_noise=True,
            n_priv_values=(2000,), trials=4,
        )
        (r,) = run_grid(grid, SyntheticSource(default_synthetic()))
        assert r.trials_ok == 4 and r.trials_failed == 0
        # noise_std 0.05 leaves a small but nonzero gap to true beta
        assert r.mean_err < 0.05

    def test_seed_determinism(self):
        grid = small_grid()
        spec = default_synthetic()
        a = run_grid(grid, SyntheticSource(spec))
        b = run_grid(grid, SyntheticSource(spec))
        assert a == b

    def test_seed_sensitivity(self):
        spec = default_synthetic()
        a = run_grid(small_grid(seed=1), SyntheticSource(spec))
        b = run_grid(small_grid(seed=2), SyntheticSource(spec))
        assert a[0].mean_err != b[0].mean_err

    def test_fixed_coefficients_respected(self):
        from pmtreg.data import SyntheticModelSpec
        from pmtreg.spectra import SymmetricMatrix

        beta = np.arange(1.0, 11.0)
        spec = SyntheticModelSpec(
            d=10,
            mean=np.zeros(10),
            covariance=SymmetricMatrix.identity(10),
            coefficients=beta,
            noise_std=0.0,
        )
        grid = small_grid(methods=(Method.DP_PMTOLSE,), zero_noise=True)
        (r,) = run_grid(grid, SyntheticSource(spec))
        assert r.mean_err < 1e-8  # noiseless model, noiseless mechanism

    def test_truth_reference_rejected_for_dataset_source(self, rng):
        from pmtreg.estimators import LabeledDataset
        from pmtreg.harness import DatasetSource

        data = LabeledDataset(
            features=rng.standard_normal((500, 3)), responses=rng.standard_normal(500)
        )
        with pytest.raises(ValueError, match="synthetic"):
            run_grid(small_grid(n_priv_values=(100,)), DatasetSource(data))

    def test_dataset_source_runs(self, rng):
        from pmtreg.estimators import LabeledDataset
        from pmtreg.harness import DatasetSource

        x = 0.5 * rng.standard_normal((500, 3))
        y = x @ np.array([1.0, -1.0, 0.5]) + 0.01 * rng.standard_normal(500)
        data = LabeledDataset(features=x, responses=y)
        grid = small_grid(
            n_priv_values=(300,),
            n_pub_values=(50,),
            reference=Reference.NONPRIVATE_OLSE,
        )
        results = run_grid(grid, DatasetSource(data))
        assert all(r.trials_ok == 3 for r in results)


class TestEmitCsv:
    def _results(self):
        grid = small_grid(trials=2)
        return run_grid(grid, SyntheticSource(default_synthetic()))

    def test_header_and_row_count(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_csv(self._results(), out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3  # header + 2 cells

    def test_round_trip_exact(self, tmp_path):
        out = tmp_path / "r.csv"
        results = self._results()
        emit_csv(results, out)
        back = read_results_csv(out)
        assert sorted(results, key=lambda r: r.method.value) == back

    def test_sorted_output(self, tmp_path):
        rows = [
            CellResult(Method.DP_PMTOLSE, 2.0, 100, 10, 1, 0, 0.5, 0.0, 0.0, 1.0),
            CellResult(Method.DP_OLSE, 10.0, 100, 10, 1, 0, 0.5, 0.0, 0.0, 1.0),
            CellResult(Method.DP_OLSE, 2.0, 200, 10, 1, 0, 0.5, 0.0, 0.0, 1.0),
            CellResult(Method.DP_OLSE, 2.0, 100, 10, 1, 0, 0.5, 0.0, 0.0, 1.0),
        ]
        out = tmp_path / "r.csv"
        emit_csv(rows, out)
        keys = [
            (r.method, r.rho, r.n_priv) for r in read_results_csv(out)
        ]
        assert keys == [
            (Method.DP_OLSE, 2.0, 100),
            (Method.DP_OLSE, 2.0, 200),
            (Method.DP_OLSE, 10.0, 100),
            (Method.DP_PMTOLSE, 2.0, 100),
        ]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "r.csv")


class TestCli:
    def test_synth_grid_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "synth",
                "--n-priv", "300,500",
                "--rho", "2,10",
                "--trials", "2",
                "--seed", "3",
                "--zero-noise",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_results_csv(out)
        assert len(rows) == 2 * 2 * 2  # methods x rho x n_priv

    def test_real_missing_data_exits_2(self, tmp_path):
        out = tmp_path / "never.csv"
        code = main(["real", "--data", str(tmp_path / "absent.csv"), "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["synth", "--bogus", "1", "--out", "x.csv"]) == EXIT_USAGE

    def test_bad_method_exits_2(self, tmp_path):
        code = main(
            ["synth", "--methods", "NOPE", "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE

    def test_diagnose_json_contract(self, capsys):
        assert main(["diagnose", "--d", "6", "--n-pub", "64"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        expected_keys = {
            "eigenvalues", "trace", "avg_trace", "lambda_min", "lambda_max",
            "cond", "avg_cond", "L", "U",
        }
        assert set(payload) == expected_keys
        assert len(payload["eigenvalues"]) == 6
        assert 0.0 < payload["L"] < 1.0 < payload["U"]

    def test_diagnose_real_file(self, tmp_path, capsys):
        p = tmp_path / "toy.csv"
        rows = ["a;b;quality"]
        rng = np.random.default_rng(4)
        for _ in range(30):
            a, b = rng.standard_normal(2)
            rows.append(f"{a};{b};{a + b + rng.standard_normal():.6f}")
        p.write_text("\n".join(rows) + "\n")
        assert main(["diagnose", "--data", str(p)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["eigenvalues"]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "synth", "--n-priv", "300", "--rho", "2", "--trials", "3",
            "--seed", "19",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["real", "diagnose"])
    def test_non_finite_cell_exits_2_naming_cell(self, command, tmp_path, capsys):
        p = tmp_path / "toy.csv"
        p.write_text("a;b;quality\n1;2;3\n4;nan;6\n7;8;9\n")
        args = [command, "--data", str(p)]
        if command == "real":
            args += ["--out", str(tmp_path / "never.csv")]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{p}: row 3, column 'b': cannot parse 'nan'" in err


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, pmtreg.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
