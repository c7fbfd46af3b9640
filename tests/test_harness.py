import argparse
import csv
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dataclasses import replace

from conftest import formed_grams
from pmtreg import harness
from pmtreg.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main
from pmtreg.data import default_synthetic
from pmtreg.estimators import LabeledDataset, Method, RowStatistics
from pmtreg.harness import (
    CellResult,
    ExperimentGrid,
    Reference,
    emit_csv,
    run_grid,
)
from pmtreg.privacy import PrivacyBudget
from pmtreg.spectra import SymmetricMatrix

REPO = Path(__file__).resolve().parents[1]

# The results CSV columns, written out so a change to CellResult shows here.
COLUMNS = [
    "method", "rho", "n_priv", "n_pub", "trials_ok", "trials_failed",
    "mean_err", "std_err", "mean_truncated_frac", "mean_avg_cond_pre",
]


def read_rows(path):
    """The CSV's data rows, each parsed back into a CellResult."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == COLUMNS
    return [
        CellResult(
            Method(r[0]), float(r[1]), int(r[2]), int(r[3]), int(r[4]), int(r[5]),
            *map(float, r[6:]),
        )
        for r in rows
    ]


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
        results = run_grid(grid, default_synthetic())
        cells = [(r.method, r.rho, r.n_priv, r.n_pub) for r in results]
        assert len(cells) == 2 * 2 * 2 * 1
        assert set(cells) == {
            (m, rho, n_priv, 40)
            for m in Method for rho in (1.0, 2.0) for n_priv in (100, 200)
        }

    def test_one_budget_per_rho_in_canonical_order(self):
        grid = small_grid(rho_values=(10.0, 0.5, 2.0))
        assert grid.budgets == tuple(PrivacyBudget(r) for r in (0.5, 2.0, 10.0))

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
            small_grid(methods=("OLSE",))


    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(rho_values=(float("nan"),)), "got nan"),
            (dict(rho_values=(2.0, float("inf"))), "got inf"),
            (dict(rho_values=(0.0,)), "got 0.0"),
            (dict(n_priv_values=(400, 0)), "n_priv_values must be >= 1, got 0"),
            (dict(n_pub_values=(-3,)), "n_pub_values must be >= 1, got -3"),
            (
                dict(methods=(Method.DP_OLSE, Method.DP_PMTOLSE, Method.DP_OLSE)),
                "methods must not repeat a value, got Method.DP_OLSE twice",
            ),
            (
                dict(rho_values=(2.0, 10.0, 2)),
                "rho_values must not repeat a value, got 2 twice",
            ),
            (dict(n_priv_values=(400, 400)), "n_priv_values must not repeat a value, got 400"),
            (dict(n_pub_values=(40, 40)), "n_pub_values must not repeat a value, got 40"),
            (dict(trials=0), "trials must be >= 1, got 0"),
            (dict(trials=2.5), "trials must be integral, got 2.5"),
            (dict(n_priv_values=(300.5,)), "n_priv_values must be integral, got 300.5"),
            (dict(n_pub_values=(20.0,)), "n_pub_values must be integral, got 20.0"),
            (dict(seed=1.5), "seed must be integral, got 1.5"),
        ],
    )
    def test_bad_value_named(self, overrides, named):
        with pytest.raises(ValueError, match=named):
            small_grid(**overrides)


class TestRunGrid:
    def test_zero_noise_recovers_truth(self, no_noise):
        # the baseline still clips (its radii bind on this spec), so only the
        # preconditioned method is expected to land near the truth
        grid = small_grid(methods=(Method.DP_PMTOLSE,), n_priv_values=(2000,), trials=4)
        (r,) = run_grid(grid, default_synthetic())
        assert r.trials_ok == 4 and r.trials_failed == 0
        # noise_std 0.05 leaves a small but nonzero gap to true beta
        assert r.mean_err < 0.05

    def test_seed_determinism(self):
        grid = small_grid()
        spec = default_synthetic()
        a = run_grid(grid, spec)
        b = run_grid(grid, spec)
        assert a == b

    def test_seed_sensitivity(self):
        spec = default_synthetic()
        a = run_grid(small_grid(seed=1), spec)
        b = run_grid(small_grid(seed=2), spec)
        assert a[0].mean_err != b[0].mean_err

    def test_covariance_root_computed_per_spec_not_per_draw(self, monkeypatch):
        import pmtreg.data

        spec = default_synthetic()
        calls = []
        real = pmtreg.data.sqrt_sym

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(pmtreg.data, "sqrt_sym", counted)
        counts = []
        for trials in (1, 5):
            calls.clear()
            run_grid(small_grid(trials=trials), spec)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_fixed_coefficients_respected(self, no_noise):
        from pmtreg.data import SyntheticModelSpec

        beta = np.arange(1.0, 11.0)
        spec = SyntheticModelSpec(
            d=10,
            mean=np.zeros(10),
            covariance=SymmetricMatrix(np.eye(10)),
            coefficients=beta,
            noise_std=0.0,
        )
        grid = small_grid(methods=(Method.DP_PMTOLSE,))
        (r,) = run_grid(grid, spec)
        assert r.mean_err < 1e-8  # noiseless model, noiseless mechanism

    def test_unsupported_source_rejected(self):
        with pytest.raises(TypeError, match="unsupported source type dict"):
            run_grid(small_grid(), {"d": 10})

    def test_truth_reference_rejected_for_dataset_source(self, rng):
        from pmtreg.estimators import LabeledDataset
        from pmtreg.harness import DatasetSource

        data = LabeledDataset(
            features=rng.standard_normal((500, 3)), responses=rng.standard_normal(500)
        )
        with pytest.raises(ValueError, match="synthetic"):
            run_grid(small_grid(n_priv_values=(100,)), DatasetSource(data))

    @pytest.mark.parametrize("column", [None, 0, 2])  # responses, or one feature
    def test_dataset_whose_squares_overflow_refused_before_any_trial(
        self, column, rng, monkeypatch
    ):
        # every cell is finite, but X^T X (or the sum of y^2) would overflow
        # in the first split; pytest makes any RuntimeWarning an error
        from pmtreg.harness import DatasetSource

        x, y = rng.standard_normal((500, 3)), rng.standard_normal(500)
        (y if column is None else x[:, column])[:] *= 1e153
        calls = count_trials(monkeypatch)
        grid = small_grid(
            n_priv_values=(300,), n_pub_values=(50,), reference=Reference.NONPRIVATE_OLSE
        )
        with pytest.raises(ValueError, match="dataset is too large: its sum of squared"):
            run_grid(grid, DatasetSource(LabeledDataset(features=x, responses=y)))
        assert calls == []

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

    def test_collinear_dataset_fails_every_trial(self, rng):
        from pmtreg.harness import DatasetSource

        x = rng.standard_normal((500, 2))
        x = np.column_stack([x, x[:, 0]])  # a duplicated column: singular design
        data = LabeledDataset(features=x, responses=x @ np.ones(3))
        grid = small_grid(
            n_priv_values=(300,), n_pub_values=(50,), reference=Reference.NONPRIVATE_OLSE
        )
        results = run_grid(grid, DatasetSource(data))
        assert len(results) == 2
        for r in results:
            assert (r.trials_ok, r.trials_failed) == (0, 3)
            aggregates = (r.mean_err, r.std_err, r.mean_truncated_frac, r.mean_avg_cond_pre)
            assert all(np.isnan(v) for v in aggregates)


class TestDatasetSharing:
    """Each dataset is drawn once and every (method, rho) cell runs on it."""

    def test_rho_independent_columns_bit_identical_across_rho(self):
        grid = small_grid(rho_values=(0.5, 2.0, 10.0), n_priv_values=(400, 800), trials=4)
        results = run_grid(grid, default_synthetic())
        assert all(r.trials_failed == 0 for r in results)
        groups = {}
        for r in results:
            groups.setdefault((r.method, r.n_priv, r.n_pub), []).append(r)
        assert len(groups) == 4
        for rows in groups.values():
            assert len(rows) == 3
            assert len({r.mean_truncated_frac.hex() for r in rows}) == 1
            assert len({r.mean_avg_cond_pre.hex() for r in rows}) == 1
            # the noise is drawn independently per rho
            assert len({r.mean_err for r in rows}) == 3

    def test_zero_noise_rows_identical_across_rho(self, tmp_path, no_noise):
        out = tmp_path / "zero.csv"
        argv = [
            "synth", "--rho", "0.5,2,10", "--n-priv", "300", "--trials", "3",
            "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 6
        for method in Method:
            same = {replace(r, rho=0.0) for r in rows if r.method is method}
            assert len(same) == 1

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(harness, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
        return calls

    def test_synthetic_dataset_drawn_once(self, monkeypatch):
        datasets = count_trials(monkeypatch)
        generated = self._count(monkeypatch, "generate")
        grid = small_grid(rho_values=(2.0, 10.0), n_priv_values=(400, 800), trials=3)
        run_grid(grid, default_synthetic())
        assert len(datasets) == 2 * 3  # n_priv x trials, not x methods x rho
        assert len(generated) == 2 * grid.trials  # per trial: public, then private

    @pytest.mark.parametrize(
        "command, flag, alone, grid",
        [
            ("synth", "--n-priv", "3000", "3000,5000,10000"),
            ("synth", "--n-pub", "20", "20,40"),
            ("real", "--n-priv", "100", "100,200"),
        ],
    )
    def test_row_does_not_depend_on_the_grids_other_sizes(
        self, command, flag, alone, grid, tmp_path
    ):
        # every dataset of a trial is a prefix of that trial's rows
        argv = [command, "--trials", "3", "--seed", "5", "--rho", "2,10"]
        if command == "real":
            argv += ["--n-pub", "40", "--data", str(write_toy_csv(tmp_path / "toy.csv"))]
        lines = []
        for values in (alone, grid):
            out = tmp_path / f"{values}.csv"
            assert main(argv + [flag, values, "--out", str(out)]) == EXIT_OK
            lines.append(out.read_text().splitlines())
        column = 2 if flag == "--n-priv" else 3
        shared = [line for line in lines[1] if line.split(",")[column] == alone]
        assert len(lines[0]) == 1 + 2 * 2 and len(lines[1]) > len(lines[0])
        assert shared == lines[0][1:]

    def test_real_dataset_split_once_with_one_reference(self, monkeypatch, rng):
        from pmtreg.harness import DatasetSource

        x = rng.standard_normal((500, 3))
        data = LabeledDataset(features=x, responses=x @ np.ones(3))
        datasets = count_trials(monkeypatch)
        splits = self._count(monkeypatch, "split")
        references = self._count(monkeypatch, "olse")
        grid = small_grid(
            rho_values=(1.0, 5.0, 50.0), n_priv_values=(300,), n_pub_values=(50,),
            reference=Reference.NONPRIVATE_OLSE,
        )
        run_grid(grid, DatasetSource(data))
        assert len(datasets) == 3
        assert len(splits) == len(references) == len(datasets)

    @staticmethod
    def _real_grid_run(monkeypatch, rng):
        """A real 3-rho grid with both methods whose baseline clips nothing;
        returns each trial's private rows and baseline output."""
        from pmtreg.harness import DatasetSource

        x = rng.standard_normal((500, 3))
        y = 0.1 * (x @ np.ones(3) + rng.standard_normal(500))  # far inside its radius
        privates, baselines = [], []
        real_split, real_baseline = harness.split, harness.dp_olse_baseline

        def split(*args):
            public, private = real_split(*args)
            privates.append(private)
            return public, private

        def baseline(*args):
            baselines.append(real_baseline(*args))
            return baselines[-1]

        monkeypatch.setattr(harness, "split", split)
        monkeypatch.setattr(harness, "dp_olse_baseline", baseline)
        grid = small_grid(
            rho_values=(1.0, 5.0, 50.0), n_priv_values=(300,), n_pub_values=(50,),
            reference=Reference.NONPRIVATE_OLSE,
        )
        run_grid(grid, DatasetSource(LabeledDataset(features=x, responses=y)))
        assert len(privates) == len(baselines) == grid.trials
        for out in baselines:
            assert out.feature_truncation.truncated == out.response_truncation.truncated == 0
        return privates, baselines

    def test_real_dataset_eigendecompositions(self, monkeypatch, rng):
        # per dataset: olse, the public whitening, and one stack per method,
        # the baseline's without the pre-noise moment, whose spectrum olse
        # read (one call per matrix makes 10)
        from pmtreg import spectra

        eigs = []
        real_eig = spectra.eig_sym

        def eig_sym(m):
            eigs.append(m)
            return real_eig(m)

        monkeypatch.setattr(spectra, "eig_sym", eig_sym)
        privates, _ = self._real_grid_run(monkeypatch, rng)
        assert len(eigs) == 4 * len(privates)

    def test_real_private_gram_formed_once(self, monkeypatch, rng):
        # the split leaves out 200 rows of 500, fewer than the 300 private
        # ones, so the private Gram comes from the complement and no pass
        # over the private rows forms one; a baseline that clips nothing
        # releases the private rows themselves and reads the spectrum olse
        # formed from that Gram
        grams = formed_grams(monkeypatch)
        privates, baselines = self._real_grid_run(monkeypatch, rng)
        for private, out in zip(privates, baselines):
            assert not any(rows is private for rows in grams)
            assert private.stats.gram is not None and private.gram is private.stats.gram
            assert out.pre_diag is private.spectrum
        # the whole dataset's, then per trial the public rows', the 150
        # unused rows' (which the complement subtracts) and the whitened rows'
        assert len(grams) == 1 + 3 * len(privates)
        assert [rows.n for rows in grams] == [500] + [50, 150, 300] * len(privates)

    def test_complement_moments_only_save_time(self, monkeypatch, rng, tmp_path):
        # the same real 3-rho grid with the private moments formed from the
        # private rows: every value agrees to rounding, every count exactly
        from pmtreg.harness import DatasetSource

        x = rng.standard_normal((500, 3)) * [1.0, 4.0, 0.3] + [0.5, -1.0, 2.0]
        y = x @ np.array([1.0, -0.5, 2.0]) + 0.3 * rng.standard_normal(500)
        source = DatasetSource(LabeledDataset(features=x, responses=y))
        grid = small_grid(
            rho_values=(1.0, 5.0, 50.0), n_priv_values=(300, 450), n_pub_values=(50,),
            reference=Reference.NONPRIVATE_OLSE, trials=4,
        )
        used = []
        real_subset = RowStatistics.subset

        def subset(cls, parent, pick, left_out):
            if left_out:
                used.append(left_out)
            return real_subset(parent, pick, left_out)

        monkeypatch.setattr(RowStatistics, "subset", classmethod(subset))
        shipped = run_grid(grid, source)
        assert len(used) == 2 * grid.trials  # both sizes leave out fewer rows than they keep
        monkeypatch.setattr(
            RowStatistics, "subset",
            classmethod(lambda cls, parent, pick, left_out: real_subset(parent, pick, ())),
        )
        row_formed = run_grid(grid, source)
        assert len(shipped) == len(row_formed) == 12
        for a, b in zip(shipped, row_formed):
            assert (a.method, a.rho, a.n_priv, a.n_pub) == (b.method, b.rho, b.n_priv, b.n_pub)
            assert (a.trials_ok, a.trials_failed) == (b.trials_ok, b.trials_failed)
            assert a.mean_truncated_frac == b.mean_truncated_frac
            for name in ("mean_err", "std_err", "mean_avg_cond_pre"):
                assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12, abs=0)

    def test_failed_budget_fails_only_its_cell(self, monkeypatch):
        grid = small_grid(rho_values=(0.5, 2.0, 10.0), trials=4)
        spec = default_synthetic()
        plain = run_grid(grid, spec)
        real = harness.dp_olse_baseline

        def middle_budget_fails(*args, **kwargs):
            out = real(*args, **kwargs)
            first, _, last = out.betas
            return replace(out, betas=(first, None, last))

        monkeypatch.setattr(harness, "dp_olse_baseline", middle_budget_fails)
        patched = run_grid(grid, spec)
        for before, after in zip(plain, patched):
            if (before.method, before.rho) == (Method.DP_OLSE, 2.0):
                assert (after.trials_ok, after.trials_failed) == (0, 4)
                assert np.isnan(after.mean_err)
            else:
                assert after == before

    def test_failed_method_fails_all_its_cells(self, monkeypatch):
        from pmtreg.spectra import UnstableInversionError

        grid = small_grid(rho_values=(2.0, 10.0), trials=3)
        spec = default_synthetic()
        plain = run_grid(grid, spec)

        def no_positive_eigenvalue(*args, **kwargs):
            raise UnstableInversionError("no positive eigenvalue")

        monkeypatch.setattr(harness, "dp_pmtolse", no_positive_eigenvalue)
        patched = run_grid(grid, spec)
        for before, after in zip(plain, patched):
            if before.method is Method.DP_PMTOLSE:
                assert (after.trials_ok, after.trials_failed) == (0, 3)
            else:
                # DP_OLSE draws its noise first, so its rows do not move
                assert after == before

    @pytest.mark.parametrize("flag", ["--n-priv", "--n-pub", "--rho", "--methods"])
    def test_listing_order_does_not_change_bytes(self, flag, tmp_path):
        values = {
            "--n-priv": "300,500", "--n-pub": "20,40", "--rho": "2,10",
            "--methods": "DP_OLSE,DP_PMTOLSE",
        }
        outputs = []
        for reverse in (False, True):
            args = dict(values)
            if reverse:
                args[flag] = ",".join(reversed(args[flag].split(",")))
            out = tmp_path / f"{reverse}.csv"
            argv = ["synth", "--trials", "2", "--seed", "8", "--out", str(out)]
            for name, value in args.items():
                argv += [name, value]
            assert main(argv) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def _delayed(monkeypatch, name, seconds, owner=harness):
    """Make ``owner.name`` sleep before it runs."""
    real = getattr(owner, name)

    def slow(*args):
        time.sleep(seconds)
        return real(*args)

    monkeypatch.setattr(owner, name, slow)


def _raising_at(monkeypatch, name, call, exc, owner=harness):
    """Make ``owner.name`` raise ``exc`` on its call numbered ``call`` (from
    0); with one dataset per trial, the call of ``_run_trial`` or of
    ``_DrawThread._draw`` numbered t is trial t's."""
    real = getattr(owner, name)
    calls = []

    def failing(*args):
        calls.append(name)
        if len(calls) == call + 1:
            raise exc
        return real(*args)

    monkeypatch.setattr(owner, name, failing)


class TestDrawThread:
    """A synthetic sweep draws each trial's rows on a worker thread, a trial
    ahead, and runs OpenBLAS at one thread meanwhile."""

    ARGS = ["synth", "--n-priv", "300,600", "--n-pub", "20,40", "--rho", "2,10",
            "--trials", "4", "--seed", "4"]

    def _sweep(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    def test_slow_worker_or_slow_main_thread_writes_the_same_bytes(self, tmp_path):
        plain = self._sweep(tmp_path, "plain")
        with pytest.MonkeyPatch.context() as mp:
            _delayed(mp, "_draw", 0.02, owner=harness._DrawThread)
            assert self._sweep(tmp_path, "slow-worker") == plain
        with pytest.MonkeyPatch.context() as mp:
            _delayed(mp, "_run_trial", 0.02)
            assert self._sweep(tmp_path, "slow-main") == plain
        interval = sys.getswitchinterval()
        try:  # the threads swap the interpreter lock as often as they can
            sys.setswitchinterval(1e-6)
            assert self._sweep(tmp_path, "fast-switching") == plain
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("trial", [0, 2])
    def test_worker_exception_is_raised_by_run_grid(self, monkeypatch, trial):
        class DrawFailed(Exception):
            pass

        failure = DrawFailed("no normals")
        _raising_at(monkeypatch, "_draw", trial, failure, owner=harness._DrawThread)
        before = threading.active_count()
        raised = []

        def sweep():
            try:
                run_grid(small_grid(trials=4), default_synthetic())
            except DrawFailed as exc:
                raised.append(exc)

        caller = threading.Thread(target=sweep, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "run_grid hung after its worker raised"
        assert raised == [failure] and raised[0] is failure
        assert threading.active_count() == before

    def test_worker_calls_no_traced_binding_and_waits_before_generate(
        self, monkeypatch, tmp_path
    ):
        # bench/child.py keeps one span stack for the process, so the worker
        # must call no traced binding; the main thread waits for each trial's
        # normals, then generates its public and its private rows
        callers, events, waits = set(), [], []
        for module_name, attr, _ in _bench_child().TRACED:
            if module_name.split(".")[0] == "pmtreg":
                module = importlib.import_module(module_name)
                real = getattr(module, attr)

                def recorded(*args, real=real, attr=attr, **kwargs):
                    callers.add(threading.get_ident())
                    if attr == "generate":
                        events.append(attr)
                    return real(*args, **kwargs)

                monkeypatch.setattr(module, attr, recorded)
        real_init = harness._DrawThread.__init__

        def init(draws, *args):
            real_init(draws, *args)
            ready = draws._ready

            class Counted:  # the worker's ready signal, each wait recorded
                release = ready.release

                def acquire(self):
                    waits.append(threading.get_ident())
                    events.append("wait")
                    return ready.acquire()

            draws._ready = Counted()

        monkeypatch.setattr(harness._DrawThread, "__init__", init)
        self._sweep(tmp_path, "traced")
        assert callers == {threading.get_ident()}
        # one wait per trial, on the main thread, before that trial's generate calls
        assert waits == [threading.get_ident()] * 4
        assert events == ["wait", "generate", "generate"] * 4, events

    def test_no_thread_outlives_run_grid(self, monkeypatch):
        before = threading.active_count()
        run_grid(small_grid(trials=3), default_synthetic())
        assert threading.active_count() == before
        _raising_at(monkeypatch, "_run_trial", 1, RuntimeError("trial failed"))
        with pytest.raises(RuntimeError, match="trial failed"):
            run_grid(small_grid(trials=4), default_synthetic())
        assert threading.active_count() == before

    @staticmethod
    def _blas_during_trials(monkeypatch, get):
        seen = []
        real = harness._run_trial

        def recorded(*args):
            seen.append(get())
            return real(*args)

        monkeypatch.setattr(harness, "_run_trial", recorded)
        return seen

    def test_one_blas_thread_during_a_synthetic_sweep_then_restored(
        self, monkeypatch, tmp_path
    ):
        blas = harness._openblas()
        if blas is None:
            pytest.skip("numpy bundles no scipy_openblas here")
        get, set_ = blas
        original = get()
        try:
            set_(2)
            seen = self._blas_during_trials(monkeypatch, get)
            run_grid(small_grid(), default_synthetic())
            assert seen and set(seen) == {1}
            assert get() == 2
            # a real-data sweep leaves BLAS as it is
            seen.clear()
            x = np.random.default_rng(3).standard_normal((600, 3))
            data = LabeledDataset(features=x, responses=x.sum(axis=1))
            run_grid(
                small_grid(reference=Reference.NONPRIVATE_OLSE), harness.DatasetSource(data)
            )
            assert seen and set(seen) == {2}
            # and a sweep whose trial raises restores it too
            _raising_at(monkeypatch, "_run_trial", 1, RuntimeError("trial failed"))
            with pytest.raises(RuntimeError):
                run_grid(small_grid(trials=3), default_synthetic())
            assert get() == 2
        finally:
            set_(original)

    def test_overlapping_sweeps_pin_blas_once_and_the_last_restores_it(self, monkeypatch):
        blas = harness._openblas()
        if blas is None:
            pytest.skip("numpy bundles no scipy_openblas here")
        get, set_ = blas
        original = get()
        try:
            set_(2)
            seen = self._blas_during_trials(monkeypatch, get)
            recorded = harness._run_trial
            second_started, first_done = threading.Event(), threading.Event()

            def trial(*args):
                # the first sweep waits in its first trial for the second to
                # start, and the second waits after its first for the first
                # to end: they overlap, and the second ends last
                if threading.current_thread().name == "first":
                    second_started.wait(timeout=60)
                elif second_started.is_set():
                    first_done.wait(timeout=60)
                second_started.set()
                return recorded(*args)

            monkeypatch.setattr(harness, "_run_trial", trial)
            done = []

            def sweep(trials, finished):
                run_grid(small_grid(trials=trials), default_synthetic())
                done.append(trials)
                finished.set()

            first = threading.Thread(target=sweep, args=(3, first_done), name="first")
            second = threading.Thread(
                target=sweep, args=(5, threading.Event()), name="second"
            )
            first.start()
            second.start()
            first.join(timeout=60)
            second.join(timeout=60)
            assert done == [3, 5]
            assert len(seen) == 3 + 5 and set(seen) == {1}
            assert get() == 2
        finally:
            set_(original)

    def test_concurrent_sweeps_keep_blas_pinned_until_the_last_ends(self, monkeypatch):
        # more sweeping threads than cores, swapping the interpreter lock as
        # often as they can: a lost update to the count of running sweeps
        # would unpin BLAS under a running sweep, or never restore it
        blas = harness._openblas()
        if blas is None:
            pytest.skip("numpy bundles no scipy_openblas here")
        get, set_ = blas
        original, interval = get(), sys.getswitchinterval()
        try:
            set_(2)
            seen = self._blas_during_trials(monkeypatch, get)
            done = []

            def sweeps():
                for _ in range(3):
                    run_grid(small_grid(trials=2), default_synthetic())
                done.append(True)

            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=sweeps) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert len(done) == 4 and len(seen) == 4 * 3 * 2 and set(seen) == {1}
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            set_(original)

    def test_sweep_without_openblas_leaves_blas_alone(self, monkeypatch, tmp_path):
        plain = self._sweep(tmp_path, "plain")
        blas = harness._openblas()

        def no_library(name):
            raise OSError(f"cannot load {name}")

        monkeypatch.setattr(harness.ctypes, "CDLL", no_library)
        assert harness._openblas() is None
        if blas is not None:
            seen = self._blas_during_trials(monkeypatch, blas[0])
        assert self._sweep(tmp_path, "no-blas") == plain
        if blas is not None:
            assert set(seen) == {blas[0]()}


class TestEmitCsv:
    def _results(self):
        grid = small_grid(trials=2)
        return run_grid(grid, default_synthetic())

    def test_header_and_row_count(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_csv(self._results(), out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 3  # header + 2 cells

    def test_round_trip_exact(self, tmp_path):
        out = tmp_path / "r.csv"
        results = self._results()
        emit_csv(results, out)
        back = read_rows(out)
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
            (r.method, r.rho, r.n_priv) for r in read_rows(out)
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


def write_toy_csv(path, n=300, delimiter=";", response="quality", seed=4):
    """Three features and a response placed second, so column order matters."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3)) * [1.0, 3.0, 0.5] + [0.0, 1.0, 2.0]
    y = x @ np.array([1.0, -0.5, 2.0]) + 0.1 * rng.standard_normal(n)
    lines = [delimiter.join(["a", response, "b", "c"])]
    for row, v in zip(x, y):
        lines.append(delimiter.join(f"{c:.6f}" for c in (row[0], v, row[1], row[2])))
    path.write_text("\n".join(lines) + "\n")
    return path


def count_trials(monkeypatch):
    calls = []
    real = harness._run_trial

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "_run_trial", counted)
    return calls


# Every option of each subcommand, written out so that any change to the CLI
# surface shows here: option -> (default, choices, required, type, nargs).
CLI_SURFACE = {
    "synth": {
        "--d": (10, None, False, int, None),
        "--n-priv": ("3000", None, False, None, None),
        "--n-pub": ("20", None, False, None, None),
        "--rho": ("2", None, False, None, None),
        "--eta": (0.05, None, False, float, None),
        "--trials": (300, None, False, int, None),
        "--seed": (0, None, False, int, None),
        "--methods": ("DP_OLSE,DP_PMTOLSE", None, False, None, None),
        "--reference": ("true_beta", ["true_beta", "nonprivate_olse"], False, None, None),
        "--out": (None, None, True, None, None),
        "--mu-scale": (2.0, None, False, float, None),
        "--psi-spec": (None, None, False, None, None),
    },
    "real": {
        "--data": (None, None, True, None, None),
        "--delimiter": (";", None, False, None, None),
        "--response": ("quality", None, False, None, None),
        "--n-pub": ("249", None, False, None, None),
        "--n-priv": ("4649", None, False, None, None),
        "--rho": ("5", None, False, None, None),
        "--eta": (0.05, None, False, float, None),
        "--trials": (300, None, False, int, None),
        "--seed": (0, None, False, int, None),
        "--methods": ("DP_OLSE,DP_PMTOLSE", None, False, None, None),
        "--split": ("random", ["random", "head"], False, None, None),
        "--out": (None, None, True, None, None),
    },
    "diagnose": {
        "--data": (None, None, False, None, None),
        "--delimiter": (";", None, False, None, None),
        "--response": ("quality", None, False, None, None),
        "--d": (10, None, False, int, None),
        "--mu-scale": (2.0, None, False, float, None),
        "--eta": (0.05, None, False, float, None),
        "--n-pub": (None, None, False, int, None),
    },
}


class TestCli:
    def test_parser_surface(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(CLI_SURFACE)
        for command, expected in CLI_SURFACE.items():
            surface = {
                a.option_strings[-1]: (a.default, a.choices, a.required, a.type, a.nargs)
                for a in sub.choices[command]._actions
                if "--help" not in a.option_strings
            }
            assert surface == expected, command

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["synth", "--n-pub", "5"], "DP_PMTOLSE needs n_pub > d=10, got 5"),
            (["synth", "--n-priv", "3000,10"], "n_priv must exceed d=10, got 10"),
            (["synth", "--n-priv", "0"], "n_priv_values must be >= 1, got 0"),
            (
                ["synth", "--n-pub", "0", "--methods", "DP_OLSE"],
                "n_pub_values must be >= 1, got 0",
            ),
            (["real", "--n-pub", "3", "--n-priv", "100"], "n_pub > d=3, got 3"),
            (["synth", "--rho", "nan"], "rho must be a positive finite real, got nan"),
            (["synth", "--rho", "2,inf"], "rho must be a positive finite real, got inf"),
            (["synth", "--d", "0"], "d must be >= 1, got 0"),
            (["synth", "--mu-scale", "nan"], "mean must be finite, got nan"),
            (["diagnose", "--d", "0"], "d must be >= 1, got 0"),
            (["diagnose", "--mu-scale", "inf"], "mean must be finite, got inf"),
            (
                ["synth", "--d", "3", "--psi-spec", "1,2,-5"],
                "--psi-spec values must be finite and nonnegative, got -5.0",
            ),
            (
                ["synth", "--d", "3", "--psi-spec", "1,2,nan"],
                "--psi-spec values must be finite and nonnegative, got nan",
            ),
            (
                ["synth", "--n-priv", "3000,3000"],
                "n_priv_values must not repeat a value, got 3000",
            ),
            (["synth", "--rho", "2,2.0"], "rho_values must not repeat a value, got 2.0"),
            (
                ["synth", "--methods", "DP_OLSE,DP_OLSE"],
                "methods must not repeat a value, got Method.DP_OLSE",
            ),
            (
                ["synth", "--d", "3", "--psi-spec", "0,0,0"],
                "synthetic second moment is numerically singular: |lambda| range",
            ),
            (
                ["synth", "--d", "3", "--psi-spec", "0,0,1"],
                "synthetic second moment is numerically singular: |lambda| range",
            ),
            (["diagnose", "--eta", "1.5"], "eta must lie in (0, 1), got 1.5"),
            (["synth", "--mu-scale", "inf"], "mu_scale must be finite: the mean must be"),
            (["diagnose", "--mu-scale", "nan"], "mu_scale must be finite: the mean must be"),
            (["synth", "--n-priv", "3000,x"], "cannot parse '3000,x' as a comma list of integers"),
            (["synth", "--rho", "2,x"], "cannot parse '2,x' as a comma list of numbers"),
            (
                ["real", "--n-pub", "40", "--n-priv", "1000"],
                "largest split needs 1040 rows but dataset has 300",
            ),
            (
                ["synth", "--d", "3", "--rho", "1e308", "--n-priv", "100", "--n-pub", "20"],
                "rho must be below 2**1023, so that 2 rho is finite, got 1e+308",
            ),
            (
                ["synth", "--mu-scale", "1e154"],
                "mu_scale=1e+154 is too large: the second moment covariance + mean mean^T",
            ),
            (
                ["diagnose", "--mu-scale", "1e154"],
                "mu_scale=1e+154 is too large: the second moment covariance + mean mean^T",
            ),
            (["synth", "--mu-scale", "5e153"], "mu_scale=5e+153 is too large"),
            (["diagnose", "--mu-scale", "5e153"], "its top eigenvalue d * mu_scale^2 does"),
            (
                ["synth", "--d", "3", "--psi-spec", "1,2,1e308"],
                "--psi-spec value 1e+308 is too large: the second moment",
            ),
            (
                # every row is finite, but the baseline's sum of squared
                # norms overflows; pytest makes any RuntimeWarning an error
                ["synth", "--mu-scale", "0", "--psi-spec", ",".join(["1e305"] * 10)],
                "synthetic design is too large: the private rows' sum of squared norms, "
                "about largest n_priv x trace of the second moment = 3000 x 1e+306, overflows",
            ),
        ],
    )
    def test_bad_grid_exits_2_before_any_trial(
        self, argv, named, tmp_path, capsys, monkeypatch
    ):
        calls = count_trials(monkeypatch)
        out = tmp_path / "never.csv"
        if argv[0] == "real":
            argv = argv + ["--data", str(write_toy_csv(tmp_path / "toy.csv"))]
        if argv[0] != "diagnose":
            argv = argv + ["--trials", "2", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["synth", "real"])
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_bad_out_exits_2_before_any_trial(
        self, command, target, tmp_path, capsys, monkeypatch
    ):
        # a missing parent directory, or a directory itself, fails before the sweep
        calls = count_trials(monkeypatch)
        argv = [command, "--trials", "2", "--out", str(tmp_path / target)]
        if command == "real":
            argv += ["--data", str(write_toy_csv(tmp_path / "toy.csv"))]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == EXIT_USAGE
        assert "--out must name a file in an existing directory" in capsys.readouterr().err
        assert calls == [] and sorted(tmp_path.iterdir()) == before

    def test_psi_spec_sets_covariance(self, tmp_path):
        psi = [1.0, 2.0, 30.0]
        args = [
            "synth", "--d", "3", "--n-priv", "200", "--n-pub", "10", "--trials", "3",
            "--seed", "4", "--reference", "nonprivate_olse",
        ]
        out, plain = tmp_path / "psi.csv", tmp_path / "plain.csv"
        assert main(args + ["--psi-spec", "1,2,30", "--out", str(out)]) == EXIT_OK
        assert main(args + ["--out", str(plain)]) == EXIT_OK
        spec = replace(default_synthetic(3), covariance=SymmetricMatrix(np.diag(psi)))
        grid = small_grid(
            n_priv_values=(200,), n_pub_values=(10,), seed=4,
            reference=Reference.NONPRIVATE_OLSE,
        )
        expected = tmp_path / "expected.csv"
        emit_csv(run_grid(grid, spec), expected)
        assert out.read_bytes() == expected.read_bytes()
        assert out.read_bytes() != plain.read_bytes()

    def test_psi_spec_full_rank_through_the_mean_runs(self, tmp_path, monkeypatch):
        # Psi = diag(0, 1, 1) is singular, but the mean makes the second
        # moment Psi + mu mu^T full rank, so the sweep runs
        calls = count_trials(monkeypatch)
        out = tmp_path / "psi.csv"
        argv = ["synth", "--d", "3", "--psi-spec", "0,1,1", "--trials", "2", "--out", str(out)]
        assert main(argv) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2 and all(r.trials_ok == 2 for r in rows)
        assert len(calls) == 2  # one per dataset, shared by both methods

    def test_psi_spec_wrong_length_exits_2(self, tmp_path, capsys):
        argv = ["synth", "--d", "3", "--psi-spec", "1,2", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_USAGE
        assert "--psi-spec needs 3 values, got 2" in capsys.readouterr().err

    def test_real_head_split_uses_leading_rows(self, tmp_path):
        from pmtreg.data import ingest_csv, normalize, public_moments
        from pmtreg.estimators import dp_pmtolse

        data = write_toy_csv(tmp_path / "toy.csv")
        args = [
            "real", "--data", str(data), "--n-pub", "40", "--n-priv", "200",
            "--methods", "DP_PMTOLSE", "--trials", "3",
        ]
        head, rand = tmp_path / "head.csv", tmp_path / "rand.csv"
        assert main(args + ["--split", "head", "--out", str(head)]) == EXIT_OK
        assert main(args + ["--out", str(rand)]) == EXIT_OK
        ((row,),) = [read_rows(head)]
        # every trial sees the same rows: the first 40 public, the next 200
        # private, so the pre-noise conditioning is the same in each trial
        dataset = normalize(ingest_csv(data))
        public = LabeledDataset(dataset.features[:40], dataset.responses[:40])
        private = LabeledDataset(dataset.features[40:240], dataset.responses[40:240])
        cond = dp_pmtolse(
            private, public_moments(public), 0.05, (PrivacyBudget(5.0),),
            np.random.default_rng(0),
        ).pre_diag.avg_cond
        assert row.trials_ok == 3
        assert row.mean_avg_cond_pre == pytest.approx(cond, rel=1e-12)
        assert read_rows(rand)[0].mean_avg_cond_pre != row.mean_avg_cond_pre

    def test_zero_public_responses_fail_only_dp_pmtolse(self, tmp_path):
        # the first 40 responses equal the column mean, so the head split's
        # public responses normalize to exactly zero and cannot rescale
        x = np.random.default_rng(8).standard_normal((300, 2))
        quality = [5.0] * 40 + [4.0, 6.0] * 130
        data = tmp_path / "flat.csv"
        data.write_text(
            "a;b;quality\n" + "".join(f"{a};{b};{q}\n" for (a, b), q in zip(x, quality))
        )
        args = [
            "real", "--data", str(data), "--split", "head", "--n-pub", "40",
            "--n-priv", "200", "--trials", "2", "--rho", "5",
        ]
        both, baseline = tmp_path / "both.csv", tmp_path / "baseline.csv"
        assert main(args + ["--out", str(both)]) == EXIT_OK
        assert main(args + ["--methods", "DP_OLSE", "--out", str(baseline)]) == EXIT_OK
        header, olse_row, _ = both.read_text().splitlines()
        assert baseline.read_text().splitlines() == [header, olse_row]
        pmt_row = read_rows(both)[1]
        assert pmt_row.method is Method.DP_PMTOLSE
        assert (pmt_row.trials_ok, pmt_row.trials_failed) == (0, 2)

    def test_real_custom_delimiter_and_response(self, tmp_path, capsys):
        from pmtreg.data import ingest_csv, normalize
        from pmtreg.harness import DatasetSource

        data = write_toy_csv(tmp_path / "toy.csv", delimiter=",", response="y")
        out = tmp_path / "r.csv"
        argv = [
            "real", "--data", str(data), "--delimiter", ",", "--response", "y",
            "--n-pub", "40", "--n-priv", "200", "--trials", "3", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        dataset = normalize(ingest_csv(data, delimiter=",", response_column="y"))
        grid = small_grid(
            rho_values=(5.0,), n_priv_values=(200,), n_pub_values=(40,), seed=0,
            reference=Reference.NONPRIVATE_OLSE,
        )
        expected = tmp_path / "expected.csv"
        emit_csv(run_grid(grid, DatasetSource(dataset)), expected)
        assert out.read_bytes() == expected.read_bytes()
        # the default ';' delimiter and 'quality' response cannot read it
        assert main(argv[:3] + argv[7:]) == EXIT_USAGE
        assert "response column 'quality' not in header" in capsys.readouterr().err

    def test_synth_grid_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "synth",
                "--n-priv", "300,500",
                "--rho", "2,10",
                "--trials", "2",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2 * 2 * 2  # methods x rho x n_priv

    def test_real_missing_data_exits_2(self, tmp_path):
        out = tmp_path / "never.csv"
        code = main(["real", "--data", str(tmp_path / "absent.csv"), "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_write_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # e.g. --out /dev/full: "[Errno 28] No space left on device"
        def full(rows, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("pmtreg.cli.emit_csv", full)
        argv = ["synth", "--trials", "1", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime-error: [Errno 28] No space left on device")

    @pytest.mark.parametrize("where", ["buffers", "worker"])
    def test_sweep_too_large_for_memory_exits_1(self, where, tmp_path, capsys, monkeypatch):
        # 10^12 private rows need 80 TiB of normals.  Nothing that size is
        # allocated: past 1 GiB the allocation is refused as numpy refuses
        # it, and the worker draws nothing, so no page is ever touched.
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) * 8 > 2**30:
                raise MemoryError(f"Unable to allocate 80.0 TiB for shape {shape}")
            return real_empty(shape, *args, **kwargs)

        def no_draw(draws, trial):
            raise MemoryError("Unable to allocate 80.0 TiB")

        monkeypatch.setattr(harness._DrawThread, "_draw", no_draw)
        n_priv = "1000000000000" if where == "buffers" else "300"
        if where == "buffers":
            monkeypatch.setattr(harness.np, "empty", empty)
        before = threading.active_count()
        out = tmp_path / "never.csv"
        argv = ["synth", "--n-priv", n_priv, "--trials", "1", "--out", str(out)]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime-error: not enough memory: Unable to allocate 80.0 TiB")
        assert not out.exists() and threading.active_count() == before

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

    @pytest.mark.parametrize("n_pub", [20, 11])
    def test_diagnose_prints_null_for_an_unbounded_u(self, n_pub, capsys):
        # sqrt(n_pub) <= sqrt(d) + sqrt(2 ln(1/eta)) at d = 10: U is +inf
        assert main(["diagnose", "--n-pub", str(n_pub)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert payload["U"] is None
        assert 0.0 < payload["L"] < 1.0

    def test_diagnose_prints_null_for_unbounded_condition_numbers(self, monkeypatch, capsys):
        from pmtreg import cli
        from pmtreg.spectra import SpectralDiagnostics

        lam = np.array([-1.0, 2.0])  # lambda_min <= 0: cond and avg_cond are +inf
        monkeypatch.setattr(cli, "diagnostics", lambda m: SpectralDiagnostics(lam, np.eye(2)))
        assert main(["diagnose", "--d", "2", "--n-pub", "400"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert payload["cond"] is None and payload["avg_cond"] is None
        assert payload["eigenvalues"] == [-1.0, 2.0] and payload["lambda_min"] == -1.0

    def test_covariance_root_once_per_spec_built_never_per_draw(
        self, monkeypatch, tmp_path
    ):
        import pmtreg.data

        roots = []
        real = pmtreg.data.sqrt_sym
        monkeypatch.setattr(pmtreg.data, "sqrt_sym", lambda m: roots.append(m) or real(m))
        argv = ["synth", "--d", "3", "--n-priv", "50,80", "--n-pub", "10"]
        # synth builds the default spec, then run_grid its copy with beta,
        # and --psi-spec one more copy; diagnose builds the default spec
        for extra, specs in (
            ([], 2), (["--psi-spec", "1,2,30"], 3), (["--reference", "nonprivate_olse"], 2)
        ):
            for trials in ("1", "3"):
                roots.clear()
                out = str(tmp_path / "x.csv")
                assert main(argv + extra + ["--trials", trials, "--out", out]) == EXIT_OK
                assert len(roots) == specs, (extra, trials)
        roots.clear()
        assert main(["diagnose", "--d", "3"]) == EXIT_OK
        assert len(roots) == 1

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

    def test_heap_setting_skipped_without_mallopt(self, tmp_path, monkeypatch):
        from pmtreg import cli

        args = ["synth", "--n-priv", "300", "--trials", "3", "--seed", "4"]
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        outputs = []
        glibc = SimpleNamespace(mallopt=mallopt)
        for libc in (glibc, object()):  # then a C library without mallopt
            monkeypatch.setattr(cli.ctypes, "CDLL", lambda name, libc=libc: libc)
            out = tmp_path / f"{len(outputs)}.csv"
            assert main(args + ["--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        # both thresholds are set: the trim one alone would pin the mmap one at 128 KiB
        assert calls == [(-3, 32 << 20), (-1, 2**31 - 1)]
        assert outputs[0] == outputs[1]

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "synth", "--n-priv", "300", "--rho", "2", "--trials", "3",
            "--seed", "19",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    @pytest.mark.parametrize("command", ["real", "diagnose"])
    def test_bad_delimiter_exits_2(self, command, delimiter, tmp_path, capsys):
        out = tmp_path / "never.csv"
        args = [command, "--data", str(write_toy_csv(tmp_path / "toy.csv"))]
        args += ["--delimiter", delimiter]
        if command == "real":
            args += ["--out", str(out)]
        assert main(args) == EXIT_USAGE
        assert f"delimiter must be one character, got '{delimiter}'" in capsys.readouterr().err
        assert not out.exists()

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
    src = REPO / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, pmtreg.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition goes breaks `import *`
    import pkgutil

    import pmtreg

    names = ["pmtreg"] + [f"pmtreg.{m.name}" for m in pkgutil.iter_modules(pmtreg.__path__)]
    assert len(names) >= 8  # the package and its seven modules
    for name in names:
        module = importlib.import_module(name)
        missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
        assert missing == [], name
        exec(f"from {name} import *", {})


def test_bench_counts_the_unstable_inversion_type():
    # bench/run.py counts failed DP spans by exception type name; a rename of
    # the type would silently zero estimators.unstable.count
    from pmtreg.spectra import UnstableInversionError

    text = (REPO / "bench" / "run.py").read_text(encoding="utf-8")
    (matched,) = re.findall(r'startswith\("estimators\.dp_"\) and s\[4\] == "(\w+)"', text)
    assert matched == UnstableInversionError.__name__


def _refuse_constant(name):
    raise ValueError(f"not standard JSON: {name}")


def _bench_child():
    spec = importlib.util.spec_from_file_location("bench_child", REPO / "bench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_bench_traced_bindings_resolve():
    # bench/child.py wraps these names for the traced benchmark run; a
    # refactor that drops one would otherwise fail only there
    child = _bench_child()
    pairs = [(m, a) for m, a, _ in child.TRACED if m.split(".")[0] == "pmtreg"]
    assert len(pairs) >= 19
    for module, attr in pairs:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_bench_traced_bindings_are_called_through(monkeypatch, tmp_path):
    # a binding can resolve and still be stale, when the layer that called
    # through it now calls the function some other way: the traced benchmark
    # then reads 0 calls.  One small sweep of each kind calls through every
    # pmtreg binding that bench/child.py wraps.
    child = _bench_child()
    tracer = child.Tracer()
    expected = set()
    for module_name, attr, name in child.TRACED:
        if module_name.split(".")[0] == "pmtreg":
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
            expected.add(name)
    sizes = ["--n-priv", "200", "--n-pub", "40", "--trials", "2"]
    out = str(tmp_path / "out.csv")
    assert main(["synth", "--d", "3", *sizes, "--out", out]) == EXIT_OK
    data = str(write_toy_csv(tmp_path / "toy.csv"))
    assert main(["real", "--data", data, *sizes, "--out", out]) == EXIT_OK
    assert expected - {span[0] for span in tracer.spans} == set()


def test_bench_clip_note_reads_the_clip_report():
    # the traced run labels each clip_rows span from its (rows, report) result;
    # pmt.clip_rows.noop_frac is the share labelled "noop"
    from pmtreg import pmt

    child = _bench_child()
    rows = np.array([[3.0, 4.0], [0.3, 0.4]])
    assert child._clip_note(pmt.clip_rows(rows, 1.0)) == "clipped"
    assert child._clip_note(pmt.clip_rows(rows, 10.0)) == "noop"
