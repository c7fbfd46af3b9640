import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import formed_grams, generate_from
from pmtreg.data import (
    CsvParseError,
    SplitMode,
    SyntheticModelSpec,
    default_synthetic,
    generate,
    ingest_csv,
    normalize,
    normals_shape,
    public_moments,
    split,
)
from pmtreg.estimators import LabeledDataset, PublicMoments, olse
from pmtreg.spectra import SymmetricMatrix, diagnostics

WINE_PATH = os.environ.get("PMTREG_WINE_CSV", "data/winequality-white.csv")


class TestSyntheticSpec:
    def test_second_moment_formula(self):
        spec = SyntheticModelSpec(
            d=2, mean=np.array([1.0, 2.0]), covariance=SymmetricMatrix(np.eye(2))
        )
        expected = np.array([[2.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(spec.second_moment().entries, expected)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SyntheticModelSpec(
                d=3, mean=np.zeros(2), covariance=SymmetricMatrix(np.eye(3))
            )
        with pytest.raises(ValueError):
            SyntheticModelSpec(
                d=2,
                mean=np.zeros(2),
                covariance=SymmetricMatrix(np.eye(2)),
                coefficients=np.zeros(3),
            )
        with pytest.raises(ValueError, match="covariance dimension does not match d"):
            SyntheticModelSpec(d=2, mean=np.zeros(2), covariance=SymmetricMatrix(np.eye(3)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean", np.nan), ("mean", np.inf), ("noise_std", np.nan),
            ("coefficients", np.nan), ("coefficients", np.inf),
        ],
    )
    def test_non_finite_rejected_naming_value(self, field, value):
        kwargs = dict(d=2, mean=np.zeros(2), covariance=SymmetricMatrix(np.eye(2)))
        kwargs[field] = [1.0, value] if field != "noise_std" else value
        with pytest.raises(ValueError, match=f"{field} must be finite.*{value}"):
            SyntheticModelSpec(**kwargs)

    def test_non_psd_covariance_rejected_at_construction(self):
        with pytest.raises(ValueError, match="covariance must be PSD.*lambda_min=-5"):
            SyntheticModelSpec(
                d=3, mean=np.zeros(3), covariance=SymmetricMatrix(np.diag([1.0, 2.0, -5.0]))
            )

    def test_root_formed_once_at_construction(self, monkeypatch):
        import pmtreg.data

        roots = []
        real = pmtreg.data.sqrt_sym
        monkeypatch.setattr(pmtreg.data, "sqrt_sym", lambda m: roots.append(m) or real(m))
        # diagonally dominant, then PSD but not dominant: each root is formed
        # when its spec is built, and never again
        for entries in ([[2.0, -1.0], [-1.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]]):
            covariance = SymmetricMatrix(entries)
            spec = SyntheticModelSpec(d=2, mean=np.zeros(2), covariance=covariance)
            assert roots[-1:] == [covariance]
            count = len(roots)
            root = spec.covariance_root
            assert spec.covariance_root is root and len(roots) == count
            assert np.allclose(root.entries @ root.entries, covariance.entries, atol=1e-14)
            replace(spec, noise_std=0.1)  # a copy builds its own
            assert len(roots) == count + 1

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        negative=st.floats(1e-6, 1e6),
        others=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
    )
    def test_every_non_psd_covariance_refused_at_construction(
        self, d, seed, negative, others
    ):
        # an eigenvalue of -negative below the spectrum's top one, whose
        # others lie in [-1, 1]: never PSD, whatever its discs show
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
        lam = np.array([-negative, *others[: d - 1]])
        covariance = SymmetricMatrix((q * lam) @ q.T)
        with pytest.raises(ValueError, match="covariance must be PSD.*lambda_min=-"):
            SyntheticModelSpec(d=d, mean=np.zeros(d), covariance=covariance)

    @pytest.mark.parametrize("d", [0, -1])
    def test_default_rejects_nonpositive_d(self, d):
        with pytest.raises(ValueError, match=f"d must be >= 1, got {d}"):
            default_synthetic(d=d)

    def test_default_is_ill_conditioned(self):
        spec = default_synthetic()
        assert spec.d == 10
        assert spec.noise_std == 0.05
        assert spec.coefficients is None
        diag = diagnostics(spec.second_moment())
        assert diag.avg_cond >= 10.0  # the regime the transform is meant to fix

    def test_mu_scale_zero_is_just_covariance(self):
        spec = default_synthetic(mu_scale=0.0)
        assert np.array_equal(
            spec.second_moment().entries, spec.covariance.entries
        )


class TestGenerate:
    def test_requires_coefficients(self, rng):
        with pytest.raises(ValueError):
            generate_from(default_synthetic(), 10, rng)

    def test_seed_determinism(self):
        spec = replace(default_synthetic(), coefficients=np.ones(10))
        a = generate_from(spec, 50, np.random.default_rng(5))
        b = generate_from(spec, 50, np.random.default_rng(5))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.responses, b.responses)

    def test_noiseless_recovery(self, rng):
        beta = rng.standard_normal(10)
        spec = SyntheticModelSpec(
            d=10,
            mean=np.zeros(10),
            covariance=SymmetricMatrix(np.eye(10)),
            coefficients=beta,
            noise_std=0.0,
        )
        data = generate_from(spec, 100, rng)
        assert np.allclose(olse(data), beta, atol=1e-10)

    def test_empirical_second_moment(self):
        spec = replace(default_synthetic(), coefficients=np.ones(10))
        data = generate_from(spec, 200_000, np.random.default_rng(11))
        emp = data.features.T @ data.features / data.n
        target = spec.second_moment().entries
        assert np.linalg.norm(emp - target) <= 0.05 * np.linalg.norm(target)

    @pytest.mark.parametrize("d", [1, 10, 50])
    def test_smaller_draw_is_a_prefix_of_a_larger_one(self, d):
        spec = replace(default_synthetic(d), coefficients=np.linspace(-1.0, 1.0, d))
        sizes = (1, 63, 64, 65, 1000)
        draws = {n: generate_from(spec, n, [d, 3, 0, 1]) for n in sizes}
        for n in sizes:
            assert draws[n].n == n
            for m in sizes[sizes.index(n) + 1 :]:
                assert np.array_equal(draws[n].features, draws[m].features[:n]), (n, m)
                assert np.array_equal(draws[n].responses, draws[m].responses[:n]), (n, m)

    @pytest.mark.parametrize("d, n", [(1, 1), (10, 3000), (50, 130)])
    def test_draw_handed_in_gives_the_same_rows_and_shares_no_memory(self, d, n):
        # the harness's draw thread fills one buffer per stream with
        # standard_normal(out=...) and hands it to generate; it refills the
        # buffer once generate returns
        spec = replace(default_synthetic(d), coefficients=np.linspace(-1.0, 1.0, d))
        key = [d, 3, 0, 1]
        normals = np.empty(normals_shape(d, n))
        np.random.default_rng(key).standard_normal(out=normals)
        handed = generate(spec, n, normals)
        drawn = generate_from(spec, n, key)
        assert np.array_equal(handed.features, drawn.features)
        assert np.array_equal(handed.responses, drawn.responses)
        assert not np.shares_memory(handed.features, normals)
        assert not np.shares_memory(handed.responses, normals)
        normals[...] = np.nan  # the next trial's draw: the dataset keeps its rows
        assert np.array_equal(handed.features, drawn.features)
        assert np.array_equal(handed.responses, drawn.responses)

    def test_draw_handed_in_must_have_the_shape_of_n_rows(self):
        spec = replace(default_synthetic(), coefficients=np.ones(10))
        short = np.zeros(normals_shape(10, 64))
        named = r"65 rows of dimension 10 need normals of shape \(2, 64, 11\)"
        with pytest.raises(ValueError, match=named):
            generate(spec, 65, short)

    def test_response_model(self):
        beta = np.arange(1.0, 4.0)
        spec = SyntheticModelSpec(
            d=3,
            mean=np.zeros(3),
            covariance=SymmetricMatrix(np.eye(3)),
            coefficients=beta,
            noise_std=0.0,
        )
        data = generate_from(spec, 40, np.random.default_rng(2))
        assert np.allclose(data.responses, data.features @ beta, atol=1e-12)


class TestIngestCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_round_trip(self, tmp_path):
        p = self._write(
            tmp_path, '"a";"b";"quality"\n1;2;3\n4;5;6\n'
        )
        data = ingest_csv(p)
        assert np.array_equal(data.features, [[1.0, 2.0], [4.0, 5.0]])
        assert np.array_equal(data.responses, [3.0, 6.0])

    def test_response_column_position(self, tmp_path):
        p = self._write(tmp_path, "quality;a\n7;1\n8;2\n")
        data = ingest_csv(p)
        assert np.array_equal(data.responses, [7.0, 8.0])
        assert np.array_equal(data.features, [[1.0], [2.0]])

    def test_custom_delimiter_and_response(self, tmp_path):
        p = self._write(tmp_path, "x,y,target\n1,2,3\n")
        data = ingest_csv(p, delimiter=",", response_column="target")
        assert data.responses[0] == 3.0

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        p = self._write(tmp_path, "a;quality\n1;2\n")
        named = f"delimiter must be one character, got '{delimiter}'"
        with pytest.raises(ValueError, match=named):
            ingest_csv(p, delimiter=delimiter)

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        p = self._write(tmp_path, "a;quality\n1;2\noops;4\n")
        with pytest.raises(CsvParseError, match=r"row 3.*'a'.*'oops'"):
            ingest_csv(p)
        # a bad cell after a good one in its row: the later column is named
        p = self._write(tmp_path, "a;quality\n1;2\n3;oops\n")
        with pytest.raises(CsvParseError, match=r"row 3, column 'quality'.*'oops'"):
            ingest_csv(p)

    def test_non_finite_cell_names_row_and_column(self, tmp_path):
        for cell, shown in (("nan", "nan"), ("inf", "inf"), ("-Infinity", "-inf")):
            p = self._write(tmp_path, f"a;quality\n1;2\n3;{cell}\n")
            with pytest.raises(CsvParseError, match=rf"row 3, column 'quality'.*'{shown}'"):
                ingest_csv(p)

    def test_ragged_row(self, tmp_path):
        p = self._write(tmp_path, "a;quality\n1;2;3\n")
        with pytest.raises(CsvParseError, match="row 2"):
            ingest_csv(p)

    def test_missing_response_column(self, tmp_path):
        p = self._write(tmp_path, "a;b\n1;2\n")
        with pytest.raises(CsvParseError, match="quality"):
            ingest_csv(p)

    def test_repeated_response_column(self, tmp_path):
        # the second 'quality' would otherwise stay on as a copy of the response
        p = self._write(tmp_path, "a;quality;quality\n1;2;2\n3;4;4\n")
        with pytest.raises(CsvParseError, match="response column 'quality' repeats"):
            ingest_csv(p)

    def test_response_only_file(self, tmp_path):
        p = self._write(tmp_path, "quality\n5\n6\n")
        with pytest.raises(CsvParseError, match="no feature column besides 'quality'"):
            ingest_csv(p)

    def test_empty_file(self, tmp_path):
        with pytest.raises(CsvParseError, match="empty"):
            ingest_csv(self._write(tmp_path, ""))

    def test_header_only_file(self, tmp_path):
        with pytest.raises(CsvParseError, match="no data rows"):
            ingest_csv(self._write(tmp_path, "a;quality\n"))

    def test_utf8_bom_is_not_part_of_the_first_column(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfquality;a\n7;1\n8;2\n")
        data = ingest_csv(p)
        assert np.array_equal(data.responses, [7.0, 8.0])
        assert np.array_equal(data.features, [[1.0], [2.0]])

    @pytest.mark.parametrize(
        "raw, line",
        [
            ("quality;acidité\n7;1\n".encode("latin-1"), 1),
            (b"\xef\xbb\xbfquality;a\n7;1\n8;\xe9\n", 3),
        ],
        ids=["latin1-header", "after-bom"],
    )
    def test_non_utf8_bytes_name_file_and_line(self, tmp_path, raw, line):
        p = tmp_path / "latin1.csv"
        p.write_bytes(raw)
        with pytest.raises(CsvParseError, match=rf"latin1\.csv: line {line} is not UTF-8"):
            ingest_csv(p)

    @pytest.mark.skipif(
        not os.path.exists(WINE_PATH), reason=f"wine CSV not found at {WINE_PATH}"
    )
    def test_wine_shape(self):
        data = ingest_csv(WINE_PATH)
        assert data.features.shape == (4898, 11)
        assert data.responses.shape == (4898,)


class TestNormalize:
    def test_hand_case(self):
        data = LabeledDataset(
            features=np.array([[1.0], [2.0], [3.0]]),
            responses=np.array([10.0, 20.0, 30.0]),
        )
        out = normalize(data)
        s = math.sqrt(2.0 / 3.0)  # population std of (1,2,3)
        assert np.allclose(out.features[:, 0], [-math.sqrt(1.5), 0.0, math.sqrt(1.5)])
        # shift 2 and scale s: the feature maps to (x - 2) / s
        assert out.features[:, 0] == pytest.approx(np.array([-1.0, 0.0, 1.0]) / s, rel=1e-15)
        assert out.responses.mean() == pytest.approx(0.0, abs=1e-15)

    def test_unit_population_variance(self, rng):
        x = rng.standard_normal((40, 3)) * 7.0 + 5.0
        y = rng.standard_normal(40) * 3.0
        out = normalize(LabeledDataset(features=x, responses=y))
        assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.features.std(axis=0), 1.0, atol=1e-12)
        assert out.responses.std() == pytest.approx(1.0, abs=1e-12)

    def test_exact_inversion(self, rng):
        x = rng.standard_normal((25, 4)) * 2.0 + 1.0
        y = rng.standard_normal(25)
        data = LabeledDataset(features=x, responses=y)
        out = normalize(data)
        # the map is (v - mean) / population std, so those invert it
        back = out.features * x.std(axis=0) + x.mean(axis=0)
        assert np.allclose(back, x, atol=1e-12)
        assert np.allclose(out.responses * y.std() + y.mean(), y, atol=1e-12)

    def test_constant_column_rejected(self):
        data = LabeledDataset(
            features=np.array([[1.0, 5.0], [2.0, 5.0]]), responses=np.array([1.0, 2.0])
        )
        with pytest.raises(ValueError, match="zero-variance"):
            normalize(data)
        data = LabeledDataset(features=[[1.0], [2.0]], responses=[3.0, 3.0])
        with pytest.raises(ValueError, match="zero-variance response column"):
            normalize(data)
        # a constant 0.1 has a computed std of about 1e-17, not 0
        data = LabeledDataset(
            features=[[1.0, 0.1], [2.0, 0.1], [4.0, 0.1]], responses=[1.0, 2.0, 3.0]
        )
        named = r"zero-variance feature column\(s\) at index \[1\]"
        with pytest.raises(ValueError, match=named):
            normalize(data)
        data = LabeledDataset(features=[[1.0], [2.0], [4.0]], responses=[0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="zero-variance response column"):
            normalize(data)

    def test_overflowing_variance_rejected(self, rng):
        # (1e200)^2 overflows: the std would be inf and every column would
        # standardize to zeros; refused without a RuntimeWarning
        x = rng.standard_normal((40, 3))
        x[:10, 1] = np.where(np.arange(10) % 2, 1e200, -1e200)
        named = r"overflowing-variance feature column\(s\) at index \[1\]"
        with pytest.raises(ValueError, match=named):
            normalize(LabeledDataset(features=x, responses=rng.standard_normal(40)))
        y = np.where(np.arange(40) % 2, 1e200, -1e200)
        with pytest.raises(ValueError, match="overflowing-variance response column"):
            normalize(LabeledDataset(features=rng.standard_normal((40, 3)), responses=y))


class TestSplit:
    def _data(self, n=100, d=3):
        rng = np.random.default_rng(0)
        return LabeledDataset(
            features=rng.standard_normal((n, d)), responses=np.arange(float(n))
        )

    def test_sizes_and_disjoint(self):
        data = self._data()
        pub, priv = split(data, 30, 60, 9)
        assert pub.n == 30 and priv.n == 60
        assert set(pub.responses.tolist()).isdisjoint(priv.responses.tolist())

    def test_random_mode_deterministic(self):
        data = self._data()
        a = split(data, 20, 70, 123)
        b = split(data, 20, 70, 123)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].responses, b[1].responses)

    def test_seed_changes_assignment(self):
        data = self._data()
        a = split(data, 20, 70, 1)
        b = split(data, 20, 70, 2)
        assert not np.array_equal(a[0].responses, b[0].responses)

    def test_head_tail_mode(self):
        # the order is the rows reversed: the public rows are the first ones,
        # the private rows the last ones, last first, whatever the seed; each
        # set is a prefix of a larger set of its kind, whatever the other size
        data = self._data()
        pub, priv = split(data, 10, 20, 0, SplitMode.HEAD_TAIL)
        assert np.array_equal(pub.responses, np.arange(10.0))
        assert np.array_equal(priv.responses, np.arange(99.0, 79.0, -1.0))
        larger_pub, larger_priv = split(data, 30, 70, 5, SplitMode.HEAD_TAIL)
        assert np.array_equal(larger_pub.features[:10], pub.features)
        assert np.array_equal(larger_priv.features[:20], priv.features)

    @pytest.mark.parametrize("mode", list(SplitMode))
    def test_mode_given_by_its_value(self, mode):
        data = self._data(n=20)
        by_value, by_member = split(data, 3, 5, 0, mode.value), split(data, 3, 5, 0, mode)
        for a, b in zip(by_value, by_member):
            assert np.array_equal(a.responses, b.responses)

    @pytest.mark.parametrize("mode", ["tail", "HEAD_TAIL", None])
    def test_unknown_mode_rejected_naming_it(self, mode):
        with pytest.raises(ValueError, match=re.escape(f"{mode!r} is not a valid SplitMode")):
            split(self._data(n=20), 3, 5, 0, mode)

    def test_oversized_split_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            split(self._data(n=50), 30, 30, 0)

    @pytest.mark.parametrize("n_pub, n_priv", [(0, 30), (30, 0), (-1, 30)])
    def test_nonpositive_size_rejected(self, n_pub, n_priv):
        with pytest.raises(ValueError, match=f"n_pub={n_pub}, n_priv={n_priv}"):
            split(self._data(), n_pub, n_priv, 0)

    def test_private_from_front_public_from_back_of_one_permutation(self):
        data, key = self._data(), [5, 3, 2, 2]
        perm = np.random.default_rng(key).permutation(data.n)
        seen = {}
        for n_pub, n_priv in [(10, 20), (10, 90), (40, 60), (1, 1)]:
            pub, priv = split(data, n_pub, n_priv, key)
            assert np.array_equal(priv.responses, perm[:n_priv])
            assert np.array_equal(pub.responses, perm[::-1][:n_pub])
            assert set(pub.responses.tolist()).isdisjoint(priv.responses.tolist())
            seen[n_pub, n_priv] = pub, priv
        # each set is a prefix of a larger set of its kind, whatever the other size
        assert np.array_equal(seen[10, 90][1].features[:20], seen[10, 20][1].features)
        assert np.array_equal(seen[40, 60][0].features[:10], seen[10, 20][0].features)
        assert np.array_equal(seen[10, 20][0].features, seen[10, 90][0].features)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partition_property(self, seed):
        data = self._data()
        pub, priv = split(data, 40, 60, seed)
        combined = sorted(pub.responses.tolist() + priv.responses.tolist())
        assert combined == list(map(float, range(100)))


class TestSplitMoments:
    """The private rows' X^T X and X^T y, from the complement when it is the
    smaller side, else from the rows on first read."""

    @staticmethod
    def _data(n=400, d=5, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d)) * np.geomspace(0.1, 30.0, d) + 2.0
        return LabeledDataset(features=x, responses=x @ np.ones(d) + rng.standard_normal(n))

    @pytest.mark.parametrize(
        "n_pub, n_priv, mode",
        [
            (40, 360, SplitMode.RANDOM_WITHOUT_REPLACEMENT),  # every row used
            (40, 300, SplitMode.RANDOM_WITHOUT_REPLACEMENT),  # 60 middle rows unused
            (40, 360, SplitMode.HEAD_TAIL),
            (40, 300, SplitMode.HEAD_TAIL),  # 60 tail rows unused
            (1, 201, SplitMode.RANDOM_WITHOUT_REPLACEMENT),  # 199 left out < 201
        ],
    )
    def test_complement_matches_the_private_rows(self, n_pub, n_priv, mode, monkeypatch):
        data = self._data()
        formed = formed_grams(monkeypatch)
        public, private = split(data, n_pub, n_priv, [7, 3, 0, 2], mode)
        held = private.stats  # built by split as a complement, not formed from rows
        assert held.gram is not None and held.cross is not None
        assert private.gram is held.gram and private.cross is held.cross
        assert not any(rows is private for rows in formed)
        x, y = private.features, private.responses
        own_gram, own_cross = x.T @ x, x.T @ y
        assert np.abs(held.gram - own_gram).max() <= 1e-12 * np.abs(own_gram).max()
        assert np.abs(held.cross - own_cross).max() <= 1e-12 * np.abs(own_cross).max()
        moment = private.second_moment.entries
        assert np.abs(moment - own_gram / n_priv).max() <= 1e-12 * np.abs(own_gram).max() / n_priv
        assert np.allclose(olse(private), np.linalg.lstsq(x, y, rcond=None)[0], rtol=1e-10)
        # the whole dataset's sums are formed once and kept for every split
        assert [rows is data for rows in formed].count(True) == 1
        whole = data.gram
        split(data, n_pub, n_priv, [7, 3, 1, 2], mode)
        assert data.gram is whole
        assert [rows is data for rows in formed].count(True) == 1

    @pytest.mark.parametrize("mode", list(SplitMode))
    @pytest.mark.parametrize("n_priv", [200, 100])  # 200 left out is not fewer than 200
    def test_rows_form_the_moments_when_the_complement_is_not_smaller(
        self, mode, n_priv, monkeypatch
    ):
        data = self._data()
        formed = formed_grams(monkeypatch)
        _, private = split(data, 40, n_priv, [7, 3, 0, 2], mode)
        assert private.stats.gram is None and private.stats.cross is None
        assert formed == []  # neither the whole dataset's sums nor any other
        x, y = private.features, private.responses
        expected = SymmetricMatrix(x.T @ x / n_priv).entries
        assert private.second_moment.entries.tobytes() == expected.tobytes()
        assert private.cross_moment.tobytes() == (x.T @ y / n_priv).tobytes()
        assert formed == [private]


class TestPublicMoments:
    def test_basis_rows(self):
        data = LabeledDataset(features=np.eye(2), responses=np.array([3.0, 4.0]))
        pm = public_moments(data)
        assert np.array_equal(pm.feature_moment.entries, np.eye(2) / 2.0)
        assert pm.response_moment == pytest.approx(math.sqrt(12.5), rel=1e-15)
        assert pm.n_pub == 2

    def test_single_row_rank_one(self):
        data = LabeledDataset(
            features=np.array([[1.0, 2.0]]), responses=np.array([5.0])
        )
        pm = public_moments(data)
        assert np.array_equal(pm.feature_moment.entries, [[1.0, 2.0], [2.0, 4.0]])
        assert pm.response_moment == 5.0

    def test_uncentered_not_covariance(self, rng):
        # shifting every row must change the moment (no mean subtraction)
        x = rng.standard_normal((50, 3))
        base = public_moments(LabeledDataset(features=x, responses=np.ones(50)))
        shifted = public_moments(
            LabeledDataset(features=x + 10.0, responses=np.ones(50))
        )
        assert not np.allclose(
            base.feature_moment.entries, shifted.feature_moment.entries
        )

    def test_nonpositive_n_pub_rejected(self):
        with pytest.raises(ValueError, match="n_pub must be positive"):
            PublicMoments(SymmetricMatrix(np.eye(3)), 1.0, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_response_moment_rejected(self, value):
        # a nan sigma_B would otherwise give beta = [nan ...] without an error
        with pytest.raises(ValueError, match=f"response_moment.*got {value}"):
            PublicMoments(SymmetricMatrix(np.eye(3)), value, 10)
