import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generate_from, random_spd
from pmtreg.data import default_synthetic, public_moments
from pmtreg.estimators import LabeledDataset, PublicMoments, dp_pmtolse
from pmtreg.pmt import TruncationReport, clip_rows, transform, truncation_radius
from pmtreg.privacy import PrivacyBudget
from pmtreg.spectra import SymmetricMatrix, inv_sqrt_clamped


class TestPolicy:
    def test_radius_frozen(self):
        # sqrt(10 * (1 + ln 4000))
        radius = truncation_radius(10, 100, 0.05)
        expected = math.sqrt(10.0 * (1.0 + math.log(4000.0)))
        assert radius == pytest.approx(expected, rel=1e-12)
        assert radius == pytest.approx(9.640565, rel=1e-6)

    def test_scalar_policy_frozen(self):
        radius = truncation_radius(1, 100, 0.05)
        assert radius == pytest.approx(math.sqrt(1.0 + math.log(4000.0)), rel=1e-12)
        assert radius == pytest.approx(3.048614, rel=1e-6)

    def test_scalar_is_full_over_sqrt_d(self):
        for d in (1, 3, 10):
            assert truncation_radius(1, 77, 0.2) == pytest.approx(
                truncation_radius(d, 77, 0.2) / math.sqrt(d), rel=1e-12
            )

    def test_eta_near_one_limit(self):
        radius = truncation_radius(1, 1, 1.0 - 1e-12)
        assert radius == pytest.approx(math.sqrt(1.0 + math.log(2.0)), rel=1e-9)

    def test_eta_whose_log_overflows_rejected(self):
        # 2n / eta is inf, so the radius would be inf
        with pytest.raises(ValueError, match="eta=1e-310 is too small"):
            truncation_radius(10, 3000, 1e-310)

    def test_invalid_eta(self):
        for d, n, eta in [(2, 10, 1.5), (2, 10, 0.0), (2, 10, math.nan), (0, 10, 0.05), (2, 0, 0.05)]:
            with pytest.raises(ValueError):
                truncation_radius(d, n, eta)


class TestTransform:
    def test_scalar_scaling(self):
        # public moment 4I -> inverse sqrt is I/2
        pre = inv_sqrt_clamped(SymmetricMatrix(np.diag([4.0, 4.0])))
        out = transform(np.array([[2.0, 0.0]]), pre)
        assert np.allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_identity_bit_exact(self, rng):
        samples = rng.standard_normal((7, 3))
        out = transform(samples, SymmetricMatrix(np.eye(3)))
        assert np.array_equal(out, samples)

    def test_diagonal_scaling(self):
        pre = inv_sqrt_clamped(SymmetricMatrix(np.diag([4.0, 9.0])))
        out = transform(np.array([[2.0, 3.0]]), pre)
        assert np.allclose(out, [[1.0, 1.0]], atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            transform(rng.standard_normal((4, 3)), SymmetricMatrix(np.eye(2)))
        with pytest.raises(ValueError, match=r"expected an n x d sample matrix, got shape \(3,\)"):
            transform(np.ones(3), SymmetricMatrix(np.eye(3)))

    def test_second_moment_covariance(self, rng):
        samples = rng.standard_normal((200, 4)) @ np.diag([1.0, 2.0, 3.0, 4.0])
        pre = inv_sqrt_clamped(random_spd(rng, 4, max_cond=100.0))
        out = transform(samples, pre)
        n = samples.shape[0]
        expected = pre.entries @ (samples.T @ samples / n) @ pre.entries
        assert np.linalg.norm(out.T @ out / n - expected) < 1e-10 * np.linalg.norm(expected)


class TestTruncate:
    def test_clip_to_radius(self):
        radius = truncation_radius(10, 100, 0.05)
        samples = np.zeros((1, 10))
        samples[0, 0] = 20.0
        out, report = clip_rows(samples, radius)
        assert out[0, 0] == pytest.approx(radius, rel=1e-12)
        assert report.truncated == 1

    def test_inside_untouched_bit_exact(self, rng):
        radius = truncation_radius(3, 50, 0.05)
        samples = rng.standard_normal((20, 3)) * 0.1
        out, report = clip_rows(samples, radius)
        assert out is samples  # returned as is, not copied
        assert report.truncated == 0

    def test_all_zero(self):
        radius = truncation_radius(4, 10, 0.05)
        out, report = clip_rows(np.zeros((5, 4)), radius)
        assert np.array_equal(out, np.zeros((5, 4)))
        assert report.truncated == 0

    @pytest.mark.parametrize(
        "rows, radius",
        [
            ([[3.0, 4.0]], math.nan),
            ([[3.0, 4.0]], -1.0),
            ([[0.0, 0.0]], 0.0),
            ([[3.0, 4.0]], math.inf),
        ],
    )
    def test_bad_radius_rejected(self, rows, radius):
        message = f"radius must be a positive finite real, got {radius}"
        with pytest.raises(ValueError, match=message):
            clip_rows(np.array(rows), radius)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_samples_not_a_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected an n x d matrix, got shape"):
            clip_rows(np.ones(shape), 1.0)

    def test_report_counts_at_most_every_row(self):
        with pytest.raises(ValueError, match="truncated count out of range"):
            TruncationReport(total=2, truncated=3)

    def test_direction_preserved(self, rng):
        radius = truncation_radius(5, 10, 0.05)
        samples = rng.standard_normal((10, 5)) * 100.0
        out, _ = clip_rows(samples, radius)
        for before, after in zip(samples, out):
            u = before / np.linalg.norm(before)
            v = after / np.linalg.norm(after)
            assert np.linalg.norm(u - v) < 1e-12

    def test_idempotent_up_to_rounding(self, rng):
        radius = truncation_radius(5, 30, 0.05)
        samples = rng.standard_normal((30, 5)) * 10.0
        once, _ = clip_rows(samples, radius)
        twice, report = clip_rows(once, radius)
        # boundary rows may re-rescale by a factor within an ulp of 1
        assert np.allclose(twice, once, rtol=1e-14, atol=0.0)
        assert report.total == 30

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_norm_contract(self, seed, scale):
        rng = np.random.default_rng(seed)
        radius = truncation_radius(6, 25, 0.1)
        out, _ = clip_rows(rng.standard_normal((25, 6)) * scale, radius)
        slack = 4 * np.finfo(float).eps * radius
        assert np.all(np.linalg.norm(out, axis=1) <= radius + slack)


class TestPipeline:
    """Whiten then clip, as the preconditioned estimator composes them."""

    def test_identity_passthrough(self, rng):
        samples = rng.standard_normal((50, 3)) * 0.2
        pre = inv_sqrt_clamped(SymmetricMatrix(np.eye(3)))
        out, report = clip_rows(transform(samples, pre), truncation_radius(3, 50, 0.05))
        assert np.array_equal(out, samples)
        assert report.truncated == 0

    def test_scalar_walkthrough(self):
        # 1x1: moment 4 -> transform 10/2 = 5; eta with radius 3 clips to 3
        eta = 2.0 * math.exp(-(3.0**2 - 1.0))  # radius sqrt(1 + ln(2/eta)) = 3
        pre = inv_sqrt_clamped(SymmetricMatrix([[4.0]]))
        out, report = clip_rows(transform(np.array([[10.0]]), pre), truncation_radius(1, 1, eta))
        assert out[0, 0] == pytest.approx(3.0, rel=1e-12)
        assert report.truncated == 1

    def test_composition_equality_bit_exact(self, rng):
        # the estimator's feature report is that of the two steps composed
        samples = rng.standard_normal((40, 4)) * 3.0
        moment = random_spd(rng, 4, max_cond=50.0)
        data = LabeledDataset(features=samples, responses=np.ones(40))
        public = PublicMoments(feature_moment=moment, response_moment=1.0, n_pub=40)
        out = dp_pmtolse(data, public, 0.05, (PrivacyBudget(1.0),), rng)
        _, via_steps = clip_rows(
            transform(samples, inv_sqrt_clamped(moment)), truncation_radius(4, 40, 0.05)
        )
        assert out.feature_truncation == via_steps


def test_no_truncation_statistical():
    # preconditioned sub-Gaussian data should essentially never clip
    spec = default_synthetic()
    truncated_counts = []
    master = np.random.SeedSequence(555)
    for child in master.spawn(200):
        rng = np.random.default_rng(child)
        beta_spec = replace(spec, coefficients=np.zeros(spec.d))
        public = generate_from(beta_spec, 4 * spec.d, rng)
        private = generate_from(beta_spec, 500, rng)
        out = dp_pmtolse(private, public_moments(public), 0.05, (PrivacyBudget(1.0),), rng)
        report = out.feature_truncation
        truncated_counts.append(report.truncated / report.total)
    assert np.mean(truncated_counts) <= 0.05
