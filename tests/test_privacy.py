import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtreg.pmt import clip_rows, truncation_radius
from pmtreg.privacy import (
    BudgetLedger,
    PrivacyBudget,
    compose,
    noise_scales,
    sample_gaussian_vector,
    sample_symmetric_gaussian,
    zcdp_to_dp,
)


def pmt_scales(d, n, eta, budget):
    """Noise scales at the preconditioned estimator's radii."""
    return noise_scales(truncation_radius(d, n, eta), truncation_radius(1, n, eta), n, budget)


class TestZcdpToDp:
    def test_exact_point(self):
        # rho = 1, delta = 1/e: eps = 1 + 2 sqrt(1 * 1) = 3
        g = zcdp_to_dp(PrivacyBudget(1.0), math.exp(-1.0))
        assert g.epsilon == pytest.approx(3.0, abs=1e-12)

    def test_formula_point(self):
        g = zcdp_to_dp(PrivacyBudget(0.5), 1e-5)
        expected = 0.5 + 2.0 * math.sqrt(0.5 * math.log(1e5))
        assert g.epsilon == pytest.approx(expected, rel=1e-14)
        assert g.epsilon == pytest.approx(5.2985259, rel=1e-6)

    def test_small_rho_limit(self):
        assert zcdp_to_dp(PrivacyBudget(1e-12), 0.1).epsilon < 1e-5

    def test_invalid_delta(self):
        for delta in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                zcdp_to_dp(PrivacyBudget(1.0), delta)

    @given(
        rho=st.floats(min_value=1e-6, max_value=100.0),
        delta=st.floats(min_value=1e-12, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, rho, delta):
        base = zcdp_to_dp(PrivacyBudget(rho), delta).epsilon
        assert zcdp_to_dp(PrivacyBudget(rho * 2), delta).epsilon > base
        assert zcdp_to_dp(PrivacyBudget(rho), delta / 2).epsilon > base


class TestNoiseScales:
    def test_matrix_scale_frozen(self):
        sigma = pmt_scales(10, 1000, 0.05, PrivacyBudget(2.0)).sigma1
        expected = 20.0 * (1.0 + math.log(40000.0)) / 2000.0
        assert sigma == pytest.approx(expected, rel=1e-15)
        assert sigma == pytest.approx(0.1159663, rel=1e-6)

    def test_matrix_scale_hand_point(self):
        # eta = 2/e^2 makes ln(2n/eta) = 2; sqrt(2 rho) = 1
        sigma = pmt_scales(1, 1, 2.0 * math.exp(-2.0), PrivacyBudget(0.5)).sigma1
        assert sigma == pytest.approx(6.0, rel=1e-12)

    def test_inverse_n_scaling(self):
        b = PrivacyBudget(1.0)
        assert (
            pmt_scales(10, 2 * 10**6, 0.05, b).sigma1
            / pmt_scales(10, 10**6, 0.05, b).sigma1
            < 0.52  # halving up to the slowly growing log factor
        )

    def test_vector_scale_frozen(self):
        sigma = pmt_scales(10, 1000, 0.05, PrivacyBudget(2.0)).sigma2
        expected = 2.0 * math.sqrt(10.0) * (1.0 + math.log(40000.0)) / 2000.0
        assert sigma == pytest.approx(expected, rel=1e-15)
        assert sigma == pytest.approx(0.0366718, rel=1e-5)

    def test_vector_is_matrix_over_sqrt_d(self):
        b = PrivacyBudget(3.0)
        for d in (1, 4, 9):
            scales = pmt_scales(d, 500, 0.1, b)
            ratio = scales.sigma1 / scales.sigma2
            assert ratio == pytest.approx(math.sqrt(d), rel=1e-14)

    def test_calibration_identity(self):
        # sigma equals (Frobenius sensitivity) / sqrt(2 rho) exactly
        d, n, eta, rho = 7, 321, 0.03, 1.7
        delta = 2.0 * d * (1.0 + math.log(2.0 * n / eta)) / n
        assert pmt_scales(d, n, eta, PrivacyBudget(rho)).sigma1 == pytest.approx(
            delta / math.sqrt(2.0 * rho), rel=1e-15
        )


def _clipped_moments(x, y, r_x, r_y):
    n = x.shape[0]
    a, _ = clip_rows(x, r_x)
    b, _ = clip_rows(y[:, None], r_y)
    return a.T @ a / n, a.T @ b[:, 0] / n


@given(
    seed=st.integers(0, 2**32 - 1),
    baseline=st.booleans(),
    antipodal=st.booleans(),
    eta=st.floats(0.001, 0.5),
    scale=st.floats(0.01, 100.0),
    rho=st.floats(0.01, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_sensitivity_within_noise_scales(seed, baseline, antipodal, eta, scale, rho):
    # Replace one row by a point on the clip sphere; after clipping, the
    # change in X^T X / n and X^T y / n stays within the sensitivities that
    # noise_scales assumes (sigma * sqrt(2 rho)), for both radius sets.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    n = int(rng.integers(d + 1, 60))
    x = scale * rng.standard_normal((n, d))
    y = scale * rng.standard_normal(n)
    if baseline:
        # trace-based radii, held fixed across the neighbours
        log_term = math.log(2.0 * n / eta)
        r_x = math.sqrt(float(np.sum(x**2)) / n + d * log_term)
        r_y = math.sqrt(float(np.mean(y**2)) + log_term)
    else:
        r_x, r_y = truncation_radius(d, n, eta), truncation_radius(1, n, eta)
    i = int(rng.integers(n))
    # antipodal replacement is the worst case for the cross moment
    u = -x[i] if antipodal else rng.standard_normal(d)
    x_nb, y_nb = x.copy(), y.copy()
    x_nb[i] = r_x * u / np.linalg.norm(u)
    y_nb[i] = r_y * (1.0 if y[i] >= 0 else -1.0)

    s, c = _clipped_moments(x, y, r_x, r_y)
    s_nb, c_nb = _clipped_moments(x_nb, y_nb, r_x, r_y)
    scales = noise_scales(r_x, r_y, n, PrivacyBudget(rho))
    # rows land on the sphere up to a few ulps, hence the 1e-12 slack
    slack = 1.0 + 1e-12
    assert np.linalg.norm(s - s_nb) <= scales.sigma1 * math.sqrt(2.0 * rho) * slack
    assert np.linalg.norm(c - c_nb) <= scales.sigma2 * math.sqrt(2.0 * rho) * slack
    # the tight replace-one bound under the paper's 2 r_x^2 / n
    assert np.linalg.norm(s - s_nb) <= math.sqrt(2.0) * r_x**2 / n * slack


class TestSampling:
    def test_symmetric_bit_exact(self, rng):
        w = sample_symmetric_gaussian(8, 1.5, rng)
        assert np.array_equal(w.entries, w.entries.T)

    def test_deterministic_replay(self):
        a = sample_symmetric_gaussian(5, 2.0, np.random.default_rng(42))
        b = sample_symmetric_gaussian(5, 2.0, np.random.default_rng(42))
        assert np.array_equal(a.entries, b.entries)
        va = sample_gaussian_vector(5, 2.0, np.random.default_rng(42))
        vb = sample_gaussian_vector(5, 2.0, np.random.default_rng(42))
        assert np.array_equal(va, vb)

    def test_entry_variance_monte_carlo(self):
        rng = np.random.default_rng(314)
        draws = np.array(
            [sample_symmetric_gaussian(2, 1.0, rng).entries[0, 1] for _ in range(10**5)]
        )
        assert 0.97 <= draws.var(ddof=1) <= 1.03

    def test_vector_variance_monte_carlo(self):
        rng = np.random.default_rng(217)
        draws = sample_gaussian_vector(10**5, 2.0, rng)
        assert 3.88 <= draws.var(ddof=1) <= 4.12

    def test_zero_sigma_is_zero(self, rng):
        assert np.array_equal(sample_gaussian_vector(4, 0.0, rng), np.zeros(4))
        assert np.array_equal(
            sample_symmetric_gaussian(4, 0.0, rng).entries, np.zeros((4, 4))
        )


class TestLedger:
    def test_empty_total(self):
        assert BudgetLedger().total == 0.0

    def test_equal_split_totals_two_rho(self):
        ledger = compose(compose(BudgetLedger(), "a", 1.0), "b", 1.0)
        assert ledger.total == 2.0
        assert len(ledger.entries) == 2

    def test_fractional_sum(self):
        ledger = compose(compose(BudgetLedger(), "a", 0.3), "b", 0.7)
        assert abs(ledger.total - 1.0) < 1e-15

    def test_append_is_pure(self):
        base = compose(BudgetLedger(), "a", 0.5)
        compose(base, "b", 0.5)
        assert base.total == 0.5

    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_order_independent_total(self, rhos):
        fwd = BudgetLedger()
        rev = BudgetLedger()
        for i, r in enumerate(rhos):
            fwd = compose(fwd, str(i), r)
        for i, r in enumerate(reversed(rhos)):
            rev = compose(rev, str(i), r)
        assert abs(fwd.total - rev.total) < 1e-15 * max(1.0, fwd.total)
