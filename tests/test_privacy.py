import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_calibrated, recorded_spend
from pmtreg.estimators import LabeledDataset, PublicMoments, dp_olse_baseline, dp_pmtolse
from pmtreg.pmt import clip_rows, truncation_radius
from pmtreg.privacy import (
    PrivacyBudget,
    noise_scales,
    sample_gaussian_vector,
    sample_symmetric_gaussian,
    zcdp_to_dp,
)
from pmtreg.spectra import SymmetricMatrix


def pmt_scales(d, n, eta, budget):
    """Noise stds (sigma1, sigma2) at the preconditioned estimator's radii."""
    return noise_scales(truncation_radius(d, n, eta), truncation_radius(1, n, eta), n, budget)


class TestPrivacyBudget:
    def test_rho_whose_double_overflows_rejected(self):
        # sqrt(2 rho) would be inf, so noise_scales would return zero noise
        with pytest.raises(ValueError, match=r"rho must be below 2\*\*1023.*got 1e\+308"):
            PrivacyBudget(1e308)
        assert PrivacyBudget(8e307).rho == 8e307


class TestZcdpToDp:
    def test_exact_point(self):
        # rho = 1, delta = 1/e: eps = 1 + 2 sqrt(1 * 1) = 3
        eps = zcdp_to_dp(PrivacyBudget(1.0), math.exp(-1.0))
        assert eps == pytest.approx(3.0, abs=1e-12)

    def test_formula_point(self):
        eps = zcdp_to_dp(PrivacyBudget(0.5), 1e-5)
        expected = 0.5 + 2.0 * math.sqrt(0.5 * math.log(1e5))
        assert eps == pytest.approx(expected, rel=1e-14)
        assert eps == pytest.approx(5.2985259, rel=1e-6)

    def test_small_rho_limit(self):
        assert zcdp_to_dp(PrivacyBudget(1e-12), 0.1) < 1e-5

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
        base = zcdp_to_dp(PrivacyBudget(rho), delta)
        assert zcdp_to_dp(PrivacyBudget(rho * 2), delta) > base
        assert zcdp_to_dp(PrivacyBudget(rho), delta / 2) > base


class TestNoiseScales:
    def test_matrix_scale_frozen(self):
        sigma, _ = pmt_scales(10, 1000, 0.05, PrivacyBudget(2.0))
        expected = 20.0 * (1.0 + math.log(40000.0)) / 2000.0
        assert sigma == pytest.approx(expected, rel=1e-15)
        assert sigma == pytest.approx(0.1159663, rel=1e-6)

    def test_matrix_scale_hand_point(self):
        # eta = 2/e^2 makes ln(2n/eta) = 2; sqrt(2 rho) = 1
        sigma, _ = pmt_scales(1, 1, 2.0 * math.exp(-2.0), PrivacyBudget(0.5))
        assert sigma == pytest.approx(6.0, rel=1e-12)

    def test_inverse_n_scaling(self):
        b = PrivacyBudget(1.0)
        assert (
            pmt_scales(10, 2 * 10**6, 0.05, b)[0]
            / pmt_scales(10, 10**6, 0.05, b)[0]
            < 0.52  # halving up to the slowly growing log factor
        )

    def test_vector_scale_frozen(self):
        _, sigma = pmt_scales(10, 1000, 0.05, PrivacyBudget(2.0))
        expected = 2.0 * math.sqrt(10.0) * (1.0 + math.log(40000.0)) / 2000.0
        assert sigma == pytest.approx(expected, rel=1e-15)
        assert sigma == pytest.approx(0.0366718, rel=1e-5)

    def test_vector_is_matrix_over_sqrt_d(self):
        b = PrivacyBudget(3.0)
        for d in (1, 4, 9):
            sigma1, sigma2 = pmt_scales(d, 500, 0.1, b)
            ratio = sigma1 / sigma2
            assert ratio == pytest.approx(math.sqrt(d), rel=1e-14)

    def test_calibration_identity(self):
        # sigma equals (Frobenius sensitivity) / sqrt(2 rho) exactly
        d, n, eta, rho = 7, 321, 0.03, 1.7
        delta = 2.0 * d * (1.0 + math.log(2.0 * n / eta)) / n
        assert pmt_scales(d, n, eta, PrivacyBudget(rho))[0] == pytest.approx(
            delta / math.sqrt(2.0 * rho), rel=1e-15
        )

    @pytest.mark.parametrize(
        "r_x, r_y, overflows", [(1e150, 1.0, "matrix"), (1.0, 1e300, "vector")]
    )
    def test_scale_that_overflows_is_refused_naming_rho(self, r_x, r_y, overflows):
        # radii taken from the private rows can be large enough that a tiny
        # rho sends a scale to inf; the sampler would refuse it unnamed
        budget = PrivacyBudget(1e-30)
        with pytest.raises(ValueError, match=rf"rho=1e-30 .* the {overflows} noise scale"):
            noise_scales(r_x, r_y, 200, budget)
        sigma1, sigma2 = noise_scales(r_x, r_y, 200, PrivacyBudget(1e-20))
        assert math.isfinite(sigma1) and math.isfinite(sigma2)


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
    sigma1, sigma2 = noise_scales(r_x, r_y, n, PrivacyBudget(rho))
    # rows land on the sphere up to a few ulps, hence the 1e-12 slack
    slack = 1.0 + 1e-12
    assert np.linalg.norm(s - s_nb) <= sigma1 * math.sqrt(2.0 * rho) * slack
    assert np.linalg.norm(c - c_nb) <= sigma2 * math.sqrt(2.0 * rho) * slack
    # the tight replace-one bound under the paper's 2 r_x^2 / n
    assert np.linalg.norm(s - s_nb) <= math.sqrt(2.0) * r_x**2 / n * slack


class TestSampling:
    def test_symmetric_bit_exact(self, rng):
        w = sample_symmetric_gaussian(8, 1.5, rng)
        assert np.array_equal(w, w.T)

    def test_deterministic_replay(self):
        a = sample_symmetric_gaussian(5, 2.0, np.random.default_rng(42))
        b = sample_symmetric_gaussian(5, 2.0, np.random.default_rng(42))
        assert np.array_equal(a, b)
        va = sample_gaussian_vector(5, 2.0, np.random.default_rng(42))
        vb = sample_gaussian_vector(5, 2.0, np.random.default_rng(42))
        assert np.array_equal(va, vb)

    def test_entry_variance_monte_carlo(self):
        rng = np.random.default_rng(314)
        draws = np.array(
            [sample_symmetric_gaussian(2, 1.0, rng)[0, 1] for _ in range(10**5)]
        )
        assert 0.97 <= draws.var(ddof=1) <= 1.03

    def test_vector_variance_monte_carlo(self):
        rng = np.random.default_rng(217)
        draws = sample_gaussian_vector(10**5, 2.0, rng)
        assert 3.88 <= draws.var(ddof=1) <= 4.12

    def test_zero_sigma_is_zero(self, rng):
        assert np.array_equal(sample_gaussian_vector(4, 0.0, rng), np.zeros(4))
        assert np.array_equal(sample_symmetric_gaussian(4, 0.0, rng), np.zeros((4, 4)))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("sampler", [sample_gaussian_vector, sample_symmetric_gaussian])
    def test_bad_sigma_rejected(self, rng, sampler, sigma):
        message = f"sigma must be finite and nonnegative, got {sigma}"
        with pytest.raises(ValueError, match=message):
            sampler(2, sigma, rng)


def _spend(budgets):
    """What one DP call on a tiny dataset (n = 6) spends, in order."""
    data = LabeledDataset(np.vstack([np.eye(2)] * 3), np.ones(6))
    with recorded_spend() as spend:
        dp_olse_baseline(data, 0.05, tuple(budgets), np.random.default_rng(0))
    return spend


def _charged_rho(spend, n=6):
    """The rho each draw costs at its clip radii: (Delta / sigma)^2 / 2."""
    (_, r_x), (_, r_y) = spend[:2]
    delta = {"matrix": 2 * r_x * r_x / n, "vector": 2 * r_x * r_y / n}
    return [(delta[kind] / sigma) ** 2 / 2 for kind, sigma in spend[2:]]


class TestLedger:
    """Each budget's spend, read off the noise it draws."""

    def test_equal_split_totals_two_rho(self):
        spend = _spend([PrivacyBudget(1.0)])
        assert_calibrated(spend, 6, [PrivacyBudget(1.0)])
        assert _charged_rho(spend) == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_fractional_sum(self):
        budgets = [PrivacyBudget(0.15), PrivacyBudget(0.35)]
        spend = _spend(budgets)
        assert_calibrated(spend, 6, budgets)
        assert abs(math.fsum(_charged_rho(spend)) - 1.0) < 1e-15

    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_order_independent_total(self, rhos):
        budgets = [PrivacyBudget(r) for r in rhos]
        fwd, rev = _spend(budgets), _spend(reversed(budgets))
        assert_calibrated(fwd, 6, budgets)
        assert_calibrated(rev, 6, budgets[::-1])
        assert math.fsum(_charged_rho(fwd)) == math.fsum(_charged_rho(rev))


class TestEmpiricalAudit:
    """Gaussian-DP mu of each release, measured on a neighbouring pair that
    attains its sensitivity (Dong, Roth and Su, JRSS-B 2022: rho-zCDP
    Gaussian noise has mu = sqrt(2 rho)).

    Each dataset is 49 zero rows and one last row, released 4,000 times by
    dp_pmtolse with an identity public moment and sigma_B = 1, at d=2, n=50,
    eta=0.05 and rho=1.  The test statistic is the projection onto the
    difference of the pair's noiseless statistics; mu is the difference of
    its means over its pooled standard deviation, whose error is about
    sqrt(2/N) for N releases per dataset.
    """

    D, N, ETA, RHO, CALLS, COPIES = 2, 50, 0.05, 1.0, 20, 200

    def _projections(self, last_x, last_y, project, seed):
        x, y = np.zeros((self.N, self.D)), np.zeros(self.N)
        x[-1], y[-1] = last_x, last_y
        data = LabeledDataset(x, y)
        public = PublicMoments(SymmetricMatrix(np.eye(self.D)), 1.0, 4 * self.D)
        budgets = (PrivacyBudget(self.RHO),) * self.COPIES
        rng = np.random.default_rng(seed)
        values = []
        for _ in range(self.CALLS):
            out = dp_pmtolse(data, public, self.ETA, budgets, rng)
            for beta, diag in zip(out.betas, out.post_diags):
                # the noisy matrix is V diag(lambda) V^T; the noisy vector
                # is that matrix times the solved beta
                matrix = (diag.eigenvectors * diag.eigenvalues) @ diag.eigenvectors.T
                values.append(project(matrix, matrix @ beta))
        return np.array(values)

    def _mu(self, a, b):
        pooled = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / 2.0)
        return abs(a.mean() - b.mean()) / pooled

    def _tolerance(self):
        return 5.0 * math.sqrt(2.0 / (self.CALLS * self.COPIES))

    def test_vector_release_mu_is_sqrt_2rho(self):
        # one row against its response's negation: the cross moment moves by
        # its full sensitivity 2 r_x r_y / n, which the noise is scaled to
        r_x = truncation_radius(self.D, self.N, self.ETA)
        r_y = truncation_radius(1, self.N, self.ETA)
        row = 10.0 * r_x * np.eye(self.D)[0]  # clipped back to r_x e_1

        def first_coordinate(matrix, vector):
            return vector[0]

        plus = self._projections(row, 10.0 * r_y, first_coordinate, seed=1)
        minus = self._projections(row, -10.0 * r_y, first_coordinate, seed=2)
        mu = self._mu(plus, minus)
        assert abs(mu - math.sqrt(2.0 * self.RHO)) <= self._tolerance(), mu

    def test_matrix_release_mu_is_sqrt_rho(self):
        # r_x e_1 against r_x e_2 moves the second moment by sqrt(2) r_x^2 / n
        # in Frobenius norm; the noise is scaled to the paper's 2 r_x^2 / n, so
        # the matrix release measures mu = sqrt(rho), not sqrt(2 rho)
        r_x = truncation_radius(self.D, self.N, self.ETA)
        e1, e2 = 10.0 * r_x * np.eye(self.D)

        def diagonal_difference(matrix, vector):
            return (matrix[0, 0] - matrix[1, 1]) / math.sqrt(2.0)

        first = self._projections(e1, 0.0, diagonal_difference, seed=3)
        second = self._projections(e2, 0.0, diagonal_difference, seed=4)
        mu = self._mu(first, second)
        assert abs(mu - math.sqrt(self.RHO)) <= self._tolerance(), mu
