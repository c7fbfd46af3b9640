import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_calibrated,
    generate_from,
    noiseless,
    random_spd,
    recorded_spend,
)
from pmtreg.data import default_synthetic, public_moments
from pmtreg.estimators import (
    LabeledDataset,
    Method,
    PublicMoments,
    RowStatistics,
    UnstableInversionError,
    dp_olse_baseline,
    dp_pmtolse,
    olse,
)
from pmtreg.pmt import clip_rows, transform, truncation_radius
from pmtreg.privacy import (
    PrivacyBudget,
    noise_scales,
    sample_gaussian_vector,
    sample_symmetric_gaussian,
)
from pmtreg.spectra import (
    SymmetricMatrix,
    diagnostics,
    inv_sqrt_clamped,
    solve,
)

BUDGET = PrivacyBudget(2.0)


def small_public(d, sigma_b=1.0):
    return PublicMoments(
        feature_moment=SymmetricMatrix(np.eye(d)), response_moment=sigma_b, n_pub=4 * d
    )


class TestLabeledDataset:
    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError, match=r"features.*inf.*row 0, column 0"):
            LabeledDataset([[np.inf]], [np.nan])

    def test_rejects_non_finite_responses(self):
        x = np.ones((4, 2))
        x[3, 1] = 2.0
        with pytest.raises(ValueError, match=r"responses.*nan.*row 2"):
            LabeledDataset(x, [1.0, 2.0, np.nan, -np.inf])

    @pytest.mark.parametrize(
        "bad", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)], ids=repr
    )
    def test_names_bad_cell_whatever_the_sum(self, bad):
        # each makes a sum over the cells non-finite (the pair cancels to nan in a plain sum)
        x, y = np.ones((6, 2)), np.zeros(6)
        for i, value in enumerate(bad):
            x[3 + i, 1 - i] = y[3 + i] = value
        with pytest.raises(ValueError, match=rf"features.*{bad[0]} at row 3, column 1"):
            LabeledDataset(x, np.zeros(6))
        with pytest.raises(ValueError, match=rf"responses.*{bad[0]} at row 3, column 0"):
            LabeledDataset(np.ones((6, 2)), y)

    def test_finite_entries_whose_sum_overflows_accepted(self):
        x = np.array([[1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]])
        data = LabeledDataset(x, x[:, 0])
        assert np.array_equal(data.features, x) and np.array_equal(data.responses, x[:, 0])

    def test_names_first_bad_cell(self):
        x = np.zeros((3, 3))
        x[1, 2] = np.nan
        x[2, 0] = np.inf
        with pytest.raises(ValueError, match=r"features.*row 1, column 2"):
            LabeledDataset(x, np.zeros(3))

    @pytest.mark.parametrize(
        "features, responses, named",
        [
            (np.ones(3), np.ones(3), r"features must be an n x d matrix, got shape \(3,\)"),
            (np.ones((3, 2)), np.ones(2), r"responses must be a vector of length 3"),
            (np.ones((3, 2)), np.ones((3, 1)), r"responses must be a vector of length 3"),
            (np.ones((0, 2)), np.ones(0), "need n >= 1 and d >= 1"),
            (np.ones((3, 0)), np.ones(3), "need n >= 1 and d >= 1"),
        ],
    )
    def test_bad_shape_rejected(self, features, responses, named):
        with pytest.raises(ValueError, match=named):
            LabeledDataset(features, responses)

    def test_subsets_are_read_only_rows(self, rng):
        data = LabeledDataset(rng.standard_normal((8, 3)), rng.standard_normal(8))
        assert data.head(8) is data
        index = np.array([5, 0, 7])
        for subset, rows in ((data.head(3), np.arange(3)), (data.take(index), index)):
            assert np.array_equal(subset.features, data.features[rows])
            assert np.array_equal(subset.responses, data.responses[rows])
            assert (subset.n, subset.d) == (len(rows), 3)
            for values in (subset.features, subset.responses):
                assert not values.flags.writeable
                with pytest.raises(ValueError):
                    values[0] = 0.0
        assert np.shares_memory(data.head(3).features, data.features)

    @pytest.mark.parametrize("d", [1, 3, 10, 11, 50])
    def test_subsets_carry_their_own_row_norms_bit_for_bit(self, rng, d):
        spec = replace(default_synthetic(d), coefficients=np.ones(d))
        draw = generate_from(spec, 300, rng)
        real = LabeledDataset(rng.standard_normal((300, d)), rng.standard_normal(300))
        for data in (draw, real):
            held = data.stats  # formed when the cells were checked
            assert held.feature_sq_norms is not None and held.response_sq is not None
            index = rng.permutation(300)[:97]
            subsets = [data.head(1), data.head(200), data.take(index), data.take(index[:5])]
            subsets += [subsets[1].head(64), subsets[2].take(np.array([4, 0, 4]))]
            for subset in subsets:
                x, y = subset.features, subset.responses
                own = subset.stats
                assert subset.n == len(y) == len(own.feature_sq_norms) == len(own.response_sq)
                assert own.feature_sq_norms.tobytes() == np.einsum("ij,ij->i", x, x).tobytes()
                assert own.response_sq.tobytes() == np.einsum("i,i->i", y, y).tobytes()
                for values in (own.feature_sq_norms, own.response_sq):
                    assert not values.flags.writeable
                assert subset.feature_sq_norms is own.feature_sq_norms
                assert subset.response_sq is own.response_sq

    def test_rows_never_checked_form_their_norms_on_first_read(self, rng, monkeypatch):
        x = rng.standard_normal((20, 3))
        einsums = []
        real_einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a: einsums.append(a) or real_einsum(*a))
        rows = LabeledDataset(x @ np.diag([1.0, 2.0, 3.0]), np.ones(20), RowStatistics())
        assert rows.stats.feature_sq_norms is None and einsums == []
        assert np.array_equal(rows.feature_sq_norms, real_einsum("ij,ij->i", *[rows.features] * 2))
        assert rows.feature_sq_norms is rows.feature_sq_norms
        assert len(einsums) == 1

    def test_moments_formed_once_on_first_read(self, rng):
        data = LabeledDataset(rng.standard_normal((30, 3)), rng.standard_normal(30))
        x, y = data.features, data.responses
        assert data.second_moment is data.second_moment
        assert np.array_equal(data.second_moment.entries, SymmetricMatrix(x.T @ x / 30).entries)
        assert np.array_equal(data.cross_moment, x.T @ y / 30)
        assert data.spectrum is data.spectrum
        # the same bits as forming each moment where it is used
        plain = solve(diagnostics(SymmetricMatrix(x.T @ x / 30)), x.T @ y / 30)
        assert olse(data).tobytes() == plain.tobytes()


@pytest.mark.parametrize("eta", [0.0, 1.0, -0.1, math.nan])
@pytest.mark.parametrize("method", [Method.DP_PMTOLSE, Method.DP_OLSE])
def test_bad_eta_rejected_by_both_estimators(method, eta, rng):
    data = LabeledDataset(
        features=rng.standard_normal((20, 3)), responses=rng.standard_normal(20)
    )
    with pytest.raises(ValueError, match="eta"):
        if method is Method.DP_PMTOLSE:
            dp_pmtolse(data, small_public(3), eta, (BUDGET,), rng)
        else:
            dp_olse_baseline(data, eta, (BUDGET,), rng)


@pytest.mark.parametrize("method", [Method.DP_PMTOLSE, Method.DP_OLSE])
def test_too_few_private_rows_rejected_by_both_estimators(method, rng):
    data = LabeledDataset(features=rng.standard_normal((3, 3)), responses=np.ones(3))
    with pytest.raises(ValueError, match="need n > d private samples, got n=3, d=3"):
        if method is Method.DP_PMTOLSE:
            dp_pmtolse(data, small_public(3), 0.05, (BUDGET,), rng)
        else:
            dp_olse_baseline(data, 0.05, (BUDGET,), rng)


RADII = "truncation radii derived from unprivatized private moments"


def test_only_the_baseline_notes_a_caveat_and_both_book_two_rho(rng):
    spec = replace(default_synthetic(), coefficients=np.ones(10))
    public, private = generate_from(spec, 40, rng), generate_from(spec, 400, rng)
    with recorded_spend() as pmt_spend:
        pmt_out = dp_pmtolse(private, public_moments(public), 0.05, (BUDGET,), rng)
    with recorded_spend() as base_spend:
        base_out = dp_olse_baseline(private, 0.05, (BUDGET,), rng)
    assert pmt_out.notes == ()
    assert base_out.notes == (RADII,)
    for spend in (pmt_spend, base_spend):  # rho for each of the two statistics
        assert_calibrated(spend, 400, (BUDGET,))


class TestOlse:
    def test_identity_design(self):
        data = LabeledDataset(features=np.eye(2), responses=np.array([1.0, 2.0]))
        assert np.allclose(olse(data), [1.0, 2.0], atol=1e-12)

    def test_hand_solved_normal_equations(self):
        # X^T X = [[2,1],[1,2]], X^T y = (4,5) -> beta = (1,2)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        beta = olse(LabeledDataset(features=x, responses=y))
        assert np.allclose(beta, [1.0, 2.0], atol=1e-10)

    def test_interpolation(self, rng):
        x = rng.standard_normal((30, 4))
        beta = rng.standard_normal(4)
        out = olse(LabeledDataset(features=x, responses=x @ beta))
        assert np.linalg.norm(out - beta) < 1e-10

    def test_residual_contract(self, rng):
        x = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        n = 50
        beta = olse(LabeledDataset(features=x, responses=y))
        lhs = x.T @ x / n @ beta - x.T @ y / n
        assert np.linalg.norm(lhs) <= 1e-8 * np.linalg.norm(x.T @ y / n)

    def test_singular_design(self):
        x = np.ones((5, 2))  # rank 1
        with pytest.raises(UnstableInversionError):
            olse(LabeledDataset(features=x, responses=np.ones(5)))


def rebuild(diag):
    """The matrix a SpectralDiagnostics was computed from, V diag(lambda) V^T."""
    return (diag.eigenvectors * diag.eigenvalues) @ diag.eigenvectors.T


class TestDpSecondMoment:
    def test_zero_noise_outer_products(self, rng):
        # rows e1, e2, e1 + e2: the mean outer product is [[2, 1], [1, 2]] / 3
        data = LabeledDataset(
            features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), responses=np.ones(3)
        )
        out = dp_pmtolse(data, small_public(2), 0.05, (BUDGET,), rng)
        expected = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        assert np.allclose(rebuild(out.pre_diag), expected, atol=1e-12)

    def test_mechanism_additivity(self, rng):
        # replay: the same-seeded stream gives
        # beta = pre sigma_B solve(S + W, c + w) on the clipped statistics
        x = np.random.default_rng(3).standard_normal((100, 4))
        y = np.random.default_rng(4).standard_normal(100)
        moment = random_spd(rng, 4, max_cond=50.0)
        public = PublicMoments(feature_moment=moment, response_moment=1.7, n_pub=20)
        out = dp_pmtolse(
            LabeledDataset(features=x, responses=y), public, 0.05, (BUDGET,),
            np.random.default_rng(9),
        )

        pre = inv_sqrt_clamped(moment)
        r_x, r_y = truncation_radius(4, 100, 0.05), truncation_radius(1, 100, 0.05)
        a, _ = clip_rows(transform(x, pre), r_x)
        b, _ = clip_rows((y / 1.7)[:, None], r_y)
        sigma1, sigma2 = noise_scales(r_x, r_y, 100, BUDGET)
        replay = np.random.default_rng(9)
        w_mat = sample_symmetric_gaussian(4, sigma1, replay)
        w_vec = sample_gaussian_vector(4, sigma2, replay)
        noisy = SymmetricMatrix(a.T @ a / 100 + w_mat)
        beta_tilde = solve(diagnostics(noisy), a.T @ b[:, 0] / 100 + w_vec)
        assert np.array_equal(out.betas[0], 1.7 * (pre.entries @ beta_tilde))

    def test_noise_std_matches_scale(self):
        # all-zero rows: the noisy second moment is the noise matrix itself
        draws = []
        rng = np.random.default_rng(17)
        data = LabeledDataset(features=np.zeros((1000, 10)), responses=np.zeros(1000))
        public = small_public(10)
        for _ in range(300):
            out = dp_pmtolse(data, public, 0.05, (BUDGET,), rng)
            draws.extend(rebuild(out.post_diags[0])[np.triu_indices(10, k=1)])
        assert np.std(draws, ddof=1) == pytest.approx(0.11596635, rel=0.05)


class TestDpPmtolse:
    def test_affine_invariance_zero_noise(self, rng, no_noise):
        spec = replace(default_synthetic(), coefficients=rng.standard_normal(10))
        public = generate_from(spec, 60, rng)
        private = generate_from(spec, 800, rng)
        ref = olse(private)
        out = dp_pmtolse(private, public_moments(public), 0.05, (BUDGET,), rng)
        assert np.linalg.norm(out.betas[0] - ref) <= 1e-8 * np.linalg.norm(ref)
        assert out.feature_truncation.truncated == 0

    def test_scalar_walkthrough(self, no_noise):
        # d=1: A=(1,1), y=(2,2), public moment 1, sigma_B=2, no noise:
        # transformed y = (1,1), beta_tilde = 1, recovered = 2 * 1 * 1 = 2
        data = LabeledDataset(features=np.ones((2, 1)), responses=np.array([2.0, 2.0]))
        public = PublicMoments(
            feature_moment=SymmetricMatrix([[1.0]]), response_moment=2.0, n_pub=2
        )
        (beta,) = dp_pmtolse(data, public, 0.05, (BUDGET,), np.random.default_rng(0)).betas
        assert beta[0] == pytest.approx(2.0, rel=1e-12)
        assert beta[0] == pytest.approx(olse(data)[0], rel=1e-12)

    def test_deterministic_per_seed(self, rng):
        spec = replace(default_synthetic(), coefficients=np.ones(10))
        public = generate_from(spec, 50, rng)
        private = generate_from(spec, 300, rng)
        pm = public_moments(public)
        a = dp_pmtolse(private, pm, 0.05, (BUDGET,), np.random.default_rng(77))
        b = dp_pmtolse(private, pm, 0.05, (BUDGET,), np.random.default_rng(77))
        assert np.array_equal(a.betas[0], b.betas[0])
        assert a.pre_diag.eigenvalues.tolist() == b.pre_diag.eigenvalues.tolist()

    def test_budget_accounting(self, rng):
        spec = replace(default_synthetic(), coefficients=np.ones(10))
        public = generate_from(spec, 50, rng)
        private = generate_from(spec, 300, rng)
        with recorded_spend() as spend:
            dp_pmtolse(private, public_moments(public), 0.05, (PrivacyBudget(0.7),), rng)
        r_x, r_y = assert_calibrated(spend, 300, (PrivacyBudget(0.7),))
        assert (r_x, r_y) == (truncation_radius(10, 300, 0.05), truncation_radius(1, 300, 0.05))

    def test_requires_enough_public(self, rng):
        data = LabeledDataset(
            features=rng.standard_normal((20, 3)), responses=rng.standard_normal(20)
        )
        public = PublicMoments(
            feature_moment=SymmetricMatrix(np.eye(3)), response_moment=1.0, n_pub=3
        )
        with pytest.raises(ValueError):
            dp_pmtolse(data, public, 0.05, (BUDGET,), rng)

    def test_zero_public_responses_fail_as_unstable(self, rng):
        # sigma_B = 0 cannot rescale responses: the same failure as a public
        # feature moment with no positive eigenvalue, so the harness fails
        # only this method's cells
        data = LabeledDataset(
            features=rng.standard_normal((20, 3)), responses=rng.standard_normal(20)
        )
        public = replace(small_public(3), response_moment=0.0)
        with pytest.raises(UnstableInversionError, match="response_moment"):
            dp_pmtolse(data, public, 0.05, (BUDGET,), rng)

    def test_unstable_inversion_carries_diag(self, no_noise):
        # public moment clamped from a rank-deficient matrix makes the whitened
        # system wildly scaled; instead force instability via a singular design
        data = LabeledDataset(
            features=np.zeros((5, 2)) + 1e-200, responses=np.zeros(5)
        )
        public = small_public(2)
        out = dp_pmtolse(data, public, 0.05, (BUDGET,), np.random.default_rng(1))
        assert out.betas == (None,)
        lam = np.abs(out.post_diags[0].eigenvalues)  # the refused spectrum
        assert lam.min() <= 1e-12 * lam.max()


class TestDpOlseBaseline:
    def test_matches_olse_when_radii_slack(self, rng, no_noise):
        # small-scale data keeps both trace-based radii non-binding, so the
        # noiseless baseline reduces to plain least squares
        x = 0.5 * rng.standard_normal((800, 10))
        beta = 0.2 * rng.standard_normal(10)
        data = LabeledDataset(features=x, responses=x @ beta)
        ref = olse(data)
        out = dp_olse_baseline(data, 0.05, (BUDGET,), rng)
        assert out.feature_truncation.truncated == 0
        assert out.response_truncation.truncated == 0
        assert np.linalg.norm(out.betas[0] - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_sigma1_formula(self):
        # Tr = 10, d = 10, n = 1000, rho = 2, eta = 0.05, sigma_y^2 = 1
        trace, d, n, rho, eta = 10.0, 10, 1000, 2.0, 0.05
        r_x = math.sqrt(trace + d * math.log(2 * n / eta))
        r_y = math.sqrt(1.0 + math.log(2 * n / eta))
        sigma1, _ = noise_scales(r_x, r_y, n, PrivacyBudget(rho))
        assert sigma1 == pytest.approx((10.0 + 10.0 * math.log(40000.0)) / 1000.0, rel=1e-12)
        assert sigma1 == pytest.approx(0.1159663, rel=1e-4)

    def test_truncation_radii_from_raw_moments(self, rng):
        x = rng.standard_normal((100, 3)) * 5.0
        y = rng.standard_normal(100) * 3.0
        data = LabeledDataset(features=x, responses=y)
        out = dp_olse_baseline(data, 0.05, (BUDGET,), rng)
        trace = float(np.sum(x**2)) / 100.0
        radius = math.sqrt(trace + 3.0 * math.log(4000.0))
        norms = np.linalg.norm(x, axis=1)
        assert out.feature_truncation.truncated == int(np.sum(norms >= radius))
        assert out.notes  # provenance caveat recorded

    def test_budget_accounting(self, rng):
        spec = replace(default_synthetic(), coefficients=np.ones(10))
        private = generate_from(spec, 300, rng)
        with recorded_spend() as spend:
            dp_olse_baseline(private, 0.05, (PrivacyBudget(5.0),), rng)
        r_x, r_y = assert_calibrated(spend, 300, (PrivacyBudget(5.0),))
        log_term = math.log(2 * 300 / 0.05)
        trace = float(np.sum(private.features**2)) / 300
        assert r_x == pytest.approx(math.sqrt(trace + 10 * log_term), rel=1e-12)
        assert r_y == pytest.approx(
            math.sqrt(float(np.mean(private.responses**2)) + log_term), rel=1e-12
        )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_affine_invariance_property(seed):
    # random SPD preconditioner, any positive response scale, non-binding radii
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    n = int(rng.integers(d + 5, 120))
    moment = random_spd(rng, d, max_cond=1e6)
    x = rng.standard_normal((n, d)) * 0.3
    beta = rng.standard_normal(d)
    y = x @ beta + 0.01 * rng.standard_normal(n)
    from pmtreg.spectra import sqrt_sym

    x = x @ sqrt_sym(moment).entries  # transformed rows stay small
    y = x @ beta
    sigma_b = max(1.0, float(np.abs(y).max()))
    data = LabeledDataset(features=x, responses=y)
    public = PublicMoments(feature_moment=moment, response_moment=sigma_b, n_pub=n)
    try:
        ref = olse(data)
    except UnstableInversionError:
        return
    with noiseless():
        out = dp_pmtolse(data, public, 0.05, (BUDGET,), rng)
    assert out.feature_truncation.truncated == 0
    assert np.linalg.norm(out.betas[0] - ref) <= 1e-8 * max(np.linalg.norm(ref), 1e-12)


BUDGETS = (PrivacyBudget(0.5), PrivacyBudget(2.0), PrivacyBudget(10.0))


def _identity_design(d=4, copies=2):
    """Rows 2 e_j, each ``copies`` times: X^T X / n is exactly I for d = 4,
    and no row is clipped by either estimator's radii."""
    x = np.vstack([2.0 * np.eye(d)] * copies)
    return LabeledDataset(features=x, responses=np.ones(d * copies))


@pytest.mark.parametrize(
    "release",
    [
        lambda data, rng: dp_pmtolse(data, small_public(4), 0.05, BUDGETS, rng),
        lambda data, rng: dp_olse_baseline(data, 0.05, BUDGETS, rng),
    ],
    ids=["dp_pmtolse", "dp_olse_baseline"],
)
def test_singular_noisy_moment_fails_only_its_budget(release, monkeypatch):
    import pmtreg.estimators

    data = _identity_design()
    plain = release(data, np.random.default_rng(5))
    real = pmtreg.estimators.sample_symmetric_gaussian
    calls = []

    def second_draw_cancels_the_moment(d, sigma, rng):
        noise = real(d, sigma, rng)  # the stream advances as it would
        calls.append(sigma)
        return -np.eye(d) if len(calls) == 2 else noise

    monkeypatch.setattr(
        pmtreg.estimators, "sample_symmetric_gaussian", second_draw_cancels_the_moment
    )
    with recorded_spend() as spend:
        out = release(data, np.random.default_rng(5))
    first, failed, last = out.betas
    assert failed is None
    assert np.all(out.post_diags[1].eigenvalues == 0.0)  # the refused spectrum
    assert np.array_equal(first, plain.betas[0])
    assert np.array_equal(last, plain.betas[2])
    # the refused budget's noise was still drawn at its own scale: it is spent
    assert_calibrated(spend, data.n, BUDGETS)


def test_rho_independent_stage_shared_by_all_budgets(rng):
    spec = replace(default_synthetic(), coefficients=np.ones(10))
    public, private = generate_from(spec, 40, rng), generate_from(spec, 400, rng)
    for release in (
        lambda: dp_pmtolse(private, public_moments(public), 0.05, BUDGETS, rng),
        lambda: dp_olse_baseline(private, 0.05, BUDGETS, rng),
    ):
        with recorded_spend() as spend:
            out = release()
        # features and responses clipped once for all budgets, then two draws
        # per budget in the caller's order
        assert_calibrated(spend, 400, BUDGETS)
        assert len(out.betas) == len(out.post_diags) == 3
        assert len({d.eigenvalues[0] for d in out.post_diags}) == 3


def test_budgets_draw_independent_noise():
    # all-zero rows: each noisy second moment is its budget's noise matrix.
    # Scaling one draw by sigma(rho) would make them perfectly correlated,
    # and the rows together would give the exact statistic away.
    data = LabeledDataset(features=np.zeros((1000, 10)), responses=np.zeros(1000))
    out = dp_pmtolse(data, small_public(10), 0.05, BUDGETS, np.random.default_rng(3))
    upper = np.triu_indices(10)
    noise = [rebuild(diag)[upper] for diag in out.post_diags]
    for i in range(3):
        for j in range(i):
            assert abs(np.corrcoef(noise[i], noise[j])[0, 1]) < 0.5


def _olse_refusal(data):
    """The spectrum olse refuses: that of X^T X / n, whose range it names."""
    with pytest.raises(UnstableInversionError, match=r"singular: \|lambda\| range"):
        olse(data)
    x = data.features
    return diagnostics(SymmetricMatrix(x.T @ x / data.n))


def _refusal(out):
    """The one budget's refused spectrum; beta None marks the refusal."""
    (beta,), (diag,) = out.betas, out.post_diags
    assert beta is None
    return diag


def _collinear(rng, n=60):
    x = rng.standard_normal((n, 2))
    x = np.column_stack([x, x[:, 1]])  # a duplicated column
    return LabeledDataset(features=x, responses=x @ np.ones(3))


@pytest.mark.parametrize(
    "release",
    [
        lambda data, rng: _olse_refusal(data),
        lambda data, rng: _refusal(dp_pmtolse(data, small_public(3), 0.05, (BUDGET,), rng)),
        lambda data, rng: _refusal(dp_olse_baseline(data, 0.05, (BUDGET,), rng)),
    ],
    ids=["olse", "dp_pmtolse", "dp_olse_baseline"],
)
def test_singular_design_raises_the_one_failure_type(release, rng, no_noise):
    # olse raises the one failure type; a DP budget that spectra.solve
    # refuses the same way keeps its refused spectrum and has beta None
    import pmtreg
    import pmtreg.spectra

    assert UnstableInversionError is pmtreg.UnstableInversionError
    assert UnstableInversionError is pmtreg.spectra.UnstableInversionError
    lam = np.abs(release(_collinear(rng), rng).eigenvalues)
    assert lam.min() <= 1e-12 * lam.max()

