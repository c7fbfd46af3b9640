import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from pmtreg.data import default_synthetic, generate, normals_shape, public_moments
from pmtreg.estimators import LabeledDataset, olse
from pmtreg.spectra import (
    SymmetricMatrix,
    UnstableInversionError,
    diagnostics,
    eig_sym,
    inv_sqrt_clamped,
    shifted_diagnostics,
    solve,
    sqrt_sym,
    theory_bracket,
)


def rel_frob(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def inverse(m):
    """M^-1 through the production solver."""
    return solve(diagnostics(m), np.eye(m.dim))


class TestSymmetricMatrix:
    def test_symmetrized_bit_exact(self, rng):
        a = rng.standard_normal((5, 5))
        m = SymmetricMatrix(a)
        assert np.array_equal(m.entries, m.entries.T)
        assert np.allclose(m.entries, (a + a.T) / 2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymmetricMatrix([[1.0, np.nan], [np.nan, 1.0]])

    @pytest.mark.parametrize("entries", [np.full((2, 2), 1e308), [[1.0, -1e308], [-1e308, 1.0]]])
    def test_rejects_entries_whose_sum_overflows(self, entries):
        # finite entries, but M + M^T overflows: it would hold inf
        with pytest.raises(ValueError, match="must be finite"):
            SymmetricMatrix(entries)
        assert SymmetricMatrix(np.full((2, 2), 8e307)).entries[0, 0] == 8e307

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_immutable(self):
        m = SymmetricMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestEigSym:
    def test_identity(self):
        lam, vec = eig_sym(SymmetricMatrix(np.eye(3)))
        assert np.allclose(lam, 1.0)
        assert np.allclose(vec.T @ vec, np.eye(3), atol=1e-10)

    def test_diagonal(self):
        lam, _ = eig_sym(SymmetricMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(lam, [4.0, 9.0])

    def test_two_by_two_hand_solved(self):
        # char poly of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l = 1, 3
        lam, _ = eig_sym(SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(lam, [1.0, 3.0], atol=1e-12)

    def test_reconstruction(self, rng):
        m = random_spd(rng, 6)
        lam, vec = eig_sym(m)
        assert rel_frob((vec * lam) @ vec.T, m.entries) < 1e-10
        assert np.linalg.norm(vec.T @ vec - np.eye(6)) < 1e-10


class TestStackedSpectra:
    """The DP release takes the eigenvalues of its pre-noise moment and every
    budget's noisy moment from one stacked call; its outputs are the same
    bits as one call per matrix only because numpy runs LAPACK on each matrix
    of a stack alone.  A BLAS or numpy for which that fails shows here
    first."""

    @staticmethod
    def _mats(d):
        rng = np.random.default_rng(d)
        mats = [random_spd(rng, d, max_cond=1e8).entries for _ in range(3)]
        mats.append(SymmetricMatrix(rng.standard_normal((d, d))).entries)  # indefinite
        return mats

    @pytest.mark.parametrize("d", [1, 10, 11, 50])
    def test_stack_matches_one_call_per_matrix_bit_for_bit(self, d):
        mats = self._mats(d)
        lam, vec = eig_sym(np.stack(mats))
        for k, m in enumerate(mats):
            one_lam, one_vec = eig_sym(SymmetricMatrix(m))
            assert lam[k].tobytes() == one_lam.tobytes()
            assert vec[k].tobytes() == one_vec.tobytes()

    @pytest.mark.parametrize("d", [1, 10, 11, 50])
    def test_eigenvalues_only_stack_matches_one_call_per_matrix_bit_for_bit(self, d):
        mats = self._mats(d)
        lam = eig_sym(np.stack(mats), vectors=False)
        assert lam.shape == (len(mats), d)
        for k, m in enumerate(mats):
            assert lam[k].tobytes() == eig_sym(SymmetricMatrix(m), vectors=False).tobytes()
            assert lam[k].tobytes() == np.linalg.eigvalsh(m).tobytes()

    def test_shifted_spectra_match_symmetrized_sums(self, rng):
        from pmtreg.privacy import sample_symmetric_gaussian

        m = random_spd(rng, 6)
        shifts = [sample_symmetric_gaussian(6, 0.1, rng) for _ in range(3)]
        got = shifted_diagnostics(m, shifts)
        want = [m] + [SymmetricMatrix(m.entries + s) for s in shifts]
        assert len(got) == len(want)
        for g, w in zip(got, map(diagnostics, want)):
            assert g.eigenvalues.tobytes() == w.eigenvalues.tobytes()
            assert g.matrix.tobytes() == w.matrix.tobytes()

    @pytest.mark.parametrize("shift", [1e307, 1e308])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_refuses_a_sum_whose_double_overflows(self, shift):
        # 8e307 + 1e307 is finite but twice it is not; 8e307 + 1e308 is inf
        m = SymmetricMatrix(np.full((2, 2), 8e307))
        with pytest.raises(ValueError, match=r"must be finite, and so must M \+ M\^T"):
            shifted_diagnostics(m, [np.full((2, 2), shift)])
        with pytest.raises(ValueError, match=r"must be finite, and so must M \+ M\^T"):
            SymmetricMatrix(m.entries + np.full((2, 2), shift))


class TestInvSqrt:
    def test_identity(self):
        out = inv_sqrt_clamped(SymmetricMatrix(np.eye(4)))
        assert np.allclose(out.entries, np.eye(4), atol=1e-12)

    def test_diagonal_analytic(self):
        out = inv_sqrt_clamped(SymmetricMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(out.entries, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_whitening_identity(self):
        m = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
        r = inv_sqrt_clamped(m)
        assert np.linalg.norm(r.entries @ m.entries @ r.entries - np.eye(2)) < 1e-8

    def test_clamp_count(self):
        # 1e-15 is clamped up to 1e-10 * lambda_max, so its root reads 1e5
        out = inv_sqrt_clamped(SymmetricMatrix(np.diag([1.0, 1e-15])))
        assert np.allclose(out.entries, np.diag([1.0, 1e5]), rtol=1e-12, atol=0.0)

    def test_all_nonpositive_rejected(self):
        with pytest.raises(UnstableInversionError):
            inv_sqrt_clamped(SymmetricMatrix(np.diag([-1.0, -2.0])))


class TestSqrtSym:
    def test_diagonal(self):
        out = sqrt_sym(SymmetricMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(out.entries, np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        out = sqrt_sym(SymmetricMatrix(np.eye(5)))
        assert np.allclose(out.entries, np.eye(5), atol=1e-12)

    def test_squares_back(self):
        m = SymmetricMatrix([[5.0, 4.0], [4.0, 5.0]])
        r = sqrt_sym(m)
        assert rel_frob(r.entries @ r.entries, m.entries) < 1e-8

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            sqrt_sym(SymmetricMatrix(np.diag([1.0, -0.5])))


class TestDiagnostics:
    def test_diag_4_1(self):
        d = diagnostics(SymmetricMatrix(np.diag([4.0, 1.0]))).as_dict()
        assert d["cond"] == pytest.approx(4.0)
        assert d["trace"] == pytest.approx(5.0)
        assert d["avg_trace"] == pytest.approx(2.5)
        # avg_cond = (4/1 + 1/1) / 2
        assert d["avg_cond"] == pytest.approx(2.5)

    def test_identity(self):
        d = diagnostics(SymmetricMatrix(np.eye(10))).as_dict()
        assert d["cond"] == pytest.approx(1.0)
        assert d["avg_cond"] == pytest.approx(1.0)
        assert d["trace"] == pytest.approx(10.0)

    def test_singular_sentinel(self):
        d = diagnostics(SymmetricMatrix(np.diag([1.0, 0.0]))).as_dict()
        assert d["cond"] == np.inf
        assert d["avg_cond"] == np.inf

    def test_trace_matches_eigensum(self, rng):
        m = random_spd(rng, 8)
        d = diagnostics(m).as_dict()
        assert abs(d["trace"] - np.sum(d["eigenvalues"])) < 1e-10 * abs(d["trace"])
        assert 1.0 <= d["avg_cond"] <= d["cond"]

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=30, deadline=None)
    def test_scale_covariance(self, scale):
        rng = np.random.default_rng(11)
        m = random_spd(rng, 5, max_cond=1e4)
        base = diagnostics(m).as_dict()
        scaled = diagnostics(SymmetricMatrix(scale * m.entries)).as_dict()
        assert scaled["trace"] == pytest.approx(scale * base["trace"], rel=1e-12)
        assert scaled["cond"] == pytest.approx(base["cond"], rel=1e-9)
        assert scaled["avg_cond"] == pytest.approx(base["avg_cond"], rel=1e-9)


class TestTheoryBracket:
    def test_frozen_value(self):
        # independent evaluation of n/( sqrt(n) + sqrt(d) + sqrt(2 ln(1/eta)) )^2
        lower, _ = theory_bracket(10, 10000, 0.05)
        denom = (100.0 + math.sqrt(10.0) + math.sqrt(2.0 * math.log(20.0))) ** 2
        assert lower == pytest.approx(10000.0 / denom, rel=1e-14)
        assert lower == pytest.approx(0.8965814, rel=1e-6)

    def test_infinite_upper_sentinel(self):
        # sqrt(11) - sqrt(10) - sqrt(2 ln 20) < 0
        _, upper = theory_bracket(10, 11, 0.05)
        assert upper == np.inf

    def test_bracket_and_limits(self):
        prev_l = 0.0
        for n in [100, 1000, 10000, 100000, 1000000]:
            lower, upper = theory_bracket(10, n, 0.05)
            assert lower < 1.0
            if np.isfinite(upper):
                assert upper > 1.0
            assert lower > prev_l  # monotone in n_pub
            prev_l = lower
        lower, upper = theory_bracket(10, 10**8, 0.05)
        assert lower > 0.998
        assert upper < 1.0012

    def test_insufficient_public_data(self):
        with pytest.raises(ValueError, match="n_pub > d"):
            theory_bracket(10, 10, 0.05)

    @pytest.mark.parametrize("n_pub", [20, 40, 100, 400])
    def test_whitened_population_spectrum_lies_in_the_bracket(self, n_pub):
        # the paper's claim: with probability at least 1 - eta over the public
        # draw, P Sigma P has every eigenvalue in [L, U], where P is the public
        # second moment's inverse square root and Sigma the population's
        eta, draws = 0.05, 300
        spec = replace(default_synthetic(), coefficients=np.zeros(10))
        population = spec.second_moment().entries
        lower, upper = theory_bracket(spec.d, n_pub, eta)
        rng = np.random.default_rng([29, n_pub])
        outside = 0
        for _ in range(draws):
            public = generate(spec, n_pub, rng.standard_normal(normals_shape(spec.d, n_pub)))
            p = inv_sqrt_clamped(public_moments(public).feature_moment).entries
            lam = np.linalg.eigvalsh(p @ population @ p)
            outside += not (lower <= lam[0] and lam[-1] <= upper)
        assert outside <= eta * draws, (outside, lower, upper)


class TestStableInverse:
    def test_identity(self):
        out = inverse(SymmetricMatrix(np.eye(3)))
        assert np.allclose(out, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        out = inverse(SymmetricMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(out, np.diag([0.25, 1.0 / 9.0]), atol=1e-14)

    def test_two_by_two_hand_inverse(self):
        out = inverse(SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_indefinite_vector_rhs(self):
        # the noisy DP second moment need not be PSD: eigenvalues 3 and -1
        m = SymmetricMatrix([[1.0, 2.0], [2.0, 1.0]])
        assert np.allclose(solve(diagnostics(m), np.array([3.0, -1.0])), [-5.0 / 3, 7.0 / 3])

    def test_singular_error_carries_spectrum(self):
        # olse solves through the guard: X^T X / n = diag(1, 1e-14) is refused
        x = math.sqrt(2.0) * np.diag([1.0, 1e-7])
        # the message carries the refused |lambda| range
        with pytest.raises(UnstableInversionError, match=r"\[1\.000e-14, 1\.000e\+00\]"):
            olse(LabeledDataset(features=x, responses=np.ones(2)))


def _spectral(rng, d, kappa, definite):
    """Q diag(lam) Q^T for a random orthogonal Q, |lam| log-spaced from 1 to
    kappa; ``definite`` False alternates the signs of lam."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.geomspace(1.0, kappa, d)
    if not definite:
        lam[::2] *= -1.0
    return SymmetricMatrix((q * lam) @ q.T)


class TestLuSolve:
    """``solve`` factors the matrix by LU past the eigenvalue guard, where it
    once applied the eigenpair formula (V / lambda) (V^T b).  Both are
    backward stable, so they may differ by a modest multiple of cond * eps,
    and the guard, read from eigenvalues alone, refuses what it refused."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("definite", [True, False], ids=["definite", "indefinite"])
    @pytest.mark.parametrize("kappa", [1e2, 1e6, 1e10])
    @pytest.mark.parametrize("d", [2, 11, 50])
    def test_matches_the_eigenpair_formula_within_cond_eps(self, d, kappa, definite):
        rng = np.random.default_rng([d, int(math.log10(kappa)), definite])
        for _ in range(5):
            m = _spectral(rng, d, kappa, definite)
            b = rng.standard_normal(d)
            lam, vec = np.linalg.eigh(m.entries)
            want = (vec / lam) @ (vec.T @ b)
            got = solve(diagnostics(m), b)
            cond = np.abs(lam).max() / np.abs(lam).min()
            bound = 10.0 * d * cond * self.EPS
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    @pytest.mark.parametrize("small", [1e-12, -1e-12, 0.0])
    def test_guard_refuses_at_the_boundary(self, small):
        # smallest |lambda| exactly 1e-12 of the largest is refused, as before
        with pytest.raises(UnstableInversionError, match="numerically singular"):
            solve(diagnostics(SymmetricMatrix(np.diag([1.0, small]))), np.ones(2))

    def test_guard_passes_just_above_the_boundary(self):
        small = np.nextafter(1e-12, 1.0)
        x = solve(diagnostics(SymmetricMatrix(np.diag([1.0, small]))), np.ones(2))
        assert x.tolist() == [1.0, 1.0 / small]

    @pytest.mark.parametrize("definite", [True, False], ids=["definite", "indefinite"])
    @pytest.mark.parametrize("ratio", [5e-13, 2e-12])
    def test_guard_refuses_what_the_eigenpair_guard_refused(self, ratio, definite):
        # rotated spectra a factor 2 either side of the boundary: the guard on
        # eigvalsh's values refuses exactly where the one on eigh's did
        rng = np.random.default_rng([35, definite])
        for _ in range(10):
            m = _spectral(rng, 6, 1.0 / ratio, definite)
            old = np.abs(np.linalg.eigh(m.entries)[0])
            refused_before = old.min() <= 1e-12 * old.max()
            assert refused_before == (ratio < 1e-12)
            try:
                solve(diagnostics(m), np.ones(6))
            except UnstableInversionError:
                refused = True
            else:
                refused = False
            assert refused == refused_before

    def test_exactly_zero_pivot_is_an_unstable_inversion(self, monkeypatch):
        # past the guard LU meets an exactly zero pivot only on a matrix the
        # guard nearly refused; it is refused the same way, not as LinAlgError
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(UnstableInversionError, match="Singular matrix"):
            solve(diagnostics(SymmetricMatrix(np.eye(2))), np.ones(2))


@given(d=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_round_trip_properties(d, seed):
    rng = np.random.default_rng(seed)
    m = random_spd(rng, d)
    root = sqrt_sym(m)
    assert rel_frob(root.entries @ root.entries, m.entries) < 1e-8
    w = inv_sqrt_clamped(m)
    assert np.linalg.norm(w.entries @ m.entries @ w.entries - np.eye(d)) / np.sqrt(d) < 1e-8
    # inverse square root equals inverse of the square root
    alt = inverse(root)
    assert rel_frob(w.entries, alt) < 1e-8
