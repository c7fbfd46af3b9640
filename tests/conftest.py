from contextlib import contextmanager
from functools import cached_property

import numpy as np
import pytest

import pmtreg.estimators
import pmtreg.pmt
from pmtreg.data import generate, normals_shape
from pmtreg.privacy import noise_scales
from pmtreg.spectra import SymmetricMatrix


def random_spd(rng: np.random.Generator, d: int, max_cond: float = 1e6) -> SymmetricMatrix:
    """Random SPD matrix with condition number at most max_cond."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    log_cond = rng.uniform(0.0, np.log(max_cond))
    lam = np.exp(np.linspace(0.0, log_cond, d))
    lam *= np.exp(rng.uniform(-1.0, 1.0))
    return SymmetricMatrix((q * lam) @ q.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def generate_from(spec, n: int, rng):
    """``generate``'s n rows, their normals drawn in one ``standard_normal``
    call from ``rng``: a Generator, or anything ``np.random.default_rng``
    accepts, such as a stream key."""
    normals = np.random.default_rng(rng).standard_normal(normals_shape(spec.d, n))
    return generate(spec, n, normals)


@contextmanager
def noiseless():
    """Both DP estimators add zero noise and draw nothing from their rng, so
    each release solves its clipped statistics exactly.  noise_scales still
    charges rho: this is a test double, never a private release."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            pmtreg.estimators, "sample_symmetric_gaussian",
            lambda d, sigma, rng: np.zeros((d, d)),
        )
        mp.setattr(
            pmtreg.estimators, "sample_gaussian_vector", lambda d, sigma, rng: np.zeros(d)
        )
        yield


@pytest.fixture
def no_noise():
    """The noiseless mechanism for one test; see :func:`noiseless`."""
    with noiseless():
        yield


@contextmanager
def recorded_spend():
    """Record, in call order, what the DP estimators spend: each row clip as
    ("clip", radius) and each noise draw as ("matrix", sigma) or
    ("vector", sigma).  The clips and draws themselves are unchanged."""
    spend = []

    def recorded(kind, real):
        def call(first, scale, *rest):
            spend.append((kind, scale))
            return real(first, scale, *rest)

        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pmtreg.pmt, "clip_rows", recorded("clip", pmtreg.pmt.clip_rows))
        for kind, name in (
            ("matrix", "sample_symmetric_gaussian"), ("vector", "sample_gaussian_vector")
        ):
            mp.setattr(pmtreg.estimators, name, recorded(kind, getattr(pmtreg.estimators, name)))
        yield spend


def assert_calibrated(spend, n, budgets):
    """``spend`` is one DP call on n rows: a feature clip to r_x and a
    response clip to r_y, then for each budget in order one matrix draw at
    sigma_1 and one vector draw at sigma_2, as noise_scales(r_x, r_y, n, budget)
    gives them.  Returns (r_x, r_y)."""
    (clip_x, r_x), (clip_y, r_y) = spend[:2]
    assert clip_x == clip_y == "clip"
    draws = []
    for budget in budgets:
        sigma1, sigma2 = noise_scales(r_x, r_y, n, budget)
        draws += [("matrix", sigma1), ("vector", sigma2)]
    assert spend[2:] == draws
    return r_x, r_y


def formed_grams(monkeypatch) -> list:
    """The datasets that form X^T X from their rows, in order, as they do it;
    a dataset whose statistics hold X^T X reads it and is not listed."""
    LabeledDataset = pmtreg.estimators.LabeledDataset
    formed = []
    real = LabeledDataset.gram.func

    def gram(rows):
        if rows.stats.gram is None:
            formed.append(rows)
        return real(rows)

    counted = cached_property(gram)
    counted.__set_name__(LabeledDataset, "gram")
    monkeypatch.setattr(LabeledDataset, "gram", counted)
    return formed
