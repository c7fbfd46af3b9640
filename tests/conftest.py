from contextlib import contextmanager

import numpy as np
import pytest

import pmtreg.estimators
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


@contextmanager
def noiseless():
    """Both DP estimators add zero noise and draw nothing from their rng, so
    each release solves its clipped statistics exactly.  The ledger still
    books rho: this is a test double, never a private release."""
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
