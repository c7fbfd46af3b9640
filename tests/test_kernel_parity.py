"""The per-release kernels against the plain formulas they replace, bit for bit.

``clip_rows`` screens rows by squared norm and takes exact norms only where
the clip decision could depend on them; the noise sampler
writes one draw into both triangles; ``SymmetricMatrix`` halves in place.
The references below are the plain formulas: an exact norm and a copy for
every row, a zero-filled upper triangle plus its transpose, and
``(M + M^T) / 2``.  Every output and report must equal theirs exactly, and
the sampler must leave its stream where the reference leaves it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmtreg.pmt import TruncationReport, clip_rows
from pmtreg.privacy import sample_symmetric_gaussian
from pmtreg.spectra import SymmetricMatrix

DIMS = [1, 2, 10, 11, 50]


def reference_clip_rows(samples, radius):
    samples = np.asarray(samples, dtype=np.float64)
    norms = np.linalg.norm(samples, axis=1)
    over = norms >= radius
    out = samples.copy()
    if np.any(over):
        out[over] = samples[over] * (radius / norms[over])[:, None]
    report = TruncationReport(total=samples.shape[0], truncated=int(np.count_nonzero(over)))
    return out, report


def reference_symmetric_gaussian(d, sigma, rng):
    upper = np.zeros((d, d))
    iu = np.triu_indices(d)
    upper[iu] = rng.normal(0.0, sigma, size=len(iu[0]))
    m = upper + np.triu(upper, k=1).T
    return (m + m.T) / 2.0


def same_bits(a, b):
    """Equal shape and bytes: nan rows and signed zeros included."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_clip(samples, radius):
    samples.flags.writeable = False  # a write to the input would raise
    before = samples.copy()
    out, report = clip_rows(samples, radius)
    ref_out, ref_report = reference_clip_rows(samples, radius)
    assert same_bits(out, ref_out)
    assert report == ref_report
    assert same_bits(samples, before)
    if report.truncated == 0:
        assert out is samples
    return report


SPECIAL_ROWS = {"zero": 0.0, "nan": math.nan, "overflow": 1e200, "tiny": 1e-170}


@st.composite
def clip_cases(draw):
    """Gaussian rows at a random scale, some rows replaced by a special row,
    and a radius that is a row's exact norm, one ulp either side of it, or a
    multiple of the typical norm."""
    d = draw(st.sampled_from(DIMS))
    n = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rows = np.random.default_rng(seed).standard_normal((n, d)) * scale
    if n:
        for kind in draw(st.lists(st.sampled_from(sorted(SPECIAL_ROWS)), max_size=3)):
            rows[draw(st.integers(0, n - 1))] = SPECIAL_ROWS[kind]
        # copy one row over another, scaled by 1 or by one ulp either way
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[j] = rows[i] * draw(st.sampled_from([1.0, 1.0 + 2**-52, 1.0 - 2**-53]))
    choice = draw(st.sampled_from(["at", "below", "above", "scaled"]))
    radius = scale * math.sqrt(d) * draw(st.floats(0.5, 2.0))
    if n and choice != "scaled":
        radius = float(np.linalg.norm(rows[draw(st.integers(0, n - 1))]))
        radius = {"at": radius, "below": np.nextafter(radius, 0.0),
                  "above": np.nextafter(radius, np.inf)}[choice]
        if not (radius > 0 and math.isfinite(radius)):
            radius = 1.0
    order = draw(st.sampled_from("CF"))
    return np.asarray(rows, order=order), float(radius)


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestClipRowsParity:
    @given(case=clip_cases())
    @settings(max_examples=400, deadline=None)
    # a nan row before or after a row that must clip: a screen on the
    # largest squared norm reads nan and would return the input unclipped
    @example(case=(np.array([[math.nan], [-1.32104863]]), 1.0))
    @example(case=(np.array([[0.12573022], [math.nan]]), 0.1257302210933933))
    def test_matches_reference(self, case):
        assert_same_clip(*case)

    @pytest.mark.parametrize("d", DIMS)
    def test_rows_one_ulp_around_the_radius(self, d):
        base = np.random.default_rng(d).standard_normal(d)
        radius = float(np.linalg.norm(base))
        steps = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
        rows = np.array([base * s for s in steps] + [base * 0.5, np.zeros(d)])
        for r in (np.nextafter(radius, 0.0), radius, np.nextafter(radius, np.inf)):
            assert_same_clip(rows.copy(), float(r))

    @pytest.mark.parametrize("d", DIMS)
    def test_empty_and_zero_rows(self, d):
        assert assert_same_clip(np.zeros((0, d)), 1.0).total == 0
        assert assert_same_clip(np.zeros((3, d)), 1.0).truncated == 0

    @pytest.mark.parametrize("d", DIMS)
    def test_nan_and_overflowing_rows(self, d):
        rows = np.random.default_rng(d).standard_normal((6, d))
        rows[1] = math.nan
        rows[3] = 1e200  # x^2 overflows: the exact norm is inf
        assert_same_clip(rows, 2.0)
        out, _ = clip_rows(rows, 2.0)
        assert np.isnan(out[1]).all()  # a nan norm never reaches the radius
        assert np.array_equal(out[3], np.zeros(d))  # scaled by 2 / inf
        assert_same_clip(rows, 1e160)  # radius^2 overflows too

    def test_read_only_input_is_never_written(self):
        rows = np.array([[3.0, 4.0], [0.3, 0.4]])
        rows.flags.writeable = False
        out, report = clip_rows(rows, 10.0)
        assert out is rows and report.truncated == 0
        out, report = clip_rows(rows, 1.0)
        assert report.truncated == 1
        assert out is not rows and out.flags.writeable
        assert np.array_equal(rows, [[3.0, 4.0], [0.3, 0.4]])
        assert np.array_equal(out[1], rows[1])


class TestSymmetricGaussianParity:
    @given(
        d=st.sampled_from(DIMS),
        sigma=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_and_stream(self, d, sigma, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_symmetric_gaussian(d, sigma, rng)
        assert same_bits(got, reference_symmetric_gaussian(d, sigma, ref_rng))
        # the same number of draws: the next draw agrees
        assert rng.standard_normal() == ref_rng.standard_normal()


@given(
    entries=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=9, max_size=9
    )
)
@settings(max_examples=200, deadline=None)
def test_symmetrization_matches_half_sum(entries):
    # the same bits wherever M + M^T is finite; where it overflows, a refusal
    a = np.array(entries).reshape(3, 3)
    with np.errstate(over="ignore"):
        expected = (a + a.T) / 2.0
    if not np.isfinite(expected).all():
        with pytest.raises(ValueError, match="must be finite"):
            SymmetricMatrix(a)
        return
    assert same_bits(SymmetricMatrix(a).entries, expected)
