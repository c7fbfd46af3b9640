"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output on failure) so the whole
gate can be audited at a glance.  Criterion 7 needs the UCI white-wine CSV
on disk; it is skipped with an explicit reason when the file is absent.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import generate_from, recorded_spend
from pmtreg.cli import EXIT_OK, main
from pmtreg.data import (
    default_synthetic,
    ingest_csv,
    normalize,
    public_moments,
    split,
)
from pmtreg.estimators import (
    LabeledDataset,
    Method,
    PublicMoments,
    dp_olse_baseline,
    dp_pmtolse,
    olse,
)
from pmtreg.harness import (
    ExperimentGrid,
    Reference,
    run_grid,
)
from pmtreg.pmt import truncation_radius
from pmtreg.privacy import (
    PrivacyBudget,
    noise_scales,
    sample_symmetric_gaussian,
    zcdp_to_dp,
)
from pmtreg.spectra import (
    SymmetricMatrix,
    UnstableInversionError,
    diagnostics,
    inv_sqrt_clamped,
    solve,
    sqrt_sym,
)

WINE_PATH = os.environ.get("PMTREG_WINE_CSV", "data/winequality-white.csv")


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}".rstrip(": "))
    assert ok, f"{name} failed: {detail}"


def _random_spd(rng, d, max_cond):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    log_cond = rng.uniform(0.0, math.log(max_cond))
    eig = np.exp(np.linspace(0.0, log_cond, d)) * rng.uniform(0.1, 10.0)
    return SymmetricMatrix(q @ np.diag(eig) @ q.T)


def test_criterion_1_affine_invariance(no_noise):
    """Noiseless estimator matches plain least squares for any SPD
    preconditioner and positive response scale, when no row is clipped."""
    start = time.monotonic()
    rng = np.random.default_rng(20260826)
    budget = PrivacyBudget(2.0)
    worst = 0.0
    checked = 0
    while checked < 200:
        d = int(rng.integers(1, 21))
        n = int(rng.integers(max(2 * d, 8), 501))
        moment = _random_spd(rng, d, max_cond=1e6)
        # rows drawn small in the whitened geometry keep the radii slack
        z = 0.3 * rng.standard_normal((n, d))
        x = z @ sqrt_sym(moment).entries
        beta = rng.standard_normal(d)
        y = x @ beta
        sigma_b = max(1.0, float(np.abs(y).max()))
        data = LabeledDataset(features=x, responses=y)
        public = PublicMoments(
            feature_moment=moment, response_moment=sigma_b, n_pub=max(n, d + 1)
        )
        try:
            ref = olse(data)
        except UnstableInversionError:
            continue
        out = dp_pmtolse(data, public, 0.05, (budget,), rng)
        assert out.feature_truncation.truncated == 0
        rel = float(
            np.linalg.norm(out.betas[0] - ref) / max(np.linalg.norm(ref), 1e-300)
        )
        worst = max(worst, rel)
        checked += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (affine invariance)",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst relative gap {worst:.3e} over 200 instances in {elapsed:.1f}s",
    )


def test_criterion_2_noise_calibration():
    """Sampled second-moment noise has the advertised scale, and the matrix
    is exactly symmetric."""
    start = time.monotonic()
    r_x, r_y = truncation_radius(10, 1000, 0.05), truncation_radius(1, 1000, 0.05)
    sigma, _ = noise_scales(r_x, r_y, 1000, PrivacyBudget(2.0))
    rng = np.random.default_rng(7)
    entries = []
    draws = 0
    while len(entries) < 10**5:
        m = sample_symmetric_gaussian(10, sigma, rng)
        assert np.array_equal(m, m.T)
        entries.extend(m[np.triu_indices(10)])
        draws += 1
    std = float(np.std(entries[: 10**5], ddof=1))
    elapsed = time.monotonic() - start
    ok = 0.97 * 0.11597 <= std <= 1.03 * 0.11597 and elapsed < 30.0
    _report(
        "criterion 2 (noise calibration)",
        ok,
        f"sample std {std:.5f} vs target 0.11597 (±3%), {elapsed:.1f}s",
    )


def test_criterion_3_budget_accounting():
    rng = np.random.default_rng(1)
    spec = replace(default_synthetic(), coefficients=np.ones(10))
    public = generate_from(spec, 50, rng)
    private = generate_from(spec, 400, rng)
    rho, n = 1.25, private.n
    spends = []
    for release in (
        lambda: dp_pmtolse(private, public_moments(public), 0.05, (PrivacyBudget(rho),), rng),
        lambda: dp_olse_baseline(private, 0.05, (PrivacyBudget(rho),), rng),
    ):
        with recorded_spend() as spend:
            release()
        spends.append(spend)

    def two_draws_at_rho(spend):
        """Both clips, then one matrix and one vector draw, each at rho."""
        if [kind for kind, _ in spend] != ["clip", "clip", "matrix", "vector"]:
            return False
        (_, r_x), (_, r_y), (_, sigma1), (_, sigma2) = spend
        scale = n * math.sqrt(2 * rho)
        return math.isclose(sigma1 * scale, 2 * r_x * r_x, rel_tol=1e-12) and math.isclose(
            sigma2 * scale, 2 * r_x * r_y, rel_tol=1e-12
        )

    eps = zcdp_to_dp(PrivacyBudget(1.0), math.exp(-1.0))
    ok = all(two_draws_at_rho(spend) for spend in spends) and eps == 3.0
    _report(
        "criterion 3 (budget accounting)",
        ok,
        f"draws {[[kind for kind, _ in spend] for spend in spends]} "
        f"(expect two clips, one matrix and one vector draw at rho={rho} each), "
        f"epsilon at rho=1, delta=e^-1 is {eps} (expect 3.0 exactly)",
    )


def test_criterion_4_no_truncation():
    start = time.monotonic()
    spec = default_synthetic()
    eta = 0.05
    fracs = []
    zero_count = 0
    for trial in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([4, trial]))
        trial_spec = replace(spec, coefficients=rng.standard_normal(10))
        public = generate_from(trial_spec, 40, rng)
        private = generate_from(trial_spec, 2000, rng)
        out = dp_pmtolse(private, public_moments(public), eta, (PrivacyBudget(2.0),), rng)
        report = out.feature_truncation
        fracs.append(report.truncated / report.total)
        zero_count += report.truncated == 0
    mean_frac = float(np.mean(fracs))
    share_zero = zero_count / 200.0
    elapsed = time.monotonic() - start
    ok = mean_frac <= eta and share_zero >= 0.95 and elapsed < 120.0
    _report(
        "criterion 4 (no truncation w.h.p.)",
        ok,
        f"mean truncated fraction {mean_frac:.4f} (<= {eta}), "
        f"zero-truncation share {share_zero:.2f} (>= 0.95), {elapsed:.1f}s",
    )


def test_criterion_5_conditioning_improvement():
    spec = default_synthetic()
    raw_cond = diagnostics(spec.second_moment()).avg_cond
    assert raw_cond >= 10.0
    medians = {}
    for n_pub in (40, 135):
        conds = []
        for trial in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([5, n_pub, trial]))
            trial_spec = replace(spec, coefficients=np.zeros(10))
            public = generate_from(trial_spec, n_pub, rng)
            private = generate_from(trial_spec, 2000, rng)
            out = dp_pmtolse(
                private, public_moments(public), 0.05, (PrivacyBudget(2.0),), rng
            )
            conds.append(out.pre_diag.avg_cond)
        medians[n_pub] = float(np.median(conds))
    ok = medians[40] <= 3.5 and medians[135] <= 2.5
    _report(
        "criterion 5 (conditioning improvement)",
        ok,
        f"raw avg_cond {raw_cond:.1f}; transformed medians "
        f"{medians[40]:.2f} @ n_pub=40 (<= 3.5), {medians[135]:.2f} @ n_pub=135 (<= 2.5)",
    )


def test_criterion_6_headline_ordering():
    start = time.monotonic()
    grid = ExperimentGrid(
        methods=(Method.DP_OLSE, Method.DP_PMTOLSE),
        rho_values=(2.0, 10.0),
        n_priv_values=(3000, 5000, 10000),
        n_pub_values=(20,),
        eta=0.05,
        trials=100,
        seed=6,
        reference=Reference.TRUE_BETA,
    )
    results = run_grid(grid, default_synthetic())
    table = {
        (r.method, r.rho, r.n_priv): r.mean_err for r in results
    }
    per_cell = all(
        table[(Method.DP_PMTOLSE, rho, n)] < table[(Method.DP_OLSE, rho, n)]
        for rho in (2.0, 10.0)
        for n in (3000, 5000, 10000)
    )
    cross_budget = (
        table[(Method.DP_PMTOLSE, 2.0, 10000)] < table[(Method.DP_OLSE, 10.0, 10000)]
    )
    elapsed = time.monotonic() - start
    ok = per_cell and cross_budget and elapsed < 600.0
    detail = ", ".join(
        f"rho={rho:g} n={n}: {table[(Method.DP_PMTOLSE, rho, n)]:.3f} vs "
        f"{table[(Method.DP_OLSE, rho, n)]:.3f}"
        for rho in (2.0, 10.0)
        for n in (3000, 5000, 10000)
    )
    _report(
        "criterion 6 (headline ordering)",
        ok,
        f"{detail}; cross-budget {table[(Method.DP_PMTOLSE, 2.0, 10000)]:.3f} < "
        f"{table[(Method.DP_OLSE, 10.0, 10000)]:.3f}; {elapsed:.0f}s",
    )


@pytest.mark.skipif(
    not os.path.exists(WINE_PATH),
    reason=(
        f"white-wine CSV not found at {WINE_PATH!r} (set PMTREG_WINE_CSV); "
        "the file is an input, not something this package downloads"
    ),
)
def test_criterion_7_wine_regime():
    start = time.monotonic()
    raw = ingest_csv(WINE_PATH)
    dataset = normalize(raw)
    n_pub, n_priv = 249, 4649

    # raw (normalized) private second moment must be badly conditioned
    _, private_probe = split(dataset, n_pub, n_priv, 0)
    x = private_probe.features
    raw_cond = diagnostics(SymmetricMatrix(x.T @ x / n_priv)).avg_cond

    # transformed conditioning on the same probe split
    pm = public_moments(
        split(dataset, n_pub, n_priv, 0)[0]
    )
    transformed_cond = dp_pmtolse(
        private_probe, pm, 0.05, (PrivacyBudget(5.0),), np.random.default_rng(0)
    ).pre_diag.avg_cond

    from pmtreg.harness import DatasetSource

    grid = ExperimentGrid(
        methods=(Method.DP_OLSE, Method.DP_PMTOLSE),
        rho_values=(5.0, 500.0),
        n_priv_values=(n_priv,),
        n_pub_values=(n_pub,),
        eta=0.05,
        trials=100,
        seed=7,
        reference=Reference.NONPRIVATE_OLSE,
    )
    results = run_grid(grid, DatasetSource(dataset))
    table = {(r.method, r.rho): r.mean_err for r in results}
    elapsed = time.monotonic() - start
    ok = (
        raw_cond >= 30.0
        and transformed_cond <= 5.0
        and table[(Method.DP_PMTOLSE, 5.0)] < table[(Method.DP_OLSE, 500.0)]
        and elapsed < 600.0
    )
    _report(
        "criterion 7 (wine regime)",
        ok,
        f"raw avg_cond {raw_cond:.1f} (>= 30), transformed {transformed_cond:.2f} "
        f"(<= 5), preconditioned rho=5 err {table[(Method.DP_PMTOLSE, 5.0)]:.3f} < "
        f"baseline rho=500 err {table[(Method.DP_OLSE, 500.0)]:.3f}; {elapsed:.0f}s",
    )


def test_criterion_8_spectral_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 51))
        m = _random_spd(rng, d, max_cond=1e6)
        root = sqrt_sym(m)
        inv_root = inv_sqrt_clamped(m)
        eye = np.eye(d)
        inv = solve(diagnostics(m), eye)
        norm_m = np.linalg.norm(m.entries)
        checks = [
            np.linalg.norm(root.entries @ root.entries - m.entries) / norm_m,
            np.linalg.norm(m.entries @ inv - eye) / math.sqrt(d),
            np.linalg.norm(
                inv_root.entries @ m.entries @ inv_root.entries - eye
            ) / math.sqrt(d),
        ]
        worst = max(worst, max(checks))
    # 2x2 closed forms: m = [[2,1],[1,2]] has inverse (1/3)[[2,-1],[-1,2]]
    # and eigenvalues 1, 3, so sqrt = (1/2)[[sqrt3+1, sqrt3-1],[sqrt3-1, sqrt3+1]]
    m2 = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
    s3 = math.sqrt(3.0)
    hand_sqrt = 0.5 * np.array([[s3 + 1, s3 - 1], [s3 - 1, s3 + 1]])
    hand_inv = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    closed = max(
        float(np.abs(sqrt_sym(m2).entries - hand_sqrt).max()),
        float(np.abs(solve(diagnostics(m2), np.eye(2)) - hand_inv).max()),
    )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and closed <= 1e-12 and elapsed < 30.0
    _report(
        "criterion 8 (spectral oracle)",
        ok,
        f"worst reconstruction residual {worst:.2e} over 500 matrices, "
        f"closed-form gap {closed:.2e}, {elapsed:.1f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    args = [
        "synth", "--n-priv", "500", "--rho", "2,10", "--trials", "5",
        "--seed", "99",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    identical = a.read_bytes() == b.read_bytes()
    _report(
        "criterion 9 (CLI determinism)",
        identical,
        f"two runs produced {'identical' if identical else 'DIFFERENT'} bytes "
        f"({len(a.read_bytes())} bytes)",
    )
