import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import multigammaln
from scipy.stats import chi2, ks_2samp, wishart

from dynwatermark import detect
from dynwatermark.detect import (
    _SUB_WINDOWS,
    STAT_KINDS,
    ResidualNull,
    Threshold,
    _batch_values,
    _joint_scatter,
    _wishart_scatter,
    calibrate_threshold,
    simulate_null_stats,
    threshold_from_stats,
)


# ---------------------------------------------------------------------------
# window statistics: the evaluator on one window, and a per-window reference
# ---------------------------------------------------------------------------


def window_value(kind, r, e=None, *, target=None, Sigma0=None):
    """The evaluator's statistic of one window of residuals ``r`` (l[, n])
    and, for a cross-correlation, its aligned excitation ``e`` (l,)."""
    blocks = [np.asarray(b, dtype=float)[None] for b in (e, r) if b is not None]
    Z = _joint_scatter(*blocks)
    n_e = len(blocks) - 1
    return float(_batch_values(kind, Z, len(r), n_e, target=target, Sigma0=Sigma0)[0])


def reference_value(kind, r, e=None, *, target=None, Sigma0=None):
    """Textbook per-window formula, written independently of the evaluator."""
    r = np.asarray(r, dtype=float)
    R = r.reshape(r.shape[0], -1)
    l, n = R.shape
    if kind == "variance":
        return float(np.mean(r * r))
    if kind == "cross_corr":
        return float(np.linalg.norm(np.asarray(e) @ R / l - np.atleast_1d(target)))
    S = R.T @ R / l
    S0 = np.atleast_2d(Sigma0)
    if kind == "cov_entries":
        return float(np.max(np.abs(S - S0)) / np.max(np.abs(S0)))
    ratio = np.linalg.solve(S0, S)
    if kind == "cov":
        return float(np.trace(ratio) - np.linalg.slogdet(ratio)[1] - n)
    # minus the Wishart(l, S0) log-density of l*S
    log_norm = 0.5 * l * n * math.log(2.0) + 0.5 * l * np.linalg.slogdet(S0)[1]
    log_norm += multigammaln(0.5 * l, n)
    logdet_X = np.linalg.slogdet(l * S)[1]
    return -(0.5 * (l - n - 1) * logdet_X - 0.5 * l * np.trace(ratio) - log_norm)


def test_variance_stat_is_mean_square():
    assert window_value("variance", [1.0, -2.0, 2.0]) == pytest.approx(3.0)


def test_cross_corr_stat_scalar():
    e = np.array([1.0, -1.0, 2.0])
    r = np.array([2.0, -2.0, 4.0])  # mean(e*r) = (2+2+8)/3 = 4
    assert window_value("cross_corr", r, e, target=4.0) == pytest.approx(0.0)
    assert window_value("cross_corr", r, e, target=3.0) == pytest.approx(1.0)


def test_cross_corr_stat_vector():
    e = np.array([1.0, 1.0])
    r = np.array([[1.0, 0.0], [1.0, 2.0]])  # mean(e*r) = (1, 1)
    val = window_value("cross_corr", r, e, target=np.array([0.0, 1.0]))
    assert val == pytest.approx(1.0)


def test_cross_corr_stat_rejects_misalignment():
    with pytest.raises(ValueError):
        _joint_scatter(np.ones((1, 3)), np.ones((1, 4)))
    with pytest.raises(ValueError):  # would broadcast to two windows
        _joint_scatter(np.ones((2, 3)), np.ones((1, 3)))


def stacked_scatter(*blocks):
    """Reference joint scatter, formed from one stacked copy of every
    coordinate of the blocks."""
    z = np.concatenate([np.moveaxis(np.atleast_3d(b), 2, 0) for b in blocks])
    p = z.shape[0]
    Z = np.empty((z.shape[1], p, p))
    for i in range(p):
        for j in range(i + 1):
            Z[:, i, j] = Z[:, j, i] = np.mean(z[i] * z[j], axis=-1)
    return Z


def _scatter_cases():
    """(blocks, n_e, null, e_index) of three block layouts: scalar (windows, l)
    blocks, (windows, l, dim) blocks, and a strided MIMO excitation column
    cut into windows as detection cuts it."""
    rng, n_win, l = np.random.default_rng(8), 40, 301
    scalar = ResidualNull(gain=1.5, sigma_e2=0.5, sigma_w2=1.0, w_family="laplace")
    matrix = ResidualNull(gain=np.array([[1.0, 0.0], [0.3, 1.0]]), sigma_e2=0.5,
                          sigma_w2=1.0, w_family="laplace")
    e, r = scalar.simulate(rng, n_win, l)
    yield [e[..., 0], r[..., 0]], 1, scalar, 0
    e, r = matrix.simulate(rng, n_win, l)
    yield [e, r], 2, matrix, 0
    column = e.reshape(-1, 2)[:, 1].reshape(n_win, l)
    assert not column.flags.c_contiguous
    yield [column, r], 1, matrix, 1


@pytest.mark.parametrize("kind", ["variance", "cross_corr", "cov", "cov_entries", "nll"])
def test_pairwise_scatter_equals_the_stacked_one(kind):
    """Scatters formed from the blocks' own views give, bit for bit, the
    statistics of scatters formed from a stacked copy."""
    for blocks, n_e, null, e_index in _scatter_cases():
        targets = {"target": null.cross_target(e_index), "Sigma0": null.sigma0()}
        l = blocks[0].shape[1]
        got = _joint_scatter(*blocks)
        want = stacked_scatter(*blocks)
        assert np.array_equal(got, want)
        assert np.array_equal(_batch_values(kind, got, l, n_e, **targets),
                              _batch_values(kind, want, l, n_e, **targets))


def exact_scatter_residuals(Sigma, l):
    """l rows whose scatter R^T R / l equals Sigma exactly (via eigh)."""
    n = Sigma.shape[0]
    vals, vecs = np.linalg.eigh(Sigma)
    root = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    base = np.zeros((l, n))
    for i in range(n):
        base[2 * i, i] = 1.0
        base[2 * i + 1, i] = -1.0
    return base * np.sqrt(l / 2.0) @ root


def test_cov_stat_zero_iff_exact_match():
    Sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    r = exact_scatter_residuals(Sigma, 8)
    assert window_value("cov", r, Sigma0=Sigma) == pytest.approx(0.0, abs=1e-12)


def test_cov_stat_scaled_scatter_hand_value():
    # S = c Sigma0 gives n(c - ln c - 1); c=2, n=2: 2(1 - ln 2)
    Sigma = np.eye(2)
    r = exact_scatter_residuals(2.0 * Sigma, 8)
    expect = 2.0 * (2.0 - np.log(2.0) - 1.0)
    assert window_value("cov", r, Sigma0=Sigma) == pytest.approx(expect, abs=1e-12)


def test_cov_stat_penalizes_deflation_too():
    Sigma = np.eye(2)
    r = exact_scatter_residuals(0.5 * Sigma, 8)
    assert window_value("cov", r, Sigma0=Sigma) > 0.1


def test_cov_stat_needs_enough_samples():
    with pytest.raises(ValueError, match="window"):
        window_value("cov", np.ones((2, 2)), Sigma0=np.eye(2))


def test_cov_stat_alarms_on_singular_scatter():
    """A finite singular scatter scores +inf under cov and nll, which alarms
    whatever the threshold; a threshold of another kind still refuses +inf."""
    r = np.ones((8, 2))  # rank one
    for kind in ("cov", "nll"):
        value = window_value(kind, r, Sigma0=np.eye(2))
        assert value == np.inf, kind
        assert Threshold(kind, 0.01, hi=1e300).exceeded(value, channel="x", end_t=7) is True
        flags = Threshold(kind, 0.01, hi=1.0).exceeded(
            np.array([0.5, value]), channel="x", end_t=np.array([7, 15])
        )
        assert flags.tolist() == [False, True]
    with pytest.raises(ValueError, match="non-finite statistic inf on channel x, "):
        Threshold("cov_entries", 0.01, hi=1.0).exceeded(np.inf, channel="x", end_t=7)


@pytest.mark.parametrize("kind", STAT_KINDS)
def test_overflowing_window_scores_nan(kind):
    """A scatter that overflows is not a singular one: every kind scores it
    NaN, which every threshold refuses."""
    r = np.ones((8, 2))
    r[3:5] = [1e308, -1e308]  # their squares, and their sums, overflow
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "variance":
            value = window_value(kind, r[:, 0])
        elif kind == "cross_corr":
            value = window_value(kind, r, np.ones(8), target=np.zeros(2))
        else:
            value = window_value(kind, r, Sigma0=np.eye(2))
    assert np.isnan(value), kind
    with pytest.raises(ValueError, match="non-finite statistic nan on channel x, "):
        Threshold(kind, 0.01, hi=1.0).exceeded(value, channel="x", end_t=7)


def test_cov_entries_stat_hand_value():
    Sigma = np.array([[4.0, 0.0], [0.0, 1.0]])
    r = exact_scatter_residuals(np.array([[4.4, 0.0], [0.0, 1.0]]), 8)
    # max |S - Sigma0| = 0.4 relative to max entry 4
    assert window_value("cov_entries", r, Sigma0=Sigma) == pytest.approx(0.1, abs=1e-12)


def test_cov_entries_handles_rank_deficient_target():
    Sigma = np.outer([1.0, 0.5], [1.0, 0.5])  # rank 1
    r = exact_scatter_residuals(Sigma, 8)
    assert window_value("cov_entries", r, Sigma0=Sigma) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# negative log-likelihood against the scipy Wishart oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,l", [(1, 20), (2, 50), (3, 40)])
def test_nll_matches_scipy_wishart_logpdf(n, l):
    rng = np.random.default_rng(21)
    Aux = rng.normal(size=(n, n))
    Sigma0 = Aux @ Aux.T + n * np.eye(n)
    r = rng.multivariate_normal(np.zeros(n), Sigma0, size=l)
    S = r.T @ r / l
    got = window_value("nll", r, Sigma0=Sigma0)
    expect = -wishart(df=l, scale=Sigma0).logpdf(l * S)
    assert got == pytest.approx(expect, rel=1e-10)


def test_nll_scalar_route_matches_matrix_route():
    rng = np.random.default_rng(22)
    r = rng.normal(size=30)
    one = window_value("nll", r, Sigma0=np.array([[1.5]]))
    two = window_value("nll", r[:, None], Sigma0=np.array([[1.5]]))
    assert one == pytest.approx(two, rel=1e-12)


def test_nll_minimized_near_wishart_mode():
    """Minimizing over S = c Sigma0 lands at the mode c = (l-n-1)/l."""
    l, n = 60, 2
    Sigma0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    grid = np.linspace(0.7, 1.3, 1201)
    vals = []
    for c in grid:
        r = exact_scatter_residuals(c * Sigma0, l)
        vals.append(window_value("nll", r, Sigma0=Sigma0))
    c_star = grid[int(np.argmin(vals))]
    assert c_star == pytest.approx((l - n - 1) / l, abs=2e-3)


def test_nll_needs_enough_samples():
    with pytest.raises(ValueError):
        window_value("nll", np.ones((2, 3)), Sigma0=np.eye(3))


# ---------------------------------------------------------------------------
# null models
# ---------------------------------------------------------------------------


def test_null_targets_scalar():
    null = ResidualNull(gain=2.0, sigma_e2=0.25, sigma_w2=1.0)
    assert null.variance_target() == pytest.approx(2.0)
    assert null.cross_target() == pytest.approx(0.5)
    np.testing.assert_allclose(null.sigma0(), [[2.0]])


def test_null_targets_matrix():
    B = np.array([[1.0, 0.0], [0.2, 1.0]])
    null = ResidualNull(gain=B, sigma_e2=0.5, sigma_w2=1.0)
    np.testing.assert_allclose(null.sigma0(), 0.5 * B @ B.T + np.eye(2))
    np.testing.assert_allclose(null.cross_target(1), 0.5 * B[:, 1])


def test_null_decoupled_requires_innovation_var():
    with pytest.raises(ValueError, match="innovation_var"):
        ResidualNull(gain=np.array([0.5, 0.2]), sigma_e2=1.0)
    null = ResidualNull(
        gain=np.array([0.5, 0.2]), sigma_e2=1.0, innovation_var=2.0
    )
    np.testing.assert_allclose(null.sigma0(), 2.0 * np.outer([0.5, 0.2], [0.5, 0.2]))
    np.testing.assert_allclose(null.cross_target(), np.zeros(2))


def test_null_simulate_shapes_and_moments():
    rng = np.random.default_rng(30)
    null = ResidualNull(gain=2.0, sigma_e2=0.25, sigma_w2=1.0)
    e, r = null.simulate(rng, 2000, 50)
    assert e.shape == (2000, 50, 1) and r.shape == (2000, 50, 1)
    assert float(np.mean(r * r)) == pytest.approx(2.0, rel=0.02)
    assert float(np.mean(e * r)) == pytest.approx(0.5, rel=0.05)


def test_null_decoupled_excitation_independent_of_residual():
    rng = np.random.default_rng(31)
    null = ResidualNull(
        gain=np.array([0.6]), sigma_e2=1.0, innovation_var=2.0
    )
    e, r = null.simulate(rng, 4000, 25)
    corr = float(np.mean(e[:, :, 0] * r[:, :, 0]))
    assert abs(corr) < 0.02


def test_decoupled_null_with_laplace_w_is_gaussian():
    """The decoupled residual carries the Gaussian innovation, never w."""
    null = ResidualNull(
        gain=np.array([0.6]), sigma_e2=1.0, sigma_w2=1.0, w_family="laplace",
        innovation_var=2.0,
    )
    assert null.gaussian
    assert not ResidualNull(
        gain=np.array([0.6]), sigma_e2=1.0, e_family="laplace", innovation_var=2.0
    ).gaussian


@pytest.mark.parametrize("gain", [0.5, np.eye(2)])
def test_coupled_null_with_laplace_w_is_not_gaussian(gain):
    null = ResidualNull(gain=gain, sigma_e2=1.0, sigma_w2=1.0, w_family="laplace")
    assert not null.gaussian


# ---------------------------------------------------------------------------
# batch evaluation of joint scatters is pinned to the per-window reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["variance", "cross_corr", "cov", "cov_entries", "nll"])
@pytest.mark.parametrize("shape", ["scalar", "matrix", "decoupled"])
def test_batch_values_equal_per_window_stats(kind, shape):
    rng = np.random.default_rng(40)
    if shape == "scalar":
        null = ResidualNull(gain=1.5, sigma_e2=0.5, sigma_w2=1.0)
    elif shape == "matrix":
        null = ResidualNull(
            gain=np.array([[1.0, 0.0], [0.3, 1.0]]), sigma_e2=0.5, sigma_w2=1.0
        )
    else:
        null = ResidualNull(
            gain=np.array([0.5, 0.2]), sigma_e2=1.0, innovation_var=2.0
        )
    l = 20
    e_block, r_block = null.simulate(rng, 50, l)
    e_block, r_block = np.asarray(e_block), np.asarray(r_block)
    target = null.cross_target(0) if kind == "cross_corr" else None
    Sigma0 = null.sigma0() if kind in ("cov", "cov_entries", "nll") else None
    if kind in ("cov", "nll") and shape == "decoupled":
        pytest.skip("rank-deficient target has no density / inverse")
    if kind == "variance" and shape != "scalar":
        pytest.skip("variance is a scalar-residual statistic")
    Z = _joint_scatter(e_block, r_block)
    batch = _batch_values(
        kind, Z, l, Z.shape[1] - null.dim, target=target, Sigma0=Sigma0, e_index=0
    )
    for i in range(50):
        e = e_block[i] if e_block.ndim == 2 else e_block[i, :, 0]
        ref = reference_value(kind, r_block[i], e, target=target, Sigma0=Sigma0)
        assert batch[i] == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_loading_matrix_reproduces_joint_second_moments():
    """M M' is the covariance of z = (e, r) for every null mode."""
    B = np.array([[1.0, 0.0], [0.3, 1.0], [0.2, 0.4]])
    cases = [
        ResidualNull(gain=1.5, sigma_e2=0.5, sigma_w2=1.0),
        ResidualNull(gain=0.0, sigma_e2=0.0, sigma_w2=1.0),
        ResidualNull(gain=B, sigma_e2=0.5, sigma_w2=2.0),
        ResidualNull(gain=np.array([0.5, 0.2]), sigma_e2=1.0, innovation_var=2.0),
    ]
    for null in cases:
        M = null.loading()
        cov = M @ M.T
        n_e = M.shape[0] - null.dim
        np.testing.assert_allclose(cov[n_e:, n_e:], null.sigma0(), atol=1e-15)
        np.testing.assert_allclose(np.diag(cov)[:n_e], null.sigma_e2, atol=1e-15)
        for i in range(n_e):
            np.testing.assert_allclose(
                cov[i, n_e:], np.atleast_1d(null.cross_target(i)), atol=1e-15
            )


def _brute_stats(kind, null, n_windows, l, rng, e_index=0):
    """Statistics of raw null windows through the per-window reference."""
    e_block, r_block = null.simulate(rng, n_windows, l)
    target = null.cross_target(e_index) if kind == "cross_corr" else None
    Sigma0 = None if kind in ("variance", "cross_corr") else null.sigma0()
    out = np.empty(n_windows)
    for i in range(n_windows):
        e = e_block[i] if e_block.ndim == 2 else e_block[i, :, e_index]
        out[i] = reference_value(kind, r_block[i], e, target=target, Sigma0=Sigma0)
    return out


_KS_NULLS = {
    "scalar": ResidualNull(gain=1.5, sigma_e2=0.5, sigma_w2=1.0),
    "unexcited": ResidualNull(gain=0.0, sigma_e2=0.0, sigma_w2=1.0),
    "matrix": ResidualNull(
        gain=np.array([[1.0, 0.0], [0.3, 1.0]]), sigma_e2=0.5, sigma_w2=1.0
    ),
    "decoupled": ResidualNull(
        gain=np.array([0.5, 0.2]), sigma_e2=1.0, innovation_var=2.0
    ),
    "laplace": ResidualNull(gain=1.0, sigma_e2=0.25, sigma_w2=1.0, w_family="laplace"),
}


@pytest.mark.parametrize(
    "mode,kind,e_index",
    [
        ("scalar", "variance", 0),
        ("scalar", "cross_corr", 0),
        ("scalar", "cov", 0),
        ("scalar", "cov_entries", 0),
        ("scalar", "nll", 0),
        ("unexcited", "nll", 0),
        ("matrix", "cross_corr", 0),
        ("matrix", "cross_corr", 1),
        ("matrix", "cov", 0),
        ("matrix", "cov_entries", 0),
        ("matrix", "nll", 0),
        ("decoupled", "cross_corr", 0),
        ("decoupled", "cov_entries", 0),
        ("laplace", "variance", 0),
    ],
)
def test_null_sampler_matches_brute_force_in_distribution(mode, kind, e_index):
    """Two-sample KS: the calibration sampler (Wishart scatter for Gaussian
    nulls, raw draws otherwise) against per-window stats of raw windows."""
    null, l, n = _KS_NULLS[mode], 30, 4000
    fast = simulate_null_stats(
        kind, l, null, n, np.random.default_rng(80), e_index=e_index
    )
    brute = _brute_stats(kind, null, n, l, np.random.default_rng(81), e_index)
    assert ks_2samp(fast, brute).pvalue > 1e-3


@pytest.mark.parametrize(
    "mode,kind,e_index",
    [
        ("scalar", "cross_corr", 0),
        ("unexcited", "nll", 0),
        ("matrix", "cov", 0),
        ("matrix", "cross_corr", 1),
        ("decoupled", "cov_entries", 0),
    ],
)
def test_wishart_calibration_holds_on_raw_null_windows(mode, kind, e_index):
    """Thresholds from the Wishart sampler give the design false-alarm rate
    on fresh raw residual windows, within the 4-sigma binomial band."""
    null, l, alpha, n_fresh = _KS_NULLS[mode], 30, 0.05, 4000
    assert null.gaussian
    th = calibrate_threshold(
        kind, l, alpha, null, 50_000, np.random.default_rng(90), e_index=e_index
    )
    fresh = _brute_stats(kind, null, n_fresh, l, np.random.default_rng(91), e_index)
    rate = float(np.mean([th.exceeded(v) for v in fresh]))
    assert abs(rate - alpha) < 4.0 * np.sqrt(alpha * (1 - alpha) / n_fresh)


@pytest.mark.parametrize(
    "mode,kind,e_index",
    [
        ("matrix", "cov", 0),
        ("matrix", "cov_entries", 0),
        ("matrix", "nll", 0),
        ("matrix", "cross_corr", 1),
        ("scalar", "cross_corr", 0),
        ("decoupled", "cov_entries", 0),
    ],
)
def test_sub_block_reduction_equals_one_shot_reduction(mode, kind, e_index, monkeypatch):
    """A Gaussian calibration run of several chunks, each reduced in
    sub-blocks (a partial one at the end of every chunk), gives bit for bit
    the statistics of each chunk's scatters M A A' M' / l formed at once
    from the same Bartlett draws."""
    null, l = _KS_NULLS[mode], 30
    M = null.loading()
    p, chunk = M.shape[1], 2 * _SUB_WINDOWS + 452
    n_cal = 2 * chunk + 1337
    assert n_cal % _SUB_WINDOWS and chunk % _SUB_WINDOWS
    monkeypatch.setattr(detect, "_CHUNK_ELEMS", len(M) ** 2 * chunk)
    got = simulate_null_stats(kind, l, null, n_cal, np.random.default_rng(70),
                              e_index=e_index)
    rng, want = np.random.default_rng(70), []
    rows = np.tril_indices(p, -1)[0]
    d = np.arange(p)
    for done in range(0, n_cal, chunk):
        take = min(chunk, n_cal - done)
        normals = rng.standard_normal((take, rows.size))
        chi2_draws = rng.chisquare(l - d, (take, p))
        Z = _wishart_scatter(M, l, normals, chi2_draws, np.empty((take, len(M), len(M))))
        targets = ({"target": null.cross_target(e_index)} if kind == "cross_corr"
                   else {"Sigma0": null.sigma0()})
        want.append(_batch_values(kind, Z, l, M.shape[0] - null.dim, e_index=e_index,
                                  **targets))
    assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("mode", sorted(_KS_NULLS))
def test_wishart_scatter_is_the_matrix_product(mode):
    """The column-sum scatters are M A A' M' / l of the Bartlett factors,
    to the rounding of a reordered sum."""
    M, l, rng = _KS_NULLS[mode].loading(), 30, np.random.default_rng(71)
    p = M.shape[1]
    normals, chi2_draws = rng.standard_normal((500, p * (p - 1) // 2)), rng.chisquare(l, (500, p))
    A, (rows, cols) = np.zeros((500, p, p)), np.tril_indices(p, -1)
    A[:, rows, cols] = normals
    A[:, np.arange(p), np.arange(p)] = np.sqrt(chi2_draws)
    MA = M @ A
    got = _wishart_scatter(M, l, normals, chi2_draws, np.empty((500, len(M), len(M))))
    np.testing.assert_allclose(got, MA @ MA.transpose(0, 2, 1) / l, rtol=1e-13, atol=1e-15)


def test_short_windows_fall_back_to_raw_draws():
    """Windows shorter than the Wishart dimension still calibrate."""
    null = _KS_NULLS["matrix"]  # z has 4 coordinates
    stats = simulate_null_stats("cross_corr", 3, null, 2000, np.random.default_rng(5))
    brute = _brute_stats("cross_corr", null, 2000, 3, np.random.default_rng(6))
    assert np.all(np.isfinite(stats))
    assert ks_2samp(stats, brute).pvalue > 1e-3


def test_raw_draw_calibration_holds_one_chunk_of_draws(monkeypatch):
    """A raw-draw chunk holds its e, v and r draws and one pairwise product
    at a time, beside the output and the chunk's scatters: no room for a
    stacked copy of its (e, r) coordinates."""
    null = ResidualNull(gain=np.array([[1.0, 0.0], [0.3, 1.0]]), sigma_e2=0.5,
                        sigma_w2=1.0, w_family="laplace")
    l, take, n_cal = 500, 400, 2000  # five chunks
    m, k, dim = null.G.shape[1], null.H.shape[1], null.dim
    product = take * l * 8
    bound = product * (m + k + dim + 1) + n_cal * 8 + take * (m + dim) ** 2 * 8
    # _CHUNK_ELEMS counts every draw of a chunk: l samples of e, v and r a window
    monkeypatch.setattr(detect, "_CHUNK_ELEMS", take * l * (m + k + dim))
    tracemalloc.start()
    try:
        simulate_null_stats("cov", l, null, n_cal, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_gaussian_variance_threshold_is_chi2_closed_form():
    null = ResidualNull(gain=1.0, sigma_e2=0.25, sigma_w2=1.0)
    th = calibrate_threshold("variance", 500, 0.001, null)
    assert th.method == "chi2"
    target = null.variance_target()
    assert th.hi == pytest.approx(target * chi2.ppf(1 - 0.0005, 500) / 500)
    assert th.lo == pytest.approx(target * chi2.ppf(0.0005, 500) / 500)


@pytest.mark.parametrize("alpha", [1e-4, 1e-3, 0.01, 0.05, 0.2, 0.4])
def test_gaussian_variance_bands_equal_chi2_ppf_bitwise(alpha):
    """The bands are chi2.ppf's own evaluation, without scipy.stats: every
    band equals target * chi2.ppf(q, l) / l byte for byte."""
    null = ResidualNull(gain=0.7, sigma_e2=0.3, sigma_w2=1.1)
    target = null.variance_target()
    for l in [2, 3, 7, 10, 51, 100, 499, 500, 1000, 2000, 4999, 20_000, 100_000]:
        th = calibrate_threshold("variance", l, alpha, null)
        hi = target * chi2.ppf(1.0 - 0.5 * alpha, l) / l
        lo = target * chi2.ppf(0.5 * alpha, l) / l
        assert np.float64(th.hi).tobytes() == np.float64(hi).tobytes(), (l, alpha)
        assert np.float64(th.lo).tobytes() == np.float64(lo).tobytes(), (l, alpha)


def test_chi2_threshold_agrees_with_monte_carlo_quantile():
    """Dual route: closed form vs empirical quantile of simulated nulls."""
    null = ResidualNull(gain=1.0, sigma_e2=0.25, sigma_w2=1.0)
    th = calibrate_threshold("variance", 200, 0.05, null)
    stats = simulate_null_stats(
        "variance", 200, null, 100_000, np.random.default_rng(50)
    )
    mc = threshold_from_stats("variance", stats, 0.05)
    assert mc.hi == pytest.approx(th.hi, rel=0.02)
    assert mc.lo == pytest.approx(th.lo, rel=0.02)


def test_nongaussian_variance_threshold_uses_monte_carlo():
    null = ResidualNull(gain=1.0, sigma_e2=0.25, sigma_w2=1.0, w_family="laplace")
    th = calibrate_threshold(
        "variance", 100, 0.01, null, 5000, np.random.default_rng(51)
    )
    assert th.method == "mc"
    # laplace tails push the upper band beyond the gaussian one
    g = calibrate_threshold(
        "variance", 100, 0.01, ResidualNull(gain=1.0, sigma_e2=0.25, sigma_w2=1.0)
    )
    assert th.hi > g.hi


def test_calibrate_requires_enough_null_windows():
    null = ResidualNull(gain=1.0, sigma_e2=0.25, sigma_w2=1.0)
    with pytest.raises(ValueError, match="n_cal"):
        calibrate_threshold("cross_corr", 50, 0.001, null, 500)
    with pytest.raises(ValueError, match="alpha"):
        calibrate_threshold("variance", 50, 0.7, null)
    with pytest.raises(ValueError, match="kind"):
        calibrate_threshold("median", 50, 0.01, null)


@pytest.mark.parametrize(
    "kind,alpha", [("cross_corr", 0.05), ("nll", 0.05), ("cov", 0.05)]
)
def test_calibrated_threshold_false_alarm_rate(kind, alpha):
    """Fresh null windows exceed the threshold at about the design rate."""
    if kind == "cov":
        null = ResidualNull(
            gain=np.array([[1.0, 0.0], [0.3, 1.0]]), sigma_e2=0.5, sigma_w2=1.0
        )
    else:
        null = ResidualNull(gain=1.0, sigma_e2=0.25, sigma_w2=1.0)
    l = 30
    th = calibrate_threshold(kind, l, alpha, null, 20_000, np.random.default_rng(60))
    fresh = simulate_null_stats(kind, l, null, 4000, np.random.default_rng(61))
    rate = float(np.mean([th.exceeded(v) for v in fresh]))
    band = 4.0 * np.sqrt(alpha * (1 - alpha) / 4000)
    assert abs(rate - alpha) < band + 0.2 * alpha


def test_cov_entries_calibration_power_on_rank_one_target():
    """The entrywise test on a rank-one scatter target: honest in band,
    inflated innovations flagged."""
    null = ResidualNull(
        gain=np.array([0.6, 0.3]), sigma_e2=1.0, innovation_var=2.0
    )
    l = 200
    th = calibrate_threshold(
        "cov_entries", l, 0.01, null, 5000, np.random.default_rng(70)
    )
    rng = np.random.default_rng(71)
    _, honest = null.simulate(rng, 300, l)
    honest_rate = float(
        np.mean([th.exceeded(reference_value("cov_entries", r, Sigma0=null.sigma0()))
                 for r in honest])
    )
    assert honest_rate < 0.05
    _, attacked = null.simulate(rng, 300, l)
    attacked = np.asarray(attacked) * 1.5  # inflate the innovation scale
    power = float(
        np.mean(
            [th.exceeded(reference_value("cov_entries", r, Sigma0=null.sigma0()))
             for r in attacked]
        )
    )
    assert power > 0.95


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_from_stats_two_sided_for_variance():
    stats = np.arange(1.0, 101.0)
    th = threshold_from_stats("variance", stats, 0.1)
    assert th.lo == pytest.approx(np.quantile(stats, 0.05))
    assert th.hi == pytest.approx(np.quantile(stats, 0.95))
    one = threshold_from_stats("cross_corr", stats, 0.1)
    assert one.lo is None
    assert one.hi == pytest.approx(np.quantile(stats, 0.9))


def test_threshold_exceeded_semantics():
    th = Threshold("variance", 0.01, hi=2.0, lo=0.5)
    assert th.exceeded(2.1)
    assert th.exceeded(0.4)
    assert not th.exceeded(1.0)
    one_sided = Threshold("cross_corr", 0.01, hi=2.0)
    assert not one_sided.exceeded(0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_window_value_is_an_error(bad):
    th = Threshold("cross_corr", 0.01, hi=2.0)
    with pytest.raises(ValueError, match="channel cross_corr_1.*t=1999"):
        th.exceeded(bad, channel="cross_corr_1", end_t=1999)


def test_threshold_from_stats_rejects_non_finite_null_sample():
    stats = np.arange(1.0, 101.0)
    stats[17] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        threshold_from_stats("cov", stats, 0.1)
    stats[17] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        threshold_from_stats("variance", stats, 0.1)
