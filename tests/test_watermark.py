import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwatermark.watermark import (
    FAMILIES,
    WatermarkSpec,
    draw_excitation,
    draw_iid,
    match_distribution,
    shape,
)


def run_shaper(b, e_seq, c=None):
    """Pre-equalizer (B s = b0 e) without c, ARMAX shaper (B s = C e) with it."""
    if c is None:
        return shape(np.asarray(e_seq), b).tolist()
    return shape(np.asarray(e_seq), b, c, 1.0).tolist()


# ---------------------------------------------------------------------------
# shaper impulse responses (hand-derived sequences, frozen)
# ---------------------------------------------------------------------------


def test_pre_equalizer_impulse_response():
    # b = (1, 0.5): e' = e - 0.5 e'[t-1]; impulse gives (-1/2)^t
    out = run_shaper((1.0, 0.5), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    expect = [1.0, -0.5, 0.25, -0.125, 0.0625, -0.03125]
    assert out == pytest.approx(expect, abs=1e-15)


def test_armax_shaper_impulse_response():
    # B = (1, 0.5), C = (1, 0.3): s = e + 0.3 e[t-1] - 0.5 s[t-1]
    out = run_shaper((1.0, 0.5), [1.0, 0.0, 0.0, 0.0], c=(1.0, 0.3))
    expect = [1.0, -0.2, 0.1, -0.05]
    assert out == pytest.approx(expect, abs=1e-15)


def test_pre_equalizer_trivial_b_is_identity():
    # with no feedback taps e' = e, and B e' = b0 e holds trivially
    e = [0.3, -1.2, 0.7]
    assert run_shaper((2.0,), e) == pytest.approx(e)
    assert run_shaper((1.0,), e) == pytest.approx(e)


# ---------------------------------------------------------------------------
# convolution identities (oracle via np.convolve, independent of the
# recursive implementation)
# ---------------------------------------------------------------------------


@given(
    b1=st.floats(min_value=-0.9, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_pre_equalizer_convolution_identity(b1, seed):
    """B(q^-1) e' = b0 e, checked by explicit convolution."""
    b = (1.0, b1)
    e = np.random.default_rng(seed).normal(size=40)
    ep = np.asarray(run_shaper(b, e.tolist()))
    recon = np.convolve(b, ep)[: len(e)]
    np.testing.assert_allclose(recon, b[0] * e, atol=1e-9)


@given(
    b1=st.floats(min_value=-0.9, max_value=0.9),
    c1=st.floats(min_value=-0.9, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_armax_shaper_convolution_identity(b1, c1, seed):
    """B(q^-1) s = C(q^-1) e, checked by explicit convolution."""
    b, c = (1.0, b1), (1.0, c1)
    e = np.random.default_rng(seed).normal(size=40)
    s = np.asarray(run_shaper(b, e.tolist(), c=c))
    lhs = np.convolve(b, s)[: len(e)]
    rhs = np.convolve(c, e)[: len(e)]
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_pre_equalizer_longer_b_convolution():
    b = (2.0, 0.6, 0.2)  # roots well outside the unit circle
    e = np.random.default_rng(7).normal(size=60)
    ep = np.asarray(run_shaper(b, e.tolist()))
    np.testing.assert_allclose(np.convolve(b, ep)[:60], b[0] * e, atol=1e-9)


# ---------------------------------------------------------------------------
# excitation families
# ---------------------------------------------------------------------------


def test_families_tuple():
    assert FAMILIES == ("gaussian", "laplace", "uniform")


@pytest.mark.parametrize("family", FAMILIES)
def test_draw_iid_variance_and_mean(family):
    rng = np.random.default_rng(10)
    x = np.asarray(draw_iid(family, 2.0, rng, 200_000))
    assert float(np.mean(x)) == pytest.approx(0.0, abs=0.03)
    assert float(np.var(x)) == pytest.approx(2.0, rel=0.03)


def test_draw_iid_uniform_support_bound():
    x = np.asarray(draw_iid("uniform", 3.0, np.random.default_rng(1), 100_000))
    assert float(np.max(np.abs(x))) <= np.sqrt(3.0 * 3.0) + 1e-12


def test_draw_iid_laplace_has_heavier_tails_than_gaussian():
    rng = np.random.default_rng(2)
    g = np.asarray(draw_iid("gaussian", 1.0, rng, 200_000))
    l = np.asarray(draw_iid("laplace", 1.0, rng, 200_000))
    kurt = lambda v: float(np.mean(v**4) / np.mean(v**2) ** 2)
    assert kurt(l) > kurt(g) + 1.0  # excess 3 vs 0, generous margin


def test_draw_iid_golden_values():
    """Frozen draws pin the seed -> sample mapping (format stability)."""
    golden = {
        "gaussian": [-2.268167762024588, 0.09065096773107229, 1.0477785188730433],
        "laplace": [3.0661447249453975, -0.2739218861592993, 1.8740056416794435],
        "uniform": [2.335342377828466, -0.5869186364222483, 2.07347461655284],
    }
    for family, expect in golden.items():
        got = np.asarray(draw_iid(family, 2.0, np.random.default_rng(1234), 3))
        np.testing.assert_array_equal(got, expect)


def test_draw_iid_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        draw_iid("cauchy", 1.0, np.random.default_rng(0))


def test_draw_iid_zero_variance_is_zero():
    x = np.asarray(draw_iid("gaussian", 0.0, np.random.default_rng(0), 5))
    np.testing.assert_array_equal(x, np.zeros(5))


# ---------------------------------------------------------------------------
# distribution matching
# ---------------------------------------------------------------------------


def test_match_distribution_scales_by_b_squared():
    assert match_distribution(("laplace", 4.0), b=2.0) == ("laplace", 1.0)
    assert match_distribution(("gaussian", 1.0), b=1.0) == ("gaussian", 1.0)


def test_match_distribution_rejects_zero_gain():
    with pytest.raises(ValueError):
        match_distribution(("gaussian", 1.0), b=0.0)


def test_matched_output_variance_doubles():
    """With e matched to w through b, the raw residual b e + w has twice the
    process-noise variance, whatever the family."""
    rng = np.random.default_rng(3)
    b = 2.0
    family, var_e = match_distribution(("laplace", 1.5), b)
    e = np.asarray(draw_iid(family, var_e, rng, 300_000))
    w = np.asarray(draw_iid("laplace", 1.5, rng, 300_000))
    assert float(np.var(b * e + w)) == pytest.approx(3.0, rel=0.03)


# ---------------------------------------------------------------------------
# WatermarkSpec
# ---------------------------------------------------------------------------


def test_spec_validation():
    WatermarkSpec(sigma_e2=0.0)  # zero excitation is a valid (unwatermarked) spec
    with pytest.raises(ValueError):
        WatermarkSpec(sigma_e2=-1.0)
    with pytest.raises(ValueError):
        WatermarkSpec(sigma_e2=1.0, family="weird")
    with pytest.raises(ValueError):
        WatermarkSpec(sigma_e2=1.0, shaper="fir")


def test_draw_excitation_requires_resolved_family():
    spec = WatermarkSpec(sigma_e2=1.0, family="matched")
    with pytest.raises(ValueError, match="matched"):
        draw_excitation(spec, np.random.default_rng(0), 4)


def test_draw_excitation_matches_draw_iid():
    spec = WatermarkSpec(sigma_e2=0.5, family="uniform")
    a = np.asarray(draw_excitation(spec, np.random.default_rng(8), 6))
    b = np.asarray(draw_iid("uniform", 0.5, np.random.default_rng(8), 6))
    np.testing.assert_array_equal(a, b)
