import math

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are
from scipy.signal import lfilter, ss2tf

from dynwatermark.linsys import (
    ArmaxPlant,
    ArxPlant,
    MimoPlant,
    PartialPlant,
    ScalarPlant,
)
from dynwatermark.residual import (
    _ss2tf,
    innovations,
    kalman_design,
    lag_filter,
    prediction_errors,
    rational_filter,
)
from dynwatermark.watermark import shape


# ---------------------------------------------------------------------------
# rational filters equal scipy's lfilter and ss2tf, bit for bit
# ---------------------------------------------------------------------------

SIGNED = np.array([-0.0, 0.0, 1.5, -0.0, -2.25, 1e-300, -7.0, 3.0e200, -0.0])


@pytest.mark.parametrize("b", [1.0, 0.3, -2.0])
def test_identity_filter_equals_lfilter_bitwise(b):
    x = np.concatenate([SIGNED, np.random.default_rng(2).normal(size=200)])
    got = rational_filter((b,), (b,), x)
    assert got.tobytes() == lfilter((b,), (b,), x).tobytes()
    # lfilter adds its zero state, so -0.0 comes out as +0.0
    assert not np.signbit(got[[0, 3, 8]]).any()


@pytest.mark.parametrize("b", [1.0, 0.3, -2.0])
def test_identity_shaper_and_scalar_residual_equal_lfilter_bitwise(b):
    """The one-coefficient pre-equalizer and the C = (1,) prediction error
    return their input, bit-equal to what lfilter makes of it."""
    e = np.concatenate([SIGNED, np.random.default_rng(3).normal(size=200)])
    assert shape(e, (b,)).tobytes() == lfilter((b,), (b,), e).tobytes()
    form = ScalarPlant(a=0.5, b=b, sigma_w2=1.0).kernel
    z, u_g = e, np.concatenate([SIGNED[::-1], np.random.default_rng(4).normal(size=200)])
    drive = lag_filter((1.0,) + form.a, z) - lag_filter(form.b, u_g, form.delay)
    assert prediction_errors(form, z, u_g).tobytes() == lfilter((1.0,), (1.0,), drive).tobytes()


def test_rational_filter_runs_lfilter_otherwise():
    x = np.random.default_rng(5).normal(size=300)
    for b, a in [((0.5,), (1.0,)), ((1.0,), (1.0, 0.3)), ((1.0, 0.2), (1.0,))]:
        assert rational_filter(b, a, x).tobytes() == lfilter(b, a, x).tobytes()



@pytest.mark.parametrize("a", [(0.0, 0.5), (-0.0, 0.5, 0.2), (0.0,)])
def test_rational_filter_refuses_zero_leading_denominator_tap(a):
    """lfilter refuses a[0] == 0; dividing by it would return inf or nan."""
    with pytest.raises(ValueError, match="a\\[0\\] must be nonzero"):
        rational_filter((1.0, 0.3), a, np.ones(5))

def signed_zero_input(rng, T=240):
    """Normal draws with scattered -0.0 and +0.0 cells, a leading run of
    -0.0 (the filter at rest) and inner runs of each zero."""
    x = rng.normal(size=T)
    mask = rng.random(T) < 0.2
    x[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    x[:12] = -0.0
    x[60:90] = -0.0
    x[150:170] = 0.0
    return x


def random_filter(rng, order: int, nb: int):
    """A stable filter: sum |a_k / a_0| = 0.9, a_0 of either sign with
    |a_0| in [0.3, 3], and some taps of b and a[1:] set to -0.0 or +0.0."""
    a0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
    ratios = rng.uniform(-1.0, 1.0, size=order)
    a = a0 * np.concatenate([[1.0], 0.9 * ratios / np.abs(ratios).sum()])
    b = rng.normal(size=nb)
    for taps in (a[1:], b):
        mask = rng.random(taps.shape) < 0.2
        taps[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    return b, a


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("b_len", ["shorter", "equal", "longer"])
def test_rational_filter_equals_lfilter_on_random_iir_filters(order, b_len):
    rng = np.random.default_rng([order, len(b_len)])
    for _ in range(25):
        nb = {"shorter": rng.integers(1, order + 1), "equal": order + 1,
              "longer": rng.integers(order + 2, order + 4)}[b_len]
        b, a = random_filter(rng, order, int(nb))
        x = signed_zero_input(rng)
        assert rational_filter(b, a, x).tobytes() == lfilter(b, a, x).tobytes(), (b, a)


def test_rational_filter_equals_lfilter_on_random_fir_filters():
    rng = np.random.default_rng(17)
    for _ in range(100):
        b, a = random_filter(rng, 0, int(rng.integers(1, 6)))
        x = signed_zero_input(rng)
        assert rational_filter(b, a, x).tobytes() == lfilter(b, a, x).tobytes(), (b, a)


def test_ss2tf_port_equals_scipy():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        system = (rng.normal(size=(n, n)), rng.normal(size=(n, 2)),
                  rng.normal(size=(1, n)), rng.normal(size=(1, 2)))
        for j in (0, 1):
            num, den = ss2tf(*system, input=j)
            got_num, got_den = _ss2tf(*system, j)
            assert got_num.tobytes() == num[0].tobytes()
            assert got_den.tobytes() == den.tobytes()


def scipy_innovations(form, z, u):
    """K nu[t] through scipy's ss2tf and lfilter, on the system innovations
    builds: state x_hat(t-1|t-1), inputs (z[t], u[t-1]), output nu[t]."""
    A, b, C = form.A, form.B[:, 0], form.C
    K = kalman_design(form).K
    M = np.eye(len(A)) - np.outer(K, C)
    system = (M @ A, np.column_stack([K, M @ b]), -(C @ A)[None, :],
              np.array([[1.0, -float(C @ b)]]))
    num, den = ss2tf(*system, input=0)
    nu = lfilter(num[0], den, z[1:])
    if u is not None:
        num, den = ss2tf(*system, input=1)
        nu = nu + lfilter(num[0], den, u[:-1])
    return np.outer(nu, K)


def test_innovations_equal_scipy_composition_on_two_state_plant():
    form = PartialPlant(A=[[0.9, 1.0], [0.0, 0.8]], B=[1.0, 0.5], C=[1.0, 0.0],
                        sigma_w2=1.0, sigma_n2=1.0).kernel
    rng = np.random.default_rng(23)
    z, u = signed_zero_input(rng, 400), signed_zero_input(rng, 400)
    for uu in (u, None):
        assert innovations(form, z, uu).tobytes() == scipy_innovations(form, z, uu).tobytes()


# ---------------------------------------------------------------------------
# direct residuals
# ---------------------------------------------------------------------------


def test_scalar_residual_hand_value():
    form = ScalarPlant(a=0.5, b=1.0, sigma_w2=1.0).kernel
    r_raw = prediction_errors(form, np.array([1.0, 2.0]), np.array([1.0, 0.0]))[1]
    assert r_raw == pytest.approx(0.5)                   # 2 - 0.5 - 1
    assert r_raw - form.gain * 0.5 == pytest.approx(0.0)  # 0.5 - 1*0.5


def test_arx_residual_recovers_watermark_plus_noise():
    """Simulate with an explicit recursion (one route), recover b0 e + w with
    the prediction-error filter (independent route)."""
    plant = ArxPlant(a_coeffs=(0.7, 0.2), b_coeffs=(1.0, 0.5), sigma_w2=1.0)
    rng = np.random.default_rng(5)
    p, h = 2, 1
    T = 60
    e = rng.normal(size=T)
    w = rng.normal(size=T)
    g = rng.normal(size=T)  # arbitrary nominal inputs
    u = g + shape(e, plant.b_coeffs)
    y = np.zeros(T + 1)
    for t in range(T):
        acc = w[t]
        for m in range(p):
            acc -= plant.a_coeffs[m] * (y[t - m] if t - m >= 0 else 0.0)
        for r in range(h + 1):
            acc += plant.b_coeffs[r] * (u[t - r] if t - r >= 0 else 0.0)
        y[t + 1] = acc
    r_raw = prediction_errors(plant.kernel, y, np.append(g, 0.0))
    # r_raw[k+1] = b0 e[k] + w[k]
    np.testing.assert_allclose(r_raw[1:], plant.b_coeffs[0] * e + w, atol=1e-9)
    np.testing.assert_allclose(r_raw[1:] - plant.kernel.gain * e, w, atol=1e-9)


def test_mimo_residual_recovers_watermark_plus_noise():
    plant = MimoPlant(
        A=np.array([[0.5, 0.1], [0.0, 0.4]]),
        B=np.array([[1.0, 0.0], [0.2, 1.0]]),
        sigma_w2=1.0,
    )
    rng = np.random.default_rng(6)
    x = rng.normal(size=2)
    g = rng.normal(size=2)
    e = rng.normal(size=2)
    w = rng.normal(size=2)
    x_next = plant.A @ x + plant.B @ (g + e) + w
    r = innovations(plant.kernel, np.array([x, x_next]), np.array([g, g]))
    np.testing.assert_allclose(r[0], plant.B @ e + w, atol=1e-12)


# ---------------------------------------------------------------------------
# ARMAX prediction-error filter
# ---------------------------------------------------------------------------


def reference_armax_filter(plant, z, g, e_lagged):
    """Textbook recursion written independently with arrays (oracle route)."""
    a, b, c = plant.a_coeffs, plant.b_coeffs, plant.c_coeffs
    T = len(z)
    zt = np.zeros(T)
    for t in range(T):
        pred = 0.0
        for k, ak in enumerate(a):
            if t - 1 - k >= 0:
                pred -= ak * z[t - 1 - k]
        for k, bk in enumerate(b):
            pred += bk * g[t][k]
        for k in range(1, len(c)):
            if t - k >= 0:
                pred += c[k] * zt[t - k]
        zt[t] = z[t] - pred
    return zt


def test_armax_filter_matches_reference_recursion():
    plant = ArmaxPlant(
        a_coeffs=(0.5, -0.1), b_coeffs=(1.0, 0.5), c_coeffs=(1.0, 0.3, 0.1),
        delay=2, sigma_w2=1.0,
    )
    rng = np.random.default_rng(9)
    T = 30
    z = rng.normal(size=T)
    ug = rng.normal(size=T)
    h, l = plant.order_b, plant.delay

    def g_hist(t):
        return [ug[t - l - k] if t - l - k >= 0 else 0.0 for k in range(h + 1)]

    got = prediction_errors(plant.kernel, z, ug)
    expect = reference_armax_filter(plant, z, [g_hist(t) for t in range(T)], None)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_armax_filter_exact_on_honest_plant():
    """Closed loop with shaped excitation: the filter output is exactly
    e[t-delay] + w[t] (colored noise and delayed watermark fully resolved)."""
    plant = ArmaxPlant(
        a_coeffs=(0.5,), b_coeffs=(1.0, 0.5), c_coeffs=(1.0, 0.3),
        delay=2, sigma_w2=1.0,
    )
    rng = np.random.default_rng(11)
    T = 400
    e = rng.normal(size=T)
    w = rng.normal(size=T)
    a, b, c, l = plant.a_coeffs, plant.b_coeffs, plant.c_coeffs, plant.delay
    u = shape(e, b, c, 1.0)  # zero nominal input
    y = np.zeros(T)
    for t in range(T):
        acc = 0.0
        for k, ak in enumerate(a):
            if t - 1 - k >= 0:
                acc -= ak * y[t - 1 - k]
        for k, bk in enumerate(b):
            if t - l - k >= 0:
                acc += bk * u[t - l - k]
        for k, ck in enumerate(c):
            if t - k >= 0:
                acc += ck * w[t - k]
        y[t] = acc
    form = plant.kernel
    zt = prediction_errors(form, y, np.zeros(T))
    e_lag = lag_filter((1.0,), e, l)
    np.testing.assert_allclose(zt, w + e_lag, atol=1e-9)
    # the wm-removed residual is then exactly the process noise
    np.testing.assert_allclose(zt - form.gain * e_lag, w, atol=1e-9)


def test_armax_filter_burn_in():
    plant = ArmaxPlant(
        a_coeffs=(0.5, 0.1), b_coeffs=(1.0, 0.5), c_coeffs=(1.0, 0.3),
        delay=3, sigma_w2=1.0,
    )
    assert plant.kernel.burn_in == max(2, 1 + 3, 1)


# ---------------------------------------------------------------------------
# Riccati fixed point and Kalman step
# ---------------------------------------------------------------------------


def scalar_riccati_root(a, sigma_w2, sigma_n2):
    """Positive root of P^2 + (sigma_n2 (1-a^2) - sigma_w2) P - sigma_w2 sigma_n2."""
    beta = sigma_n2 * (1.0 - a * a) - sigma_w2
    return 0.5 * (-beta + math.sqrt(beta * beta + 4.0 * sigma_w2 * sigma_n2))


def make_siso(A, B, C, sw2=1.0, sn2=1.0):
    return PartialPlant(
        A=np.atleast_2d(np.asarray(A, dtype=float)),
        B=np.asarray(B, dtype=float),
        C=np.asarray(C, dtype=float),
        sigma_w2=sw2, sigma_n2=sn2,
    )


def test_riccati_scalar_closed_form():
    plant = make_siso(0.9, [1.0], [1.0])
    design = kalman_design(plant)
    expect = scalar_riccati_root(0.9, 1.0, 1.0)
    assert float(design.P[0, 0]) == pytest.approx(expect, abs=1e-10)
    assert expect == pytest.approx(0.5 * (0.81 + math.sqrt(4.6561)), abs=1e-12)


def test_riccati_memoryless_case():
    """A = 0: P = sigma_w2, K = P/(P+sigma_n2), innovation var P+sigma_n2."""
    design = kalman_design(make_siso(0.0, [1.0], [1.0]))
    assert float(design.P[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert float(design.K[0]) == pytest.approx(0.5, abs=1e-12)
    assert design.sigma_R2 == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize(
    "A,B,C,sw2,sn2",
    [
        (0.9, [1.0], [1.0], 1.0, 1.0),
        (0.5, [2.0], [1.5], 0.3, 2.0),
        ([[0.9, 1.0], [0.0, 0.8]], [1.0, 0.5], [1.0, 0.0], 1.0, 1.0),
        ([[0.3, 0.2], [-0.1, 0.6]], [0.5, 1.0], [1.0, 0.4], 0.5, 0.25),
    ],
)
def test_riccati_against_scipy_dare(A, B, C, sw2, sn2):
    plant = make_siso(A, B, C, sw2, sn2)
    design = kalman_design(plant)
    # solve_discrete_are solves the dual (estimation) equation with A^T, C^T
    P_ref = solve_discrete_are(
        plant.A.T, plant.C[:, None], sw2 * np.eye(plant.dim), np.array([[sn2]])
    )
    np.testing.assert_allclose(design.P, P_ref, atol=1e-8)
    # gain and innovation variance are functions of P
    sR2 = float(plant.C @ P_ref @ plant.C) + sn2
    np.testing.assert_allclose(design.K, P_ref @ plant.C / sR2, atol=1e-8)
    assert design.sigma_R2 == pytest.approx(sR2, abs=1e-8)


def test_riccati_iterates_are_psd_and_design_consistent():
    plant = make_siso([[0.9, 1.0], [0.0, 0.8]], [1.0, 0.5], [1.0, 0.0])
    design = kalman_design(plant)
    eig = np.linalg.eigvalsh(design.P)
    assert np.all(eig >= -1e-12)
    np.testing.assert_allclose(design.K_pred, plant.A @ design.K, atol=1e-15)
    # P is a fixed point of the predictor Riccati map
    P = design.P
    PCt = P @ plant.C
    S = float(plant.C @ PCt) + plant.sigma_n2
    P_next = (
        plant.A @ P @ plant.A.T
        - np.outer(plant.A @ PCt, plant.A @ PCt) / S
        + plant.sigma_w2 * np.eye(plant.dim)
    )
    np.testing.assert_allclose(P_next, P, atol=1e-10)


def test_kalman_step_hand_value():
    """A = 0 design: x_pred = B(g+e), innovation = z - C x_pred, q = K nu."""
    plant = make_siso(0.0, [1.0], [1.0])
    design = kalman_design(plant)
    q = innovations(plant.kernel, np.array([0.0, 2.0]), np.array([0.0, 0.0]))
    assert float(q[0, 0]) == pytest.approx(design.K[0] * 2.0, abs=1e-12)
    assert float(q[0, 0]) == pytest.approx(1.0, abs=1e-12)
    # watermark enters the prediction: same report, excited input
    q2 = innovations(plant.kernel, np.array([0.0, 2.0]), np.array([0.5, 0.0]))
    assert float(q2[0, 0]) / design.K[0] == pytest.approx(1.5, abs=1e-12)


def reference_kalman(plant, design, z, u):
    """Per-step filter written independently (oracle route): returns nu."""
    xhat = np.zeros(plant.dim)
    nus = np.empty(len(z) - 1)
    for k in range(len(z) - 1):
        x_pred = plant.A @ xhat + plant.B * u[k]
        nus[k] = z[k + 1] - float(plant.C @ x_pred)
        xhat = x_pred + design.K * nus[k]
    return nus


def test_kalman_innovations_match_reference_filter():
    plant = make_siso([[0.9, 1.0], [0.0, 0.8]], [1.0, 0.5], [1.0, 0.0])
    design = kalman_design(plant)
    rng = np.random.default_rng(13)
    z, u = rng.normal(size=300), rng.normal(size=300)
    q = innovations(plant.kernel, z, u)
    np.testing.assert_allclose(q, np.outer(reference_kalman(plant, design, z, u), design.K),
                               rtol=0, atol=1e-12)


def test_kalman_innovations_variance_on_honest_run():
    """Innovation variance converges to sigma_R2 = C P C^T + sigma_n2."""
    plant = make_siso(0.9, [1.0], [1.0])
    design = kalman_design(plant)
    rng = np.random.default_rng(12)
    T = 60_000
    u = rng.normal(scale=0.5, size=T)
    w = rng.normal(size=T)
    x = lag_filter((1.0,), u + w, 1)  # x[t] = 0.9 x[t-1] + u[t-1] + w[t-1]
    for t in range(1, T):
        x[t] += 0.9 * x[t - 1]
    y = x + rng.normal(size=T)
    nus = innovations(plant.kernel, y, u)[:, 0] / design.K[0]
    assert float(np.mean(nus[100:] ** 2)) == pytest.approx(design.sigma_R2, rel=0.03)


def test_kalman_design_convergence_reported():
    design = kalman_design(make_siso(0.9, [1.0], [1.0]))
    assert design.iterations > 1
    with pytest.raises(RuntimeError, match="converge"):
        kalman_design(make_siso(0.9, [1.0], [1.0]), tol=1e-12, max_iter=3)
