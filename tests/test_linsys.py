import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwatermark.harness import _self_check, run_scenario
from dynwatermark.linsys import (
    ArmaxPlant,
    ArxDeadbeat,
    ArxPlant,
    CallablePolicy,
    LagForm,
    LinearFeedback,
    MimoPlant,
    PartialPlant,
    ScalarPlant,
    StateSpaceForm,
    ZeroPolicy,
    check_min_phase,
)
from dynwatermark.residual import innovations, lag_filter

from conftest import make_scenario

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def next_output(form, y, u, w):
    """y[T] of the lag kernel A(q^-1) y = q^-delay B(q^-1) u + C(q^-1) w,
    from y[:T], u[:T] and w[:T+1] given oldest first, at rest before t=0."""
    y = np.append(np.asarray(y, dtype=float), 0.0)
    u = np.append(np.asarray(u, dtype=float), 0.0)
    w = np.asarray(w, dtype=float)
    ay = lag_filter((1.0,) + form.a, y)
    return float(lag_filter(form.b, u, form.delay)[-1] + lag_filter(form.c, w)[-1] - ay[-1])


# ---------------------------------------------------------------------------
# canonical kernels: frozen hand-computed values
# ---------------------------------------------------------------------------


def test_step_scalar_hand_value():
    form = ScalarPlant(a=0.5, b=1.0, sigma_w2=1.0).kernel
    assert form == LagForm((-0.5,), (1.0,), (1.0,), 1, 1.0, 1.0, 1, 0)
    # 0.5*1.0 + 1.0*(-1.5) + 0.3
    assert next_output(form, [1.0], [-1.5], [0.0, 0.3]) == pytest.approx(-0.7, abs=1e-15)


def test_step_arx_hand_value():
    form = ArxPlant(a_coeffs=(0.5,), b_coeffs=(1.0, 0.5), sigma_w2=1.0).kernel
    assert (form.c, form.delay, form.gain, form.start) == ((1.0,), 1, 1.0, 1)
    # -0.5*1.0 + 1.0*2.0 + 0.5*0.2 + 0.0 (u oldest first: u[t-2] = 0.2, u[t-1] = 2.0)
    assert next_output(form, [1.0], [0.2, 2.0], [0.0, 0.0]) == pytest.approx(1.6, abs=1e-15)


def test_step_armax_hand_value():
    form = ArmaxPlant(
        a_coeffs=(0.5,), b_coeffs=(1.0, 0.5), c_coeffs=(1.0, 0.3),
        delay=1, sigma_w2=1.0,
    ).kernel
    assert (form.gain, form.start) == (1.0, 0)
    # -0.5*1.0 + (1.0*2.0 + 0.5*0.2) + (1.0*0.4 + 0.3*1.0)
    y_t = next_output(form, [1.0], [0.2, 2.0], [1.0, 0.4])
    assert y_t == pytest.approx(2.3, abs=1e-15)


def test_step_statespace_hand_value():
    plant = MimoPlant(
        A=np.array([[0.5, 0.0], [0.1, 0.4]]),
        B=np.array([[1.0, 0.0], [0.0, 2.0]]),
        sigma_w2=1.0,
    )
    x = np.array([2.0, 1.0])
    u = np.array([1.0, 1.5])
    # A x = (1.0, 0.6); B u = (1.0, 3.0); + w = (0.1, -0.1)
    x_next = np.array([2.1, 3.5])
    r = innovations(plant.kernel, np.array([x, x_next]), np.array([u, u]))
    np.testing.assert_allclose(r[0], [0.1, -0.1], atol=1e-15)


def test_observe_partial_hand_value():
    plant = PartialPlant(
        A=np.array([[0.9]]), B=np.array([1.0]), C=np.array([2.0]),
        sigma_w2=1.0, sigma_n2=1.0,
    )
    form = plant.kernel
    assert isinstance(form, StateSpaceForm) and form.B.shape == (1, 1)
    assert (form.sigma_n2, form.n_inputs, form.start) == (1.0, 1, 1)
    assert float(form.C @ np.array([1.5])) + 0.25 == pytest.approx(3.25)


def test_step_scalar_rejects_nonfinite():
    """A non-finite step value fails the kernel recursion check on import."""
    trace = run_scenario(make_scenario(horizon=50))
    trace.y[10] = float("nan")
    with pytest.raises(ValueError, match="self-check"):
        _self_check(trace)


# ---------------------------------------------------------------------------
# linearity / superposition (property tests)
# ---------------------------------------------------------------------------


@given(x1=finite, x2=finite, u1=finite, u2=finite, w1=finite, w2=finite)
@settings(max_examples=50)
def test_step_scalar_superposition(x1, x2, u1, u2, w1, w2):
    form = ScalarPlant(a=0.7, b=-1.3, sigma_w2=1.0).kernel
    lhs = next_output(form, [x1 + x2], [u1 + u2], [0.0, w1 + w2])
    rhs = next_output(form, [x1], [u1], [0.0, w1]) + next_output(form, [x2], [u2], [0.0, w2])
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


@given(
    y=st.lists(finite, min_size=2, max_size=2),
    u=st.lists(finite, min_size=2, max_size=2),
    scale=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
@settings(max_examples=50)
def test_step_arx_homogeneity(y, u, scale):
    form = ArxPlant(a_coeffs=(0.4, 0.2), b_coeffs=(1.0, 0.5), sigma_w2=1.0).kernel
    scaled = next_output(form, [scale * v for v in y], [scale * v for v in u], [0.0] * 3)
    base = next_output(form, y, u, [0.0] * 3)
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-6)


@given(
    y=st.lists(finite, min_size=1, max_size=1),
    u=st.lists(finite, min_size=2, max_size=2),
    w=finite,
)
@settings(max_examples=50)
def test_armax_with_white_c_reduces_to_arx(y, u, w):
    """c = (1,) and delay 1 make the ARMAX recursion the ARX one exactly."""
    armax = ArmaxPlant(
        a_coeffs=(0.5,), b_coeffs=(1.0, 0.5), c_coeffs=(1.0,), delay=1, sigma_w2=1.0
    ).kernel
    arx = ArxPlant(a_coeffs=(0.5,), b_coeffs=(1.0, 0.5), sigma_w2=1.0).kernel
    assert (armax.a, armax.b, armax.c, armax.delay) == (arx.a, arx.b, arx.c, arx.delay)
    assert next_output(armax, y, u, [0.0, w]) == next_output(arx, y, u, [0.0, w])


# ---------------------------------------------------------------------------
# minimum-phase validation
# ---------------------------------------------------------------------------


def test_min_phase_accepts_root_outside():
    check_min_phase((1.0, 0.5))  # root of 1 + 0.5 q^-1 at |q^-1| = 2


def test_min_phase_rejects_root_inside():
    with pytest.raises(ValueError, match="minimum phase"):
        check_min_phase((1.0, 2.0))  # root at |q^-1| = 0.5


def test_min_phase_rejects_unit_circle_root():
    with pytest.raises(ValueError, match="minimum phase"):
        check_min_phase((1.0, 1.0))


def test_min_phase_from_constructed_roots():
    # build b with prescribed roots r: b(z) = prod (1 - z/r), then check both sides
    for roots, ok in [((2.0, -3.0), True), ((2.0, 0.8), False)]:
        poly = np.poly1d([1.0])
        for r in roots:
            poly = poly * np.poly1d([-1.0 / r, 1.0])
        coeffs = tuple(poly.coeffs[::-1])
        if ok:
            check_min_phase(coeffs)
        else:
            with pytest.raises(ValueError, match="minimum phase"):
                check_min_phase(coeffs)


def test_arx_plant_rejects_nonminphase_b():
    with pytest.raises(ValueError, match="minimum phase"):
        ArxPlant(a_coeffs=(0.5,), b_coeffs=(1.0, 1.5), sigma_w2=1.0)


def test_arx_plant_rejects_zero_b0():
    with pytest.raises(ValueError):
        ArxPlant(a_coeffs=(0.5,), b_coeffs=(0.0, 1.0), sigma_w2=1.0)


def test_armax_plant_rejects_c0_not_one():
    with pytest.raises(ValueError, match="c_coeffs"):
        ArmaxPlant(
            a_coeffs=(0.5,), b_coeffs=(1.0,), c_coeffs=(0.9, 0.1),
            delay=1, sigma_w2=1.0,
        )


def test_armax_plant_rejects_nonminphase_c():
    with pytest.raises(ValueError, match="minimum phase"):
        ArmaxPlant(
            a_coeffs=(0.5,), b_coeffs=(1.0,), c_coeffs=(1.0, 1.2),
            delay=1, sigma_w2=1.0,
        )


def test_armax_plant_rejects_zero_delay():
    with pytest.raises(ValueError, match="delay"):
        ArmaxPlant(
            a_coeffs=(0.5,), b_coeffs=(1.0,), c_coeffs=(1.0,),
            delay=0, sigma_w2=1.0,
        )


def test_scalar_plant_rejects_zero_b():
    with pytest.raises(ValueError):
        ScalarPlant(a=0.5, b=0.0, sigma_w2=1.0)


# ---------------------------------------------------------------------------
# state-space plant validation
# ---------------------------------------------------------------------------


def test_partial_plant_rejects_unobservable_pair():
    with pytest.raises(ValueError, match="observable"):
        PartialPlant(
            A=np.eye(2), B=np.array([1.0, 0.0]), C=np.array([1.0, 0.0]),
            sigma_w2=1.0, sigma_n2=1.0,
        )


def test_partial_plant_accepts_observable_pair():
    plant = PartialPlant(
        A=np.array([[0.9, 1.0], [0.0, 0.8]]),
        B=np.array([1.0, 0.5]), C=np.array([1.0, 0.0]),
        sigma_w2=1.0, sigma_n2=0.5,
    )
    assert plant.dim == 2


def test_mimo_plant_warns_on_rank_deficient_B():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        MimoPlant(A=0.5 * np.eye(2), B=np.array([[1.0, 1.0], [2.0, 2.0]]), sigma_w2=1.0)
    assert any("rank" in str(w.message) for w in caught)


def test_mimo_plant_full_rank_no_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        MimoPlant(A=0.5 * np.eye(2), B=np.eye(2), sigma_w2=1.0)
    assert not caught


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


def test_zero_policy_scalar_and_vector():
    assert ZeroPolicy().step(3.0) == 0.0
    np.testing.assert_array_equal(ZeroPolicy(n_inputs=2).step(np.ones(2)), np.zeros(2))


def test_linear_feedback_scalar_and_matrix():
    assert LinearFeedback(f=-0.3).step(2.0) == pytest.approx(-0.6)
    F = np.array([[0.1, 0.0], [0.0, 0.2]])
    np.testing.assert_allclose(
        LinearFeedback(f=F).step(np.array([1.0, 2.0])), [0.1, 0.4]
    )


def test_arx_deadbeat_satisfies_its_recursion():
    """b0 u[t] + sum_{r>=1} b_r u[t-r] must equal sum_m a_m z[t-m]."""
    a = (0.7, 0.2)
    b = (1.0, 0.5)
    pol = ArxDeadbeat(a, b)
    rng = np.random.default_rng(4)
    z_seen: list[float] = []
    u_seen: list[float] = []
    for _ in range(40):
        z_t = float(rng.normal())
        u_t = pol.step(z_t)
        z_seen.append(z_t)
        u_seen.append(u_t)
        t = len(z_seen) - 1
        lhs = sum(
            br * u_seen[t - r] for r, br in enumerate(b) if t - r >= 0
        )
        rhs = sum(
            am * z_seen[t - m] for m, am in enumerate(a) if t - m >= 0
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_arx_deadbeat_reset_clears_state():
    pol = ArxDeadbeat((0.5,), (1.0, 0.5))
    first = [pol.step(1.0), pol.step(2.0)]
    pol.reset()
    again = [pol.step(1.0), pol.step(2.0)]
    assert first == again


def test_arx_deadbeat_rejects_nonminphase_b():
    with pytest.raises(ValueError, match="minimum phase"):
        ArxDeadbeat((0.5,), (1.0, 2.0))


def test_callable_policy_sees_history_oldest_first():
    seen = []
    pol = CallablePolicy(lambda hist: seen.append(list(hist)) or 0.0)
    pol.step(1.0)
    pol.step(2.0)
    pol.step(3.0)
    assert seen[-1] == [1.0, 2.0, 3.0]
    pol.reset()
    pol.step(9.0)
    assert seen[-1] == [9.0]
