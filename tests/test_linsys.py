import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from dynwatermark.harness import _self_check, run_scenario
from dynwatermark.linsys import (
    ArmaxPlant,
    ArxPlant,
    LagForm,
    MimoPlant,
    PartialPlant,
    ScalarPlant,
    StateSpaceForm,
    check_min_phase,
)
from dynwatermark.residual import innovations, lag_filter
from dynwatermark.scenario import ScenarioError

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
# policies, as the closed-loop simulators apply them
# ---------------------------------------------------------------------------

MIMO = {"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
        "B": [[1.0, 0.0], [0.2, 1.0]], "sigma_w2": 1.0}
ARX = {"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 1.0}
DET = {"window_len": 100, "alpha": 0.01, "n_cal": 1000}


def test_zero_policy_scalar_and_vector():
    scalar = run_scenario(make_scenario(horizon=300, policy={"kind": "zero"}))
    assert scalar.u_g.shape == (300,)
    assert not scalar.u_g.any()
    vector = run_scenario(
        make_scenario(horizon=300, plant=MIMO, policy={"kind": "zero"}, detector=DET)
    )
    assert vector.u_g.shape == (300, 2)
    assert not vector.u_g.any()


def test_linear_feedback_scalar_and_matrix():
    trace = run_scenario(make_scenario(horizon=300, policy={"kind": "linear", "f": -0.3}))
    assert (-0.3 * trace.z).tobytes() == trace.u_g.tobytes()
    partial = {"kind": "partial", "A": [[0.9]], "B": [1.0], "C": [1.0],
               "sigma_w2": 1.0, "sigma_n2": 1.0}
    trace = run_scenario(make_scenario(
        horizon=300, plant=partial, policy={"kind": "linear", "f": -0.3},
        detector=dict(DET, tests=["cross_corr"]),
    ))
    assert (-0.3 * trace.z).tobytes() == trace.u_g.tobytes()
    F = np.array([[-0.2, 0.1], [0.0, -0.2]])
    trace = run_scenario(make_scenario(
        horizon=300, plant=MIMO, policy={"kind": "linear", "f": F.tolist()}, detector=DET
    ))
    # numpy may round the batched product differently in the last bit
    scale = np.max(np.abs(trace.u_g))
    np.testing.assert_allclose(trace.u_g, trace.z @ F.T, rtol=0.0, atol=1e-15 * scale)


def test_arx_deadbeat_satisfies_its_recursion():
    """B(q^-1) u_g = A(q^-1) z on the reports, honest or not."""
    for attack in ({"kind": "honest"}, {"kind": "additive_estimated", "onset": 150}):
        trace = run_scenario(make_scenario(
            horizon=400, plant=ARX, policy={"kind": "arx_deadbeat"}, attack=attack,
            detector=DET,
        ))
        lhs = lfilter(ARX["b"], 1.0, trace.u_g)
        rhs = lfilter(ARX["a"], 1.0, trace.z)
        np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def test_arx_deadbeat_rejects_nonminphase_b():
    with pytest.raises(ScenarioError, match="minimum phase") as err:
        make_scenario(plant=dict(ARX, b=[1.0, 2.0]), policy={"kind": "arx_deadbeat"})
    assert err.value.field == "plant"
