import dataclasses

import numpy as np
import pytest

from dynwatermark.adversary import (
    AdditiveEstimatedAttack,
    CustomAttack,
    HonestSensor,
    NoiseSimAttack,
    ReplayAttack,
    SensorView,
    additive_attack_step,
    estimate_noise_arx,
    register_attack,
)
from dynwatermark.harness import _Streams, run_scenario
from dynwatermark.linsys import ArxPlant, MimoPlant, ScalarPlant
from dynwatermark.watermark import FAMILIES, draw_iid

from conftest import make_scenario


SCALAR = ScalarPlant(a=0.5, b=1.0, sigma_w2=1.0)


def view_for(plant, y, z, ug, t, sigma_e2=0.25):
    return SensorView(
        t=t, y=y, z=z, u_g=ug, plant=plant, sigma_e2=sigma_e2,
        e_family="gaussian", w_family="gaussian",
    )


# ---------------------------------------------------------------------------
# the information boundary is structural
# ---------------------------------------------------------------------------


def test_sensor_view_has_no_secret_fields():
    """The adversary's entire interface: no field can carry e or w."""
    names = {f.name for f in dataclasses.fields(SensorView)}
    assert names == {
        "t", "y", "z", "u_g", "plant", "sigma_e2", "e_family", "w_family"
    }


def test_honest_sensor_reports_current_measurement():
    sensor = HonestSensor()
    y = [1.0, 2.5]
    assert sensor.report(view_for(SCALAR, y, [1.0], [0.0], t=1)) == 2.5


def test_honest_sensor_copies_vector_measurements():
    plant = MimoPlant(A=0.5 * np.eye(2), B=np.eye(2), sigma_w2=1.0)
    y = [np.array([1.0, 2.0])]
    out = HonestSensor().report(view_for(plant, y, [], [], t=0))
    out[0] = 99.0
    assert y[0][0] == 1.0


# ---------------------------------------------------------------------------
# onset semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "attack",
    [
        {"kind": "replay", "onset": 1000, "record_len": 300},
        {"kind": "noise_sim", "onset": 1000},
        {"kind": "additive_estimated", "onset": 1000},
    ],
)
def test_reports_match_honest_before_onset(attack):
    honest = run_scenario(make_scenario(attack={"kind": "honest"}))
    attacked = run_scenario(make_scenario(attack=attack))
    onset = attack["onset"]
    np.testing.assert_array_equal(honest.z[:onset], attacked.z[:onset])
    # and measurements/states agree one step past onset (the attack acts on
    # reports, the plant has not yet seen a corrupted input)
    np.testing.assert_array_equal(honest.y[: onset + 1], attacked.y[: onset + 1])
    assert honest.z[onset] != attacked.z[onset]


def test_attack_onset_validation():
    with pytest.raises(ValueError):
        ReplayAttack(onset=0, record_len=1)
    with pytest.raises(ValueError, match="record_len"):
        ReplayAttack(onset=100, record_len=0)
    with pytest.raises(ValueError, match="record_len"):
        ReplayAttack(onset=100, record_len=101)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_loops_recorded_reports_verbatim():
    onset, rlen = 1000, 300
    trace = run_scenario(
        make_scenario(attack={"kind": "replay", "onset": onset, "record_len": rlen})
    )
    z = trace.z
    for j in range(800):
        assert z[onset + j] == z[onset - rlen + (j % rlen)]


# ---------------------------------------------------------------------------
# noise simulation
# ---------------------------------------------------------------------------


def test_noise_sim_reports_follow_recursion_driven_by_private_noise():
    """Post-onset reports obey the plant recursion on (z, u_g) with the
    attacker's own noise stream — reproduced here bit-exactly from the
    attack's seed slot (independent route)."""
    seed, onset = 3, 1000
    cfg = make_scenario(attack={"kind": "noise_sim", "onset": onset}, seed=seed)
    trace = run_scenario(cfg)
    z, ug = trace.z, trace.u_g
    # same derivation path the harness uses for the attack stream
    own_rng = _Streams(seed).attack
    plant = cfg.plant.build()
    for t in range(onset, cfg.horizon):
        w_prime = float(draw_iid("gaussian", plant.sigma_w2, own_rng))
        assert z[t] == plant.a * z[t - 1] + plant.b * ug[t - 1] + w_prime


NOISE_SIM_PLANTS = {
    "armax": {"kind": "armax", "a": [0.5], "b": [1.0, 0.5], "c": [1.0, 0.3],
              "delay": 2, "sigma_w2": 0.8},
    "mimo": {"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
             "B": [[1.0, 0.0], [0.2, 1.0]], "sigma_w2": 0.6},
}


@pytest.mark.parametrize("w_family", FAMILIES)
@pytest.mark.parametrize("kind", sorted(NOISE_SIM_PLANTS))
def test_noise_sim_block_draws_equal_per_step_draws(kind, w_family):
    """The attacker's w', drawn in one block at onset, is the sequence one
    draw per attacked step gives: the reports are reproduced bit for bit."""
    seed, onset = 4, 300
    cfg = make_scenario(
        seed=seed, horizon=700, plant=dict(NOISE_SIM_PLANTS[kind], w_family=w_family),
        policy={"kind": "zero"}, attack={"kind": "noise_sim", "onset": onset},
        detector={"window_len": 200, "alpha": 0.05, "n_cal": 200},
    )
    trace = run_scenario(cfg)
    z, ug = trace.z, trace.u_g
    own_rng = _Streams(seed).attack
    form = cfg.plant.build().kernel
    w_own = {}
    for t in range(onset, cfg.horizon):
        if kind == "mimo":
            w = draw_iid(w_family, form.sigma_w2, own_rng, 2)
            assert np.array_equal(z[t], form.A @ z[t - 1] + form.B @ ug[t - 1] + w), t
            continue
        w_own[t] = float(draw_iid(w_family, form.sigma_w2, own_rng))
        acc = 0.0
        for k, ak in enumerate(form.a):
            acc -= ak * z[t - 1 - k]
        for k, bk in enumerate(form.b):
            acc += bk * ug[t - form.delay - k]
        for k, ck in enumerate(form.c):
            if t - k in w_own:  # w' is zero before onset
                acc += ck * w_own[t - k]
        assert z[t] == acc, t


def test_noise_sim_with_zero_excitation_is_law_consistent():
    """Without a watermark the simulated loop satisfies the exact output law:
    the raw residual of the reported stream is the attacker's white noise."""
    cfg = make_scenario(
        watermark={"sigma_e2": 0.0},
        attack={"kind": "noise_sim", "onset": 1000},
    )
    trace = run_scenario(cfg)
    plant = cfg.plant.build()
    r = trace.z[1:] - plant.a * trace.z[:-1] - plant.b * trace.u_g[:-1]
    post = r[1000:]
    assert float(np.mean(post**2)) == pytest.approx(plant.sigma_w2, rel=0.15)
    # whiteness at lag 1
    assert abs(float(np.mean(post[1:] * post[:-1]))) < 4.0 / np.sqrt(post.size)


# ---------------------------------------------------------------------------
# estimated-noise additive attack
# ---------------------------------------------------------------------------


def test_estimate_noise_scalar_hand_value():
    # s = y[t] - a y[t-1] - b ug[t-1]; beta = sw2/(b^2 se2 + sw2)
    y = [1.0, 2.0]
    ug = [0.5, 0.0]
    view = view_for(SCALAR, y, y, ug, t=1, sigma_e2=0.25)
    s = 2.0 - 0.5 * 1.0 - 1.0 * 0.5
    beta = 1.0 / (0.25 + 1.0)
    assert estimate_noise_arx(view, SCALAR) == pytest.approx(beta * s)


def test_estimate_noise_scalar_equals_arx_first_order():
    """The scalar plant is the p=1, h=0 ARX plant with a_1 = -a."""
    arx = ArxPlant(a_coeffs=(-0.5,), b_coeffs=(1.0,), sigma_w2=1.0)
    y = [0.7, -1.1, 0.4]
    ug = [0.2, -0.3, 0.0]
    v_scalar = estimate_noise_arx(view_for(SCALAR, y, y, ug, t=2), SCALAR)
    v_arx = estimate_noise_arx(view_for(arx, y, y, ug, t=2), arx)
    assert v_scalar == pytest.approx(v_arx, abs=1e-12)


def test_additive_attack_step_hand_simulation_scalar():
    """Ten scripted steps against an explicit numpy re-derivation."""
    rng = np.random.default_rng(17)
    y = rng.normal(size=10).tolist()
    ug = rng.normal(size=10).tolist()
    fake = rng.normal(size=10)
    z = []
    for t in range(10):
        view = view_for(SCALAR, y, z, ug, t=t, sigma_e2=0.25)
        v, z_t = additive_attack_step(view, fake[t])
        # oracle route: explicit formulas on the raw arrays
        y_prev = y[t - 1] if t >= 1 else 0.0
        ug_prev = ug[t - 1] if t >= 1 else 0.0
        s = y[t] - 0.5 * y_prev - 1.0 * ug_prev
        w_hat = (1.0 / 1.25) * s
        assert v == pytest.approx(fake[t] - w_hat, abs=1e-12)
        assert z_t == pytest.approx(y[t] + fake[t] - w_hat, abs=1e-12)
        z.append(z_t)


def test_additive_attack_step_hand_simulation_arx():
    plant = ArxPlant(a_coeffs=(0.7, 0.2), b_coeffs=(1.0, 0.5), sigma_w2=1.0)
    rng = np.random.default_rng(18)
    y = rng.normal(size=8).tolist()
    ug = rng.normal(size=8).tolist()
    fake = rng.normal(size=8)
    for t in range(8):
        view = view_for(plant, y, y, ug, t=t, sigma_e2=1.0)
        v, z_t = additive_attack_step(view, fake[t])
        yp = lambda i: y[i] if i >= 0 else 0.0
        up = lambda i: ug[i] if i >= 0 else 0.0
        s = y[t] + 0.7 * yp(t - 1) + 0.2 * yp(t - 2) - 1.0 * up(t - 1) - 0.5 * up(t - 2)
        w_hat = (1.0 / 2.0) * s  # beta = 1/(1*1+1)
        assert v == pytest.approx(fake[t] - w_hat, abs=1e-12)
        assert z_t == pytest.approx(y[t] + v, abs=1e-12)


def test_additive_attack_step_hand_simulation_mimo():
    plant = MimoPlant(
        A=np.array([[0.5, 0.1], [0.0, 0.4]]),
        B=np.array([[1.0, 0.0], [0.2, 1.0]]),
        sigma_w2=1.0,
    )
    rng = np.random.default_rng(19)
    y = [rng.normal(size=2) for _ in range(6)]
    ug = [rng.normal(size=2) for _ in range(6)]
    fake = [rng.normal(size=2) for _ in range(6)]
    for t in range(6):
        view = view_for(plant, y, y, ug, t=t, sigma_e2=0.5)
        v, z_t = additive_attack_step(view, fake[t])
        y_prev = y[t - 1] if t >= 1 else np.zeros(2)
        ug_prev = ug[t - 1] if t >= 1 else np.zeros(2)
        s = y[t] - plant.A @ y_prev - plant.B @ ug_prev
        gram = 0.5 * plant.B @ plant.B.T + np.eye(2)
        w_hat = np.linalg.inv(gram) @ s
        np.testing.assert_allclose(v, fake[t] - w_hat, atol=1e-12)
        np.testing.assert_allclose(z_t, y[t] + v, atol=1e-12)


ADDITIVE_PLANTS = {
    "scalar": {"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 0.8},
    "arx": {"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 0.8},
    "mimo": NOISE_SIM_PLANTS["mimo"],
}


@pytest.mark.parametrize("w_family", FAMILIES)
@pytest.mark.parametrize("kind", sorted(ADDITIVE_PLANTS))
def test_additive_block_draws_equal_per_step_draws(kind, w_family):
    """The fake noise, drawn in one block at onset, is the sequence one draw
    per attacked step gives, and the gain computed once is the one each step
    would compute: every report is reproduced bit for bit by a per-step
    ``additive_attack_step`` on the trace's own histories."""
    seed, onset = 4, 300
    cfg = make_scenario(
        seed=seed, horizon=700, plant=dict(ADDITIVE_PLANTS[kind], w_family=w_family),
        policy={"kind": "zero"}, attack={"kind": "additive_estimated", "onset": onset},
        detector={"window_len": 200, "alpha": 0.05, "n_cal": 200},
    )
    trace = run_scenario(cfg)
    own_rng = _Streams(seed).attack
    plant = cfg.plant.build()
    size = 2 if kind == "mimo" else None
    for t in range(onset, cfg.horizon):
        n_t = draw_iid(w_family, plant.kernel.sigma_w2, own_rng, size)
        view = SensorView(t, trace.y, trace.z, trace.u_g, plant,
                          cfg.watermark.sigma_e2, w_family=w_family)
        _, z_t = additive_attack_step(view, n_t)
        assert np.array_equal(trace.z[t], z_t), t


def test_additive_attack_keeps_report_power_near_honest():
    """The attacked report stays close to the honest second moment.

    Not exact: the feedback loop filters the injected distortion, which
    shifts the closed-loop report variance by ~10% here.  The attack is
    stealthy in power, not in correlation — that is the whole point.
    """
    cfg = make_scenario(
        horizon=20_001,
        watermark={"sigma_e2": 1.0},
        attack={"kind": "additive_estimated", "onset": 10_000},
    )
    trace = run_scenario(cfg)
    pre = float(np.mean(trace.z[2_000:10_000] ** 2))
    post = float(np.mean(trace.z[10_000:] ** 2))
    assert post == pytest.approx(pre, rel=0.15)
    # a crude fake that skips the noise estimate would inflate z by ~50%
    assert abs(post - pre) / pre < 0.5


# ---------------------------------------------------------------------------
# custom attacks
# ---------------------------------------------------------------------------


def test_custom_attack_registry_roundtrip():
    @register_attack("flip_sign_test")
    def flip(view, rng, scale=1.0):
        return -scale * view.y[view.t]

    attack = CustomAttack("flip_sign_test", onset=5, rng=np.random.default_rng(0),
                          params={"scale": 2.0})
    y = list(range(10))
    for t in range(10):
        got = attack.report(view_for(SCALAR, y, y, y, t=t))
        assert got == (y[t] if t < 5 else -2.0 * y[t])


def test_custom_attack_unknown_name():
    with pytest.raises(ValueError, match="unknown custom attack"):
        CustomAttack("no_such", onset=5, rng=np.random.default_rng(0))


def test_additive_attack_rejects_unsupported_plant():
    from dynwatermark.linsys import ArmaxPlant

    plant = ArmaxPlant(
        a_coeffs=(0.5,), b_coeffs=(1.0,), c_coeffs=(1.0,), delay=1, sigma_w2=1.0
    )
    view = view_for(plant, [1.0], [1.0], [0.0], t=0)
    with pytest.raises(TypeError, match="additive"):
        additive_attack_step(view, 0.0)
    attack = AdditiveEstimatedAttack(onset=1, rng=np.random.default_rng(0), horizon=3)
    with pytest.raises(TypeError, match="additive"):
        attack.report(view_for(plant, [1.0, 1.0], [1.0], [0.0], t=1))
