import dataclasses

import numpy as np
import pytest

from dynwatermark.adversary import SensorView, _attack_data, register_attack
from dynwatermark.harness import _Streams, run_scenario
from dynwatermark.scenario import AttackConfig, ScenarioError
from dynwatermark.watermark import FAMILIES, draw_iid

from attack_reference import additive_attack_step, reference_reports
from conftest import make_scenario

MIMO = {"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]], "B": [[1.0, 0.0], [0.2, 1.0]],
        "sigma_w2": 0.6}

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
    trace = run_scenario(make_scenario())
    assert trace.z.tobytes() == trace.y.tobytes()


def test_honest_sensor_copies_vector_measurements():
    """An honest measured state's reports equal the state rows bit for bit."""
    trace = run_scenario(make_scenario(
        plant=MIMO, policy={"kind": "linear", "f": [[-0.2, 0.0], [0.0, -0.1]]}
    ))
    assert trace.z.shape == trace.x.shape
    assert trace.z.tobytes() == trace.x.tobytes()


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
    """An onset before t = 1, and a record longer than the honest reports
    before onset, are refused when the scenario loads."""
    for field, record_len, onset in [
        ("attack.onset", 1, 0), ("attack.record_len", 0, 100), ("attack.record_len", 101, 100)
    ]:
        with pytest.raises(ScenarioError) as err:
            make_scenario(attack={"kind": "replay", "onset": onset, "record_len": record_len})
        assert str(err.value).startswith(field), str(err.value)


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
    "mimo": MIMO,
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


def _additive_run(plant, policy, sigma_e2, seed=17, onset=5):
    """A run attacked from ``onset`` on, and the fake noise of its attack
    steps, drawn from the attack substream."""
    cfg = make_scenario(
        seed=seed, horizon=300, plant=plant, policy=policy,
        watermark={"sigma_e2": sigma_e2},
        attack={"kind": "additive_estimated", "onset": onset},
        detector={"window_len": 100, "alpha": 0.05, "n_cal": 200},
    )
    size = 300 - onset if plant["kind"] != "mimo" else (300 - onset, 2)
    fake = draw_iid("gaussian", plant["sigma_w2"], _Streams(seed).attack, size)
    return run_scenario(cfg), fake


def test_estimate_noise_scalar_hand_value():
    # beta = sw2/(b^2 se2 + sw2)
    cfg = make_scenario(attack={"kind": "additive_estimated", "onset": 100})
    kind, onset, (beta, fake) = _attack_data(
        cfg, cfg.plant.build().kernel, np.random.default_rng(0)
    )
    assert (kind, onset, len(fake)) == ("additive_estimated", 100, cfg.horizon - 100)
    assert beta == pytest.approx(1.0 / (0.25 + 1.0))


def test_estimate_noise_scalar_equals_arx_first_order():
    """The scalar plant is the p=1, h=0 ARX plant with a_1 = -a."""
    scalar, _ = _additive_run(
        {"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 1.0},
        {"kind": "linear", "f": -0.3}, 0.25,
    )
    arx, _ = _additive_run(
        {"kind": "arx", "a": [-0.5], "b": [1.0], "sigma_w2": 1.0},
        {"kind": "linear", "f": -0.3}, 0.25,
    )
    np.testing.assert_allclose(scalar.z, arx.z, rtol=0, atol=1e-12)


def test_additive_attack_step_hand_simulation_scalar():
    """Ten attacked steps against an explicit re-derivation."""
    trace, fake = _additive_run(
        {"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 1.0},
        {"kind": "linear", "f": -0.3}, 0.25,
    )
    y, ug, z = trace.y, trace.u_g, trace.z
    for t in range(5, 15):
        s = y[t] - 0.5 * y[t - 1] - 1.0 * ug[t - 1]
        w_hat = (1.0 / 1.25) * s
        assert z[t] == pytest.approx(y[t] + fake[t - 5] - w_hat, abs=1e-12)


def test_additive_attack_step_hand_simulation_arx():
    trace, fake = _additive_run(
        {"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 1.0},
        {"kind": "arx_deadbeat"}, 1.0,
    )
    y, ug, z = trace.y, trace.u_g, trace.z
    for t in range(5, 15):
        s = y[t] + 0.7 * y[t - 1] + 0.2 * y[t - 2] - 1.0 * ug[t - 1] - 0.5 * ug[t - 2]
        w_hat = (1.0 / 2.0) * s  # beta = 1/(1*1+1)
        assert z[t] == pytest.approx(y[t] + fake[t - 5] - w_hat, abs=1e-12)


def test_additive_attack_step_hand_simulation_mimo():
    A = np.array([[0.5, 0.1], [0.0, 0.4]])
    B = np.array([[1.0, 0.0], [0.2, 1.0]])
    trace, fake = _additive_run(
        {"kind": "mimo", "A": A.tolist(), "B": B.tolist(), "sigma_w2": 1.0},
        {"kind": "linear", "f": [[-0.2, 0.0], [0.0, -0.1]]}, 0.5,
    )
    y, ug, z = trace.y, trace.u_g, trace.z
    for t in range(5, 11):
        s = y[t] - A @ y[t - 1] - B @ ug[t - 1]
        gram = 0.5 * B @ B.T + np.eye(2)
        w_hat = np.linalg.inv(gram) @ s
        np.testing.assert_allclose(z[t], y[t] + fake[t - 5] - w_hat, atol=1e-12)


ADDITIVE_PLANTS = {
    "scalar": {"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 0.8},
    "arx": {"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 0.8},
    "mimo": MIMO,
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
# the kernels against the view-only reference
# ---------------------------------------------------------------------------


REFERENCE_PLANTS = {
    # the matched watermark makes the additive gain read the resolved sigma_e2
    "scalar": ({"kind": "scalar", "a": 0.5, "b": 1.7, "sigma_w2": 1.3},
               {"kind": "linear", "f": -0.2}, {"sigma_e2": 0.0, "family": "matched"}),
    "arx": ({"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 0.8},
            {"kind": "arx_deadbeat"}, {"sigma_e2": 0.3, "shaper": "arx"}),
    # a C(q^-1) longer than the first attacked steps' w' memory
    "armax": ({"kind": "armax", "a": [0.5, -0.1], "b": [1.0, 0.5], "c": [1.0, 0.3, -0.2],
               "delay": 2, "sigma_w2": 0.9},
              {"kind": "linear", "f": -0.2}, {"sigma_e2": 0.5, "shaper": "armax"}),
    "partial": ({"kind": "partial", "A": [[0.9, 0.1], [0.0, 0.5]], "B": [1.0, 0.5],
                 "C": [1.0, 0.0], "sigma_w2": 1.0, "sigma_n2": 0.5},
                {"kind": "linear", "f": -0.3}, {"sigma_e2": 0.5}),
    "mimo": (MIMO, {"kind": "linear", "f": [[-0.2, 0.0], [0.0, -0.1]]}, {"sigma_e2": 0.5}),
}
REFERENCE_ATTACKS = {
    "honest": {"kind": "honest"},
    "replay": {"kind": "replay", "onset": 300, "record_len": 120},
    "noise_sim": {"kind": "noise_sim", "onset": 300},
    "additive_estimated": {"kind": "additive_estimated", "onset": 300},
}
# every pair the loader admits: additive_estimated needs a scalar, ARX or MIMO plant
REFERENCE_CASES = [
    (plant, attack)
    for plant in REFERENCE_PLANTS
    for attack in REFERENCE_ATTACKS
    if attack != "additive_estimated" or plant in ("scalar", "arx", "mimo")
]


@pytest.mark.parametrize("w_family", ["gaussian", "laplace"])
@pytest.mark.parametrize("plant, attack", REFERENCE_CASES)
def test_kernel_reports_equal_the_view_only_reference(plant, attack, w_family):
    """Each kernel's inline sensor reports, bit for bit, what the view-only
    reference strategy reports from the run's public data: y, its own
    reports, u_g, the plant and the attack substream, never e or w."""
    plant_dict, policy, watermark = REFERENCE_PLANTS[plant]
    cfg = make_scenario(
        seed=7, horizon=600, plant=dict(plant_dict, w_family=w_family), policy=policy,
        watermark=watermark, attack=REFERENCE_ATTACKS[attack],
        detector={"window_len": 100, "alpha": 0.05, "n_cal": 200},
    )
    trace = run_scenario(cfg)
    assert trace.z.tobytes() == reference_reports(trace).tobytes()


# ---------------------------------------------------------------------------
# custom attacks
# ---------------------------------------------------------------------------


_FLIP_TYPES: list = []


@register_attack("flip_sign_test")
def _flip_sign(view, rng, scale=1.0, flat=False):
    """Report -scale * y[t], logging the element types the view holds."""
    t = view.t
    _FLIP_TYPES.append({type(view.y[t]), type(view.z[t - 1]), type(view.u_g[t - 1])})
    return 0.0 if flat else -scale * view.y[t]


@pytest.mark.parametrize("kind", ["scalar", "partial", "mimo"])
def test_custom_attack_registry_roundtrip(kind):
    """A registered attack runs on every kernel loop from its onset on, and
    sees floats, or float rows of a measured state."""
    plant = {
        "scalar": {"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 1.0},
        "partial": REFERENCE_PLANTS["partial"][0],
        "mimo": MIMO,
    }[kind]
    cfg = make_scenario(
        horizon=300, plant=plant, policy={"kind": "zero"},
        attack={"kind": "flip_sign_test", "onset": 5, "params": {"scale": 2.0}},
        detector={"window_len": 100, "alpha": 0.05, "n_cal": 200},
    )
    _FLIP_TYPES.clear()
    trace = run_scenario(cfg)
    element = np.ndarray if kind == "mimo" else float
    assert _FLIP_TYPES == [{element}] * (cfg.horizon - 5)
    np.testing.assert_array_equal(trace.z[:5], trace.y[:5])
    np.testing.assert_array_equal(trace.z[5:], -2.0 * trace.y[5:])
    if kind == "mimo":
        flat = dataclasses.replace(cfg.attack, params={"flat": True})
        with pytest.raises(
            ValueError, match=r"report at t=5 has shape \(\), the plant outputs \(2,\)"
        ):
            run_scenario(dataclasses.replace(cfg, attack=flat))


def test_custom_attack_unknown_name():
    with pytest.raises(ScenarioError, match="attack.kind"):
        make_scenario(attack={"kind": "no_such", "onset": 5})
    cfg = dataclasses.replace(make_scenario(), attack=AttackConfig("no_such", onset=5))
    with pytest.raises(ValueError, match="unknown custom attack"):
        run_scenario(cfg)


def test_additive_attack_rejects_unsupported_plant():
    """Refused at load, and by the kernel data of a config built around the
    loader."""
    plants = [
        {"kind": "armax", "a": [0.5], "b": [1.0], "c": [1.0], "delay": 1, "sigma_w2": 1.0},
        REFERENCE_PLANTS["partial"][0],
    ]
    for plant in plants:
        with pytest.raises(ScenarioError, match="attack.kind"):
            make_scenario(plant=plant, policy={"kind": "zero"},
                          attack={"kind": "additive_estimated", "onset": 100})
        cfg = make_scenario(plant=plant, policy={"kind": "zero"})
        cfg = dataclasses.replace(cfg, attack=AttackConfig("additive_estimated", onset=1))
        with pytest.raises(TypeError, match="additive"):
            run_scenario(cfg)
