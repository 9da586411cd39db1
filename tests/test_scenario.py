import pathlib

import numpy as np
import pytest
from scipy.signal import lfilter

from dynwatermark.harness import run_scenario
from dynwatermark.scenario import (
    SCHEMA_VERSION,
    ScenarioError,
    allowed_tests,
    default_tests,
    load_scenario,
    resolve_watermark,
    save_scenario,
    scenario_from_dict,
)


def base_dict(**over):
    d = {
        "schema_version": 1,
        "name": "t",
        "seed": 0,
        "horizon": 2000,
        "plant": {"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 1.0},
        "policy": {"kind": "linear", "f": -0.3},
        "watermark": {"sigma_e2": 0.25},
        "attack": {"kind": "honest"},
        "detector": {"window_len": 100, "alpha": 0.01, "n_cal": 1000},
    }
    d.update(over)
    return d


def expect_error(field, **over):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(base_dict(**over))
    assert str(err.value).startswith(field), str(err.value)
    return err.value


# ---------------------------------------------------------------------------
# roundtrips
# ---------------------------------------------------------------------------


def test_dict_roundtrip_is_stable():
    cfg = scenario_from_dict(base_dict())
    again = scenario_from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_yaml_roundtrip(tmp_path):
    cfg = scenario_from_dict(
        base_dict(
            plant={"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 1.0},
            policy={"kind": "arx_deadbeat"},
            attack={"kind": "replay", "onset": 500, "record_len": 100},
        )
    )
    path = tmp_path / "s.yaml"
    save_scenario(cfg, path)
    again = load_scenario(path)
    assert again.to_dict() == cfg.to_dict()


def test_yaml_roundtrip_all_example_scenarios(tmp_path):
    import pathlib

    here = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    files = sorted(here.glob("*.yaml"))
    assert files, "example scenarios missing"
    for f in files:
        cfg = load_scenario(f)
        out = tmp_path / f.name
        save_scenario(cfg, out)
        assert load_scenario(out).to_dict() == cfg.to_dict()


def test_load_rejects_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("plant: [unclosed\n")
    with pytest.raises(ScenarioError, match="YAML"):
        load_scenario(path)


def test_load_parses_as_the_pure_python_safe_loader(tmp_path, monkeypatch):
    """A scenario text is parsed the same way whether or not PyYAML was built
    with libyaml, whose parser accepts a tab after a value and reads a bare
    ``!`` tag as '' where the pure-Python one reads None."""
    path = tmp_path / "s.yaml"
    path.write_text("a: 1\t\n")
    with pytest.raises(ScenarioError, match="YAML"):
        load_scenario(path)
    path.write_text("a: !\n")
    monkeypatch.setattr("dynwatermark.scenario.scenario_from_dict", lambda raw: raw)
    assert load_scenario(path) == {"a": None}


# ---------------------------------------------------------------------------
# validation errors carry a field path and render on one line
# ---------------------------------------------------------------------------


def test_error_rendering_single_line():
    err = expect_error("schema_version", schema_version=99)
    assert "\n" not in str(err)
    assert "99" in str(err)


def test_top_level_validation():
    expect_error("scenario", extra_key=1)
    expect_error("name", name="")
    expect_error("horizon", horizon=1)
    expect_error("seed", seed=-3)
    with pytest.raises(ScenarioError, match="schema_version"):
        d = base_dict()
        del d["schema_version"]
        scenario_from_dict(d)


def test_plant_validation():
    expect_error("plant.kind", plant={"kind": "nonlinear"})
    expect_error("plant", plant={"kind": "scalar", "a": 0.5, "b": 1.0,
                                 "sigma_w2": 1.0, "bogus": 2})
    # parameter errors surface at parse time through the builder
    expect_error("plant", plant={"kind": "scalar", "a": 0.5, "b": 0.0, "sigma_w2": 1.0})
    expect_error("plant", plant={"kind": "arx", "a": [0.5], "b": [1.0, 2.0],
                                 "sigma_w2": 1.0})
    expect_error("plant.w_family", plant={"kind": "scalar", "a": 0.5, "b": 1.0,
                                          "sigma_w2": 1.0, "w_family": "cauchy"})


def test_policy_validation():
    expect_error("policy.f", policy={"kind": "linear"})
    expect_error("policy.f", policy={"kind": "zero", "f": 1.0})
    expect_error("policy.kind", policy={"kind": "arx_deadbeat"})  # scalar plant
    expect_error("policy.kind", policy={"kind": "pid"})


def test_watermark_validation():
    expect_error("watermark", watermark={"sigma_e2": -1.0})
    expect_error("watermark", watermark={"sigma_e2": 1.0, "family": "weird"})
    expect_error(
        "watermark.family",
        plant={"kind": "mimo", "A": [[0.5, 0.0], [0.0, 0.5]],
               "B": [[1.0, 0.0], [0.0, 1.0]], "sigma_w2": 1.0},
        policy={"kind": "zero"},
        watermark={"sigma_e2": 1.0, "family": "matched"},
    )


def test_attack_validation():
    expect_error("attack.kind", attack={"kind": "meteor"})
    expect_error("attack.onset", attack={"kind": "honest", "onset": 10})
    expect_error("attack.onset", attack={"kind": "replay", "record_len": 10})
    expect_error("attack.onset",
                 attack={"kind": "noise_sim", "onset": 5000})  # >= horizon
    expect_error("attack.record_len", attack={"kind": "replay", "onset": 100})
    expect_error("attack.record_len",
                 attack={"kind": "replay", "onset": 100, "record_len": 200})
    expect_error("attack.record_len",
                 attack={"kind": "noise_sim", "onset": 100, "record_len": 10})
    expect_error(
        "attack.kind",
        plant={"kind": "armax", "a": [0.5], "b": [1.0], "c": [1.0],
               "delay": 1, "sigma_w2": 1.0},
        policy={"kind": "zero"},
        attack={"kind": "additive_estimated", "onset": 100},
    )


def test_detector_validation():
    expect_error("detector.window_len", detector={"window_len": 0})
    expect_error("detector.alpha", detector={"alpha": 0.6})
    expect_error("detector.n_cal", detector={"alpha": 0.001, "n_cal": 100})
    expect_error("detector.tests", detector={"window_len": 100, "alpha": 0.01,
                                             "n_cal": 1000, "tests": []})
    expect_error("detector.tests", detector={"window_len": 100, "alpha": 0.01,
                                             "n_cal": 1000, "tests": ["cov"]})
    expect_error("detector.burn_in", detector={"window_len": 100, "alpha": 0.01,
                                               "n_cal": 1000, "burn_in": -1})


def test_partial_matrix_tests_need_scalar_state():
    plant2d = {
        "kind": "partial",
        "A": [[0.9, 1.0], [0.0, 0.8]], "B": [1.0, 0.5], "C": [1.0, 0.0],
        "sigma_w2": 1.0, "sigma_n2": 1.0,
    }
    expect_error(
        "detector.tests",
        plant=plant2d, policy={"kind": "zero"},
        detector={"window_len": 100, "alpha": 0.01, "n_cal": 1000, "tests": ["cov"]},
    )
    # 1-d state allows the full-matrix statistics
    cfg = scenario_from_dict(
        base_dict(
            plant={"kind": "partial", "A": [[0.9]], "B": [1.0], "C": [1.0],
                   "sigma_w2": 1.0, "sigma_n2": 1.0},
            policy={"kind": "zero"},
            detector={"window_len": 100, "alpha": 0.01, "n_cal": 1000,
                      "tests": ["cov", "nll", "cross_corr"]},
        )
    )
    assert cfg.detector.tests == ("cov", "nll", "cross_corr")


def test_allowed_and_default_tests_tables():
    assert default_tests("scalar") == ("variance_wm", "variance_raw", "cross_corr", "nll")
    assert default_tests("mimo") == ("cov", "cross_corr")
    assert "cov" not in allowed_tests("partial", state_dim=2)
    assert "cov" in allowed_tests("partial", state_dim=1)
    assert set(default_tests("partial")) <= allowed_tests("partial", state_dim=2)


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def test_build_policy_kinds():
    """Each policy kind of a scenario file drives the loop with its own law."""
    cfg = scenario_from_dict(base_dict(horizon=300))
    trace = run_scenario(cfg)
    assert (-0.3 * trace.z).tobytes() == trace.u_g.tobytes()
    trace = run_scenario(scenario_from_dict(base_dict(horizon=300, policy={"kind": "zero"})))
    assert not trace.u_g.any()
    cfg = scenario_from_dict(
        base_dict(
            horizon=300,
            plant={"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 1.0},
            policy={"kind": "arx_deadbeat"},
        )
    )
    trace = run_scenario(cfg)
    # the deadbeat law takes its coefficients from the plant: B(q^-1) u_g = A(q^-1) z
    np.testing.assert_allclose(
        lfilter([1.0, 0.5], 1.0, trace.u_g), lfilter([0.7, 0.2], 1.0, trace.z),
        rtol=0.0, atol=1e-12,
    )


def test_build_policy_matrix_gain():
    cfg = scenario_from_dict(
        base_dict(
            horizon=300,
            plant={"kind": "mimo", "A": [[0.5, 0.0], [0.0, 0.5]],
                   "B": [[1.0, 0.0], [0.0, 1.0]], "sigma_w2": 1.0},
            policy={"kind": "linear", "f": [[-0.1, 0.0], [0.0, -0.2]]},
            detector={"window_len": 100, "alpha": 0.01, "n_cal": 1000},
        )
    )
    trace = run_scenario(cfg)
    assert trace.u_g.shape == (300, 2)
    scale = np.max(np.abs(trace.u_g))
    np.testing.assert_allclose(
        trace.u_g, trace.z * [-0.1, -0.2], rtol=0.0, atol=1e-15 * scale
    )


def test_mimo_linear_gain_shape_is_checked_at_load():
    mimo = {"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
            "B": [[1.0, 0.0], [0.2, 1.0]], "sigma_w2": 1.0}
    for f in ([1.0], 1.0, [[-0.1, 0.0]], [[-0.1], [0.0]]):
        err = expect_error("policy.f", plant=mimo, policy={"kind": "linear", "f": f})
        assert "expected shape (m, n) = (2, 2)" in str(err)
    wide = dict(mimo, B=[[1.0, 0.0, 0.5], [0.2, 1.0, 0.0]])
    err = expect_error(
        "policy.f", plant=wide, policy={"kind": "linear", "f": [[0.1, 0.2, 0.3]] * 2}
    )
    assert "(3, 2)" in str(err)
    cfg = scenario_from_dict(
        base_dict(plant=wide, policy={"kind": "linear", "f": [[0.1, 0.0]] * 3})
    )
    assert np.shape(cfg.policy.f) == (3, 2)


def test_ragged_mimo_gain_names_its_field():
    mimo = {"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
            "B": [[1.0, 0.0], [0.2, 1.0]], "sigma_w2": 1.0}
    err = expect_error("policy.f", plant=mimo,
                       policy={"kind": "linear", "f": [[1.0, 2.0], [3.0]]})
    assert "(2, 2)" in str(err)
    expect_error("policy.f", plant=mimo,
                 policy={"kind": "linear", "f": [[0.1, "x"], [0.0, 0.1]]})
    expect_error("policy.f", plant=mimo,
                 policy={"kind": "linear", "f": [[0.1, float("nan")], [0.0, 0.1]]})


def test_unstable_closed_loop_rejected_at_load():
    # open loop a = 1.5 under the zero policy
    err = expect_error("policy", plant={"kind": "scalar", "a": 1.5, "b": 1.0,
                                        "sigma_w2": 1.0}, policy={"kind": "zero"})
    assert "spectral radius 1.5 > 1" in str(err)
    # ... which the right feedback gain stabilizes (radius |1.5 - 1.0| = 0.5)
    scenario_from_dict(base_dict(plant={"kind": "scalar", "a": 1.5, "b": 1.0,
                                        "sigma_w2": 1.0},
                                 policy={"kind": "linear", "f": -1.0}))
    expect_error("policy", policy={"kind": "linear", "f": 2.0})  # 0.5 + 2.0
    # a MIMO gain that destabilizes a stable plant: eig(A + B F) includes 1.5
    mimo = {"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
            "B": [[1.0, 0.0], [0.0, 1.0]], "sigma_w2": 1.0}
    err = expect_error("policy", plant=mimo,
                       policy={"kind": "linear", "f": [[1.0, 0.0], [0.0, 0.0]]})
    assert "unstable" in str(err)
    # partial: A + f B C^T
    partial = {"kind": "partial", "A": [[0.9]], "B": [1.0], "C": [1.0],
               "sigma_w2": 1.0, "sigma_n2": 1.0}
    detector = {"window_len": 100, "alpha": 0.01, "n_cal": 1000,
                "tests": ["cross_corr"]}
    expect_error("policy", plant=partial, detector=detector,
                 policy={"kind": "linear", "f": 0.2})
    scenario_from_dict(base_dict(plant=partial, detector=detector,
                                 policy={"kind": "linear", "f": -1.5}))
    # ARMAX: A(q) - f q^-delay B(q)
    armax = {"kind": "armax", "a": [-1.2], "b": [1.0], "c": [1.0], "delay": 1,
             "sigma_w2": 1.0}
    expect_error("policy", plant=armax, policy={"kind": "zero"})
    scenario_from_dict(base_dict(plant=armax, policy={"kind": "linear", "f": -0.8}))


def test_linear_gain_of_a_siso_plant_is_a_number():
    expect_error("policy.f", policy={"kind": "linear", "f": [-0.3]})
    expect_error("policy.f", policy={"kind": "linear", "f": float("inf")})


def test_shaper_must_fit_the_plant_at_load():
    expect_error("watermark.shaper", watermark={"sigma_e2": 1.0, "shaper": "arx"})
    expect_error(
        "watermark.shaper",
        plant={"kind": "arx", "a": [0.5], "b": [1.0, 0.5], "sigma_w2": 1.0},
        watermark={"sigma_e2": 1.0, "shaper": "armax"},
    )


def test_every_shipped_scenario_has_a_stable_loop():
    scenarios = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(scenarios.glob("*.yaml")):
        cfg = load_scenario(path)
        if cfg.policy.kind != "arx_deadbeat":
            f = 0.0 if cfg.policy.f is None else np.asarray(cfg.policy.f, dtype=float)
            assert cfg.plant.build().kernel.closed_loop_radius(f) <= 0.9, path.name


def test_build_attack_kinds():
    """The attack section becomes the kernels' attack data."""
    from dynwatermark.adversary import _attack_data

    rng = np.random.default_rng(0)
    cfg = scenario_from_dict(base_dict())
    form = cfg.plant.build().kernel
    assert _attack_data(cfg, form, rng) is None
    cfg = scenario_from_dict(
        base_dict(attack={"kind": "replay", "onset": 500, "record_len": 100})
    )
    assert _attack_data(cfg, form, rng) == ("replay", 500, 100)
    cfg = scenario_from_dict(base_dict(attack={"kind": "noise_sim", "onset": 500}))
    kind, onset, noise = _attack_data(cfg, form, rng)
    assert (kind, onset, len(noise)) == ("noise_sim", 500, cfg.horizon - 500)


# ---------------------------------------------------------------------------
# matched-family resolution
# ---------------------------------------------------------------------------


def test_resolve_watermark_matched_computes_variance():
    cfg = scenario_from_dict(
        base_dict(
            plant={"kind": "scalar", "a": 0.5, "b": 2.0, "sigma_w2": 1.0,
                   "w_family": "laplace"},
            watermark={"sigma_e2": 0.0, "family": "matched"},
        )
    )
    wm = resolve_watermark(cfg)
    assert wm.family == "laplace"
    assert wm.sigma_e2 == pytest.approx(0.25)  # sigma_w2 / b^2


def test_resolve_watermark_matched_rejects_conflicting_variance():
    cfg = scenario_from_dict(
        base_dict(
            plant={"kind": "scalar", "a": 0.5, "b": 2.0, "sigma_w2": 1.0},
            watermark={"sigma_e2": 1.0, "family": "matched"},
        )
    )
    with pytest.raises(ScenarioError, match="matched"):
        resolve_watermark(cfg)


def test_resolve_watermark_plain_passthrough():
    cfg = scenario_from_dict(base_dict())
    assert resolve_watermark(cfg) is cfg.watermark


def test_schema_version_constant():
    assert SCHEMA_VERSION == 1
