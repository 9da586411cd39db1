import dataclasses
import importlib.util
import json
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from dynwatermark import linsys
from dynwatermark.adversary import _attack_data, register_attack
from dynwatermark.detect import Threshold
from dynwatermark.harness import (
    _STEP_FIELDS,
    ChannelSpec,
    Trace,
    _block_rows,
    _layout,
    _oracle_distortion,
    _policy_data,
    _residual_streams,
    _simulate_lag,
    _simulate_ss,
    _Streams,
    _window_stats,
    calibrate_detector,
    channel_specs,
    export_trace,
    import_trace,
    oracle_metrics,
    run_scenario,
    stat_series,
    trace_equal,
)
from dynwatermark.linsys import PARTIAL_BURN_IN, LagForm
from dynwatermark.scenario import (
    AttackConfig,
    PolicyConfig,
    ScenarioError,
    load_scenario,
    resolve_watermark,
)
from dynwatermark.watermark import draw_iid

from attack_reference import reference_closed_loop, reference_lag_loop
from conftest import make_scenario

DATA = pathlib.Path(__file__).resolve().parent / "data"
SCENARIOS = DATA.parent.parent / "scenarios"


def residual_streams_of(trace):
    cfg = trace.config
    return _residual_streams(cfg, cfg.plant.build(), {
        "x": trace.x, "y": trace.y, "z": trace.z, "u_g": trace.u_g,
        "u": trace.u, "e_raw": trace.e_raw, "e_shaped": trace.e_shaped,
        "w": trace.w, "n": trace.n,
    })


def golden_config():
    """Fixed config behind tests/data/golden_scalar_trace.csv.

    Regenerate the file with scripts/make_golden_trace.py if the trace
    format itself changes (bump the schema version when doing so).
    """
    return make_scenario(
        name="golden",
        seed=7,
        horizon=301,
        detector={"window_len": 100, "alpha": 0.05, "n_cal": 200,
                  "tests": ["variance_wm", "cross_corr"]},
    )


def reference_configs():
    """One short attacked scenario per non-scalar class, behind the
    tests/data/reference_<kind>_trace.csv files written by
    scripts/make_golden_trace.py."""
    det = {"window_len": 100, "alpha": 0.01, "n_cal": 1000}
    return {
        "arx": make_scenario(
            name="reference-arx", seed=3, horizon=401, detector=det,
            plant={"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 1.0},
            policy={"kind": "arx_deadbeat"},
            watermark={"sigma_e2": 1.0},
            attack={"kind": "additive_estimated", "onset": 200},
        ),
        "armax": make_scenario(
            name="reference-armax", seed=4, horizon=401, detector=det,
            plant={"kind": "armax", "a": [0.5, -0.1], "b": [1.0, 0.5],
                   "c": [1.0, 0.3], "delay": 2, "sigma_w2": 1.0},
            policy={"kind": "linear", "f": -0.2},
            watermark={"sigma_e2": 1.0},
            attack={"kind": "noise_sim", "onset": 200},
        ),
        "partial": make_scenario(
            name="reference-partial", seed=5, horizon=401,
            plant={"kind": "partial", "A": [[0.9, 0.1], [0.0, 0.5]], "B": [1.0, 0.5],
                   "C": [1.0, 0.0], "sigma_w2": 1.0, "sigma_n2": 0.5},
            policy={"kind": "linear", "f": -0.3},
            watermark={"sigma_e2": 1.0},
            attack={"kind": "noise_sim", "onset": 200},
            detector={"window_len": 100, "alpha": 0.01, "n_cal": 1000, "burn_in": 20},
        ),
        "mimo": make_scenario(
            name="reference-mimo", seed=6, horizon=401, detector=det,
            plant={"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
                   "B": [[1.0, 0.0], [0.2, 1.0]], "sigma_w2": 1.0},
            policy={"kind": "linear", "f": [[-0.2, 0.0], [0.0, -0.1]]},
            watermark={"sigma_e2": 0.5},
            attack={"kind": "additive_estimated", "onset": 200},
        ),
    }


def threshold_configs():
    """Scenarios whose calibrated thresholds tests/data/reference_thresholds.json
    pins bit for bit: the five shipped scenarios, and one small Laplace-w
    config per null shape (scalar, matrix, decoupled), and a partial config
    with Laplace excitation.  Laplace w calibrates the scalar and matrix
    shapes from raw draws, but not the decoupled one, whose v is the Gaussian
    innovation; Laplace e keeps that shape on raw draws."""
    out = {p.stem: load_scenario(p) for p in sorted(SCENARIOS.glob("*.yaml"))}
    det = {"window_len": 50, "alpha": 0.01, "n_cal": 2000}
    out["laplace-scalar"] = make_scenario(
        name="laplace-scalar", horizon=400,
        plant={"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 1.0,
               "w_family": "laplace"},
        detector={**det, "tests": ["variance_wm", "variance_raw", "cross_corr", "nll"]},
    )
    out["laplace-mimo"] = make_scenario(
        name="laplace-mimo", horizon=400,
        plant={"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
               "B": [[1.0, 0.0], [0.2, 1.0]], "sigma_w2": 1.0, "w_family": "laplace"},
        policy={"kind": "zero"},
        watermark={"sigma_e2": 0.5},
        detector={**det, "tests": ["cov", "cross_corr", "nll", "cov_entries"]},
    )
    out["laplace-partial"] = make_scenario(
        name="laplace-partial", horizon=400,
        plant={"kind": "partial", "A": [[0.9]], "B": [1.0], "C": [1.0],
               "sigma_w2": 1.0, "sigma_n2": 1.0, "w_family": "laplace"},
        policy={"kind": "zero"},
        watermark={"sigma_e2": 1.0},
        detector={**det, "tests": ["cross_corr", "cov_entries", "cov", "nll"]},
    )
    out["laplace-e-partial"] = make_scenario(
        name="laplace-e-partial", horizon=400,
        plant={"kind": "partial", "A": [[0.9]], "B": [1.0], "C": [1.0],
               "sigma_w2": 1.0, "sigma_n2": 1.0},
        policy={"kind": "zero"},
        watermark={"sigma_e2": 1.0, "family": "laplace"},
        detector={**det, "tests": ["cross_corr", "cov_entries", "cov", "nll"]},
    )
    return out


def all_class_configs(horizon=400):
    """One honest scenario per plant class, small enough for unit tests."""
    det = {"window_len": 100, "alpha": 0.01, "n_cal": 1000}
    return {
        "scalar": make_scenario(horizon=horizon, detector=det),
        "arx": make_scenario(
            horizon=horizon,
            plant={"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 1.0},
            policy={"kind": "arx_deadbeat"},
            watermark={"sigma_e2": 0.25, "shaper": "arx"},
            detector=det,
        ),
        "armax": make_scenario(
            horizon=horizon,
            plant={"kind": "armax", "a": [0.5], "b": [1.0, 0.5], "c": [1.0, 0.3],
                   "delay": 1, "sigma_w2": 1.0},
            policy={"kind": "zero"},
            watermark={"sigma_e2": 0.25, "shaper": "armax"},
            detector=det,
        ),
        "partial": make_scenario(
            horizon=horizon,
            plant={"kind": "partial", "A": [[0.9]], "B": [1.0], "C": [1.0],
                   "sigma_w2": 1.0, "sigma_n2": 1.0},
            policy={"kind": "zero"},
            detector={"window_len": 100, "alpha": 0.01, "n_cal": 1000,
                      "tests": ["cross_corr"]},
        ),
        "mimo": make_scenario(
            horizon=horizon,
            plant={"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
                   "B": [[1.0, 0.0], [0.0, 1.0]], "sigma_w2": 1.0},
            policy={"kind": "linear", "f": [[-0.2, 0.0], [0.0, -0.2]]},
            watermark={"sigma_e2": 0.5},
            detector=det,
        ),
    }


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_bit_exactly():
    cfg = make_scenario(horizon=500)
    t1 = run_scenario(cfg)
    t2 = run_scenario(cfg)
    assert trace_equal(t1, t2)


def test_seed_override_changes_realization():
    cfg = make_scenario(horizon=500)
    t1 = run_scenario(cfg, seed=1)
    t2 = run_scenario(cfg, seed=2)
    assert not trace_equal(t1, t2)
    assert not np.array_equal(t1.w, t2.w)


@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_determinism_all_classes(kind):
    cfg = all_class_configs()[kind]
    assert trace_equal(run_scenario(cfg), run_scenario(cfg))


@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_zero_policy_is_positive_zero(kind):
    """The zero policy adds nothing, not even a negative zero, to the input."""
    cfg = dataclasses.replace(all_class_configs()[kind], policy=PolicyConfig("zero"))
    trace = run_scenario(cfg)
    assert not np.signbit(trace.u_g).any()
    assert trace.u.tobytes() == trace.e_shaped.tobytes()


# ---------------------------------------------------------------------------
# the float loop of a noisy-output plant against a per-step numpy reference
# ---------------------------------------------------------------------------


def numpy_partial_loop(cfg, seed):
    """Closed loop of a partial plant stepped with numpy arrays, drawing the
    same streams as the harness: (x, y, z, u_g, u)."""
    form = cfg.plant.build().kernel
    A, B, C = form.A, form.B, form.C
    T, p = cfg.horizon, A.shape[0]
    streams = _Streams(seed, 1)
    wm = resolve_watermark(cfg)
    w = np.asarray(draw_iid(cfg.plant.w_family, form.sigma_w2, streams.process, (T, p)))
    w[0] = 0.0
    e = np.asarray(draw_iid(wm.family, wm.sigma_e2, streams.excitation[0], T))
    n = np.asarray(draw_iid("gaussian", form.sigma_n2, streams.measurement, T))
    f = 0.0 if cfg.policy.kind == "zero" else float(cfg.policy.f)
    attack = cfg.attack
    first_replayed = (attack.onset or 0) - (attack.record_len or 0)
    x, x_sim = np.zeros(p), np.zeros(p)
    xs, ys, zs, ugs, us = [], [], [], [], []
    for t in range(T):
        xs.append(x)
        ys.append(float(C @ x) + float(n[t]))
        if attack.kind == "honest" or t < attack.onset:
            zs.append(ys[t])
        elif attack.kind == "replay":
            zs.append(zs[first_replayed + (t - attack.onset) % attack.record_len])
        else:  # noise_sim: the attacker's own copy of the loop, w' then n'
            w_sim = draw_iid(cfg.plant.w_family, form.sigma_w2, streams.attack, p)
            x_sim = A @ x_sim + B @ np.atleast_1d(ugs[t - 1]) + w_sim
            n_sim = float(draw_iid("gaussian", form.sigma_n2, streams.attack))
            zs.append(float(C @ x_sim + n_sim))
        ugs.append(f * zs[t])
        us.append(ugs[t] + float(e[t]))
        if t < T - 1:
            x = A @ x + B @ np.atleast_1d(us[t]) + w[t + 1]
    return np.array(xs), *(np.array(v) for v in (ys, zs, ugs, us))


PARTIAL_PLANTS = {
    1: {"kind": "partial", "A": [[0.9]], "B": [1.0], "C": [1.0],
        "sigma_w2": 1.0, "sigma_n2": 1.0},
    2: {"kind": "partial", "A": [[0.9, 0.1], [0.0, 0.5]], "B": [1.0, 0.5],
        "C": [1.0, 0.0], "sigma_w2": 1.0, "sigma_n2": 0.5},
}
PARTIAL_ATTACKS = {
    "honest": {"kind": "honest"},
    "replay": {"kind": "replay", "onset": 200, "record_len": 100},
    "noise_sim": {"kind": "noise_sim", "onset": 200},
}


@pytest.mark.parametrize("policy", [{"kind": "zero"}, {"kind": "linear", "f": -0.3}],
                         ids=["zero", "linear"])
@pytest.mark.parametrize("attack", sorted(PARTIAL_ATTACKS))
@pytest.mark.parametrize("p", [1, 2])
def test_partial_loop_matches_numpy_reference(p, attack, policy):
    cfg = make_scenario(
        seed=9, horizon=400, plant=PARTIAL_PLANTS[p], policy=policy,
        attack=PARTIAL_ATTACKS[attack],
        detector={"window_len": 100, "alpha": 0.05, "n_cal": 200, "burn_in": 20},
    )
    trace = run_scenario(cfg)
    got = (trace.x, trace.y, trace.z, trace.u_g, trace.u)
    for name, a, b in zip(("x", "y", "z", "u_g", "u"), got, numpy_partial_loop(cfg, 9)):
        assert a.shape == b.shape, name
        if p == 1:
            assert np.array_equal(a, b), name
        else:
            # numpy may round a row sum of two products differently
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


@pytest.mark.parametrize("w_family", ["laplace", "uniform"])
@pytest.mark.parametrize("p", [1, 2])
def test_partial_noise_sim_matches_numpy_reference_for_non_gaussian_noise(p, w_family):
    """A non-Gaussian w' and the Gaussian n' are drawn step by step, w' first."""
    cfg = make_scenario(
        seed=9, horizon=400, plant=dict(PARTIAL_PLANTS[p], w_family=w_family),
        attack=PARTIAL_ATTACKS["noise_sim"],
        detector={"window_len": 100, "alpha": 0.05, "n_cal": 200, "burn_in": 20},
    )
    trace = run_scenario(cfg)
    got = (trace.x, trace.y, trace.z, trace.u_g, trace.u)
    for name, a, b in zip(("x", "y", "z", "u_g", "u"), got, numpy_partial_loop(cfg, 9)):
        if p == 1:
            assert np.array_equal(a, b), name
        else:
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


# ---------------------------------------------------------------------------
# generated state-space kernels against the hand-written reference loop
# ---------------------------------------------------------------------------


@register_attack("grid_custom_test")
def _grid_custom(view, rng, scale=0.5):
    """Shrink the measurement toward the last report and add attack noise."""
    t = view.t
    y_t = np.asarray(view.y[t], dtype=float)
    return scale * y_t + 0.25 * np.asarray(view.z[t - 1]) + rng.normal(size=y_t.shape)


def _state_space_scenario(sensor, p, m, law, attack, w_family, horizon=300):
    """A stable p-state plant: a noisy output (m = 1) or a measured state with
    m actuators, under the zero or a linear law."""
    A = 0.5 * np.eye(p) + 0.1 * np.eye(p, k=1) - 0.05 * np.eye(p, k=-1)
    B = 1.0 / (1.0 + np.add.outer(np.arange(p), np.arange(m)))
    if sensor == "partial":
        plant = {"kind": "partial", "A": A.tolist(), "B": B[:, 0].tolist(),
                 "C": (1.0 / (1.0 + np.arange(p))).tolist(), "sigma_n2": 0.5}
        f = -0.2
    else:
        plant = {"kind": "mimo", "A": A.tolist(), "B": B.tolist()}
        f = (-0.1 * B.T).tolist()
    onset = horizon // 2
    attacks = {
        "honest": {"kind": "honest"},
        "replay": {"kind": "replay", "onset": onset, "record_len": 7},
        "noise_sim": {"kind": "noise_sim", "onset": onset},
        "additive_estimated": {"kind": "additive_estimated", "onset": onset},
        "custom": {"kind": "grid_custom_test", "onset": onset, "params": {"scale": 0.75}},
    }
    return make_scenario(
        seed=p + 10 * m, horizon=horizon,
        plant=dict(plant, sigma_w2=1.0, w_family=w_family),
        policy={"kind": "linear", "f": f} if law == "linear" else {"kind": "zero"},
        watermark={"sigma_e2": 0.5},
        attack=attacks[attack],
        detector={"window_len": 100, "alpha": 0.05, "n_cal": 200, "tests": ["cross_corr"]},
    )


def _both_loops(cfg):
    """The arrays of the scenario kernel's simulator and of its reference
    loop, each from fresh streams of the scenario's seed."""
    out = []
    lag = isinstance(cfg.plant.build().kernel, LagForm)
    for simulate in (_simulate_lag, reference_lag_loop) if lag else (
            _simulate_ss, reference_closed_loop):
        plant = cfg.plant.build()
        form = plant.kernel
        streams = _Streams(cfg.seed, form.n_inputs)
        out.append(simulate(
            form, plant, _policy_data(cfg, form),
            _attack_data(cfg, form, streams.attack), resolve_watermark(cfg),
            cfg.plant.w_family, streams, cfg.horizon,
        ))
    return out


def _assert_byte_equal(got, want):
    assert got.keys() == want.keys()
    for name, a in got.items():
        b = want[name]
        if b is None:
            assert a is None, name
        else:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


STATE_SPACE_CASES = [
    (sensor, p, m, attack)
    for sensor, p, m in [("partial", p, 1) for p in (1, 2, 3)]
    + [("mimo", p, m) for p in (1, 2, 3) for m in (1, 2)]
    for attack in ("honest", "replay", "noise_sim", "additive_estimated", "custom")
    if not (sensor == "partial" and attack == "additive_estimated")
]


@pytest.mark.filterwarnings("ignore:rank\\(B\\) < state dimension")
@pytest.mark.parametrize("law", ["zero", "linear"])
@pytest.mark.parametrize("sensor,p,m,attack", STATE_SPACE_CASES)
def test_state_space_kernel_is_byte_equal_to_the_reference_loop(sensor, p, m, attack, law):
    """Every array the generated kernel returns is the hand-written loop's,
    byte for byte, under Gaussian and Laplace process noise."""
    for w_family in ("gaussian", "laplace"):
        cfg = _state_space_scenario(sensor, p, m, law, attack, w_family)
        _assert_byte_equal(*_both_loops(cfg))


@pytest.mark.filterwarnings("ignore:rank\\(B\\) < state dimension")
def test_forty_state_kernel_is_byte_equal_to_the_reference_loop():
    cfg = _state_space_scenario("mimo", 40, 2, "linear", "additive_estimated", "gaussian",
                                horizon=60)
    _assert_byte_equal(*_both_loops(cfg))


LAG_PLANTS = {
    "scalar": {"kind": "scalar", "a": 0.5, "b": 1.0},
    "arx1": {"kind": "arx", "a": [0.4], "b": [1.0]},
    "arx2": {"kind": "arx", "a": [-0.5, 0.2], "b": [1.0, 0.4]},
    "arx3": {"kind": "arx", "a": [0.3, -0.2, 0.1], "b": [0.8, -0.3, 0.1]},
    "armax1": {"kind": "armax", "a": [-0.5], "b": [1.0], "c": [1.0], "delay": 1},
    "armax2": {"kind": "armax", "a": [-0.6, 0.2], "b": [1.0, 0.5], "c": [1.0, 0.4], "delay": 2},
    "armax3": {"kind": "armax", "a": [0.3, -0.1, 0.05], "b": [0.9, -0.2],
               "c": [1.0, -0.3, 0.2], "delay": 3},
}


def _lag_scenario(plant, law, attack, w_family, shaper, horizon=300, f=-0.2):
    """A stable lag-polynomial plant under the zero, a linear or the
    arx_deadbeat law."""
    onset = horizon // 2
    attacks = {
        "honest": {"kind": "honest"},
        "replay": {"kind": "replay", "onset": onset, "record_len": 7},
        "noise_sim": {"kind": "noise_sim", "onset": onset},
        "additive_estimated": {"kind": "additive_estimated", "onset": onset},
        "custom": {"kind": "grid_custom_test", "onset": onset, "params": {"scale": 0.75}},
    }
    policy = {"kind": law, "f": f} if law == "linear" else {"kind": law}
    return make_scenario(
        seed=3, horizon=horizon,
        plant=dict(plant, sigma_w2=1.0, w_family=w_family), policy=policy,
        watermark={"sigma_e2": 0.5, "shaper": shaper}, attack=attacks[attack],
        detector={"window_len": 100, "alpha": 0.05, "n_cal": 200, "tests": ["cross_corr"]},
    )


LAG_CASES = [
    (name, law, attack)
    for name in LAG_PLANTS
    for law in ("zero", "linear", "arx_deadbeat")
    for attack in ("honest", "replay", "noise_sim", "additive_estimated", "custom")
    if (law != "arx_deadbeat" or name.startswith("arx"))
    and (attack != "additive_estimated" or not name.startswith("armax"))
]


@pytest.mark.parametrize("name,law,attack", LAG_CASES)
def test_lag_kernel_is_byte_equal_to_the_reference_loop(name, law, attack):
    """Every array the generated kernel returns is the hand-written loop's,
    byte for byte, under Gaussian and Laplace process noise, with the
    excitation shaped or not."""
    for w_family in ("gaussian", "laplace"):
        for shaper in ("auto", "none"):
            cfg = _lag_scenario(LAG_PLANTS[name], law, attack, w_family, shaper)
            _assert_byte_equal(*_both_loops(cfg))


def test_three_hundred_lag_kernel_is_byte_equal_to_the_reference_loop():
    lags = np.arange(300)
    plant = {"kind": "arx", "a": (0.3 ** (lags + 1)).tolist(), "b": (0.5**lags).tolist()}
    cfg = _lag_scenario(plant, "arx_deadbeat", "noise_sim", "gaussian", "auto", horizon=400)
    _assert_byte_equal(*_both_loops(cfg))


def _assert_cached_by_shape(monkeypatch, name, base, other, values):
    """``base`` and ``other`` share one compiled kernel ``name``, whose source
    is the same text for both and holds none of ``values`` nor the custom
    attack's name."""
    source, sources = linsys._SOURCES[name], []

    def record(*key):
        sources.append(source(*key))
        return sources[-1]

    monkeypatch.setitem(linsys._SOURCES, name, record)
    linsys._kernel.cache_clear()
    for cfg in (base, other):
        _both_loops(cfg)
    info = linsys._kernel.cache_info()
    assert (info.misses, info.hits, len(sources)) == (1, 1, 1)
    linsys._kernel.cache_clear()
    _both_loops(other)
    assert len(sources) == 2 and sources[0] == sources[1]
    assert "grid_custom_test" not in sources[0]
    for value in values:
        assert repr(value) not in sources[0]


def test_state_space_kernels_are_cached_by_shape_and_hold_no_scenario_value(monkeypatch):
    """Two plants that differ only in A, B, C and F share one compiled
    kernel, whose source is the same text for both: the values arrive as
    arguments.  A custom attack's name never enters the source either."""
    base = _state_space_scenario("partial", 2, 1, "linear", "custom", "gaussian")
    other = make_scenario(
        seed=base.seed, horizon=base.horizon,
        plant={"kind": "partial", "A": [[0.3, 0.2], [-0.1, 0.6]], "B": [0.7, -0.4],
               "C": [0.25, 1.2], "sigma_w2": 1.0, "sigma_n2": 0.5},
        policy={"kind": "linear", "f": -0.15},
        watermark={"sigma_e2": 0.5},
        attack={"kind": "grid_custom_test", "onset": base.horizon // 2, "params": {"scale": 0.75}},
        detector={"window_len": 100, "alpha": 0.05, "n_cal": 200, "tests": ["cross_corr"]},
    )
    _assert_cached_by_shape(monkeypatch, "closed_loop", base, other, (0.3, 0.7, 0.25, 0.15, 1.2))


def test_lag_kernels_are_cached_by_shape_and_hold_no_scenario_value(monkeypatch):
    """The same for two ARMAX plants of one shape that differ in a, b, c and
    f.  No shaper runs, so the lag loop is the only kernel compiled."""
    base = _lag_scenario(LAG_PLANTS["armax2"], "linear", "custom", "gaussian", "none")
    plant = {"kind": "armax", "a": [-0.35, 0.15], "b": [0.7, 0.25], "c": [1.0, 0.45],
             "delay": 2}
    other = _lag_scenario(plant, "linear", "custom", "gaussian", "none", f=-0.15)
    _assert_cached_by_shape(monkeypatch, "lag_loop", base, other, (0.35, 0.15, 0.7, 0.25, 0.45))


def test_negative_seed_is_refused_like_the_loader_refuses_it():
    cfg = make_scenario(horizon=600, detector={"window_len": 200, "alpha": 0.05, "n_cal": 200})
    for call in (run_scenario, calibrate_detector):
        with pytest.raises(ScenarioError) as exc:
            call(cfg, seed=-1)
        assert str(exc.value) == "seed: must be >= 0"
    with pytest.raises(ScenarioError) as exc:
        make_scenario(seed=-2)
    assert str(exc.value) == "seed: must be >= 0"


# ---------------------------------------------------------------------------
# ground-truth distortion on honest runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_honest_distortion_is_numerically_zero(kind):
    # the decomposition reproduces the simulator step-for-step, so an
    # honest run leaves only accumulation-order noise (<< 1e-10)
    cfg = all_class_configs()[kind]
    trace = run_scenario(cfg)
    v = _oracle_distortion(cfg.plant.build(), trace.z - trace.y)
    assert float(np.max(np.abs(v))) <= 1e-10


@pytest.mark.parametrize(
    "plant",
    [
        {"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 1.0},
        {"kind": "armax", "a": [0.5], "b": [1.0, 0.5], "c": [1.0, 0.3],
         "delay": 2, "sigma_w2": 1.0},
    ],
    ids=["arx", "armax"],
)
def test_honest_unshaped_run_reports_zero_distortion(plant):
    # without the shaper the plant receives B(q) e, not gain * C(q) e; the
    # distortion is still a filter of z - y, which an honest sensor keeps at 0
    cfg = make_scenario(
        horizon=1001, plant=plant, policy={"kind": "zero"},
        watermark={"sigma_e2": 1.0, "shaper": "none"},
    )
    rep = oracle_metrics(run_scenario(cfg))
    assert rep.distortion_msq == 0.0
    assert rep.distortion_power == 0.0


def test_attacked_distortion_is_nonzero_and_post_onset_only():
    cfg = make_scenario(
        horizon=600, attack={"kind": "replay", "onset": 300, "record_len": 100}
    )
    trace = run_scenario(cfg)
    v = _oracle_distortion(cfg.plant.build(), trace.z - trace.y)
    # v[k] covers the step k -> k+1; reports differ from t=onset on
    assert float(np.max(np.abs(v[: 300 - 1]))) <= 1e-12
    assert float(np.mean(v[300:] ** 2)) > 0.01


def test_scalar_report_error_follows_distortion_recursion():
    cfg = make_scenario(
        horizon=600, attack={"kind": "replay", "onset": 300, "record_len": 100}
    )
    trace = run_scenario(cfg)
    plant = cfg.plant.build()
    v = _oracle_distortion(plant, trace.z - trace.y)
    d = trace.z - trace.x
    # d[k+1] = a d[k] + v[k+1-1] with d[0] = 0
    pred = np.empty_like(d)
    pred[0] = 0.0
    for k in range(d.shape[0] - 1):
        pred[k + 1] = plant.a * d[k] + v[k]
    np.testing.assert_allclose(d, pred, atol=1e-10)


# ---------------------------------------------------------------------------
# attack/real split of the timeline
# ---------------------------------------------------------------------------


def test_pre_onset_windows_match_honest_run():
    det = {"window_len": 100, "alpha": 0.01, "n_cal": 1000}
    honest = make_scenario(horizon=900, detector=det)
    attacked = make_scenario(
        horizon=900, detector=det,
        attack={"kind": "noise_sim", "onset": 450},
    )
    th = run_scenario(honest)
    ta = run_scenario(attacked)
    # identical RNG layout => identical plant noise, watermark, and pre-onset
    # reports, so every window that closes before the onset matches bit-exactly
    np.testing.assert_array_equal(th.z[:450], ta.z[:450])
    for wh, wa in zip(th.windows, ta.windows):
        if wa.end_t < 450:
            assert wh.values == wa.values


def test_run_report_counts_alarms_against_onset():
    cfg = make_scenario(
        horizon=2001,
        attack={"kind": "replay", "onset": 1000, "record_len": 500},
    )
    trace = run_scenario(cfg)
    rep = oracle_metrics(trace)
    assert rep.n_windows == 4
    assert rep.false_alarms_pre_onset == 0
    assert rep.first_alarm is not None and rep.first_alarm > 1000
    assert rep.detection_delay == rep.first_alarm - 1000


def test_honest_run_report_has_no_delay():
    rep = oracle_metrics(run_scenario(make_scenario(horizon=1001)))
    assert rep.onset is None
    assert rep.detection_delay is None
    assert rep.false_alarms_pre_onset == rep.n_alarms


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_calibration_matches_run_thresholds():
    cfg = make_scenario(horizon=600)
    th = calibrate_detector(cfg)
    trace = run_scenario(cfg)
    assert set(th) == set(trace.thresholds)
    for name in th:
        assert th[name].lo == trace.thresholds[name].lo
        assert th[name].hi == trace.thresholds[name].hi


def test_shared_thresholds_reused_across_seeds():
    cfg = make_scenario(horizon=600)
    th = calibrate_detector(cfg)
    t1 = run_scenario(cfg, seed=11, thresholds=th)
    t2 = run_scenario(cfg, seed=12, thresholds=th)
    assert t1.thresholds is th and t2.thresholds is th
    assert not trace_equal(t1, t2)


def test_incomplete_thresholds_rejected():
    cfg = make_scenario(horizon=600)
    th = calibrate_detector(cfg)
    th.pop("variance_wm")
    with pytest.raises(ValueError, match="variance_wm"):
        run_scenario(cfg, thresholds=th)


# ---------------------------------------------------------------------------
# residual whiteness under honest operation
# ---------------------------------------------------------------------------


def test_honest_watermark_residual_is_white():
    cfg = make_scenario(horizon=20001, detector={"window_len": 1000,
                                                 "alpha": 0.01, "n_cal": 1000})
    trace = run_scenario(cfg)
    r = residual_streams_of(trace)["r_wm"]
    r = r - r.mean()
    n = r.shape[0]
    denom = float(np.dot(r, r))
    for lag in range(1, 6):
        rho = float(np.dot(r[lag:], r[:-lag])) / denom
        assert abs(rho) < 4.0 / np.sqrt(n), f"lag {lag}: {rho}"


def test_matched_armax_raw_residual_doubles():
    """An ARMAX watermark reaches the prediction error with gain 1, so the
    matched excitation has the process-noise variance and r_raw twice it."""
    cfg = make_scenario(
        horizon=40_000,
        plant={"kind": "armax", "a": [0.5], "b": [2.0, 0.5], "c": [1.0, 0.3],
               "delay": 1, "sigma_w2": 1.0},
        policy={"kind": "zero"},
        watermark={"sigma_e2": 0.0, "family": "matched"},
        detector={"window_len": 1000, "alpha": 0.05, "n_cal": 200},
    )
    assert resolve_watermark(cfg).sigma_e2 == 1.0
    r_raw = residual_streams_of(run_scenario(cfg))["r_raw"]
    assert float(np.var(r_raw)) == pytest.approx(2.0, rel=0.03)


@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_honest_report_power_equals_state_power(kind):
    # honest sensors forward the measurement unchanged, so the reported and
    # true output streams are the same object values
    trace = run_scenario(all_class_configs()[kind])
    ref = trace.y if kind == "partial" else trace.x
    assert np.array_equal(trace.z, ref)


def test_honest_window_means_track_noise_variance_across_seeds():
    from scipy.stats import chi2

    cfg = make_scenario(horizon=2001)
    th = calibrate_detector(cfg)
    n = 2000  # residual samples per run
    lo = chi2.ppf(0.025, n) / n
    hi = chi2.ppf(0.975, n) / n
    inside = 0
    for seed in range(20):
        r = residual_streams_of(run_scenario(cfg, seed=seed, thresholds=th))["r_wm"]
        inside += lo <= float(np.mean(r * r)) <= hi
    assert inside >= 19


# ---------------------------------------------------------------------------
# alarm-rate sanity over a small seed sweep
# ---------------------------------------------------------------------------


def test_seed_sweep_separates_honest_from_attacked():
    det = {"window_len": 250, "alpha": 0.01, "n_cal": 1000}
    honest = make_scenario(horizon=1501, detector=det)
    attacked = make_scenario(
        horizon=1501, detector=det,
        attack={"kind": "replay", "onset": 750, "record_len": 250},
    )
    th = calibrate_detector(honest)
    honest_alarms = 0
    detected = 0
    for seed in range(8):
        rep_h = oracle_metrics(run_scenario(honest, seed=seed, thresholds=th))
        rep_a = oracle_metrics(run_scenario(attacked, seed=seed, thresholds=th))
        honest_alarms += rep_h.n_alarms
        detected += rep_a.detection_delay is not None
    # 8 seeds x 6 windows x 4 channels at alpha=0.01: a couple of false
    # alarms are plausible, a pile of them is not
    assert honest_alarms <= 4
    assert detected >= 7


# ---------------------------------------------------------------------------
# series access and report serialization
# ---------------------------------------------------------------------------


def test_stat_series_matches_windows():
    trace = run_scenario(make_scenario(horizon=2001))
    ends, vals = stat_series(trace, "variance_wm")
    assert ends.tolist() == [wrec.end_t for wrec in trace.windows]
    assert vals.tolist() == [wrec.values["variance_wm"] for wrec in trace.windows]


def test_stat_series_unknown_channel():
    trace = run_scenario(make_scenario(horizon=2001))
    with pytest.raises(ValueError, match="no_such"):
        stat_series(trace, "no_such")


def test_run_report_json_roundtrip():
    rep = oracle_metrics(run_scenario(make_scenario(horizon=1001)))
    back = json.loads(rep.to_json())
    assert back == rep.to_dict()
    assert back["schema_version"] == 1
    assert back["plant_kind"] == "scalar"


def test_detect_pass_alarms_per_window():
    """Each complete window after the burn-in is evaluated once and alarms
    where its statistic leaves the band; a trailing partial window is not
    evaluated."""
    cfg = make_scenario(detector={"window_len": 4, "alpha": 0.01, "n_cal": 1000})
    r = np.array([9.0, 9.0] + [1.0] * 4 + [2.0] * 4 + [1.0] * 4 + [3.0] * 4 + [5.0])
    streams = {"start": 1, "burn": 2, "r_wm": r, "e": np.zeros_like(r)}
    spec = ChannelSpec("variance_wm", "variance")
    th = {"variance_wm": Threshold("variance", 0.01, hi=2.0, lo=0.5)}
    ends, stats = _window_stats(cfg, streams, [spec])
    alarms = th["variance_wm"].exceeded(stats["variance_wm"], end_t=ends)
    assert ends.tolist() == [6, 10, 14, 18]
    assert stats["variance_wm"].tolist() == [1.0, 4.0, 1.0, 9.0]
    assert alarms.tolist() == [False, True, False, True]


# ---------------------------------------------------------------------------
# trace export / import
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_export_import_roundtrip_bit_exact(kind, tmp_path):
    cfg = all_class_configs()[kind]
    trace = run_scenario(cfg)
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    again = import_trace(path, cfg)
    assert trace_equal(trace, again)
    # and a second export of the imported trace is byte-identical
    path2 = tmp_path / "trace2.csv"
    export_trace(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_export_against_golden_file(tmp_path):
    golden = DATA / "golden_scalar_trace.csv"
    trace = run_scenario(golden_config())
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    assert path.read_bytes() == golden.read_bytes()


def _read_trace_text(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return lines[0], header, {name: [r[i] for r in rows] for i, name in enumerate(header)}


@pytest.mark.parametrize("kind", ["arx", "armax", "partial", "mimo"])
def test_matches_reference_trace(kind, tmp_path):
    """Each class reproduces its stored attacked run: step columns, window
    ids and alarm flags exactly, statistics within 1e-12 of the channel's
    threshold."""
    cfg = reference_configs()[kind]
    path = tmp_path / "trace.csv"
    export_trace(run_scenario(cfg), path)
    meta, header, got = _read_trace_text(path)
    ref_meta, ref_header, ref = _read_trace_text(DATA / f"reference_{kind}_trace.csv")
    assert (meta, header) == (ref_meta, ref_header)
    his = {name: th.hi for name, th in calibrate_detector(cfg).items()}
    for name in header:
        if not name.startswith("stat_"):
            assert got[name] == ref[name], name
            continue
        filled = [i for i, v in enumerate(ref[name]) if v != ""]
        assert [i for i, v in enumerate(got[name]) if v != ""] == filled, name
        a = np.array([float(got[name][i]) for i in filled])
        b = np.array([float(ref[name][i]) for i in filled])
        scale = his[name[len("stat_"):]]
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * scale, name


def _golden_script():
    script = DATA.parent.parent / "scripts" / "make_golden_trace.py"
    spec = importlib.util.spec_from_file_location("make_golden_trace", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_trace_check_writes_nothing(capsys):
    module = _golden_script()
    before = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in DATA.iterdir()}
    module.main(["--check"])
    lines = capsys.readouterr().out.splitlines()
    # indented lines detail the columns of a file that differs
    verdicts = dict(line.split(": ") for line in lines if not line.startswith(" "))
    assert set(verdicts) == set(before)
    assert verdicts["golden_scalar_trace.csv"] == "identical"
    assert {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in DATA.iterdir()} == before


def test_calibrated_thresholds_match_the_pinned_file():
    """Every threshold of ``threshold_configs`` is bit-equal to the stored one."""
    module = _golden_script()
    fresh = module.thresholds_text(module.reference_thresholds())
    assert fresh == (DATA / module.THRESHOLDS).read_text(encoding="utf-8")


def test_golden_trace_check_fails_on_a_threshold_one_bit_off(monkeypatch, capsys):
    module = _golden_script()
    pinned = module.reference_thresholds()
    th = pinned["laplace-mimo"]["cov"]
    th["hi"] = float(np.nextafter(th["hi"], np.inf))
    monkeypatch.setattr(module, "reference_thresholds", lambda: pinned)
    assert module.main(["--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"{module.THRESHOLDS}: differs" in lines
    assert "  laplace-mimo thresholds differ" in lines


def test_golden_trace_check_names_differing_columns(tmp_path):
    stored = DATA / "golden_scalar_trace.csv"
    lines = stored.read_text().splitlines()
    z_col = lines[1].split(",").index("z")
    z_max = max(abs(float(ln.split(",")[z_col])) for ln in lines[2:])
    row = lines[10].split(",")
    row[z_col] = repr(float(row[z_col]) + 0.25 * z_max)
    lines[10] = ",".join(row)
    fresh = tmp_path / "trace.csv"
    fresh.write_text("\n".join(lines) + "\n")
    [(name, rel)] = _golden_script().column_deltas(fresh, stored)
    assert name == "z" and rel == pytest.approx(0.25, rel=1e-12)


def test_import_golden_file():
    trace = import_trace(DATA / "golden_scalar_trace.csv", golden_config())
    assert trace.seed == 7
    assert trace.horizon == 301
    assert len(trace.windows) == 3
    assert trace_equal(trace, run_scenario(golden_config()))


@pytest.mark.parametrize("kind", ["arx", "armax", "partial", "mimo"])
def test_import_reference_file(kind):
    """Each stored reference trace imports, its statistics recomputed exactly."""
    cfg = reference_configs()[kind]
    trace = import_trace(DATA / f"reference_{kind}_trace.csv", cfg)
    assert trace_equal(trace, run_scenario(cfg))


def test_import_rejects_tampered_state(tmp_path):
    cfg = make_scenario(horizon=400)
    path = tmp_path / "trace.csv"
    export_trace(run_scenario(cfg), path)
    lines = path.read_text().splitlines()
    # corrupt one measurement mid-stream; the plant recursion must notice
    row = lines[200].split(",")
    row[1] = repr(float(row[1]) + 0.5)
    lines[200] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="self-check"):
        import_trace(path, cfg)


@pytest.fixture(scope="module")
def arx_additive_export(tmp_path_factory):
    """The shipped arx_additive scenario (window_len 500) and its exported
    trace's lines."""
    cfg = load_scenario(SCENARIOS / "arx_additive.yaml")
    path = tmp_path_factory.mktemp("arx") / "trace.csv"
    export_trace(run_scenario(cfg), path)
    return cfg, path.read_text().splitlines()


def _cell(lines, t, name):
    """The text of column ``name`` at step ``t`` of an exported trace's lines."""
    return lines[2 + t].split(",")[lines[1].split(",").index(name)]


def _edited(lines, edits):
    """``lines`` with cells replaced: {(t, column): text}."""
    header = lines[1].split(",")
    out = list(lines)
    for (t, name), text in edits.items():
        row = out[2 + t].split(",")
        row[header.index(name)] = text
        out[2 + t] = ",".join(row)
    return out


def _edit_cells(lines, path, edits):
    """Write ``lines`` to ``path`` with cells replaced: {(t, column): text}."""
    path.write_text("\n".join(_edited(lines, edits)) + "\n")


def test_import_rejects_swapped_window_ids(arx_additive_export, tmp_path):
    """Rows t=10 and t=600 lie in windows 0 and 1: swapping their ids keeps
    500 rows per window but breaks the layout the detector produces."""
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    col = lines[1].split(",").index("window_id")
    ids = {t: lines[2 + t].split(",")[col] for t in (10, 600)}
    assert ids == {10: "0", 600: "1"}
    _edit_cells(lines, path, {(10, "window_id"): "1", (600, "window_id"): "0"})
    with pytest.raises(ValueError, match="column window_id holds '1' at t=10"):
        import_trace(path, cfg)


def test_import_checks_every_row_of_a_window(arx_additive_export, tmp_path):
    """A statistic edited on a row other than its window's last is refused."""
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    _edit_cells(lines, path, {(1, "stat_nll"): "0.5"})
    with pytest.raises(ValueError, match="column stat_nll holds '0.5' at t=1"):
        import_trace(path, cfg)


def test_import_rejects_non_finite_statistic(arx_additive_export, tmp_path):
    """Statistics are recomputed and compared column by column in header
    order: the first column that differs is named at its first differing row."""
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    # rows 500 and 1000 end windows 0 and 1
    _edit_cells(lines, path, {
        (1000, "stat_cross_corr"): "nan", (500, "stat_variance_wm"): "inf",
        (500, "stat_variance_raw"): "-inf",
    })
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == (
        f"{path}: column stat_cross_corr holds 'nan' at t=1000, "
        f"where its window layout gives {_cell(lines, 1000, 'stat_cross_corr')!r}"
    )


TAMPERINGS = ("statistic", "report", "excitation", "residual_start")


def tampered(lines, trace, how):
    """The lines of ``trace``'s export with one edit that import refuses:
    window 1's first statistic raised by 0.25 on each of its rows, a report
    (z or z_0) or raw excitation (e_raw or e_raw_0) cell inside window 1
    raised by 1.0, residual_start raised by 1, or ("t") a step cell inside
    window 1 that is not its row's step."""
    if how == "residual_start":
        start = trace.residual_start
        meta = lines[0].replace(f"residual_start={start} ", f"residual_start={start + 1} ")
        return [meta, *lines[1:]]
    end, l = int(trace.window_ends[1]), trace.config.detector.window_len
    if how == "t":
        return _edited(lines, {(end - 10, "t"): "banana"})
    if how == "statistic":
        ch = trace.channel_names[0]
        text = repr(float(trace.window_stats[ch][1]) + 0.25)
        edits = {(t, f"stat_{ch}"): text for t in range(end - l + 1, end + 1)}
    else:
        name = {"report": "z", "excitation": "e_raw"}[how]
        name += "" if trace.z.ndim == 1 else "_0"
        edits = {(end - 10, name): repr(float(_cell(lines, end - 10, name)) + 1.0)}
    return _edited(lines, edits)


@pytest.fixture(scope="module")
def class_exports(tmp_path_factory):
    """Each plant class's run and its exported trace's lines."""
    out = {}
    for kind, cfg in all_class_configs().items():
        path = tmp_path_factory.mktemp(kind) / "trace.csv"
        trace = run_scenario(cfg)
        export_trace(trace, path)
        out[kind] = trace, path.read_text().splitlines()
    return out


@pytest.mark.parametrize("how", TAMPERINGS)
@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_import_refuses_statistics_the_step_data_does_not_give(
    kind, how, class_exports, tmp_path
):
    """Statistics are recomputed from the step data: an edited statistic, or
    an edited step cell outside the plant recursion, is refused at the first
    row of the window whose statistics it changes, in the first statistic
    column in header order that it changes."""
    trace, lines = class_exports[kind]
    path = tmp_path / "trace.csv"
    out = tampered(lines, trace, how)
    path.write_text("\n".join(out) + "\n")
    with pytest.raises(ValueError) as err:
        import_trace(path, trace.config)
    if how == "residual_start":
        assert str(err.value) == (
            f"{path}: trace metadata has residual_start={trace.residual_start + 1}, "
            f"burn_in={trace.burn_in}"
        )
        return
    t = int(trace.window_ends[1]) - trace.config.detector.window_len + 1
    if how == "t":
        return _edited(lines, {(end - 10, "t"): "banana"})
    if how == "statistic":
        ch = trace.channel_names[0]
        assert str(err.value) == (
            f"{path}: column stat_{ch} holds {_cell(out, t, f'stat_{ch}')!r} at t={t}, "
            f"where its window layout gives {repr(float(trace.window_stats[ch][1]))!r}"
        )
    else:
        assert re.fullmatch(
            rf"{re.escape(str(path))}: column stat_(\w+) holds '(.*)' at t={t}, "
            r"where its window layout gives '(.*)'",
            str(err.value),
        )


def test_import_refuses_a_non_finite_statistic_its_step_data_gives(tmp_path):
    """A finite report cell whose square overflows gives non-finite
    statistics; stored cells that match them are still refused."""
    cfg = all_class_configs()["arx"]
    trace = run_scenario(cfg)
    z = trace.z.copy()
    z[150] = 1e300
    hand = dataclasses.replace(trace, z=z)
    with np.errstate(over="ignore", invalid="ignore"):
        _, stats = _window_stats(cfg, residual_streams_of(hand), channel_specs(cfg))
    path = tmp_path / "trace.csv"
    export_trace(dataclasses.replace(hand, window_stats=stats), path)
    end = int(trace.window_ends[np.searchsorted(trace.window_ends, 150)])
    with pytest.raises(ValueError, match=(
        rf"^non-finite statistic (inf|nan) on channel \w+, window ending at t={end}$"
    )):
        import_trace(path, cfg)


def test_window_records_view_the_arrays():
    trace = run_scenario(reference_configs()["arx"])
    records = trace.windows
    assert [w.index for w in records] == list(range(len(trace.window_ends)))
    assert [w.end_t for w in records] == trace.window_ends.tolist()
    for ch, values in trace.window_stats.items():
        assert [w.values[ch] for w in records] == values.tolist()
        assert [w.alarmed[ch] for w in records] == trace.window_alarms[ch].tolist()
    assert [w.any_alarm for w in records] == trace.any_alarm.tolist()
    assert any(w.any_alarm for w in records)


def test_export_empty_trace_is_header_only(tmp_path):
    cfg = make_scenario(horizon=400)
    zeros = np.empty(0)
    empty = Trace(
        config=cfg, seed=0,
        x=zeros, y=zeros, z=zeros, u_g=zeros, u=zeros,
        e_raw=zeros, e_shaped=zeros, w=zeros, n=None,
        window_ends=np.empty(0, dtype=int), window_stats={}, window_alarms={},
        thresholds={}, residual_start=1, burn_in=0,
    )
    path = tmp_path / "empty.csv"
    export_trace(empty, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("# dynwatermark-trace ")
    assert lines[1].split(",")[:3] == ["t", "y", "z"]


def test_import_rejects_wrong_schema(tmp_path):
    cfg = make_scenario(horizon=400)
    path = tmp_path / "trace.csv"
    export_trace(run_scenario(cfg), path)
    text = path.read_text().replace("schema_version=1", "schema_version=9", 1)
    path.write_text(text)
    with pytest.raises(ValueError, match="schema"):
        import_trace(path, cfg)


def test_import_rejects_negative_window_origin(tmp_path):
    """Windows would then start before the first row."""
    cfg = make_scenario()
    path = tmp_path / "trace.csv"
    export_trace(run_scenario(cfg), path)
    text = path.read_text().replace("residual_start=1 ", "residual_start=-1 ", 1)
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == f"{path}: trace metadata has residual_start=-1, burn_in=0"


def test_import_names_the_physical_line_of_a_short_row(tmp_path):
    cfg = make_scenario(horizon=400)
    path = tmp_path / "trace.csv"
    export_trace(run_scenario(cfg), path)
    lines = path.read_text().split("\n")
    n_fields = len(lines[1].split(","))
    # blank lines count: the short row is the 9th physical line
    lines[4:4] = ["", "   "]
    lines[8] = ",".join(lines[8].split(",")[:3])
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == f"{path} line 9: expected {n_fields} fields, got 3"


@pytest.mark.parametrize("name", ["z", "e_raw", "u_g"])
def test_import_rejects_non_finite_step_cell(arx_additive_export, tmp_path, name):
    """Columns outside the plant recursion are checked too: a nan there
    would pass the self-check."""
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    _edit_cells(lines, path, {(100, name): "nan"})
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == f"{path}: column {name} holds 'nan' at t=100"


def test_import_names_the_cell_that_is_not_a_number(arx_additive_export, tmp_path):
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    _edit_cells(lines, path, {(100, "z"): "abc"})
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == f"{path}: column z holds 'abc' at t=100, not a number"


def test_import_names_the_statistic_that_is_not_a_number(arx_additive_export, tmp_path):
    """A statistic cell is compared as text with the recomputed value's repr;
    row 500 ends window 0."""
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    _edit_cells(lines, path, {(500, "stat_nll"): "abc"})
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == (
        f"{path}: column stat_nll holds 'abc' at t=500, "
        f"where its window layout gives {_cell(lines, 500, 'stat_nll')!r}"
    )


def test_import_names_the_window_id_that_is_not_an_integer(arx_additive_export, tmp_path):
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    _edit_cells(lines, path, {(600, "window_id"): "1.0"})
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == (
        f"{path}: column window_id holds '1.0' at t=600, where its window layout gives '1'"
    )


def test_import_refuses_a_step_cell_that_is_not_its_row(arx_additive_export, tmp_path):
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    _edit_cells(lines, path, {(1000, "t"): "banana"})
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == f"{path}: column t holds 'banana' at t=1000, not its step"


def _header_edited(lines, path, edit):
    """Write ``lines`` to ``path`` with ``edit`` applied to the header and
    every row, each as a list of cells."""
    path.write_text("\n".join([lines[0], *(",".join(edit(ln.split(","))) for ln in lines[1:])]))


def test_import_refuses_a_column_export_never_writes(arx_additive_export, tmp_path):
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    n_fields = len(lines[1].split(","))
    _header_edited(lines, path, lambda cells: cells + ["foo" if cells[0] == "t" else "1.0"])
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == (
        f"{path}: header field {n_fields + 1} is 'foo', where export writes nothing"
    )


def test_import_refuses_a_renamed_step_header(arx_additive_export, tmp_path):
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    _header_edited(lines, path, lambda cells: ["step" if c == "t" else c for c in cells])
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == f"{path}: header field 1 is 'step', where export writes 't'"


def test_import_refuses_swapped_columns(arx_additive_export, tmp_path):
    """z and u_g swapped in the header and every row still name their own
    data, but not in the order export writes them."""
    cfg, lines = arx_additive_export
    path = tmp_path / "trace.csv"
    header = lines[1].split(",")
    i, j = header.index("z"), header.index("u_g")

    def swap(cells):
        cells[i], cells[j] = cells[j], cells[i]
        return cells

    _header_edited(lines, path, swap)
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == f"{path}: header field {i + 1} is 'u_g', where export writes 'z'"


def _block_config(horizon):
    return make_scenario(
        horizon=horizon, detector={"window_len": 100, "alpha": 0.05, "n_cal": 200}
    )


def _row_width(cfg) -> int:
    """Fields per exported row of ``cfg``: t, the step columns, window_id,
    one stat_* per channel and alarm."""
    return len(_layout(cfg.plant.build().kernel, [s.name for s in channel_specs(cfg)])[0])


# Rows per block of _block_config's traces (14 fields a row).
_BLOCK = _block_rows(_row_width(_block_config(1000)))


# Horizons at the edges of a block, at the edges of 4,096-row blocks, and at
# the edges of 2,340-row blocks (2**15 cells), which now end inside a block.
@pytest.mark.parametrize(
    "horizon",
    [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 2339, 2340, 2341, 4681,
     4095, 4096, 4097, 8193],
)
def test_roundtrip_at_block_boundaries(horizon, tmp_path):
    cfg = _block_config(horizon)
    trace = run_scenario(cfg)
    path, again_path = tmp_path / "trace.csv", tmp_path / "again.csv"
    export_trace(trace, path)
    again = import_trace(path, cfg)
    assert trace_equal(trace, again)
    export_trace(again, again_path)
    assert again_path.read_bytes() == path.read_bytes()


def test_block_rows_follow_the_row_width():
    """Blocks hold about the same number of cells whatever the row width."""
    assert [_block_rows(k) for k in (1, 11, 14, 20, 2**12, 2**13)] == [
        2**12, 372, 292, 204, 1, 1,
    ]
    assert _BLOCK == 292


@pytest.fixture(scope="module")
def two_block_export(tmp_path_factory):
    """A run of two blocks and one row, with t=_BLOCK inside a window but
    not its last row."""
    cfg = _block_config(2 * _BLOCK + 1)
    trace = run_scenario(cfg)
    ends = trace.window_ends
    assert _BLOCK not in ends and ends[0] < _BLOCK < ends[-1]
    path = tmp_path_factory.mktemp("blocks") / "trace.csv"
    export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines[1].split(",")) == _row_width(cfg)
    return cfg, lines


def test_import_checks_the_first_row_of_a_later_block(two_block_export, tmp_path):
    cfg, lines = two_block_export
    path = tmp_path / "trace.csv"
    t = _BLOCK
    cell = lines[2 + t].split(",")[lines[1].split(",").index("stat_variance_wm")]
    _edit_cells(lines, path, {(t, "stat_variance_wm"): "0.5"})
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == (
        f"{path}: column stat_variance_wm holds '0.5' at t={t}, "
        f"where its window layout gives {cell!r}"
    )


def test_import_names_the_line_of_a_short_row_in_a_later_block(two_block_export, tmp_path):
    cfg, lines = two_block_export
    path = tmp_path / "trace.csv"
    lines = list(lines)
    n_fields = len(lines[1].split(","))
    # row t is physical line t + 3, after the metadata and header lines
    lines[2 + _BLOCK] = ",".join(lines[2 + _BLOCK].split(",")[:3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        import_trace(path, cfg)
    assert str(err.value) == f"{path} line {_BLOCK + 3}: expected {n_fields} fields, got 3"


def test_export_reuses_cells_of_equal_bits_only(tmp_path):
    """Columns share cell texts only where their bits are equal: -0.0 and
    0.0 keep their own texts, in a mixed column and in a constant one."""
    trace = run_scenario(make_scenario(horizon=400))
    y = trace.y.copy()
    y[7] = -0.0
    z = y.copy()
    z[7] = 0.0
    hand = dataclasses.replace(
        trace, x=y, y=y, z=z, u_g=np.full(400, -0.0), u=np.zeros(400)
    )
    path = tmp_path / "trace.csv"
    export_trace(hand, path)
    _, _, cols = _read_trace_text(path)
    assert (cols["y"][7], cols["z"][7]) == ("-0.0", "0.0")
    assert cols["y"][:7] + cols["y"][8:] == cols["z"][:7] + cols["z"][8:]
    assert set(cols["u_g"]) == {"-0.0"} and set(cols["u"]) == {"0.0"}
    # the golden file's first nominal input is a negative zero
    _, _, golden = _read_trace_text(DATA / "golden_scalar_trace.csv")
    assert golden["u_g"][0] == "-0.0"


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_trace_io_memory_does_not_grow_with_the_horizon(tmp_path):
    """Export's peak, and import's peak beyond the arrays it returns, are
    set by the block size, not by the number of rows."""
    def config(horizon):
        return make_scenario(
            horizon=horizon, policy={"kind": "zero"},
            detector={"window_len": 500, "alpha": 0.05, "n_cal": 200,
                      "tests": ["variance_wm"]},
        )

    rows = _block_rows(_row_width(config(1000)))  # the width does not depend on the horizon
    peaks = []
    for blocks in (4, 16):
        cfg = config(blocks * rows)
        path = tmp_path / f"trace{blocks}.csv"
        trace = run_scenario(cfg)
        export_peak, _ = _traced_peak(export_trace, trace, path)
        del trace
        import_peak, back = _traced_peak(import_trace, path, cfg)
        arrays = {id(a): a.nbytes for a in (back.x, back.y, back.z, back.u_g, back.u,
                                            back.e_raw, back.e_shaped, back.w)}
        peaks.append((export_peak, import_peak - sum(arrays.values())))
    (export_4, import_4), (export_16, import_16) = peaks
    assert export_16 <= 1.25 * export_4
    assert import_16 <= 1.25 * import_4


def test_calibration_memory_stays_near_its_draws():
    """calibrate_detector's traced peak, beyond one channel's Bartlett
    variates and its statistic vector, does not grow with n_cal: the
    scatters and statistics are formed in fixed-size sub-blocks."""
    cfg = load_scenario(SCENARIOS / "mimo_replay.yaml")
    rest = []
    for n_cal in (20_000, 80_000):
        cal = dataclasses.replace(cfg, detector=dataclasses.replace(cfg.detector, n_cal=n_cal))
        peak, _ = _traced_peak(calibrate_detector, cal)
        p = max(spec.null.loading().shape[1] for spec in channel_specs(cal))
        variates = n_cal * (p * (p - 1) // 2 + p) * 8  # normals and chi-squares
        rest.append(peak - variates - n_cal * 8)
    assert 0 < rest[1] <= 1.25 * rest[0], rest


def _returned_bytes(trace) -> int:
    """Bytes of the distinct arrays a trace holds."""
    arrays = [trace.x, trace.y, trace.z, trace.u_g, trace.u, trace.e_raw, trace.e_shaped,
              trace.w, trace.n, trace.window_ends, *trace.window_stats.values(),
              *trace.window_alarms.values()]
    return sum({id(a): a.nbytes for a in arrays if a is not None}.values())


def test_run_memory_stays_near_the_arrays_it_returns():
    """run_scenario's traced peak is at most 2.5x the bytes of the arrays it
    returns, for every class honest and attacked: the closed loops write
    each step into preallocated arrays and keep no per-step objects."""
    T = 20_000
    configs = {f"{kind}/honest": cfg for kind, cfg in all_class_configs(T).items()}
    for kind, cfg in reference_configs().items():
        attack = dataclasses.replace(cfg.attack, onset=T // 2)
        configs[f"{kind}/{attack.kind}"] = dataclasses.replace(cfg, horizon=T, attack=attack)
    table = {}
    for name, cfg in configs.items():
        peak, trace = _traced_peak(run_scenario, cfg, None, calibrate_detector(cfg))
        table[name] = (peak / T, _returned_bytes(trace) / T)
    rows = [
        f"{name:24} peak {peak:6.1f} B/step, returned {kept:5.1f} B/step, "
        f"ratio {peak / kept:.2f}"
        for name, (peak, kept) in table.items()
    ]
    assert all(peak <= 2.5 * kept for peak, kept in table.values()), "\n".join(rows)


def test_report_memory_stays_near_the_arrays_it_returns(tmp_path):
    """import_trace then oracle_metrics on partial_noise_sim hold, beyond
    the distinct arrays the import returns, at most three per-step float64
    buffers: import parses a block at a time, its residual filters and the
    self-check work in place, and the oracle holds the report error and the
    distortion, plus one buffer while it squares either."""
    cfg = load_scenario(SCENARIOS / "partial_noise_sim.yaml")
    path = tmp_path / "trace.csv"
    export_trace(run_scenario(cfg), path)
    tracemalloc.start()
    try:
        back = import_trace(path, cfg)
        oracle_metrics(back)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - _returned_bytes(back) <= 3 * 8 * cfg.horizon


# ---------------------------------------------------------------------------
# step fields with equal bits share one array
# ---------------------------------------------------------------------------


def _sharing(trace) -> list[list[str]]:
    """The step fields of ``trace`` grouped by the array they hold."""
    groups: dict[int, list[str]] = {}
    for name in _STEP_FIELDS:
        a = getattr(trace, name)
        if a is not None:
            groups.setdefault(id(a), []).append(name)
    return list(groups.values())


def _bit_groups(trace) -> list[list[str]]:
    """The step fields of ``trace`` grouped by equal shape and bits."""
    groups: dict[tuple, list[str]] = {}
    for name in _STEP_FIELDS:
        a = getattr(trace, name)
        if a is not None:
            groups.setdefault((a.shape, a.tobytes()), []).append(name)
    return list(groups.values())


def _shipped_at(name: str, horizon: int):
    """A shipped scenario cut to ``horizon`` steps, its attack starting in
    the middle."""
    cfg = load_scenario(SCENARIOS / f"{name}.yaml")
    attack = dataclasses.replace(cfg.attack, onset=horizon // 2)
    return dataclasses.replace(cfg, horizon=horizon, attack=attack)


@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_run_and_import_share_the_arrays_of_equal_fields(kind, tmp_path):
    """A run and its import hold one array per distinct step column, shared
    by the fields whose bits equal it, and still equal each other."""
    cfg = all_class_configs()[kind]
    run = run_scenario(cfg)
    path = tmp_path / "trace.csv"
    export_trace(run, path)
    back = import_trace(path, cfg)
    assert _sharing(run) == _sharing(back) == _bit_groups(run)
    # an honest sensor reports the measurement itself
    assert run.z is run.y and back.z is back.y
    assert trace_equal(run, back)


@pytest.mark.parametrize("name", ["partial_noise_sim", "mimo_replay"])
def test_zero_policy_shares_input_and_excitation_and_splits_the_report_at_onset(
    name, tmp_path
):
    """Under the zero policy u = 0 + e bit for bit, so a run and its import
    hold u, e_raw and e_shaped as one array.  The report equals the
    measurement until the onset, blocks into the file, and then diverges:
    the import gives it its own array there and reads it back bit-exactly."""
    cfg = _shipped_at(name, 4000)
    onset, rows = cfg.attack.onset, _block_rows(_row_width(cfg))
    assert 2 * rows < onset
    run = run_scenario(cfg)
    path = tmp_path / "trace.csv"
    export_trace(run, path)
    back = import_trace(path, cfg)
    for trace in (run, back):
        assert trace.u is trace.e_raw is trace.e_shaped
        measured = trace.y if trace.z.ndim == 1 else trace.x
        assert trace.z[:onset].tobytes() == measured[:onset].tobytes()
        assert not np.shares_memory(trace.z, measured)
    assert _sharing(run) == _sharing(back) == _bit_groups(run)
    assert trace_equal(run, back)


@pytest.mark.parametrize("edited", [("e_shaped",), ("e_raw", "e_shaped")])
def test_import_splits_fields_that_diverge_after_a_block_boundary(edited, tmp_path):
    """u, e_raw and e_shaped of a zero-policy run share one array.  A trace
    whose ``edited`` fields leave it at one step after several blocks
    imports bit-exactly: the fields that diverge get one array of their own,
    holding the shared rows before that step, and the others keep theirs."""
    cfg = all_class_configs(2000)["partial"]
    trace = run_scenario(cfg)
    t = 3 * _block_rows(_row_width(cfg)) + 10
    e = trace.e_raw.copy()
    e[t] += 1.0
    hand = dataclasses.replace(trace, **dict.fromkeys(edited, e))
    _, stats = _window_stats(cfg, residual_streams_of(hand), channel_specs(cfg))
    hand = dataclasses.replace(hand, window_stats=stats)
    path = tmp_path / "trace.csv"
    export_trace(hand, path)
    back = import_trace(path, cfg)
    assert trace_equal(hand, back)
    assert back.u is not back.e_shaped
    assert (back.e_raw is back.e_shaped) == (len(edited) == 2)
    assert (back.e_raw is back.u) == (len(edited) == 1)
    assert _sharing(back) == _bit_groups(back)


_VIEW_LOG: list = []


@register_attack("record_view_test")
def _record_view(view, rng):
    """Report honestly, logging what the view holds at each step."""
    t = view.t
    y_t = view.y[t]
    _VIEW_LOG.append((
        t, type(y_t), y_t, np.copy(y_t), *(np.copy(h[t - 1]) for h in (view.z, view.u_g)),
        {type(view.z[t - 1]), type(view.u_g[t - 1])},
    ))
    return np.copy(y_t) if isinstance(y_t, np.ndarray) else y_t


@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_sensor_view_reads_the_trace_arrays(kind):
    """A custom attack sees floats, or float rows of a vector plant, equal to
    the final trace's rows; a row it holds is never written again."""
    cfg = dataclasses.replace(
        all_class_configs()[kind], attack=AttackConfig(kind="record_view_test", onset=1)
    )
    _VIEW_LOG.clear()
    trace = run_scenario(cfg)
    assert [entry[0] for entry in _VIEW_LOG] == list(range(1, cfg.horizon))
    element = np.ndarray if kind == "mimo" else float
    for t, cls, held, y_t, z_prev, ug_prev, history_types in _VIEW_LOG:
        assert cls is element and history_types == {element}
        assert np.asarray(held).dtype == np.float64
        np.testing.assert_array_equal(held, y_t)
        np.testing.assert_array_equal(y_t, trace.y[t])
        np.testing.assert_array_equal(z_prev, trace.z[t - 1])
        np.testing.assert_array_equal(ug_prev, trace.u_g[t - 1])
    assert trace_equal(trace, run_scenario(all_class_configs()[kind]))


@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_vector_report_of_the_wrong_shape_is_refused(kind):
    """A report must have the plant output's shape: a scalar would otherwise
    be broadcast into a measured state's report row, and a one-element array
    is not the scalar output of the other classes."""
    wrong, shapes = {"mimo": (0.0, r"\(\), the plant outputs \(2,\)")}.get(
        kind, (np.array([0.0]), r"\(1,\), the plant outputs \(\)")
    )

    @register_attack("wrong_shape_report_test")
    def wrong_shape_report(view, rng):
        return wrong

    cfg = dataclasses.replace(
        all_class_configs()[kind], attack=AttackConfig(kind="wrong_shape_report_test", onset=5)
    )
    with pytest.raises(ValueError, match=rf"^report at t=5 has shape {shapes}$"):
        run_scenario(cfg)


def test_burn_in_partial_default():
    trace = run_scenario(all_class_configs()["partial"])
    assert trace.burn_in == PARTIAL_BURN_IN


def test_burn_in_armax_covers_lags():
    cfg = all_class_configs()["armax"]
    trace = run_scenario(cfg)
    # max(len(a), shaper length + delay, len(b)-1 feedback depth)
    assert trace.burn_in >= len(cfg.plant.c) + cfg.plant.delay - 1
    assert trace.residual_start == 0


def test_detector_burn_in_override():
    cfg = make_scenario(horizon=2001, detector={"window_len": 500, "alpha": 0.01,
                                                "n_cal": 1000, "burn_in": 300})
    trace = run_scenario(cfg)
    assert trace.burn_in == 300
    assert trace.windows[0].end_t == 300 + 500  # first window covers [801, 1300]

