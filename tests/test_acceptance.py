"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and prints
one ``ACxx PASS``/``ACxx FAIL`` line (echoed again in the terminal summary by
the conftest hook).  These are deliberately integration-level: they run the
full simulate/calibrate/detect pipeline, not isolated units.
"""

import time

import numpy as np
from numpy.random import default_rng

from dynwatermark.detect import (
    ResidualNull,
    calibrate_threshold,
    simulate_null_stats,
)
from dynwatermark.harness import (
    _oracle_distortion,
    _residual_streams,
    calibrate_detector,
    oracle_metrics,
    run_scenario,
    stat_series,
)
from dynwatermark.residual import kalman_design
from dynwatermark.scenario import scenario_from_dict

CRITERION_LINES: list[str] = []


def record(num: int, ok: bool, detail: str) -> None:
    line = f"AC{num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def scenario(**sections):
    d = {
        "schema_version": 1,
        "name": sections.pop("name", "acceptance"),
        "seed": sections.pop("seed", 0),
        "horizon": sections.pop("horizon"),
    }
    d.update(sections)
    return scenario_from_dict(d)


def scalar_baseline(**over):
    """The reference scalar loop: a=0.5, b=1, f=-0.3, sigma_w2=1, sigma_e2=0.25."""
    d = dict(
        horizon=100_000,
        plant={"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 1.0},
        policy={"kind": "linear", "f": -0.3},
        watermark={"sigma_e2": 0.25},
        attack={"kind": "honest"},
        detector={"window_len": 500, "alpha": 0.001, "n_cal": 20000,
                  "tests": ["variance_wm", "variance_raw"]},
    )
    d.update(over)
    return scenario(**d)


def arx_baseline(**over):
    """Second-order ARX loop under deadbeat control, unit noise and excitation."""
    d = dict(
        horizon=9000,
        plant={"kind": "arx", "a": [0.7, 0.2], "b": [1.0, 0.5], "sigma_w2": 1.0},
        policy={"kind": "arx_deadbeat"},
        watermark={"sigma_e2": 1.0},
        attack={"kind": "additive_estimated", "onset": 4500},
        detector={"window_len": 500, "alpha": 0.001, "n_cal": 20000},
    )
    d.update(over)
    return scenario(**d)


def residuals_of(trace):
    cfg = trace.config
    return _residual_streams(cfg, cfg.plant.build(), {
        "x": trace.x, "y": trace.y, "z": trace.z, "u_g": trace.u_g,
        "u": trace.u, "e_raw": trace.e_raw, "e_shaped": trace.e_shaped,
        "w": trace.w, "n": trace.n,
    })


# ---------------------------------------------------------------------------
# 1. honest scalar loop: both variance statistics sit on their targets
# ---------------------------------------------------------------------------


def test_ac01_honest_scalar_variance_bands():
    cfg = scalar_baseline()
    t0 = time.perf_counter()
    trace = run_scenario(cfg)
    dt = time.perf_counter() - t0
    m_wm = float(np.mean(stat_series(trace, "variance_wm")[1]))
    m_raw = float(np.mean(stat_series(trace, "variance_raw")[1]))
    ok = (
        abs(m_wm - 1.0) <= 0.02
        and abs(m_raw / 1.25 - 1.0) <= 0.02
        and dt < 1.0
    )
    record(1, ok, f"honest scalar: wm-var {m_wm:.4f} (target 1 +-2%), "
                  f"raw-var {m_raw:.4f} (target 1.25 +-2%), {dt:.2f}s < 1s")


# ---------------------------------------------------------------------------
# 2. closed-loop state power matches the stationary formula
# ---------------------------------------------------------------------------


def test_ac02_closed_loop_state_power():
    cfg = scalar_baseline(horizon=1_000_000,
                          detector={"window_len": 100_000, "alpha": 0.001,
                                    "n_cal": 20000, "tests": ["variance_wm"]})
    t0 = time.perf_counter()
    trace = run_scenario(cfg)
    dt = time.perf_counter() - t0
    ms = float(np.mean(trace.x * trace.x))
    target = (1.0 + 0.25) / (1.0 - 0.2**2)  # (sw2 + b^2 se2) / (1 - (a+bf)^2)
    rel = abs(ms / target - 1.0)
    ok = rel <= 0.03 and dt < 10.0
    record(2, ok, f"state power {ms:.5f} vs {target:.5f} "
                  f"(rel {rel:.3%} <= 3%), {dt:.2f}s < 10s")


# ---------------------------------------------------------------------------
# 3. additive estimate-and-cancel attack on the ARX loop is caught in time
# ---------------------------------------------------------------------------


def test_ac03_arx_additive_attack_timing():
    cfg = arx_baseline()
    t0 = time.perf_counter()
    thresholds = calibrate_detector(cfg)
    clean = timely = 0
    for seed in range(20):
        rep = oracle_metrics(run_scenario(cfg, seed=seed, thresholds=thresholds))
        clean += rep.false_alarms_pre_onset == 0
        timely += rep.detection_delay is not None and rep.detection_delay <= 1000
    dt = time.perf_counter() - t0
    ok = clean >= 18 and timely >= 18 and dt < 5.0
    record(3, ok, f"additive attack on ARX: clean pre-onset {clean}/20, "
                  f"first alarm within 2 windows {timely}/20, {dt:.2f}s < 5s")


# ---------------------------------------------------------------------------
# 4. without excitation the fabricated-noise attack is invisible; with it,
#    the cross-correlation channel flags within two windows
# ---------------------------------------------------------------------------


def test_ac04_excitation_is_necessary():
    unwatermarked = arx_baseline(
        horizon=10_000,
        watermark={"sigma_e2": 0.0},
        attack={"kind": "noise_sim", "onset": 5000},
    )
    trace = run_scenario(unwatermarked)
    silent = not any(wrec.any_alarm for wrec in trace.windows)

    watermarked = arx_baseline(
        horizon=10_000,
        attack={"kind": "noise_sim", "onset": 5000},
    )
    thresholds = calibrate_detector(watermarked)
    flagged = 0
    for seed in range(20):
        t = run_scenario(watermarked, seed=seed, thresholds=thresholds)
        flagged += any(
            wrec.alarmed["cross_corr"]
            for wrec in t.windows
            if 5000 < wrec.end_t <= 6000
        )
    ok = silent and flagged >= 18
    record(4, ok, f"noise-sim attack: invisible without excitation "
                  f"({'yes' if silent else 'no'}), cross-corr flags within "
                  f"2 windows in {flagged}/20 seeds with it")


# ---------------------------------------------------------------------------
# 5. replayed recordings break the excitation correlation immediately
# ---------------------------------------------------------------------------


def test_ac05_replay_breaks_cross_correlation():
    cfg = scalar_baseline(
        horizon=2501,
        attack={"kind": "replay", "onset": 2000, "record_len": 500},
        detector={"window_len": 500, "alpha": 0.01, "n_cal": 2000},
    )
    thresholds = calibrate_detector(cfg)
    target = 0.25  # b * sigma_e2
    hits = 0
    for seed in range(20):
        trace = run_scenario(cfg, seed=seed, thresholds=thresholds)
        first_post = next(w for w in trace.windows if w.end_t > 2000)
        deviated = first_post.values["cross_corr"] >= 0.8 * target
        hits += deviated and first_post.alarmed["cross_corr"]
    ok = hits >= 18
    record(5, ok, f"replay: cross-corr deviation >= 0.8*target and alarm in "
                  f"first post-onset window for {hits}/20 seeds")


# ---------------------------------------------------------------------------
# 6. the ARMAX prediction-error filter recovers delayed excitation + noise
# ---------------------------------------------------------------------------


def test_ac06_armax_filter_recovers_excitation():
    cfg = scenario(
        horizon=10_000,
        plant={"kind": "armax", "a": [0.5], "b": [1.0, 0.5], "c": [1.0, 0.3],
               "delay": 2, "sigma_w2": 1.0},
        policy={"kind": "zero"},
        watermark={"sigma_e2": 1.0, "shaper": "armax"},
        attack={"kind": "honest"},
        detector={"window_len": 500, "alpha": 0.01, "n_cal": 1000},
    )
    trace = run_scenario(cfg)
    zt = residuals_of(trace)["r_raw"]
    expected = trace.w.copy()
    expected[2:] += trace.e_raw[:-2]
    err = float(np.max(np.abs(zt[100:] - expected[100:])))
    ok = err < 1e-9
    record(6, ok, f"armax filtered report equals delayed excitation + noise "
                  f"after burn-in: max err {err:.2e} < 1e-9")


# ---------------------------------------------------------------------------
# 7. Riccati fixed point matches the closed form; innovation covariance holds
# ---------------------------------------------------------------------------


def test_ac07_kalman_design_and_innovation_covariance():
    cfg = scenario(
        horizon=100_000,
        plant={"kind": "partial", "A": [[0.9]], "B": [1.0], "C": [1.0],
               "sigma_w2": 1.0, "sigma_n2": 1.0},
        policy={"kind": "zero"},
        watermark={"sigma_e2": 0.25},
        attack={"kind": "honest"},
        detector={"window_len": 1000, "alpha": 0.01, "n_cal": 1000,
                  "tests": ["cross_corr"]},
    )
    plant = cfg.plant.build()
    design = kalman_design(plant)
    # closed-form positive root of P^2 + (sn2(1-a^2) - sw2) P - sw2 sn2 = 0
    bq = 1.0 * (1.0 - 0.81) - 1.0
    p_exact = 0.5 * (-bq + np.sqrt(bq * bq + 4.0))
    p_err = abs(float(design.P[0, 0]) - p_exact)

    trace = run_scenario(cfg)
    q = residuals_of(trace)["q"]
    S = float(np.mean(q * q))
    sigma0 = float(design.sigma_R2 * design.K[0] ** 2)
    rel = abs(S - sigma0) / sigma0
    ok = p_err <= 1e-10 and rel <= 0.05
    record(7, ok, f"riccati P err {p_err:.2e} <= 1e-10; innovation-correction "
                  f"power {S:.5f} vs {sigma0:.5f} (rel {rel:.3%} <= 5%)")


# ---------------------------------------------------------------------------
# 8. two-input plant: honest run stays in band, any attack that injects
#    measurable distortion is caught
# ---------------------------------------------------------------------------


def test_ac08_mimo_distortion_implies_alarm():
    base = dict(
        horizon=4001,
        plant={"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
               "B": [[1.0, 0.0], [0.0, 1.0]], "sigma_w2": 1.0},
        policy={"kind": "linear", "f": [[-0.2, 0.0], [0.0, -0.2]]},
        watermark={"sigma_e2": 1.0},
        detector={"window_len": 2000, "alpha": 0.01, "n_cal": 1000},
    )
    honest = scenario(attack={"kind": "honest"}, **base)
    thresholds = calibrate_detector(honest)
    honest_trace = run_scenario(honest, thresholds=thresholds)
    honest_ok = not any(w.any_alarm for w in honest_trace.windows)

    attacks = {
        "replay": {"kind": "replay", "onset": 2000, "record_len": 2000},
        "noise_sim": {"kind": "noise_sim", "onset": 2000},
        "additive_estimated": {"kind": "additive_estimated", "onset": 2000},
    }
    freqs = {}
    all_caught = True
    for name, attack in attacks.items():
        cfg = scenario(attack=attack, **base)
        plant = cfg.plant.build()
        eligible = caught = 0
        for seed in range(50):
            trace = run_scenario(cfg, seed=seed, thresholds=thresholds)
            v = _oracle_distortion(plant, trace.z - trace.y)
            power = float(np.mean(np.sum(v[1999:] ** 2, axis=1)))
            if power < 0.1:  # 0.1 * sigma_w2
                continue
            eligible += 1
            caught += any(w.any_alarm and w.end_t > 2000 for w in trace.windows)
        freq = caught / eligible if eligible else 0.0
        freqs[name] = (freq, eligible)
        all_caught &= eligible > 0 and freq >= 0.9
    ok = honest_ok and all_caught
    detail = ", ".join(f"{k} {f:.2f} ({e}/50 eligible)" for k, (f, e) in freqs.items())
    record(8, ok, f"mimo: honest in band ({'yes' if honest_ok else 'no'}); "
                  f"alarm freq >= 0.9 on distorting attacks: {detail}")


# ---------------------------------------------------------------------------
# 9. heavy-tailed noise with matched excitation doubles the report variance
# ---------------------------------------------------------------------------


def test_ac09_matched_laplace_excitation_doubles_variance():
    cfg = scenario(
        horizon=100_000,
        plant={"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 1.0,
               "w_family": "laplace"},
        policy={"kind": "linear", "f": -0.3},
        watermark={"sigma_e2": 0.0, "family": "matched"},
        attack={"kind": "honest"},
        detector={"window_len": 1000, "alpha": 0.01, "n_cal": 1000,
                  "tests": ["variance_raw"]},
    )
    trace = run_scenario(cfg)
    m_raw = float(np.mean(stat_series(trace, "variance_raw")[1]))
    rel = abs(m_raw / 2.0 - 1.0)
    ok = rel <= 0.03
    record(9, ok, f"matched laplace excitation: report-residual variance "
                  f"{m_raw:.4f} vs 2.0 (rel {rel:.3%} <= 3%)")


# ---------------------------------------------------------------------------
# 10. calibrated thresholds deliver their nominal false-alarm rate
# ---------------------------------------------------------------------------


def test_ac10_threshold_false_alarm_rates():
    l = 50
    n_fresh = 10_000
    n_cal = 200_000
    nulls = {
        "variance": ResidualNull(1.0, 0.25, 1.0),
        "cross_corr": ResidualNull(1.0, 0.25, 1.0),
        "cov": ResidualNull(np.array([[1.0, 0.0], [0.5, 1.0]]), 0.5, 1.0),
        "cov_entries": ResidualNull(np.array([0.6, 0.3]), 0.25, 0.0,
                                    innovation_var=2.0),
        "nll": ResidualNull(0.0, 0.0, 1.0),
    }
    results = []
    in_band = 0
    for k, (kind, null) in enumerate(nulls.items()):
        for j, alpha in enumerate((0.05, 0.01, 0.001)):
            th = calibrate_threshold(kind, l, alpha, null, n_cal,
                                     default_rng(1000 + 10 * k + j))
            stats = simulate_null_stats(kind, l, null, n_fresh,
                                        default_rng(5000 + 10 * k + j))
            exceed = stats > th.hi
            if th.lo is not None:
                exceed |= stats < th.lo
            rate = float(np.mean(exceed))
            band = 3.0 * np.sqrt(alpha * (1.0 - alpha) / n_fresh)
            hit = abs(rate - alpha) <= band
            in_band += hit
            results.append((kind, alpha, rate, hit))
    ok = in_band == len(results)
    worst = max(results, key=lambda r: abs(r[2] - r[1]) / r[1])
    record(10, ok, f"false-alarm rates inside 3-sigma band in {in_band}/"
                   f"{len(results)} (kind, alpha) cells; worst {worst[0]} at "
                   f"alpha={worst[1]}: rate {worst[2]:.4f}")
