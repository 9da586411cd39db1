"""Honest closed-loop false-alarm gate.

Thresholds are calibrated from each channel's null law, r = G e + H v.
Here they meet what the detector actually sees: honest closed-loop runs of
every plant class, with every channel the class allows, plus a Laplace-w
ARX case and a matched-excitation scalar case.  Each channel's per-window
alarm rate, pooled over the seeds of its case, must fall inside the
+-3 sigma binomial band around alpha.

The design was fixed before any rate was seen: alpha 0.05, window_len 100,
45 windows per seed and 40 seeds per case (1,800 windows per channel, band
+-0.0154).  Each case has its own seed base, so no two cases share their
noise or excitation draws.
"""

import math
import pathlib

import pytest

from dynwatermark.harness import calibrate_detector, run_scenario
from dynwatermark.scenario import allowed_tests, load_scenario, scenario_from_dict

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

ALPHA = 0.05
WINDOW_LEN = 100
HORIZON = 4600  # 45 complete windows after every class's burn-in
WINDOWS_PER_SEED = 45
N_SEEDS = 40
N_CAL = 20_000

# case -> (shipped scenario whose plant, policy and watermark it runs,
#          seed base, plant overrides, watermark overrides)
CASES = {
    "scalar": ("scalar_honest", 100_000, {}, {}),
    "arx": ("arx_additive", 200_000, {}, {}),
    "armax": ("armax_replay", 300_000, {}, {}),
    "partial": ("partial_noise_sim", 400_000, {}, {}),
    "mimo": ("mimo_replay", 500_000, {}, {}),
    "arx-laplace-w": ("arx_additive", 600_000, {"w_family": "laplace"}, {}),
    "scalar-matched": (
        "scalar_honest", 700_000, {"w_family": "uniform"},
        {"family": "matched", "sigma_e2": 0.0},
    ),
}


def honest_config(shipped, seed_base, plant, watermark):
    """The shipped scenario with an honest sensor, the gate's detector and
    every channel its plant allows; calibrated at ``seed_base``."""
    d = load_scenario(SCENARIOS / f"{shipped}.yaml").to_dict()
    d["plant"].update(plant)
    d["watermark"].update(watermark)
    d.update(seed=seed_base, horizon=HORIZON, attack={"kind": "honest"})
    kind = d["plant"]["kind"]
    dim = getattr(scenario_from_dict(d).plant.build(), "dim", 1)
    d["detector"] = {
        "window_len": WINDOW_LEN, "alpha": ALPHA, "n_cal": N_CAL,
        "tests": sorted(allowed_tests(kind, dim)),
    }
    return scenario_from_dict(d)


@pytest.mark.parametrize("case", list(CASES))
def test_honest_alarm_rate_is_alpha(case):
    cfg = honest_config(*CASES[case])
    thresholds = calibrate_detector(cfg)
    alarms = dict.fromkeys(thresholds, 0)
    for seed in range(cfg.seed + 1, cfg.seed + 1 + N_SEEDS):
        trace = run_scenario(cfg, seed=seed, thresholds=thresholds)
        assert len(trace.window_ends) == WINDOWS_PER_SEED
        for ch, hit in trace.window_alarms.items():
            alarms[ch] += int(hit.sum())
    n = N_SEEDS * WINDOWS_PER_SEED
    band = 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / n)
    rates = {ch: k / n for ch, k in alarms.items()}
    outside = {ch: rate for ch, rate in rates.items() if abs(rate - ALPHA) > band}
    assert not outside, f"{case}: alarm rates outside {ALPHA} +- {band:.4f}: {outside}"
