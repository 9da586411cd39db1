"""Closed-loop simulation, windowed detection, oracle metrics, trace I/O.

``run_scenario`` wires one scenario together: plant, policy, watermarked
actuator and (possibly adversarial) sensor step in lockstep; the detection
pass then rebuilds residual streams from the reported data, windows them,
and compares each statistic against its calibrated threshold.

Step order at each t: the plant produces the measurement y[t]; the sensor
reports z[t]; the controller computes u_g[t] from the reports and applies
u[t] = u_g[t] + (shaped excitation); the state advances with w[t+1].
Ground-truth noise streams are drawn here, per named substream of the master
seed, and passed into the pure plant maps — identical inputs give
bit-identical traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import detect as _detect
from .adversary import HonestSensor, SensorView
from .detect import ResidualNull, Threshold
from .linsys import (
    ArmaxPlant,
    ArxPlant,
    MimoPlant,
    PartialPlant,
    ScalarPlant,
)
from .residual import (
    ArmaxFilterState,
    KalmanState,
    armax_filter_step,
    kalman_design,
)
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    build_attack,
    build_policy,
    default_tests,
    resolve_watermark,
)
from .watermark import draw_iid, make_shaper_state, pre_equalize, armax_shape

__all__ = [
    "Trace",
    "WindowRecord",
    "RunReport",
    "ChannelSpec",
    "run_scenario",
    "channel_specs",
    "calibrate_detector",
    "oracle_metrics",
    "export_trace",
    "import_trace",
    "trace_equal",
    "stat_series",
]

TRACE_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1

# Residual samples dropped before windowing, per plant class (the partially
# observed filter needs its transient to die; the others cancel exactly).
PARTIAL_BURN_IN = 50


# ---------------------------------------------------------------------------
# data carriers
# ---------------------------------------------------------------------------


@dataclass
class WindowRecord:
    """One detection window: per-channel statistic values and alarm flags."""

    index: int
    end_t: int
    values: dict[str, float]
    alarmed: dict[str, bool]

    @property
    def any_alarm(self) -> bool:
        return any(self.alarmed.values())


@dataclass
class Trace:
    """Everything one run produced, per step plus per window."""

    config: ScenarioConfig
    seed: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u_g: np.ndarray
    u: np.ndarray
    e_raw: np.ndarray
    e_shaped: np.ndarray
    w: np.ndarray
    n: np.ndarray | None
    windows: list[WindowRecord]
    thresholds: dict[str, Threshold]
    residual_start: int
    burn_in: int
    schema_version: int = TRACE_SCHEMA_VERSION

    @property
    def horizon(self) -> int:
        return self.z.shape[0]

    @property
    def channel_names(self) -> list[str]:
        return sorted(self.windows[0].values) if self.windows else []


@dataclass
class RunReport:
    """Summary a zero-context reader can act on, serializable to JSON."""

    name: str
    seed: int
    horizon: int
    plant_kind: str
    attack_kind: str
    onset: int | None
    mean_square_state: float
    mean_square_report: float
    distortion_power: float
    distortion_msq: float
    n_windows: int
    n_alarms: int
    false_alarms_pre_onset: int
    first_alarm: int | None
    detection_delay: int | None
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "seed": self.seed,
            "horizon": self.horizon,
            "plant_kind": self.plant_kind,
            "attack_kind": self.attack_kind,
            "onset": self.onset,
            "mean_square_state": self.mean_square_state,
            "mean_square_report": self.mean_square_report,
            "distortion_power": self.distortion_power,
            "distortion_msq": self.distortion_msq,
            "n_windows": self.n_windows,
            "n_alarms": self.n_alarms,
            "false_alarms_pre_onset": self.false_alarms_pre_onset,
            "first_alarm": self.first_alarm,
            "detection_delay": self.detection_delay,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class ChannelSpec:
    """One statistic channel: what to compute and its honest null model."""

    name: str
    kind: str
    target: Any = None
    Sigma0: Any = None
    null: ResidualNull = None
    e_index: int = 0


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


class _Streams:
    """Named substreams of the master seed.

    Slot order is fixed (process, measurement, excitation, attack,
    calibration); per-actuator excitation streams are spawned from the
    excitation slot, so adding actuators never perturbs the others.
    """

    def __init__(self, seed: int, n_actuators: int = 1):
        root = np.random.SeedSequence(seed)
        proc, meas, exc, atk, cal = root.spawn(5)
        self.process = np.random.default_rng(proc)
        self.measurement = np.random.default_rng(meas)
        self.excitation = [np.random.default_rng(s) for s in exc.spawn(n_actuators)]
        self.attack = np.random.default_rng(atk)
        self.calibration = cal


# ---------------------------------------------------------------------------
# per-class simulation loops
# ---------------------------------------------------------------------------


def _sim_scalar(plant: ScalarPlant, policy, attack, wm, w_family, streams, T):
    w_arr = np.asarray(draw_iid(w_family, plant.sigma_w2, streams.process, T))
    w_arr[0] = 0.0
    e_arr = np.asarray(draw_iid(wm.family, wm.sigma_e2, streams.excitation[0], T))
    w_l = w_arr.tolist()
    e_l = e_arr.tolist()
    y_l = [0.0] * T
    z_l = [0.0] * T
    ug_l = [0.0] * T
    u_l = [0.0] * T
    view = SensorView(0, y_l, z_l, ug_l, plant, wm.sigma_e2, wm.family, w_family)
    report = attack.report
    step = policy.step
    a, b = plant.a, plant.b
    x = 0.0
    last = T - 1
    for t in range(T):
        y_l[t] = x
        view.t = t
        z = report(view)
        z_l[t] = z
        g = step(z)
        ug_l[t] = g
        u = g + e_l[t]
        u_l[t] = u
        if t < last:
            x = a * x + b * u + w_l[t + 1]
    y = np.asarray(y_l)
    e = np.asarray(e_l)
    return dict(
        x=y, y=y, z=np.asarray(z_l), u_g=np.asarray(ug_l), u=np.asarray(u_l),
        e_raw=e, e_shaped=e, w=w_arr, n=None,
    )


def _sim_arx(plant: ArxPlant, policy, attack, wm, w_family, streams, T, shaping):
    a, b = plant.a_coeffs, plant.b_coeffs
    w_arr = np.asarray(draw_iid(w_family, plant.sigma_w2, streams.process, T))
    w_arr[0] = 0.0
    e_arr = np.asarray(draw_iid(wm.family, wm.sigma_e2, streams.excitation[0], T))
    w_l = w_arr.tolist()
    e_l = e_arr.tolist()
    y_l = [0.0] * T
    z_l = [0.0] * T
    ug_l = [0.0] * T
    u_l = [0.0] * T
    es_l = [0.0] * T
    view = SensorView(0, y_l, z_l, ug_l, plant, wm.sigma_e2, wm.family, w_family)
    sh_state = make_shaper_state(b)
    y_next = 0.0
    last = T - 1
    for t in range(T):
        y_l[t] = y_next
        view.t = t
        z = attack.report(view)
        z_l[t] = z
        g = policy.step(z)
        ug_l[t] = g
        e_s = pre_equalize(sh_state, b, e_l[t]) if shaping else e_l[t]
        es_l[t] = e_s
        u = g + e_s
        u_l[t] = u
        if t < last:
            acc = w_l[t + 1]
            for m, am in enumerate(a):
                if t - m >= 0:
                    acc -= am * y_l[t - m]
            for r, br in enumerate(b):
                if t - r >= 0:
                    acc += br * u_l[t - r]
            y_next = acc
    y = np.asarray(y_l)
    return dict(
        x=y, y=y, z=np.asarray(z_l), u_g=np.asarray(ug_l), u=np.asarray(u_l),
        e_raw=e_arr, e_shaped=np.asarray(es_l), w=w_arr, n=None,
    )


def _sim_armax(plant: ArmaxPlant, policy, attack, wm, w_family, streams, T, shaping):
    a, b, c, delay = plant.a_coeffs, plant.b_coeffs, plant.c_coeffs, plant.delay
    w_arr = np.asarray(draw_iid(w_family, plant.sigma_w2, streams.process, T))
    e_arr = np.asarray(draw_iid(wm.family, wm.sigma_e2, streams.excitation[0], T))
    w_l = w_arr.tolist()
    e_l = e_arr.tolist()
    y_l = [0.0] * T
    z_l = [0.0] * T
    ug_l = [0.0] * T
    u_l = [0.0] * T
    es_l = [0.0] * T
    view = SensorView(0, y_l, z_l, ug_l, plant, wm.sigma_e2, wm.family, w_family)
    sh_state = make_shaper_state(b, c)
    for t in range(T):
        acc = 0.0
        for k, ak in enumerate(a):
            if t - 1 - k >= 0:
                acc -= ak * y_l[t - 1 - k]
        for k, bk in enumerate(b):
            idx = t - delay - k
            if idx >= 0:
                acc += bk * u_l[idx]
        for k, ck in enumerate(c):
            if t - k >= 0:
                acc += ck * w_l[t - k]
        y_l[t] = acc
        view.t = t
        z = attack.report(view)
        z_l[t] = z
        g = policy.step(z)
        ug_l[t] = g
        e_s = armax_shape(sh_state, b, c, e_l[t]) if shaping else e_l[t]
        es_l[t] = e_s
        u_l[t] = g + e_s
    y = np.asarray(y_l)
    return dict(
        x=y, y=y, z=np.asarray(z_l), u_g=np.asarray(ug_l), u=np.asarray(u_l),
        e_raw=e_arr, e_shaped=np.asarray(es_l), w=w_arr, n=None,
    )


def _sim_partial(plant: PartialPlant, policy, attack, wm, w_family, streams, T):
    p = plant.dim
    w_arr = np.asarray(draw_iid(w_family, plant.sigma_w2, streams.process, (T, p)))
    w_arr[0] = 0.0
    n_arr = np.asarray(draw_iid("gaussian", plant.sigma_n2, streams.measurement, T))
    e_arr = np.asarray(draw_iid(wm.family, wm.sigma_e2, streams.excitation[0], T))
    x_hist = np.zeros((T, p))
    y_l = [0.0] * T
    z_l = [0.0] * T
    ug_l = [0.0] * T
    u_l = [0.0] * T
    view = SensorView(0, y_l, z_l, ug_l, plant, wm.sigma_e2, wm.family, w_family)
    A, B, C = plant.A, plant.B, plant.C
    x = np.zeros(p)
    e_l = e_arr.tolist()
    n_l = n_arr.tolist()
    last = T - 1
    for t in range(T):
        x_hist[t] = x
        y = float(C @ x) + n_l[t]
        y_l[t] = y
        view.t = t
        z = attack.report(view)
        z_l[t] = float(z)
        g = policy.step(z)
        ug_l[t] = float(g)
        u = ug_l[t] + e_l[t]
        u_l[t] = u
        if t < last:
            x = A @ x + B * u + w_arr[t + 1]
    e = np.asarray(e_arr)
    return dict(
        x=x_hist, y=np.asarray(y_l), z=np.asarray(z_l), u_g=np.asarray(ug_l),
        u=np.asarray(u_l), e_raw=e, e_shaped=e, w=w_arr, n=n_arr,
    )


def _sim_mimo(plant: MimoPlant, policy, attack, wm, w_family, streams, T):
    n_dim, m = plant.dim, plant.n_inputs
    w_arr = np.asarray(draw_iid(w_family, plant.sigma_w2, streams.process, (T, n_dim)))
    w_arr[0] = 0.0
    e_arr = np.empty((T, m))
    for i in range(m):
        e_arr[:, i] = draw_iid(wm.family, wm.sigma_e2, streams.excitation[i], T)
    x_hist = np.zeros((T, n_dim))
    z_hist = np.zeros((T, n_dim))
    ug_hist = np.zeros((T, m))
    u_hist = np.zeros((T, m))
    y_l: list = [None] * T
    z_l: list = [None] * T
    ug_l: list = [None] * T
    view = SensorView(0, y_l, z_l, ug_l, plant, wm.sigma_e2, wm.family, w_family)
    A, B = plant.A, plant.B
    x = np.zeros(n_dim)
    last = T - 1
    for t in range(T):
        x_hist[t] = x
        y_l[t] = x
        view.t = t
        z = np.asarray(attack.report(view), dtype=float)
        z_hist[t] = z
        z_l[t] = z
        g = np.asarray(policy.step(z), dtype=float)
        ug_hist[t] = g
        ug_l[t] = g
        u = g + e_arr[t]
        u_hist[t] = u
        if t < last:
            x = A @ x + B @ u + w_arr[t + 1]
    return dict(
        x=x_hist, y=x_hist, z=z_hist, u_g=ug_hist, u=u_hist,
        e_raw=e_arr, e_shaped=e_arr, w=w_arr, n=None,
    )


def _shaping_enabled(config: ScenarioConfig) -> bool:
    mode = config.watermark.shaper
    if mode == "none":
        return False
    if mode == "auto":
        return config.plant.kind in ("arx", "armax")
    if mode == "arx" and config.plant.kind not in ("arx", "armax"):
        raise ScenarioError("watermark.shaper", "arx shaper needs b_coeffs")
    if mode == "armax" and config.plant.kind != "armax":
        raise ScenarioError("watermark.shaper", "armax shaper needs an armax plant")
    return True


# ---------------------------------------------------------------------------
# residual streams and channels
# ---------------------------------------------------------------------------


def _lagged_sum(coeffs, series: np.ndarray, length: int) -> np.ndarray:
    """sum_k coeffs[k] * series[i - k] for i = 0..length-1, zero-padded."""
    pad = len(coeffs)
    sp = np.concatenate([np.zeros(pad), series])
    acc = np.zeros(length)
    for k, ck in enumerate(coeffs):
        if ck != 0.0:
            acc += ck * sp[pad - k : pad - k + length]
    return acc


def _residual_streams(config: ScenarioConfig, plant, arrays) -> dict:
    """Aligned residual/excitation streams plus class burn-in."""
    kind = config.plant.kind
    z, ug = arrays["z"], arrays["u_g"]
    e_raw = arrays["e_raw"]
    T = z.shape[0]
    burn0 = config.detector.burn_in or 0
    if kind == "scalar":
        r_raw = z[1:] - plant.a * z[:-1] - plant.b * ug[:-1]
        r_wm = r_raw - plant.b * e_raw[:-1]
        return dict(start=1, burn=burn0, r_raw=r_raw, r_wm=r_wm, e=e_raw[:-1])
    if kind == "arx":
        a, b = plant.a_coeffs, plant.b_coeffs
        r_raw = z[1:] + _lagged_sum(a, z, T - 1) - _lagged_sum(b, ug, T - 1)
        r_wm = r_raw - b[0] * e_raw[: T - 1]
        return dict(start=1, burn=burn0, r_raw=r_raw, r_wm=r_wm, e=e_raw[: T - 1])
    if kind == "armax":
        state = ArmaxFilterState(plant)
        h, delay = plant.order_b, plant.delay
        ug_l = ug.tolist()
        gpad = [0.0] * (delay + h) + ug_l
        e_l = e_raw.tolist()
        zt = np.empty(T)
        wm_part = np.empty(T)
        e_lag = np.empty(T)
        for t in range(T):
            g_hist = gpad[t : t + h + 1][::-1]
            lag = e_l[t - delay] if t >= delay else 0.0
            val, pair = armax_filter_step(state, z[t], g_hist, lag)
            zt[t] = val
            wm_part[t] = pair.r_wm
            e_lag[t] = lag
        burn = config.detector.burn_in
        if burn is None:
            burn = state.burn_in
        return dict(start=0, burn=burn, r_raw=zt, r_wm=wm_part, e=e_lag)
    if kind == "partial":
        design = kalman_design(plant)
        state = KalmanState.at_rest(plant)
        A, B, C, K = plant.A, plant.B, plant.C, design.K
        q = np.empty((T - 1, plant.dim))
        xhat = state.xhat
        for k in range(T - 1):
            x_pred = A @ xhat + B * (ug[k] + e_raw[k])
            nu = z[k + 1] - float(C @ x_pred)
            corr = K * nu
            q[k] = corr
            xhat = x_pred + corr
        burn = config.detector.burn_in
        if burn is None:
            burn = PARTIAL_BURN_IN
        return dict(start=1, burn=burn, q=q, e=e_raw[: T - 1], design=design)
    if kind == "mimo":
        r = z[1:] - z[:-1] @ plant.A.T - ug[:-1] @ plant.B.T
        return dict(start=1, burn=burn0, r=r, e=e_raw[:-1])
    raise ScenarioError("plant.kind", f"unknown kind {kind!r}")


def channel_specs(config: ScenarioConfig) -> list[ChannelSpec]:
    """Statistic channels the scenario's detector runs, with null models."""
    kind = config.plant.kind
    plant = config.plant.build()
    wm = resolve_watermark(config)
    tests = config.detector.tests or default_tests(kind)
    ef, wf = wm.family, config.plant.w_family
    se2 = wm.sigma_e2
    specs: list[ChannelSpec] = []
    if kind in ("scalar", "arx", "armax"):
        if kind == "scalar":
            gain = plant.b
        elif kind == "arx":
            gain = plant.b_coeffs[0]
        else:
            gain = 1.0  # the prediction-error filter recovers e[t-delay] + w[t]
        sw2 = plant.sigma_w2
        null_wm = ResidualNull(0.0, 0.0, sw2, ef, wf)
        null_raw = ResidualNull(gain, se2, sw2, ef, wf)
        for name in tests:
            if name == "variance_wm":
                specs.append(ChannelSpec(name, "variance", target=sw2, null=null_wm))
            elif name == "variance_raw":
                specs.append(
                    ChannelSpec(
                        name, "variance",
                        target=gain * gain * se2 + sw2, null=null_raw,
                    )
                )
            elif name == "cross_corr":
                specs.append(
                    ChannelSpec(name, "cross_corr", target=gain * se2, null=null_raw)
                )
            elif name == "nll":
                specs.append(
                    ChannelSpec(
                        name, "nll", Sigma0=np.array([[sw2]]), null=null_wm
                    )
                )
    elif kind == "partial":
        design = kalman_design(plant)
        K, sR2 = design.K, design.sigma_R2
        null = ResidualNull(K, se2, 0.0, ef, wf, innovation_var=sR2)
        Sigma0 = sR2 * np.outer(K, K)
        for name in tests:
            if name == "cross_corr":
                specs.append(
                    ChannelSpec(name, "cross_corr", target=np.zeros(plant.dim), null=null)
                )
            elif name == "cov_entries":
                specs.append(ChannelSpec(name, "cov_entries", Sigma0=Sigma0, null=null))
            elif name in ("cov", "nll"):
                specs.append(ChannelSpec(name, name, Sigma0=Sigma0, null=null))
    elif kind == "mimo":
        B = plant.B
        sw2 = plant.sigma_w2
        null = ResidualNull(B, se2, sw2, ef, wf)
        Sigma0 = se2 * (B @ B.T) + sw2 * np.eye(plant.dim)
        for name in tests:
            if name == "cross_corr":
                for i in range(plant.n_inputs):
                    specs.append(
                        ChannelSpec(
                            f"cross_corr_{i}", "cross_corr",
                            target=se2 * B[:, i], null=null, e_index=i,
                        )
                    )
            elif name in ("cov", "nll", "cov_entries"):
                specs.append(ChannelSpec(name, name, Sigma0=Sigma0, null=null))
    return specs


def _channel_samples(spec: ChannelSpec, streams: dict):
    """(samples, e_samples) for one channel from the residual streams."""
    if "q" in streams:
        return streams["q"], streams["e"]
    if spec.kind == "cross_corr" or spec.name.startswith("cross_corr"):
        if "r" in streams:
            return streams["r"], streams["e"]
        return streams["r_raw"], streams["e"]
    if "r" in streams:
        return streams["r"], streams["e"]
    if spec.name == "variance_raw":
        return streams["r_raw"], None
    return streams["r_wm"], None  # variance_wm and nll run on the wm-removed residual


def calibrate_detector(
    config: ScenarioConfig, seed: int | None = None
) -> dict[str, Threshold]:
    """Per-channel thresholds for the scenario's detector configuration.

    Deterministic in (config, seed); thresholds depend only on public
    parameters, so they can be computed once and shared across runs.
    """
    if seed is None:
        seed = config.seed
    cal_root = _Streams(seed).calibration
    specs = channel_specs(config)
    children = cal_root.spawn(len(specs))
    det = config.detector
    out: dict[str, Threshold] = {}
    for spec, child in zip(specs, children):
        out[spec.name] = _detect.calibrate_threshold(
            spec.kind,
            det.window_len,
            det.alpha,
            spec.null,
            det.n_cal,
            np.random.default_rng(child),
            e_index=spec.e_index,
        )
    return out


def _window_values(spec: ChannelSpec, samples, e_samples, lo: int, hi: int) -> float:
    r = samples[lo:hi]
    if spec.kind == "variance":
        return _detect.variance_stat(r, spec.target).value
    if spec.kind == "cross_corr":
        e = e_samples[lo:hi]
        if e.ndim == 2:
            e = e[:, spec.e_index]
        return _detect.cross_corr_stat(e, r, spec.target).value
    if spec.kind == "cov":
        return _detect.cov_stat(r, spec.Sigma0).value
    if spec.kind == "cov_entries":
        return _detect.cov_entries_stat(r, spec.Sigma0).value
    if spec.kind == "nll":
        return _detect.nll_window(r, spec.Sigma0).value
    raise ValueError(f"unknown stat kind {spec.kind!r}")


def _detect_pass(
    config: ScenarioConfig,
    streams: dict,
    specs: list[ChannelSpec],
    thresholds: dict[str, Threshold],
) -> tuple[list[WindowRecord], int, int]:
    l = config.detector.window_len
    start, burn = streams["start"], streams["burn"]
    n_samples = len(streams["e"])
    n_win = max((n_samples - burn) // l, 0)
    records: list[WindowRecord] = []
    per_channel = [
        (spec, *_channel_samples(spec, streams)) for spec in specs
    ]
    for wdx in range(n_win):
        lo = burn + wdx * l
        hi = lo + l
        values: dict[str, float] = {}
        alarmed: dict[str, bool] = {}
        for spec, samples, e_samples in per_channel:
            val = _window_values(spec, samples, e_samples, lo, hi)
            values[spec.name] = val
            alarmed[spec.name] = thresholds[spec.name].exceeded(
                val, channel=spec.name, end_t=start + hi - 1
            )
        records.append(
            WindowRecord(index=wdx, end_t=start + hi - 1, values=values, alarmed=alarmed)
        )
    return records, start, burn


_SIMULATORS = {
    "scalar": _sim_scalar,
    "partial": _sim_partial,
    "mimo": _sim_mimo,
}


def run_scenario(
    config: ScenarioConfig,
    seed: int | None = None,
    thresholds: dict[str, Threshold] | None = None,
) -> Trace:
    """Simulate one scenario end-to-end and run its detector.

    ``seed`` overrides the scenario's; ``thresholds`` (from
    :func:`calibrate_detector`) skips recalibration, e.g. across seed sweeps.
    """
    if seed is None:
        seed = config.seed
    plant = config.plant.build()
    wm = resolve_watermark(config)
    n_act = plant.n_inputs if isinstance(plant, MimoPlant) else 1
    streams_rng = _Streams(seed, n_act)
    policy = build_policy(config, plant)
    policy.reset()
    attack = build_attack(config, streams_rng.attack)
    attack.reset()
    w_family = config.plant.w_family
    T = config.horizon
    kind = config.plant.kind
    if kind in ("arx", "armax"):
        shaping = _shaping_enabled(config)
        sim = _sim_arx if kind == "arx" else _sim_armax
        arrays = sim(plant, policy, attack, wm, w_family, streams_rng, T, shaping)
    else:
        _shaping_enabled(config)  # surface shaper/plant mismatches
        arrays = _SIMULATORS[kind](plant, policy, attack, wm, w_family, streams_rng, T)
    res = _residual_streams(config, plant, arrays)
    specs = channel_specs(config)
    if thresholds is None:
        thresholds = calibrate_detector(config, seed)
    else:
        missing = {s.name for s in specs} - set(thresholds)
        if missing:
            raise ValueError(f"thresholds missing channels {sorted(missing)}")
    windows, start, burn = _detect_pass(config, res, specs, thresholds)
    return Trace(
        config=config,
        seed=seed,
        x=arrays["x"], y=arrays["y"], z=arrays["z"],
        u_g=arrays["u_g"], u=arrays["u"],
        e_raw=arrays["e_raw"], e_shaped=arrays["e_shaped"],
        w=arrays["w"], n=arrays["n"],
        windows=windows, thresholds=thresholds,
        residual_start=start, burn_in=burn,
    )


# ---------------------------------------------------------------------------
# oracle metrics (ground-truth quantities, not available to the detector)
# ---------------------------------------------------------------------------


def _oracle_distortion(config: ScenarioConfig, plant, trace: Trace) -> np.ndarray:
    """Per-step measurement distortion v, from the class's exact decomposition.

    Honest runs give an exactly zero stream; attacks surface here as the
    additive term the reports inject into the closed loop.
    """
    kind = config.plant.kind
    z, ug, e, w = trace.z, trace.u_g, trace.e_raw, trace.w
    T = z.shape[0]
    if kind == "scalar":
        return z[1:] - plant.a * z[:-1] - plant.b * ug[:-1] - plant.b * e[:-1] - w[1:]
    if kind == "arx":
        r = z[1:] + _lagged_sum(plant.a_coeffs, z, T - 1) - _lagged_sum(
            plant.b_coeffs, ug, T - 1
        )
        return r - plant.b_coeffs[0] * e[: T - 1] - w[1:]
    if kind == "armax":
        delay = plant.delay
        lam = w.copy()
        lam[delay:] += e[: T - delay]
        a_full = (1.0,) + plant.a_coeffs
        az = _lagged_sum(a_full, z, T)
        ug_delayed = np.concatenate([np.zeros(delay), ug[: T - delay]])
        bu = _lagged_sum(plant.b_coeffs, ug_delayed, T)
        cl = _lagged_sum(plant.c_coeffs, lam, T)
        return az - bu - cl
    if kind == "partial":
        design = kalman_design(plant)
        A, B, C, K = plant.A, plant.B, plant.C, design.K
        xF = np.zeros(plant.dim)
        xR = np.zeros(plant.dim)
        v = np.empty((T - 1, plant.dim))
        y = trace.y
        for k in range(T - 1):
            drive = B * (ug[k] + e[k])
            xF_pred = A @ xF + drive
            xR_pred = A @ xR + drive
            nu_F = z[k + 1] - float(C @ xF_pred)
            nu_R = y[k + 1] - float(C @ xR_pred)
            v[k] = K * (nu_F - nu_R)
            xF = xF_pred + K * nu_F
            xR = xR_pred + K * nu_R
        return v
    if kind == "mimo":
        u = trace.u
        return z[1:] - z[:-1] @ plant.A.T - u[:-1] @ plant.B.T - w[1:]
    raise ScenarioError("plant.kind", f"unknown kind {kind!r}")


def _mean_square(arr: np.ndarray) -> float:
    if arr.ndim == 1:
        return float(np.mean(arr * arr))
    return float(np.mean(np.sum(arr * arr, axis=1)))


def oracle_metrics(trace: Trace) -> RunReport:
    """Ground-truth run summary: distortion power, mean squares, alarms."""
    config = trace.config
    plant = config.plant.build()
    v = _oracle_distortion(config, plant, trace)
    if config.plant.kind == "partial":
        d = trace.z - trace.y
    else:
        d = trace.z - trace.x
    onset = config.attack.onset
    alarms = [wrec.end_t for wrec in trace.windows if wrec.any_alarm]
    if onset is None:
        false_alarms = len(alarms)
        delay = None
    else:
        false_alarms = sum(1 for t in alarms if t <= onset)
        post = [t for t in alarms if t > onset]
        delay = (post[0] - onset) if post else None
    return RunReport(
        name=config.name,
        seed=trace.seed,
        horizon=trace.horizon,
        plant_kind=config.plant.kind,
        attack_kind=config.attack.kind,
        onset=onset,
        mean_square_state=_mean_square(trace.x),
        mean_square_report=_mean_square(trace.z),
        distortion_power=_mean_square(v),
        distortion_msq=_mean_square(d),
        n_windows=len(trace.windows),
        n_alarms=len(alarms),
        false_alarms_pre_onset=false_alarms,
        first_alarm=alarms[0] if alarms else None,
        detection_delay=delay,
    )


def stat_series(trace: Trace, channel: str) -> tuple[np.ndarray, np.ndarray]:
    """(window_end_times, values) for one channel — plot-ready."""
    if not trace.windows:
        return np.array([], dtype=int), np.array([])
    if channel not in trace.windows[0].values:
        raise ValueError(
            f"channel {channel!r} not in trace (has {trace.channel_names})"
        )
    ends = np.array([wrec.end_t for wrec in trace.windows], dtype=int)
    vals = np.array([wrec.values[channel] for wrec in trace.windows])
    return ends, vals


# ---------------------------------------------------------------------------
# trace export / import
# ---------------------------------------------------------------------------


def _trace_columns(trace: Trace) -> list[tuple[str, np.ndarray]]:
    kind = trace.config.plant.kind
    cols: list[tuple[str, np.ndarray]] = []

    def expand(name: str, arr: np.ndarray) -> None:
        if arr.ndim == 1:
            cols.append((name, arr))
        else:
            for j in range(arr.shape[1]):
                cols.append((f"{name}_{j}", arr[:, j]))

    if kind in ("scalar", "arx", "armax"):
        expand("y", trace.y)
        expand("z", trace.z)
        expand("u_g", trace.u_g)
        expand("u", trace.u)
        expand("e_raw", trace.e_raw)
        expand("e_shaped", trace.e_shaped)
        expand("w", trace.w)
    elif kind == "partial":
        expand("x", trace.x)
        expand("y", trace.y)
        expand("z", trace.z)
        expand("u_g", trace.u_g)
        expand("u", trace.u)
        expand("e_raw", trace.e_raw)
        expand("e_shaped", trace.e_shaped)
        expand("w", trace.w)
        expand("n", trace.n)
    else:
        expand("x", trace.x)
        expand("z", trace.z)
        expand("u_g", trace.u_g)
        expand("u", trace.u)
        expand("e_raw", trace.e_raw)
        expand("e_shaped", trace.e_shaped)
        expand("w", trace.w)
    return cols


def export_trace(trace: Trace, path) -> None:
    """Write the trace as column-stable delimited text (bit-exact floats).

    One row per step.  Window-level columns (``window_id``, per-channel
    statistics, ``alarm``) repeat their window's values on each of its rows
    and are empty outside complete windows.  A single header comment line
    carries the schema metadata needed to re-import standalone.
    """
    T = trace.horizon
    cols = _trace_columns(trace)
    channels = trace.channel_names
    l = trace.config.detector.window_len
    window_id = np.full(T, -1, dtype=int)
    stat_text = {ch: [""] * T for ch in channels}
    alarm_text = [""] * T
    for wrec in trace.windows:
        lo_t = wrec.end_t - l + 1
        window_id[lo_t : wrec.end_t + 1] = wrec.index
        for ch in channels:
            val = repr(wrec.values[ch])
            for t in range(lo_t, wrec.end_t + 1):
                stat_text[ch][t] = val
        flag = "1" if wrec.any_alarm else "0"
        for t in range(lo_t, wrec.end_t + 1):
            alarm_text[t] = flag
    header = ",".join(
        ["t"] + [name for name, _ in cols]
        + ["window_id"] + [f"stat_{ch}" for ch in channels] + ["alarm"]
    )
    meta = (
        f"# dynwatermark-trace schema_version={trace.schema_version} "
        f"name={trace.config.name} seed={trace.seed} "
        f"plant={trace.config.plant.kind} residual_start={trace.residual_start} "
        f"burn_in={trace.burn_in}"
    )
    col_text = [[repr(float(v)) for v in arr.tolist()] for _, arr in cols]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(meta + "\n")
        fh.write(header + "\n")
        wid = window_id.tolist()
        stats_by_ch = [stat_text[ch] for ch in channels]
        for t in range(T):
            row = [str(t)]
            for col in col_text:
                row.append(col[t])
            row.append(str(wid[t]))
            for st in stats_by_ch:
                row.append(st[t])
            row.append(alarm_text[t])
            fh.write(",".join(row) + "\n")


def import_trace(path, config: ScenarioConfig) -> Trace:
    """Rebuild a :class:`Trace` from exported text (inverse of export).

    Thresholds are not serialized; the returned trace carries an empty
    threshold map and the window records parsed from the file.  The stored
    step data is self-checked against the plant recursion.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("# dynwatermark-trace "):
            raise ValueError(f"{path} is not a trace export")
        meta = dict(
            item.split("=", 1) for item in meta_line[2:].split()[1:]
        )
        if int(meta["schema_version"]) != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported trace schema_version {meta['schema_version']}"
            )
        if meta["plant"] != config.plant.kind:
            raise ValueError(
                f"trace was recorded for a {meta['plant']} plant, "
                f"scenario has {config.plant.kind}"
            )
        header = fh.readline().strip().split(",")
        numbered = [(k, ln.rstrip("\n").split(",")) for k, ln in enumerate(fh, 3) if ln.strip()]
    for k, row in numbered:
        if len(row) != len(header):
            raise ValueError(f"{path} line {k}: expected {len(header)} fields, got {len(row)}")
    rows = [row for _, row in numbered]
    T = len(rows)
    if T != config.horizon:
        raise ValueError(
            f"trace has {T} steps, scenario horizon is {config.horizon}"
        )
    by_name: dict[str, list[str]] = {
        name: [row[i] for row in rows] for i, name in enumerate(header)
    }

    def gather(name: str) -> np.ndarray | None:
        if name in by_name:
            return np.array([float(v) for v in by_name[name]])
        parts = []
        j = 0
        while f"{name}_{j}" in by_name:
            parts.append([float(v) for v in by_name[f"{name}_{j}"]])
            j += 1
        if not parts:
            return None
        return np.array(parts).T

    data = {key: gather(key) for key in ("x", "y", "z", "u_g", "u", "e_raw", "e_shaped", "w", "n")}
    if data["x"] is None:
        data["x"] = data["y"]
    if data["y"] is None:
        data["y"] = data["x"]
    channels = [h[len("stat_") :] for h in header if h.startswith("stat_")]
    window_id = [int(v) for v in by_name["window_id"]]
    windows: list[WindowRecord] = []
    seen: dict[int, int] = {}
    for t, wid in enumerate(window_id):
        if wid >= 0:
            seen[wid] = t  # last row of the window wins
    for wid in sorted(seen):
        end_t = seen[wid]
        values = {ch: float(by_name[f"stat_{ch}"][end_t]) for ch in channels}
        alarm = by_name["alarm"][end_t] == "1"
        # only the any-channel alarm flag is serialized
        windows.append(
            WindowRecord(index=wid, end_t=end_t, values=values, alarmed={"any": alarm})
        )
    trace = Trace(
        config=config,
        seed=int(meta["seed"]),
        x=data["x"], y=data["y"], z=data["z"],
        u_g=data["u_g"], u=data["u"],
        e_raw=data["e_raw"], e_shaped=data["e_shaped"],
        w=data["w"], n=data["n"],
        windows=windows, thresholds={},
        residual_start=int(meta["residual_start"]),
        burn_in=int(meta["burn_in"]),
    )
    _self_check(trace)
    return trace


def _self_check(trace: Trace) -> None:
    """Verify the plant recursion holds exactly on the stored step data."""
    config = trace.config
    plant = config.plant.build()
    kind = config.plant.kind
    if kind == "scalar":
        lhs = trace.x[1:]
        rhs = plant.a * trace.x[:-1] + plant.b * trace.u[:-1] + trace.w[1:]
    elif kind == "arx":
        T = trace.y.shape[0]
        lhs = trace.y[1:]
        rhs = (
            -_lagged_sum(plant.a_coeffs, trace.y, T - 1)
            + _lagged_sum(plant.b_coeffs, trace.u, T - 1)
            + trace.w[1:]
        )
    elif kind == "armax":
        T = trace.y.shape[0]
        a_full = (1.0,) + plant.a_coeffs
        u_delayed = np.concatenate(
            [np.zeros(plant.delay), trace.u[: T - plant.delay]]
        )
        lhs = _lagged_sum(a_full, trace.y, T)
        rhs = _lagged_sum(plant.b_coeffs, u_delayed, T) + _lagged_sum(
            plant.c_coeffs, trace.w, T
        )
    elif kind == "partial":
        lhs = trace.x[1:]
        rhs = (
            trace.x[:-1] @ plant.A.T
            + np.outer(trace.u[:-1], plant.B)
            + trace.w[1:]
        )
    else:
        lhs = trace.x[1:]
        rhs = trace.x[:-1] @ plant.A.T + trace.u[:-1] @ plant.B.T + trace.w[1:]
    err = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
    if not err <= 1e-9:
        raise ValueError(f"trace fails the plant recursion self-check (err={err:.3g})")


def trace_equal(t1: Trace, t2: Trace) -> bool:
    """Bit-exact equality of the serialized content of two traces."""
    for name in ("x", "y", "z", "u_g", "u", "e_raw", "e_shaped", "w"):
        a, b = getattr(t1, name), getattr(t2, name)
        if a.shape != b.shape or not np.array_equal(a, b):
            return False
    if (t1.n is None) != (t2.n is None):
        return False
    if t1.n is not None and not np.array_equal(t1.n, t2.n):
        return False
    if len(t1.windows) != len(t2.windows):
        return False
    for w1, w2 in zip(t1.windows, t2.windows):
        if w1.index != w2.index or w1.end_t != w2.end_t:
            return False
        if w1.values != w2.values:
            return False
        if w1.any_alarm != w2.any_alarm:
            return False
    return True
