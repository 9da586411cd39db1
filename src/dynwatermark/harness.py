"""Closed-loop simulation, windowed detection, oracle metrics, trace I/O.

``run_scenario`` wires one scenario together: plant, policy, watermarked
actuator and (possibly adversarial) sensor step in lockstep; the detection
pass then rebuilds residual streams from the reported data, windows them,
and compares each statistic against its calibrated threshold.

Step order at each t: the plant produces the measurement y[t]; the sensor
reports z[t]; the controller computes u_g[t] from the reports and applies
u[t] = u_g[t] + (shaped excitation); the state advances with w[t+1].
Ground-truth noise streams are drawn here, per named substream of the master
seed, and drive one simulator per plant kernel (lag polynomial or state
space) — identical inputs give bit-identical traces.  Residuals and oracle
metrics are LTI filters of the recorded data (see :mod:`.residual`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate, chain, groupby, islice, repeat, starmap
from typing import Any

import numpy as np

from . import detect as _detect
from .adversary import SensorView
from .detect import ResidualNull, Threshold
from .linsys import LagForm, advance, dot
from .residual import innovations, kalman_design, lag_filter, prediction_errors
from .scenario import (
    ScenarioConfig,
    build_attack,
    check_seed,
    default_tests,
    resolve_watermark,
)
from .watermark import draw_iid, shape

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

_META_KEYS = {"schema_version", "seed", "plant", "residual_start", "burn_in"}

# Per-step fields of a Trace, in column order.  x and y carry the measured
# output (either may stand for both) and only a noisy-output plant has n.
_STEP_FIELDS = ("x", "y", "z", "u_g", "u", "e_raw", "e_shaped", "w", "n")
_ALWAYS_STEP_FIELDS = _STEP_FIELDS[2:-1]


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
    """Everything one run produced: per step, and per window its last step and
    per channel its statistic and alarm flag (imported: one flag, ``"any"``)."""

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
    window_ends: np.ndarray
    window_stats: dict[str, np.ndarray]
    window_alarms: dict[str, np.ndarray]
    thresholds: dict[str, Threshold]
    residual_start: int
    burn_in: int
    schema_version: int = TRACE_SCHEMA_VERSION

    @property
    def horizon(self) -> int:
        return self.z.shape[0]

    @property
    def channel_names(self) -> list[str]:
        return sorted(self.window_stats)

    @property
    def any_alarm(self) -> np.ndarray:
        """Per window, whether any channel alarmed."""
        flags = [np.zeros(len(self.window_ends), bool), *self.window_alarms.values()]
        return np.logical_or.reduce(flags)

    @property
    def windows(self) -> list[WindowRecord]:
        """One record per window, built from the arrays on each access."""
        stats = {ch: v.tolist() for ch, v in self.window_stats.items()}
        alarms = {ch: a.tolist() for ch, a in self.window_alarms.items()}
        return [
            WindowRecord(
                i, end, {ch: v[i] for ch, v in stats.items()},
                {ch: a[i] for ch, a in alarms.items()},
            )
            for i, end in enumerate(self.window_ends.tolist())
        ]


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
        d = asdict(self)
        return {"schema_version": d.pop("schema_version"), **d}

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
        root = np.random.SeedSequence(check_seed(seed))
        proc, meas, exc, atk, cal = root.spawn(5)
        self.process = np.random.default_rng(proc)
        self.measurement = np.random.default_rng(meas)
        self.excitation = [np.random.default_rng(s) for s in exc.spawn(n_actuators)]
        self.attack = np.random.default_rng(atk)
        self.calibration = cal


# ---------------------------------------------------------------------------
# closed-loop simulators, one per kernel
# ---------------------------------------------------------------------------


def _policy_data(config: ScenarioConfig, form):
    """The scenario's control law as kernel data, or None for ``zero``.

    A lag plant gets ``(za, ub)``: u_g[t] = (sum_m za[m]*z[t-m] -
    sum_{r>=1} ub[r]*u_g[t-r]) / ub[0].  ``linear`` is ((f,), (1.0,));
    ``arx_deadbeat`` is (a, b), which solves B(q^-1) u_g = A(q^-1) z, stable
    because B is strictly minimum phase.  A state-space plant gets the gain:
    the (m, n) matrix F on a measured state, the float f on a noisy output.
    """
    pc = config.policy
    if pc.kind == "zero":
        return None
    if pc.kind == "arx_deadbeat":
        return form.a, form.b
    if isinstance(form, LagForm):
        return (float(pc.f),), (1.0,)
    return np.asarray(pc.f, dtype=float) if form.C is None else float(pc.f)


def _simulate_lag(form: LagForm, plant, law, attack, wm, w_family, streams, T):
    """Closed loop of a lag-polynomial plant.

    At each t the output sums the AR terms, then the delayed input terms,
    then C(q^-1) w[t]; the sensor reports it, the control law ``law`` (see
    :func:`_policy_data`) sums its z terms, then its u_g terms, then divides
    by ub[0], and the shaped excitation is added to the nominal input.
    """
    w = np.asarray(draw_iid(w_family, form.sigma_w2, streams.process, T))
    w[: form.start] = 0.0
    e = np.asarray(draw_iid(wm.family, wm.sigma_e2, streams.excitation[0], T))
    s = e if wm.shaper == "none" else shape(e, form.b, form.c, form.gain)
    cw = lag_filter(form.c, w).tolist()
    s_l = s.tolist()
    ar = [(ak, 1 + k) for k, ak in enumerate(form.a)]
    br = [(bk, form.delay + k) for k, bk in enumerate(form.b)]
    za, ub = law if law is not None else ((), ())
    zr = [(am, m) for m, am in enumerate(za) if m]
    gr = [(ubr, r) for r, ubr in enumerate(ub) if r]
    pad = max(lag for _, lag in ar + br + zr + gr)
    y_pad = [0.0] * (pad + T)
    u_pad = [0.0] * (pad + T)
    z_pad = [0.0] * (pad + T)
    g_pad = [0.0] * (pad + T)
    y_l = [0.0] * T
    z_l = [0.0] * T
    ug_l = [0.0] * T
    view = SensorView(0, y_l, z_l, ug_l, plant, wm.sigma_e2, wm.family, w_family)
    report = attack.report
    for t in range(T):
        i = pad + t
        acc = 0.0
        for ak, lag in ar:
            acc -= ak * y_pad[i - lag]
        for bk, lag in br:
            acc += bk * u_pad[i - lag]
        acc += cw[t]
        y_pad[i] = y_l[t] = acc
        view.t = t
        z = z_l[t] = z_pad[i] = float(report(view))
        if law is None:
            g = 0.0
        else:
            # Start from the first product: f*z keeps its sign at zero.
            g = za[0] * z
            for am, m in zr:
                g += am * z_pad[i - m]
            for ubr, r in gr:
                g -= ubr * g_pad[i - r]
            g /= ub[0]
        ug_l[t] = g_pad[i] = g
        u_pad[i] = g + s_l[t]
    y = np.asarray(y_l)
    return dict(
        x=y, y=y, z=np.asarray(z_l), u_g=np.asarray(ug_l), u=np.asarray(u_pad[pad:]),
        e_raw=e, e_shaped=s, w=w, n=None,
    )


def _simulate_ss(form, plant, law, attack, wm, w_family, streams, T):
    """Closed loop of a state-space plant.

    A measured state is reported as a vector and the inputs are m-vectors,
    so that loop steps numpy arrays and u_g = F @ z.  A noisy scalar output
    y = C x + n and its single input are floats, and that loop steps lists of
    Python floats (:func:`.linsys.advance`) with u_g = f * z.  ``law`` is None
    for the zero input.
    """
    A, B, C = form.A, form.B, form.C
    p = A.shape[0]
    w = np.asarray(draw_iid(w_family, form.sigma_w2, streams.process, (T, p)))
    w[0] = 0.0
    e = np.column_stack(
        [draw_iid(wm.family, wm.sigma_e2, rng, T) for rng in streams.excitation]
    )
    x_l: list = [None] * T
    y_l: list = [None] * T
    z_l: list = [None] * T
    ug_l: list = [None] * T
    u_l: list = [None] * T
    view = SensorView(0, y_l, z_l, ug_l, plant, wm.sigma_e2, wm.family, w_family)
    report = attack.report
    last = T - 1
    if C is None:
        n = None
        cast = partial(np.asarray, dtype=float)
        e_l = list(e)
        x = np.zeros(p)
        zero = np.zeros(form.n_inputs)
        for t in range(T):
            x_l[t] = y_l[t] = x
            view.t = t
            z = z_l[t] = cast(report(view))
            g = ug_l[t] = zero if law is None else law @ z
            u = u_l[t] = g + e_l[t]
            if t < last:
                x = A @ x + B @ u + w[t + 1]
    else:
        n = np.asarray(draw_iid("gaussian", form.sigma_n2, streams.measurement, T))
        e = e[:, 0]
        rows, b, c = form.float_rows
        n_l, e_l, w_l = n.tolist(), e.tolist(), w.tolist()
        x = [0.0] * p
        for t in range(T):
            x_l[t] = x
            y_l[t] = dot(c, x) + n_l[t]
            view.t = t
            z = z_l[t] = float(report(view))
            g = ug_l[t] = 0.0 if law is None else law * z
            u = u_l[t] = g + e_l[t]
            if t < last:
                x = advance(rows, b, x, u, w_l[t + 1])
    x_hist = np.array(x_l)
    y = x_hist if C is None else np.asarray(y_l)
    return dict(
        x=x_hist, y=y, z=np.asarray(z_l), u_g=np.asarray(ug_l), u=np.asarray(u_l),
        e_raw=e, e_shaped=e, w=w, n=n,
    )


# ---------------------------------------------------------------------------
# residual streams and channels
# ---------------------------------------------------------------------------


def _residual_streams(config: ScenarioConfig, plant, arrays) -> dict:
    """Aligned residual/excitation streams, their first step and burn-in."""
    form = plant.kernel
    z, ug, e = arrays["z"], arrays["u_g"], arrays["e_raw"]
    burn = config.detector.burn_in
    if burn is None:
        burn = form.burn_in
    start = form.start
    if isinstance(form, LagForm):
        r_raw = prediction_errors(form, z, ug)[start:]
        e_lag = lag_filter((1.0,), e, form.delay)[start:]
        return dict(
            start=start, burn=burn, r_raw=r_raw, r_wm=r_raw - form.gain * e_lag, e=e_lag
        )
    # A measured state keeps the watermark in its residual, B e + w; the
    # Kalman corrections of a noisy output predict from the applied input.
    q = innovations(form, z, ug if form.C is None else arrays["u"])
    return dict(start=start, burn=burn, q=q, e=e[:-1])


def channel_specs(config: ScenarioConfig) -> list[ChannelSpec]:
    """Statistic channels the scenario's detector runs, with null models."""
    form = config.plant.build().kernel
    wm = resolve_watermark(config)
    tests = config.detector.tests or default_tests(config.plant.kind)
    ef, wf, se2 = wm.family, config.plant.w_family, wm.sigma_e2
    if isinstance(form, LagForm):
        # r_wm = w[t]; r_raw = gain * e[t-delay] + w[t]
        null_wm = ResidualNull(0.0, 0.0, form.sigma_w2, ef, wf)
        null = ResidualNull(form.gain, se2, form.sigma_w2, ef, wf)
        cross = ["cross_corr"]
    elif form.C is None:
        # r = B e + w, one cross-correlation channel per actuator
        null_wm = null = ResidualNull(form.B, se2, form.sigma_w2, ef, wf)
        cross = [f"cross_corr_{i}" for i in range(form.n_inputs)]
    else:
        # q = K nu, independent of the excitation
        design = kalman_design(form)
        null_wm = null = ResidualNull(
            design.K, se2, 0.0, ef, wf, innovation_var=design.sigma_R2
        )
        cross = ["cross_corr"]
    specs: list[ChannelSpec] = []
    for name in tests:
        if name == "variance_wm":
            specs.append(ChannelSpec(name, "variance", null_wm.variance_target(), null=null_wm))
        elif name == "variance_raw":
            specs.append(ChannelSpec(name, "variance", null.variance_target(), null=null))
        elif name == "cross_corr":
            for i, label in enumerate(cross):
                specs.append(
                    ChannelSpec(label, name, null.cross_target(i), null=null, e_index=i)
                )
        else:
            specs.append(ChannelSpec(name, name, Sigma0=null_wm.sigma0(), null=null_wm))
    return specs


def _channel_samples(spec: ChannelSpec, streams: dict) -> list[np.ndarray]:
    """Aligned sample streams of one channel: (e, r) for a cross-correlation,
    else (r,)."""
    if "q" in streams:
        r = streams["q"]
    elif spec.kind == "cross_corr" or spec.name == "variance_raw":
        r = streams["r_raw"]
    else:  # the other lag channels run on the wm-removed residual
        r = streams["r_wm"]
    if spec.kind != "cross_corr":
        return [r]
    e = streams["e"]
    return [e if e.ndim == 1 else e[:, spec.e_index], r]


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


def _window_ends(T: int, start: int, burn: int, l: int) -> np.ndarray:
    """Last steps of the complete windows that tile steps start + burn .. T-1."""
    return np.arange(start + burn + l - 1, T, l)


def _window_stats(
    config: ScenarioConfig, streams: dict, specs: list[ChannelSpec]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Ends and statistics of every complete window, evaluated from the joint
    scatters in one batch per channel."""
    l = config.detector.window_len
    start, burn = streams["start"], streams["burn"]
    ends = _window_ends(start + len(streams["e"]), start, burn, l)
    n_win = len(ends)
    if not n_win:
        return ends, {}
    span = slice(burn, burn + n_win * l)
    stats: dict[str, np.ndarray] = {}
    for spec in specs:
        blocks = [
            b[span].reshape(n_win, l, *b.shape[1:]) for b in _channel_samples(spec, streams)
        ]
        Z = _detect._joint_scatter(*blocks)
        stats[spec.name] = _detect._batch_values(
            spec.kind, Z, l, len(blocks) - 1, target=spec.target, Sigma0=spec.Sigma0
        )
    return ends, stats


def _detect_pass(config: ScenarioConfig, streams: dict, specs: list, thresholds: dict):
    """:func:`_window_stats`, refused if not finite, and each channel's
    alarm flags, thresholded in one call."""
    ends, stats = _window_stats(config, streams, specs)
    _detect._require_finite(ends, stats)
    alarms = {ch: thresholds[ch].exceeded(v, channel=ch, end_t=ends) for ch, v in stats.items()}
    return ends, stats, alarms


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
    form = plant.kernel
    wm = resolve_watermark(config)
    streams_rng = _Streams(seed, form.n_inputs)
    attack = build_attack(config, streams_rng.attack)
    simulate = _simulate_lag if isinstance(form, LagForm) else _simulate_ss
    arrays = simulate(
        form, plant, _policy_data(config, form), attack, wm, config.plant.w_family,
        streams_rng, config.horizon,
    )
    res = _residual_streams(config, plant, arrays)
    specs = channel_specs(config)
    if thresholds is None:
        thresholds = calibrate_detector(config, seed)
    else:
        missing = {s.name for s in specs} - set(thresholds)
        if missing:
            raise ValueError(f"thresholds missing channels {sorted(missing)}")
    ends, stats, alarms = _detect_pass(config, res, specs, thresholds)
    return Trace(
        config=config, seed=seed, **arrays, window_ends=ends, window_stats=stats,
        window_alarms=alarms, thresholds=thresholds,
        residual_start=res["start"], burn_in=res["burn"],
    )


# ---------------------------------------------------------------------------
# oracle metrics (ground-truth quantities, not available to the detector)
# ---------------------------------------------------------------------------


def _oracle_distortion(config: ScenarioConfig, plant, trace: Trace) -> np.ndarray:
    """Per-step distortion v: the report error d = z - y through the plant's
    output-error filter.

    For a lag-polynomial plant v = A(q^-1) d, the term the reports add to the
    plant equation; for a state-space plant it is the correction d forces on
    the state prediction.  Honest runs give an exactly zero stream.
    """
    form = plant.kernel
    d = trace.z - trace.y
    if isinstance(form, LagForm):
        return lag_filter((1.0,) + form.a, d)[form.start :]
    return innovations(form, d, None)


def _mean_square(arr: np.ndarray) -> float:
    sq = arr * arr
    return float(np.mean(sq if sq.ndim == 1 else np.sum(sq, axis=1)))


def oracle_metrics(trace: Trace) -> RunReport:
    """Ground-truth run summary: distortion power, mean squares, alarms."""
    config = trace.config
    plant = config.plant.build()
    v = _oracle_distortion(config, plant, trace)
    d = trace.z - trace.y
    onset = config.attack.onset
    alarms = trace.window_ends[trace.any_alarm].tolist()
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
        n_windows=len(trace.window_ends),
        n_alarms=len(alarms),
        false_alarms_pre_onset=false_alarms,
        first_alarm=alarms[0] if alarms else None,
        detection_delay=delay,
    )


def stat_series(trace: Trace, channel: str) -> tuple[np.ndarray, np.ndarray]:
    """(window_end_times, values) for one channel — plot-ready."""
    if channel not in trace.window_stats and trace.window_stats:
        raise ValueError(f"channel {channel!r} not in trace (has {trace.channel_names})")
    return trace.window_ends, trace.window_stats.get(channel, np.array([]))


# ---------------------------------------------------------------------------
# trace export / import
# ---------------------------------------------------------------------------


# Rows per block of trace export and import.  Each block is formatted or
# parsed on its own, so the memory both take is bounded by a block, not by
# the horizon.
_CHUNK_ROWS = 4096


def _step_columns(trace: Trace) -> list[tuple[str, np.ndarray]]:
    """(header name, values) of the per-step columns."""
    # A measured output is written once: as y when it is the scalar output of
    # a lag-polynomial plant, as x when it is the state vector.
    if trace.x.ndim == 1:
        names = ["y"]
    else:
        names = ["x"] if trace.n is None else ["x", "y"]
    names += _ALWAYS_STEP_FIELDS
    if trace.n is not None:
        names.append("n")
    cols: list[tuple[str, np.ndarray]] = []
    for name in names:
        arr = np.asarray(getattr(trace, name), dtype=float)
        if arr.ndim == 1:
            cols.append((name, arr))
        else:
            cols.extend((f"{name}_{j}", arr[:, j]) for j in range(arr.shape[1]))
    return cols


def _format_block(blocks: list[np.ndarray]) -> list[list[str]]:
    """Cell texts of one block of step columns.

    A column bitwise equal to one already formatted reuses its texts (so
    ``e_shaped`` costs nothing when nothing shapes the excitation, nor ``z``
    while it reports ``y``), and a constant column is formatted once.  Bits,
    not values, are compared: -0.0 and 0.0 keep their own texts.
    """
    done: dict[bytes, list[str]] = {}
    out = []
    for values in blocks:
        bits = np.ascontiguousarray(values).view(np.int64)
        key = bits.tobytes()
        if key not in done:
            if (bits == bits[0]).all():
                done[key] = [repr(float(values[0]))] * len(values)
            else:
                done[key] = list(map(float.__repr__, values.tolist()))
        out.append(done[key])
    return out


def _add_run(runs: list[tuple[str, int]], cell: str, count: int) -> None:
    """Append ``count`` rows of ``cell`` to a run-length column, merging
    equal neighbours so that equal columns have equal runs."""
    if runs and runs[-1][0] == cell:
        runs[-1] = (cell, runs[-1][1] + count)
    elif count:
        runs.append((cell, count))


def _window_columns(trace: Trace) -> list[tuple[str, list[tuple[str, int]]]]:
    """(header name, runs of (cell text, row count)) of ``window_id``,
    ``stat_<channel>`` per channel and ``alarm``: each window's cells repeat
    on its rows, and rows outside complete windows hold window id -1 and
    empty cells."""
    T, l = trace.horizon, trace.config.detector.window_len
    ends = trace.window_ends.tolist()
    head = ends[0] - l + 1 if ends else T
    tail = T - 1 - ends[-1] if ends else 0

    def runs(cells, outside: str) -> list[tuple[str, int]]:
        out: list[tuple[str, int]] = []
        _add_run(out, outside, head)
        for cell in cells:
            _add_run(out, cell, l)
        _add_run(out, outside, tail)
        return out

    cols = [("window_id", runs(map(str, range(len(ends))), "-1"))]
    cols += [
        (f"stat_{ch}", runs(map(repr, trace.window_stats[ch].tolist()), ""))
        for ch in trace.channel_names
    ]
    cols.append(("alarm", runs(["1" if a else "0" for a in trace.any_alarm.tolist()], "")))
    return cols


def _expand(runs: list[tuple[str, int]]):
    """The cells of a run-length column, one per row."""
    return chain.from_iterable(starmap(repeat, runs))


def _rows(columns) -> str:
    """The text of a block of rows, from the cell texts of its columns."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def export_trace(trace: Trace, path) -> None:
    """Write the trace as column-stable delimited text (bit-exact floats).

    One row per step: its step columns, then its :func:`_window_columns`
    cells.  A single header comment line carries the schema metadata needed
    to re-import standalone.  Rows are formatted and written in blocks of
    ``_CHUNK_ROWS``, so memory does not grow with the horizon; within a
    block, repeated columns are formatted once (:func:`_format_block`).
    """
    steps = _step_columns(trace)
    windows = _window_columns(trace)
    header = ["t", *(name for name, _ in steps), *(name for name, _ in windows)]
    meta = (
        f"# dynwatermark-trace schema_version={trace.schema_version} "
        f"name={trace.config.name} seed={trace.seed} "
        f"plant={trace.config.plant.kind} residual_start={trace.residual_start} "
        f"burn_in={trace.burn_in}"
    )
    T = trace.horizon
    window_cells = [_expand(runs) for _, runs in windows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{meta}\n{','.join(header)}\n")
        for a in range(0, T, _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, T)
            fh.write(_rows([
                map(str, range(a, b)),
                *_format_block([values[a:b] for _, values in steps]),
                *(islice(cells, b - a) for cells in window_cells),
            ]))


def _parse_steps(path, name: str, cells: list[str], ts) -> np.ndarray:
    """Parse the cells of step column ``name`` at steps ``ts``, naming the
    first one that is not a finite number."""
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        for cell, t in zip(cells, ts):
            try:
                np.array(cell, dtype=float)
            except ValueError:
                raise ValueError(
                    f"{path}: column {name} holds {cell!r} at t={t}, not a number"
                ) from None
        raise
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{path}: column {name} holds {cells[bad[0]]!r} at t={ts[bad[0]]}")
    return values


def _cells_at(runs: list[tuple[str, int]], ts) -> list[str]:
    """The cells of a run-length column at steps ``ts``."""
    bounds = list(accumulate(count for _, count in runs))
    return [runs[bisect_right(bounds, t)][0] for t in ts]


def _row_blocks(fh, path, K: int):
    """The non-blank rows of a trace body, up to ``_CHUNK_ROWS`` physical
    lines at a time, each checked to hold ``K`` fields."""
    line_no = 2
    while lines := list(islice(fh, _CHUNK_ROWS)):
        odd = [k for k, ln in enumerate(lines) if ln.count(",") != K - 1]
        for k in odd:
            if lines[k].strip():
                raise ValueError(
                    f"{path} line {line_no + 1 + k}: expected {K} fields, "
                    f"got {lines[k].count(',') + 1}"
                )
        line_no += len(lines)
        yield [ln for ln in lines if ln.strip()] if odd else lines


def _fields(rows: list[str]) -> list[str]:
    """The fields of rows of K fields each: field j of row i is at i*K + j."""
    return ",".join(rows).replace("\n", "").split(",")


def _meta_int(path, meta: dict[str, str], key: str) -> int:
    """The integer metadata field ``key`` of a trace export."""
    try:
        return int(meta[key])
    except ValueError:
        raise ValueError(
            f"{path}: trace metadata field {key} is {meta[key]!r}, not an integer"
        ) from None


def import_trace(path, config: ScenarioConfig) -> Trace:
    """Rebuild a :class:`Trace` from exported text (inverse of export).

    Statistics are not read but recomputed from the step data as
    :func:`run_scenario` computes them, and each row's ``window_id``,
    ``stat_*`` and ``alarm`` cells must be exactly what export writes for
    them: a statistic cell must be the ``repr`` of the recomputed value, with
    no tolerance, which a trace written by this code meets because its step
    data round-trips bit-exactly.  The returned trace carries the stored
    alarm flags (one per window, ``"any"``) and no thresholds.  Rows are
    parsed in blocks of ``_CHUNK_ROWS``.  Every step cell must be a finite
    number, ``residual_start`` and ``burn_in`` the scenario's, the ``stat_*``
    columns its channels, every recomputed statistic finite, and the step
    data must hold the plant recursion.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("# dynwatermark-trace "):
            raise ValueError(f"{path} is not a trace export")
        header = fh.readline().strip().split(",")
        meta = dict(item.split("=", 1) for item in meta_line[2:].split()[1:] if "=" in item)
        absent = sorted(_META_KEYS - set(meta))
        if absent:
            raise ValueError(f"{path}: trace metadata line lacks {absent}")
        version, seed, start, burn = (
            _meta_int(path, meta, key)
            for key in ("schema_version", "seed", "residual_start", "burn_in")
        )
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(f"{path}: unsupported trace schema_version {version}")
        if meta["plant"] != config.plant.kind:
            raise ValueError(
                f"trace was recorded for a {meta['plant']} plant, "
                f"scenario has {config.plant.kind}"
            )
        T, K = config.horizon, len(header)
        index = {name: j for j, name in enumerate(header)}
        data: dict[str, np.ndarray | None] = {}
        # (header index, destination) of each step column
        targets: list[tuple[int, np.ndarray]] = []
        for key in _STEP_FIELDS:
            if key in index:
                data[key] = np.empty(T)
                targets.append((index[key], data[key]))
                continue
            parts = []
            while f"{key}_{len(parts)}" in index:
                parts.append(index[f"{key}_{len(parts)}"])
            data[key] = np.empty((T, len(parts))) if parts else None
            targets += [(j, data[key][:, c]) for c, j in enumerate(parts)]
        absent = [key for key in _ALWAYS_STEP_FIELDS if data[key] is None]
        absent += [key for key in ("window_id", "alarm") if key not in index]
        if data["x"] is None and data["y"] is None:
            absent.insert(0, "y")
        if absent:
            raise ValueError(f"{path}: trace lacks columns {absent}")
        stored: dict[str, list[tuple[str, int]]] = {
            h: [] for h in header if h in ("window_id", "alarm") or h.startswith("stat_")
        }
        n_rows = 0
        for rows in _row_blocks(fh, path, K):
            t0 = n_rows
            n_rows += len(rows)
            if t0 >= T:
                continue  # only count the rows beyond the horizon
            rows = rows[: T - t0]
            flat = _fields(rows)
            ts = range(t0, t0 + len(rows))
            parsed: list[tuple[list[str], np.ndarray]] = []
            for j, dest in targets:
                cells = flat[j::K]
                values = next((v for c, v in parsed if c == cells), None)
                if values is None:
                    values = _parse_steps(path, header[j], cells, ts)
                    parsed.append((cells, values))
                dest[t0 : t0 + len(rows)] = values
            for h, runs in stored.items():
                for cell, group in groupby(flat[index[h] :: K]):
                    _add_run(runs, cell, len(list(group)))
    if n_rows != T:
        raise ValueError(f"trace has {n_rows} steps, scenario horizon is {T}")
    if data["x"] is None:
        data["x"] = data["y"]
    if data["y"] is None:
        data["y"] = data["x"]
    l = config.detector.window_len
    spans = sum(count for cell, count in stored["window_id"] if cell == "0")
    if spans and spans != l:
        raise ValueError(f"{path}: window 0 spans {spans} rows, scenario window_len is {l}")
    # A huge finite cell can overflow a statistic; the checks below refuse it.
    with np.errstate(over="ignore", invalid="ignore"):
        res = _residual_streams(config, config.plant.build(), data)
        ends, stats = _window_stats(config, res, channel_specs(config))
    if (start, burn) != (res["start"], res["burn"]):
        raise ValueError(f"{path}: trace metadata has residual_start={start}, burn_in={burn}")
    have = sorted(h[len("stat_") :] for h in stored if h.startswith("stat_"))
    if have != sorted(stats):
        raise ValueError(
            f"{path}: trace holds statistics {have}, the scenario computes {sorted(stats)}"
        )
    alarms = np.array(_cells_at(stored["alarm"], ends.tolist()), dtype=str) == "1"
    trace = Trace(
        config=config, seed=seed, **data, window_ends=ends,
        window_stats=stats, window_alarms={"any": alarms},
        thresholds={}, residual_start=start, burn_in=burn,
    )
    for name, runs in _window_columns(trace):
        if stored[name] != runs:
            t, got, want = next(
                (t, got, want)
                for t, (got, want) in enumerate(zip(_expand(stored[name]), _expand(runs)))
                if got != want
            )
            raise ValueError(
                f"{path}: column {name} holds {got!r} at t={t}, "
                f"where its window layout gives {want!r}"
            )
    # run_scenario refuses non-finite statistics, so no trace it wrote holds one
    _detect._require_finite(ends, stats)
    _self_check(trace)
    return trace


def _self_check(trace: Trace) -> None:
    """Verify the plant recursion holds exactly on the stored step data."""
    form = trace.config.plant.build().kernel
    if isinstance(form, LagForm):
        residual = (
            lag_filter((1.0,) + form.a, trace.y)
            - lag_filter(form.b, trace.u, form.delay)
            - lag_filter(form.c, trace.w)
        )
    else:
        T = trace.x.shape[0]
        u = trace.u.reshape(T, -1)
        residual = trace.x[1:] - trace.x[:-1] @ form.A.T - u[:-1] @ form.B.T - trace.w[1:]
    err = float(np.max(np.abs(residual))) if residual.size else 0.0
    if not err <= 1e-9:
        raise ValueError(f"trace fails the plant recursion self-check (err={err:.3g})")


def trace_equal(t1: Trace, t2: Trace) -> bool:
    """Bit-exact equality of the serialized content of two traces."""
    for name in _STEP_FIELDS:
        a, b = getattr(t1, name), getattr(t2, name)
        if (a is None) != (b is None):
            return False
        if a is not None and (a.shape != b.shape or not np.array_equal(a, b)):
            return False
    return _window_columns(t1) == _window_columns(t2)
