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
space), each running the closed loop that :mod:`.linsys` generates for its
shape — identical inputs give bit-identical traces.  Residuals and oracle
metrics are LTI filters of the recorded data (see :mod:`.residual`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from itertools import accumulate, chain, groupby, islice, repeat, starmap, zip_longest

import numpy as np

from . import detect as _detect
from .adversary import SensorView, _attack_data
from .detect import ResidualNull, Threshold
from .linsys import LagForm, _kernel
from .residual import innovations, kalman_design, lag_filter, prediction_errors
from .scenario import (
    ScenarioConfig,
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


def _share_equal_fields(arrays: dict) -> None:
    """Point each step field of ``arrays`` whose shape and bits equal an
    earlier field's at that field's array, so a trace holds each distinct
    step column once (``u``, ``e_raw`` and ``e_shaped`` under the zero
    policy, ``z`` and the measurement while the sensor is honest).  Bits,
    not values, are compared: -0.0 is not 0.0."""
    kept: list[np.ndarray] = []
    for key in _STEP_FIELDS:
        a = arrays[key]
        if a is None:
            continue
        bits = a.view(np.int64)
        same = [b for b in kept if b.shape == a.shape and np.array_equal(b.view(np.int64), bits)]
        if same:
            arrays[key] = same[0]
        else:
            kept.append(a)


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
    per channel its statistic and alarm flag (imported: one flag, ``"any"``).

    Step fields with equal bits share one array (see
    :func:`_share_equal_fields`), so a trace is read-only."""

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
    because B is strictly minimum phase.  A state-space plant gets the rows
    of its gain F as float lists: (m, n) on a measured state, [[f]] on a
    noisy output.
    """
    pc = config.policy
    if pc.kind == "zero":
        return None
    if pc.kind == "arx_deadbeat":
        return form.a, form.b
    if isinstance(form, LagForm):
        return (float(pc.f),), (1.0,)
    return np.asarray(pc.f, dtype=float).reshape(form.n_inputs, -1).tolist()


def _custom_report(report, view: SensorView, shape: tuple):
    """The custom attack ``report`` as a function of t: it reads ``view`` at
    t and returns a float, or a list of floats for a state vector, after
    refusing a report whose shape is not the plant output's ``shape``."""

    def at(t):
        view.t = t
        z_t = np.asarray(report(view), dtype=float)
        if z_t.shape != shape:
            raise ValueError(f"report at t={t} has shape {z_t.shape}, the plant outputs {shape}")
        return z_t.tolist()

    return at


def _sensor_args(attack, T: int, view: SensorView, shape: tuple):
    """(kind, onset, kernel arguments ``lag``, ``K``, ``D`` or ``report``) of
    the sensor ``attack`` (see :func:`.adversary._attack_data`); a custom
    attack reads ``view`` and has kind ``custom``."""
    kind, onset, data = attack or (None, T, None)
    args = {}
    if kind == "replay":
        args["lag"] = data
    elif kind == "noise_sim":
        args["D"] = data
    elif kind == "additive_estimated":
        args["K"], args["D"] = data
    elif kind is not None:
        args["report"], kind = _custom_report(data, view, shape), "custom"
    return kind, onset, args


def _simulate_lag(form: LagForm, plant, law, attack, wm, w_family, streams, T):
    """Closed loop of a lag-polynomial plant under the law ``law`` (see
    :func:`_policy_data`) and the sensor ``attack``, run by the kernel
    :func:`.linsys._lag_source` writes for its shape.  The kernel writes each
    array through a memoryview, and a custom attack reads them as its view."""
    w = np.asarray(draw_iid(w_family, form.sigma_w2, streams.process, T))
    w[: form.start] = 0.0
    e = np.asarray(draw_iid(wm.family, wm.sigma_e2, streams.excitation[0], T))
    s = e if wm.shaper == "none" else shape(e, form.b, form.c, form.gain)
    y, z, u_g, u = (np.zeros(T) for _ in range(4))
    Y, Z, G, U = map(memoryview, (y, z, u_g, u))
    view = SensorView(0, Y, Z, G, plant, wm.sigma_e2, wm.family, w_family)
    kind, onset, args = _sensor_args(attack, T, view, ())
    za, ub = law or ((), ())
    key = (len(form.a), len(form.b), len(form.c), form.delay, len(za), len(ub), kind)
    _kernel("lag_loop", key)(
        T, onset, form.a, form.b, form.c, za, ub, memoryview(lag_filter(form.c, w)),
        memoryview(s), Y, Z, G, U, **args,
    )
    return dict(x=y, y=y, z=z, u_g=u_g, u=u, e_raw=e, e_shaped=s, w=w, n=None)


def _simulate_ss(form, plant, law, attack, wm, w_family, streams, T):
    """Closed loop of a state-space plant under the law ``law`` (see
    :func:`_policy_data`) and the sensor ``attack``, run by the kernel
    :func:`.linsys._ss_source` writes for its shape: each state row advances
    as x'[r] = dot(A_r, x) + dot(B_r, u) + w'[r] on Python floats, so no bit
    depends on a BLAS kernel.  The kernel reads and writes each column of
    the arrays made here through a memoryview of its own."""
    A, B, C = form.A, form.B, form.C
    p, m = B.shape
    w = np.asarray(draw_iid(w_family, form.sigma_w2, streams.process, (T, p)))
    w[0] = 0.0
    e = np.column_stack(
        [draw_iid(wm.family, wm.sigma_e2, rng, T) for rng in streams.excitation]
    )
    x = np.zeros((T, p))
    args = {}
    if C is None:
        n, y, z = None, x, np.zeros((T, p))
    else:
        n = np.asarray(draw_iid("gaussian", form.sigma_n2, streams.measurement, T))
        y, z, e = np.zeros(T), np.zeros(T), e[:, 0]
        args.update(C=C.tolist(), Y=memoryview(y), N=memoryview(n))
    u_g, u = np.zeros(e.shape), np.zeros(e.shape)
    # a custom attack reads ndarray rows of a measured state, floats otherwise
    hist = (x, z, u_g) if C is None else map(memoryview, (y, z, u_g))
    view = SensorView(0, *hist, plant, wm.sigma_e2, wm.family, w_family)
    kind, onset, sensor = _sensor_args(attack, T, view, z.shape[1:])
    if "D" in sensor:
        sensor["D"] = _columns(np.asarray(sensor["D"]).reshape(-1, p + (C is not None)))
    if "K" in sensor:
        sensor["K"] = list(chain(*sensor["K"]))
    if law is not None:
        args.update(F=list(chain(*law)), G=_columns(u_g))
    _kernel("closed_loop", (p, m, C is None, law is not None, kind))(
        T, onset, A.ravel().tolist(), B.ravel().tolist(), X=_columns(x), Z=_columns(z),
        U=_columns(u), E=_columns(e), W=_columns(w[1:]), **args, **sensor,
    )
    return dict(x=x, y=y, z=z, u_g=u_g, u=u, e_raw=e, e_shaped=e, w=w, n=n)


def _columns(a: np.ndarray) -> list[memoryview]:
    """One memoryview per column of a (T, k) array, or of a (T,) array."""
    return [memoryview(col) for col in np.atleast_2d(a.T)]


# ---------------------------------------------------------------------------
# residual streams and channels
# ---------------------------------------------------------------------------


def _start_burn(config: ScenarioConfig, form) -> tuple[int, int]:
    """First residual step and detector burn-in of the scenario."""
    burn = config.detector.burn_in
    return form.start, form.burn_in if burn is None else burn


def _residual_streams(config: ScenarioConfig, plant, arrays) -> dict:
    """Aligned residual/excitation streams, their first step and burn-in."""
    form = plant.kernel
    z, ug, e = arrays["z"], arrays["u_g"], arrays["e_raw"]
    start, burn = _start_burn(config, form)
    if isinstance(form, LagForm):
        r_raw = prediction_errors(form, z, ug)[start:]
        e_lag = lag_filter((1.0,), e, form.delay)[start:]
        r_wm = np.multiply(e_lag, form.gain)
        return dict(
            start=start, burn=burn, r_raw=r_raw, r_wm=np.subtract(r_raw, r_wm, out=r_wm),
            e=e_lag,
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
        if name == "cross_corr":
            specs += [ChannelSpec(label, name, null, i) for i, label in enumerate(cross)]
        elif name == "variance_raw":
            specs.append(ChannelSpec(name, "variance", null))
        else:  # variance_wm and the scatter kinds: the wm-removed residual's null
            specs.append(ChannelSpec(name, name.removesuffix("_wm"), null_wm))
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
        # a window's blocks hold only the channel's own excitation column
        targets = _detect._null_targets(spec.kind, spec.null, spec.e_index)
        stats[spec.name] = _detect._batch_values(spec.kind, Z, l, len(blocks) - 1, **targets)
    return ends, stats


def _window_pass(config: ScenarioConfig, plant, arrays: dict, specs: list):
    """The residual streams of the step ``arrays`` and :func:`_window_stats`.
    A report huge enough to overflow a statistic leaves NaN there, which
    :func:`.detect._require_finite` refuses in one error, so numpy does not
    warn of the overflow as well."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = _residual_streams(config, plant, arrays)
        return (res, *_window_stats(config, res, specs))


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
    simulate = _simulate_lag if isinstance(form, LagForm) else _simulate_ss
    arrays = simulate(
        form, plant, _policy_data(config, form), _attack_data(config, form, streams_rng.attack),
        wm, config.plant.w_family, streams_rng, config.horizon,
    )
    _share_equal_fields(arrays)
    specs = channel_specs(config)
    if thresholds is None:
        thresholds = calibrate_detector(config, seed)
    else:
        missing = {s.name for s in specs} - set(thresholds)
        if missing:
            raise ValueError(f"thresholds missing channels {sorted(missing)}")
    # NaN is refused; a singular scatter's +inf alarms
    res, ends, stats = _window_pass(config, plant, arrays, specs)
    _detect._require_finite(ends, stats)
    alarms = {ch: thresholds[ch].exceeded(v, channel=ch, end_t=ends) for ch, v in stats.items()}
    return Trace(
        config=config, seed=seed, **arrays, window_ends=ends, window_stats=stats,
        window_alarms=alarms, thresholds=thresholds,
        residual_start=res["start"], burn_in=res["burn"],
    )


# ---------------------------------------------------------------------------
# oracle metrics (ground-truth quantities, not available to the detector)
# ---------------------------------------------------------------------------


def _oracle_distortion(plant, d: np.ndarray) -> np.ndarray:
    """Per-step distortion v: the report error d = z - y through the plant's
    output-error filter.

    For a lag-polynomial plant v = A(q^-1) d, the term the reports add to the
    plant equation; for a state-space plant it is the correction d forces on
    the state prediction.  Honest runs give an exactly zero stream.
    """
    form = plant.kernel
    if isinstance(form, LagForm):
        return lag_filter((1.0,) + form.a, d)[form.start :]
    return innovations(form, d, None)


def _mean_square(arr: np.ndarray) -> float:
    """Mean over steps of each step's squared norm, np.mean(np.sum(arr * arr,
    axis=1)) for a 2-D ``arr``: the row sums are formed a block of rows at a
    time into one per-step buffer."""
    if arr.ndim == 1:
        return float(np.mean(arr * arr))
    sq = np.empty(len(arr))
    rows = _block_rows(arr.shape[1])
    for a in range(0, len(arr), rows):
        block = arr[a : a + rows]
        np.sum(block * block, axis=1, out=sq[a : a + rows])
    return float(np.mean(sq))


def oracle_metrics(trace: Trace) -> RunReport:
    """Ground-truth run summary: distortion power, mean squares, alarms.

    Besides the trace it holds the report error d = z - y and then the
    distortion v, and one per-step buffer while it squares either."""
    config = trace.config
    plant = config.plant.build()
    mean_square_state, mean_square_report = _mean_square(trace.x), _mean_square(trace.z)
    d = trace.z - trace.y
    distortion_msq = _mean_square(d)
    v = _oracle_distortion(plant, d)
    del d
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
        mean_square_state=mean_square_state,
        mean_square_report=mean_square_report,
        distortion_power=_mean_square(v),
        distortion_msq=distortion_msq,
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


# Cells per block of trace export and import.  Each block is formatted or
# parsed on its own, so the memory both take is bounded by a block of about
# this many cells, whatever the horizon and the row width.
_BLOCK_CELLS = 2**12


def _block_rows(width: int) -> int:
    """Rows per block of a trace whose rows hold ``width`` fields."""
    return max(_BLOCK_CELLS // width, 1)


def _layout(form, channels) -> tuple[list[str], list[tuple[str, int, range]]]:
    """The header of a trace of the kernel ``form`` with statistics
    ``channels``, and (field, width, header indices) of each step field in
    column order.  Width 0 is the one column ``field``, width k the columns
    ``field_0`` .. ``field_{k-1}``.  A measured output is written once: as y
    when it is the scalar output of a lag-polynomial plant, as x when it is
    the state vector.  The window columns ``window_id``, ``stat_<channel>``
    per channel and ``alarm`` follow the step columns."""
    if isinstance(form, LagForm):
        widths = [(name, 0) for name in ("y", "z", "u_g", "u", "e_raw", "e_shaped", "w")]
    else:
        p, m = form.A.shape[0], form.n_inputs
        if form.C is None:
            widths = [("x", p), ("z", p), ("u_g", m), ("u", m), ("e_raw", m), ("e_shaped", m),
                      ("w", p)]
        else:
            widths = [("x", p), ("y", 0), ("z", 0), ("u_g", 0), ("u", 0), ("e_raw", 0),
                      ("e_shaped", 0), ("w", p), ("n", 0)]
    header, fields = ["t"], []
    for key, width in widths:
        names = [f"{key}_{j}" for j in range(width)] if width else [key]
        fields.append((key, width, range(len(header), len(header) + len(names))))
        header += names
    return header + ["window_id", *(f"stat_{ch}" for ch in channels), "alarm"], fields


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

    One row per step, in the columns :func:`_layout` gives: its step
    columns, then its :func:`_window_columns` cells.  A single header comment line carries the schema metadata needed
    to re-import standalone.  Rows are formatted and written in blocks of
    :func:`_block_rows` rows, so memory does not grow with the horizon; within
    a block, repeated columns are formatted once (:func:`_format_block`).
    """
    header, fields = _layout(trace.config.plant.build().kernel, trace.channel_names)
    arrays = vars(trace)
    steps = [col for key, width, _ in fields
             for col in (arrays[key].T if width else [arrays[key]])]
    meta = (
        f"# dynwatermark-trace schema_version={trace.schema_version} "
        f"name={trace.config.name} seed={trace.seed} "
        f"plant={trace.config.plant.kind} residual_start={trace.residual_start} "
        f"burn_in={trace.burn_in}"
    )
    T = trace.horizon
    window_cells = [_expand(runs) for _, runs in _window_columns(trace)]
    rows = _block_rows(len(header))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{meta}\n{','.join(header)}\n")
        for a in range(0, T, rows):
            b = min(a + rows, T)
            fh.write(_rows([
                map(str, range(a, b)),
                *_format_block([values[a:b] for values in steps]),
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
    """The non-blank rows of a trace body, up to :func:`_block_rows` physical
    lines at a time, each checked to hold ``K`` fields."""
    line_no, rows = 2, _block_rows(K)
    while lines := list(islice(fh, rows)):
        odd = [k for k, ln in enumerate(lines) if ln.count(",") != K - 1]
        for k in odd:
            if lines[k].strip():
                raise ValueError(
                    f"{path} line {line_no + 1 + k}: expected {K} fields, "
                    f"got {lines[k].count(',') + 1}"
                )
        line_no += len(lines)
        yield [ln for ln in lines if ln.strip()] if odd else lines
        del lines  # released before the next block is read


def _fields(rows: list[str]) -> list[str]:
    """The fields of rows of K fields each: field j of row i is at i*K + j."""
    return ",".join(rows).replace("\n", "").split(",")


def _read_block(path, header, flat, t0: int, fields, groups, window_runs) -> None:
    """Parse the fields ``flat`` of the rows from step ``t0`` on: check the
    ``t`` cells, write the step columns and append each window column's cells
    to its run-length ``window_runs``.

    ``fields`` holds (step field, width, header indices of its columns), and
    ``groups`` (step fields, array): the fields whose rows so far hold equal
    bits, with the one array they share.  A group whose fields differ in
    this block splits: the part holding its first field keeps the array,
    and each other part gets its own, with the group's earlier rows copied
    in.  A column whose cells equal an earlier column's is parsed once.
    """
    K = len(header)
    ts = range(t0, t0 + len(flat) // K)
    if flat[::K] != list(map(str, ts)):
        cell, t = next((c, t) for c, t in zip(flat[::K], ts) if c != str(t))
        raise ValueError(f"{path}: column t holds {cell!r} at t={t}, not its step")
    parsed: list[tuple[list[str], np.ndarray]] = []
    block: dict[str, list[np.ndarray]] = {}
    for key, _, columns in fields:
        block[key] = []
        for j in columns:
            cells = flat[j::K]
            values = next((v for c, v in parsed if c == cells), None)
            if values is None:
                values = _parse_steps(path, header[j], cells, ts)
                parsed.append((cells, values))
            block[key].append(values)
    refined = []
    for keys, array in groups:
        parts: dict[bytes, list[str]] = {}
        for key in keys:
            parts.setdefault(b"".join(v.tobytes() for v in block[key]), []).append(key)
        for i, part in enumerate(parts.values()):
            dest = array
            if i:
                dest = np.empty_like(array)
                dest[:t0] = array[:t0]
            refined.append((part, dest))
            rows = dest[t0 : t0 + len(ts)]
            for j, values in enumerate(block[part[0]]):
                (rows if rows.ndim == 1 else rows[:, j])[:] = values
    groups[:] = refined
    for j, runs in enumerate(window_runs, K - len(window_runs)):
        for cell, group in groupby(flat[j::K]):
            _add_run(runs, cell, len(list(group)))


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
    alarm flags (one per window, ``"any"``) and no thresholds.  Before any
    row is read, ``residual_start`` and ``burn_in`` must be the scenario's,
    the ``stat_*`` columns its channels, and the header the :func:`_layout`
    export writes for its plant (state and input widths included).  Rows are then parsed
    in blocks of :func:`_block_rows` rows, each released before the next is
    read: every ``t`` cell must be its row's step, every step cell a finite
    number, every recomputed statistic finite or the +inf of a singular
    scatter, and the step data must hold the plant recursion.  Step fields
    with equal bits share one array, as in a run: only a field that differs
    from every earlier one gets an array (see :func:`_read_block`).
    """
    plant = config.plant.build()
    T, l = config.horizon, config.detector.window_len
    with open(path, "r", encoding="utf-8") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("# dynwatermark-trace "):
            raise ValueError(f"{path} is not a trace export")
        header = fh.readline().strip().split(",")
        # keys are the first token and the last four; the name between is free text
        tokens = meta_line[2:].split()[1:]
        meta = dict(item.split("=", 1) for item in tokens[:1] + tokens[-4:] if "=" in item)
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
        if (start, burn) != _start_burn(config, plant.kernel):
            raise ValueError(
                f"{path}: trace metadata has residual_start={start}, burn_in={burn}"
            )
        specs = channel_specs(config)
        # a run with no complete window computes no statistics
        channels = sorted(s.name for s in specs) if len(_window_ends(T, start, burn, l)) else []
        have = sorted(h[len("stat_") :] for h in header if h.startswith("stat_"))
        if have != channels:
            raise ValueError(
                f"{path}: trace holds statistics {have}, the scenario computes {channels}"
            )
        layout, fields = _layout(plant.kernel, channels)
        if header != layout:
            j = next(j for j, (a, b) in enumerate(zip_longest(header, layout)) if a != b)
            got, exp = (repr(h[j]) if j < len(h) else "nothing" for h in (header, layout))
            raise ValueError(f"{path}: header field {j + 1} is {got}, where export writes {exp}")
        # before any row, the fields of one shape form one group
        shapes: dict[tuple, list[str]] = {}
        for key, width, _ in fields:
            shapes.setdefault((T, width) if width else (T,), []).append(key)
        groups = [(keys, np.empty(shape)) for shape, keys in shapes.items()]
        windows = layout[fields[-1][2].stop :]  # the columns after the step columns
        window_runs: list[list[tuple[str, int]]] = [[] for _ in windows]
        n_rows = 0
        for rows in _row_blocks(fh, path, len(layout)):
            t0, n_rows = n_rows, n_rows + len(rows)
            if t0 < T:  # rows beyond the horizon are only counted
                _read_block(path, layout, _fields(rows[: T - t0]), t0, fields, groups,
                            window_runs)
            del rows  # released before the next block is read
    if n_rows != T:
        raise ValueError(f"trace has {n_rows} steps, scenario horizon is {T}")
    stored = dict(zip(windows, window_runs))
    data: dict[str, np.ndarray | None] = dict.fromkeys(_STEP_FIELDS)
    for keys, array in groups:
        data.update(dict.fromkeys(keys, array))
    if data["x"] is None:
        data["x"] = data["y"]
    if data["y"] is None:
        data["y"] = data["x"]
    spans = sum(count for cell, count in stored["window_id"] if cell == "0")
    if spans and spans != l:
        raise ValueError(f"{path}: window 0 spans {spans} rows, scenario window_len is {l}")
    # A huge finite cell can overflow a statistic; the checks below refuse it.
    _, ends, stats = _window_pass(config, plant, data, specs)
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
    # run_scenario refuses these statistics, so no trace it wrote holds one
    _detect._require_finite(ends, stats)
    _self_check(trace)
    return trace


def _self_check(trace: Trace) -> None:
    """Verify the plant recursion holds exactly on the stored step data.

    The residual is formed a block of steps at a time, each lag block from
    the steps its filters reach back to, so no per-step buffer is held.
    """
    form = trace.config.plant.build().kernel
    T = trace.horizon
    if isinstance(form, LagForm):
        y, u, w = trace.y, trace.u, trace.w
        reach = max(len(form.a), form.delay + len(form.b) - 1, len(form.c) - 1)

        def residual(a: int, b: int) -> np.ndarray:
            lo = max(a - reach, 0)
            r = lag_filter((1.0,) + form.a, y[lo:b])
            r -= lag_filter(form.b, u[lo:b], form.delay)
            r -= lag_filter(form.c, w[lo:b])
            return r[a - lo :]

        rows, first = _BLOCK_CELLS, 0
    else:
        x, u, w = trace.x, trace.u.reshape(T, -1), trace.w
        state = replace(form, C=None)  # the state recursion, whatever the sensor reads

        def residual(a: int, b: int) -> np.ndarray:
            return innovations(state, x[a - 1 : b], u[a - 1 : b]) - w[a:b]

        rows, first = _block_rows(x.shape[1]), 1
    errs = [np.max(np.abs(residual(a, min(a + rows, T)))) for a in range(first, T, rows)]
    err = float(np.max(errs)) if errs else 0.0
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
