"""View-only reference of the built-in sensor attacks.

Each strategy here is a function of a :class:`SensorView` and the attack's
private RNG stream, and of nothing else: the view has no field for the
excitation or the true process noise.  They are the specification of what a
compromised sensor may read, and of the order of each strategy's
floating-point operations.  The closed-loop kernels apply the same strategies
inline; ``tests/test_adversary.py`` replays every run's public data through
:func:`reference_reports` and requires the kernel's reports bit for bit.

:func:`reference_closed_loop` and :func:`reference_lag_loop` are the
hand-written state-space and lag-polynomial loops that the generated kernels
replace, kept as their specification: ``tests/test_harness.py`` requires
every array the kernels return byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from dynwatermark.adversary import SensorView
from dynwatermark.harness import _custom_report, _Streams
from dynwatermark.linsys import LagForm
from dynwatermark.residual import lag_filter
from dynwatermark.scenario import resolve_watermark
from dynwatermark.watermark import draw_iid, shape


def dot(row, x) -> float:
    """sum_j row[j]*x[j] on Python floats, added left to right: the order of
    every dot product in the generated state-space loop."""
    acc = row[0] * x[0]
    for j in range(1, len(row)):
        acc += row[j] * x[j]
    return acc


def _copy(value):
    return value.copy() if isinstance(value, np.ndarray) else value


def _advance(form, x, u, w) -> list[float]:
    """x' = A x + B u + w of a state-space plant, row by row on Python
    floats: dot(A_r, x) + dot(B_r, u) + w[r]."""
    return [dot(a_r, x) + dot(b_r, u) + w_r
            for a_r, b_r, w_r in zip(form.A.tolist(), form.B.tolist(), w)]


def _row(value) -> list[float]:
    """A state, input or noise row as Python floats."""
    return np.atleast_1d(np.asarray(value, dtype=float)).tolist()


def _past(seq, i: int) -> float:
    """seq[i] of a scalar signal at rest (zero) before t = 0."""
    return float(seq[i]) if i >= 0 else 0.0


class AttackStrategy:
    """Honest until ``onset``, then `_attack`."""

    def __init__(self, onset: int | None = None):
        self.onset = onset

    def report(self, view: SensorView):
        if self.onset is None or view.t < self.onset:
            return _copy(view.y[view.t])
        return self._attack(view)


class ReplayAttack(AttackStrategy):
    """Loop the last ``record_len`` honest reports verbatim from onset on."""

    def __init__(self, onset: int, record_len: int):
        super().__init__(onset)
        self.record_len = record_len

    def _attack(self, view: SensorView):
        j = (view.t - self.onset) % self.record_len
        return _copy(view.z[self.onset - self.record_len + j])


class NoiseSimAttack(AttackStrategy):
    """Replace the plant with a private simulation of the same closed loop,
    driven by the nominal inputs and the attacker's own noise.  The noise of
    every attack step is drawn in one block at onset, except on a noisy
    output whose w' is not Gaussian: there each step draws its w', then n'."""

    def __init__(self, onset: int, rng: np.random.Generator, horizon: int):
        super().__init__(onset)
        self._rng = rng
        self._horizon = horizon
        self._noise = None
        self._w_hist: list[float] = []
        self._x_sim: list[float] | None = None

    def _predraw(self, form, w_family: str):
        steps = self._horizon - self.onset
        if isinstance(form, LagForm):
            return memoryview(draw_iid(w_family, form.sigma_w2, self._rng, steps))
        p = form.A.shape[0]
        if form.C is None:
            return draw_iid(w_family, form.sigma_w2, self._rng, (steps, p))
        if w_family != "gaussian":
            return None
        scales = [math.sqrt(form.sigma_w2)] * p + [math.sqrt(form.sigma_n2)]
        return memoryview(self._rng.normal(0.0, scales, (steps, p + 1)).reshape(-1))

    def _attack(self, view: SensorView):
        form = view.plant.kernel
        t = view.t
        step = t - self.onset
        if step == 0:
            self._noise = self._predraw(form, view.w_family)
        noise = self._noise
        z, u_g = view.z, view.u_g
        if isinstance(form, LagForm):
            # Own noise memory for C(q^-1) w'; pre-onset w' values are zero.
            self._w_hist.insert(0, noise[step])
            del self._w_hist[len(form.c) :]
            acc = 0.0
            for k, ak in enumerate(form.a):
                acc -= ak * _past(z, t - 1 - k)
            for k, bk in enumerate(form.b):
                acc += bk * _past(u_g, t - form.delay - k)
            for ck, wk in zip(form.c, self._w_hist):
                acc += ck * wk
            return acc
        # A measured state restarts from the last report; a hidden one runs
        # on the attacker's own copy, both by the plant loop's float update.
        if form.C is None:
            return np.array(_advance(form, _row(z[t - 1]), _row(u_g[t - 1]), _row(noise[step])))
        p = form.A.shape[0]
        if noise is None:
            w = draw_iid(view.w_family, form.sigma_w2, self._rng, p).tolist()
            n = float(draw_iid("gaussian", form.sigma_n2, self._rng))
        else:
            i = step * (p + 1)
            w, n = noise[i : i + p], noise[i + p]
        x = self._x_sim or [0.0] * p
        x = self._x_sim = _advance(form, x, [float(u_g[t - 1])], w)
        return dot(form.C.tolist(), x) + n


def estimate_noise_arx(view: SensorView) -> float:
    """E[w[t] | s[t]] = beta*s[t] from the public innovation
    s[t] = A(q^-1) y[t] - B(q^-1) u_g[t-1] = gain*e[t-1] + w[t], with
    beta = sigma_w2 / (gain^2 sigma_e2 + sigma_w2)."""
    form = view.plant.kernel
    t = view.t
    s = float(view.y[t])
    for k, ak in enumerate(form.a):
        s += ak * _past(view.y, t - 1 - k)
    for k, bk in enumerate(form.b):
        s -= bk * _past(view.u_g, t - 1 - k)
    g, sw2 = form.gain, form.sigma_w2
    return sw2 / (g * g * view.sigma_e2 + sw2) * s


def additive_gain(form, sigma_e2: float) -> np.ndarray:
    """K = sigma_w2 (sigma_e2 B B' + sigma_w2 I)^-1 of a measured state,
    whose innovation s = B e + w gives E[w | s] = K s."""
    gram = sigma_e2 * (form.B @ form.B.T) + form.sigma_w2 * np.eye(len(form.A))
    return form.sigma_w2 * np.linalg.inv(gram)


def additive_attack_step(view: SensorView, n_t, gain=None):
    """One step of the estimated-noise additive attack: returns (v[t], z[t]),
    v[t] = n[t] - w_hat[t]."""
    form = view.plant.kernel
    if isinstance(form, LagForm):
        v = float(n_t) - estimate_noise_arx(view)
        return v, float(view.y[view.t]) + v
    if gain is None:
        gain = additive_gain(form, view.sigma_e2)
    t = view.t
    p, m = form.B.shape
    y_t = _row(view.y[t])
    y_prev = _row(view.y[t - 1]) if t >= 1 else [0.0] * p
    ug_prev = _row(view.u_g[t - 1]) if t >= 1 else [0.0] * m
    # s = y[t] - (A y[t-1] + B u_g[t-1]), predicted as the plant loop advances
    s = [y_r - (dot(a_r, y_prev) + dot(b_r, ug_prev))
         for y_r, a_r, b_r in zip(y_t, form.A.tolist(), form.B.tolist())]
    v = [n_r - dot(g_r, s) for n_r, g_r in zip(_row(n_t), np.asarray(gain).tolist())]
    return np.array(v), np.array([y_r + v_r for y_r, v_r in zip(y_t, v)])


class AdditiveEstimatedAttack(AttackStrategy):
    """Add fake process noise while subtracting an estimate of the real one.
    The fake noise is drawn in one block at onset, and a measured state's
    gain is computed once, at onset."""

    def __init__(self, onset: int, rng: np.random.Generator, horizon: int):
        super().__init__(onset)
        self._rng = rng
        self._horizon = horizon
        self._noise = None
        self._gain = None

    def _attack(self, view: SensorView):
        form = view.plant.kernel
        step = view.t - self.onset
        if step == 0:
            steps = self._horizon - self.onset
            lag = isinstance(form, LagForm)
            shape = steps if lag else (steps, form.A.shape[0])
            self._noise = draw_iid(view.w_family, form.sigma_w2, self._rng, shape)
            if not lag:
                self._gain = additive_gain(form, view.sigma_e2)
        _, z_t = additive_attack_step(view, self._noise[step], self._gain)
        return z_t


def reference_attack(config, rng: np.random.Generator) -> AttackStrategy:
    """The view-only strategy of the scenario's built-in attack."""
    ac = config.attack
    if ac.kind == "honest":
        return AttackStrategy()
    if ac.kind == "replay":
        return ReplayAttack(ac.onset, ac.record_len)
    if ac.kind == "noise_sim":
        return NoiseSimAttack(ac.onset, rng, config.horizon)
    assert ac.kind == "additive_estimated", ac.kind
    return AdditiveEstimatedAttack(ac.onset, rng, config.horizon)


def reference_reports(trace) -> np.ndarray:
    """The reports the reference sensor makes, step by step, from the run's
    public data only: its measurements y, its own reports so far, the
    nominal inputs u_g, the plant, the public watermark parameters and a
    fresh copy of the run's attack substream."""
    cfg = trace.config
    plant = cfg.plant.build()
    wm = resolve_watermark(cfg)
    attack = reference_attack(cfg, _Streams(trace.seed).attack)
    z = np.zeros_like(trace.z)
    view = SensorView(0, trace.y, z, trace.u_g, plant, wm.sigma_e2, wm.family,
                      cfg.plant.w_family)
    for t in range(cfg.horizon):
        view.t = t
        z[t] = attack.report(view)
    return z


def reference_closed_loop(form, plant, law, attack, wm, w_family, streams, T):
    """The specification of ``harness._simulate_ss``, whose generated kernels
    must return these arrays byte for byte.

    Closed loop of a state-space plant: one loop on Python floats, read
    and written through memoryviews of preallocated, zero-filled arrays, each
    dot product added left to right (:func:`dot`), so no bit depends
    on a BLAS kernel.

    A state row advances as x'[r] = dot(A_r, x) + dot(B_r, u) + w'[r].  A
    measured state reports its row, a noisy output dot(C, x) + n.  The law
    ``law`` (see :func:`_policy_data`) gives u_g[i] = dot(F_i, z), and the
    excitation is added to it.  The sensor reports y[t], or from onset on
    what ``attack`` (see :func:`.adversary._attack_data`) makes of it:
    ``noise_sim`` advances the last report of a measured state, or its own
    copy of a hidden one, by the same update.
    """
    A, B, C = form.A, form.B, form.C
    p, m = B.shape
    w = np.asarray(draw_iid(w_family, form.sigma_w2, streams.process, (T, p)))
    w[0] = 0.0
    e = np.column_stack(
        [draw_iid(wm.family, wm.sigma_e2, rng, T) for rng in streams.excitation]
    )
    x = np.zeros((T, p))
    if C is None:
        n, y, z, q, c = None, x, np.zeros((T, p)), p, None
    else:
        n = np.asarray(draw_iid("gaussian", form.sigma_n2, streams.measurement, T))
        y, z, e, q = np.zeros(T), np.zeros(T), e[:, 0], 1
        n_v, c = memoryview(n), C.tolist()
    u_g, u = np.zeros(e.shape), np.zeros(e.shape)
    x_v, w_v, y_v, z_v, g_v, u_v, e_v = (
        memoryview(a.reshape(-1)) for a in (x, w, y, z, u_g, u, e)
    )
    rows = list(zip(A.tolist(), B.tolist()))
    law, (kind, onset, data) = law or [()] * m, attack or (None, T, None)
    # a custom attack reads ndarray rows of a measured state, floats otherwise
    hist = (x, z, u_g) if C is None else (y_v, z_v, g_v)
    view = SensorView(0, *hist, plant, wm.sigma_e2, wm.family, w_family)
    own = [0.0] * p  # noise_sim's copy of a hidden state
    stride = p if C is None else p + 1  # noise_sim's draws per step
    for t in range(T):
        i, j, k = t * p, t * m, t * q
        x_t = x_v[i : i + p]
        z_t = x_t if c is None else dot(c, x_t) + n_v[t]
        if c is not None:
            y_v[t] = z_t
        if t >= onset:
            if kind == "replay":
                z_t = z_v[k - data * q : k - data * q + q] if c is None else z_v[t - data]
            elif kind == "noise_sim":
                s = (t - onset) * stride
                prev, g_prev = z_v[k - q : k] if c is None else own, g_v[j - m : j]
                own = [dot(a_r, prev) + dot(b_r, g_prev) + data[s + r]
                       for r, (a_r, b_r) in enumerate(rows)]
                z_t = own if c is None else dot(c, own) + data[s + p]
            elif kind == "additive_estimated":
                gain, noise = data
                prev, g_prev, s = x_v[i - p : i], g_v[j - m : j], (t - onset) * p
                innov = [y_r - (dot(a_r, prev) + dot(b_r, g_prev))
                         for y_r, (a_r, b_r) in zip(x_t, rows)]
                z_t = [y_r + (noise[s + r] - dot(g_r, innov))
                       for r, (y_r, g_r) in enumerate(zip(x_t, gain))]
            else:
                view.t = t
                z_t = np.asarray(data(view), dtype=float)
                if z_t.shape != z.shape[1:]:
                    raise ValueError(
                        f"report at t={t} has shape {z_t.shape}, the plant outputs {z.shape[1:]}"
                    )
                z_t = z_t.tolist()
        if c is None:
            for r, z_r in enumerate(z_t, k):
                z_v[r] = z_r
        else:
            z_v[t] = z_t
            z_t = (z_t,)
        for r, f_r in enumerate(law, j):
            g_v[r] = g = dot(f_r, z_t) if f_r else 0.0
            u_v[r] = g + e_v[r]
        if t < T - 1:
            u_t, k = u_v[j : j + m], i + p
            for a_r, b_r in rows:
                x_v[k] = dot(a_r, x_t) + dot(b_r, u_t) + w_v[k]
                k += 1
    return dict(x=x, y=y, z=z, u_g=u_g, u=u, e_raw=e, e_shaped=e, w=w, n=n)


def reference_lag_loop(form: LagForm, plant, law, attack, wm, w_family, streams, T):
    """The specification of ``harness._simulate_lag``, whose generated kernels
    must return these arrays byte for byte.

    Closed loop of a lag-polynomial plant.

    At each t the output sums the AR terms, then the delayed input terms,
    then C(q^-1) w[t]; the sensor reports it, or from onset on what
    ``attack`` (see :func:`.adversary._attack_data`) makes of it; the control
    law ``law`` (see :func:`_policy_data`) sums its z terms, then its u_g
    terms, then divides by ub[0], and the shaped excitation is added to the
    nominal input.  Each signal is one zero-padded array, read and written
    through a memoryview; its unpadded part is both the sensor's history and
    the trace array.
    """
    w = np.asarray(draw_iid(w_family, form.sigma_w2, streams.process, T))
    w[: form.start] = 0.0
    e = np.asarray(draw_iid(wm.family, wm.sigma_e2, streams.excitation[0], T))
    s = e if wm.shaper == "none" else shape(e, form.b, form.c, form.gain)
    cw, s_v = memoryview(lag_filter(form.c, w)), memoryview(s)
    ar = [(ak, 1 + k) for k, ak in enumerate(form.a)]
    br = [(bk, form.delay + k) for k, bk in enumerate(form.b)]
    za, ub = law if law is not None else ((), ())
    zr = [(am, m) for m, am in enumerate(za) if m]
    gr = [(ubr, r) for r, ubr in enumerate(ub) if r]
    pad = max(lag for _, lag in ar + br + zr + gr)
    y, u, z, u_g = (np.zeros(pad + T) for _ in range(4))
    y_v, u_v, z_v, g_v = map(memoryview, (y, u, z, u_g))
    kind, onset, data = attack or (None, T, None)
    view = SensorView(0, y_v[pad:], z_v[pad:], g_v[pad:], plant, wm.sigma_e2, wm.family,
                      w_family)
    report = _custom_report(data, view, ())
    for t, (cw_t, s_t) in enumerate(zip(cw, s_v)):
        i = pad + t
        acc = 0.0
        for ak, lag in ar:
            acc -= ak * y_v[i - lag]
        for bk, lag in br:
            acc += bk * u_v[i - lag]
        y_v[i] = zt = acc + cw_t
        if t >= onset:
            if kind == "replay":
                zt = z_v[i - data]
            elif kind == "noise_sim":
                # The plant's recursion on the reports and u_g, and C(q^-1)
                # over the attacker's own w' since onset (zero before it).
                zt = 0.0
                for ak, lag in ar:
                    zt -= ak * z_v[i - lag]
                for bk, lag in br:
                    zt += bk * g_v[i - lag]
                for ck, wk in zip(form.c, data[t - onset :: -1]):
                    zt += ck * wk
            elif kind == "additive_estimated":
                # innovation s = A(q^-1) y[t] - B(q^-1) u_g[t-1] (delay 1)
                gain, noise = data
                innov = zt
                for ak, lag in ar:
                    innov += ak * y_v[i - lag]
                for bk, lag in br:
                    innov -= bk * g_v[i - lag]
                zt += noise[t - onset] - gain * innov
            else:
                zt = report(t)
        z_v[i] = zt
        g = 0.0  # the zero law leaves u_g at its fill
        if law is not None:
            # Start from the first product: f*z keeps its sign at zero.
            g = za[0] * zt
            for am, m in zr:
                g += am * z_v[i - m]
            for ubr, r in gr:
                g -= ubr * g_v[i - r]
            g_v[i] = g = g / ub[0]
        u_v[i] = g + s_t
    y = y[pad:]
    return dict(
        x=y, y=y, z=z[pad:], u_g=u_g[pad:], u=u[pad:], e_raw=e, e_shaped=s, w=w, n=None
    )
