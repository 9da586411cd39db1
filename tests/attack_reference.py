"""View-only reference of the built-in sensor attacks.

Each strategy here is a function of a :class:`SensorView` and the attack's
private RNG stream, and of nothing else: the view has no field for the
excitation or the true process noise.  They are the specification of what a
compromised sensor may read, and of the order of each strategy's
floating-point operations.  The closed-loop kernels apply the same strategies
inline; ``tests/test_adversary.py`` replays every run's public data through
:func:`reference_reports` and requires the kernel's reports bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from dynwatermark.adversary import SensorView
from dynwatermark.harness import _Streams
from dynwatermark.linsys import LagForm, dot
from dynwatermark.scenario import resolve_watermark
from dynwatermark.watermark import draw_iid


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
