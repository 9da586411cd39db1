"""Sensor-side attack models.

The sensor decides what the controller gets to see.  Every strategy here is a
deterministic function of a :class:`SensorView` plus an attack-private RNG
stream.  The view carries exactly what a compromised sensor could know: the
true measurements so far, its own past reports, the nominal inputs (which are
recomputable from the reports and the public policy), and the public plant
and watermark parameters.  The watermark realization and the true process
noise are structurally absent — there are no such fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .linsys import LagForm, advance, dot
from .watermark import draw_iid

__all__ = [
    "SensorView",
    "AttackStrategy",
    "HonestSensor",
    "ReplayAttack",
    "NoiseSimAttack",
    "AdditiveEstimatedAttack",
    "CustomAttack",
    "register_attack",
    "estimate_noise_arx",
    "additive_attack_step",
    "BUILTIN_ATTACKS",
]


@dataclass
class SensorView:
    """What the compromised sensor knows at reporting time ``t``.

    ``y[0..t]`` are valid (``y[t]`` is the measurement being reported on);
    ``z[0..t-1]`` and ``u_g[0..t-1]`` are valid.  ``u_g`` is cached here for
    convenience only: the policy is a public LTI map of the reports with no
    secret state, so an attacker who runs it on the reports reproduces u_g
    exactly, and carrying it adds no information.  Only the excitation is
    private.  The histories are views of the run's own arrays: their
    elements are floats for a scalar-output plant and float ndarray rows for
    a measured state, and entries the loop has not reached read zero.
    """

    t: int
    y: Sequence
    z: Sequence
    u_g: Sequence
    plant: Any
    sigma_e2: float
    e_family: str = "gaussian"
    w_family: str = "gaussian"


def _copy(value):
    return value.copy() if isinstance(value, np.ndarray) else value


class AttackStrategy:
    """Base reporting strategy: honest until ``onset``, then `_attack`."""

    kind = "honest"

    def __init__(self, onset: int | None = None):
        if onset is not None and onset < 1:
            raise ValueError(f"onset must be >= 1, got {onset}")
        self.onset = onset

    def report(self, view: SensorView):
        if self.onset is None or view.t < self.onset:
            return _copy(view.y[view.t])
        return self._attack(view)

    def _attack(self, view: SensorView):  # pragma: no cover - abstract
        raise NotImplementedError


class HonestSensor(AttackStrategy):
    """Reports z[t] = y[t] forever."""

    kind = "honest"

    def __init__(self):
        super().__init__(onset=None)


class ReplayAttack(AttackStrategy):
    """Loop the last ``record_len`` honest reports verbatim from onset on."""

    kind = "replay"

    def __init__(self, onset: int, record_len: int):
        super().__init__(onset)
        if record_len < 1:
            raise ValueError(f"record_len must be >= 1, got {record_len}")
        if record_len > onset:
            raise ValueError(
                f"record_len={record_len} exceeds the {onset} honest samples "
                "available before onset"
            )
        self.record_len = record_len

    def _attack(self, view: SensorView):
        j = (view.t - self.onset) % self.record_len
        return _copy(view.z[self.onset - self.record_len + j])


class NoiseSimAttack(AttackStrategy):
    """Replace the plant with a private simulation of the same closed loop.

    From onset on, the report is the output of a simulated copy of the plant
    driven by the nominal inputs and the attacker's own process noise w'.
    The attacker cannot add the watermark (it never sees e), which is what
    the correlation tests catch.

    The attack steps run from ``onset`` to ``horizon - 1``.  Their noise is
    drawn in one block at onset, in the order per-step draws would take it,
    except on a noisy output whose w' is not Gaussian: there w' and the
    Gaussian n' come from two families, and each step draws its own.
    """

    kind = "noise_sim"

    def __init__(self, onset: int, rng: np.random.Generator, horizon: int):
        super().__init__(onset)
        self._rng = rng
        self._horizon = horizon
        self._noise = None
        self._w_hist: list[float] = []
        self._x_sim: list[float] | None = None

    def _predraw(self, form, w_family: str):
        """Noise of every attack step, or None if the steps draw their own:
        w' for a lag plant or a measured state, (w', n') for a noisy output.
        A measured state's block has one row per step; the blocks the float
        loops read are memoryviews of the drawn array, flat for (w', n')."""
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
        # on the attacker's own copy, in Python floats like the plant's loop.
        if form.C is None:
            x = np.asarray(z[t - 1], dtype=float)
            u = np.atleast_1d(np.asarray(u_g[t - 1], dtype=float))
            return form.A @ x + form.B @ u + noise[step]
        p = form.A.shape[0]
        if noise is None:
            w = draw_iid(view.w_family, form.sigma_w2, self._rng, p).tolist()
            n = float(draw_iid("gaussian", form.sigma_n2, self._rng))
        else:
            i = step * (p + 1)
            w, n = noise[i : i + p], noise[i + p]
        rows, b, c = form.float_rows
        x = self._x_sim or [0.0] * p
        x = self._x_sim = advance(rows, b, x, float(u_g[t - 1]), w)
        return dot(c, x) + n


def _past(seq, i: int) -> float:
    """seq[i] of a scalar signal at rest (zero) before t = 0."""
    return float(seq[i]) if i >= 0 else 0.0


def _is_equation_error(form) -> bool:
    """Scalar and ARX kernels: the residual is the plain equation error, so
    white noise enters one step after the input (ARMAX starts at t = 0)."""
    return isinstance(form, LagForm) and form.start == 1


def estimate_noise_arx(view: SensorView, plant) -> float:
    """Conditional-mean estimate of w[t] from the public-information innovation.

    The innovation s[t] = A(q^-1) y[t] - B(q^-1) u_g[t-1] equals
    gain*e[t-1] + w[t]; with both white and independent, E[w|s] = beta*s
    where beta = sigma_w2 / (gain^2 sigma_e2 + sigma_w2).
    """
    form = plant.kernel
    if not _is_equation_error(form):
        raise TypeError("estimate_noise_arx needs a scalar or ARX plant")
    t = view.t
    s = float(view.y[t])
    for k, ak in enumerate(form.a):
        s += ak * _past(view.y, t - 1 - k)
    for k, bk in enumerate(form.b):
        s -= bk * _past(view.u_g, t - 1 - k)
    g, sw2 = form.gain, form.sigma_w2
    return sw2 / (g * g * view.sigma_e2 + sw2) * s


def _additive_gain(form, sigma_e2: float) -> np.ndarray:
    """The gain K = sigma_w2 (sigma_e2 B B' + sigma_w2 I)^-1 of a measured
    state, whose innovation s = B e + w gives E[w | s] = K s."""
    gram = sigma_e2 * (form.B @ form.B.T) + form.sigma_w2 * np.eye(len(form.A))
    return form.sigma_w2 * np.linalg.inv(gram)


def additive_attack_step(view: SensorView, n_t, gain=None) -> tuple[Any, Any]:
    """One step of the estimated-noise additive attack: returns (v[t], z[t]).

    v[t] = n[t] - w_hat[t]; the sensor adds fresh fake noise and subtracts its
    best estimate of the real noise, aiming z at the attack-free output law.
    A measured state estimates w_hat[t] = K s[t] with ``gain``
    K = sigma_w2 (sigma_e2 B B' + sigma_w2 I)^-1, computed from the view if
    not given.
    """
    form = view.plant.kernel
    if _is_equation_error(form):
        v = float(n_t) - estimate_noise_arx(view, view.plant)
        return v, float(view.y[view.t]) + v
    if isinstance(form, LagForm) or form.C is not None:
        raise TypeError(
            "additive_estimated attack is defined for scalar, ARX and MIMO plants only"
        )
    if gain is None:
        gain = _additive_gain(form, view.sigma_e2)
    t = view.t
    A, B = form.A, form.B
    y_prev = np.asarray(view.y[t - 1], dtype=float) if t >= 1 else np.zeros(len(A))
    ug_prev = np.asarray(view.u_g[t - 1], dtype=float) if t >= 1 else np.zeros(B.shape[1])
    s = np.asarray(view.y[t], dtype=float) - A @ y_prev - B @ ug_prev
    v = np.asarray(n_t, dtype=float) - gain @ s
    return v, np.asarray(view.y[t], dtype=float) + v


class AdditiveEstimatedAttack(AttackStrategy):
    """Add fake process noise while subtracting an estimate of the real one.

    Power-neutral by construction: the report follows the honest output law
    exactly in variance, but the residual part of the real noise that the
    estimate misses stays in, which shifts the watermark-removed variance.

    The attack steps run from ``onset`` to ``horizon - 1``.  Their fake noise
    is drawn in one block at onset, in the order per-step draws would take
    it, and a measured state's noise gain is computed once, at onset.
    """

    kind = "additive_estimated"

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
                self._gain = _additive_gain(form, view.sigma_e2)
        _, z_t = additive_attack_step(view, self._noise[step], self._gain)
        return z_t


_REGISTRY: dict[str, Callable] = {}


def register_attack(name: str):
    """Decorator registering ``fn(view, rng, **params) -> z_t`` under ``name``."""

    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


class CustomAttack(AttackStrategy):
    """Attack looked up from the registry by name (scenario-configurable)."""

    kind = "custom"

    def __init__(self, name: str, onset: int, rng: np.random.Generator, params=None):
        super().__init__(onset)
        if name not in _REGISTRY:
            raise ValueError(
                f"unknown custom attack {name!r}; registered: {sorted(_REGISTRY)}"
            )
        self.name = name
        self._fn = _REGISTRY[name]
        self._rng = rng
        self._params = dict(params or {})

    def _attack(self, view: SensorView):
        return self._fn(view, self._rng, **self._params)


BUILTIN_ATTACKS = ("honest", "replay", "noise_sim", "additive_estimated")
