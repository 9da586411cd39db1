"""Sensor-side attack models.

The sensor decides what the controller gets to see: it reports z[t] in place
of the measurement y[t].  Every strategy is a deterministic function of what
a compromised sensor could know plus an attack-private RNG stream: the true
measurements so far, its own past reports, the nominal inputs (which are
recomputable from the reports and the public policy), and the public plant
and watermark parameters.  The watermark realization and the true process
noise are not among them.

The built-in strategies (``honest``, ``replay``, ``noise_sim`` and
``additive_estimated``) are translated once, by :func:`_attack_data`, into
data that each closed-loop kernel applies inline.  A custom strategy,
registered by name with :func:`register_attack`, is called at each attacked
step with a :class:`SensorView`, which carries exactly the information above:
it has no fields for the excitation or the true noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .linsys import LagForm
from .watermark import draw_iid

__all__ = ["SensorView", "register_attack", "BUILTIN_ATTACKS"]

BUILTIN_ATTACKS = ("honest", "replay", "noise_sim", "additive_estimated")


@dataclass
class SensorView:
    """What a custom attack knows at reporting time ``t``.

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


def _attack_data(config, form, rng: np.random.Generator):
    """The scenario's sensor as kernel data: None for an honest sensor, else
    ``(kind, onset, data)``.  The kernels report z[t] = y[t] before onset and
    apply ``data`` from onset on:

    * ``replay``: record_len.  z[t] = z[t - record_len] loops the last
      record_len honest reports verbatim.
    * ``noise_sim``: the attacker's own noise for the steps onset..horizon-1,
      with which it simulates the closed loop from the reports and u_g.  It
      cannot add the watermark (it never sees e), which is what the
      correlation tests catch.  A lag plant gets w', a measured state its w'
      rows and a noisy output (w', n') per step, each as one flat memoryview.
    * ``additive_estimated``: (gain, fake noise n).  z[t] = y[t] + n[t] -
      gain * s[t] adds fake process noise and subtracts the conditional mean
      of the real one given the public innovation s.  On a scalar or ARX
      plant s[t] = A(q^-1) y[t] - B(q^-1) u_g[t-1] = b0 e[t-1] + w[t], so
      gain = sigma_w2 / (b0^2 sigma_e2 + sigma_w2); on a measured state
      s = B e + w and gain = sigma_w2 (sigma_e2 B B' + sigma_w2 I)^-1.
    * a registered name: ``report(view)``, the custom function bound to the
      attack stream and the scenario's params.

    The noise comes from the attack's private stream, which nothing else
    reads, so drawing it here gives what per-step draws would.
    """
    ac = config.attack
    kind, onset = ac.kind, ac.onset
    if kind == "honest":
        return None
    if kind == "replay":
        return kind, onset, ac.record_len
    if kind not in BUILTIN_ATTACKS:
        fn = _REGISTRY.get(kind)
        if fn is None:
            raise ValueError(
                f"unknown custom attack {kind!r}; registered: {sorted(_REGISTRY)}"
            )
        params = dict(ac.params)
        return kind, onset, lambda view: fn(view, rng, **params)
    lag = isinstance(form, LagForm)
    steps = config.horizon - onset
    wf, sw2 = config.plant.w_family, form.sigma_w2
    if kind == "noise_sim" and not lag and form.C is not None:
        p = form.A.shape[0]
        if wf == "gaussian":
            scales = [math.sqrt(sw2)] * p + [math.sqrt(form.sigma_n2)]
            noise = rng.normal(0.0, scales, (steps, p + 1))
        else:  # two families: each step draws its w', then its Gaussian n'
            noise = np.array(
                [[*draw_iid(wf, sw2, rng, p), draw_iid("gaussian", form.sigma_n2, rng)]
                 for _ in range(steps)]
            )
        return kind, onset, memoryview(noise.reshape(-1))
    noise = draw_iid(wf, sw2, rng, steps if lag else (steps, form.A.shape[0]))
    noise = memoryview(noise.reshape(-1))
    if kind == "noise_sim":
        return kind, onset, noise
    from .scenario import resolve_watermark  # scenario imports this module

    se2 = resolve_watermark(config).sigma_e2
    if lag and form.start == 1:  # scalar and ARX: the plain equation error
        g = form.gain
        return kind, onset, (sw2 / (g * g * se2 + sw2), noise)
    if lag or form.C is not None:
        raise TypeError(
            "additive_estimated attack is defined for scalar, ARX and MIMO plants only"
        )
    gram = se2 * (form.B @ form.B.T) + sw2 * np.eye(len(form.A))
    return kind, onset, ((sw2 * np.linalg.inv(gram)).tolist(), noise)


_REGISTRY: dict[str, Callable] = {}


def register_attack(name: str):
    """Decorator registering ``fn(view, rng, **params) -> z_t`` under ``name``.

    From the scenario's onset on, the run reports what ``fn`` returns for
    the :class:`SensorView` of each step: a float, or a row of the state's
    shape for a measured-state plant.
    """

    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco
