"""Private excitation for watermarked actuators.

The actuator superimposes an i.i.d. secret sequence e[t] on the nominal input.
Its distribution is public, the realization is private.  For plants whose
input enters through a lag polynomial B(q^-1), the raw sequence is passed
through a shaping filter first so that the watermark's contribution to the
output stays white.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .residual import rational_filter

__all__ = [
    "FAMILIES",
    "WatermarkSpec",
    "draw_iid",
    "draw_excitation",
    "match_distribution",
    "shape",
]

FAMILIES = ("gaussian", "laplace", "uniform")


def draw_iid(family: str, variance: float, rng: np.random.Generator, size=None):
    """Draw zero-mean i.i.d. samples of the given family and variance."""
    if variance < 0.0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    if family == "gaussian":
        return rng.normal(0.0, math.sqrt(variance), size)
    if family == "laplace":
        return rng.laplace(0.0, math.sqrt(variance / 2.0), size)
    if family == "uniform":
        half = math.sqrt(3.0 * variance)
        return rng.uniform(-half, half, size)
    raise ValueError(f"unknown noise family {family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class WatermarkSpec:
    """Watermark configuration: excitation variance, family, and shaping mode.

    ``family`` may be "matched", meaning: choose e so that gain*e has the
    same distribution as the process noise, where gain is the plant kernel's
    watermark gain (b for scalar, b0 for ARX, 1 for ARMAX, whose shaper
    divides B out); it is resolved against the plant via
    :func:`match_distribution` before drawing.  ``shaper`` is "none" (the
    raw excitation drives the input) or one of "auto", "arx" and "armax",
    which all select the plant kernel's shaper B s = gain C e (see
    :func:`shape`); "arx" needs b_coeffs and "armax" an ARMAX plant.
    """

    sigma_e2: float
    family: str = "gaussian"
    shaper: str = "auto"

    def __post_init__(self) -> None:
        if not self.sigma_e2 >= 0.0:
            raise ValueError(f"sigma_e2 must be >= 0, got {self.sigma_e2}")
        if self.family not in FAMILIES + ("matched",):
            raise ValueError(f"unknown excitation family {self.family!r}")
        if self.shaper not in ("auto", "none", "arx", "armax"):
            raise ValueError(f"unknown shaper {self.shaper!r}")


def draw_excitation(spec: WatermarkSpec, rng: np.random.Generator, size=None):
    """Draw raw excitation samples e ~ spec (scalar when size is None)."""
    if spec.family == "matched":
        raise ValueError("'matched' family must be resolved against a plant first")
    out = draw_iid(spec.family, spec.sigma_e2, rng, size)
    return float(out) if size is None else out


def match_distribution(target: tuple[str, float], b: float) -> tuple[str, float]:
    """Excitation distribution such that b*e is distributed like ``target``.

    ``target`` is a (family, variance) pair for the process noise; the matched
    excitation keeps the family (all supported families are closed under
    scaling) and divides the variance by b**2.
    """
    family, variance = target
    if family not in FAMILIES:
        raise ValueError(f"unknown noise family {family!r}")
    if b == 0.0:
        raise ValueError("cannot match through a zero input gain")
    return family, float(variance) / (b * b)


# ---------------------------------------------------------------------------
# shaping filter
# ---------------------------------------------------------------------------


def shape(e, b_coeffs, c_coeffs=(1.0,), gain=None) -> np.ndarray:
    """Shaped excitation s solving B(q^-1) s = gain * C(q^-1) e, at rest.

    ``gain`` defaults to b0, which makes C = (1,) the inverse-B
    pre-equalizer: the watermark then reaches the output as white b0*e even
    though the input channel is a filter.  The ARMAX shaper uses gain 1 and
    the plant's noise polynomial C.  B must be strictly minimum phase, so the
    filter is stable.  It depends on e alone, so it runs on the whole
    sequence at once.
    """
    if gain is None:
        gain = b_coeffs[0]
    return rational_filter(gain * np.asarray(c_coeffs, dtype=float), b_coeffs, e)
