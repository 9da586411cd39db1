"""Linear stochastic plant models and the two kernels they map onto.

The five plant classes are the public, validated parameterisations.  Each
one exposes ``kernel``, its canonical form: a :class:`LagForm` (scalar, ARX,
ARMAX) or a :class:`StateSpaceForm` (partial, MIMO).  Simulation, residuals,
oracle metrics and attacks are written once per kernel.  Control laws are not
objects: the closed-loop simulators in :mod:`.harness` apply a scenario's
policy as kernel data (lag coefficients or a gain).

Conventions shared across the package:

* histories are passed most-recent-first (``hist[0]`` is the latest sample,
  ``hist[k]`` is ``k`` steps back); anything before t=0 is implicitly zero;
* plants are pure: process/measurement noise is drawn by the caller, so the
  same plant object can be driven by recorded or simulated noise;
* polynomial coefficient tuples are ordered by increasing lag.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ScalarPlant",
    "ArxPlant",
    "ArmaxPlant",
    "PartialPlant",
    "MimoPlant",
    "LagForm",
    "StateSpaceForm",
    "dot",
    "check_min_phase",
]

# Roots this close to the unit circle are treated as on it.
MIN_PHASE_TOL = 1e-9

# Longest lag-polynomial feedback loop whose stability is checked.
MAX_LOOP_ORDER = 1000

# Residual samples the partially observed filter drops before windowing, so
# that its start-up transient has died.
PARTIAL_BURN_IN = 50


def _roots_in_lag_operator(coeffs: Sequence[float]) -> np.ndarray:
    """Roots of c0 + c1*s + ... + ck*s**k, where s stands for the lag operator."""
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficient sequence must be a non-empty 1-d sequence")
    return np.roots(arr[::-1])


def check_min_phase(coeffs: Sequence[float], name: str = "b_coeffs") -> None:
    """Require all roots of the lag polynomial strictly outside the unit circle.

    Strict minimum phase makes the inverse filter stable, which the shaping
    recursions rely on.  Root magnitudes are computed from the companion
    matrix (``np.roots``) and compared to 1 with tolerance ``MIN_PHASE_TOL``.
    """
    roots = _roots_in_lag_operator(coeffs)
    if roots.size == 0:
        return
    mags = np.abs(roots)
    bad = mags <= 1.0 + MIN_PHASE_TOL
    if bad.any():
        worst = roots[np.argmin(mags)]
        raise ValueError(
            f"{name}={tuple(float(c) for c in coeffs)} is not strictly minimum "
            f"phase: lag-polynomial root at {worst:.6g} (|root|={abs(worst):.6g}) "
            "is inside or on the unit circle"
        )


def _as_float_tuple(values: Sequence[float], name: str) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in values)
    except TypeError as exc:
        raise ValueError(f"{name} must be a sequence of numbers") from exc
    if not out:
        raise ValueError(f"{name} must be non-empty")
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


@dataclass(frozen=True)
class ScalarPlant:
    """Fully observed first-order plant x[t+1] = a*x[t] + b*u[t] + w[t+1]."""

    a: float
    b: float
    sigma_w2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("plant coefficients must be finite")
        if self.b == 0.0:
            raise ValueError("b must be nonzero (the input must reach the state)")
        if not self.sigma_w2 > 0.0:
            raise ValueError(f"sigma_w2 must be positive, got {self.sigma_w2}")

    @cached_property
    def kernel(self) -> "LagForm":
        return LagForm((-self.a,), (self.b,), (1.0,), 1, self.b, self.sigma_w2, 1, 0)


@dataclass(frozen=True)
class ArxPlant:
    """ARX plant y[t+1] = -sum_m a[m]*y[t-m] + sum_r b[r]*u[t-r] + w[t+1].

    ``a_coeffs`` = (a_0, ..., a_p) weight y[t] back to y[t-p]; ``b_coeffs`` =
    (b_0, ..., b_h) weight u[t] back to u[t-h] and must form a strictly
    minimum-phase lag polynomial with b_0 != 0.
    """

    a_coeffs: tuple[float, ...]
    b_coeffs: tuple[float, ...]
    sigma_w2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_coeffs", _as_float_tuple(self.a_coeffs, "a_coeffs"))
        object.__setattr__(self, "b_coeffs", _as_float_tuple(self.b_coeffs, "b_coeffs"))
        if self.b_coeffs[0] == 0.0:
            raise ValueError("b_coeffs[0] must be nonzero")
        check_min_phase(self.b_coeffs, "b_coeffs")
        if not self.sigma_w2 > 0.0:
            raise ValueError(f"sigma_w2 must be positive, got {self.sigma_w2}")

    @property
    def order_ar(self) -> int:
        return len(self.a_coeffs) - 1

    @property
    def order_b(self) -> int:
        return len(self.b_coeffs) - 1

    @cached_property
    def kernel(self) -> "LagForm":
        a, b = self.a_coeffs, self.b_coeffs
        return LagForm(a, b, (1.0,), 1, b[0], self.sigma_w2, 1, 0)


@dataclass(frozen=True)
class ArmaxPlant:
    """ARMAX plant with input delay:

    y[t] = -sum_{k=1..p} a[k]*y[t-k] + sum_{k=0..h} b[k]*u[t-delay-k]
           + sum_{k=0..r} c[k]*w[t-k]

    ``a_coeffs`` = (a_1, ..., a_p) — note the sum starts one step back, unlike
    :class:`ArxPlant`.  ``c_coeffs`` = (c_0=1, c_1, ..., c_r).  Both the b and
    c lag polynomials must be strictly minimum phase.
    """

    a_coeffs: tuple[float, ...]
    b_coeffs: tuple[float, ...]
    c_coeffs: tuple[float, ...]
    delay: int
    sigma_w2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_coeffs", _as_float_tuple(self.a_coeffs, "a_coeffs"))
        object.__setattr__(self, "b_coeffs", _as_float_tuple(self.b_coeffs, "b_coeffs"))
        object.__setattr__(self, "c_coeffs", _as_float_tuple(self.c_coeffs, "c_coeffs"))
        if self.b_coeffs[0] == 0.0:
            raise ValueError("b_coeffs[0] must be nonzero")
        if self.c_coeffs[0] != 1.0:
            raise ValueError(f"c_coeffs[0] must equal 1, got {self.c_coeffs[0]}")
        check_min_phase(self.b_coeffs, "b_coeffs")
        check_min_phase(self.c_coeffs, "c_coeffs")
        if not (isinstance(self.delay, int) and self.delay >= 1):
            raise ValueError(f"delay must be an integer >= 1, got {self.delay}")
        if not self.sigma_w2 > 0.0:
            raise ValueError(f"sigma_w2 must be positive, got {self.sigma_w2}")

    @property
    def order_ar(self) -> int:
        return len(self.a_coeffs)

    @property
    def order_b(self) -> int:
        return len(self.b_coeffs) - 1

    @property
    def order_c(self) -> int:
        return len(self.c_coeffs) - 1

    @cached_property
    def kernel(self) -> "LagForm":
        burn_in = max(self.order_ar, self.order_b + self.delay, self.order_c)
        return LagForm(
            self.a_coeffs, self.b_coeffs, self.c_coeffs, self.delay, 1.0,
            self.sigma_w2, 0, burn_in,
        )


@dataclass(frozen=True, eq=False)
class PartialPlant:
    """Partially observed SISO plant.

    x[t+1] = A x[t] + B u[t] + w[t+1],  y[t] = C x[t] + n[t],
    with w ~ (0, sigma_w2 I) and scalar measurement noise n ~ (0, sigma_n2).
    (A, C) must be observable.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    sigma_w2: float
    sigma_n2: float

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float).reshape(-1)
        C = np.asarray(self.C, dtype=float).reshape(-1)
        p = A.shape[0]
        if A.shape != (p, p):
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape != (p,) or C.shape != (p,):
            raise ValueError("B and C must have one entry per state")
        obs = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(p)])
        if np.linalg.matrix_rank(obs) < p:
            raise ValueError("(A, C) is not observable")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        if not self.sigma_w2 > 0.0:
            raise ValueError(f"sigma_w2 must be positive, got {self.sigma_w2}")
        if not self.sigma_n2 > 0.0:
            raise ValueError(f"sigma_n2 must be positive, got {self.sigma_n2}")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def kernel(self) -> "StateSpaceForm":
        return StateSpaceForm(
            self.A, self.B[:, None], self.C, self.sigma_w2, self.sigma_n2, PARTIAL_BURN_IN
        )


@dataclass(frozen=True, eq=False)
class MimoPlant:
    """Fully observed MIMO plant x[t+1] = A x[t] + B u[t] + w[t+1], w ~ (0, sigma_w2 I)."""

    A: np.ndarray
    B: np.ndarray
    sigma_w2: float

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != n or B.shape[1] == 0:
            raise ValueError(f"B must have {n} rows and an input column, got shape {B.shape}")
        if np.linalg.matrix_rank(B) < n:
            warnings.warn(
                "rank(B) < state dimension: the attack-detectability guarantee "
                "does not apply to this plant",
                stacklevel=2,
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if not self.sigma_w2 > 0.0:
            raise ValueError(f"sigma_w2 must be positive, got {self.sigma_w2}")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @cached_property
    def kernel(self) -> "StateSpaceForm":
        return StateSpaceForm(self.A, self.B, None, self.sigma_w2, None, 0)


# ---------------------------------------------------------------------------
# canonical kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LagForm:
    """Lag-polynomial kernel of the scalar, ARX and ARMAX classes:

    y[t] = -sum_k a[k]*y[t-1-k] + sum_k b[k]*u[t-delay-k] + sum_k c[k]*w[t-k]

    The watermark shaper solves B(q^-1) s = gain * C(q^-1) e, so an honest
    report leaves gain * e[t-delay] in the prediction error.  ``start`` is
    the first step that carries process noise and residuals: 1 for the
    classes that start at rest (w[0] = y[0] = 0), 0 for ARMAX.  ``burn_in``
    is the default number of residuals dropped before windowing.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    c: tuple[float, ...]
    delay: int
    gain: float
    sigma_w2: float
    start: int
    burn_in: int

    n_inputs = 1

    def closed_loop_radius(self, f: float = 0.0) -> float:
        """Spectral radius of the loop closed by u[t] = f*y[t].

        The characteristic polynomial is A(q^-1) - f q^-delay B(q^-1).
        Feedback through more than MAX_LOOP_ORDER lags is not checked (the
        root finder is cubic in the order) and raises ``ValueError``."""
        a, b, d = self.a, self.b, self.delay
        if f != 0.0 and d + len(b) - 1 > MAX_LOOP_ORDER:
            raise ValueError(
                f"closed loop of order {d + len(b) - 1} is too long to check for "
                f"stability (at most {MAX_LOOP_ORDER})"
            )
        poly = np.zeros(max(len(a) + 1, d + len(b)))
        poly[0] = 1.0
        poly[1 : len(a) + 1] = a
        poly[d : d + len(b)] -= f * np.asarray(b)
        return float(np.max(np.abs(np.roots(poly)), initial=0.0))


@dataclass(frozen=True, eq=False)
class StateSpaceForm:
    """State-space kernel of the partial and MIMO classes:

    x[t+1] = A x[t] + B u[t] + w[t+1] with B a (p, m) matrix.  With ``C``
    given the sensor reads one noisy output y[t] = C x[t] + n[t],
    n ~ (0, sigma_n2); with ``C`` None it reads the state, y[t] = x[t].
    Process noise and residuals start at t = 1.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray | None
    sigma_w2: float
    sigma_n2: float | None
    burn_in: int

    start = 1

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    def closed_loop_radius(self, f=0.0) -> float:
        """Spectral radius of A + B F C_y, the loop closed by u[t] = F y[t]."""
        C_y = np.eye(len(self.A)) if self.C is None else self.C[None, :]
        F = np.broadcast_to(np.asarray(f, dtype=float), (self.n_inputs, len(C_y)))
        return float(np.max(np.abs(np.linalg.eigvals(self.A + self.B @ F @ C_y))))


def dot(row: Sequence[float], x: Sequence[float]) -> float:
    """sum_j row[j]*x[j] on Python floats, added left to right."""
    acc = row[0] * x[0]
    if len(row) > 1:  # a one-term row skips the loop's set-up
        for j in range(1, len(row)):
            acc += row[j] * x[j]
    return acc

