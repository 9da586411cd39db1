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

This module is also the one home of the generated kernels: the closed
loops of both kernels, which :mod:`.harness` runs, and the IIR filter of
:mod:`.residual`.  Each generator writes straight-line Python source from a
shape alone, and :func:`_kernel` compiles it once per (name, shape).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ScalarPlant",
    "ArxPlant",
    "ArmaxPlant",
    "PartialPlant",
    "MimoPlant",
    "LagForm",
    "StateSpaceForm",
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


def _dot_source(acc: str, row: Sequence[str], x: Sequence[str]) -> tuple[list[str], str]:
    """Source of sum_j row[j]*x[j] on named locals: (statements, expression),
    added left to right from row[0]*x[0], zero coefficients included.

    A one-term row is its product alone.  A longer one sums in ``acc``, one
    statement per term, every term kept: a single expression of a few
    thousand terms overflows CPython's compiler recursion limit.
    """
    terms = [f"{r} * {v}" for r, v in zip(row, x)]
    if len(terms) == 1:
        return [], terms[0]
    return [f"{acc} = {terms[0]}", *(f"{acc} += {term}" for term in terms[1:])], acc


def _names(prefix: str, rows: int, cols: int | None = None) -> list:
    """Local names prefix0.., or ``rows`` rows of prefix{r}_{c}."""
    if cols is None:
        return [f"{prefix}{r}" for r in range(rows)]
    return [[f"{prefix}{r}_{c}" for c in range(cols)] for r in range(rows)]


def _unpack(names: Iterable[str], value: str) -> str:
    """Source that binds ``names`` to the items of ``value``."""
    return f"{', '.join(names)}, = {value}"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _lag_source(na: int, nb: int, nc: int, delay: int, nza: int, nub: int,
                attack: str | None) -> str:
    """Source of ``lag_loop``, the closed loop of a :class:`LagForm` with na,
    nb and nc coefficients in a, b and c and input delay ``delay``, under a
    law of nza z and nub u_g coefficients (none for the zero law), for an
    attack kind as in :func:`_ss_source`.  The coefficients arrive as
    arguments, and y, u, z and u_g at lag k stay in the locals y{k}, u{k},
    z{k} and g{k}, zero before t = 0.  Every sum is one statement per term,
    in the hand-written loop's order: y[t] from ``acc = 0.0``, minus the a
    terms, plus the b terms, plus (C(q^-1) w)[t] from CW; ``noise_sim`` runs
    that recursion on z and u_g, then adds c_k times the attacker's noise D,
    newest first and only over the steps since onset; ``additive_estimated``'s
    innovation starts from y[t]; the law starts from za_0 * z[t], adds its z
    terms, subtracts its u_g terms and divides by ub_0.
    """
    lags = {"y": na, "u": delay + nb - 1, "z": max(nza - 1, na * (attack == "noise_sim")),
            "g": max(nub - 1, (delay + nb - 1) * (attack in ("noise_sim", "additive_estimated")))}
    hist = {v: [f"{v}{k}" for k in range(1, n + 1)] for v, n in lags.items()}

    def recursion(acc, ops, y, u):
        return [*(f"{acc} {ops[0]}= a{k} * {y}{1 + k}" for k in range(na)),
                *(f"{acc} {ops[1]}= b{k} * {u}{delay + k}" for k in range(nb))]

    attacked = ["zt = report(t)"]  # a custom attack
    if attack == "replay":
        attacked = ["zt = Z[t - lag]"]
    elif attack == "noise_sim":
        attacked = ["j = t - onset", "zt = 0.0", *recursion("zt", "-+", "z", "g"),
                    "zt += c0 * D[j]", *(f"if j >= {k}: zt += c{k} * D[j - {k}]"
                                         for k in range(1, nc))]
    elif attack == "additive_estimated":
        attacked = ["innov = yt", *recursion("innov", "+-", "y", "g"),
                    "zt = yt + (D[t - onset] - K * innov)"]
    step = ["acc = 0.0", *recursion("acc", "-+", "y", "u"), "yt = acc + cwt", "Y[t] = yt",
            *(["zt = yt"] if attack is None else
              ["if t >= onset:", *_indent(attacked), "else:", "    zt = yt"]), "Z[t] = zt"]
    if nza:
        step += ["g = za0 * zt", *(f"g += za{m} * z{m}" for m in range(1, nza)),
                 *(f"g -= ub{r} * g{r}" for r in range(1, nub)), "g = g / ub0", "G[t] = g",
                 "ut = g + st"]
    else:  # u_g stays at its zero fill
        step.append("ut = 0.0 + st")
    step.append("U[t] = ut")
    for v, new in zip("yuzg", ("yt", "ut", "zt", "g" if nza else "")):
        if hist[v] and new:
            step.append(f"{', '.join(hist[v])} = {', '.join([new, *hist[v][:-1]])}")
    coeffs = (("a", na), ("b", nb), ("c", nc), ("za", nza), ("ub", nub))
    source = [
        "def lag_loop(T, onset, a, b, c, za, ub, CW, S, Y, Z, G, U, lag=None, K=None, D=None,"
        " report=None):",
        *_indent([*(_unpack(_names(v, n), v) for v, n in coeffs if n),
                  " = ".join([*chain(*hist.values()), "0.0"]),
                  "for t, cwt, st in zip(range(T), CW, S):", *_indent(step)]),
    ]
    return "\n".join(source) + "\n"


def _ss_source(p: int, m: int, measured: bool, law: bool, attack: str | None) -> str:
    """Source of ``closed_loop``: one straight-line step on locals of a (p, m)
    state-space plant, for its sensor type, law present and attack kind
    (None, ``replay``, ``noise_sim``, ``additive_estimated`` or ``custom``).

    Made from the shape alone, so no scenario value enters it.  The
    coefficients arrive as flat float lists, unpacked into locals (a{r}_{c}
    for A, and b, c, f and k for B, C, F and the additive gain).  The state
    x, the reports z, u_g and u stay in locals from one step to the next.
    Each column is one memoryview indexed by t (W holds w[1:], D the
    attacker's noise from onset on).  Every sum is :func:`_dot_source`'s,
    term for term and in its order, so the kernel's bits are the loop's.
    """
    q = p if measured else 1
    x, z, g, u, o = (_names(v, k) for v, k in (("x", p), ("z", q), ("g", m), ("u", m), ("o", p)))
    A, B, F, K = _names("a", p, p), _names("b", p, m), _names("f", m, q), _names("k", p, p)
    c = _names("c", p)

    def advance(state, inputs, noise):
        """s[r] = dot(A_r, state) + dot(B_r, inputs) + noise[r]"""
        lines = []
        for r in range(p):
            sa, ea = _dot_source("acc", A[r], state)
            sb, eb = _dot_source("bcc", B[r], inputs)
            lines += [*sa, *sb, f"s{r} = {ea} + {eb} + {noise[r]}"]
        return lines

    def output(state, noise):
        lines, expr = _dot_source("acc", c, state)
        return [*lines, f"z0 = {expr} + {noise}"]

    def moved(dst):
        return [f"{dst[r]} = s{r}" for r in range(p)]

    noise = [f"D{r}[i]" for r in range(p + 1)]
    if attack == "replay":
        attacked = ["i = t - lag", *(f"{z[r]} = Z{r}[i]" for r in range(q))]
    elif attack == "noise_sim" and measured:
        attacked = ["i = t - onset", *advance(z, g, noise), *moved(z)]
    elif attack == "noise_sim":
        attacked = ["i = t - onset", *advance(o, g, noise), *moved(o), *output(o, noise[p])]
    elif attack == "additive_estimated":
        # innovation h = x - (A v + B g) on the previous state v and input g
        attacked = ["i = t - onset"]
        for r in range(p):
            sa, ea = _dot_source("acc", A[r], _names("v", p))
            sb, eb = _dot_source("bcc", B[r], g)
            attacked += [*sa, *sb, f"h{r} = {x[r]} - ({ea} + {eb})"]
        for r in range(p):
            sk, ek = _dot_source("acc", K[r], _names("h", p))
            attacked += [*sk, f"{z[r]} = {x[r]} + ({noise[r]} - {ek})"]
    elif attack == "custom":
        attacked = [_unpack(z, "report(t)") if measured else "z0 = report(t)"]
    honest = [f"{z[r]} = {x[r]}" for r in range(p)] if measured else []
    step = [f"X{r}[t] = {x[r]}" for r in range(p)]
    if not measured:
        step += [*output(x, "N[t]"), "Y[t] = z0"]
    if attack is None:
        step += honest
    else:
        step += ["if t >= onset:", *_indent(attacked)]
        step += ["else:", *_indent(honest)] if honest else []
    step += [f"Z{r}[t] = {z[r]}" for r in range(q)]
    for r in range(m):
        if law:
            sf, ef = _dot_source(g[r], F[r], z)
            step += sf or [f"{g[r]} = {ef}"]
            step += [f"G{r}[t] = {g[r]}", f"{u[r]} = {g[r]} + E{r}[t]"]
        else:  # u_g stays at its zero fill
            step.append(f"{u[r]} = 0.0 + E{r}[t]")
        step.append(f"U{r}[t] = {u[r]}")
    keep = [f"v{r} = {x[r]}" for r in range(p)] if attack == "additive_estimated" else []
    step += ["if t < last:", *_indent([*keep, *advance(x, u, [f"W{r}[t]" for r in range(p)]),
                                       *moved(x)])]
    columns = {"X": p, "Z": q, "U": m, "E": m, "W": p, "G": m if law else 0,
               "D": p + (not measured) if attack in ("noise_sim", "additive_estimated") else 0}
    head = [
        "def closed_loop(T, onset, A, B, X, Z, U, E, W, C=None, Y=None, N=None, F=None, G=None,"
        " lag=None, K=None, D=None, report=None):",
        *_indent([
            _unpack(chain(*A), "A"), _unpack(chain(*B), "B"),
            *([_unpack(c, "C")] if not measured else []),
            *([_unpack(chain(*F), "F")] if law else []),
            *([_unpack(chain(*K), "K")] if attack == "additive_estimated" else []),
            *(_unpack(_names(col, k), col) for col, k in columns.items() if k),
            " = ".join([*x, *g, *o, "0.0"]),
            "last = T - 1",
            "for t in range(T):",
            *_indent(step),
        ]),
    ]
    return "\n".join(head) + "\n"


def _iir_source(n: int, two: bool) -> str:
    """Source of ``iir``: the direct form II transposed recursion of order
    n - 1 on one input, or on two sharing a denominator (``two``).

    Each delay line s_0..s_{n-2} (r_k for the second input), at rest at
    +0.0, runs y = s_0 + b_0 x, s_{k-1} = (s_k + b_k x) - a_k y and
    s_{n-2} = b_{n-1} x - a_{n-1} y; the second line's output is added to
    y after both lines step.  The taps are unpacked into locals, so the
    source holds only n and fixed names.
    """
    lines = [_unpack(_names("b", n), "b"), _unpack(_names("a", n), "a")]
    lines.append(" = ".join([*_names("s", n - 1), "0.0"]))
    chains = [("b", "s", "xt", "yt")]
    if two:
        lines += [_unpack(_names("c", n), "c"), " = ".join([*_names("r", n - 1), "0.0"])]
        chains.append(("c", "r", "vt", "wt"))
        lines.append("for t, xt, vt in zip(range(len(y)), x, v):")
    else:
        lines.append("for t, xt in enumerate(x):")
    step = []
    for tap, line, inp, out in chains:
        step.append(f"{out} = {line}0 + {tap}0 * {inp}")
        step += [f"{line}{k - 1} = ({line}{k} + {tap}{k} * {inp}) - a{k} * {out}"
                 for k in range(1, n - 1)]
        step.append(f"{line}{n - 2} = {tap}{n - 1} * {inp} - a{n - 1} * {out}")
    if two:
        step.append("yt += wt")
    step.append("y[t] = yt")
    source = ["def iir(b, c, a, x, v, y):", *_indent([*lines, *_indent(step)])]
    return "\n".join(source) + "\n"


# Each kernel's generator, by the name of the function its source defines.
_SOURCES = {"lag_loop": _lag_source, "closed_loop": _ss_source, "iir": _iir_source}


@cache
def _kernel(name: str, shape: tuple):
    """The kernel ``name`` that its generator in ``_SOURCES`` writes for
    ``shape``, compiled once per (name, shape)."""
    namespace: dict = {}
    exec(compile(_SOURCES[name](*shape), f"<{name}>", "exec"), namespace)
    return namespace[name]
