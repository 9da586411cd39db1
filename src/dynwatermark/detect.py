"""Windowed consistency statistics, threshold calibration, and alarms.

The detector consumes residual streams in non-overlapping windows of length
``l`` and compares each window's statistic against a calibrated threshold.
Four statistic kinds cover the tests used across the plant classes:

* ``variance``     — mean square of a scalar residual vs. a known target;
* ``cross_corr``   — deviation of the excitation/residual cross-correlation
                     from its known target;
* ``cov``          — Stein-type divergence of the window second-moment matrix
                     from a PD target (zero iff equal);
* ``cov_entries``  — entrywise max-abs deviation of the second-moment matrix
                     (for rank-deficient targets);
* ``nll``          — negative log-likelihood of the window scatter under the
                     nominal Wishart law.

Calibration is closed-form chi-square for the Gaussian variance kind and
Monte Carlo elsewhere, always from the scenario's own null model; Gaussian
nulls draw each window's joint (e, r) scatter from its Wishart law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import multigammaln
from scipy.stats import chi2

from .watermark import draw_iid

__all__ = [
    "WindowStat",
    "variance_stat",
    "cross_corr_stat",
    "cov_stat",
    "cov_entries_stat",
    "nll_window",
    "ResidualNull",
    "Threshold",
    "simulate_null_stats",
    "threshold_from_stats",
    "calibrate_threshold",
    "AlarmLog",
    "sequential_detect",
    "STAT_KINDS",
]

STAT_KINDS = ("variance", "cross_corr", "cov", "cov_entries", "nll")


@dataclass(frozen=True)
class WindowStat:
    kind: str
    window_len: int
    value: float
    target: object = None

    @property
    def normalized(self) -> float:
        """value / target, for the variance kind."""
        if self.kind != "variance":
            raise ValueError(f"normalized is defined for variance, not {self.kind}")
        return self.value / float(self.target)


def variance_stat(samples, target: float) -> WindowStat:
    """Mean square of a scalar residual window."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-d array")
    if not target > 0.0:
        raise ValueError(f"target variance must be positive, got {target}")
    value = float(np.mean(samples * samples))
    return WindowStat("variance", samples.size, value, target)


def cross_corr_stat(e_samples, residuals, target) -> WindowStat:
    """Deviation of the empirical lag cross-correlation from its target.

    ``e_samples[k]`` must already be aligned with ``residuals[k]`` (the caller
    pairs e[k] with the residual it should surface in).  Scalar residuals give
    an absolute deviation, vector residuals a Euclidean one.
    """
    e_samples = np.asarray(e_samples, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if e_samples.ndim != 1 or e_samples.shape[0] != residuals.shape[0]:
        raise ValueError(
            f"misaligned windows: {e_samples.shape} excitation vs "
            f"{residuals.shape} residuals"
        )
    if residuals.ndim == 1:
        emp = float(np.mean(e_samples * residuals))
        value = abs(emp - float(target))
    else:
        emp = e_samples @ residuals / e_samples.shape[0]
        value = float(np.linalg.norm(emp - np.asarray(target, dtype=float)))
    return WindowStat("cross_corr", e_samples.shape[0], value, target)


def _window_scatter(residuals) -> tuple[np.ndarray, int, int]:
    r = np.asarray(residuals, dtype=float)
    if r.ndim == 1:
        r = r[:, None]
    l, n = r.shape
    return r.T @ r / l, l, n


def _as_sigma0(Sigma0, n: int) -> np.ndarray:
    S0 = np.atleast_2d(np.asarray(Sigma0, dtype=float))
    if S0.shape != (n, n):
        raise ValueError(f"Sigma0 must be {n}x{n}, got {S0.shape}")
    return S0


def cov_stat(residuals, Sigma0) -> WindowStat:
    """Stein divergence trace(S0^-1 S) - logdet(S0^-1 S) - n of the window.

    Nonnegative, zero iff the window scatter S equals the target exactly;
    grows for inflation, deflation and rotation alike.  Needs l > n so S is
    a.s. nonsingular, and a positive-definite target.
    """
    S, l, n = _window_scatter(residuals)
    S0 = _as_sigma0(Sigma0, n)
    if l <= n:
        raise ValueError(f"window of {l} samples cannot estimate a {n}x{n} scatter")
    ratio = np.linalg.solve(S0, S)
    sign, logdet = np.linalg.slogdet(ratio)
    if sign <= 0:
        raise ValueError("window scatter is singular")
    value = max(float(np.trace(ratio) - logdet - n), 0.0)
    return WindowStat("cov", l, value, S0)


def cov_entries_stat(residuals, Sigma0) -> WindowStat:
    """Entrywise max-abs deviation of the window scatter, relative to the
    largest target entry.  Defined for rank-deficient targets too."""
    S, l, n = _window_scatter(residuals)
    S0 = _as_sigma0(Sigma0, n)
    scale = float(np.max(np.abs(S0)))
    if scale == 0.0:
        raise ValueError("Sigma0 is identically zero")
    value = float(np.max(np.abs(S - S0)) / scale)
    return WindowStat("cov_entries", l, value, S0)


def _wishart_const(l: int, n: int, S0: np.ndarray) -> tuple[float, float]:
    sign0, logdet0 = np.linalg.slogdet(S0)
    if sign0 <= 0:
        raise ValueError("Sigma0 must be positive definite")
    const = (
        0.5 * l * n * math.log(2.0) + 0.5 * l * logdet0 + multigammaln(0.5 * l, n)
    )
    return const, logdet0


def nll_window(residuals, Sigma0) -> WindowStat:
    """Negative log-likelihood of the window scatter under the nominal law.

    l*S is Wishart(l, Sigma0) when the window holds l i.i.d. N(0, Sigma0)
    residuals; this evaluates minus its log-density at the observed scatter.
    Low likelihood flags inflation and deflation in one number.
    """
    S, l, n = _window_scatter(residuals)
    S0 = _as_sigma0(Sigma0, n)
    if l <= n:
        raise ValueError(f"window of {l} samples cannot estimate a {n}x{n} scatter")
    const, _ = _wishart_const(l, n, S0)
    sign, logdet_S = np.linalg.slogdet(S)
    if sign <= 0:
        raise ValueError("window scatter is singular")
    logdet_X = n * math.log(l) + logdet_S
    trace_term = float(np.trace(np.linalg.solve(S0, S)))
    logpdf = 0.5 * (l - n - 1) * logdet_X - 0.5 * l * trace_term - const
    return WindowStat("nll", l, -float(logpdf), S0)


# ---------------------------------------------------------------------------
# null model and calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ResidualNull:
    """Generator for honest-window residuals, shared by all plant classes.

    Coupled modes (scalar/matrix ``gain``): r = gain*e + w with e the public
    watermark and w the process noise.  Decoupled mode (vector ``gain`` plus
    ``innovation_var``): r = gain * nu with nu a Gaussian innovation
    independent of the excitation stream — the partially-observed null, where
    the watermark is swallowed by the filter prediction.
    """

    gain: object = 0.0
    sigma_e2: float = 0.0
    sigma_w2: float = 0.0
    e_family: str = "gaussian"
    w_family: str = "gaussian"
    innovation_var: float | None = None

    def __post_init__(self) -> None:
        g = self.gain
        if np.ndim(g) == 0:
            mode = "scalar"
            g = float(g)
        elif np.ndim(g) == 1:
            mode = "decoupled"
            g = np.asarray(g, dtype=float)
            if self.innovation_var is None:
                raise ValueError("vector gain requires innovation_var")
        elif np.ndim(g) == 2:
            mode = "matrix"
            g = np.asarray(g, dtype=float)
        else:
            raise ValueError("gain must be scalar, vector or matrix")
        object.__setattr__(self, "gain", g)
        object.__setattr__(self, "mode", mode)

    @property
    def gaussian(self) -> bool:
        return self.e_family == "gaussian" and self.w_family == "gaussian"

    @property
    def dim(self) -> int:
        if self.mode == "scalar":
            return 1
        return self.gain.shape[0]

    def variance_target(self) -> float:
        if self.mode != "scalar":
            raise ValueError("variance target is defined for scalar residuals")
        return self.gain * self.gain * self.sigma_e2 + self.sigma_w2

    def sigma0(self) -> np.ndarray:
        """Nominal second-moment matrix of the residual vector."""
        if self.mode == "scalar":
            return np.array([[self.variance_target()]])
        if self.mode == "matrix":
            G = self.gain
            return self.sigma_e2 * (G @ G.T) + self.sigma_w2 * np.eye(G.shape[0])
        return self.innovation_var * np.outer(self.gain, self.gain)

    def cross_target(self, e_index: int = 0):
        """Nominal mean of e_i[k] * r[k] for actuator ``e_index``."""
        if self.mode == "scalar":
            return self.gain * self.sigma_e2
        if self.mode == "matrix":
            return self.sigma_e2 * self.gain[:, e_index]
        return np.zeros(self.gain.shape[0])

    def loading(self) -> np.ndarray:
        """M with z = (e, r) = M xi, xi ~ N(0, I), under Gaussian families."""
        se, sw = math.sqrt(self.sigma_e2), math.sqrt(self.sigma_w2)
        if self.mode == "decoupled":
            nu = math.sqrt(self.innovation_var) * self.gain[:, None]
            return np.block([[se, 0.0], [np.zeros_like(nu), nu]])
        G = np.atleast_2d(self.gain)
        n, m = G.shape
        top = [se * np.eye(m), np.zeros((m, n))]
        return np.block([top, [se * G, sw * np.eye(n)]])

    def simulate(self, rng: np.random.Generator, n_windows: int, l: int):
        """Draw (e_block, r_block) of null windows; shapes (n_windows, l[, dim])."""
        if self.mode == "scalar":
            e = draw_iid(self.e_family, self.sigma_e2, rng, (n_windows, l))
            w = draw_iid(self.w_family, self.sigma_w2, rng, (n_windows, l))
            return e, self.gain * e + w
        if self.mode == "matrix":
            n, m = self.gain.shape
            e = draw_iid(self.e_family, self.sigma_e2, rng, (n_windows, l, m))
            w = draw_iid(self.w_family, self.sigma_w2, rng, (n_windows, l, n))
            return e, e @ self.gain.T + w
        e = draw_iid(self.e_family, self.sigma_e2, rng, (n_windows, l))
        nu = draw_iid("gaussian", self.innovation_var, rng, (n_windows, l))
        return e, nu[:, :, None] * self.gain


def _wishart_scatter(M: np.ndarray, l: int, n_windows: int, rng) -> np.ndarray:
    """Joint scatters z'z/l of windows of l i.i.d. z = M xi, xi ~ N(0, I_p):
    Bartlett's lower-triangular A, with A_ii = sqrt(chi2_{l-i}) and N(0, 1)
    below the diagonal, has A A' ~ Wishart(l, I_p); needs l >= p."""
    p = M.shape[1]
    A = np.zeros((n_windows, p, p))
    rows, cols = np.tril_indices(p, -1)
    A[:, rows, cols] = rng.standard_normal((n_windows, rows.size))
    d = np.arange(p)
    A[:, d, d] = np.sqrt(rng.chisquare(l - d, (n_windows, p)))
    MA = M @ A
    return MA @ MA.transpose(0, 2, 1) / l


def _joint_scatter(e_block, r_block) -> np.ndarray:
    """Joint scatters z'z/l of z = (e, r) from raw (windows, l[, dim]) blocks."""
    z = np.concatenate([np.atleast_3d(b) for b in (e_block, r_block)], axis=2)
    return np.einsum("wli,wlj->wij", z, z) / z.shape[1]


def _batch_values(
    kind: str, Z: np.ndarray, l: int, n_e: int, *, target=None, Sigma0=None, e_index=0
) -> np.ndarray:
    """Window statistics from joint scatters ``Z`` of z = (e, r), shape
    (windows, n_e + n, n_e + n); formula-identical to the per-window ops
    (pinned by test), used for Monte-Carlo calibration throughput."""
    S = Z[:, n_e:, n_e:]
    n = S.shape[1]
    if kind == "variance":
        return S[:, 0, 0]
    if kind == "cross_corr":
        emp = Z[:, e_index, n_e:]
        return np.linalg.norm(emp - np.atleast_1d(target)[None, :], axis=1)
    S0 = _as_sigma0(Sigma0, n)
    if kind == "cov_entries":
        return np.max(np.abs(S - S0), axis=(1, 2)) / np.max(np.abs(S0))
    if kind not in ("cov", "nll"):
        raise ValueError(f"unknown stat kind {kind!r}")
    const, logdet0 = _wishart_const(l, n, S0) if kind == "nll" else (0.0, 0.0)
    ratio = np.linalg.solve(S0, S)
    sign, logdet = np.linalg.slogdet(ratio)  # logdet(S) - logdet(S0)
    if np.any(sign <= 0):
        raise ValueError("singular window scatter in calibration draw")
    tr = np.trace(ratio, axis1=1, axis2=2)
    if kind == "cov":
        return np.maximum(tr - logdet - n, 0.0)
    logdet_X = n * math.log(l) + logdet + logdet0
    return -(0.5 * (l - n - 1) * logdet_X - 0.5 * l * tr - const)


def simulate_null_stats(
    kind: str,
    l: int,
    null: ResidualNull,
    n_cal: int,
    rng: np.random.Generator,
    *,
    e_index: int = 0,
    chunk_elems: int = 2**22,
) -> np.ndarray:
    """Monte-Carlo sample of the statistic under the null, in memory chunks:
    Wishart window scatters for Gaussian nulls, raw draws otherwise."""
    target = null.cross_target(e_index) if kind == "cross_corr" else None
    Sigma0 = null.sigma0() if kind in ("cov", "cov_entries", "nll") else None
    M = null.loading()
    n_e = M.shape[0] - null.dim
    exact = null.gaussian and l >= M.shape[1]  # Bartlett needs l >= p
    per_window = M.shape[0] ** 2 if exact else l * max(null.dim, 1)
    step = max(int(chunk_elems // per_window), 1)
    out = np.empty(n_cal)
    done = 0
    while done < n_cal:
        take = min(step, n_cal - done)
        if exact:
            Z = _wishart_scatter(M, l, take, rng)
        else:
            Z = _joint_scatter(*null.simulate(rng, take, l))
        out[done : done + take] = _batch_values(
            kind, Z, l, n_e, target=target, Sigma0=Sigma0, e_index=e_index
        )
        done += take
    return out


@dataclass(frozen=True)
class Threshold:
    """Alarm region for one statistic kind: value > hi, or < lo if two-sided."""

    kind: str
    alpha: float
    hi: float
    lo: float | None = None
    method: str = "mc"
    n_cal: int | None = None

    def exceeded(self, value: float, *, channel: str | None = None, end_t=None) -> bool:
        """Whether ``value`` alarms; a non-finite value is an error, not a pass."""
        if not math.isfinite(value):
            where = f"channel {channel or self.kind}, window ending at t={end_t}"
            raise ValueError(f"non-finite statistic {value} on {where}")
        if value > self.hi:
            return True
        return self.lo is not None and value < self.lo


def threshold_from_stats(kind: str, stats: np.ndarray, alpha: float) -> Threshold:
    """Empirical-quantile threshold from a sample of null statistics."""
    _check_alpha(alpha)
    stats = np.asarray(stats, dtype=float)
    if not np.all(np.isfinite(stats)):
        raise ValueError(f"{kind} null sample holds non-finite statistics")
    if kind == "variance":
        lo, hi = np.quantile(stats, [0.5 * alpha, 1.0 - 0.5 * alpha])
        return Threshold(kind, alpha, float(hi), float(lo), "mc", stats.size)
    hi = float(np.quantile(stats, 1.0 - alpha))
    return Threshold(kind, alpha, hi, None, "mc", stats.size)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")


def calibrate_threshold(
    kind: str,
    l: int,
    alpha: float,
    null: ResidualNull,
    n_cal: int | None = None,
    rng: np.random.Generator | int | None = None,
    *,
    e_index: int = 0,
) -> Threshold:
    """Threshold with per-window false-alarm rate ``alpha`` under ``null``.

    The Gaussian variance kind gets the exact two-sided chi-square bands
    target*chi2_q(alpha/2, l)/l and target*chi2_q(1-alpha/2, l)/l; everything
    else (and non-Gaussian variance) is a Monte-Carlo quantile over ``n_cal``
    simulated null windows.
    """
    _check_alpha(alpha)
    if kind not in STAT_KINDS:
        raise ValueError(f"unknown stat kind {kind!r}; expected one of {STAT_KINDS}")
    if kind == "variance" and null.gaussian:
        target = null.variance_target()
        lo = target * chi2.ppf(0.5 * alpha, l) / l
        hi = target * chi2.ppf(1.0 - 0.5 * alpha, l) / l
        return Threshold(kind, alpha, float(hi), float(lo), "chi2")
    if n_cal is None:
        n_cal = max(int(math.ceil(10.0 / alpha)), 10_000)
    if n_cal < 10.0 / alpha:
        raise ValueError(
            f"n_cal={n_cal} too small to place a quantile at alpha={alpha}; "
            f"need at least {math.ceil(10.0 / alpha)}"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    stats = simulate_null_stats(kind, l, null, n_cal, rng, e_index=e_index)
    return threshold_from_stats(kind, stats, alpha)


# ---------------------------------------------------------------------------
# sequential decision
# ---------------------------------------------------------------------------


@dataclass
class AlarmLog:
    """Outcome of running one thresholded statistic over consecutive windows."""

    alarm_times: list
    n_windows: int

    @property
    def first_alarm(self):
        return self.alarm_times[0] if self.alarm_times else None


def sequential_detect(values, threshold: Threshold, window_ends=None) -> AlarmLog:
    """Compare consecutive non-overlapping window statistics to a threshold.

    ``values`` may be floats or :class:`WindowStat`; ``window_ends`` labels
    each window (defaults to 0-based window indices).  The detector never
    accepts forever: every window is tested, so any excursion past the
    threshold is an alarm at that window.
    """
    vals = [v.value if isinstance(v, WindowStat) else float(v) for v in values]
    if window_ends is None:
        window_ends = range(len(vals))
    ends = list(window_ends)
    if len(ends) != len(vals):
        raise ValueError("window_ends and values must align")
    alarms = [end for end, v in zip(ends, vals) if threshold.exceeded(v, end_t=end)]
    return AlarmLog(alarm_times=alarms, n_windows=len(vals))
