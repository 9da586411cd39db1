"""Windowed consistency statistics, threshold calibration, and alarms.

The detector consumes residual streams in non-overlapping windows of length
``l`` and compares each window's statistic against a calibrated threshold.
Five statistic kinds cover the tests used across the plant classes:

* ``variance``     — mean square of a scalar residual vs. a known target;
* ``cross_corr``   — deviation of the excitation/residual cross-correlation
                     from its known target;
* ``cov``          — Stein-type divergence of the window second-moment matrix
                     from a PD target (zero iff equal);
* ``cov_entries``  — entrywise max-abs deviation of the second-moment matrix
                     (for rank-deficient targets);
* ``nll``          — negative log-likelihood of the window scatter under the
                     nominal Wishart law.

Each is a function of the window's joint (excitation, residual) scatter, and
one evaluator (``_batch_values``) computes it from a stack of such scatters,
for calibration draws and detection windows alike.  Calibration is
closed-form chi-square for the Gaussian variance kind and Monte Carlo
elsewhere, always from the scenario's own null model; Gaussian nulls draw
each window's joint (e, r) scatter from its Wishart law, other nulls build it
from raw draws as detection does (``_joint_scatter``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from operator import add

import numpy as np

from .watermark import draw_iid

__all__ = [
    "ResidualNull",
    "Threshold",
    "simulate_null_stats",
    "threshold_from_stats",
    "calibrate_threshold",
    "STAT_KINDS",
]

STAT_KINDS = ("variance", "cross_corr", "cov", "cov_entries", "nll")

# The kinds that score a singular scatter +inf (see _batch_values).
_SINGULAR_KINDS = ("cov", "nll")


# ---------------------------------------------------------------------------
# null model and calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ResidualNull:
    """Generator for honest-window residuals, shared by all plant classes.

    Every null is one law, r = G e + H v: e holds the m public excitation
    samples of a step (variance ``sigma_e2``, family ``e_family``) and v a
    noise independent of it.  A scalar or matrix ``gain`` is the coupled
    null, G = gain, H = I and v = w the process noise (``sigma_w2``,
    ``w_family``).  A vector ``gain`` with ``innovation_var`` is the
    decoupled, partially-observed null, G = 0, H = gain as a column and v a
    Gaussian innovation of that variance: the watermark is swallowed by the
    filter prediction.  ``mode`` names which ("scalar", "matrix" or
    "decoupled").
    """

    gain: object = 0.0
    sigma_e2: float = 0.0
    sigma_w2: float = 0.0
    e_family: str = "gaussian"
    w_family: str = "gaussian"
    innovation_var: float | None = None

    def __post_init__(self) -> None:
        nd = np.ndim(self.gain)
        if nd > 2:
            raise ValueError("gain must be scalar, vector or matrix")
        g = np.asarray(self.gain, dtype=float) if nd else float(self.gain)
        if nd == 1:  # decoupled: G = 0, H = gain, v the innovation
            if self.innovation_var is None:
                raise ValueError("vector gain requires innovation_var")
            G, H = np.zeros((g.size, 1)), g[:, None]
            v_family, sigma_v2 = "gaussian", self.innovation_var
        else:  # coupled: G = gain, H = I, v = w
            G = np.atleast_2d(g)
            H, v_family, sigma_v2 = np.eye(len(G)), self.w_family, self.sigma_w2
        mode = ("scalar", "decoupled", "matrix")[nd]
        for name, value in dict(gain=g, mode=mode, G=G, H=H, v_family=v_family,
                                sigma_v2=sigma_v2).items():
            object.__setattr__(self, name, value)

    @property
    def gaussian(self) -> bool:
        """Whether both e and v are Gaussian, so a window's joint (e, r)
        scatter is Wishart; a decoupled null's v is Gaussian whatever w is."""
        return self.e_family == "gaussian" and self.v_family == "gaussian"

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    def variance_target(self) -> float:
        if np.ndim(self.gain):
            raise ValueError("variance target is defined for scalar residuals")
        return float(self.sigma0()[0, 0])

    def sigma0(self) -> np.ndarray:
        """Nominal second-moment matrix of the residual vector,
        sigma_e2 G G' + sigma_v2 H H'."""
        return self.sigma_e2 * (self.G @ self.G.T) + self.sigma_v2 * (self.H @ self.H.T)

    def cross_target(self, e_index: int = 0) -> np.ndarray:
        """Nominal mean of e_i[k] * r[k] for actuator ``e_index``: sigma_e2 G[:, i]."""
        return self.sigma_e2 * self.G[:, e_index]

    def loading(self) -> np.ndarray:
        """M with z = (e, r) = M xi, xi ~ N(0, I), under Gaussian families."""
        se, sv = math.sqrt(self.sigma_e2), math.sqrt(self.sigma_v2)
        m, k = self.G.shape[1], self.H.shape[1]
        return np.block([[se * np.eye(m), np.zeros((m, k))], [se * self.G, sv * self.H]])

    def simulate(self, rng: np.random.Generator, n_windows: int, l: int):
        """Draw (e_block, r_block) of null windows, shapes (n_windows, l, m)
        and (n_windows, l, dim): e first, then v."""
        m, k = self.G.shape[1], self.H.shape[1]
        e = draw_iid(self.e_family, self.sigma_e2, rng, (n_windows, l, m))
        v = draw_iid(self.v_family, self.sigma_v2, rng, (n_windows, l, k))
        if self.mode == "decoupled":  # G = 0
            return e, _times(v, self.H)
        return e, _times(e, self.G) + v  # H = I


def _times(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M.T over the last axis; a one-column M is a plain product."""
    return x * M[:, 0] if M.shape[1] == 1 else x @ M.T


def _bartlett_draws(p: int, l: int, n_windows: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The variates of ``n_windows`` Bartlett factors of Wishart(l, I_p):
    the N(0, 1) entries below the diagonal, then the chi2_{l-i} whose square
    roots are the diagonal; needs l >= p."""
    normals = rng.standard_normal((n_windows, p * (p - 1) // 2))
    return normals, rng.chisquare(l - np.arange(p), (n_windows, p))


def _wishart_scatter(M: np.ndarray, l: int, normals, chi2, out) -> np.ndarray:
    """Joint scatters z'z/l of windows of l i.i.d. z = M xi, xi ~ N(0, I_p),
    from the variates of their Bartlett factors (:func:`_bartlett_draws`):
    A lower-triangular with A_ii = sqrt(chi2_{l-i}) has A A' ~ Wishart(l, I_p),
    and the scatter is M A A' M' / l, written into ``out``.

    M A and (M A)(M A)' are formed on (windows,) columns, each sum added left
    to right over its nonzero terms (the zeros of M and of A's upper triangle
    are skipped): no BLAS call, so no bit depends on its kernel.
    """
    p = chi2.shape[1]
    A = dict(zip(zip(*np.tril_indices(p, -1)), normals.T))
    A.update(((k, k), np.sqrt(chi2[:, k])) for k in range(p))
    MA = [{j: reduce(add, [m_k * A[k, j] for k, m_k in enumerate(row[j:], j) if m_k])
           for j in range(p) if any(row[j:])} for row in M.tolist()]
    for i, a in enumerate(MA):
        for h, b in enumerate(MA[: i + 1]):
            out[:, i, h] = out[:, h, i] = reduce(add, [a[j] * b[j] for j in a if j in b], 0.0)
    out /= l
    return out


def _joint_scatter(*blocks) -> np.ndarray:
    """Joint scatters z'z/l of z = (blocks...), from (windows, l[, dim]) blocks.

    Entry (i, j) is the mean of z_i z_j over each window.  The coordinates are
    views of the blocks, never a stacked copy; each product is written
    C-ordered, so it is reduced along a contiguous time axis and a window's
    entry is bit-equal to ``np.mean`` of its own products.
    """
    z = [c for b in blocks for c in np.moveaxis(np.atleast_3d(b), 2, 0)]
    if len({c.shape for c in z}) > 1:
        raise ValueError(f"blocks of unequal (windows, l): {[np.shape(b) for b in blocks]}")
    p = len(z)
    Z = np.empty((len(z[0]), p, p))
    for i in range(p):
        for j in range(i + 1):
            Z[:, i, j] = Z[:, j, i] = np.mean(np.multiply(z[i], z[j], order="C"), axis=-1)
    return Z


def _as_sigma0(Sigma0, n: int) -> np.ndarray:
    S0 = np.atleast_2d(np.asarray(Sigma0, dtype=float))
    if S0.shape != (n, n):
        raise ValueError(f"Sigma0 must be {n}x{n}, got {S0.shape}")
    return S0


def _wishart_const(l: int, n: int, S0: np.ndarray) -> tuple[float, float]:
    from scipy.special import multigammaln

    sign0, logdet0 = np.linalg.slogdet(S0)
    if sign0 <= 0:
        raise ValueError("Sigma0 must be positive definite")
    const = (
        0.5 * l * n * math.log(2.0) + 0.5 * l * logdet0 + multigammaln(0.5 * l, n)
    )
    return const, logdet0


def _batch_values(
    kind: str, Z: np.ndarray, l: int, n_e: int, *, target=None, Sigma0=None, e_index=0
) -> np.ndarray:
    """Statistics of windows of length ``l`` from their joint scatters ``Z`` of
    z = (e, r), shape (windows, n_e + n, n_e + n); the one evaluator of every
    kind, for calibration draws and detection windows alike.

    A finite scatter that is not positive definite lies infinitely far from a
    positive-definite target and has zero Wishart density, so ``cov`` and
    ``nll`` score it +inf, an alarm.  Every other value that is not finite
    (an overflow) is NaN, which :func:`_require_finite` refuses.
    """
    S = Z[:, n_e:, n_e:]
    n = S.shape[1]
    if kind == "variance":
        return _nan_unless_finite(S[:, 0, 0])
    if kind == "cross_corr":
        emp = Z[:, e_index, n_e:]
        return _nan_unless_finite(np.linalg.norm(emp - np.atleast_1d(target)[None, :], axis=1))
    S0 = _as_sigma0(Sigma0, n)
    if kind == "cov_entries":
        return _nan_unless_finite(np.max(np.abs(S - S0), axis=(1, 2)) / np.max(np.abs(S0)))
    if kind not in _SINGULAR_KINDS:
        raise ValueError(f"unknown stat kind {kind!r}")
    if l <= n:
        raise ValueError(f"window of {l} samples cannot estimate a {n}x{n} scatter")
    const, logdet0 = _wishart_const(l, n, S0) if kind == "nll" else (0.0, 0.0)
    ratio = np.linalg.solve(S0, S)
    sign, logdet = np.linalg.slogdet(ratio)  # logdet(S) - logdet(S0)
    tr = np.trace(ratio, axis1=1, axis2=2)
    with np.errstate(invalid="ignore"):
        if kind == "cov":
            value = np.maximum(tr - logdet - n, 0.0)
        else:
            logdet_X = n * math.log(l) + logdet + logdet0
            value = -(0.5 * (l - n - 1) * logdet_X - 0.5 * l * tr - const)
    value = _nan_unless_finite(np.where(sign > 0, value, np.nan))
    value[(sign <= 0) & np.isfinite(S).all(axis=(1, 2))] = np.inf
    return value


def _nan_unless_finite(values: np.ndarray) -> np.ndarray:
    """``values``, with NaN wherever one is not finite."""
    return np.where(np.isfinite(values), values, np.nan)


def _null_targets(kind: str, null: ResidualNull, e_index: int = 0) -> dict:
    """The targets :func:`_batch_values` compares ``kind`` with under ``null``."""
    if kind == "cross_corr":
        return {"target": null.cross_target(e_index)}
    if kind in ("cov", "cov_entries", "nll"):
        return {"Sigma0": null.sigma0()}
    return {}


# Windows per sub-block of a Gaussian calibration chunk.  A chunk's variates
# are drawn at once, since their order fixes the thresholds; its scatters and
# statistics are formed this many windows at a time, so their buffers do not
# grow with n_cal.
_SUB_WINDOWS = 2048

# Draws per calibration chunk: a Gaussian chunk holds this many scatter
# entries, a raw-draw chunk this many samples of e, v and r.  The chunk
# sizes fix the order of the draws, so changing this moves the thresholds.
_CHUNK_ELEMS = 2**22


def simulate_null_stats(
    kind: str,
    l: int,
    null: ResidualNull,
    n_cal: int,
    rng: np.random.Generator,
    *,
    e_index: int = 0,
) -> np.ndarray:
    """Monte-Carlo sample of the statistic under the null, in memory chunks:
    Wishart window scatters for Gaussian nulls, raw draws otherwise.

    A Gaussian chunk draws its Bartlett variates at once and reduces them in
    sub-blocks of ``_SUB_WINDOWS`` windows; every step works per window, so
    the statistics do not depend on the sub-block size.  A raw-draw chunk
    holds up to ``_CHUNK_ELEMS`` draws: l samples of e, v and r per window.
    """
    stats_of = partial(_batch_values, kind, l=l, n_e=null.G.shape[1], e_index=e_index,
                       **_null_targets(kind, null, e_index))
    M = null.loading()
    p = M.shape[1]
    exact = null.gaussian and l >= p  # Bartlett needs l >= p
    step = max(int(_CHUNK_ELEMS // (len(M) ** 2 if exact else l * (p + null.dim))), 1)
    out = np.empty(n_cal)
    if exact:
        Z = np.empty((min(_SUB_WINDOWS, n_cal), len(M), len(M)))
    for done in range(0, n_cal, step):
        take = min(step, n_cal - done)
        if not exact:
            out[done : done + take] = stats_of(_joint_scatter(*null.simulate(rng, take, l)))
            continue
        normals, chi2 = _bartlett_draws(p, l, take, rng)
        for a in range(0, take, _SUB_WINDOWS):
            b = min(a + _SUB_WINDOWS, take)
            scatters = _wishart_scatter(M, l, normals[a:b], chi2[a:b], Z[: b - a])
            out[done + a : done + b] = stats_of(scatters)
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

    def exceeded(self, value, *, channel: str | None = None, end_t=None):
        """Whether ``value`` (one window's, or an array with ``end_t`` per
        entry) alarms.  +inf, a singular scatter's score under ``cov`` and
        ``nll``, alarms; any other value that is not finite is an error, not
        a pass."""
        v = np.asarray(value, dtype=float)
        _require_finite(np.atleast_1d(end_t), {channel or self.kind: np.atleast_1d(v)},
                        singular=self.kind in _SINGULAR_KINDS)
        hit = v > self.hi
        if self.lo is not None:
            hit |= v < self.lo
        return hit if v.ndim else bool(hit)


def _require_finite(ends, stats: dict[str, np.ndarray], singular: bool = True) -> None:
    """Refuse a statistic that is NaN or -inf, or +inf unless ``singular``
    (``stats``: channel -> one value per window ending at ``ends``), naming
    the earliest such window, then channel.  :func:`_batch_values` gives
    +inf only for a singular ``cov`` or ``nll`` scatter, and NaN for any
    other value that is not finite."""
    bad = [(np.flatnonzero(~np.isfinite(v) & ~(singular & (v == np.inf))), ch)
           for ch, v in stats.items()]
    bad = [(idx[0], ch) for idx, ch in bad if idx.size]
    if bad:
        wdx, ch = min(bad, key=lambda b: b[0])  # the first channel on a tie
        raise ValueError(
            f"non-finite statistic {stats[ch][wdx]} on channel {ch}, "
            f"window ending at t={ends[wdx]}"
        )


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


def _chi2_ppf(q: float, dof: int) -> float:
    """Chi-square quantile, evaluated as ``scipy.stats.chi2.ppf`` does it
    (2 * gammaincinv(dof/2, q)) without loading ``scipy.stats``."""
    from scipy.special import gammaincinv

    return 2 * gammaincinv(dof / 2, q)


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
        lo = target * _chi2_ppf(0.5 * alpha, l) / l
        hi = target * _chi2_ppf(1.0 - 0.5 * alpha, l) / l
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
