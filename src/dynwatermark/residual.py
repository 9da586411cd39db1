"""Watermark-aware residuals, computed as LTI filters of recorded data.

The detector never steps a filter in the closed loop: residuals are rebuilt
from the reported outputs, the nominal inputs and the private excitation
once a run is over.

* Lag-polynomial plants (scalar, ARX, ARMAX): the prediction error ztilde
  solving C(q^-1) ztilde = A(q^-1) z - q^-delay B(q^-1) u_g.  It is
  ``r_raw``; the watermark-removed ``r_wm`` subtracts gain * e[t-delay],
  which leaves the process noise alone under honest reporting.
* State-space plants (partial, MIMO): the correction the reports force on
  the one-step state prediction.  For a measured state it is
  z[t] - A z[t-1] - B u[t-1]; for a noisy scalar output it is K nu[t], the
  gain times the innovation of the steady-state Kalman filter.

The rational filters are ``scipy.signal.lfilter`` and ``ss2tf`` rewritten on
numpy and Python floats with scipy's own operations in scipy's order, so
they give its outputs bit for bit (including the sign of zeros) without
loading ``scipy.signal``.  The recursion is the direct form II transposed
(Oppenheim & Schafer, Discrete-Time Signal Processing).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .linsys import LagForm, PartialPlant, StateSpaceForm

__all__ = [
    "KalmanDesign",
    "kalman_design",
    "lag_filter",
    "rational_filter",
    "prediction_errors",
    "innovations",
]


def lag_filter(coeffs, x: np.ndarray, delay: int = 0) -> np.ndarray:
    """sum_k coeffs[k] * x[t-delay-k] for every t, with x at rest before t=0.

    Each term is added only over the steps it reaches: a sum that starts at
    +0.0 is never -0.0, so the zeros before t=0 would not change its bits.
    """
    T = len(x)
    acc = np.zeros(x.shape)
    for k, ck in enumerate(coeffs):
        lag = delay + k
        if ck != 0.0 and lag < T:
            acc[lag:] += ck * x[: T - lag]
    return acc


def rational_filter(b, a, x: np.ndarray) -> np.ndarray:
    """y with A(q^-1) y = B(q^-1) x for 1-D x, at rest: lfilter(b, a, x) bit for bit.

    A one-tap ``a`` is scipy's FIR path, a convolution with b / a[0]; any
    other runs :func:`_iir`.  Like lfilter, it refuses a[0] == 0 with a
    ``ValueError``.
    """
    if a[0] == 0.0:
        raise ValueError("rational_filter: a[0] must be nonzero")
    if len(a) == 1:
        return np.convolve(np.asarray(b, dtype=float) / a[0], np.asarray(x, dtype=float))[: len(x)]
    return _iir(a, b, x)


def _iir(a, b, x, c=None, v=None) -> np.ndarray:
    """lfilter(b, a, x), plus lfilter(c, a, v) added at each step if ``c``
    (as long as ``b``) is given: one pass over t, one delay line per input.

    b, c and a are zero-padded to one length n, then divided by a[0] (so a
    padded tap is -0.0 when a[0] < 0).  Each delay line Z_0..Z_{n-2}, at rest
    at +0.0, runs y = Z_0 + b_0 x, Z_{k-1} = (Z_k + b_k x) - a_k y and
    Z_{n-2} = b_{n-1} x - a_{n-1} y.  The inputs are read, and y written,
    through memoryviews of float arrays.
    """
    two, n, a0 = c is not None, max(len(a), len(b)), a[0]
    b, c, a = (
        (np.pad(np.asarray(p, dtype=float), (0, n - len(p))) / a0).tolist()
        for p in (b, c if two else b, a)
    )
    inner, b0, b_last, c0, c_last, a_last = range(1, n - 1), b[0], b[-1], c[0], c[-1], a[-1]
    zb, zc = [0.0] * (n - 1), [0.0] * (n - 1)
    x = memoryview(np.ascontiguousarray(x, dtype=float))
    v = memoryview(np.ascontiguousarray(v, dtype=float)) if two else x
    y = np.zeros(len(x))
    y_v = memoryview(y)
    for t, (xt, vt) in enumerate(zip(x, v)):
        yt = zb[0] + b0 * xt
        for k in inner:
            zb[k - 1] = (zb[k] + b[k] * xt) - a[k] * yt
        zb[-1] = b_last * xt - a_last * yt
        if two:
            wt = zc[0] + c0 * vt
            for k in inner:
                zc[k - 1] = (zc[k] + c[k] * vt) - a[k] * wt
            zc[-1] = c_last * vt - a_last * wt
            yt += wt
        y_v[t] = yt
    return y


def prediction_errors(form: LagForm, z: np.ndarray, u_g: np.ndarray) -> np.ndarray:
    """ztilde with C(q^-1) ztilde = A(q^-1) z - q^-delay B(q^-1) u_g, at rest.

    With honest reports and a shaped watermark this is exactly
    gain * e[t-delay] + w[t] (Astrom 1970, innovations form).
    """
    drive = lag_filter((1.0,) + form.a, z)
    drive -= lag_filter(form.b, u_g, form.delay)
    return rational_filter((1.0,), form.c, drive)


# ---------------------------------------------------------------------------
# steady-state Kalman filter (partially observed SISO)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KalmanDesign:
    """Steady-state filter quantities for a partially observed plant.

    ``P`` is the a-priori error covariance (fixed point of the predictor
    Riccati map), ``K`` the filter-form gain applied to the innovation in the
    measurement update, and ``sigma_R2`` = C P C^T + sigma_n2 the innovation
    variance.  The predictor-form gain is ``K_pred`` = A K.
    """

    plant: PartialPlant | StateSpaceForm
    P: np.ndarray
    K: np.ndarray
    sigma_R2: float
    iterations: int

    @property
    def K_pred(self) -> np.ndarray:
        return self.plant.A @ self.K


def kalman_design(
    plant: PartialPlant | StateSpaceForm, tol: float = 1e-12, max_iter: int = 10**6
) -> KalmanDesign:
    """Solve the predictor Riccati equation by fixed-point iteration from 0.

    P <- A P A^T - A P C^T (C P C^T + sigma_n2)^{-1} C P A^T + sigma_w2 I,
    iterated until the max-abs entry change drops below ``tol``.  Starting
    from P=0 the iterates increase in the PSD order toward the fixed point.
    """
    A, C = plant.A, plant.C
    p = A.shape[0]
    P = np.zeros((p, p))
    for it in range(1, max_iter + 1):
        PCt = P @ C
        S = float(C @ PCt) + plant.sigma_n2
        APCt = A @ PCt
        P_next = A @ P @ A.T - np.outer(APCt, APCt) / S + plant.sigma_w2 * np.eye(p)
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) < tol:
            P = P_next
            break
        P = P_next
    else:
        raise RuntimeError(f"Riccati iteration did not converge in {max_iter} steps")
    PCt = P @ C
    sigma_R2 = float(C @ PCt) + plant.sigma_n2
    K = PCt / sigma_R2
    return KalmanDesign(plant=plant, P=P, K=K, sigma_R2=sigma_R2, iterations=it)


def innovations(form: StateSpaceForm, z: np.ndarray, u: np.ndarray | None) -> np.ndarray:
    """Corrections the reports z[1:] force on the one-step state prediction.

    Measured state (``C`` None): z[t] - (A z[t-1] + B u[t-1]).  Noisy output:
    K nu[t] of the steady-state Kalman filter started at rest, x_hat(0|0) = 0,
    run as LTI filters of (z, u).  ``u`` None filters z alone, which is how
    the oracle maps a report distortion onto the residual.
    """
    if form.C is None:
        pred = _row_dots(form.A, z[:-1])
        if u is not None:
            pred += _row_dots(form.B, u[:-1])
        return np.subtract(z[1:], pred, out=pred)
    A, b, C = form.A, form.B[:, 0], form.C
    K = kalman_design(form).K
    M = np.eye(len(A)) - np.outer(K, C)
    # state x_hat(t-1|t-1), inputs (z[t], u[t-1]), output nu[t]
    system = (M @ A, np.column_stack([K, M @ b]), -(C @ A)[None, :],
              np.array([[1.0, -float(C @ b)]]))
    num_z, den = _ss2tf(*system, 0)
    if u is None:
        return _times_gain(rational_filter(num_z, den, z[1:]), K)
    # the z and u filters share den, so they run in one pass
    return _times_gain(_iir(den, num_z, z[1:], _ss2tf(*system, 1)[0], u[:-1]), K)


def _row_dots(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v @ M.T, each entry's products added left to right on (T,) columns as
    the closed loop adds them: no BLAS call, so no bit depends on its kernel."""
    return np.column_stack(
        [reduce(add, [v[:, j] * m_j for j, m_j in enumerate(row)]) for row in M.tolist()]
    )


def _times_gain(nu: np.ndarray, K: np.ndarray) -> np.ndarray:
    """np.outer(nu, K); a one-state gain scales ``nu`` in place."""
    if len(K) > 1:
        return np.outer(nu, K)
    nu *= K[0]
    return nu[:, None]


def _ss2tf(A, B, C, D, j: int):
    """(num, den) of input ``j`` of a one-output system: ss2tf(A, B, C, D, j)
    with scipy's operations, den = det(sI - A) and
    num = det(sI - A + B_j C) + (D_j - 1) den."""
    den = np.poly(A)
    return np.poly(A - np.dot(B[:, j : j + 1], C)) + (D[0, j] - 1) * den, den
