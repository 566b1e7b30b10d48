"""Forecast-accuracy statistics: the Diebold-Mariano test and its pairwise tables.

The DM test compares two aligned forecast-error series through the mean
of their loss differential d_t = e_a,t^2 - e_b,t^2, scaled by a long-run
variance estimate (autocovariances up to lag h-1, biased 1/T estimator).
The default statistic carries the Harvey small-sample adjustment and is
referred to a Student-t distribution with T-1 degrees of freedom, two
sided.  A negative statistic means the first model has the smaller loss.

The tail probabilities are computed here, with the standard library only.
The two-sided Student-t p-value with nu degrees of freedom is the
regularized incomplete beta function I_x(nu/2, 1/2) at x = nu / (nu + t^2).
It is evaluated as a Lentz continued fraction (Numerical Recipes, 3rd ed.,
section 6.4) times a prefactor x^a (1-x)^b / B(a, b) taken from
`math.lgamma`; 1 - x is passed in as t^2 / (nu + t^2), and for
x >= (a+1)/(a+b+2) the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) keeps the
fraction converging fast.  Against scipy the relative error is below 1e-9
up to nu = 1e5 and below 1e-7 up to nu = 1e7, where the lgamma difference
loses digits.  The plain (normal) variant's p-value is erfc(|z| / sqrt 2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDifferential

# the model pairs of the single-step and multi-step comparison reports, in report order
DM_PAIRS = {
    "single": (("MLP", "CNN"), ("LSTM", "GRU"), ("MLP", "LSTM"), ("LSTM", "CNN"), ("CNN", "GRU")),
    "multi": (("MLP", "CNN"), ("LSTM", "GRU"), ("MLP", "LSTM"), ("LSTM", "CNN"), ("MLP", "GRU")),
}


def dm_pairs(mode: str) -> tuple[tuple[str, str], ...]:
    """The model pairs of the `mode` report; ValueError for another mode."""
    if mode not in DM_PAIRS:
        raise ValueError(f"unknown mode {mode!r}, expected one of {list(DM_PAIRS)}")
    return DM_PAIRS[mode]


@dataclass(frozen=True)
class DmReport:
    statistic: float
    p_value: float
    h: int
    n_obs: int
    variant: str = "harvey"


_EPS = sys.float_info.epsilon
_TINY = 1e-300     # keeps the Lentz denominators away from zero
_MAX_ITER = 1000   # nu <= 1e7 needs at most about 70 iterations


def _two_sided_normal_p(z: float) -> float:
    """P(|Z| >= |z|) for a standard normal Z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def _two_sided_t_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for a Student-t T with df degrees of freedom."""
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a, b = 0.5 * df, 0.5
    x, y = df / (df + t2), t2 / (df + t2)
    # x^a y^b / B(a, b); log x as -log1p(t^2 / df) keeps its digits when x ~ 1
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     - a * math.log1p(t2 / df) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def dm_test(errors_a, errors_b, h: int = 1, loss: str = "squared",
            harvey: bool = True) -> DmReport:
    """Diebold-Mariano test on two aligned forecast-error series.

    Raises DegenerateDifferential when the loss differential is
    identically zero.  If the long-run variance estimate is non-positive
    at h > 1 it falls back to the lag-0 autocovariance.
    """
    a = np.asarray(errors_a, dtype=np.float64)
    b = np.asarray(errors_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"error series shapes {a.shape} vs {b.shape}")
    T = a.size
    if T <= max(h, 4):
        raise ValueError(f"need more than max(h, 4) = {max(h, 4)} observations, got {T}")
    if loss == "squared":
        d = a ** 2 - b ** 2
    elif loss == "absolute":
        d = np.abs(a) - np.abs(b)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    if np.all(d == 0.0):
        raise DegenerateDifferential("identical losses; forecasts indistinguishable")

    # biased (1/T) autocovariances of d at lags 0 to h - 1
    dc = d - d.mean()
    gamma0, *gammas = (float(np.dot(dc[k:], dc[:T - k]) / T) for k in range(h))
    v_hat = gamma0 + 2.0 * sum(gammas)
    if v_hat <= 0.0:
        # possible at h > 1; documented deterministic fallback
        v_hat = gamma0
    if v_hat <= 0.0:
        raise DegenerateDifferential("long-run variance estimate is zero")

    dm = float(d.mean() / np.sqrt(v_hat / T))
    variant = "harvey" if harvey else "plain"
    if harvey:
        dm *= float(np.sqrt((T + 1 - 2 * h + h * (h - 1) / T) / T))
        p = _two_sided_t_p(dm, T - 1)
    else:
        p = _two_sided_normal_p(dm)
    return DmReport(statistic=dm, p_value=p, h=h, n_obs=T, variant=variant)


def pairwise_dm_matrix(per_model_errors: dict[str, np.ndarray], h: int,
                       mode: str = "single", loss: str = "squared",
                       harvey: bool = True) -> list[tuple[tuple[str, str], DmReport | None]]:
    """One DmReport per model pair, in the fixed report order.

    A degenerate pair (identical losses) yields None instead of raising,
    so the remaining pairs still report.
    """
    out = []
    for a, b in dm_pairs(mode):
        try:
            report = dm_test(per_model_errors[a], per_model_errors[b], h=h,
                             loss=loss, harvey=harvey)
        except DegenerateDifferential:
            report = None
        out.append(((a, b), report))
    return out
