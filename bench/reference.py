"""Independent reference for the benchmark's output checks.

Nothing here imports ``strata_bounds``. Each formula is taken from the
package's module docstrings and written by another route:

- trimming keeps the (1 - q) mass with position weights: after sorting so
  the kept tail comes first, the value at 0-based position j weighs
  clip(k - j, 0, 1) with k = (1 - q) m, summed with ``math.fsum``;
- the pooled share is 1 - (observed-control rate) / (observed-treated rate),
  clamped at 0; the per-stratum version drops a stratum with an arm that has
  no observed outcome or whose retained mass k is below one unit. There k is
  exact: k = min(ratio, 1) m with the rate ratio as a ``Fraction``, so a
  stratum that keeps exactly one unit is kept;
- the weighted estimator reads the share as 1 - sum_g t_g m_g / n1s (the
  expected observed-treated count under control selection, over the
  observed-treated count), with delta = sum_g t_g m_g / sum_g n_g m_g, treated
  outcomes rescaled by delta / eta_g and controls weighted by 1 / (1 - eta_g);
- the matched-pairs population bounds come from quadrature of the density of
  N(2, 5) + Uniform(0, 2), trimmed at share 1 - 0.7/0.8.

Outcome arrays hold nan where a unit is unobserved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
from scipy import integrate, optimize

_STD = NormalDist()


def trimmed_mean(values, q: float, side: str) -> float:
    """Mean of the kept (1 - q) mass; side "upper" trims the top tail."""
    return kept_mean(values, (1.0 - q) * len(values), side)


def kept_mean(values, k, side: str) -> float:
    """Mean of the kept mass k (a float or a Fraction), trimming one tail."""
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    ys = sorted(values, reverse=side == "lower")
    if k < 1:
        raise ValueError(f"retained mass {k} is below one unit")
    return math.fsum(float(min(max(k - j, 0), 1)) * v
                     for j, v in enumerate(ys)) / float(k)


def _share(n1: int, n0: int, n1s: int, n0s: int) -> float:
    """1 - rate ratio, the ratio taken as one division of integer products."""
    return max(1.0 - (n0s * n1) / (n1s * n0), 0.0)


def lee_bounds(y, s, d) -> tuple[float, float]:
    """Pooled trimming bounds (delta_lb, delta_ub)."""
    y, s, d = np.asarray(y, float), np.asarray(s), np.asarray(d)
    y1 = y[(d == 1) & (s == 1)].tolist()
    y0 = y[(d == 0) & (s == 1)].tolist()
    q = _share(int((d == 1).sum()), int((d == 0).sum()), len(y1), len(y0))
    mu0 = math.fsum(y0) / len(y0)
    return (trimmed_mean(y1, q, "upper") - mu0,
            trimmed_mean(y1, q, "lower") - mu0)


def conditional_lee_bounds(y, s, d, codes) -> tuple[float, float, int]:
    """Per-stratum bounds weighted by stratum size; also the strata used."""
    y, s, d, codes = (np.asarray(a) for a in (y, s, d, codes))
    order = np.argsort(codes, kind="stable")
    cuts = np.flatnonzero(np.diff(codes[order])) + 1
    ys, ss, ds = y[order].tolist(), s[order].tolist(), d[order].tolist()
    num_lb, num_ub, num_0, weight = [], [], [], 0
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(ys)]):
        y1 = [ys[i] for i in range(lo, hi) if ds[i] == 1 and ss[i] == 1]
        y0 = [ys[i] for i in range(lo, hi) if ds[i] == 0 and ss[i] == 1]
        if not y1 or not y0:
            continue
        t_g = sum(ds[lo:hi])
        ratio = Fraction(len(y0) * t_g, len(y1) * (hi - lo - t_g))
        keep = min(ratio, 1) * len(y1)
        if keep < 1:
            continue
        size = hi - lo
        num_lb.append(size * kept_mean(y1, keep, "upper"))
        num_ub.append(size * kept_mean(y1, keep, "lower"))
        num_0.append(size * math.fsum(y0) / len(y0))
        weight += size
    mu0 = math.fsum(num_0) / weight
    return (math.fsum(num_lb) / weight - mu0,
            math.fsum(num_ub) / weight - mu0,
            len(num_0))


def lee_ipw_bounds(y, s, d, codes) -> tuple[float, float]:
    """Weighted trimming bounds for heterogeneous treated shares."""
    y, s, d, codes = (np.asarray(a) for a in (y, s, d, codes))
    n_g = np.bincount(codes).astype(float)
    t_g = np.bincount(codes, weights=d)
    n0s_g = np.bincount(codes, weights=(1 - d) * s)
    m_g = n0s_g / (n_g - t_g)
    eta = (t_g / n_g)[codes]
    obs1 = (d == 1) & (s == 1)
    obs0 = (d == 0) & (s == 1)
    expected_treated = math.fsum((t_g * m_g).tolist())
    q = max(1.0 - expected_treated / int(obs1.sum()), 0.0)
    delta = expected_treated / math.fsum((n_g * m_g).tolist())
    y_tilde = (delta * y[obs1] / eta[obs1]).tolist()
    w0 = 1.0 / (1.0 - eta[obs0])
    mu0 = math.fsum((w0 * y[obs0]).tolist()) / math.fsum(w0.tolist())
    return (trimmed_mean(y_tilde, q, "upper") - mu0,
            trimmed_mean(y_tilde, q, "lower") - mu0)


# ---------------------------------------------------------------------------
# matched-pairs population bounds
# ---------------------------------------------------------------------------

DGP1_SD = math.sqrt(5.0)  # 2X + 2 + noise: N(2, 5)
DGP1_SHARE = 1.0 - 0.7 / 0.8
DGP1_CONTROL_MEAN = 2.0  # selection is independent of outcomes


def _dgp1_cdf(w: float) -> float:
    # P(N(2, 5) + U(0, 2) <= w) = (sd/2) [G(a) - G(b)], G(x) = x Phi(x) + phi(x)
    def g(x):
        return x * _STD.cdf(x) + _STD.pdf(x)

    return 0.5 * DGP1_SD * (g((w - 2.0) / DGP1_SD) - g((w - 4.0) / DGP1_SD))


def _dgp1_pdf(w: float) -> float:
    return 0.5 * (_STD.cdf((w - 2.0) / DGP1_SD) - _STD.cdf((w - 4.0) / DGP1_SD))


def dgp1_population_bounds() -> tuple[float, float]:
    """(lower, upper) bound of the matched-pairs always-observed effect."""
    keep = 1.0 - DGP1_SHARE

    def quantile(p):
        return optimize.brentq(lambda w: _dgp1_cdf(w) - p, -30.0, 40.0,
                               xtol=1e-14)

    def partial_mean(lo, hi):
        return integrate.quad(lambda w: w * _dgp1_pdf(w), lo, hi,
                              epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    lower = partial_mean(-np.inf, quantile(keep)) / keep
    upper = partial_mean(quantile(DGP1_SHARE), np.inf) / keep
    return lower - DGP1_CONTROL_MEAN, upper - DGP1_CONTROL_MEAN


def dgp1_truth_allowance(draws: int = 10_000_000, z: float = 4.0) -> float:
    """z standard errors of a trimmed mean from `draws` simulated outcomes.

    The variance of max(W, c) or min(W, c) is at most Var(W) = 5 + 1/3, so
    sqrt(Var(W)) / ((1 - q) sqrt(draws)) bounds the standard error.
    """
    return z * math.sqrt(5.0 + 4.0 / 12.0) / ((1.0 - DGP1_SHARE) * math.sqrt(draws))


def normal_quantile(p: float) -> float:
    return _STD.inv_cdf(p)
