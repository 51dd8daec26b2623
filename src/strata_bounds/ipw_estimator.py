"""Weighted trimming bounds for designs with heterogeneous treated shares.

Block-level weights undo the share imbalance: controls are reweighted by
(1 - p)/(1 - eta_g), the trimming share uses eta_g(1 - p)/((1 - eta_g) p) on
observed controls, and treated outcomes are rescaled by delta/eta_g where
delta is the control-observed-rate-weighted treated share. Under equal
shares every weight is 1 and the estimator reduces to the pooled one.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .data_model import BlockDesign, Dataset
from .errors import EstimationError, UndefinedTrimmingError
from .lee_estimator import (
    METHOD_IPW,
    BoundsEstimate,
    TrimmingShare,
    _trim_both_tails,
)


def _rate_sums(design: BlockDesign) -> tuple[Fraction, Fraction]:
    """(sum_g t_g m_g, sum_g n_g m_g) in exact rational arithmetic.

    Blocks of one shape (t_g, n_g) share the rate denominator, so their
    observed controls are summed first and the rationals are formed per
    shape.
    """
    base = int(design.n_g.max()) + 1
    shapes, at = np.unique(design.t_g * base + design.n_g, return_inverse=True)
    observed = np.bincount(at, weights=design.n0s_g)  # integers, exact in float64
    num = Fraction(0)
    den = Fraction(0)
    for shape, n0s in zip(shapes.tolist(), observed.astype(np.int64).tolist()):
        t_g, n_g = divmod(shape, base)
        rates = Fraction(n0s, n_g - t_g)  # m_g summed over the shape's blocks
        num += t_g * rates
        den += n_g * rates
    return num, den


def always_observed_treat_prob(design: BlockDesign) -> float:
    """Treated share among units weighted by block observed-control rates.

    Computed in exact rational arithmetic over the block counts, so under
    equal treated shares the result equals that share bit-for-bit.
    """
    return _treat_prob(*_rate_sums(design))


def _treat_prob(num: Fraction, den: Fraction) -> float:
    """always_observed_treat_prob from the sums _rate_sums gives."""
    if den == 0:
        raise EstimationError("no observed control outcomes in any block")
    return float(num / den)


def _per_unit_block_arrays(data: Dataset, design: BlockDesign):
    """(eta_i, m_i, w_c_i, w_q_i) aligned with the dataset."""
    eta_i = design.eta_g[design.codes]
    m_i = design.m_g[design.codes]
    p = design.p_hat
    w_c = (1.0 - p) / (1.0 - eta_i)
    w_q = eta_i * (1.0 - p) / ((1.0 - eta_i) * p)
    return eta_i, m_i, w_c, w_q


def ipw_trimming_share(data: Dataset, design: BlockDesign) -> TrimmingShare:
    """Weighted trimming share; negative raw values clamp to zero."""
    _, _, _, w_q = _per_unit_block_arrays(data, design)
    d, s = data.d, data.s
    p = design.p_hat
    num_treated = float((d * s).sum())
    if num_treated == 0:
        raise UndefinedTrimmingError("no observed treated outcomes")
    weighted_controls = float(((1 - d) * s * w_q).sum())
    q_raw = 1.0 - (p * weighted_controls) / ((1.0 - p) * num_treated)
    clamped = q_raw < 0.0
    return TrimmingShare(
        q=max(q_raw, 0.0),
        q_raw=q_raw,
        clamped=clamped,
        rate_treated=num_treated / float(d.sum()),
        rate_control=float(((1 - d) * s).sum()) / float((1 - d).sum()),
    )


def lee_ipw_bounds(data: Dataset, design: BlockDesign) -> BoundsEstimate:
    """Weighted trimming bounds."""
    eta_i, _, w_c, _ = _per_unit_block_arrays(data, design)
    share = ipw_trimming_share(data, design)
    # kept, sum_g t_g m_g, is exactly the kept mass
    kept, den = _rate_sums(design)
    delta = _treat_prob(kept, den)  # raises where no control is observed

    d, s, y = data.d, data.s, data.y
    obs_treated = (d == 1) & (s == 1)
    obs_control = (d == 0) & (s == 1)
    y_tilde = (delta / eta_i[obs_treated]) * y[obs_treated]
    keeps_unit = share.clamped or kept >= 1
    lb, ub = _trim_both_tails(y_tilde, share.q, keeps_unit)

    wc_obs = w_c[obs_control]
    mu0 = float((wc_obs * y[obs_control]).sum() / wc_obs.sum())

    flags = ("trimming_share_clamped",) if share.clamped else ()
    return BoundsEstimate(
        method=METHOD_IPW,
        delta_lb=lb.mean - mu0,
        delta_ub=ub.mean - mu0,
        mu0=mu0,
        mu1_lb=lb.mean,
        mu1_ub=ub.mean,
        q=share.q,
        cutoff_lb=lb.cutoff,
        cutoff_ub=ub.cutoff,
        n_used=int(data.s.sum()),
        flags=flags,
    )
