"""Weighted trimming bounds for designs with heterogeneous treated shares.

Block-level weights undo the share imbalance: controls are reweighted by
(1 - p)/(1 - eta_g), the trimming share keeps treated mass sum_g t_g m_g
(the observed controls weighted by eta_g(1 - p)/((1 - eta_g) p), times
p/(1 - p)), and treated outcomes are rescaled by delta/eta_g where delta is
the control-observed-rate-weighted treated share. Under equal shares every
weight is 1 and the estimator reduces to the pooled one, through the same
trimming path.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .data_model import BlockDesign, Dataset
from .errors import EstimationError
from .lee_estimator import (
    METHOD_IPW,
    BoundsEstimate,
    TrimmingShare,
    _pooled_bounds,
    _trimming_share,
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


def _block_weights(design: BlockDesign) -> tuple[np.ndarray, np.ndarray]:
    """Per block, the control weight w_c = (1 - p)/(1 - eta_g) and the
    trimming-share weight w_q = eta_g (1 - p)/((1 - eta_g) p)."""
    eta, p = design.eta_g, design.p_hat
    return (1.0 - p) / (1.0 - eta), eta * (1.0 - p) / ((1.0 - eta) * p)


def ipw_trimming_share(design: BlockDesign) -> TrimmingShare:
    """Weighted trimming share, which keeps treated mass sum_g t_g m_g;
    negative raw values clamp to zero."""
    kept, _ = _rate_sums(design)
    return _trimming_share(design, kept)


def lee_ipw_bounds(data: Dataset, design: BlockDesign) -> BoundsEstimate:
    """Weighted trimming bounds."""
    kept, den = _rate_sums(design)
    share = _trimming_share(design, kept)
    delta = _treat_prob(kept, den)  # raises where no control is observed

    d, s, y = data.d, data.s, data.y
    obs_treated = (d == 1) & (s == 1)
    obs_control = (d == 0) & (s == 1)
    y_tilde = (delta / design.eta_g[design.codes[obs_treated]]) * y[obs_treated]
    w_c = _block_weights(design)[0][design.codes[obs_control]]
    mu0 = float((w_c * y[obs_control]).sum() / w_c.sum())
    return _pooled_bounds(METHOD_IPW, design, share, y_tilde, mu0)
