"""Weighted (share-imbalance-correcting) trimming bounds."""

import numpy as np
import pytest

from strata_bounds import (
    DegenerateTrimError,
    EstimationError,
    always_observed_treat_prob,
    block_design,
    estimate_bounds,
    ipw_trimming_share,
    lee_bounds,
    lee_ipw_bounds,
)
from strata_bounds import ipw_estimator
from strata_bounds.gmm_core import fit_from_estimate
from strata_bounds.ipw_estimator import _block_weights

from conftest import (
    build_dataset,
    count_calls,
    random_dataset,
    random_equal_share_dataset,
)

from oracles import oracle_ipw
from frozen_values import DELTA_HAND


def test_control_anchored_treated_share_frozen_value(delta_hand_dataset):
    design = block_design(delta_hand_dataset)
    delta = always_observed_treat_prob(design)
    assert delta == DELTA_HAND  # exact rational arithmetic: 2/6


def test_control_anchored_share_equals_common_share_exactly():
    rng = np.random.default_rng(5)
    for _ in range(30):
        data = random_equal_share_dataset(rng)
        design = block_design(data)
        etas = set(design.eta_g.tolist())
        assert len(etas) == 1
        assert always_observed_treat_prob(design) == etas.pop()


def test_weighted_share_components_match_oracle():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(40):
        data = random_dataset(rng)
        design = block_design(data)
        share = ipw_trimming_share(design)
        n1s = int((data.s * data.d).sum())
        if (1.0 - share.q) * n1s < 1.0:
            continue  # the oracle refuses degenerate retained mass
        checked += 1
        ref = oracle_ipw(data.y, data.s, data.d, data.blocks)
        assert share.q == pytest.approx(ref["q"], abs=1e-12)
        assert share.clamped == ref["clamped"]
        assert design.p_hat == pytest.approx(ref["p"], abs=0.0)
    assert checked >= 20


def test_weighted_bounds_match_oracle_fieldwise():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(40):
        data = random_dataset(rng)
        design = block_design(data)
        try:
            est = lee_ipw_bounds(data, design)
        except DegenerateTrimError:
            with pytest.raises(ValueError):
                oracle_ipw(data.y, data.s, data.d, data.blocks)
            continue
        checked += 1
        ref = oracle_ipw(data.y, data.s, data.d, data.blocks)
        assert est.method == "lee_ipw"
        delta = always_observed_treat_prob(design)
        assert delta == pytest.approx(ref["delta"], abs=1e-14)
        assert est.q == pytest.approx(ref["q"], abs=1e-12)
        assert est.mu0 == pytest.approx(ref["mu0"], abs=1e-10)
        assert est.mu1_lb == pytest.approx(ref["mu1_lb"], abs=1e-9)
        assert est.mu1_ub == pytest.approx(ref["mu1_ub"], abs=1e-9)
        assert est.cutoff_lb == pytest.approx(ref["cut_lb"], abs=1e-12)
        assert est.cutoff_ub == pytest.approx(ref["cut_ub"], abs=1e-12)
        w_c, w_q = (w[design.codes] for w in _block_weights(design))
        np.testing.assert_allclose(w_c, ref["w_c"], rtol=0, atol=1e-14)
        np.testing.assert_allclose(w_q, ref["w_q"], rtol=0, atol=1e-14)
        # the trimming sample of the fit: the rescaled observed-treated
        # outcomes, in dataset order
        stack, _ = fit_from_estimate(data, design, ("ipw_lb",), est)
        np.testing.assert_allclose(
            stack.context.sample, ref["y_tilde"], rtol=0, atol=1e-12
        )
    assert checked >= 20


def _se_identity_regime(data, design, estimate) -> bool:
    """Equal-share designs on which lee-ipw's design SEs equal lee's.

    Every arm has two units or more in every block, every block has an
    observed control, the observed outcomes' mean is within 10 spreads of
    0, and the pooled share is not clamped, so both systems solve every
    moment row.
    """
    c_g = design.n_g - design.t_g
    y = data.y[data.s == 1]
    return bool(
        design.t_g.min() >= 2 and c_g.min() >= 2 and design.n0s_g.min() > 0
        and abs(y.mean()) <= 10 * y.std() and not estimate.flags
    )


def test_weighted_bounds_reduce_to_pooled_under_equal_shares():
    rng = np.random.default_rng(33)
    se_checked = 0
    for _ in range(400):
        data = random_equal_share_dataset(rng)
        design = block_design(data)
        pooled = lee_bounds(data, design)
        weighted = lee_ipw_bounds(data, design)
        # bit-exact: both trim the same values to the same kept mass
        assert always_observed_treat_prob(design) == design.eta_g[0]
        for field in ("q", "delta_lb", "delta_ub", "cutoff_lb", "cutoff_ub"):
            assert getattr(weighted, field) == getattr(pooled, field), field
        if not _se_identity_regime(data, design, pooled):
            continue
        se_checked += 1
        (lee,) = estimate_bounds(data, design, "lee", ("design",))[1].values()
        (ipw,) = estimate_bounds(data, design, "lee-ipw", ("design",))[1].values()
        for se_lee, se_ipw in ((lee.se_lb, ipw.se_lb), (lee.se_ub, ipw.se_ub)):
            assert se_ipw == pytest.approx(se_lee, rel=1e-12, abs=0.0)
    assert se_checked >= 30


def test_weighted_bounds_propagate_clamp_flag():
    # control selection beats treated selection, so the raw share is negative
    data = build_dataset(
        y=[1.0, 0.0, 2.0, 3.0, 4.0, 0.0, 5.0, 6.0],
        s=[1, 0, 1, 1, 1, 0, 1, 1],
        d=[1, 1, 0, 0, 1, 1, 0, 0],
        blocks=["a"] * 4 + ["b"] * 4,
    )
    design = block_design(data)
    share = ipw_trimming_share(design)
    assert share.clamped and share.q_raw < 0.0
    est = lee_ipw_bounds(data, design)
    assert est.q == 0.0
    assert "trimming_share_clamped" in est.flags


def test_weighted_share_undefined_without_treated_outcomes():
    data = build_dataset(
        y=[0.0, 1.0, 0.0, 2.0],
        s=[0, 1, 0, 1],
        d=[1, 0, 1, 0],
        blocks=["a", "a", "b", "b"],
    )
    with pytest.raises(EstimationError):
        ipw_trimming_share(block_design(data))


def test_weighted_mu0_uses_control_weights():
    # block a: eta 1/2 (weight (1-p)/(1-eta) = 1); block b: eta 3/4 so its
    # control carries weight (1-0.625)/(0.25) = 1.5 with p = 5/8
    y = [1.0, 2.0, 10.0, 20.0, 3.0, 4.0, 5.0, 40.0]
    s = [1] * 8
    d = [1, 1, 0, 0, 1, 1, 1, 0]
    blocks = ["a"] * 4 + ["b"] * 4
    data = build_dataset(y, s, d, blocks)
    est = lee_ipw_bounds(data, block_design(data))
    w_a = (1 - 0.625) / (1 - 0.5)
    w_b = (1 - 0.625) / (1 - 0.75)
    expect = (w_a * (10.0 + 20.0) + w_b * 40.0) / (2 * w_a + w_b)
    assert est.mu0 == pytest.approx(expect, abs=1e-12)


def test_weighted_fit_forms_the_rate_sums_once_in_each_step(monkeypatch):
    # the estimate reads delta and the kept mass off one pass, and the fit
    # forms delta from the design once more; the estimate (for its control
    # weights) and the moment pass each form the block weights
    data = random_dataset(np.random.default_rng(34), allow_clamp=False)
    counts = count_calls(
        monkeypatch, [ipw_estimator._rate_sums, _block_weights]
    )
    estimate_bounds(data, block_design(data), "lee-ipw", ("design",))
    assert counts == {"_rate_sums": 2, "_block_weights": 2}
